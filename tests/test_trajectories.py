from fractions import Fraction

import pytest

from ndsys.intlat import lattice_from_rows
from ndsys.laurent import LaurentVec, parse_vector
from ndsys.linalg import SpanBuilder
from ndsys.groebner import Submodule
from ndsys.sublattice import contract
from ndsys.trajectories import (Window, WindowSpan, box_window,
                                default_membership_window, explicit_window,
                                extension_product_check, restriction_check,
                                window_solutions)

pv = parse_vector


def mod(n, k, texts):
    return Submodule(n, k, [pv(t, n, k) for t in texts])


def test_window_dimension_fixtures():
    assert window_solutions(mod(1, 1, ["s1^2 - 1"]), box_window([(0, 5)])).dimension == 2
    assert window_solutions(mod(1, 1, ["s1 - 1"]), box_window([(0, 5)])).dimension == 1
    # no equations: every node value is free
    assert window_solutions(Submodule(1, 2, []), box_window([(0, 5)])).dimension == 12
    # unit module: only the zero trajectory
    assert window_solutions(mod(1, 1, ["1"]), box_window([(0, 5)])).dimension == 0


def test_window_dimension_shift_invariant():
    p = mod(1, 1, ["s1^2 - s1 - 1"])
    a = window_solutions(p, box_window([(0, 7)])).dimension
    b = window_solutions(p, box_window([(10, 17)])).dimension
    c = window_solutions(p, box_window([(-4, 3)])).dimension
    assert a == b == c == 2


def test_dimension_stabilizes_only_when_fully_autonomous():
    strong = mod(2, 1, ["s1^2 - 1", "s2^2 - 1"])
    dims = [window_solutions(strong, box_window([(0, m), (0, m)])).dimension
            for m in (2, 3, 4)]
    assert dims == [4, 4, 4]

    partial = mod(2, 1, ["s1 - 1"])
    grows = [window_solutions(partial, box_window([(0, m), (0, m)])).dimension
             for m in (2, 3, 4)]
    assert grows == [3, 4, 5]


def test_solution_values_follow_the_recurrence():
    p = mod(1, 1, ["s1^2 - s1 - 1"])
    sp = window_solutions(p, box_window([(0, 6)]))
    for vec in sp.basis:
        for t in range(0, 5):
            a = sp.value(vec, (t,), 0)
            b = sp.value(vec, (t + 1,), 0)
            c = sp.value(vec, (t + 2,), 0)
            assert c == a + b


def test_explicit_window_matches_box():
    p = mod(1, 1, ["s1^2 - 1"])
    box = box_window([(0, 5)])
    expl = explicit_window([(t,) for t in range(6)])
    assert window_solutions(p, box).dimension == window_solutions(p, expl).dimension
    # puncturing at 2 and 5 leaves one equation, tying nodes 1 and 3
    holed = explicit_window([(0,), (1,), (3,), (4,)])
    sp = window_solutions(p, holed)
    assert sp.dimension == 3
    for vec in sp.basis:
        assert sp.value(vec, (3,), 0) == sp.value(vec, (1,), 0)


def test_window_constructors_validate():
    with pytest.raises(ValueError):
        box_window([(3, 1)])
    with pytest.raises(ValueError):
        explicit_window([])
    assert explicit_window([(1,), (0,), (1,)]).points == ((0,), (1,))


@pytest.mark.parametrize("points", [
    [(0, 0), (1,), (0, 1), (1, 1)],
    [(0, 0), (1, 0), (2,)],
])
def test_explicit_window_rejects_mixed_arity(points):
    with pytest.raises(ValueError, match="number of coordinates"):
        explicit_window(points)


def test_window_and_k_must_fit_the_generators():
    line = box_window([(0, 3)])
    pair = pv("[s1 - 1, 1]", 1, 2)
    with pytest.raises(ValueError):
        window_solutions([pair], line, k=1)
    with pytest.raises(ValueError):
        WindowSpan([pair], line, k=1)
    with pytest.raises(ValueError):
        window_solutions(mod(2, 1, ["s1 - 1"]), line)
    with pytest.raises(ValueError):
        window_solutions(Submodule(2, 1, []), line)
    with pytest.raises(ValueError):
        window_solutions([pv("s1 - 1", 2, 1)], line)
    with pytest.raises(ValueError):
        WindowSpan([pv("s1 - 1", 2, 1)], line)


def test_restriction_check_fixtures():
    assert restriction_check(mod(1, 1, ["s1^2 - 1"]),
                             lattice_from_rows(1, [[2]]), [(0, 9)])
    assert restriction_check(mod(1, 2, ["[1, s1]"]),
                             lattice_from_rows(1, [[2]]), [(0, 9)])
    assert restriction_check(mod(2, 1, ["1 + s1*s2 + s2^2"]),
                             lattice_from_rows(2, [[1, 1], [2, 0]]),
                             box_window([(-6, 6), (-6, 6)]))
    assert restriction_check(Submodule(1, 1, []),
                             lattice_from_rows(1, [[2]]), [(0, 5)])


def test_restriction_check_window_too_small():
    with pytest.raises(ValueError):
        restriction_check(mod(1, 1, ["s1^4 - 1"]),
                          lattice_from_rows(1, [[2]]), [(0, 5)])


def test_extension_product_dimensions():
    q1 = contract(mod(1, 1, ["s1 - 1"]), lattice_from_rows(1, [[2]]))
    assert extension_product_check(q1, [(0, 5)])
    q2 = contract(mod(1, 1, ["s1^2 - s1 - 1"]), lattice_from_rows(1, [[2]]))
    assert extension_product_check(q2, [(0, 7)])
    q0 = contract(Submodule(1, 1, []), lattice_from_rows(1, [[2]]))
    assert extension_product_check(q0, [(0, 5)])


def test_extension_product_requires_aligned_window():
    q = contract(mod(1, 1, ["s1 - 1"]), lattice_from_rows(1, [[2]]))
    with pytest.raises(ValueError):
        extension_product_check(q, [(0, 4)])


def test_extension_product_requires_full_rank():
    q = contract(mod(2, 1, ["1 + s1*s2"]), lattice_from_rows(2, [[1, 1]]))
    with pytest.raises(ValueError):
        extension_product_check(q, [(0, 3), (0, 3)])


def test_window_span_certifies_membership_only():
    g = pv("1 + s1*s2 + s2^2", 2, 1)
    span = WindowSpan([g], box_window([(-4, 4), (-4, 4)]))
    v = g.scale(3) + g.shift((1, -1)).scale(Fraction(1, 2)) - g.shift((-2, 0))
    assert span.contains(v)
    assert span.contains(LaurentVec([g.entries[0] * g.entries[0].shift((1, 0))]))
    assert not span.contains(pv("1", 2, 1))
    assert not span.contains(pv("s2^2", 2, 1))
    # sticking out of the window is a refusal, not an error
    assert not span.contains(g.shift((10, 10)))


def test_window_span_passes_linear_algebra_errors_on(monkeypatch):
    g = pv("1 + s1*s2 + s2^2", 2, 1)
    span = WindowSpan([g], box_window([(-2, 2), (-2, 2)]))

    def broken(self, row):
        raise ValueError("fault inside the linear algebra")

    monkeypatch.setattr(SpanBuilder, "contains", broken)
    with pytest.raises(ValueError, match="inside the linear algebra"):
        span.contains(g)


def test_default_membership_window_covers_supports():
    g = pv("s1^-2*s2 + s1^2", 2, 1)
    w = default_membership_window([g])
    assert w.box is not None
    lo, hi = w.box[0]
    assert lo <= -2 - 4 and hi >= 2 + 4
    span = WindowSpan([g], w)
    assert span.contains(g.shift((1, 1)) + g.scale(-2))
