import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ndsys.intlat import IntLattice, lattice_from_rows, zero_lattice
from ndsys.laurent import LaurentPoly, LaurentVec, parse_vector
from ndsys.linalg import SpanBuilder, _eliminate, nullspace_basis, rank_of_rows, strip_content
from ndsys.groebner import Submodule
from ndsys import sublattice, trajectories
from ndsys.sublattice import contract
from ndsys.trajectories import (Window, WindowSolutionSpace, WindowSpan,
                                _as_box_window, _equation_rows, _valid_shifts,
                                _window_index, box_window, default_membership_window,
                                explicit_window, extension_product_check,
                                restriction_check, window_solutions)

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
    # coordinates with an integer value are taken, others are not truncated
    assert box_window([(Fraction(-4, 2), 2.0)]).box == ((-2, 2),)
    assert explicit_window([(Fraction(3), 1.0)]).points == ((3, 1),)
    for bounds in ([(0, 2.7)], [(Fraction(1, 2), 3)], [(0, "3")], [(0, float("nan"))],
                   [(0, float("inf"))], [(None, 1)]):
        with pytest.raises(ValueError, match="not an integer"):
            box_window(bounds)
    for points in ([(0.9,), (1.2,)], [(0, Fraction(1, 3))], [("1",)]):
        with pytest.raises(ValueError, match="not an integer"):
            explicit_window(points)


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


@pytest.mark.parametrize("bounds", [[(0, 7)], [(0, 7)] * 3])
def test_extension_product_rejects_a_box_of_another_dimension(bounds, monkeypatch):
    q = contract(mod(2, 1, ["1 + s1*s2 + s2^2"]), lattice_from_rows(2, [[2, 0], [0, 2]]))

    def unreached(self, x):
        raise AssertionError("a point was mapped before the box was checked")

    monkeypatch.setattr(IntLattice, "coset_rep", unreached)
    with pytest.raises(ValueError, match=f"window has {len(bounds)} axes but the system "
                                         "has 2 variables"):
        extension_product_check(q, bounds)


@pytest.mark.parametrize("k", [0, -2, 1.5, "2"])
def test_explicit_ambient_rank_is_checked(k):
    g = pv("s1 - 1", 1, 1)
    box = box_window([(0, 5)])
    message = "ambient rank must be >= 1" if isinstance(k, int) else "is not an integer"
    for build in (lambda: window_solutions([], box, k=k), lambda: window_solutions([g], box, k=k),
                  lambda: WindowSpan([], box, k=k), lambda: WindowSpan([g], box, k=k)):
        with pytest.raises(ValueError, match=message):
            build()
    # an integral value of another type is the integer it equals
    assert window_solutions([g], box, k=2.0).k == 2
    assert WindowSpan([g], box, k=Fraction(2)).k == 2


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


def test_window_span_rejects_vectors_of_another_shape():
    g = pv("1 + s1*s2 + s2^2", 2, 1)
    span = WindowSpan([g], box_window([(-4, 4), (-4, 4)]))
    for v in (pv("[1 + s1*s2 + s2^2, 0]", 2, 2), pv("1 + s1*s2 + s2^2", 3, 1)):
        with pytest.raises(ValueError, match="vector shape mismatch"):
            span.contains(v)


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


# The Fraction versions of the equation rows and of restriction_check's
# equation half, kept as the reference for the integer ones: each row holds
# the generator's own coefficients, and each restricted trajectory its
# Fraction values read through WindowSolutionSpace.value.


def _fraction_equation_rows(gens, window, index):
    for g in gens:
        supp = g.support()
        for y in _valid_shifts(supp, window):
            row = {}
            for j, poly in enumerate(g.entries):
                for e, c in poly.terms.items():
                    pt = tuple(a + b for a, b in zip(e, y))
                    row[index[(pt, j)]] = c
            if row:
                yield row


def _fraction_solutions(gens, window, k):
    index = _window_index(window, k)
    rows = list(_fraction_equation_rows(gens, window, index))
    return WindowSolutionSpace(window, k, nullspace_basis(rows, len(index)), index)


def _fraction_restriction_check(p, s, w):
    q = sublattice.contract(p, s)
    full = _as_box_window(w)
    pts = set()
    for g in p.generators:
        pts |= g.support()
    margins = []
    for i in range(p.nvars):
        vals = [pt[i] for pt in pts] or [0]
        margins.append(max(vals) - min(vals))
    core_bounds = [(lo + m, hi - m) for (lo, hi), m in zip(full.box, margins)]
    if any(lo > hi for lo, hi in core_bounds):
        raise ValueError("window too small for the interior core")
    sub_pts = [x for x in box_window(core_bounds).points if s.contains(x)]
    if not sub_pts:
        raise ValueError("no sublattice points in the core window")
    t_of = {x: q.context.point_to_sub(x) for x in sub_pts}
    t_window = explicit_window(t_of.values())

    sols = _fraction_solutions(list(p.generators), full, p.k)
    t_index = _window_index(t_window, p.k)
    restricted = []
    for vec in sols.basis:
        row = {}
        for x in sub_pts:
            for j in range(p.k):
                val = sols.value(vec, x, j)
                if val:
                    row[t_index[(t_of[x], j)]] = val
        restricted.append(row)

    q_gens = list(q.module.generators)
    q_rows = list(_fraction_equation_rows(q_gens, t_window, t_index))
    for row in restricted:
        for eq in q_rows:
            acc = Fraction(0)
            for col, c in eq.items():
                v = row.get(col)
                if v:
                    acc += c * v
            if acc:
                return False
    span = SpanBuilder()
    for row in restricted:
        span.add(row)
    return span.rank == _fraction_solutions(q_gens, t_window, p.k).dimension


def _random_vec(rng, n, k, emax):
    entries = []
    for _ in range(k):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, emax) for _ in range(n))
            terms[e] = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3]))
        entries.append(LaurentPoly(n, terms))
    return LaurentVec(entries)


LATTICES = {1: ([[2]], [[3]]),
            2: ([[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [2, 0]], [[2, 0], [0, 2]])}


def _outcome(check, p, s, bounds):
    try:
        return check(p, s, bounds)
    except ValueError as e:
        return f"ValueError: {e}"


def test_integer_restriction_check_matches_fraction_reference():
    rng = random.Random(41)
    outcomes = []
    for _ in range(24):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        p = Submodule(n, k, [_random_vec(rng, n, k, 2 if n == 1 else 1)
                             for _ in range(rng.randint(1, 2))])
        s = lattice_from_rows(n, rng.choice(LATTICES[n]))
        side = rng.randint(9, 14) if n == 1 else rng.randint(6, 9)
        lo = rng.randint(-3, 3)
        bounds = [(lo, lo + side - 1)] * n
        got = _outcome(restriction_check, p, s, bounds)
        assert got == _outcome(_fraction_restriction_check, p, s, bounds)
        outcomes.append(got)
    # the k=2 module on 2Z x Z and on the hex lattice: false negatives of the
    # dimension half, kept as they are
    k2 = mod(2, 2, ["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"])
    for rows, side in (([[2, 0], [0, 1]], 11), ([[1, 1], [2, 0]], 9)):
        s = lattice_from_rows(2, rows)
        bounds = [(0, side - 1)] * 2
        got = restriction_check(k2, s, bounds)
        assert got == _fraction_restriction_check(k2, s, bounds)
        outcomes.append(got)
    assert {True, False} <= set(outcomes)


def _recoefficient(rng, v):
    """v with new random coefficients on the same support."""
    return LaurentVec([LaurentPoly(poly.nvars, {e: Fraction(rng.choice([1, -1, 2, -3, 5]))
                                                for e in poly.terms})
                       for poly in v.entries])


def test_integer_equation_half_matches_fraction_reference(monkeypatch):
    # contracting a module with the same supports but other coefficients
    # gives equations that the restricted trajectories do not all satisfy,
    # so the equation half decides
    real = sublattice.contract
    other = {}
    for module in (sublattice, trajectories):
        monkeypatch.setattr(module, "contract", lambda p, s: real(other[p], s))
    rng = random.Random(43)
    outcomes = []
    for _ in range(12):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        p = Submodule(n, k, [_random_vec(rng, n, k, 1) for _ in range(rng.randint(1, 2))])
        other[p] = Submodule(n, k, [_recoefficient(rng, g) for g in p.generators])
        s = lattice_from_rows(n, rng.choice(LATTICES[n]))
        bounds = [(0, 11 if n == 1 else 7)] * n
        got = _outcome(restriction_check, p, s, bounds)
        assert got == _outcome(_fraction_restriction_check, p, s, bounds)
        outcomes.append(got)
    assert outcomes.count(False) >= 4


@pytest.mark.parametrize("texts,n,k", [
    (["1 + s1*s2 + s2^2"], 2, 1),
    (["-2 - 4*s1*s2 + 6*s2^2"], 2, 1),
    (["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"], 2, 2),
    (["1/2 - 3*s1 + 5/7*s1*s2^2", "[0]"], 2, 1),
    (["[2/3*s1^2 - 4/9, 0]", "[0, -6]"], 1, 2),
])
def test_equation_rows_are_primitive_multiples_of_fraction_rows(texts, n, k):
    gens = [pv(t, n, k) for t in texts]
    window = box_window([(-2, 4)] * n)
    index = _window_index(window, k)
    got = list(_equation_rows(gens, window, index))
    want = list(_fraction_equation_rows(gens, window, index))
    assert len(got) == len(want) > 0
    for row, ref in zip(got, want):
        assert list(row) == list(ref)
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        scale = {Fraction(v) / ref[c] for c, v in row.items()}
        assert len(scale) == 1 and scale.pop() > 0


def test_box_window_points_must_be_the_sorted_box():
    hexv = pv("1 + s1*s2 + s2^2", 2, 1)
    with pytest.raises(ValueError, match="sorted order"):
        window_solutions(Submodule(2, 1, [hexv]), Window(((0, 0), (0, 1)), ((0, 5), (0, 5))))
    box = ((0, 2), (-1, 1))
    points = box_window(box).points
    with pytest.raises(ValueError, match="sorted order"):
        Window(tuple(reversed(points)), box)
    with pytest.raises(ValueError, match="empty box side"):
        Window((), ((3, 1),))
    assert Window(points, box) == box_window(box)
    assert points == tuple(sorted(points))


# The row builder box windows used before their columns were computed by
# offset, kept as the reference: every term of every shift looks its column
# up by point in the window's index.


def _index_equation_rows(gens, window, index):
    for g in gens:
        terms = strip_content({(e, j): c for j, poly in enumerate(g.entries)
                               for e, c in poly.terms.items()})
        if not terms:
            continue
        for y in _valid_shifts(g.support(), window):
            yield {index[(tuple(a + b for a, b in zip(e, y)), j)]: c
                   for (e, j), c in terms.items()}


def _signed_vec(rng, n, k):
    """A random vector of k components with exponents in -2..2."""
    entries = []
    for _ in range(k):
        terms = {tuple(rng.randint(-2, 2) for _ in range(n)):
                 Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3]))
                 for _ in range(rng.randint(0, 3))}
        entries.append(LaurentPoly(n, terms))
    return LaurentVec(entries)


def test_box_offset_rows_match_index_lookup_rows():
    rng = random.Random(61)
    nrows = 0
    for _ in range(90):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        # some generators have fewer than k components
        gens = [_signed_vec(rng, n, rng.randint(1, k)) for _ in range(rng.randint(1, 3))]
        bounds = []
        for _ in range(n):
            lo = rng.randint(-4, 2)
            bounds.append((lo, lo + rng.randint(0, {1: 9, 2: 6, 3: 3}[n])))
        window = box_window(bounds)
        index = _window_index(window, k)
        got = [list(row.items()) for row in _equation_rows(gens, window, index)]
        assert got == [list(row.items()) for row in _index_equation_rows(gens, window, index)]
        nrows += len(got)
    assert nrows > 500


def _random_rows(rng, ncols):
    return [{rng.randrange(ncols): rng.choice([rng.randint(-4, 4),
                                                Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
             for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(0, ncols + 2))]


def _systems(rng, count):
    """Random systems with their window's rows and number of unknowns."""
    for _ in range(count):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        gens = [_signed_vec(rng, n, k) for _ in range(rng.randint(1, 2))]
        window = box_window([(0, 9 if n == 1 else 5)] * n)
        index = _window_index(window, k)
        yield Submodule(n, k, gens), window, list(_equation_rows(gens, window, index)), len(index)


# The projection route restriction_check took before it worked from the row
# space, kept as the reference: the box's reduced echelon int rows, the
# nullspace vectors read off them as primitive int rows on the core's
# sublattice columns, each contracted equation summed against each of them,
# and the rank of those rows against the contracted side's dimension.


def _reduced_rows(rows):
    sb = SpanBuilder()
    for r in rows:
        sb.add(r)
    reduced = {}
    for pcol in sorted(sb.pivots, reverse=True):
        prow = sb.pivots[pcol]
        hits = [c for c in prow if c != pcol and c in reduced]
        if hits:
            prow = dict(prow)
            for c in hits:
                _eliminate(prow, c, reduced[c])
            content = gcd(*prow.values())
            if content != 1:
                prow = {c: v // content for c, v in prow.items()}
        reduced[pcol] = prow
    return {pcol: reduced[pcol] for pcol in sb.pivots}


def _restricted_rows(reduced, ncols, cols):
    vecs = {f: {} for f in range(ncols) if f not in reduced}
    for wc, tc in cols:
        prow = reduced.get(wc)
        if prow is None:
            vecs[wc][tc] = (1, 1)
            continue
        for f, v in prow.items():
            if f != wc:
                vecs[f][tc] = (-v, prow[wc])
    out = []
    for vec in vecs.values():
        den = lcm(*(d for _, d in vec.values()))
        row = {tc: v * (den // d) for tc, (v, d) in vec.items()}
        content = gcd(*row.values())
        out.append({tc: v // content for tc, v in row.items()} if content > 1 else row)
    return out


def _projection_restriction_check(p, s, w):
    q = contract(p, s)
    full = _as_box_window(w)
    pts = set()
    for g in p.generators:
        pts |= g.support()
    margins = []
    for i in range(p.nvars):
        vals = [pt[i] for pt in pts] or [0]
        margins.append(max(vals) - min(vals))
    core_bounds = [(lo + m, hi - m) for (lo, hi), m in zip(full.box, margins)]
    if any(lo > hi for lo, hi in core_bounds):
        raise ValueError("window too small for the interior core")
    sub_pts = [x for x in box_window(core_bounds).points if s.contains(x)]
    if not sub_pts:
        raise ValueError("no sublattice points in the core window")
    t_of = {x: q.context.point_to_sub(x) for x in sub_pts}
    t_window = explicit_window(t_of.values())

    index = _window_index(full, p.k)
    reduced = _reduced_rows(_equation_rows(list(p.generators), full, index))
    t_index = _window_index(t_window, p.k)
    cols = [(index[(x, j)], t_index[(t_of[x], j)]) for x in sub_pts for j in range(p.k)]
    restricted = _restricted_rows(reduced, len(index), cols)

    q_rows = list(_equation_rows(list(q.module.generators), t_window, t_index))
    for row in restricted:
        for eq in q_rows:
            if sum(c * row.get(col, 0) for col, c in eq.items()):
                return False
    span = SpanBuilder()
    for row in restricted:
        span.add(row)
    return span.rank == len(t_index) - rank_of_rows(q_rows)


def test_row_space_check_matches_projection_reference():
    rng = random.Random(67)
    lattices = {1: [lattice_from_rows(1, rows) for rows in LATTICES[1]],
                2: [lattice_from_rows(2, rows) for rows in LATTICES[2] + ([[1, 1]], [[2, 0]])]
                + [zero_lattice(2)]}
    cases = []
    for _ in range(160):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        p = Submodule(n, k, [_random_vec(rng, n, k, 2 if n == 1 else 1)
                             for _ in range(rng.randint(1, 2))])
        side = rng.randint(7, 14) if n == 1 else rng.randint(5, 9)
        lo = rng.randint(-3, 3)
        cases.append((p, rng.choice(lattices[n]), [(lo, lo + side - 1)] * n))
    k2 = mod(2, 2, K2_MODULE)
    for rows, side in (([[2, 0], [0, 1]], 11), ([[1, 1], [2, 0]], 9), ([[1, 1]], 9)):
        cases.append((k2, lattice_from_rows(2, rows), [(0, side - 1)] * 2))
    outcomes = []
    for p, s, bounds in cases:
        got = _outcome(restriction_check, p, s, bounds)
        assert got == _outcome(_projection_restriction_check, p, s, bounds)
        outcomes.append(got)
    assert {True, False} <= set(outcomes)
    assert any(isinstance(got, str) for got in outcomes)


@pytest.mark.parametrize("bounds", [[(0, 8)], [(0, 8)] * 3])
def test_restriction_check_rejects_a_box_of_another_dimension(bounds, monkeypatch):
    def unreached(p, s):
        raise AssertionError("contract ran before the box was checked")

    monkeypatch.setattr(trajectories, "contract", unreached)
    with pytest.raises(ValueError, match=f"window has {len(bounds)} axes but the system "
                                         "has 2 variables"):
        restriction_check(mod(2, 1, ["1 + s1*s2 + s2^2"]),
                          lattice_from_rows(2, [[1, 1], [2, 0]]), bounds)


def test_rank_only_dimension_matches_basis_length():
    # restriction_check reads its contracted dimension as unknowns minus rank
    rng = random.Random(71)
    for _ in range(60):
        ncols = rng.randint(1, 12)
        rows = _random_rows(rng, ncols)
        assert ncols - rank_of_rows(rows) == len(nullspace_basis(rows, ncols))
    for p, window, rows, ncols in _systems(rng, 30):
        assert ncols - rank_of_rows(rows) == window_solutions(p, window).dimension
        holed = explicit_window(pt for pt in window.points if rng.random() < 0.8)
        index = _window_index(holed, p.k)
        holed_rows = list(_equation_rows(list(p.generators), holed, index))
        assert len(index) - rank_of_rows(holed_rows) == window_solutions(p, holed).dimension


K2_MODULE = ["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the dimension half compares the contracted module's window "
                          "solutions, free at the core's boundary, with projected ones "
                          "(ROADMAP item 6)")
@pytest.mark.parametrize("rows,side", [
    ([[2, 0], [0, 1]], 15),
    ([[2, 0], [0, 2]], 15),
    ([[1, 1], [2, 0]], 9),
])
def test_restriction_check_accepts_the_k2_module(rows, side):
    assert restriction_check(mod(2, 2, K2_MODULE), lattice_from_rows(2, rows),
                             [(0, side - 1)] * 2)
