import random
from fractions import Fraction
from math import gcd

import pytest

from ndsys.laurent import parse_vector
from ndsys.linalg import SpanBuilder, nullspace_basis, rank_of_rows
from ndsys.trajectories import _equation_rows, _window_index, box_window


def _dense(row, n):
    return [row.get(i, Fraction(0)) for i in range(n)]


def test_span_builder_basic():
    sb = SpanBuilder()
    assert sb.add({0: Fraction(1), 1: Fraction(2)})
    assert not sb.add({0: Fraction(2), 1: Fraction(4)})
    assert sb.add({1: Fraction(1)})
    assert sb.rank == 2
    assert sb.contains({0: Fraction(3), 1: Fraction(-7)})


def test_span_builder_zero_row():
    sb = SpanBuilder()
    assert not sb.add({})
    assert sb.contains({})
    assert sb.rank == 0


def test_rank_of_rows_random_consistency():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = []
        base = [{j: Fraction(rng.randint(-3, 3)) for j in range(n)}
                for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 4)):
            # random combination of the base rows must not raise the rank
            combo = {}
            for b in base:
                c = rng.randint(-2, 2)
                for j, v in b.items():
                    combo[j] = combo.get(j, Fraction(0)) + c * v
            rows.append(combo)
        r_base = rank_of_rows(base)
        r_all = rank_of_rows(base + rows)
        assert r_all == r_base


def test_nullspace_dimension_theorem():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 7)
        rows = [{j: Fraction(rng.randint(-2, 2)) for j in range(n)}
                for _ in range(rng.randint(0, n + 2))]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        r = rank_of_rows(rows)
        null = nullspace_basis(rows, n)
        assert len(null) == n - r
        for v in null:
            for row in rows:
                acc = sum((row.get(j, Fraction(0)) * c for j, c in v.items()),
                          Fraction(0))
                assert acc == 0
        # basis vectors are independent
        assert rank_of_rows(null) == len(null)


# The Fraction builder this module used before the integer one, kept as the
# reference: reduced echelon form, monic pivot rows, each pivot column
# eliminated from every other stored row on every insert.


def _fraction_reduce(pivots, row):
    out = {c: Fraction(v) for c, v in row.items() if v}
    while True:
        hit = next((c for c in out if c in pivots), None)
        if hit is None:
            return out
        coef = out[hit]
        for c, v in pivots[hit].items():
            nv = out.get(c, Fraction(0)) - coef * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)


def _fraction_span(rows):
    """Add results and pivot rows of the Fraction RREF builder."""
    pivots, added = {}, []
    for row in rows:
        red = _fraction_reduce(pivots, row)
        added.append(bool(red))
        if not red:
            continue
        pivot = min(red)
        inv = 1 / red[pivot]
        red = {c: v * inv for c, v in red.items()}
        for prow in pivots.values():
            coef = prow.get(pivot)
            if coef:
                for c, v in red.items():
                    nv = prow.get(c, Fraction(0)) - coef * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        pivots[pivot] = red
    return added, pivots


def _fraction_nullspace(pivots, ncols):
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for pcol, prow in pivots.items():
            if prow.get(free):
                vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def _random_value(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_rows(rng, ncols):
    rows = []
    for _ in range(rng.randint(0, 14)):
        pick = rng.random()
        if pick < 0.1 and rows:
            rows.append(dict(rows[rng.randrange(len(rows))]))
        elif pick < 0.15:
            rows.append(rng.choice([{}, {0: 0}, {ncols - 1: Fraction(0)}]))
        else:
            rows.append({rng.randrange(ncols): _random_value(rng)
                         for _ in range(rng.randint(1, 4))})
    return rows


def _combination(rng, rows):
    out = {}
    for row in rng.sample(rows, min(len(rows), 3)):
        coef = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for c, v in row.items():
            out[c] = out.get(c, 0) + coef * v
    return out


def _check_against_reference(rng, rows, ncols):
    added, pivots = _fraction_span(rows)
    sb = SpanBuilder()
    assert [sb.add(r) for r in rows] == added
    assert sb.rank == len(pivots)
    queries = [_combination(rng, rows) for _ in range(4)]
    queries += [{rng.randrange(ncols): _random_value(rng)
                 for _ in range(rng.randint(1, 3))} for _ in range(4)]
    for q in queries:
        assert sb.contains(q) == (not _fraction_reduce(pivots, q))
    got = nullspace_basis(rows, ncols)
    want = _fraction_nullspace(pivots, ncols)
    # same vectors, listing their entries in the same order
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert all(type(c) is Fraction for v in got for c in v.values())


def test_integer_builder_matches_fraction_reference_on_random_rows():
    rng = random.Random(2024)
    for _ in range(400):
        ncols = rng.randint(1, 12)
        _check_against_reference(rng, _random_rows(rng, ncols), ncols)


@pytest.mark.parametrize("texts,k,side", [
    (["1 + s1*s2 + s2^2"], 1, 13),
    (["-1 - s1*s2 - s2^2"], 1, 9),
    (["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"], 2, 11),
    (["1/2 - 3*s1 + 5/7*s1*s2^2"], 1, 13),
    (["-2 - 4*s1*s2 + 6*s2^2"], 1, 9),
])
def test_integer_builder_matches_fraction_reference_on_windows(texts, k, side):
    gens = [parse_vector(t, 2, k) for t in texts]
    window = box_window([(0, side - 1)] * 2)
    index = _window_index(window, k)
    rows = list(_equation_rows(gens, window, index))
    _check_against_reference(random.Random(side), rows, len(index))


def test_stored_rows_are_primitive_echelon_int_rows():
    rng = random.Random(5)
    gens = [parse_vector("1/2 - 3*s1 + 5/7*s1*s2^2", 2, 1)]
    window = box_window([(0, 6)] * 2)
    rows = list(_equation_rows(gens, window, _window_index(window, 1)))
    for batch in [rows] + [_random_rows(rng, 10) for _ in range(50)]:
        sb = SpanBuilder()
        for r in batch:
            sb.add(r)
        for pcol, prow in sb.pivots.items():
            assert all(type(v) is int and v for v in prow.values())
            assert gcd(*prow.values()) == 1
            assert min(prow) == pcol
            assert prow[pcol] > 0


def test_nullspace_rejects_columns_out_of_range():
    with pytest.raises(ValueError):
        nullspace_basis([{0: 1, 3: 2}], 3)
    with pytest.raises(ValueError):
        nullspace_basis([{-1: 1}], 3)
