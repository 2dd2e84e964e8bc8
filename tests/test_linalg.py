import random
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

import pytest

from ndsys import linalg
from ndsys.laurent import parse_vector
from ndsys.linalg import (SpanBuilder, _eliminate, nullspace_basis, rank_of_rows,
                          strip_content)
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


def _queries(rng, rows, ncols):
    queries = [_combination(rng, rows) for _ in range(4)]
    return queries + [{rng.randrange(ncols): _random_value(rng)
                       for _ in range(rng.randint(1, 3))} for _ in range(4)]


# The integer builder before inserts cancelled the leading column only, kept
# as the reference: each insert eliminated every pivot column of its row.


class _FullReductionBuilder(SpanBuilder):
    def _reduce(self, row):
        out = {c: v for c, v in row.items() if v}
        if any(type(v) is not int for v in out.values()):
            out = strip_content(out)
        pivots = self.pivots
        heap = [c for c in out if c in pivots]
        heapify(heap)
        while heap:
            col = heappop(heap)
            if col not in out:
                continue
            prow = pivots[col]
            for c in prow:
                if c != col and c not in out and c in pivots:
                    heappush(heap, c)
            _eliminate(out, col, prow)
        return out


def _check_against_full_reduction(rows, ncols, queries, monkeypatch):
    sb, ref = SpanBuilder(), _FullReductionBuilder()
    assert [sb.add(r) for r in rows] == [ref.add(r) for r in rows]
    # the same pivots, inserted in the same order
    assert list(sb.pivots) == list(ref.pivots)
    assert [sb.contains(q) for q in queries] == [ref.contains(q) for q in queries]
    got = nullspace_basis(rows, ncols)
    with monkeypatch.context() as m:
        m.setattr(linalg, "SpanBuilder", _FullReductionBuilder)
        want = nullspace_basis(rows, ncols)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def _check_against_reference(rng, rows, ncols, monkeypatch):
    """Check the builder against both references on rows and random queries."""
    added, pivots = _fraction_span(rows)
    sb = SpanBuilder()
    assert [sb.add(r) for r in rows] == added
    assert sb.rank == len(pivots)
    queries = _queries(rng, rows, ncols)
    for q in queries:
        assert sb.contains(q) == (not _fraction_reduce(pivots, q))
    got = nullspace_basis(rows, ncols)
    want = _fraction_nullspace(pivots, ncols)
    # same vectors, listing their entries in the same order
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert all(type(c) is Fraction for v in got for c in v.values())
    _check_against_full_reduction(rows, ncols, queries, monkeypatch)


def test_integer_builder_matches_fraction_reference_on_random_rows(monkeypatch):
    rng = random.Random(2024)
    for _ in range(400):
        ncols = rng.randint(1, 12)
        _check_against_reference(rng, _random_rows(rng, ncols), ncols, monkeypatch)


K2 = ["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"]


def _window_rows(texts, k, side):
    gens = [parse_vector(t, 2, k) for t in texts]
    window = box_window([(0, side - 1)] * 2)
    index = _window_index(window, k)
    return list(_equation_rows(gens, window, index)), len(index)


@pytest.mark.parametrize("texts,k,side", [
    (["1 + s1*s2 + s2^2"], 1, 13),
    (["-1 - s1*s2 - s2^2"], 1, 9),
    (K2, 2, 11),
    (["1/2 - 3*s1 + 5/7*s1*s2^2"], 1, 13),
    (["-2 - 4*s1*s2 + 6*s2^2"], 1, 9),
])
def test_integer_builder_matches_fraction_reference_on_windows(texts, k, side, monkeypatch):
    rows, ncols = _window_rows(texts, k, side)
    _check_against_reference(random.Random(side), rows, ncols, monkeypatch)


def test_builder_matches_full_reduction_on_k2_window(monkeypatch):
    # too large for the Fraction reference
    rows, ncols = _window_rows(K2, 2, 21)
    queries = _queries(random.Random(21), rows, ncols)
    _check_against_full_reduction(rows, ncols, queries, monkeypatch)


@pytest.mark.parametrize("texts,k,side,most", [
    # full reduction on insert made 7299: 2443 inserting, 4856 back-substituting
    (K2, 2, 15, 1100),
    # hex rows are echelon as they come: no insert eliminates anything
    (["1 + s1*s2 + s2^2"], 1, 41, 2962),
])
def test_nullspace_elimination_count(texts, k, side, most, monkeypatch):
    rows, ncols = _window_rows(texts, k, side)
    calls = []

    def counted(row, col, prow):
        calls.append(col)
        _eliminate(row, col, prow)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    nullspace_basis(rows, ncols)
    assert len(calls) <= most


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


@pytest.mark.parametrize("value", [0.5, "1", 1j, None, ""])
def test_rows_hold_int_or_fraction_values(value):
    row = {0: 1, 2: value}
    calls = [SpanBuilder().add, SpanBuilder().contains,
             lambda r: rank_of_rows([r]), lambda r: nullspace_basis([r], 3)]
    for call in calls:
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            call(row)


def test_nullspace_rejects_columns_out_of_range():
    with pytest.raises(ValueError):
        nullspace_basis([{0: 1, 3: 2}], 3)
    with pytest.raises(ValueError):
        nullspace_basis([{-1: 1}], 3)
