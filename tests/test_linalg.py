import random
from fractions import Fraction

from ndsys.linalg import SpanBuilder, nullspace_basis, rank_of_rows


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

