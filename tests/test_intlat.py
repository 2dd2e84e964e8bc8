import random
from fractions import Fraction
from math import gcd

import pytest

from ndsys.groebner import Submodule
from ndsys.intlat import (GaloisSubgroup, IntLattice, IntMatrix,
                          diagonal_lattice, full_lattice, hnf,
                          hnf_with_transform, integer_kernel_rows, join,
                          lattice_from_rows, lattice_to_subgroup, meet,
                          same_coset, smith, subgroup_to_lattice,
                          unimodular_inverse, zero_lattice)
from ndsys.laurent import parse_vector
from ndsys.sublattice import contract


def _rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)]
                                for _ in range(rows)], cols)


def _row_span_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return hnf(a) == hnf(b)


# ---------------------------------------------------------------------------
# Hermite form


def test_hnf_golden_hexagonal():
    h = hnf(IntMatrix.from_rows([[1, 1], [2, 0]], 2))
    assert h.rows == ((1, 1), (0, 2))


def test_hnf_echelon_shape_random():
    """Pivots strictly move right, are positive, and entries above each
    pivot are reduced into [0, pivot)."""
    rng = random.Random(5)
    for _ in range(60):
        m = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h = hnf(m)
        last = -1
        for row in h.rows:
            piv = next((j for j, v in enumerate(row) if v), None)
            assert piv is not None  # zero rows are dropped
            assert piv > last
            assert row[piv] > 0
            last = piv
        for i, row in enumerate(h.rows):
            piv = next(j for j, v in enumerate(row) if v)
            for above in h.rows[:i]:
                assert 0 <= above[piv] < row[piv]


def test_hnf_invariant_under_unimodular_remix():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, rng.randint(1, 4), n)
        rows = [list(r) for r in m.rows]
        # random invertible row operations preserve the row lattice
        for _ in range(6):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            elif rng.random() < 0.5:
                rows[i] = [-a for a in rows[i]]
        assert hnf(m) == hnf(IntMatrix.from_rows(rows, n))


def test_hnf_with_transform_consistency():
    rng = random.Random(13)
    for _ in range(30):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u, r = hnf_with_transform(m)
        assert u.is_unimodular()
        assert u @ m == h
        # first r rows are the Hermite form, the rest are zero
        assert IntMatrix.from_rows(h.rows[:r], m.ncols) == hnf(m)
        assert all(all(v == 0 for v in row) for row in h.rows[r:])


def test_integer_kernel():
    rng = random.Random(17)
    for _ in range(30):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ker = integer_kernel_rows(m)
        for v in ker:
            prod = [sum(v[i] * m.rows[i][j] for i in range(m.nrows))
                    for j in range(m.ncols)]
            assert all(x == 0 for x in prod)


def test_unimodular_inverse():
    u = IntMatrix.from_rows([[2, 1], [1, 1]], 2)
    v = unimodular_inverse(u)
    assert u @ v == IntMatrix.identity(2)
    assert v @ u == IntMatrix.identity(2)
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = _rand_matrix(rng, n, n, -2, 2)
        if abs(m.det()) != 1:
            continue
        assert m @ unimodular_inverse(m) == IntMatrix.identity(n)
        assert unimodular_inverse(m) @ m == IntMatrix.identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]], 2))
    for rows, ncols in (([[1, 2], [2, 4]], 2), ([[1, 0]], 2), ([[1], [0]], 1), ([], 2)):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(IntMatrix.from_rows(rows, ncols))
    assert unimodular_inverse(IntMatrix.identity(0)) == IntMatrix.identity(0)


# ---------------------------------------------------------------------------
# Smith form


def test_smith_golden_example():
    """Columns (2,2) and (1,-3): invariant factors 1 and 8."""
    m = IntMatrix.from_rows([[2, 1], [2, -3]], 2)
    dec = smith(m)
    assert dec.diagonal == (1, 8)
    assert dec.U.is_unimodular() and dec.V.is_unimodular()
    assert dec.U @ dec.D @ dec.V == m


def _minor_gcds(m: IntMatrix, upto: int):
    """gcd of all r x r minors, the classical invariant-factor oracle."""
    from itertools import combinations
    out = []
    rows = [list(r) for r in m.rows]
    for r in range(1, upto + 1):
        g = 0
        for ri in combinations(range(m.nrows), r):
            for ci in combinations(range(m.ncols), r):
                sub = IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri], r)
                g = gcd(g, abs(sub.det()))
        out.append(g)
    return out


def test_smith_random_invariants():
    rng = random.Random(23)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _rand_matrix(rng, rows, cols, -6, 6)
        dec = smith(m)
        assert dec.U @ dec.D @ dec.V == m
        assert dec.U.is_unimodular()
        assert dec.V.is_unimodular()
        diag = dec.diagonal
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
        # determinantal-divisor cross-check
        r = len([d for d in diag if d])
        minors = _minor_gcds(m, r)
        prods = []
        acc = 1
        for d in diag[:r]:
            acc *= d
            prods.append(acc)
        assert minors[:r] == prods


def test_smith_zero_matrix():
    m = IntMatrix.from_rows([[0, 0], [0, 0]], 2)
    dec = smith(m)
    assert dec.diagonal == (0, 0)
    assert dec.U @ dec.D @ dec.V == m


# ---------------------------------------------------------------------------
# lattices


def test_lattice_canonical_and_membership():
    lat = lattice_from_rows(2, [[2, 0], [0, 2], [1, 1]])
    assert lat.basis.rows == ((1, 1), (0, 2))
    assert lat.contains((3, 5))
    assert not lat.contains((1, 0))
    assert lat.index() == 2


def test_lattice_index_none_when_degenerate():
    lat = lattice_from_rows(2, [[1, 1]])
    assert lat.rank == 1
    assert lat.index() is None
    assert lat.contains((2, 2))
    assert not lat.contains((2, -2))


def test_meet_join_laws():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = lattice_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)]
                                  for _ in range(rng.randint(0, n))])
        b = lattice_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)]
                                  for _ in range(rng.randint(0, n))])
        m = meet(a, b)
        j = join(a, b)
        assert a.contains_lattice(m) and b.contains_lattice(m)
        assert j.contains_lattice(a) and j.contains_lattice(b)
        assert join(a, a) == a
        assert meet(a, a) == a
        # absorption
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a


def test_meet_with_zero_and_full():
    a = lattice_from_rows(2, [[2, 1]])
    assert meet(a, zero_lattice(2)) == zero_lattice(2)
    assert meet(a, full_lattice(2)) == a
    assert join(a, zero_lattice(2)) == a


def test_diagonal_lattice_pinned_axis():
    lat = diagonal_lattice([2, 0])
    assert lat.contains((4, 0))
    assert not lat.contains((2, 1))
    assert lat.rank == 1


def test_integer_inputs_are_not_truncated():
    """Entries, moduli and generator entries without an integer value raise
    instead of being truncated; integer values of any type are taken."""
    bad = [
        lambda: lattice_from_rows(2, [[1.5, 0], [0, 2]]),
        lambda: lattice_from_rows(2, [["3", 0]]),
        lambda: IntMatrix.from_rows([[Fraction(3, 2)]]),
        lambda: IntMatrix.from_rows([[None]]),
        lambda: IntMatrix.from_rows([[float("inf")]]),
        lambda: diagonal_lattice([2.5, 1]),
        lambda: GaloisSubgroup.make([2.9], [[1]]),
        lambda: GaloisSubgroup.make([2], [[1.2]]),
        lambda: lattice_to_subgroup(full_lattice(2), [2.5, 1]),
    ]
    for call in bad:
        with pytest.raises(ValueError, match="not an integer"):
            call()
    with pytest.raises(ValueError):
        GaloisSubgroup.make([2, 2], [[1]])
    assert IntMatrix.from_rows([[Fraction(4, 2), 3.0]]).rows == ((2, 3),)
    assert lattice_from_rows(2, [[2.0, 0], [0, Fraction(1)]]) == diagonal_lattice([2, 1])
    assert GaloisSubgroup.make([2.0], [[Fraction(3)]]) == GaloisSubgroup.make([2], [[1]])


def test_diagonal_lattice_moduli_go_through_as_int():
    with pytest.raises(ValueError, match="modulus '2' is not an integer"):
        diagonal_lattice(["2", 1])
    assert diagonal_lattice([2.0, 1]) == diagonal_lattice([2, 1])


def _coset_reducer_reference(lat, x):
    """The coset_reducer loop IntLattice had before reduce: each basis row's
    pivot column found by a scan, then one floor division per row."""
    for row in lat.basis.rows:
        c = next(i for i, val in enumerate(row) if val)
        q = x[c] // row[c]
        if q:
            x = tuple(a - q * b for a, b in zip(x, row))
    return tuple(x)


def test_construction_accepts_exactly_the_hnf_bases():
    """IntLattice(n, m) is accepted exactly when hnf(m) == m.  On accepted
    lattices reduce's representative equals the old coset_reducer loop, it
    lies in [0, pivot) at each pivot column, and the coordinates rebuild
    the point."""
    rng = random.Random(41)
    accepted = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, rng.randint(0, n + 1), n, -6, 6)
        for basis in (m, hnf(m)):
            if hnf(basis) != basis:
                with pytest.raises(ValueError, match="Hermite normal form"):
                    IntLattice(n, basis)
                continue
            lat = IntLattice(n, basis)
            accepted += 1
            assert lat == lattice_from_rows(n, basis.rows)
            for _ in range(4):
                x = tuple(rng.randint(-20, 20) for _ in range(n))
                coords, rep = lat.reduce(x)
                assert rep == _coset_reducer_reference(lat, x)
                assert all(0 <= rep[c] < row[c] for c, row in zip(lat.pivots, basis.rows))
                lattice_part = [sum(c * row[j] for c, row in zip(coords, basis.rows))
                                for j in range(n)]
                assert tuple(map(sum, zip(lattice_part, rep))) == x
    assert accepted > 300


def test_non_canonical_bases_raise():
    """Bases that gave silent wrong answers: Z x 0 written twice (rank 2,
    index 1, and contract kept both variables), a negative pivot (index -6)
    and an unreduced entry above a pivot.  lattice_from_rows takes the same
    rows and gives the right lattice."""
    for rows in ([(1, 0), (1, 0)], [(2, 0), (0, -3)], [(1, 3), (0, 2)]):
        with pytest.raises(ValueError, match="Hermite normal form"):
            IntLattice(2, IntMatrix.from_rows(rows, 2))
    line = lattice_from_rows(2, [(1, 0), (1, 0)])
    assert (line.rank, line.index()) == (1, None)
    q = contract(Submodule(2, 1, [parse_vector("s1 - 1", 2, 1)]), line)
    assert (q.module.nvars, q.context.moduli) == (1, (1,))
    assert lattice_from_rows(2, [(2, 0), (0, -3)]).index() == 6
    assert lattice_from_rows(2, [(1, 3), (0, 2)]).basis.rows == ((1, 1), (0, 2))


def test_construction_checks_ambient_and_basis_type():
    lat = IntLattice(2.0, IntMatrix.identity(2))
    assert lat == full_lattice(2) and type(lat.ambient) is int
    with pytest.raises(ValueError, match="ambient dimension '2' is not an integer"):
        IntLattice("2", IntMatrix.identity(2))
    with pytest.raises(ValueError, match="ambient dimension -1 is negative"):
        IntLattice(-1, IntMatrix((), -1))
    with pytest.raises(ValueError, match="width"):
        IntLattice(3, IntMatrix.identity(2))
    with pytest.raises(TypeError, match="IntMatrix"):
        IntLattice(2, ((1, 0), (0, 1)))
    # entries with an integer value are stored as ints, so reduce works in ints
    two = IntLattice(1, IntMatrix(((2.0,),), 1))
    assert type(two.basis.rows[0][0]) is int and two.reduce((5,)) == ((2,), (1,))
    for build in (lattice_from_rows, zero_lattice, full_lattice):
        args = (-1, []) if build is lattice_from_rows else (-1,)
        with pytest.raises(ValueError, match="negative"):
            build(*args)


def test_galois_subgroup_make_checks_the_moduli_first():
    # a zero modulus must not reach the reduction of the generator entries
    for moduli, gens in (([0], [[1]]), ([0], []), ([2, -3], [[1, 1]])):
        with pytest.raises(ValueError, match="moduli must be positive"):
            GaloisSubgroup.make(moduli, gens)


def test_coset_rep_is_canonical():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 3)
        lat = lattice_from_rows(n, [[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(rng.randint(1, n))])
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        shift = lat.basis.rows[rng.randrange(len(lat.basis.rows))] if lat.rank else None
        rep = lat.coset_rep(x)
        assert same_coset(lat, x, rep)
        if shift:
            y = tuple(a + b for a, b in zip(x, shift))
            assert lat.coset_rep(y) == rep


def test_points_of_the_wrong_dimension_raise():
    """reduce checks the length itself, so no coordinate is silently dropped
    or left out, and coset_rep and contains inherit the check."""
    lat = lattice_from_rows(2, [[2, 0], [0, 2]])
    for x in ((3, 5, 7), (3,), ()):
        for op in (lat.reduce, lat.coset_rep, lat.contains):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(x)


def test_coset_count_matches_index():
    lat = lattice_from_rows(2, [[1, 1], [0, 2]])
    reps = {lat.coset_rep((x, y)) for x in range(-4, 5) for y in range(-4, 5)}
    assert len(reps) == 2


# ---------------------------------------------------------------------------
# finite character groups


def test_galois_five_subgroups_of_mu2xmu2():
    """The five subgroups of the order-4 diagonal group pair off with the
    five lattices between the doubled lattice and Z^2, inclusion-reversed."""
    d = (2, 2)
    trivial = GaloisSubgroup.make(d, [])
    whole = GaloisSubgroup.make(d, [(1, 0), (0, 1)])
    g10 = GaloisSubgroup.make(d, [(1, 0)])
    g01 = GaloisSubgroup.make(d, [(0, 1)])
    g11 = GaloisSubgroup.make(d, [(1, 1)])

    assert subgroup_to_lattice(trivial) == full_lattice(2)
    assert subgroup_to_lattice(whole) == diagonal_lattice([2, 2])
    assert subgroup_to_lattice(g10) == lattice_from_rows(2, [[2, 0], [0, 1]])
    assert subgroup_to_lattice(g01) == lattice_from_rows(2, [[1, 0], [0, 2]])
    assert subgroup_to_lattice(g11) == lattice_from_rows(2, [[1, 1], [2, 0]])


def test_galois_roundtrip_both_ways():
    d = (2, 2)
    subs = [GaloisSubgroup.make(d, gens) for gens in
            ([], [(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (0, 1)])]
    for h in subs:
        lat = subgroup_to_lattice(h)
        back = lattice_to_subgroup(lat, d)
        assert back.same_subgroup(h)
        assert subgroup_to_lattice(back) == lat


def test_same_subgroup_does_not_enumerate(monkeypatch):
    """Subgroups of a group of order about 10^6 compare through the
    lattices they fix, without listing their elements."""
    def unreached(self):
        raise AssertionError("elements enumerated")

    monkeypatch.setattr(GaloisSubgroup, "elements", unreached)
    d = (1009, 1013)
    whole = GaloisSubgroup.make(d, [(1, 0), (0, 1)])
    assert whole.same_subgroup(GaloisSubgroup.make(d, [(1, 1)]))
    assert whole.same_subgroup(GaloisSubgroup.make(d, [(5, 7), (0, 3)]))
    assert not whole.same_subgroup(GaloisSubgroup.make(d, [(1, 0)]))
    assert not GaloisSubgroup.make(d, [(0, 1)]).same_subgroup(GaloisSubgroup.make(d, [(1, 0)]))
    assert not whole.same_subgroup(GaloisSubgroup.make((1013, 1009), [(1, 0), (0, 1)]))


def test_galois_inclusion_reversing():
    d = (2, 2)
    small = GaloisSubgroup.make(d, [(1, 1)])
    big = GaloisSubgroup.make(d, [(1, 0), (0, 1)])
    lat_small = subgroup_to_lattice(small)
    lat_big = subgroup_to_lattice(big)
    assert set(small.elements()) <= set(big.elements())
    assert lat_small.contains_lattice(lat_big)


def test_galois_order_times_index():
    """Subgroup order (the index of its fixed lattice in Z^n) equals the
    number of enumerated elements."""
    d = (2, 4)
    for gens in ([], [(1, 0)], [(0, 1)], [(1, 2)], [(1, 0), (0, 1)]):
        h = GaloisSubgroup.make(d, gens)
        assert h.order() == len(h.elements())


@pytest.mark.parametrize("moduli", [(0, 2), (2, -2)])
def test_lattice_to_subgroup_rejects_nonpositive_moduli(moduli):
    with pytest.raises(ValueError):
        lattice_to_subgroup(full_lattice(2), moduli)


def test_matrix_entries_are_checked_and_rows_normalized():
    """IntMatrix built directly checks its entries like from_rows: a
    non-integer raises, integral floats become ints and list rows become
    tuples, so det is exact and canonical values make a lattice."""
    with pytest.raises(ValueError, match="matrix entry 2.5 is not an integer"):
        IntMatrix(((2.5, 0), (0, 1)), 2)
    with pytest.raises(ValueError, match="matrix entry '1' is not an integer"):
        IntMatrix((("1", 0),), 2)
    m = IntMatrix(((2.0, 0), (0, 1)), 2)
    assert m.rows == ((2, 0), (0, 1)) and type(m.rows[0][0]) is int
    assert m.det() == 2 and type(m.det()) is int
    listed = IntMatrix([[1, 0], [0, 1]], 2)
    assert listed.rows == ((1, 0), (0, 1)) and listed == IntMatrix.identity(2)
    assert IntLattice(2, listed) == full_lattice(2)
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 0], [1]], 2)
