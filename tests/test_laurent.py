import random
from fractions import Fraction

import pytest

from ndsys.intlat import IntLattice, IntMatrix, lattice_from_rows, zero_lattice
from ndsys.laurent import (LaurentPoly, LaurentVec, PolyParseError,
                           apply_monomial_map, coset_split, parse_poly,
                           parse_vector, poly_to_str, vector_to_str)


def _rand_poly(rng, nvars, terms=4, deg=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        e = tuple(rng.randint(-deg, deg) for _ in range(nvars))
        out[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return LaurentPoly(nvars, out)


def test_ring_axioms_random():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b, c = (_rand_poly(rng, n) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly(n) == a
        assert a * LaurentPoly.constant(n, 1) == a
        assert a - a == LaurentPoly(n)


def test_vector_arithmetic_checks_the_length():
    """Sums, differences and dot products of vectors of different k raise
    instead of dropping the longer vector's last entries."""
    short, long = parse_vector("[s1, 1]", 1, 2), parse_vector("[1, s1, s1^2]", 1, 3)
    for op in (LaurentVec.__add__, LaurentVec.__sub__, LaurentVec.dot):
        for a, b in ((short, long), (long, short)):
            with pytest.raises(ValueError):
                op(a, b)
    assert short + short == short.scale(2)


def test_zero_coefficients_dropped():
    p = LaurentPoly(1, {(0,): Fraction(1), (1,): Fraction(0)})
    assert (1,) not in p.terms
    q = parse_poly("s1 - s1", 1)
    assert q.is_zero()


def test_parse_examples():
    p = parse_poly("1 + s1*s2 + s2^2", 2)
    assert p.terms == {(0, 0): 1, (1, 1): 1, (0, 2): 1}
    q = parse_poly("s1^-2*s2 - 3/2", 2)
    assert q.terms == {(-2, 1): 1, (0, 0): Fraction(-3, 2)}
    r = parse_poly("-s1 + 2*s1 - s1", 1)
    assert r.is_zero()


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("s1^", 1)
    with pytest.raises(PolyParseError):
        parse_poly("s3", 2)
    with pytest.raises(PolyParseError):
        parse_poly("1 +", 1)
    with pytest.raises(PolyParseError):
        parse_poly("(s1+1)", 1)
    with pytest.raises(PolyParseError):
        parse_poly("1/0", 1)
    with pytest.raises(PolyParseError):
        parse_poly("s1 - 3/00*s1^2", 1)


@pytest.mark.parametrize("text", ["[s1,,s2]", "[s1, s2,]", "[, s1, s2]"])
def test_parse_vector_rejects_empty_entry(text):
    with pytest.raises(PolyParseError):
        parse_vector(text, 2, 2)


def test_print_parse_roundtrip_random():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = _rand_poly(rng, n)
        text = poly_to_str(p)
        assert parse_poly(text, n) == p
        # printing is canonical: reprinting the parse gives the same text
        assert poly_to_str(parse_poly(text, n)) == text


def test_vector_roundtrip():
    v = parse_vector("[1 - s1, s2^-1]", 2, 2)
    assert vector_to_str(v) == "[-s1 + 1, s2^-1]"
    assert parse_vector(vector_to_str(v), 2, 2) == v
    w = parse_vector("s1 - 1", 1, 1)
    assert w.k == 1


def test_apply_monomial_map_is_ring_hom():
    rng = random.Random(53)
    w = IntMatrix.from_rows([[1, 1], [0, 1]], 2)
    for _ in range(20):
        a = _rand_poly(rng, 2)
        b = _rand_poly(rng, 2)
        va, vb = LaurentVec.wrap(a), LaurentVec.wrap(b)
        assert apply_monomial_map(w, va).entries[0] * apply_monomial_map(w, vb).entries[0] \
            == apply_monomial_map(w, LaurentVec.wrap(a * b)).entries[0]


def test_coset_split_reassembles():
    rng = random.Random(59)
    lat = lattice_from_rows(2, [[1, 1], [0, 2]])
    for _ in range(25):
        v = LaurentVec([_rand_poly(rng, 2), _rand_poly(rng, 2)])
        parts = coset_split(v, lat)
        total = LaurentVec([LaurentPoly(2), LaurentPoly(2)])
        for rep, part in parts.items():
            total = total + part
            # every support point of the part lies in the rep's coset
            for pt in part.support():
                diff = tuple(a - b for a, b in zip(pt, rep))
                assert lat.contains(diff)
        assert total == v


def _per_row_coset_rep(lat, x):
    """Reference: each basis row's pivot found afresh for every point."""
    v = list(x)
    for row in lat.basis.rows:
        c = next(i for i, val in enumerate(row) if val != 0)
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def test_coset_reduction_matches_per_row_reference():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 3)
        # zero rows and dependent rows give rank-deficient lattices
        lat = lattice_from_rows(n, [[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(rng.randint(0, n + 1))])
        for _ in range(5):
            x = tuple(rng.randint(-9, 9) for _ in range(n))
            assert lat.coset_rep(x) == _per_row_coset_rep(lat, x)
        k = rng.randint(1, 2)
        v = LaurentVec([_rand_poly(rng, n) for _ in range(k)])
        want: dict = {}
        for j, p in enumerate(v.entries):
            for e, c in p.terms.items():
                slot = want.setdefault(_per_row_coset_rep(lat, e), [{} for _ in range(k)])
                slot[j][e] = c
        parts = coset_split(v, lat)
        assert list(parts) == sorted(want)
        assert all([q.terms for q in part.entries] == want[rep]
                   for rep, part in parts.items())


def test_sums_and_products_match_dict_reference():
    """Cancelling terms are dropped, and every other term equals the plain
    dict sum of the contributions."""
    def ref_add(*terms_list):
        out: dict = {}
        for terms in terms_list:
            for e, c in terms:
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def ref_mul(a, b):
        return ref_add([(tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                        for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()])

    s1 = parse_poly("s1", 2)
    one = LaurentPoly.constant(2, 1)
    assert ((s1 - one) * (s1 + one)).terms == {(2, 0): 1, (0, 0): -1}
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b = _rand_poly(rng, n), _rand_poly(rng, n)
        assert (a + (-a)).terms == {}
        assert (a + b).terms == ref_add(a.terms.items(), b.terms.items())
        assert (a * b).terms == ref_mul(a, b)
        # (a + b) * (a - b) cancels the cross terms of a*b and b*a
        assert ((a + b) * (a - b)).terms == ref_mul(a + b, a - b)
        for p in (a + (-a), (a + b) * (a - b), a * b - b * a):
            assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
        assert (a * b - b * a).is_zero()


def test_coset_split_zero_lattice_splits_by_point():
    v = LaurentVec.wrap(parse_poly("1 + s1 + s1^2", 1))
    parts = coset_split(v, zero_lattice(1))
    assert len(parts) == 3


def test_substitute_exponents_rejects_collision():
    p = parse_poly("s1 + s2", 2)
    with pytest.raises(ValueError):
        p.substitute_exponents(lambda e: (e[0] + e[1],), nvars_out=1)


def test_arithmetic_results_hold_valid_terms():
    """Sums, negations, products, scalings and shifts skip the constructor's
    checks; their terms must still be nonzero Fractions on exponents of
    length nvars."""
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b = _rand_poly(rng, n), _rand_poly(rng, n)
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        for p in (a + b, a - b, -a, a * b, a * 3, 2 * a, a * Fraction(-1, 2),
                  a.scale(Fraction(5, 3)), a.scale(0), a.shift(shift)):
            assert p.nvars == n
            for e, c in p.terms.items():
                assert type(e) is tuple and len(e) == n
                assert type(c) is Fraction and c != 0
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 0): 1}).shift((1,))



def _engine_input_with_float_exponent():
    from ndsys.groebner import Submodule
    return Submodule(2, 1, [LaurentVec([LaurentPoly(2, {(1.5, 0): 1, (0, 0): 1})])])


@pytest.mark.parametrize("build,message", [
    (_engine_input_with_float_exponent, "exponent 1.5 is not an integer"),
    (lambda: LaurentPoly(2, {("1", 0): 1}), "exponent '1' is not an integer"),
    (lambda: LaurentPoly(-1), "variable count -1 is negative"),
    (lambda: LaurentPoly(1.5), "variable count 1.5 is not an integer"),
    (lambda: LaurentPoly.monomial(1, (0.5,)), "exponent 0.5 is not an integer"),
    (lambda: LaurentPoly.monomial(1, (1,)).shift((0.5,)), "exponent 0.5 is not an integer"),
], ids=["submodule-float-exponent", "string-exponent", "negative-nvars", "float-nvars",
        "monomial-float-exponent", "shift-float-exponent"])
def test_bad_exponents_and_variable_counts_raise_at_construction(build, message):
    """Raised where the polynomial is built, not later inside the engine
    (a TypeError from >>) or the printer."""
    with pytest.raises(ValueError, match=message):
        build()


def test_integral_float_exponents_become_ints():
    p = LaurentPoly(2.0, {(2.0, 1): 3})
    assert p == parse_poly("3*s1^2*s2", 2) and type(p.nvars) is int
    assert all(type(x) is int for e in p.terms for x in e)
    assert str(p) == "3*s1^2*s2"
    q = LaurentPoly.monomial(1, (1,)).shift((2.0,))
    assert q == parse_poly("s1^3", 1) and all(type(x) is int for x in next(iter(q.terms)))
