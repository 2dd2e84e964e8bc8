import random
from fractions import Fraction

import pytest

from ndsys.intlat import diagonal_lattice, full_lattice, lattice_from_rows
from ndsys.laurent import (LaurentPoly, LaurentVec, apply_monomial_map,
                           parse_vector)
from ndsys.groebner import (Submodule, eliminate, groebner_basis, member,
                            submodule_contains, submodule_equal)
from ndsys.sublattice import (contract, contract_extend_roundtrips,
                              contracted_module, extend, extend_vector,
                              galois_group_of, is_extension_from,
                              roundtrip_from_sublattice, sublattice_context)

pv = parse_vector


def ideal1(text):
    return Submodule(1, 1, [pv(text, 1, 1)])


def ideal2(text):
    return Submodule(2, 1, [pv(text, 2, 1)])


# ---------------------------------------------------------------------------
# Smith frame


def test_context_frame_reconstructs_basis():
    s = lattice_from_rows(2, [[2, 2], [1, -3]])
    ctx = sublattice_context(s)
    dec = ctx.decomposition
    cols = s.basis.transpose()
    assert dec.U @ dec.D @ dec.V == cols
    assert ctx.moduli == (1, 8)
    assert ctx.index == 8


def test_point_transport_roundtrip():
    rng = random.Random(73)
    s = lattice_from_rows(2, [[2, 2], [1, -3]])
    ctx = sublattice_context(s)
    for _ in range(30):
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        x = ctx.point_from_sub(t)
        assert s.contains(x)
        assert ctx.point_to_sub(x) == t
    with pytest.raises(ValueError):
        ctx.point_to_sub((1, 0))


# ---------------------------------------------------------------------------
# worked contractions


def test_contract_shift_ideal_to_doubled_lattice():
    q = contract(ideal1("s1 - 1"), lattice_from_rows(1, [[2]]))
    assert submodule_equal(q.module, ideal1("s1 - 1"))


def test_three_preimages_one_contraction():
    """All three ideals restrict to the constants system on the doubled
    lattice; only the full product is recoverable from there."""
    s = lattice_from_rows(1, [[2]])
    target = ideal1("s1 - 1")
    for text in ("s1^2 - 1", "s1 - 1", "s1 + 1"):
        q = contract(ideal1(text), s)
        assert submodule_equal(q.module, target)
    assert is_extension_from(ideal1("s1^2 - 1"), s)[0]
    ok_minus, wit_minus = is_extension_from(ideal1("s1 - 1"), s)
    assert not ok_minus and wit_minus is not None
    assert not is_extension_from(ideal1("s1 + 1"), s)[0]


def test_order_reduction_showcase():
    """Quartic scalar system carries a quadratic law on the doubled lattice."""
    q = contract(ideal1("1 + s1^2 - s1^4"), lattice_from_rows(1, [[2]]))
    assert submodule_equal(q.module, ideal1("1 + s1 - s1^2"))
    back = extend(q)
    assert submodule_equal(back, ideal1("1 + s1^2 - s1^4"))


def test_contract_module_row_to_zero():
    q = contract(Submodule(1, 2, [pv("[1, s1]", 1, 2)]), lattice_from_rows(1, [[2]]))
    assert q.module.is_zero_module()
    ok, witness = is_extension_from(Submodule(1, 2, [pv("[1, s1]", 1, 2)]),
                                    lattice_from_rows(1, [[2]]))
    assert not ok
    gen, part = witness
    assert member(part, Submodule(1, 2, [pv("[1, s1]", 1, 2)])) is False


def test_skew_index8_roundtrip():
    s = lattice_from_rows(2, [[2, 2], [1, -3]])
    p = ideal2("s1^2*s2^2 - 1")
    rep = contract_extend_roundtrips(p, s)
    assert rep.extension_contained_in_original
    assert rep.double_contraction_stable


def test_degenerate_rank_one_contract_and_extend():
    s = lattice_from_rows(2, [[1, 1]])
    p = ideal2("1 + s1*s2")
    q = contract(p, s)
    assert q.module.nvars == 1
    assert submodule_equal(q.module, ideal1("1 + s1"))
    assert submodule_equal(extend(q), p)
    assert is_extension_from(p, s)[0]


def test_axis_contraction_vanishes():
    s = lattice_from_rows(2, [[0, 1]])
    p = ideal2("s1 - 1")
    q = contract(p, s)
    assert q.module.is_zero_module()
    assert not is_extension_from(p, s)[0]


def test_hexagonal_system_is_extension_from_its_lattice():
    p = ideal2("1 + s1*s2 + s2^2")
    h2 = lattice_from_rows(2, [[1, 1], [2, 0]])
    assert is_extension_from(p, h2)[0]
    q = contract(p, h2)
    assert not q.module.is_zero_module()
    assert submodule_equal(extend(q), p)
    # a finer full-rank lattice also works, a coarser one does not
    assert is_extension_from(p, full_lattice(2))[0]
    assert not is_extension_from(p, diagonal_lattice([2, 2]))[0]


# ---------------------------------------------------------------------------
# independent route: contraction via tau = sigma^d relation elimination


def _relation_contract(p: Submodule, s) -> Submodule:
    """Adjoin tau variables with tau_i = (straightened sigma_i)^{d_i} and
    eliminate every sigma; slower than the production path but entirely
    different plumbing."""
    ctx = sublattice_context(s)
    n, r, k = ctx.ambient, ctx.rank, p.k
    d = ctx.moduli
    big_gens = []
    for g in p.generators:
        gt = apply_monomial_map(ctx.transport, g)
        entries = [LaurentPoly(n + r, {e + (0,) * r: c for e, c in poly.terms.items()})
                   for poly in gt.entries]
        big_gens.append(LaurentVec(entries))
    zero = (0,) * (n + r)
    for i in range(r):
        sig = tuple(d[i] if j == i else 0 for j in range(n)) + (0,) * r
        tau = tuple(0 for _ in range(n)) + tuple(1 if j == i else 0 for j in range(r))
        rel = LaurentPoly(n + r, {tau: Fraction(1), sig: Fraction(-1)})
        for j in range(k):
            big_gens.append(LaurentVec(
                [rel if jj == j else LaurentPoly(n + r) for jj in range(k)]))
    combined = Submodule(n + r, k, big_gens)
    return eliminate(combined, range(n))


@pytest.mark.parametrize("gens,k,lat", [
    (["s1 - 1"], 1, [[2]]),
    (["s1^2 - 1"], 1, [[2]]),
    (["1 + s1^2 - s1^4"], 1, [[2]]),
    (["[1, s1]"], 2, [[2]]),
    (["s1^2 - s1 - 1"], 1, [[2]]),
    (["1 + s1*s2 + s2^2"], 1, [[1, 1], [2, 0]]),
    (["s1^2*s2^2 - 1"], 1, [[2, 2], [1, -3]]),
    (["1 + s1*s2"], 1, [[1, 1]]),
    (["s1 - 1"], 1, [[0, 1]]),
    (["[s1, s2]", "[s2, s1]"], 2, [[2, 0], [0, 2]]),
    (["1 + s1*s2 + s2*s3"], 1, [[1, 1, 0], [0, 2, 0], [0, 0, 1]]),
    (["s1 - s3"], 1, [[1, 1, 1]]),
    (["s1 - s2", "s2 - s3"], 1, [[1, 1, 0], [0, 1, 1]]),
])
def test_relation_route_agrees(gens, k, lat):
    nvars = len(lat[0])
    p = Submodule(nvars, k, [pv(g, nvars, k) for g in gens])
    s = lattice_from_rows(nvars, lat)
    via_relations = _relation_contract(p, s)
    production = contract(p, s).module
    assert submodule_equal(via_relations, production)


# ---------------------------------------------------------------------------
# roundtrip laws on random inputs


def _rand_module(rng, nvars, k):
    gens = []
    for _ in range(rng.randint(1, 2)):
        entries = []
        for _ in range(k):
            t = {}
            for _ in range(rng.randint(0, 3)):
                e = tuple(rng.randint(-2, 2) for _ in range(nvars))
                t[e] = Fraction(rng.randint(-3, 3))
            entries.append(LaurentPoly(nvars, t))
        gens.append(LaurentVec(entries))
    return Submodule(nvars, k, gens)


def _rand_full_rank_lattice(rng, n, max_index=6):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        lat = lattice_from_rows(n, rows)
        idx = lat.index()
        if idx is not None and idx <= max_index:
            return lat


def test_roundtrip_laws_random():
    rng = random.Random(79)
    for _ in range(25):
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        p = _rand_module(rng, n, k)
        s = _rand_full_rank_lattice(rng, n)
        rep = contract_extend_roundtrips(p, s)
        assert rep.extension_contained_in_original
        assert rep.double_contraction_stable
        q = contract(p, s)
        assert roundtrip_from_sublattice(q)


def test_extension_equality_iff_invariant():
    s = lattice_from_rows(1, [[2]])
    good = ideal1("s1^2 - 1")
    bad = ideal1("s1 - 1")
    assert contract_extend_roundtrips(good, s).extension_equals_original
    assert not contract_extend_roundtrips(bad, s).extension_equals_original


def test_extension_is_largest_with_given_contraction():
    """P^{ce} sits inside P and every module between them contracts the same."""
    s = lattice_from_rows(1, [[2]])
    p = ideal1("s1 - 1")
    pce = extend(contract(p, s))
    assert submodule_contains(p, pce)
    assert submodule_equal(contract(pce, s).module, contract(p, s).module)


# ---------------------------------------------------------------------------
# symmetry groups


def test_galois_group_sizes():
    assert galois_group_of(full_lattice(2)).order == 1
    assert galois_group_of(diagonal_lattice([2, 2])).order == 4
    h2 = galois_group_of(lattice_from_rows(2, [[1, 1], [2, 0]]))
    assert h2.order == 2
    assert h2.moduli == (1, 2)
    with pytest.raises(ValueError):
        galois_group_of(lattice_from_rows(2, [[1, 1]]))


def test_extend_vector_matches_module_extension():
    s = lattice_from_rows(1, [[2]])
    ctx = sublattice_context(s)
    v = pv("s1^2 - s1 - 1", 1, 1)
    assert extend_vector(ctx, v) == pv("s1^4 - s1^2 - 1", 1, 1)


def test_user_supplied_contracted_module():
    s = lattice_from_rows(1, [[2]])
    q = contracted_module(s, ideal1("s1^2 + s1 - 1"))
    ext = extend(q)
    assert submodule_equal(ext, ideal1("s1^4 + s1^2 - 1"))
    assert submodule_equal(contract(ext, s).module, q.module)
