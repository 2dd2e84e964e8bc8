import random
import runpy
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ndsys import groebner
from ndsys.intlat import (IntMatrix, SmithDecomposition, diagonal_lattice, full_lattice,
                          lattice_from_rows, smith, unimodular_inverse)
from ndsys.laurent import (LaurentPoly, LaurentVec, apply_monomial_map,
                           parse_vector, vector_to_str)
from ndsys.groebner import (DEFAULT_ORDER, Submodule, _cut, _lift,
                            eliminate, groebner_basis, make_key, member,
                            submodule_contains, submodule_equal, vpoly_to_vec)
from ndsys.sublattice import (_prime_steps, contract, contract_extend_roundtrips,
                              contracted_module, extend, extend_vector,
                              galois_group_of, is_extension_from,
                              roundtrip_from_sublattice, sublattice_context)

pv = parse_vector
ROOT = Path(__file__).resolve().parent.parent


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


def test_t_point_is_none_exactly_off_the_sublattice():
    """t_point agrees with lattice membership, at full and lower rank, and
    point_to_sub is t_point that raises on None."""
    for rows in ([[2, 2], [1, -3]], [[2, 4]], [[3, 0], [0, 0]]):
        s = lattice_from_rows(2, rows)
        ctx = sublattice_context(s)
        for x in product(range(-6, 7), repeat=2):
            t = ctx.t_point(x)
            assert (t is not None) == s.contains(x)
            if t is None:
                with pytest.raises(ValueError, match="not in the sublattice"):
                    ctx.point_to_sub(x)
            else:
                assert ctx.point_from_sub(t) == x
                assert ctx.point_to_sub(x) == t


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
# reference routes: a LaurentVec cut per prime step, one cut over the whole index


def _component_cut(vectors: list[LaurentVec], k: int) -> list[LaurentVec]:
    """Elements of the span of vectors that lie in their first k components:
    the monic reduced basis of the lifted vectors' cut to the first k
    components, under the default order with those moved last, so that
    components k and above rank over them; the LaurentVec cut each prime
    step made before the chain stayed in the engine's int form."""
    if all(v.is_zero() for v in vectors):
        return []
    nvars, big_k = vectors[0].nvars, vectors[0].k
    key = make_key(DEFAULT_ORDER, nvars)
    lifts = [_lift(LaurentVec(v.entries[k:] + v.entries[:k]), key)[0]
             for v in vectors if not v.is_zero()]
    # lifted exponents are >= 0, so the last k components lie below base(big_k - k - 1)
    return [LaurentVec(vpoly_to_vec(g, key, big_k).entries[big_k - k:])
            for g in _cut(lifts, key, key.base(big_k - k - 1))]


def _laurent_chain_contract(p: Submodule, s) -> Submodule:
    """contract with LaurentVec blocks and generators between prime steps:
    the off-lattice directions are eliminated first, as contract does."""
    ctx = sublattice_context(s)
    n, k, r = p.nvars, p.k, ctx.rank
    moved = Submodule(n, k, [apply_monomial_map(ctx.transport, g) for g in p.generators])
    gens = list(eliminate(moved, range(r, n)).generators)
    for i, f in _prime_steps(ctx.moduli):
        blocks = []
        for g in gens:
            for o in range(f):
                polys = [{} for _ in range(f * k)]
                for j, poly in enumerate(g.entries):
                    for e, c in poly.terms.items():
                        quo, rem = divmod(e[i] + o, f)
                        polys[rem * k + j][e[:i] + (quo,) + e[i + 1:]] = c
                blocks.append(LaurentVec([LaurentPoly(r, t) for t in polys]))
        gens = _component_cut(blocks, k)
    return Submodule(r, k, gens)


def _chain_then_eliminate(p: Submodule, s) -> Submodule:
    """The order contract took before it eliminated first: the prime chain in
    all n transported variables, then elimination of the n - r off-lattice
    ones."""
    ctx = sublattice_context(s)
    n, k, r = p.nvars, p.k, ctx.rank
    q = Submodule(n, k, [apply_monomial_map(ctx.transport, g) for g in p.generators])
    steps = _prime_steps(ctx.moduli)
    if steps:
        q = groebner.prime_step_cuts(q, steps)
    return eliminate(q, range(r, n))


def _direct_contract(p: Submodule, s) -> Submodule:
    """Rewrite every generator's shifts by all residue offsets of the
    straightened lattice into index*k components and cut to the zero-offset
    block in one Groebner run; the route contract took before the chain."""
    ctx = sublattice_context(s)
    n, k, r = p.nvars, p.k, ctx.rank
    moved = [apply_monomial_map(ctx.transport, g) for g in p.generators]
    dplus = list(ctx.moduli) + [1] * (n - r)
    offsets = sorted(product(*(range(d) for d in dplus)))
    offset_index = {o: i for i, o in enumerate(offsets)}

    def rewrite(vec):
        polys = [{} for _ in range(len(offsets) * k)]
        for j, poly in enumerate(vec.entries):
            for e, c in poly.terms.items():
                q = tuple(e[i] // dplus[i] for i in range(n))
                rem = tuple(e[i] % dplus[i] for i in range(n))
                polys[offset_index[rem] * k + j][q] = c
        return LaurentVec([LaurentPoly(n, t) for t in polys])

    blocks = [rewrite(g.shift(o)) for g in moved for o in offsets]
    q = Submodule(n, k, _component_cut(blocks, k))
    if r < n:
        q = eliminate(q, range(r, n))
    return q


def _small_module(rng, nvars, k):
    """One generator with exponents 0 or 1 and two or three terms per entry
    (two when nvars is 1): larger inputs can keep the whole-index reference
    busy for minutes."""
    entries = []
    for _ in range(k):
        size, t = rng.randint(2, min(3, 2 ** nvars)), {}
        while len(t) < size:
            e = tuple(rng.randint(0, 1) for _ in range(nvars))
            t[e] = Fraction(rng.choice([-2, -1, 1, 2]))
        entries.append(LaurentPoly(nvars, t))
    return Submodule(nvars, k, [LaurentVec(entries)])


def test_chain_matches_direct_route():
    """Some seeds draw a module that keeps the reference, never the chain,
    busy for minutes on the index-12 lattices; seed 3 stays under a second."""
    rng = random.Random(3)
    for rows in ([[4, 0], [0, 1]], [[2, 0], [0, 3]], [[6, 0], [0, 1]],
                 [[1, 2], [0, 9]], [[2, 1], [0, 6]],
                 [[2, 0, 0], [0, 3, 0]], [[2, 0, 0], [0, 2, 0], [0, 0, 3]]):
        s = lattice_from_rows(len(rows[0]), rows)
        for k in (1, 2):
            p = _small_module(rng, s.ambient, k)
            assert submodule_equal(contract(p, s).module, _direct_contract(p, s))
    # two generators, k = 2: the 3-step of [[1,2],[0,9]] cuts 12 blocks of 6
    # components; a few tenths of a second with the pair criteria, and
    # [[2,1],[0,6]] about as long with sugar selection
    p = Submodule(2, 2, [pv("[-2*s2 - 1, 2*s1 - 1]", 2, 2), pv("[-1, s2]", 2, 2)])
    for rows in ([[1, 2], [0, 9]], [[2, 0], [0, 3]], [[2, 1], [0, 6]]):
        s = lattice_from_rows(2, rows)
        assert submodule_equal(contract(p, s).module, _direct_contract(p, s))


def test_chain_keeps_the_laurent_chain_generators():
    """The raw contracted generators, which the window oracle reads, are
    those of the chain with LaurentVec blocks, string for string."""
    rng = random.Random(15)
    lattices = ([[2]], [[3]], [[4]], [[2, 0], [0, 3]], [[1, 1], [0, 4]],
                [[2, 1], [0, 2]], [[2, 0, 0], [0, 2, 0]])
    for rows in lattices:
        s = lattice_from_rows(len(rows[0]), rows)
        for k, ngens in product((1, 2), (1, 2)):
            p = Submodule(s.ambient, k, [g for _ in range(ngens)
                                         for g in _small_module(rng, s.ambient, k).generators])
            got = [vector_to_str(g) for g in contract(p, s).module.generators]
            want = [vector_to_str(g) for g in _laurent_chain_contract(p, s).generators]
            assert got == want, (rows, k, ngens)


def _n3_module(rng):
    """k 1-2, one or two generators, one to three terms per entry with
    exponents -1..1 and coefficients +-1, +-2."""
    k = rng.randint(1, 2)
    gens = []
    for _ in range(rng.randint(1, 2)):
        entries = []
        for _ in range(k):
            t = {}
            for _ in range(rng.randint(1, 3)):
                t[tuple(rng.randint(-1, 1) for _ in range(3))] = Fraction(rng.choice([-2, -1, 1, 2]))
            entries.append(LaurentPoly(3, t))
        gens.append(LaurentVec(entries))
    return Submodule(3, k, gens)


RANK_DEFICIENT_3 = ([[2, 0, 0]], [[2, 2, 0]], [[0, 3, 3]],
                    [[2, 0, 0], [0, 3, 0]], [[2, 0, 0], [0, 2, 0]], [[1, 1, 0], [0, 2, 2]])

# draw -> where _chain_then_eliminate ran past a 5 s cap on it (all k=2, two
# generators); contract takes under 10 ms on each
REFERENCE_HANGS = {
    4: "the prime chain in three variables, on moduli (2, 2)",
    8: "the saturation inside eliminating t3 after the chain",
    16: "the saturation inside eliminating t3 after the chain",
    25: "the saturation inside eliminating t3 after the chain",
    34: "the saturation inside eliminating t3 after the chain",
    47: "the saturation inside eliminating t3 after the chain",
    49: "the saturation inside eliminating t3 after the chain",
    57: "the prime chain in three variables, on moduli (1, 6)",
}


def test_eliminating_first_matches_chain_then_eliminate():
    """Sixty random n=3 modules over rank-1 and rank-2 lattices: the same
    canonical basis as the chain-then-eliminate order wherever that order
    finishes, and the contraction laws where it does not."""
    rng = random.Random(7)
    for i in range(60):
        p = _n3_module(rng)
        s = lattice_from_rows(3, RANK_DEFICIENT_3[i % len(RANK_DEFICIENT_3)])
        if i in REFERENCE_HANGS:
            rep = contract_extend_roundtrips(p, s)
            assert rep.extension_contained_in_original and rep.double_contraction_stable, i
        else:
            want = groebner_basis(_chain_then_eliminate(p, s))
            assert groebner_basis(contract(p, s).module) == want, i


# ---------------------------------------------------------------------------
# contractions that took seconds to minutes before sugar pair selection


def test_hex_to_7z_7z_matches_two_axis_steps():
    """Hex to 7Z x 7Z equals hex to 7Z x 1 followed by the 7Z on s2's axis
    of the result, which the Smith frame of 7Z x 1 puts first."""
    p = ideal2("1 + s1*s2 + s2^2")
    direct = contract(p, diagonal_lattice([7, 7]))
    first = contract(p, diagonal_lattice([7, 1]))
    assert first.context.sub_exponent_matrix().rows == ((0, 7), (1, 0))
    second = contract(first.module, diagonal_lattice([7, 1]))
    frame = first.context.sub_exponent_matrix() @ second.context.sub_exponent_matrix()
    assert frame == direct.context.sub_exponent_matrix()
    assert not direct.module.is_zero_module()
    assert submodule_equal(second.module, direct.module)


def _recorded_steps(monkeypatch, p, s):
    """contract(p, s) and, per Groebner cut it runs, the width of the
    components its inputs occupy, in blocks of p.k."""
    sizes = []
    plain = groebner._cut

    def recording_cut(vpolys, key, bound=None):
        sizes.append(max(key.comp(m) for g in vpolys for m in g) // p.k + 1)
        return plain(vpolys, key, bound)

    monkeypatch.setattr(groebner, "_cut", recording_cut)
    return sizes, contract(p, s)


@pytest.mark.parametrize("rows,steps", [
    ([[2, 0], [0, 5]], [5, 2]),
    ([[12, 0], [0, 1]], [3, 2, 2]),
    ([[1, 1], [2, 0]], [2]),
])
def test_chain_takes_largest_prime_first(monkeypatch, rows, steps):
    s = lattice_from_rows(2, rows)
    sizes, _ = _recorded_steps(monkeypatch, ideal2("1 + s1*s2 + s2^2"), s)
    assert sizes == steps


def test_full_lattice_runs_no_step(monkeypatch):
    p = ideal2("1 + s1*s2 + s2^2")
    sizes, q = _recorded_steps(monkeypatch, p, full_lattice(2))
    assert sizes == []
    assert submodule_equal(q.module, p)


def test_large_index_cuts_stay_small(monkeypatch):
    """Fibonacci to 1024Z: ten cuts of 2 components each, never 1024, and
    the answer t^2 - L*t + 1 with L the 1024th Lucas number."""
    sizes, q = _recorded_steps(monkeypatch, ideal1("s1^2 - s1 - 1"),
                               lattice_from_rows(1, [[1024]]))
    assert sizes == [2] * 10
    lucas, nxt = 2, 1
    for _ in range(1024):
        lucas, nxt = nxt, lucas + nxt
    assert submodule_equal(q.module, ideal1(f"s1^2 - {lucas}*s1 + 1"))


def test_chain_leaves_the_engine_once(monkeypatch):
    """Fibonacci to 1024Z: ten 2-steps, and one vpoly_to_vec per output
    generator, all after the last step."""
    calls = []
    plain = groebner.vpoly_to_vec

    def counting(f, *args):
        calls.append(f)
        return plain(f, *args)

    monkeypatch.setattr(groebner, "vpoly_to_vec", counting)
    q = contract(ideal1("s1^2 - s1 - 1"), lattice_from_rows(1, [[1024]]))
    assert len(calls) == len(q.module.generators) > 0


def test_three_variable_contraction_to_3z_3z_z():
    p = Submodule(3, 1, [pv("1 + s1*s2 + s2*s3 + s3^2", 3, 1)])
    s = diagonal_lattice([3, 3, 1])
    q = contract(p, s)
    assert not q.module.is_zero_module()
    back = extend(q)
    assert submodule_contains(p, back)
    assert not submodule_equal(back, p)
    assert not is_extension_from(p, s)[0]


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


# ---------------------------------------------------------------------------
# the contracted module keeps the chain's packed lifts


# contractions whose last cut holds elements with a monomial factor
MONOMIAL_FACTOR_CUTS = (
    (1, 2, ["[0, 3 - s1^-2]", "[2*s1 - 2, 2*s1 - 3 - 3*s1^-1]"], [[2]]),
    (1, 2, ["[s1^2, 0]", "[-2*s1^-2, -1]"], [[2]]),
    (2, 2, ["[s2^-1 + s1^-2*s2, 2*s2^2]", "[-s2 + 2, -s1]"], [[1, 0], [0, 3]]),
    (2, 1, ["-2*s1^2*s2 - 3*s1*s2^-2 - 2*s1^-1", "2*s2^2 + 3*s1"], [[3, 0], [0, 1]]),
)


def _contraction_cases():
    """Fixed-seed (module, lattice) pairs: n 1-3, k 1-2, full-rank lattices
    and the rank-deficient ones of RANK_DEFICIENT_3, after MONOMIAL_FACTOR_CUTS."""
    for n, k, gens, rows in MONOMIAL_FACTOR_CUTS:
        yield Submodule(n, k, [pv(g, n, k) for g in gens]), lattice_from_rows(n, rows)
    rng = random.Random(23)
    for _ in range(16):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        yield _rand_module(rng, n, k), _rand_full_rank_lattice(rng, n)
    for rows in ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 2, 0], [0, 0, 1]],
                 [[2, 0, 0], [0, 2, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 3]]):
        for k in (1, 2):
            yield _small_module(rng, 3, k), lattice_from_rows(3, rows)
    for rows in RANK_DEFICIENT_3 * 2:
        yield _n3_module(rng), lattice_from_rows(3, rows)


def test_contracted_lifts_give_the_canonical_basis_of_the_generators():
    """The canonical basis a contracted module saturates from its handed-over
    basis equals the one taken from its LaurentVec generators, and each
    handed-over element is _lift of its generator.  A last cut with a
    monomial factor hands over nothing."""
    for i, (p, s) in enumerate(_contraction_cases()):
        q = contract(p, s).module
        key = make_key(DEFAULT_ORDER, q.nvars)
        if i < len(MONOMIAL_FACTOR_CUTS):
            assert q._basis is None, i
        assert q._basis in (None, [_lift(g, key)[0] for g in q.generators]), i
        assert groebner_basis(q) == groebner_basis(Submodule(q.nvars, q.k, q.generators)), i


@pytest.mark.parametrize("gens,n,k,rows", [
    (["1 + s1*s2 + s2^2"], 2, 1, [[2, 0], [0, 3]]),
    (["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"], 2, 2, [[2, 0], [0, 2]]),
    (["s1 - s3", "s2 - s3^2"], 3, 1, [[2, 0, 0], [0, 2, 0]]),
], ids=["hex-index-6", "k2-index-4", "rank-deficient"])
def test_canonical_basis_of_a_contraction_packs_nothing(monkeypatch, gens, n, k, rows):
    """Vectors are packed once on the way in: at every rank each transported
    generator is lifted once, by the chain at full rank and by eliminate's
    saturation below it.  Once contract has returned, groebner_basis of its
    module lifts no LaurentVec: it saturates from the chain's packed cut."""
    calls = []
    plain = groebner._lift

    def spy(v, *args, **kwargs):
        calls.append(v)
        return plain(v, *args, **kwargs)

    monkeypatch.setattr(groebner, "_lift", spy)
    p, s = Submodule(n, k, [pv(g, n, k) for g in gens]), lattice_from_rows(n, rows)
    q = contract(p, s).module
    transport = sublattice_context(s).transport
    moved = [apply_monomial_map(transport, g) for g in p.generators]
    assert sorted(map(str, calls)) == sorted(map(str, moved))
    del calls[:]
    basis = groebner_basis(q)
    monkeypatch.undo()
    assert calls == [] and basis
    assert basis == groebner_basis(Submodule(q.nvars, q.k, q.generators))


@pytest.mark.parametrize("gens,k,on_line", [
    (["1 + s1*s2 + s2^2"], 1, False),
    (["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"], 2, False),
    (["s1 - s2^2", "s2^3 - 2"], 1, True),
], ids=["hex", "k2", "zero-dimensional"])
def test_monomial_factors_leave_the_contraction_unchanged(gens, k, on_line):
    """A Laurent module is the same when each generator is multiplied by a
    monomial, and so is its contraction's raw generators: at full rank and
    at rank 1, for shifts far past the +-limit of a packed field.  Only a
    module with a zero-dimensional quotient meets a rank-1 subring."""
    limit = make_key(DEFAULT_ORDER, 2).limit
    shifts = [(limit + 5, 0), (3 * limit, -5 * limit), (-limit, limit), (1, -2), (0, 3)]
    rng = random.Random(26)
    p = Submodule(2, k, [pv(g, 2, k) for g in gens])
    for rows in ([[2, 0], [0, 2]], [[1, 1], [0, 2]], [[2, 1], [0, 3]], [[1, 1]], [[2, 0]]):
        s = lattice_from_rows(2, rows)
        raw = contract(p, s).module.generators
        assert bool(raw) == (on_line or s.rank == 2)
        for _ in range(3):
            moved = Submodule(2, k, [g.shift(rng.choice(shifts)) for g in p.generators])
            assert contract(moved, s).module.generators == raw, (rows, moved)


# ---------------------------------------------------------------------------
# the contraction hands over its canonical basis


def _engine_calls(monkeypatch) -> list[str]:
    """Record each Buchberger run as "b", each round of saturation's quotient
    loop as "q" and each vector unpacked as "u", in call order."""
    events: list[str] = []
    for name, tag in (("buchberger", "b"), ("_quotient_vpolys", "q"), ("vpoly_to_vec", "u")):
        def spy(*args, _plain=getattr(groebner, name), _tag=tag, **kwargs):
            events.append(_tag)
            return _plain(*args, **kwargs)
        monkeypatch.setattr(groebner, name, spy)
    return events


@pytest.mark.parametrize("gens,n,rows", [
    (["1 + s1*s2 + s2^2"], 2, [[2, 0], [0, 2]]),
    (["s1^2 - s1 - 1"], 1, [[8]]),
], ids=["hex-2Zx2Z", "fib-8Z"])
def test_a_single_generator_cut_is_the_canonical_basis(monkeypatch, gens, n, rows):
    """A last cut with no monomial factor is the reduced basis of its span:
    groebner_basis of the contraction runs no Buchberger and unpacks nothing,
    and returns the contracted generators."""
    q = contract(Submodule(n, 1, [pv(g, n, 1) for g in gens]), lattice_from_rows(n, rows)).module
    events = _engine_calls(monkeypatch)
    basis = groebner_basis(q)
    assert events == []
    assert basis == list(q.generators) and basis


def test_the_k2_contraction_runs_only_the_quotient_loop(monkeypatch):
    """Saturation starts from the handed-over cut: every Buchberger run left
    is the one syzygy run of a round of the quotient loop."""
    gens = ["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"]
    p = Submodule(2, 2, [pv(g, 2, 2) for g in gens])
    q = contract(p, lattice_from_rows(2, [[2, 0], [0, 2]])).module
    events = _engine_calls(monkeypatch)
    basis = groebner_basis(q)
    assert events[:1] == ["q"] and events.count("b") == events.count("q")
    # saturation kept the cut, so nothing was unpacked again
    assert "u" not in events and basis == list(q.generators)
    monkeypatch.undo()
    assert basis == groebner_basis(Submodule(2, 2, q.generators))


@pytest.mark.parametrize("n,k,gens,rows", MONOMIAL_FACTOR_CUTS)
def test_a_cut_with_a_monomial_factor_is_cut_again(monkeypatch, n, k, gens, rows):
    """A last cut holding an element with a monomial factor hands over
    nothing: saturation lifts the generators and cuts their span first."""
    q = contract(Submodule(n, k, [pv(g, n, k) for g in gens]), lattice_from_rows(n, rows)).module
    events = _engine_calls(monkeypatch)
    basis = groebner_basis(q)
    assert events[:1] == ["b"]
    monkeypatch.undo()
    assert basis == groebner_basis(Submodule(n, k, q.generators))


def test_extend_output_is_unchanged_by_the_kept_frame():
    """extend substitutes U @ D, cut to the rank, into the canonical basis;
    the context computes that matrix once."""
    for p, s in _contraction_cases():
        q = contract(p, s)
        ctx = q.context
        ud = ctx.decomposition.U @ ctx.decomposition.D
        frame = IntMatrix.from_rows([row[:ctx.rank] for row in ud.rows], ctx.rank)
        want = [apply_monomial_map(frame, g) for g in groebner_basis(q.module)]
        assert extend(q).generators == tuple(g for g in want if not g.is_zero())
        assert ctx.sub_exponent_matrix() is ctx.sub_exponent_matrix() == frame


def _ladder_and_skew_lattices():
    ladder = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["LADDER"]
    n = {"hex": 2, "k2": 2, "fib": 1}
    yield from (lattice_from_rows(n[system], rows) for _, system, rows in ladder)
    yield lattice_from_rows(2, [[2, 1], [2, -3]])  # tests/golden/skew.system


def test_smith_keeps_the_transport():
    """smith's running U^-1 is the transport: the HNF inverse of U, on fixed-
    seed integer matrices (zero and rank-deficient ones included) and on the
    lattices they generate, the contract-ladder lattices and the skew one."""
    rng = random.Random(27)
    lattices = list(_ladder_and_skew_lattices())
    for _ in range(120):
        n, c = rng.randint(1, 4), rng.randint(0, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(n)] for _ in range(c)]
        if c > 1 and rng.random() < 0.3:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[-2])]
        m = IntMatrix.from_rows(rows, n).transpose()
        dec = smith(m)
        assert dec.U_inverse == unimodular_inverse(dec.U), rows
        assert dec == SmithDecomposition(dec.U, dec.D, dec.V)
        assert repr(dec) == repr(SmithDecomposition(dec.U, dec.D, dec.V))
        lattices.append(lattice_from_rows(n, rows))
    assert any(s.rank == 0 for s in lattices) and any(0 < s.rank < s.ambient for s in lattices)
    for s in lattices:
        ctx = sublattice_context(s)
        assert ctx.transport == unimodular_inverse(ctx.decomposition.U), s
        assert ctx.decomposition.U @ ctx.transport == IntMatrix.identity(s.ambient)
