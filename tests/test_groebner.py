import heapq
import json
import random
import re
from fractions import Fraction
from math import gcd
from operator import add, le
from pathlib import Path

import pytest

import ndsys
from ndsys import groebner
from ndsys.analysis import analyze, rank_over_fractions
from ndsys.cli import main
from ndsys.intlat import diagonal_lattice
from ndsys.laurent import LaurentPoly, LaurentVec, parse_poly, parse_vector
from ndsys.groebner import (DEFAULT_ORDER, Submodule, TermOrder, _lift, buchberger,
                            eliminate, groebner_basis, is_groebner_basis, make_key,
                            member, module_quotient, submodule_contains,
                            submodule_equal, syzygies)
from ndsys.linalg import nullspace_basis, strip_content
from ndsys.sublattice import contract
from ndsys.trajectories import WindowSpan, box_window

pv = parse_vector


def _rand_vec(rng, nvars, k, terms=3, deg=2):
    entries = []
    for _ in range(k):
        t = {}
        for _ in range(rng.randint(0, terms)):
            e = tuple(rng.randint(-deg, deg) for _ in range(nvars))
            t[e] = Fraction(rng.randint(-3, 3))
        entries.append(LaurentPoly(nvars, t))
    return LaurentVec(entries)


def _rand_module(rng, nvars, k, ngens=3):
    gens = [_rand_vec(rng, nvars, k) for _ in range(rng.randint(1, ngens))]
    return Submodule(nvars, k, gens)


def _packed(f, key):
    """A {(comp, exp): c} dict packed under key."""
    return {key.pack(*m): c for m, c in f.items()}


def _unpacked(f, key):
    """A packed vector polynomial as {(comp, exp): c}."""
    return {key.unpack(m): c for m, c in f.items()}


# ---------------------------------------------------------------------------
# membership and canonical bases


def test_lift():
    key = make_key(DEFAULT_ORDER, 1)
    lifted, m = _lift(LaurentVec.wrap(parse_poly("s1^-2 + s1", 1)), key)
    assert m == (-2,)
    assert _unpacked(lifted, key) == {(0, (0,)): 1, (0, (3,)): 1}
    with pytest.raises(ValueError):
        _lift(LaurentVec.wrap(LaurentPoly(1)), key)


def _rational_gens():
    return [pv("[1/2*s1 - 3/7, s2^2]", 2, 2), pv("[s1*s2, -3/7*s2 + 1/2]", 2, 2),
            pv("[-3/7*s1^2, 1/2*s1 + s2]", 2, 2)]


def test_engine_coefficients_are_primitive_ints():
    """Inside the engine every coefficient is an int and every element is
    primitive; a reduced basis has positive leading coefficients."""
    gens = _rational_gens()
    key = make_key(DEFAULT_ORDER, 2)
    raw = buchberger([_lift(g, key)[0] for g in gens], key)
    sat = Submodule(2, 2, gens).saturated_vpolys()
    assert raw and sat
    for g in raw + sat:
        assert all(type(c) is int for c in g.values())
        assert gcd(*g.values()) == 1
    for g in sat:
        assert g[max(g)] > 0


def test_groebner_basis_is_monic_fractions():
    key = make_key(DEFAULT_ORDER, 2)
    for v in groebner_basis(Submodule(2, 2, _rational_gens())):
        # v's own coefficients: vec_to_vpoly would make them primitive ints
        f = groebner._pack_entries(v, key, ())
        assert all(type(c) is Fraction for c in f.values())
        assert f[max(f)] == 1


def test_rational_rescaling_keeps_canonical_basis():
    gens = _rational_gens()
    scales = [Fraction(1, 2), Fraction(-3, 7), Fraction(-5)]
    scaled = [g.scale(c) for g, c in zip(gens, scales)]
    assert Submodule(2, 2, scaled).saturated_vpolys() == \
        Submodule(2, 2, gens).saturated_vpolys()


def test_member_scalar_ideal():
    p = Submodule(1, 1, [pv("s1^2 - 1", 1, 1)])
    assert member(pv("s1^4 - 1", 1, 1), p)
    assert member(pv("s1^-2 - 1", 1, 1), p)
    assert not member(pv("s1 - 1", 1, 1), p)


def test_member_unit_shift_invariance():
    """Multiplying generators by monomials changes nothing over Laurents."""
    a = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    b = Submodule(2, 1, [pv("s1^-2*s2 + s1^-1*s2^2 + s1^-2*s2^3", 2, 1)])
    assert submodule_equal(a, b)


def test_member_module_example():
    p = Submodule(1, 2, [pv("[1, s1]", 1, 2)])
    assert member(pv("[s1, s1^2]", 1, 2), p)
    assert member(pv("[s1^-1, 1]", 1, 2), p)
    assert not member(pv("[1, 0]", 1, 2), p)


def test_reduced_basis_is_canonical():
    """Different generating sets of one module give identical reduced bases."""
    a = Submodule(1, 1, [pv("s1^2 - 1", 1, 1), pv("s1^3 - 1", 1, 1)])
    b = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    assert a.saturated_vpolys() == b.saturated_vpolys()
    assert submodule_equal(a, b)


def test_saturation_of_a_small_k2_module_finishes():
    """A module whose first saturation quotient ran past 40 s when pairs
    were met by smallest lcm: every canonical generator has a certificate
    on a window of the original generators' shifts, and every original
    generator is a member."""
    gens = [pv("[2*s1^2, s2^2]", 2, 2), pv("[0, 3*s1^2*s2^2 - s1^-1 + s2^-2]", 2, 2),
            pv("[s1^-1*s2 + 2*s1*s2^-2 - s1^-1*s2^-1, "
               "-3*s1 - s1*s2^-1 - 3*s1^-2*s2^2]", 2, 2)]
    p = Submodule(2, 2, gens)
    basis = groebner_basis(p)
    assert len(basis) == 7
    span = WindowSpan(gens, box_window([(-6, 8)] * 2), 2)
    assert all(span.contains(v) for v in basis)
    assert all(member(g, p) for g in gens)


def test_gb_passes_buchberger_criterion_random():
    rng = random.Random(61)
    for _ in range(15):
        nvars = rng.randint(1, 2)
        k = rng.randint(1, 2)
        mod = _rand_module(rng, nvars, k)
        gb = groebner_basis(mod)
        assert is_groebner_basis(gb, nvars)
        for g in gb:
            assert member(g, mod)
        for g in mod.generators:
            assert member(g, mod)


def test_module_leading_term_pair_needed():
    """Pair with coprime-looking scalar leading monomials is still needed in
    modules: <x e1, y e1 + e2> contains x e2."""
    p = Submodule(2, 2, [pv("[s1, 0]", 2, 2), pv("[s2, 1]", 2, 2)])
    assert member(pv("[0, s1]", 2, 2), p)


def test_zero_module():
    z = Submodule(2, 2, [])
    assert z.is_zero_module()
    assert groebner_basis(z) == []
    assert not member(pv("[1, 0]", 2, 2), z)
    assert member(LaurentVec([LaurentPoly(2), LaurentPoly(2)]), z)


def test_unit_vectors_saturate_at_once(monkeypatch):
    """A reduced basis of unit vectors spans a sum of whole components, so
    saturation runs no quotient round: A^2 and A^3, given on their unit
    vectors or on generators that reduce to them, need no syzygy_basis."""
    calls = []
    real = groebner.syzygy_basis
    monkeypatch.setattr(groebner, "syzygy_basis", lambda *a: calls.append(a) or real(*a))
    for k in (2, 3):
        units = [LaurentVec.unit(2, k, j) for j in range(k)]
        assert groebner_basis(Submodule(2, k, units)) == units[::-1]
    shear = Submodule(2, 2, [pv("[s1^2, 0]", 2, 2), pv("[s2, s1^-1]", 2, 2)])
    assert groebner_basis(shear) == [pv("[0, 1]", 2, 2), pv("[1, 0]", 2, 2)]
    assert not calls


# ---------------------------------------------------------------------------
# syzygies


def test_syzygy_products_vanish_random():
    rng = random.Random(67)
    for _ in range(12):
        nvars = rng.randint(1, 2)
        k = rng.randint(1, 2)
        vecs = [_rand_vec(rng, nvars, k) for _ in range(rng.randint(1, 3))]
        syz = syzygies(vecs, nvars, k)
        for rel in syz.generators:
            acc = LaurentVec([LaurentPoly(nvars) for _ in range(k)])
            for coef, vec in zip(rel.entries, vecs):
                acc = acc + vec.scale_poly(coef)
            assert acc.is_zero()


def _relation_window_dim(vectors, box_bounds) -> int:
    """Dimension of {r : supp(r_i) in box, sum r_i v_i = 0} over Q."""
    window = box_window(box_bounds)
    unknowns = {(i, p): len(window) * i + t
                for i in range(len(vectors)) for t, p in enumerate(window.points)}
    equations = {}
    for (i, y), col in unknowns.items():
        for j, poly in enumerate(vectors[i].entries):
            for e, coef in poly.terms.items():
                row = equations.setdefault((j, tuple(a + b for a, b in zip(e, y))), {})
                row[col] = row.get(col, Fraction(0)) + coef
    return len(nullspace_basis([r for r in equations.values() if r], len(unknowns)))


def _span_window_dim(gens, box_bounds) -> int:
    """Dimension of the span of all box-supported shifts of the generators."""
    if not gens:
        return 0
    return WindowSpan(gens, box_window(box_bounds), k=gens[0].k).builder.rank


def test_syzygy_window_dimension_agreement():
    """Window dimension of box-supported relations must match the span of
    the computed relation generators, on 1-D and 2-D fixtures."""
    cases = [
        ([pv("s1", 1, 1), pv("1 + s1", 1, 1)], 1, 1, [(-3, 3)]),
        ([pv("[s1, 1]", 1, 2), pv("[s1^2, s1]", 1, 2)], 1, 2, [(-3, 3)]),
        ([pv("s1*s2", 2, 1), pv("s1 + s2", 2, 1)], 2, 1, [(-2, 2), (-2, 2)]),
    ]
    for vecs, nvars, k, box in cases:
        syz = syzygies(vecs, nvars, k)
        assert _relation_window_dim(vecs, box) == \
            _span_window_dim(list(syz.generators), box)


def test_kernel_of_independent_columns_is_zero():
    cols = [pv("[s1, 1]", 2, 2), pv("[s2, 1]", 2, 2)]
    assert syzygies(cols, 2, 2).is_zero_module()


# ---------------------------------------------------------------------------
# quotient, saturation, elimination


def test_module_quotient_example():
    p = Submodule(1, 1, [pv("s1^2 - s1", 1, 1)])
    q = module_quotient(p, parse_poly("s1 - 1", 1))
    # over Laurents s^2 - s = s(s - 1), so (p : s-1) = <s>= <1>... not quite:
    # s is a unit, hence the quotient is the unit ideal
    assert submodule_equal(q, Submodule(1, 1, [pv("1", 1, 1)]))


def test_saturation_strips_monomial_factors():
    a = Submodule(2, 1, [pv("s1*s2 - s1", 2, 1)])
    b = Submodule(2, 1, [pv("s2 - 1", 2, 1)])
    assert submodule_equal(a, b)


def test_eliminate_variable():
    p = Submodule(2, 1, [pv("s1 - s2", 2, 1), pv("s1*s2 - 1", 2, 1)])
    q = eliminate(p, [0])
    assert q.nvars == 1
    assert member(pv("s1^2 - 1", 1, 1), q)
    assert not member(pv("s1 - 1", 1, 1), q)
    assert eliminate(p, ()) is p


def test_eliminate_to_nothing_guard():
    """Dropping every variable leaves the constant part of the module."""
    q = eliminate(Submodule(1, 1, [pv("s1 - 1", 1, 1)]), [0])
    assert q.nvars == 0
    assert q.is_zero_module()
    q = eliminate(Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2), pv("[0, s1]", 1, 2)]), [0])
    assert q.nvars == 0
    assert member(pv("[0, 1]", 0, 2), q)
    assert not member(pv("[1, 0]", 0, 2), q)


def test_eliminate_keeps_subring_members_only():
    rng = random.Random(71)
    for _ in range(8):
        mod = _rand_module(rng, 2, 1, ngens=2)
        q = eliminate(mod, [1])
        for g in q.generators:
            lifted = LaurentVec([LaurentPoly(2, {(e[0], 0): c for e, c in
                                                 g.entries[0].terms.items()})])
            assert member(lifted, mod)


def _drop_sets(n):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n)]


def test_eliminate_returns_its_canonical_basis():
    """The cut eliminate returns is the saturated lift and the default-order
    basis a fresh Submodule of its generators computes, for every drop set."""
    rng = random.Random(113)
    cases = 0
    for _ in range(12):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        mod = Submodule(n, k, [_rand_vec(rng, n, k, terms=2, deg=1)
                               for _ in range(rng.randint(1, 3))])
        for drop in _drop_sets(n):
            q = eliminate(mod, drop)
            fresh = Submodule(q.nvars, q.k, q.generators)
            assert q.saturated_vpolys() == fresh.saturated_vpolys()
            assert groebner_basis(q) == groebner_basis(fresh) == list(q.generators)
            cases += 1
    assert cases > 30


def test_rank_of_an_eliminated_module_runs_no_buchberger(monkeypatch):
    """rank_over_fractions reads the canonical basis eliminate leaves on its
    result; a fresh module of the same generators needs a Buchberger run."""
    rng = random.Random(127)
    plain = groebner.buchberger
    runs = []

    def counting(*args):
        runs.append(args)
        return plain(*args)

    for _ in range(6):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        mod = Submodule(n, k, [_rand_vec(rng, n, k, terms=2, deg=1) for _ in range(2)])
        for drop in _drop_sets(n):
            q = eliminate(mod, drop)
            fresh = Submodule(q.nvars, q.k, q.generators)
            with monkeypatch.context() as m:
                m.setattr(groebner, "buchberger", counting)
                rank = rank_over_fractions(q)
                assert not runs
                assert rank_over_fractions(fresh) == rank and runs
            runs.clear()


def test_integer_arguments_are_not_truncated():
    p = Submodule(2, 1, [pv("s1 - s2", 2, 1), pv("s1*s2 - 1", 2, 1)])
    for drop in ([0.7], ["0"], [Fraction(1, 2)], [None]):
        with pytest.raises(ValueError, match="not an integer"):
            eliminate(p, drop)
    assert submodule_equal(eliminate(p, [Fraction(2, 2)]), eliminate(p, [1]))
    assert eliminate(p, [0.0]).nvars == 1
    with pytest.raises(ValueError):
        Submodule(-1, 1, [])


@pytest.mark.parametrize("bad", [1.5, "2", None, Fraction(3, 2)])
def test_submodule_sizes_are_checked_integers(bad):
    with pytest.raises(ValueError, match=re.escape(f"ambient rank {bad!r} is not an integer")):
        Submodule(2, bad, [])
    with pytest.raises(ValueError, match=re.escape(f"variable count {bad!r} is not an integer")):
        Submodule(bad, 1, [])


def test_submodule_sizes_of_integral_value_are_ints():
    p = Submodule(2.0, Fraction(2), [pv("[s1, 1]", 2, 2)])
    assert (p.nvars, p.k) == (2, 2) and type(p.nvars) is type(p.k) is int
    assert member(pv("[s1^2, s1]", 2, 2), p)
    with pytest.raises(ValueError, match="ambient rank must be >= 1"):
        Submodule(2, 0.0, [])


def test_submodule_contains():
    big = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    small = Submodule(1, 1, [pv("s1^2 - 1", 1, 1)])
    assert submodule_contains(big, small)
    assert not submodule_contains(small, big)


def test_lex_and_grevlex_agree_on_module_identity():
    p = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    gb1 = groebner_basis(p, TermOrder(kind="grevlex"))
    gb2 = groebner_basis(p, TermOrder(kind="lex"))
    q1 = Submodule(2, 1, gb1)
    q2 = Submodule(2, 1, gb2)
    assert submodule_equal(q1, q2)


def test_outputs_do_not_depend_on_buchberger_input_order(monkeypatch):
    """Every public result is a reduced basis, so feeding Buchberger its
    input reversed changes none of them."""
    def outputs():
        rng = random.Random(89)
        out = []
        for _ in range(20):
            k = rng.randint(1, 2)
            vecs = [_rand_vec(rng, 2, k, deg=1) for _ in range(rng.randint(2, 3))]
            mod = Submodule(2, k, vecs)
            out.append((syzygies(vecs, 2, k).generators,
                        eliminate(mod, [0]).generators,
                        groebner_basis(mod, TermOrder(kind="lex")),
                        analyze(mod).image_rep))
        return out

    forward = outputs()
    plain = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens, key: plain(gens[::-1], key))
    assert outputs() == forward


def test_engine_format_stays_in_groebner():
    """Only groebner.py knows the engine's vector format and Buchberger run."""
    names = re.compile(r"VPoly|vpoly|make_key|buchberger|reduced_basis|_lifted_vpolys"
                       r"|Packing|FIELD_BITS|top_floor|_repack|_pack_entries")
    for path in sorted(Path(ndsys.__file__).parent.glob("*.py")):
        if path.name == "groebner.py":
            continue
        hits = [line for line in path.read_text().splitlines() if names.search(line)]
        assert not hits, f"{path.name}: {hits}"


def test_lattice_reducer_stays_in_intlat():
    """IntLattice has the one point reducer: the older reducers are gone, and
    no module other than intlat.py scans a lattice row for its pivot."""
    from ndsys import coarsest, intlat
    assert not hasattr(intlat.IntLattice, "coset_reducer")
    assert not hasattr(intlat, "_pivot")
    assert not hasattr(coarsest, "_echelon_pivots")
    scan = re.compile(r"enumerate\(row\) if v")
    for path in sorted(Path(ndsys.__file__).parent.glob("*.py")):
        if path.name == "intlat.py":
            continue
        hits = [line for line in path.read_text().splitlines() if scan.search(line)]
        assert not hits, f"{path.name}: {hits}"


# ---------------------------------------------------------------------------
# the engine against its earlier forms


def _nested_key(order, nvars, comp_rank=None):
    """The nested sort key make_key built before it became one flat tuple."""
    drop = tuple(sorted(set(order.drop)))
    keep = tuple(i for i in range(nvars) if i not in drop)

    def tkey(sel):
        return (sum(sel), tuple(-e for e in reversed(sel))) if order.kind == "grevlex" else sel

    def key(mon):
        comp, exp = mon
        dk = tkey(tuple(exp[i] for i in drop)) if drop else ()
        rank = comp_rank[comp] if comp_rank is not None else 0
        return (dk, rank, -comp, tkey(tuple(exp[i] for i in keep)))

    return key


def _mono_divides(a, b) -> bool:
    """Does module monomial a divide b (same component, exponents <=)."""
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def _rescan_reduce(f, basis, key, full):
    """The reducer before the heap, on {(comp, exp): c} dicts: rescan the work
    for its largest term and try every element's lead in basis order."""
    lms = [(lm, g[lm]) for g in basis for lm in [max(g, key=key)]]
    work = dict(f)
    remainder = {}
    while work:
        mon = max(work, key=key)
        hit = next((i for i, (lm, _) in enumerate(lms) if _mono_divides(lm, mon)), None)
        if hit is None:
            if not full:
                return work
            remainder[mon] = work.pop(mon)
            continue
        coef = work.pop(mon)
        lm, lc = lms[hit]
        shift = tuple(a - b for a, b in zip(mon[1], lm[1]))
        d = gcd(lc, coef)
        scale = abs(lc) // d
        factor = coef // d if lc > 0 else -coef // d
        if scale != 1:
            for m2 in work:
                work[m2] *= scale
            for m2 in remainder:
                remainder[m2] *= scale
        for m2, c2 in basis[hit].items():
            if m2 == lm:
                continue
            tgt = (m2[0], tuple(a + b for a, b in zip(m2[1], shift)))
            nv = work.get(tgt, 0) - factor * c2
            if nv:
                work[tgt] = nv
            else:
                work.pop(tgt, None)
    return remainder


def _rand_vpoly(rng, nvars, k, terms=4, deg=2):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mon = (rng.randrange(k), tuple(rng.randint(0, deg) for _ in range(nvars)))
        out[mon] = rng.choice([-3, -2, -1, 1, 2, 3])
    return out


def _key_cases():
    for nvars in (2, 3):
        for k in (1, 2):
            yield nvars, k, TermOrder(), None
            yield nvars, k, TermOrder(kind="lex"), None
            yield nvars, k, TermOrder(drop=(0,)), None
            yield nvars, k, TermOrder(), [1] * (k - 1) + [0]
            yield nvars, k, TermOrder(drop=(nvars - 1,)), list(range(k))


def test_flat_key_orders_like_the_nested_key():
    rng = random.Random(97)
    for nvars, k, order, rank in _key_cases():
        mons = list({(rng.randrange(k), tuple(rng.randint(0, 3) for _ in range(nvars)))
                     for _ in range(40)})
        key = make_key(order, nvars, rank)
        nested = _nested_key(order, nvars, rank)
        assert sorted(mons, key=lambda m: key.pack(*m)) == sorted(mons, key=nested)
        # the reducer's heap holds negated monomials: largest first
        assert sorted(mons, key=lambda m: -key.pack(*m)) == sorted(mons, key=nested, reverse=True)


def test_heap_reducer_matches_rescan_reducer():
    """normal_form and top_reduce return the very dicts of the old reducer,
    whose key is the nested one, on random bases and random vectors; half
    the bases are grevlex Groebner bases (lex runs can take minutes)."""
    rng = random.Random(101)
    for nvars, k, order, rank in _key_cases():
        key = make_key(order, nvars, rank)
        old = _nested_key(order, nvars, rank)
        for _ in range(6):
            basis = [_rand_vpoly(rng, nvars, k) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                gb_key = make_key(DEFAULT_ORDER, nvars, rank)
                basis = [_unpacked(g, gb_key)
                         for g in buchberger([_packed(g, gb_key) for g in basis], gb_key)]
            packed = [_packed(g, key) for g in basis]
            index = groebner._lead_index(((groebner._leading(g), g) for g in packed), key)
            for _ in range(3):
                f = _rand_vpoly(rng, nvars, k, terms=8, deg=4)
                nf = groebner.normal_form(_packed(f, key), key, index)
                top = groebner.top_reduce(_packed(f, key), key, index)
                assert _unpacked(nf, key) == _rescan_reduce(f, basis, old, True)
                assert _unpacked(top, key) == _rescan_reduce(f, basis, old, False)


def _plain_buchberger(gens, key):
    """Buchberger without pair criteria: every pair of leads in one component
    is reduced, smallest lcm first, ties by creation sequence."""
    basis = [strip_content(g) for g in gens if g]
    leads = [groebner._leading(g) for g in basis]
    heap, seq = [], 0

    def push(i, j):
        nonlocal seq
        (ci, ei), (cj, ej) = key.unpack(leads[i][0]), key.unpack(leads[j][0])
        if ci == cj:
            lcm = key.pack(ci, tuple(map(max, ei, ej)))
            heapq.heappush(heap, (lcm, seq, i, j))
            seq += 1

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        lcm, _, i, j = heapq.heappop(heap)
        s = groebner._spoly(basis[i], leads[i], basis[j], leads[j], lcm, key)
        r = strip_content(groebner.normal_form(s, key, groebner._lead_index(zip(leads, basis), key)))
        if r:
            basis.append(r)
            leads.append(groebner._leading(r))
            for t in range(len(basis) - 1):
                push(t, len(basis) - 1)
    return basis


def _count_normal_forms(monkeypatch) -> list:
    calls = []
    plain_nf = groebner.normal_form

    def counting_nf(*args):
        calls.append(1)
        return plain_nf(*args)

    monkeypatch.setattr(groebner, "normal_form", counting_nf)
    return calls


def _check_against_plain(calls, gens, key):
    """Same reduced basis as without criteria and never more S-pair
    reductions; returns the raw basis."""
    del calls[:]
    raw = buchberger(gens, key)
    new_calls = len(calls)
    del calls[:]
    plain = _plain_buchberger(gens, key)
    assert new_calls <= len(calls)
    assert groebner.reduced_basis(raw, key) == groebner.reduced_basis(plain, key)
    return raw


def test_pair_criteria_match_plain_buchberger(monkeypatch):
    """Same reduced basis as without criteria, a Groebner basis as it comes
    out, and never more S-pair reductions."""
    calls = _count_normal_forms(monkeypatch)
    rng = random.Random(103)
    for _ in range(24):
        nvars, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
        gens = [_rand_vpoly(rng, nvars, k, terms=3) for _ in range(rng.randint(2, 4))]
        # the component ranking of a prime_step_cuts step half the time
        rank = [0, 1] if k == 2 and rng.random() < 0.5 else None
        key = make_key(DEFAULT_ORDER, nvars, rank)
        raw = _check_against_plain(calls, [_packed(g, key) for g in gens], key)
        if rank is None:
            vecs = [groebner.vpoly_to_vec(g, key, k) for g in raw]
            assert is_groebner_basis(vecs, nvars)


def test_pair_criteria_match_plain_buchberger_over_orders(monkeypatch):
    """The same two checks under lex, elimination blocks and ranked
    components up to k = 3, where sugar and the lcm order part ways."""
    calls = _count_normal_forms(monkeypatch)
    rng = random.Random(107)
    for _ in range(200):
        nvars, k = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
        order = rng.choice([TermOrder(), TermOrder(kind="lex"), TermOrder(drop=(0,)),
                            TermOrder(drop=(nvars - 1,)), TermOrder(kind="lex", drop=(1,))])
        rank = rng.choice([None, [rng.randint(0, 2) for _ in range(k)]])
        gens = [_rand_vpoly(rng, nvars, k, terms=3) for _ in range(rng.randint(2, 4))]
        key = make_key(order, nvars, rank)
        raw = _check_against_plain(calls, [_packed(g, key) for g in gens], key)
        if rank is None:
            vecs = [groebner.vpoly_to_vec(g, key, k) for g in raw]
            assert is_groebner_basis(vecs, nvars, order)


# ---------------------------------------------------------------------------
# the packing against (component, exponent) tuples


def _edge_exponent(rng, nvars):
    """An exponent with entries in -3..3 or within 3 of +-(2^62/nvars - 1),
    the largest magnitude every field holds, sums included."""
    edge = groebner._OFF // nvars - 1
    return tuple(rng.choice([rng.randint(-3, 3), edge - rng.randint(0, 3),
                             -edge + rng.randint(0, 3)]) for _ in range(nvars))


def test_packing_matches_the_tuple_monomials():
    """On Laurent exponents up to the field limit, under every key case: the
    int order is the nested key's, unpack inverts pack, a shift by a packed
    difference is tuple addition and the guard-bit test is divisibility."""
    rng = random.Random(109)
    for nvars, k, order, rank in _key_cases():
        key = make_key(order, nvars, rank)
        nested = _nested_key(order, nvars, rank)
        mons = list({(rng.randrange(k), _edge_exponent(rng, nvars)) for _ in range(30)})
        mons += [(c, e) for c in range(k) for e in [(0,) * nvars, (1,) * nvars, (-1,) * nvars]]
        assert sorted(mons, key=lambda m: key.pack(*m)) == sorted(mons, key=nested)
        for comp, exp in mons:
            m = key.pack(comp, exp)
            assert key.unpack(m) == (comp, exp) and key.comp(m) == comp
            assert not m & key.guard
            shift = tuple(rng.randint(-3, 3) for _ in range(nvars))
            moved = tuple(map(add, exp, shift))
            assert m + key.pack(k - 1, shift) - key.pack(k - 1, (0,) * nvars) == \
                key.pack(comp, moved)
            if all(abs(x) < groebner._OFF // nvars for x in moved):
                assert key.unpack(key.pack(comp, moved)) == (comp, moved)
        for a in mons:
            for b in mons:
                want = a[0] == b[0] and all(map(le, a[1], b[1]))
                assert key.divides(key.pack(*a), key.pack(*b)) == want


def test_bounds_match_the_low_predicates():
    """max(g) < key.top_floor(1) is each cut's old low predicate: the tag
    components of syzygy_basis, the first block of a prime step, and the
    drop-free part of an elimination (lifted, so exponents >= 0)."""
    rng = random.Random(113)
    for _ in range(300):
        nvars, k, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        cases = [(make_key(DEFAULT_ORDER, nvars, [1] * k + [0] * c), k + c,
                  lambda m: m[0] >= k),
                 (make_key(DEFAULT_ORDER, nvars, [0] * k + [1] * (c * k)), k + c * k,
                  lambda m: m[0] < k)]
        drop = tuple(sorted(rng.sample(range(nvars), rng.randint(1, nvars))))
        cases.append((make_key(TermOrder(drop=drop), nvars), k,
                      lambda m: all(m[1][i] == 0 for i in drop)))
        for key, ncomp, low in cases:
            g = {(rng.randrange(ncomp), tuple(rng.choice([0, 0, 1, 2]) for _ in range(nvars)))
                 for _ in range(rng.randint(1, 4))}
            packed = [key.pack(*m) for m in g]
            assert (max(packed) < key.top_floor(1)) == all(low(m) for m in g)


def test_exponents_outside_the_packed_range_are_rejected(tmp_path, capsys):
    """A lift whose exponents span twice the limit is a ValueError, never a
    wrapped answer, from member, groebner_basis and contract, and ndsys exits
    3; a span just inside is exact, and the canonical basis it gives is valid
    input again.  Exponents past the limit with a smaller span are packed as
    their lift, so contraction answers for them too."""
    limit = make_key(DEFAULT_ORDER, 2).limit
    e = limit - 1
    inside = pv(f"[s1^{e}*s2^{e} - s1^-{e}*s2^-{e}]", 2, 1)
    (g,) = groebner_basis(Submodule(2, 1, [inside]))
    # the lift fills the degree field up to its edge
    assert g.entries[0].support() == {(2 * e, 2 * e), (0, 0)}
    assert member(inside, Submodule(2, 1, [g]))
    lattice = diagonal_lattice([2, 1])
    for far in (f"[s1^{limit} + s1^-{limit}]", f"[s2^{2 * limit} - 1]"):
        far = pv(far, 2, 1)
        with pytest.raises(ValueError, match="packed range"):
            groebner_basis(Submodule(2, 1, [far]))
        with pytest.raises(ValueError, match="packed range"):
            member(far, Submodule(2, 1, [pv("[s1 - 1]", 2, 1)]))
        with pytest.raises(ValueError, match="packed range"):
            contract(Submodule(2, 1, [far]), lattice)
    shifted = pv(f"[s1^{limit} + s1^{limit}*s2]", 2, 1)
    assert groebner_basis(Submodule(2, 1, [shifted])) == [pv("[s2 + 1]", 2, 1)]
    unshifted = Submodule(2, 1, [pv("[1 + s2]", 2, 1)])
    assert groebner_basis(contract(Submodule(2, 1, [shifted]), lattice).module) \
        == groebner_basis(contract(unshifted, lattice).module)
    system = tmp_path / "far.system"
    system.write_text(f"n = 2\nk = 1\nP = [[s1^{2 * limit} + s2]]\n")
    assert main(["gb", str(system)]) == 3
    err = capsys.readouterr()
    assert not err.out and json.loads(err.err)["error"] == "precondition"


def test_spoly_checks_its_lcm():
    """An lcm that is not a multiple of both leading monomials, here of
    leads in different components, is a defect."""
    key = make_key(DEFAULT_ORDER, 2)
    f, g = {key.pack(0, (1, 0)): 1}, {key.pack(1, (0, 1)): 1}
    with pytest.raises(groebner.InvariantError):
        groebner._spoly(f, groebner._leading(f), g, groebner._leading(g),
                        key.pack(0, (1, 1)), key)


def test_buchberger_checks_the_fields_of_every_joining_element():
    """An input with a field out of range, and an S-vector whose degree
    leaves the range, each raise instead of wrapping into the next field."""
    key = make_key(DEFAULT_ORDER, 2)
    top = groebner._OFF - 1
    with pytest.raises(ValueError, match="packed range"):
        buchberger([{key.pack(0, (top + 1, 0)): 1}], key)
    # y*[x, y^top] - x*[y, 0] = [0, y^(top+1)], whose degree field overflows
    gens = [{key.pack(0, (1, 0)): 1, key.pack(1, (0, top)): 1}, {key.pack(0, (0, 1)): 1}]
    with pytest.raises(ValueError, match="packed range"):
        buchberger(gens, key)
