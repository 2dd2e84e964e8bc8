import heapq
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import ndsys
from ndsys import groebner
from ndsys.analysis import analyze
from ndsys.laurent import LaurentPoly, LaurentVec, parse_poly, parse_vector
from ndsys.groebner import (DEFAULT_ORDER, Submodule, TermOrder, _lift, buchberger,
                            eliminate, groebner_basis, is_groebner_basis, make_key,
                            member, module_quotient, submodule_contains,
                            submodule_equal, syzygies, vec_to_vpoly)
from ndsys.linalg import nullspace_basis, strip_content
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


# ---------------------------------------------------------------------------
# membership and canonical bases


def test_lift():
    lifted, m = _lift(LaurentVec.wrap(parse_poly("s1^-2 + s1", 1)))
    assert m == (-2,)
    assert lifted == {(0, (0,)): 1, (0, (3,)): 1}
    with pytest.raises(ValueError):
        _lift(LaurentVec.wrap(LaurentPoly(1)))


def _rational_gens():
    return [pv("[1/2*s1 - 3/7, s2^2]", 2, 2), pv("[s1*s2, -3/7*s2 + 1/2]", 2, 2),
            pv("[-3/7*s1^2, 1/2*s1 + s2]", 2, 2)]


def test_engine_coefficients_are_primitive_ints():
    """Inside the engine every coefficient is an int and every element is
    primitive; a reduced basis has positive leading coefficients."""
    gens = _rational_gens()
    key = make_key(DEFAULT_ORDER, 2)
    raw = buchberger([_lift(g)[0] for g in gens], key)
    sat = Submodule(2, 2, gens).saturated_vpolys()
    assert raw and sat
    for g in raw + sat:
        assert all(type(c) is int for c in g.values())
        assert gcd(*g.values()) == 1
    for g in sat:
        assert g[max(g, key=key)] > 0


def test_groebner_basis_is_monic_fractions():
    key = make_key(DEFAULT_ORDER, 2)
    for v in groebner_basis(Submodule(2, 2, _rational_gens())):
        f = vec_to_vpoly(v)
        assert all(type(c) is Fraction for c in f.values())
        assert f[max(f, key=key)] == 1


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
    names = re.compile(r"VPoly|vpoly|make_key|buchberger|reduced_basis|_lifted_vpolys")
    for path in sorted(Path(ndsys.__file__).parent.glob("*.py")):
        if path.name == "groebner.py":
            continue
        hits = [line for line in path.read_text().splitlines() if names.search(line)]
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


def _rescan_reduce(f, basis, key, full):
    """The reducer before the heap: rescan the work for its largest term and
    try every element's lead in basis order."""
    lms = [groebner._leading(g, key) for g in basis]
    work = dict(f)
    remainder = {}
    while work:
        mon = max(work, key=key)
        hit = next((i for i, (lm, _) in enumerate(lms) if groebner._mono_divides(lm, mon)), None)
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
        assert sorted(mons, key=key) == sorted(mons, key=_nested_key(order, nvars, rank))
        assert all(key.rev(m) == tuple(-x for x in key(m)) for m in mons)


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
                basis = buchberger(basis, make_key(DEFAULT_ORDER, nvars, rank))
            for _ in range(3):
                f = _rand_vpoly(rng, nvars, k, terms=8, deg=4)
                assert groebner.normal_form(f, basis, key) == _rescan_reduce(f, basis, old, True)
                assert groebner.top_reduce(f, basis, key) == _rescan_reduce(f, basis, old, False)


def _plain_buchberger(gens, key):
    """Buchberger without pair criteria: every pair of leads in one component
    is reduced, smallest lcm first, ties by creation sequence."""
    basis = [strip_content(g) for g in gens if g]
    leads = [groebner._leading(g, key) for g in basis]
    heap, seq = [], 0

    def push(i, j):
        nonlocal seq
        if leads[i][0][0] == leads[j][0][0]:
            lcm = tuple(map(max, leads[i][0][1], leads[j][0][1]))
            heapq.heappush(heap, (key((leads[i][0][0], lcm)), seq, i, j))
            seq += 1

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        s = groebner._spoly(basis[i], leads[i], basis[j], leads[j])
        r = strip_content(groebner.normal_form(s, basis, key))
        if r:
            basis.append(r)
            leads.append(groebner._leading(r, key))
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
        # the component ranking of component_cut half the time
        rank = [0, 1] if k == 2 and rng.random() < 0.5 else None
        key = make_key(DEFAULT_ORDER, nvars, rank)
        raw = _check_against_plain(calls, gens, key)
        if rank is None:
            assert is_groebner_basis([groebner.vpoly_to_vec(g, nvars, k) for g in raw], nvars)


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
        raw = _check_against_plain(calls, gens, key)
        if rank is None:
            vecs = [groebner.vpoly_to_vec(g, nvars, k) for g in raw]
            assert is_groebner_basis(vecs, nvars, order)
