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
from ndsys.linalg import nullspace_basis
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
