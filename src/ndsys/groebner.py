"""Groebner engine for submodules of A^k, A the rational Laurent ring.

A submodule given by Laurent generators is handled through its polynomial
lift: each generator is shifted by a unit monomial into the polynomial ring,
and the lifted module is saturated by the product of the variables.  The
reduced Groebner basis of that saturation is the canonical form; membership,
equality, syzygies, quotients and elimination all run against it.

Internally a vector polynomial is a dict {(component, exponent): int}.  Every
lift enters the engine through _strip_content, which scales it by a positive
rational to primitive integer coefficients, and S-pairs and reduction are
fraction-free: they only multiply by positive integers, so each result is a
positive multiple of the one rational arithmetic gives and strips to the same
primitive vector.  A reduced basis holds primitive elements with a positive
leading coefficient; it becomes monic only where it leaves the engine as
LaurentVecs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .laurent import (
    Exp,
    LaurentPoly,
    LaurentVec,
    exp_add,
    exp_sub,
)

VPoly = dict[tuple[int, Exp], int]


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect, not a bad input."""


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: grevlex or lex base, optional elimination block.

    Variables listed in drop outrank everything else, which yields the
    elimination property for them.  Module monomials compare position over
    term, with lower component index ranked greater.
    """

    kind: str = "grevlex"
    drop: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")


def make_key(order: TermOrder, nvars: int, comp_rank=None):
    """Sort key on module monomials (component, exponent); max = leading."""
    drop = tuple(sorted(set(order.drop)))
    if any(i < 0 or i >= nvars for i in drop):
        raise ValueError("drop variable out of range")
    keep = tuple(i for i in range(nvars) if i not in drop)

    if order.kind == "grevlex":
        def tkey(sel):
            return (sum(sel), tuple(-e for e in reversed(sel)))
    else:
        def tkey(sel):
            return sel

    cache: dict = {}

    def key(mon):
        got = cache.get(mon)
        if got is not None:
            return got
        comp, exp = mon
        dk = tkey(tuple(exp[i] for i in drop)) if drop else ()
        kk = tkey(tuple(exp[i] for i in keep))
        rank = comp_rank[comp] if comp_rank is not None else 0
        got = (dk, rank, -comp, kk)
        cache[mon] = got
        return got

    return key


# ---------------------------------------------------------------------------
# raw engine on vector polynomials


def vec_to_vpoly(v: LaurentVec) -> VPoly:
    out: VPoly = {}
    for j, p in enumerate(v.entries):
        for e, c in p.terms.items():
            out[(j, e)] = c
    return out


def _lift(v: LaurentVec) -> tuple[VPoly, Exp]:
    """Shift a nonzero vector into the polynomial ring so every exponent is
    >= 0 and each variable touches 0; returns the lift and the subtracted
    exponent."""
    pts = v.support()
    if not pts:
        raise ValueError("zero vector has no polynomial lift")
    m = tuple(min(p[i] for p in pts) for i in range(v.nvars))
    return {(j, exp_sub(e, m)): c
            for j, p in enumerate(v.entries) for e, c in p.terms.items()}, m


def vpoly_to_vec(f: VPoly, nvars: int, k: int) -> LaurentVec:
    polys: list[dict[Exp, Fraction]] = [dict() for _ in range(k)]
    for (j, e), c in f.items():
        polys[j][e] = c
    return LaurentVec([LaurentPoly(nvars, t) for t in polys])


def _leading(f: VPoly, key):
    m = max(f, key=key)
    return m, f[m]


def _mono_divides(a, b) -> bool:
    """Does module monomial a divide b (same component, exponents <=)."""
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def _reduce(f: VPoly, basis: list[VPoly], key, leads, full: bool) -> VPoly:
    """Reduce f against basis with a deterministic reducer choice.

    With full set, irreducible leads move to the remainder and reduction goes
    on; otherwise the loop stops at the first one and returns the work dict.
    Fraction-free: to cancel c*m with a reducer of leading coefficient l, the
    work and the remainder so far are multiplied by |l|/gcd(l, c), so the
    result is a positive multiple of the rational one.
    """
    lms = leads if leads is not None else [_leading(g, key) for g in basis]
    work = dict(f)
    remainder: VPoly = {}
    while work:
        mon = max(work, key=key)
        hit = None
        for idx, (lm, _) in enumerate(lms):
            if _mono_divides(lm, mon):
                hit = idx
                break
        if hit is None:
            if not full:
                return work
            remainder[mon] = work.pop(mon)
            continue
        coef = work.pop(mon)
        lm, lc = lms[hit]
        shift = exp_sub(mon[1], lm[1])
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
            tgt = (m2[0], exp_add(m2[1], shift))
            nv = work.get(tgt, 0) - factor * c2
            if nv:
                work[tgt] = nv
            else:
                work.pop(tgt, None)
    return remainder


def normal_form(f: VPoly, basis: list[VPoly], key, leads=None) -> VPoly:
    """Fully reduce f against basis."""
    return _reduce(f, basis, key, leads, True)


def top_reduce(f: VPoly, basis: list[VPoly], key, leads=None) -> VPoly:
    """Cancel leading terms only, stopping at the first irreducible lead.

    Decides membership (zero remainder) exactly like full reduction while
    skipping all tail work; the returned tail is not normalized.
    """
    return _reduce(f, basis, key, leads, False)


def _strip_content(f) -> VPoly:
    """Scale by a positive rational to primitive int coefficients.

    Takes int or Fraction coefficients; this is how every vector enters the
    engine.
    """
    den = 1
    for c in f.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.items()}
    content = gcd(*ints.values())
    if content <= 1:
        return ints
    return {m: c // content for m, c in ints.items()}


def _spoly(f: VPoly, g: VPoly, key) -> VPoly:
    (cf, ef), lcf = _leading(f, key)
    (cg, eg), lcg = _leading(g, key)
    if cf != cg:
        raise InvariantError("S-pair of leading terms in different components")
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    sf = exp_sub(lcm, ef)
    sg = exp_sub(lcm, eg)
    # a positive multiple of f/lcf*x^sf - g/lcg*x^sg
    d = gcd(lcf, lcg)
    mf = abs(lcg) // d if lcf > 0 else -abs(lcg) // d
    mg = abs(lcf) // d if lcg > 0 else -abs(lcf) // d
    out: VPoly = {}
    for (c, e), v in f.items():
        out[(c, exp_add(e, sf))] = v * mf
    for (c, e), v in g.items():
        tgt = (c, exp_add(e, sg))
        nv = out.get(tgt, 0) - v * mg
        if nv:
            out[tgt] = nv
        else:
            out.pop(tgt, None)
    return out


def buchberger(gens: list[VPoly], key) -> list[VPoly]:
    """Plain Buchberger with normal (smallest-lcm-first) pair selection.

    No coprime-lcm shortcut: it is unsound for module leading terms.
    Ties in the lcm order break by pair creation sequence, so the raw
    output is reproducible run to run.
    """
    basis = [_strip_content(g) for g in gens if g]
    leads = [_leading(g, key) for g in basis]

    def pair_entry(i, j, seq):
        ci, ei = leads[i][0]
        _, ej = leads[j][0]
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        return (key((ci, lcm)), seq, i, j)

    heap = []
    seq = 0
    for j in range(len(basis)):
        for i in range(j):
            if leads[i][0][0] == leads[j][0][0]:
                heap.append(pair_entry(i, j, seq))
                seq += 1
    heapq.heapify(heap)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        s = _spoly(basis[i], basis[j], key)
        r = _strip_content(normal_form(s, basis, key, leads))
        if r:
            basis.append(r)
            leads.append(_leading(r, key))
            new = len(basis) - 1
            for t in range(new):
                if leads[t][0][0] == leads[new][0][0]:
                    heapq.heappush(heap, pair_entry(t, new, seq))
                    seq += 1
    return basis


def reduced_basis(basis: list[VPoly], key) -> list[VPoly]:
    """Unique reduced basis: minimal, interreduced, sorted by LM, each
    element primitive with a positive leading coefficient."""
    items = [g for g in basis if g]
    if not items:
        return []
    items.sort(key=lambda g: key(_leading(g, key)[0]))
    kept: list[VPoly] = []
    kept_lms = []
    for g in items:
        lm = _leading(g, key)[0]
        if any(_mono_divides(l, lm) for l in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    # one pass suffices: in a minimal basis reduction keeps every leading
    # monomial, and a normal form depends only on the others' leading monomials
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        g = _strip_content(normal_form(kept[i], others, key) if others else kept[i])
        kept[i] = g if _leading(g, key)[1] > 0 else {m: -c for m, c in g.items()}
    return kept


def _monic(g: VPoly, key) -> dict:
    """The monic form of g, in which a reduced basis leaves the engine."""
    _, lc = _leading(g, key)
    return {m: Fraction(c, lc) for m, c in g.items()}


def syzygy_basis(vecs: list[VPoly], k: int, nvars: int, order: TermOrder) -> list[VPoly]:
    """Generators of {r in A^c : sum r_i vecs_i = 0} for polynomial vecs.

    Standard tag construction: append unit tags as extra components ranked
    below the original block, take a Groebner basis, keep tag-only elements.
    """
    c = len(vecs)
    zero = tuple(0 for _ in range(nvars))
    combined = []
    for i, v in enumerate(vecs):
        g = dict(v)
        g[(k + i, zero)] = 1
        combined.append(g)
    comp_rank = [1] * k + [0] * c
    key = make_key(order, nvars, comp_rank=comp_rank)
    gb = buchberger(combined, key)
    syz = []
    for g in gb:
        if all(comp >= k for comp, _ in g):
            syz.append({(comp - k, e): v for (comp, e), v in g.items()})
    return syz


# ---------------------------------------------------------------------------
# Laurent-level submodules


DEFAULT_ORDER = TermOrder()


class Submodule:
    """Finitely generated A-submodule of A^k with cached canonical bases."""

    def __init__(self, nvars: int, k: int, generators):
        if k < 1:
            raise ValueError("ambient rank must be >= 1")
        gens = []
        for g in generators:
            if not isinstance(g, LaurentVec):
                raise TypeError("generators must be LaurentVec")
            if g.nvars != nvars or g.k != k:
                raise ValueError("generator shape mismatch")
            if not g.is_zero():
                gens.append(g)
        self.nvars = nvars
        self.k = k
        self.generators: tuple[LaurentVec, ...] = tuple(gens)
        self._gb_cache: dict[TermOrder, tuple[LaurentVec, ...]] = {}
        self._sat_cache: list[VPoly] | None = None

    def __repr__(self):
        return f"Submodule(nvars={self.nvars}, k={self.k}, ngens={len(self.generators)})"

    def is_zero_module(self) -> bool:
        return not self.saturated_vpolys()

    def saturated_vpolys(self) -> list[VPoly]:
        """Reduced default-order basis of the saturated polynomial lift."""
        if self._sat_cache is None:
            lifts = [_lift(g)[0] for g in self.generators]
            self._sat_cache = _saturate(lifts, self.nvars, self.k)
        return self._sat_cache


def _saturate(lifts: list[VPoly], nvars: int, k: int) -> list[VPoly]:
    key = make_key(DEFAULT_ORDER, nvars)
    basis = reduced_basis(buchberger(lifts, key), key)
    if nvars == 0 or len(basis) <= 1:
        # a single lifted generator has no monomial content left to divide out
        return basis
    f: VPoly = {(0, tuple(1 for _ in range(nvars))): 1}
    while True:
        quo = _quotient_vpolys(basis, f, nvars, k)
        nxt = reduced_basis(buchberger(quo, key), key)
        if nxt == basis:
            return basis
        basis = nxt


def _quotient_vpolys(basis: list[VPoly], f: VPoly, nvars: int, k: int) -> list[VPoly]:
    """Generators of (M : f) for the module M spanned by basis; f a 1-term
    or general polynomial given at component 0 (interpreted as a scalar)."""
    scalar = {e: c for (comp, e), c in f.items()}
    vecs: list[VPoly] = []
    for j in range(k):
        vecs.append({(j, e): c for e, c in scalar.items()})
    vecs.extend(basis)
    syz = syzygy_basis(vecs, k, nvars, DEFAULT_ORDER)
    out = []
    for s in syz:
        proj = {(comp, e): c for (comp, e), c in s.items() if comp < k}
        if proj:
            out.append(proj)
    return out


def groebner_basis(mod: Submodule, order: TermOrder | None = None) -> list[LaurentVec]:
    """Canonical generating set: reduced basis of the saturated lift."""
    order = order or DEFAULT_ORDER
    if order.drop:
        raise ValueError("elimination orders belong to eliminate()")
    cached = mod._gb_cache.get(order)
    if cached is None:
        sat = mod.saturated_vpolys()
        key = make_key(order, mod.nvars)
        vp = sat if order == DEFAULT_ORDER else reduced_basis(buchberger(sat, key), key)
        cached = tuple(vpoly_to_vec(_monic(g, key), mod.nvars, mod.k) for g in vp)
        mod._gb_cache[order] = cached
    return list(cached)


def member(v: LaurentVec, mod: Submodule) -> bool:
    """Exact membership of a Laurent vector via the saturated lift."""
    if v.k != mod.k or v.nvars != mod.nvars:
        raise ValueError("vector shape mismatch")
    if v.is_zero():
        return True
    sat = mod.saturated_vpolys()
    if not sat:
        return False
    key = make_key(DEFAULT_ORDER, mod.nvars)
    return not top_reduce(_strip_content(_lift(v)[0]), sat, key)


def component_cut(vectors: list[LaurentVec], k: int) -> list[LaurentVec]:
    """Elements of the span of vectors that lie in their first k components.

    Takes the reduced basis of the lifted vectors under the default order with
    components k and above ranked over the first k, and keeps the elements
    free of those components; [] when no vector is nonzero.
    """
    lifts = [_lift(v)[0] for v in vectors if not v.is_zero()]
    if not lifts:
        return []
    nvars, big_k = vectors[0].nvars, vectors[0].k
    key = make_key(DEFAULT_ORDER, nvars, comp_rank=[0] * k + [1] * (big_k - k))
    # No saturation pass here: monomial scaling respects the component
    # blocks, so the Laurent span of the low cut is unchanged by it, and
    # the resulting submodule saturates itself on demand.
    gb = reduced_basis(buchberger(lifts, key), key)
    return [vpoly_to_vec(_monic(g, key), nvars, k)
            for g in gb if all(comp < k for comp, _ in g)]


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    if a.nvars != b.nvars or a.k != b.k:
        raise ValueError("modules live in different ambient spaces")
    return a.saturated_vpolys() == b.saturated_vpolys()


def submodule_contains(a: Submodule, b: Submodule) -> bool:
    """Does a contain every generator of b."""
    return all(member(g, a) for g in b.generators)


def syzygies(vectors: list[LaurentVec], nvars: int, k: int) -> Submodule:
    """Relation module {r in A^c : sum r_i v_i = 0} of the given vectors."""
    c = len(vectors)
    if c == 0:
        return Submodule(nvars, 1, [])
    for v in vectors:
        if v.k != k or v.nvars != nvars:
            raise ValueError("vector shape mismatch")
    zero = tuple(0 for _ in range(nvars))
    lifts = [({}, zero) if v.is_zero() else _lift(v) for v in vectors]
    syz = syzygy_basis([f for f, _ in lifts], k, nvars, DEFAULT_ORDER)
    gens = []
    for s in syz:
        vec = vpoly_to_vec(s, nvars, c)
        # undo the per-coordinate unit shifts of the lift
        entries = [p.shift(tuple(-x for x in lifts[i][1])) for i, p in enumerate(vec.entries)]
        gens.append(LaurentVec(entries))
    return Submodule(nvars, c, gens)


def module_quotient(mod: Submodule, f: LaurentPoly) -> Submodule:
    """(mod : f) = {v : f v in mod}; unit factors of f are irrelevant."""
    if f.nvars != mod.nvars:
        raise ValueError("variable count mismatch")
    if f.is_zero():
        raise ValueError("quotient by zero")
    fv = _strip_content(_lift(LaurentVec.wrap(f))[0])
    sat = mod.saturated_vpolys()
    if not sat:
        return Submodule(mod.nvars, mod.k, [])
    quo = _quotient_vpolys(sat, fv, mod.nvars, mod.k)
    return Submodule(mod.nvars, mod.k,
                     [vpoly_to_vec(g, mod.nvars, mod.k) for g in quo])


def eliminate(mod: Submodule, drop, *, allow_all: bool = False) -> Submodule:
    """Intersect with the Laurent subring of the retained variables.

    Computes a Groebner basis of the saturated lift under a block order
    ranking the dropped variables above everything, keeps the elements free
    of them, and re-expresses those over the retained variables.  The result
    is a Submodule over the smaller ring (its own canonicalization
    re-saturates by the retained variables).
    """
    drop = tuple(sorted(set(int(i) for i in drop)))
    if any(i < 0 or i >= mod.nvars for i in drop):
        raise ValueError("drop variable out of range")
    if len(drop) == mod.nvars and not allow_all:
        raise ValueError("cannot drop every variable")
    if not drop:
        return Submodule(mod.nvars, mod.k, list(mod.generators))
    keep = [i for i in range(mod.nvars) if i not in drop]
    order = TermOrder(drop=drop)
    key = make_key(order, mod.nvars)
    gb = reduced_basis(buchberger(mod.saturated_vpolys(), key), key)
    gens = []
    for g in gb:
        if all(all(e[i] == 0 for i in drop) for _, e in g):
            proj = {(comp, tuple(e[i] for i in keep)): c
                    for (comp, e), c in _monic(g, key).items()}
            gens.append(vpoly_to_vec(proj, len(keep), mod.k))
    return Submodule(len(keep), mod.k, gens)


def is_groebner_basis(vecs: list[LaurentVec], nvars: int, order: TermOrder | None = None) -> bool:
    """Buchberger criterion: every S-pair reduces to zero (test hook)."""
    order = order or DEFAULT_ORDER
    key = make_key(order, nvars)
    vps = [_strip_content(vec_to_vpoly(v)) for v in vecs if not v.is_zero()]
    lms = [_leading(g, key)[0] for g in vps]
    for j in range(len(vps)):
        for i in range(j):
            if lms[i][0] != lms[j][0]:
                continue
            if normal_form(_spoly(vps[i], vps[j], key), vps, key):
                return False
    return True
