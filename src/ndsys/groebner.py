"""Groebner engine for submodules of A^k, A the rational Laurent ring.

A submodule given by Laurent generators is handled through its polynomial
lift: each generator is shifted by a unit monomial into the polynomial ring,
and the lifted module is saturated by the product of the variables.  The
reduced Groebner basis of that saturation is the canonical form; membership,
equality, syzygies, quotients and elimination all run against it.

Internally a vector polynomial is a dict {(component, exponent): int}.  Every
lift enters the engine through linalg.strip_content, which scales it by a
positive rational to primitive integer coefficients, and S-pairs and reduction
are fraction-free: they only multiply by positive integers, so each result is
a positive multiple of the one rational arithmetic gives and strips to the
same primitive vector.  A reduced basis holds primitive elements with a
positive leading coefficient; it becomes monic only where it leaves the engine
as LaurentVecs.

Every Groebner run goes through _cut, which returns a reduced basis: of the
whole span, or of its part inside a low block (an elimination).  So every
result, syzygies included, depends on the inputs alone and not on the order
in which Buchberger meets them.

A term order is a flat int tuple key (make_key); its negation orders the
reducer's heap of pending terms, largest first.  Reducers are looked up by the
term's component, through a _lead_index of the basis that Buchberger keeps up
to date and a Submodule keeps beside its saturated basis for member.
Buchberger drops redundant pairs by the Gebauer-Moeller criteria and meets
the rest by least sugar degree, the normal strategy made robust to
non-homogeneous input, with the smallest lcm first among equal sugars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, itemgetter, le, neg, sub

from .laurent import Exp, LaurentPoly, LaurentVec
from .linalg import strip_content

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
    """Sort key on module monomials (component, exponent); max = leading.

    The key is one flat int tuple: the dropped block's term key, the
    component's rank, the negated component, then the kept block's term key
    (grevlex: total degree, then the negated exponents from the last
    variable).  key.rev is its elementwise negation, so a min-heap on it
    yields the largest monomial first.
    """
    drop = tuple(sorted(set(order.drop)))
    if any(i < 0 or i >= nvars for i in drop):
        raise ValueError("drop variable out of range")
    keep = tuple(i for i in range(nvars) if i not in drop)

    if order.kind == "grevlex" and not drop:
        if comp_rank is None:
            def key(mon):
                comp, exp = mon
                return (-comp, sum(exp), *map(neg, reversed(exp)))

            def rev(mon):
                comp, exp = mon
                return (comp, -sum(exp), *reversed(exp))
        else:
            rank = tuple(comp_rank)

            def key(mon):
                comp, exp = mon
                return (rank[comp], -comp, sum(exp), *map(neg, reversed(exp)))

            def rev(mon):
                comp, exp = mon
                return (-rank[comp], comp, -sum(exp), *reversed(exp))
    else:
        if order.kind == "grevlex":
            def tkey(sel):
                return (sum(sel), *map(neg, reversed(sel)))
        else:
            def tkey(sel):
                return sel

        def key(mon):
            comp, exp = mon
            rank = comp_rank[comp] if comp_rank is not None else 0
            return (*tkey([exp[i] for i in drop]), rank, -comp,
                    *tkey([exp[i] for i in keep]))

        def rev(mon):
            return tuple(map(neg, key(mon)))

    key.rev = rev
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
    return {(j, tuple(map(sub, e, m))): c
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
    return a[0] == b[0] and all(map(le, a[1], b[1]))


def _lcm(a: Exp, b: Exp) -> Exp:
    return tuple(map(max, a, b))


def _lead_index(led) -> dict[int, list]:
    """Reducers by component from (leading term, element) pairs: lists of
    (lead exponent, lead coefficient, element) in the given order."""
    index: dict[int, list] = {}
    for ((comp, exp), lc), g in led:
        index.setdefault(comp, []).append((exp, lc, g))
    return index


def _leads(basis: list[VPoly], key) -> dict[int, list]:
    """The _lead_index of basis under key."""
    return _lead_index((_leading(g, key), g) for g in basis)


def _reduce(f: VPoly, basis: list[VPoly], key, leads, full: bool) -> VPoly:
    """Reduce f against basis; leads, when given, is _leads(basis, key).

    The terms still to treat sit in a heap under key.rev, largest first;
    a cancelled term leaves a stale heap entry that is skipped.  Each term
    is reduced by the first element, in basis order, whose leading monomial
    divides it.  With full set, irreducible terms move to the remainder and
    reduction goes on; otherwise the loop stops at the first one and returns
    the work dict.  Fraction-free: to cancel c*m with a reducer of leading
    coefficient l, the work and the remainder so far are multiplied by
    |l|/gcd(l, c), so the result is a positive multiple of the rational one.
    """
    index = leads if leads is not None else _leads(basis, key)
    rev = key.rev
    work = dict(f)
    heap = [(rev(m), m) for m in work]
    heapify(heap)
    remainder: VPoly = {}
    while heap:
        mon = heappop(heap)[1]
        coef = work.pop(mon, 0)
        if not coef:
            continue
        comp, exp = mon
        for lexp, lc, g in index.get(comp, ()):
            if all(map(le, lexp, exp)):
                break
        else:
            if not full:
                work[mon] = coef
                return work
            remainder[mon] = coef
            continue
        shift = tuple(map(sub, exp, lexp))
        d = gcd(lc, coef)
        scale = abs(lc) // d
        factor = coef // d if lc > 0 else -coef // d
        if scale != 1:
            for m2 in work:
                work[m2] *= scale
            for m2 in remainder:
                remainder[m2] *= scale
        lm = (comp, lexp)
        for m2, c2 in g.items():
            if m2 == lm:
                continue
            tgt = (m2[0], tuple(map(add, m2[1], shift)))
            nv = work.get(tgt)
            if nv is None:
                work[tgt] = -factor * c2
                heappush(heap, (rev(tgt), tgt))
                continue
            nv -= factor * c2
            if nv:
                work[tgt] = nv
            else:
                del work[tgt]
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


def _spoly(f: VPoly, lead_f, g: VPoly, lead_g) -> VPoly:
    """S-vector of f and g, given their leading terms."""
    (cf, ef), lcf = lead_f
    (cg, eg), lcg = lead_g
    if cf != cg:
        raise InvariantError("S-pair of leading terms in different components")
    lcm = _lcm(ef, eg)
    sf = tuple(map(sub, lcm, ef))
    sg = tuple(map(sub, lcm, eg))
    # a positive multiple of f/lcf*x^sf - g/lcg*x^sg
    d = gcd(lcf, lcg)
    mf = abs(lcg) // d if lcf > 0 else -abs(lcg) // d
    mg = abs(lcf) // d if lcg > 0 else -abs(lcf) // d
    out: VPoly = {}
    for (c, e), v in f.items():
        out[(c, tuple(map(add, e, sf)))] = v * mf
    for (c, e), v in g.items():
        tgt = (c, tuple(map(add, e, sg)))
        nv = out.get(tgt, 0) - v * mg
        if nv:
            out[tgt] = nv
        else:
            out.pop(tgt, None)
    return out


def buchberger(gens: list[VPoly], key) -> list[VPoly]:
    """Buchberger with the Gebauer-Moeller pair criteria and sugar-degree
    pair selection.

    Each element joins the basis through one update, the inputs in their
    order included, and pairs only elements whose leading terms share a
    component.  Of the newcomer's pairs, one whose lcm another's lcm
    properly divides is dropped (M), and of pairs with equal lcms only the
    one with the earliest element stays (F).  A queued pair whose lcm the
    newcomer's lead divides is dropped unless that lcm equals the lcm of
    either of its elements with the newcomer's lead (B); dropped pairs are
    skipped when they reach the top of the queue.  There is no product
    criterion: the coprime-lcm shortcut is unsound for module leading terms.

    Pairs are met by least sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", ISSAC 1991), in its simplified form
    and only as a selection heuristic: the answer does not depend on the
    order pairs are met.  An input's sugar is the largest total degree of
    its terms, a remainder takes the sugar of its pair (the degree its
    reduction steps add is not carried forward), and
    pair (i, j) with lcm L has sugar max(s_i + |L| - |lead_i|,
    s_j + |L| - |lead_j|), |.| the total degree; each element keeps
    s - |lead| so that a pair sums only its lcm.  Ties go to the smaller
    lcm under key, then to the earlier pair, so the raw output is
    reproducible run to run.
    """
    basis: list[VPoly] = []
    leads: list = []
    # each element's sugar less the total degree of its leading exponent
    ecarts: list[int] = []
    index: dict[int, list] = {}
    queued: dict[int, dict[tuple[int, int], Exp]] = {}
    heap: list = []
    seq = 0

    def join(g, sugar):
        nonlocal seq
        lead = _leading(g, key)
        (comp, exp), lc = lead
        new = len(basis)
        ecart = sugar - sum(exp)
        lcms: dict[Exp, int] = {}
        for t, ((c, e), _) in enumerate(leads):
            if c == comp:
                lcms.setdefault(_lcm(e, exp), t)
        live = queued.setdefault(comp, {})
        for (i, j), lcm in list(live.items()):
            if all(map(le, exp, lcm)) and lcm != _lcm(leads[i][0][1], exp) \
                    and lcm != _lcm(leads[j][0][1], exp):
                del live[i, j]
        for lcm, t in lcms.items():
            if not any(o != lcm and all(map(le, o, lcm)) for o in lcms):
                live[t, new] = lcm
                et = ecarts[t]
                heappush(heap, (sum(lcm) + (et if et > ecart else ecart),
                                key((comp, lcm)), seq, t, new))
                seq += 1
        basis.append(g)
        leads.append(lead)
        ecarts.append(ecart)
        index.setdefault(comp, []).append((exp, lc, g))

    for g in gens:
        if g:
            join(strip_content(g), max(map(sum, map(itemgetter(1), g))))
    while heap:
        sugar, _, _, i, j = heappop(heap)
        if queued[leads[i][0][0]].pop((i, j), None) is None:
            continue
        s = _spoly(basis[i], leads[i], basis[j], leads[j])
        r = strip_content(normal_form(s, basis, key, index))
        if r:
            join(r, sugar)
    return basis


def reduced_basis(basis: list[VPoly], key) -> list[VPoly]:
    """Unique reduced basis: minimal, interreduced, sorted by LM, each
    element primitive with a positive leading coefficient."""
    items = sorted(((_leading(g, key), g) for g in basis if g), key=lambda it: key(it[0][0]))
    kept: list = []
    for lead, g in items:
        if not any(_mono_divides(l, lead[0]) for (l, _), _ in kept):
            kept.append((lead, g))
    # one pass suffices: in a minimal basis reduction keeps every leading
    # monomial, and a normal form depends only on the others' leading monomials
    for i, ((lm, _), g) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if others:
            g = normal_form(g, [h for _, h in others], key, _lead_index(others))
        g = strip_content(g)
        if g[lm] < 0:
            g = {m: -c for m, c in g.items()}
        kept[i] = ((lm, g[lm]), g)
    return [g for _, g in kept]


def _monic(g: VPoly, key) -> dict:
    """The monic form of g, in which a reduced basis leaves the engine."""
    _, lc = _leading(g, key)
    return {m: Fraction(c, lc) for m, c in g.items()}


def _cut(vpolys: list[VPoly], key, low=None) -> list[VPoly]:
    """Reduced basis of the span's elements whose monomials all satisfy low.

    Runs Buchberger under key and reduces only the elements inside the low
    block (all of them when low is None).  When key ranks everything outside
    the block above it, those elements are a Groebner basis of the span's
    intersection with the block, so this is that intersection's unique
    reduced basis.
    """
    gb = buchberger(vpolys, key)
    if low is not None:
        gb = [g for g in gb if all(low(m) for m in g)]
    return reduced_basis(gb, key)


def syzygy_basis(vecs: list[VPoly], k: int, nvars: int) -> list[VPoly]:
    """Reduced basis of {r in A^c : sum r_i vecs_i = 0} for polynomial vecs.

    Standard tag construction: append unit tags as extra components ranked
    below the original block and cut to the tag-only elements.
    """
    zero = tuple(0 for _ in range(nvars))
    combined = [{**v, (k + i, zero): 1} for i, v in enumerate(vecs)]
    key = make_key(DEFAULT_ORDER, nvars, comp_rank=[1] * k + [0] * len(vecs))
    return [{(comp - k, e): v for (comp, e), v in g.items()}
            for g in _cut(combined, key, lambda m: m[0] >= k)]


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
        # member's default key and the _leads of _sat_cache under it
        self._read: tuple | None = None

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
    basis = _cut(lifts, key)
    if nvars == 0 or len(basis) <= 1:
        # a single lifted generator has no monomial content left to divide out
        return basis
    f: VPoly = {(0, tuple(1 for _ in range(nvars))): 1}
    while True:
        quo = _quotient_vpolys(basis, f, nvars, k)
        nxt = _cut(quo, key)
        if nxt == basis:
            return basis
        basis = nxt


def _quotient_vpolys(basis: list[VPoly], f: VPoly, nvars: int, k: int) -> list[VPoly]:
    """Generators of (M : f) for the module M spanned by basis; f a 1-term
    or general polynomial given at component 0 (interpreted as a scalar)."""
    scalar = {e: c for (_, e), c in f.items()}
    vecs = [{(j, e): c for e, c in scalar.items()} for j in range(k)] + basis
    projs = [{(comp, e): c for (comp, e), c in s.items() if comp < k}
             for s in syzygy_basis(vecs, k, nvars)]
    return [proj for proj in projs if proj]


def groebner_basis(mod: Submodule, order: TermOrder | None = None) -> list[LaurentVec]:
    """Canonical generating set: reduced basis of the saturated lift."""
    order = order or DEFAULT_ORDER
    if order.drop:
        raise ValueError("elimination orders belong to eliminate()")
    cached = mod._gb_cache.get(order)
    if cached is None:
        sat = mod.saturated_vpolys()
        key = make_key(order, mod.nvars)
        vp = sat if order == DEFAULT_ORDER else _cut(sat, key)
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
    if mod._read is None:
        key = make_key(DEFAULT_ORDER, mod.nvars)
        mod._read = key, _leads(sat, key)
    key, leads = mod._read
    return not top_reduce(strip_content(_lift(v)[0]), sat, key, leads)


def component_cut(vectors: list[LaurentVec], k: int) -> list[LaurentVec]:
    """Elements of the span of vectors that lie in their first k components.

    The reduced basis of the lifted vectors' cut to the first k components,
    under the default order with components k and above ranked over them;
    [] when no vector is nonzero.
    """
    lifts = [_lift(v)[0] for v in vectors if not v.is_zero()]
    if not lifts:
        return []
    nvars, big_k = vectors[0].nvars, vectors[0].k
    key = make_key(DEFAULT_ORDER, nvars, comp_rank=[0] * k + [1] * (big_k - k))
    # No saturation pass here: monomial scaling respects the component
    # blocks, so the Laurent span of the low cut is unchanged by it, and
    # the resulting submodule saturates itself on demand.
    return [vpoly_to_vec(_monic(g, key), nvars, k)
            for g in _cut(lifts, key, lambda m: m[0] < k)]


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    if a.nvars != b.nvars or a.k != b.k:
        raise ValueError("modules live in different ambient spaces")
    return a.saturated_vpolys() == b.saturated_vpolys()


def submodule_contains(a: Submodule, b: Submodule) -> bool:
    """Does a contain every generator of b."""
    return all(member(g, a) for g in b.generators)


def syzygies(vectors: list[LaurentVec], nvars: int, k: int) -> Submodule:
    """Relation module {r in A^c : sum r_i v_i = 0} of the given vectors.

    Generated by the reduced basis of the relations among the vectors'
    polynomial lifts, shifted back by each lift's unit monomial.
    """
    c = len(vectors)
    if c == 0:
        return Submodule(nvars, 1, [])
    for v in vectors:
        if v.k != k or v.nvars != nvars:
            raise ValueError("vector shape mismatch")
    zero = tuple(0 for _ in range(nvars))
    lifts = [({}, zero) if v.is_zero() else _lift(v) for v in vectors]
    syz = syzygy_basis([f for f, _ in lifts], k, nvars)
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
    fv = strip_content(_lift(LaurentVec.wrap(f))[0])
    sat = mod.saturated_vpolys()
    if not sat:
        return Submodule(mod.nvars, mod.k, [])
    quo = _quotient_vpolys(sat, fv, mod.nvars, mod.k)
    return Submodule(mod.nvars, mod.k,
                     [vpoly_to_vec(g, mod.nvars, mod.k) for g in quo])


def eliminate(mod: Submodule, drop) -> Submodule:
    """Intersect with the Laurent subring of the retained variables.

    Cuts the saturated lift to the elements free of the dropped variables,
    under a block order ranking those above everything, and re-expresses
    them over the retained variables.  The result is a Submodule over the
    smaller ring (its own canonicalization re-saturates by the retained
    variables); dropping every variable leaves the module's constant part.
    """
    drop = tuple(sorted(set(int(i) for i in drop)))
    if any(i < 0 or i >= mod.nvars for i in drop):
        raise ValueError("drop variable out of range")
    if not drop:
        return Submodule(mod.nvars, mod.k, list(mod.generators))
    keep = [i for i in range(mod.nvars) if i not in drop]
    key = make_key(TermOrder(drop=drop), mod.nvars)
    gb = _cut(mod.saturated_vpolys(), key, lambda m: all(m[1][i] == 0 for i in drop))
    gens = [vpoly_to_vec({(comp, tuple(e[i] for i in keep)): c
                          for (comp, e), c in _monic(g, key).items()}, len(keep), mod.k)
            for g in gb]
    return Submodule(len(keep), mod.k, gens)


def is_groebner_basis(vecs: list[LaurentVec], nvars: int, order: TermOrder | None = None) -> bool:
    """Buchberger criterion: every S-pair reduces to zero (test hook)."""
    order = order or DEFAULT_ORDER
    key = make_key(order, nvars)
    vps = [strip_content(vec_to_vpoly(v)) for v in vecs if not v.is_zero()]
    leads = [_leading(g, key) for g in vps]
    for j in range(len(vps)):
        for i in range(j):
            if leads[i][0][0] != leads[j][0][0]:
                continue
            if normal_form(_spoly(vps[i], leads[i], vps[j], leads[j]), vps, key):
                return False
    return True
