"""Groebner engine for submodules of A^k, A the rational Laurent ring.

A submodule given by Laurent generators is handled through its polynomial
lift: each generator is shifted by a unit monomial into the polynomial ring,
and the lifted module is saturated by the product of the variables.  The
reduced Groebner basis of that saturation is the canonical form; membership,
equality, syzygies, quotients and elimination all run against it.

Internally a vector polynomial is a dict {monomial: int}, a monomial being
one int that packs its component and exponent under a term order (make_key).
A vector enters the engine once (_lift, and syzygy_basis's tags), through
linalg.strip_content, which scales it by a positive rational to primitive
integer coefficients.  A LaurentVec enters as its lift, shifted so that each
variable's least exponent is 0, which gives the package one exponent bound:
a variable's exponents in a vector span less than 2*Packing.limit.  S-pairs
and reduction are fraction-free: they only multiply by positive integers, so
each result is a positive multiple of the one rational arithmetic gives, and
an int gcd makes it primitive.  A reduced basis holds primitive elements with
a positive leading coefficient; it becomes monic only where it leaves the
engine, once, in vpoly_to_vec.

Every Groebner run goes through _cut, which returns a reduced basis: of the
whole span, or of its part below a bound (an elimination).  So every result,
syzygies included, depends on the inputs alone and not on the order in which
Buchberger meets them.  Contraction's chain of prime-index cuts,
prime_step_cuts, runs here too: it starts from eliminate's packed cut when
there is one, else from the generators' lifts, keeps its generators packed
from one step to the next, and returns a Submodule that keeps the last cut's
packed lifts beside its monic generators.  A last cut with no monomial factor
in any element is the reduced basis of its span: saturation starts from it
with no first Buchberger run, and when saturation keeps it, the generators
are the canonical basis.  No vector the engine made is packed or unpacked again.

Packed ints compare like the term order, so a leading monomial is max(f) and
the reducer's heap holds negated monomials, largest first.  Packing is affine
in the exponent, so a monomial times x^s is an int sum, and one masked
subtraction tells whether a leading monomial divides a term.  Reducers are
looked up by the term's component, through a _lead_index of the basis that
Buchberger keeps up to date and a Submodule keeps beside its saturated basis,
for member and for leading_exponents, the table analysis reads rank and
dimension from.  Buchberger drops redundant pairs by the Gebauer-Moeller
criteria and meets the rest by least sugar degree, the normal strategy made
robust to non-homogeneous input, with the smallest lcm first among equal
sugars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import le, mul, sub

from .intlat import as_count, as_int
from .laurent import Exp, LaurentPoly, LaurentVec
from .linalg import strip_content

VPoly = dict[int, int]

FIELD_BITS = 64
_OFF = 1 << FIELD_BITS - 2  # a field holding v stores v + _OFF
_MASK = (1 << FIELD_BITS) - 1
_TOP = 1 << FIELD_BITS - 1  # a field's guard bit


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


class Packing:
    """Module monomials (component, exponent) packed into ints; see make_key.

    A field is a linear form in the exponent, a list of (variable, sign)
    pairs, or "rank" or "comp".  Its value v sits in FIELD_BITS bits as
    v + 2^(FIELD_BITS-2), in [0, 2^(FIELD_BITS-1)), so the top (guard) bit
    of every field of an in-range monomial is clear.
    """

    def __init__(self, order: TermOrder, nvars: int, comp_rank=None):
        drop = tuple(sorted(set(order.drop)))
        if any(i < 0 or i >= nvars for i in drop):
            raise ValueError("drop variable out of range")
        keep = tuple(i for i in range(nvars) if i not in drop)

        def block(sel):
            if not sel:
                return []
            if order.kind == "lex":
                return [[(i, 1)] for i in sel]
            return [[(i, 1) for i in sel]] + [[(i, -1)] for i in reversed(sel)]

        forms = block(drop) + ["rank", "comp"] + block(keep)
        shifts = [FIELD_BITS * f for f in range(len(forms) - 1, -1, -1)]
        self.nvars = nvars
        self.rank = None if comp_rank is None else tuple(comp_rank)
        self.comp_shift = shifts[forms.index("comp")]
        self.rank_shift = shifts[forms.index("rank")]
        self.top_shift = shifts[0]
        self.offsets = sum(_OFF << s for s in shifts)
        self.guard = sum(_TOP << s for s in shifts)
        self.weights = [0] * nvars
        # each exponent is read off its own one-variable field, and the total
        # degree is the sum of the fields of positive forms
        self.reads: list = [None] * nvars
        self.degree_shifts = []
        falling = 0
        for form, s in zip(forms, shifts):
            if isinstance(form, str):
                continue
            for i, sign in form:
                self.weights[i] += sign << s
            if len(form) == 1:
                self.reads[form[0][0]] = (s, form[0][1])
            if form[0][1] > 0:
                self.degree_shifts.append(s)
            else:
                falling += 1 << s
        # a | b iff b - a + bias has the guard bits of divided: the fields of
        # negated exponents must not grow from a to b, the others not shrink
        self.bias = self.guard - falling
        self.divided = self.guard - falling * _TOP
        # lifted exponents, each variable's span below 2*limit, keep every
        # field, sums included, in range
        self.limit = _OFF // (2 * max(nvars, 1))

    def base(self, comp: int) -> int:
        """The packed monomial of comp with the zero exponent."""
        rank = self.rank[comp] if self.rank is not None else 0
        return self.offsets + (rank << self.rank_shift) - (comp << self.comp_shift)

    def pack(self, comp: int, exp: Exp) -> int:
        return self.base(comp) + sum(map(mul, exp, self.weights))

    def unpack(self, m: int) -> tuple[int, Exp]:
        return (self.comp(m),
                tuple([sign * ((m >> s & _MASK) - _OFF) for s, sign in self.reads]))

    def max_degree(self, g: VPoly) -> int:
        """The largest total degree of g's monomials."""
        shifts = self.degree_shifts
        return max(sum([m >> s & _MASK for s in shifts]) for m in g) - _OFF * len(shifts)

    def comp(self, m: int) -> int:
        return _OFF - (m >> self.comp_shift & _MASK)

    def divides(self, a: int, b: int) -> bool:
        """Does monomial a divide b (same component, exponents <=)."""
        return (a ^ b) >> self.comp_shift & _MASK == 0 and \
            (b - a + self.bias) & self.guard == self.divided

    def top_floor(self, v: int) -> int:
        """The least packed monomial whose most significant field holds v."""
        return (v + _OFF) << self.top_shift

    def check(self, g: VPoly) -> None:
        """A ValueError when a monomial of g has a field out of range."""
        if any(map(self.guard.__and__, g)):
            raise ValueError(f"exponent outside the packed range ({FIELD_BITS}-bit fields)")


def make_key(order: TermOrder, nvars: int, comp_rank=None) -> Packing:
    """The packing of module monomials (component, exponent) under order.

    A monomial packs into one int made of the flat sort key's fields, most
    significant first: the dropped block's term key, the component's rank,
    the negated component, then the kept block's term key (grevlex: total
    degree, then the negated exponents from the last variable; lex: the
    exponents).  Each field holds its value offset into [0, 2^(B-1)), B =
    FIELD_BITS, so packed ints order like the term order and max is the
    leading monomial.  Packing is affine in the exponent: a monomial times
    x^s is m + (pack(c, s) - pack(c, 0)), and a shift by a packed
    difference is one addition.  Packings are shared: one per order, nvars
    and component ranking.
    """
    return _packing(order, nvars, None if comp_rank is None else tuple(comp_rank))


_packing = lru_cache(maxsize=256)(Packing)


# ---------------------------------------------------------------------------
# raw engine on vector polynomials


def _pack_entries(v: LaurentVec, key: Packing, low: Exp) -> VPoly:
    """v packed under key, each exponent less low (no shift when low is ())."""
    weights = key.weights
    shift = sum(map(mul, low, weights))
    out: VPoly = {}
    for j, p in enumerate(v.entries):
        b = key.base(j) - shift
        for e, c in p.terms.items():
            out[b + sum(map(mul, e, weights))] = c
    return out


def _lift(v: LaurentVec, key: Packing, raw: bool = False) -> tuple[VPoly, Exp]:
    """Shift a nonzero vector into the polynomial ring so every exponent is
    >= 0 and each variable touches 0; returns the lift, packed under key and
    primitive unless raw is set, and the subtracted exponent.  A ValueError
    when a variable's exponents span 2*key.limit or more."""
    pts = v.support()
    if not pts:
        raise ValueError("zero vector has no polynomial lift")
    cols = list(zip(*pts))
    low = tuple(map(min, cols))
    if cols and max(map(sub, map(max, cols), low)) >= 2 * key.limit:
        raise ValueError(f"exponents outside the packed range: a variable's exponents "
                         f"span 2^{FIELD_BITS - 2}/{v.nvars} or more")
    lift = _pack_entries(v, key, low)
    return (lift if raw else strip_content(lift)), low


def _lowered(g: VPoly, key: Packing) -> VPoly:
    """g shifted so that each variable's least exponent is 0: its lift."""
    low = [min(sign * ((m >> s & _MASK) - _OFF) for m in g) for s, sign in key.reads]
    shift = sum(map(mul, low, key.weights))
    return {m - shift: c for m, c in g.items()}


def vpoly_to_vec(f: VPoly, key: Packing, k: int, monic: bool = True) -> LaurentVec:
    """f unpacked over the rationals, divided by its leading coefficient
    unless monic is False: the one way out of the engine."""
    lc = f[max(f)] if monic and f else 1
    polys: list[dict[Exp, Fraction]] = [dict() for _ in range(k)]
    for m, c in f.items():
        j, e = key.unpack(m)
        polys[j][e] = Fraction(c, lc)
    return LaurentVec([LaurentPoly._of(key.nvars, t) for t in polys])


def _repack(fs: list[VPoly], src: Packing, dst: Packing) -> list[VPoly]:
    return [{dst.pack(*src.unpack(m)): c for m, c in f.items()} for f in fs]


def _primitive(f: VPoly) -> VPoly:
    """An int vector over its content, so primitive; zero values must be gone."""
    content = gcd(*f.values())
    return f if content <= 1 else {m: c // content for m, c in f.items()}


def _leading(f: VPoly):
    m = max(f)
    return m, f[m]


def _lcm(a: Exp, b: Exp) -> Exp:
    return tuple(map(max, a, b))


def _lead_index(led, key: Packing) -> dict[int, list]:
    """Reducers by component field from ((leading monomial, coefficient),
    element) pairs: lists of (lead - key.bias, lead coefficient, element) in
    the given order."""
    index: dict[int, list] = {}
    cs, bias = key.comp_shift, key.bias
    for (lead, lc), g in led:
        index.setdefault(lead >> cs & _MASK, []).append((lead - bias, lc, g))
    return index


def _reduce(f: VPoly, key: Packing, index: dict[int, list], full: bool) -> VPoly:
    """Reduce f against the basis whose _lead_index under key is index.

    The terms still to treat sit in a heap of negated monomials, largest
    first; a cancelled term leaves a stale heap entry that is skipped.  Each
    term is reduced by the first element, in basis order, whose leading
    monomial divides it.  With full set, irreducible terms move to the
    remainder and reduction goes on; otherwise the loop stops at the first one
    and returns the work dict.  Fraction-free: to cancel c*m with a reducer of
    leading coefficient l, the work and the remainder so far are multiplied by
    |l|/gcd(l, c), so the result is a positive multiple of the rational one.
    """
    cs, bias, guard, divided = key.comp_shift, key.bias, key.guard, key.divided
    work = dict(f)
    heap = [-m for m in work]
    heapify(heap)
    remainder: VPoly = {}
    while heap:
        mon = -heappop(heap)
        coef = work.pop(mon, 0)
        if not coef:
            continue
        for low, lc, g in index.get(mon >> cs & _MASK, ()):
            if (mon - low) & guard == divided:
                break
        else:
            if not full:
                work[mon] = coef
                return work
            remainder[mon] = coef
            continue
        lead = low + bias
        shift = mon - lead
        d = gcd(lc, coef)
        scale = abs(lc) // d
        factor = coef // d if lc > 0 else -coef // d
        if scale != 1:
            for m2 in work:
                work[m2] *= scale
            for m2 in remainder:
                remainder[m2] *= scale
        for m2, c2 in g.items():
            if m2 == lead:
                continue
            tgt = m2 + shift
            nv = work.get(tgt)
            if nv is None:
                work[tgt] = -factor * c2
                heappush(heap, -tgt)
                continue
            nv -= factor * c2
            if nv:
                work[tgt] = nv
            else:
                del work[tgt]
    return remainder


def normal_form(f: VPoly, key: Packing, index: dict[int, list]) -> VPoly:
    """Fully reduce f against the basis whose _lead_index is index."""
    return _reduce(f, key, index, True)


def top_reduce(f: VPoly, key: Packing, index: dict[int, list]) -> VPoly:
    """Cancel leading terms only, stopping at the first irreducible lead.

    Decides membership (zero remainder) exactly like full reduction while
    skipping all tail work; the returned tail is not normalized.
    """
    return _reduce(f, key, index, False)


def _spoly(f: VPoly, lead_f, g: VPoly, lead_g, lcm: int, key: Packing) -> VPoly:
    """S-vector of f and g, given their leading terms and the packed lcm of
    their leading monomials."""
    lf, lcf = lead_f
    lg, lcg = lead_g
    if not (key.divides(lf, lcm) and key.divides(lg, lcm)):
        raise InvariantError("S-pair lcm is not a common multiple of the leading monomials")
    sf = lcm - lf
    sg = lcm - lg
    # a positive multiple of f/lcf*x^sf - g/lcg*x^sg
    d = gcd(lcf, lcg)
    mf = abs(lcg) // d if lcf > 0 else -abs(lcg) // d
    mg = abs(lcf) // d if lcg > 0 else -abs(lcf) // d
    out: VPoly = {m + sf: v * mf for m, v in f.items()}
    for m, v in g.items():
        tgt = m + sg
        nv = out.get(tgt, 0) - v * mg
        if nv:
            out[tgt] = nv
        else:
            out.pop(tgt, None)
    return out


def buchberger(gens: list[VPoly], key: Packing) -> list[VPoly]:
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
    The criteria read each element's lead unpacked, kept as it joins, and
    every element that joins is made primitive (inputs must have int
    coefficients) and checked to have all its fields in range.

    Pairs are met by least sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", ISSAC 1991), in its simplified form
    and only as a selection heuristic: the answer does not depend on the
    order pairs are met.  An input's sugar is the largest total degree of
    its terms, a remainder takes the sugar of its pair (the degree its
    reduction steps add is not carried forward), and
    pair (i, j) with lcm L has sugar max(s_i + |L| - |lead_i|,
    s_j + |L| - |lead_j|), |.| the total degree; each element keeps
    s - |lead| so that a pair sums only its lcm.  Ties go to the smaller
    packed lcm, then to the earlier pair, so the raw output is reproducible
    run to run.
    """
    basis: list[VPoly] = []
    leads: list = []
    # each element's lead as (component, exponent)
    lexps: list[tuple[int, Exp]] = []
    # each element's sugar less the total degree of its leading exponent
    ecarts: list[int] = []
    index: dict[int, list] = {}
    queued: dict[int, dict[tuple[int, int], Exp]] = {}
    heap: list = []
    seq = 0
    cs, bias = key.comp_shift, key.bias

    def join(g, sugar):
        nonlocal seq
        key.check(g)
        lead = _leading(g)
        comp, exp = key.unpack(lead[0])
        new = len(basis)
        ecart = sugar - sum(exp)
        lcms: dict[Exp, int] = {}
        for t, (c, e) in enumerate(lexps):
            if c == comp:
                lcms.setdefault(_lcm(e, exp), t)
        live = queued.setdefault(comp, {})
        for (i, j), lcm in list(live.items()):
            if all(map(le, exp, lcm)) and lcm != _lcm(lexps[i][1], exp) \
                    and lcm != _lcm(lexps[j][1], exp):
                del live[i, j]
        for lcm, t in lcms.items():
            if not any(o != lcm and all(map(le, o, lcm)) for o in lcms):
                live[t, new] = lcm
                et = ecarts[t]
                heappush(heap, (sum(lcm) + (et if et > ecart else ecart),
                                key.pack(comp, lcm), seq, t, new))
                seq += 1
        basis.append(g)
        leads.append(lead)
        lexps.append((comp, exp))
        ecarts.append(ecart)
        index.setdefault(lead[0] >> cs & _MASK, []).append((lead[0] - bias, lead[1], g))

    for g in gens:
        if g:
            join(_primitive(g), key.max_degree(g))
    while heap:
        sugar, lcm, _, i, j = heappop(heap)
        if queued[lexps[i][0]].pop((i, j), None) is None:
            continue
        s = _spoly(basis[i], leads[i], basis[j], leads[j], lcm, key)
        r = _primitive(normal_form(s, key, index))
        if r:
            join(r, sugar)
    return basis


def reduced_basis(basis: list[VPoly], key: Packing) -> list[VPoly]:
    """Unique reduced basis: minimal, interreduced, sorted by LM, each
    element primitive with a positive leading coefficient."""
    items = sorted(((_leading(g), g) for g in basis if g), key=lambda it: it[0][0])
    kept: list = []
    for lead, g in items:
        if not any(key.divides(l, lead[0]) for (l, _), _ in kept):
            kept.append((lead, g))
    # one pass suffices: in a minimal basis reduction keeps every leading
    # monomial, and a normal form depends only on the others' leading monomials
    for i, ((lm, _), g) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if others:
            g = normal_form(g, key, _lead_index(others, key))
            key.check(g)
        g = _primitive(g)
        if g[lm] < 0:
            g = {m: -c for m, c in g.items()}
        kept[i] = ((lm, g[lm]), g)
    return [g for _, g in kept]


def _cut(vpolys: list[VPoly], key: Packing, bound=None) -> list[VPoly]:
    """Reduced basis of the span's elements whose monomials all pack below
    bound.

    Runs Buchberger under key and reduces only the elements below the bound
    (all of them when bound is None).  When key ranks everything at or above
    the bound over everything below it, those elements are a Groebner basis
    of the span's intersection with the low block, so this is that
    intersection's unique reduced basis.
    """
    gb = buchberger(vpolys, key)
    if bound is not None:
        gb = [g for g in gb if max(g) < bound]
    return reduced_basis(gb, key)


def syzygy_basis(vecs: list[VPoly], k: int, nvars: int) -> list[VPoly]:
    """Reduced basis of {r in A^c : sum r_i vecs_i = 0} for polynomial vecs.

    Standard tag construction: append unit tags as extra components ranked
    below the original block and cut to the tag-only elements.  The vectors
    and the relations are packed under the default order's key; vecs may be
    rational, so the tagged vectors enter through strip_content.
    """
    base = make_key(DEFAULT_ORDER, nvars)
    key = make_key(DEFAULT_ORDER, nvars, comp_rank=[1] * k + [0] * len(vecs))
    # the two keys differ in the rank field alone: 1 below k, 0 for the tags
    up = key.base(0) - base.base(0)
    combined = [strip_content({**{m + up: c for m, c in v.items()}, key.base(k + i): 1})
                for i, v in enumerate(vecs)]
    down = base.base(0) - key.base(k)
    return [{m + down: c for m, c in g.items()}
            for g in _cut(combined, key, key.top_floor(1))]


# ---------------------------------------------------------------------------
# Laurent-level submodules


DEFAULT_ORDER = TermOrder()


class Submodule:
    """Finitely generated A-submodule of A^k with cached canonical bases."""

    def __init__(self, nvars: int, k: int, generators):
        nvars = as_count(nvars, "variable count")
        k = as_int(k, "ambient rank")
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
        # the generators' packed lifts, when the engine made the generators
        self._lifts: list[VPoly] | None = None
        # set when those lifts are their span's reduced basis, in generator order
        self._reduced = False
        self._sat_cache: list[VPoly] | None = None
        # _read_index: the default key and the _lead_index of _sat_cache under it
        self._read: tuple | None = None

    def __repr__(self):
        return f"Submodule(nvars={self.nvars}, k={self.k}, ngens={len(self.generators)})"

    def is_zero_module(self) -> bool:
        return not self.saturated_vpolys()

    def saturated_vpolys(self) -> list[VPoly]:
        """Reduced default-order basis of the saturated polynomial lift."""
        if self._sat_cache is None:
            key = make_key(DEFAULT_ORDER, self.nvars)
            lifts = self._lifts or [_lift(g, key)[0] for g in self.generators]
            self._sat_cache = _saturate(lifts if self._reduced else _cut(lifts, key),
                                        self.nvars, self.k)
        return self._sat_cache


def _saturate(basis: list[VPoly], nvars: int, k: int) -> list[VPoly]:
    """Saturate a reduced default-order basis; basis itself if nothing changes."""
    key = make_key(DEFAULT_ORDER, nvars)
    # a single lifted generator has no monomial content left to divide out,
    # and unit vectors span a sum of whole components
    if nvars == 0 or len(basis) <= 1 or all(
            len(g) == 1 and min(g) == key.base(key.comp(min(g))) for g in basis):
        return basis
    f: VPoly = {key.pack(0, (1,) * nvars): 1}
    while True:
        quo = _quotient_vpolys(basis, f, nvars, k)
        nxt = _cut(quo, key)
        if nxt == basis:
            return basis
        basis = nxt


def _quotient_vpolys(basis: list[VPoly], f: VPoly, nvars: int, k: int) -> list[VPoly]:
    """Generators of (M : f) for the module M spanned by basis; f a 1-term
    or general polynomial given at component 0 (interpreted as a scalar)."""
    key = make_key(DEFAULT_ORDER, nvars)
    vecs = [{m + key.base(j) - key.base(0): c for m, c in f.items()} for j in range(k)] + basis
    projs = [{m: c for m, c in s.items() if key.comp(m) < k}
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
        if order != DEFAULT_ORDER:
            sat = _cut(_repack(sat, make_key(DEFAULT_ORDER, mod.nvars), key), key)
        # lifts that saturation kept are the generators, already unpacked
        cached = mod.generators if sat is mod._lifts else tuple(
            vpoly_to_vec(g, key, mod.k) for g in sat)
        mod._gb_cache[order] = cached
    return list(cached)


def member(v: LaurentVec, mod: Submodule) -> bool:
    """Exact membership of a Laurent vector via the saturated lift."""
    if v.k != mod.k or v.nvars != mod.nvars:
        raise ValueError("vector shape mismatch")
    if v.is_zero():
        return True
    key, index = _read_index(mod)
    return not top_reduce(_lift(v, key)[0], key, index)


def _read_index(mod: Submodule) -> tuple:
    """The default key and the _lead_index of the saturated lift under it, cached."""
    if mod._read is None:
        key = make_key(DEFAULT_ORDER, mod.nvars)
        mod._read = key, _lead_index(((_leading(g), g) for g in mod.saturated_vpolys()), key)
    return mod._read


def leading_exponents(mod: Submodule) -> dict[int, list[Exp]]:
    """Leading exponents of the canonical basis, by leading component."""
    key, index = _read_index(mod)
    out: dict[int, list[Exp]] = {}
    for row in index.values():
        for low, _, _ in row:
            comp, exp = key.unpack(low + key.bias)
            out.setdefault(comp, []).append(exp)
    return out


def prime_step_cuts(mod: Submodule, steps) -> Submodule:
    """Contract mod by a nonempty chain of prime steps.

    A step (i, p) passes to the subring with t_i^p for t_i, over which A^k
    is free on p blocks of k components, one per residue of e_i mod p.  The
    p shifts g*x_i^o of each generator g are written in those blocks through
    divmod(e_i + o, p), each lifted by its own least exponent, and cut to the
    first block under the default order with the other p*k - k components
    ranked over it.  The chain starts from mod's packed lifts when the engine
    made its generators (eliminate's cut), else from its generators' lifts,
    and stays packed from step to step.  Each block is lowered by its own
    least exponent, so the blocks of x^a*g are those of g in another order,
    and lifting a generator changes no cut.  It returns a Submodule whose
    generators are the last cut, monic, and whose lifts, which saturation
    starts from, are the cut shifted so each variable's least exponent is 0.
    When that shift moves no element, the lifts are the cut, the reduced
    basis of their span under the default key too: saturation runs no first
    cut, and groebner_basis returns the generators if saturation keeps them.

    No saturation pass between steps: monomial scaling respects the component
    blocks, so the Laurent span of each low cut is unchanged by it, and the
    resulting submodule saturates itself on demand.
    """
    nvars, k = mod.nvars, mod.k
    key = make_key(DEFAULT_ORDER, nvars)
    gens = mod._lifts or [_lift(v, key)[0] for v in mod.generators]
    for i, p in steps:
        if not gens:
            break
        step = make_key(DEFAULT_ORDER, nvars, comp_rank=[0] * k + [1] * (p * k - k))
        blocks = []
        for g in gens:
            terms = [(*key.unpack(m), c) for m, c in g.items()]
            for o in range(p):
                block = [(rem * k + j, e[:i] + (quo,) + e[i + 1:], c)
                         for j, e, c in terms for quo, rem in [divmod(e[i] + o, p)]]
                low = tuple(map(min, zip(*(e for _, e, _ in block))))
                blocks.append({step.pack(j, tuple(map(sub, e, low))): c for j, e, c in block})
        key = step
        gens = _cut(blocks, key, key.top_floor(1))
    out = Submodule(nvars, k, [vpoly_to_vec(g, key, k) for g in gens])
    # the cut lies in rank-0 components, which pack as under the default key
    out._lifts = [_lowered(g, key) for g in gens]
    out._reduced = out._lifts == gens
    return out


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
    key = make_key(DEFAULT_ORDER, nvars)
    zero = tuple(0 for _ in range(nvars))
    # relations among the vectors themselves, so among their unscaled lifts
    lifts = [({}, zero) if v.is_zero() else _lift(v, key, raw=True) for v in vectors]
    syz = syzygy_basis([f for f, _ in lifts], k, nvars)
    gens = []
    for s in syz:
        vec = vpoly_to_vec(s, key, c, monic=False)
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
    key = make_key(DEFAULT_ORDER, mod.nvars)
    fv = _lift(LaurentVec.wrap(f), key)[0]
    sat = mod.saturated_vpolys()
    if not sat:
        return Submodule(mod.nvars, mod.k, [])
    quo = _quotient_vpolys(sat, fv, mod.nvars, mod.k)
    return Submodule(mod.nvars, mod.k, [vpoly_to_vec(g, key, mod.k, monic=False) for g in quo])


def eliminate(mod: Submodule, drop) -> Submodule:
    """Intersect with the Laurent subring of the retained variables.

    Cuts the saturated lift to the elements free of the dropped variables,
    under a block order ranking those above everything, and re-expresses
    them over the retained variables.  The cut is the result's canonical
    basis, cached on it: the drop-free part of a saturated module is
    saturated, and on drop-free monomials the block order ranks like the
    default order.  Dropping every variable leaves the module's constant
    part, and dropping none returns mod itself.
    """
    drop = tuple(sorted({as_int(i, "drop variable") for i in drop}))
    if any(i < 0 or i >= mod.nvars for i in drop):
        raise ValueError("drop variable out of range")
    if not drop:
        return mod
    keep = [i for i in range(mod.nvars) if i not in drop]
    key = make_key(TermOrder(drop=drop), mod.nvars)
    # lifted exponents are >= 0, so a zero dropped degree means no dropped variable
    gb = _cut(_repack(mod.saturated_vpolys(), make_key(DEFAULT_ORDER, mod.nvars), key),
              key, key.top_floor(1))
    out_key = make_key(DEFAULT_ORDER, len(keep))
    sat = []
    for g in gb:
        terms = ((key.unpack(m), c) for m, c in g.items())
        sat.append({out_key.pack(comp, tuple(e[i] for i in keep)): c for (comp, e), c in terms})
    out = Submodule(len(keep), mod.k, [vpoly_to_vec(g, out_key, mod.k) for g in sat])
    # each element of a saturated basis is a lift: no variable divides it
    out._lifts = out._sat_cache = sat
    return out


def is_groebner_basis(vecs: list[LaurentVec], nvars: int, order: TermOrder | None = None) -> bool:
    """Buchberger criterion: every S-pair reduces to zero (test hook)."""
    order = order or DEFAULT_ORDER
    key = make_key(order, nvars)
    # packed as given: a raw Buchberger output need not be a lift
    vps = [strip_content(_pack_entries(v, key, ())) for v in vecs if not v.is_zero()]
    leads = [_leading(g) for g in vps]
    index = _lead_index(zip(leads, vps), key)
    lexps = [key.unpack(lead) for lead, _ in leads]
    for j in range(len(vps)):
        for i in range(j):
            if lexps[i][0] != lexps[j][0]:
                continue
            lcm = key.pack(lexps[i][0], _lcm(lexps[i][1], lexps[j][1]))
            if normal_form(_spoly(vps[i], leads[i], vps[j], leads[j], lcm, key), key, index):
                return False
    return True
