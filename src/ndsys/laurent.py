"""Exact Laurent polynomials and vectors over Q.

Terms are stored sparsely as {exponent tuple: Fraction}; exponents may be
negative.  The text syntax uses variables s1..sn, '^' with possibly negative
integer exponents, '*', '+', '-' and rational coefficients like 3/2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import add, sub

from .intlat import IntMatrix, as_count, as_int

Exp = tuple[int, ...]


def exp_add(a: Exp, b: Exp) -> Exp:
    return tuple(map(add, a, b))


def exp_sub(a: Exp, b: Exp) -> Exp:
    return tuple(map(sub, a, b))


class LaurentPoly:
    """Sparse Laurent polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exp, Fraction] | None = None):
        self.nvars = nvars = as_count(nvars, "variable count")
        self.terms: dict[Exp, Fraction] = {}
        if terms:
            if not {int}.issuperset(map(type, chain.from_iterable(terms))):
                terms = {tuple(as_int(x, "exponent") for x in e): c for e, c in terms.items()}
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent length mismatch")
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exp, Fraction]) -> "LaurentPoly":
        """Wrap terms that are already valid: exponents of length nvars and
        nonzero Fraction coefficients.  Arithmetic results come through here."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @staticmethod
    def constant(nvars: int, c) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple(0 for _ in range(nvars)): Fraction(c)})

    @staticmethod
    def monomial(nvars: int, exp: Exp, c=1) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple(exp): Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int, power: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[i] = power
        return LaurentPoly(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return LaurentPoly._of(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[Exp, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                if e in out:
                    c += out[e]
                    if not c:
                        del out[e]
                        continue
                out[e] = c
        return LaurentPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly(self.nvars)
        return LaurentPoly._of(self.nvars, {e: c * v for e, v in self.terms.items()})

    def shift(self, exp: Exp) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent."""
        if len(exp) != self.nvars:
            raise ValueError("exponent length mismatch")
        if not {int}.issuperset(map(type, exp)):
            exp = tuple(as_int(x, "exponent") for x in exp)
        return LaurentPoly._of(self.nvars, {exp_add(e, exp): c for e, c in self.terms.items()})

    def support(self) -> set[Exp]:
        return set(self.terms)

    def substitute_exponents(self, mapper, nvars_out: int) -> "LaurentPoly":
        """Apply an injective map on exponent vectors (used by monomial maps)."""
        out: dict[Exp, Fraction] = {}
        for e, c in self.terms.items():
            ne = tuple(mapper(e))
            if ne in out:
                raise ValueError("exponent map is not injective on the support")
            out[ne] = c
        return LaurentPoly(nvars_out, out)

    def __str__(self) -> str:
        return poly_to_str(self)

    __repr__ = __str__


class LaurentVec:
    """Element of the free module A^k over the Laurent ring."""

    __slots__ = ("nvars", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("vector needs at least one entry")
        nv = entries[0].nvars
        for p in entries:
            if p.nvars != nv:
                raise ValueError("mixed variable counts")
        self.nvars = nv
        self.entries = entries

    @property
    def k(self) -> int:
        return len(self.entries)

    @staticmethod
    def unit(nvars: int, k: int, j: int) -> "LaurentVec":
        return LaurentVec([LaurentPoly.constant(nvars, 1) if i == j else LaurentPoly(nvars)
                           for i in range(k)])

    @staticmethod
    def wrap(p: LaurentPoly) -> "LaurentVec":
        return LaurentVec([p])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentVec) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "LaurentVec") -> "LaurentVec":
        return LaurentVec([a + b for a, b in zip(self.entries, other.entries, strict=True)])

    def __sub__(self, other: "LaurentVec") -> "LaurentVec":
        return LaurentVec([a - b for a, b in zip(self.entries, other.entries, strict=True)])

    def __neg__(self) -> "LaurentVec":
        return LaurentVec([-a for a in self.entries])

    def scale_poly(self, p: LaurentPoly) -> "LaurentVec":
        return LaurentVec([p * a for a in self.entries])

    def scale(self, c) -> "LaurentVec":
        return LaurentVec([a.scale(c) for a in self.entries])

    def shift(self, exp: Exp) -> "LaurentVec":
        return LaurentVec([a.shift(exp) for a in self.entries])

    def support(self) -> set[Exp]:
        """Union of the entry supports, as plain lattice points."""
        pts: set[Exp] = set()
        for p in self.entries:
            pts |= p.support()
        return pts

    def dot(self, other: "LaurentVec") -> LaurentPoly:
        out = LaurentPoly(self.nvars)
        for a, b in zip(self.entries, other.entries, strict=True):
            out = out + a * b
        return out

    def __str__(self) -> str:
        return vector_to_str(self)

    __repr__ = __str__


def apply_monomial_map(w: IntMatrix, obj):
    """Relabel exponents by x -> W x on a poly or vector (entrywise); the
    result has W.nrows variables."""
    if isinstance(obj, LaurentVec):
        return LaurentVec([p.substitute_exponents(w.apply, w.nrows) for p in obj.entries])
    return obj.substitute_exponents(w.apply, w.nrows)


def coset_split(v: LaurentVec, lat) -> dict[Exp, LaurentVec]:
    """Split a vector's terms by the coset of the lattice their exponent lies in.

    Keys are canonical coset representatives; the values sum back to v.
    """
    if lat.ambient != v.nvars:
        raise ValueError("lattice ambient dimension mismatch")
    parts: dict[Exp, list[dict[Exp, Fraction]]] = {}
    for j, p in enumerate(v.entries):
        for e, c in p.terms.items():
            rep = lat.reduce(e)[1]
            slot = parts.get(rep)
            if slot is None:
                slot = parts[rep] = [{} for _ in range(v.k)]
            slot[j][e] = c
    return {
        rep: LaurentVec([LaurentPoly._of(v.nvars, t) for t in slot])
        for rep, slot in sorted(parts.items())
    }


# ---------------------------------------------------------------------------
# Text syntax


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-zA-Z]\w*|\^|\*|\+|-)")
_VAR = re.compile(r"^s(\d+)$")


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, nvars: int) -> LaurentPoly:
    """Parse the s1..sn syntax into an exact Laurent polynomial."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"bad character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise PolyParseError("empty polynomial")

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        if idx >= len(tokens):
            raise PolyParseError("unexpected end of polynomial")
        t = tokens[idx]
        idx += 1
        return t

    def parse_factor(sign: int) -> LaurentPoly:
        t = take()
        if t == "-":
            return parse_factor(-sign)
        if t == "+":
            return parse_factor(sign)
        m = _VAR.match(t)
        if m:
            i = int(m.group(1))
            if not (1 <= i <= nvars):
                raise PolyParseError(f"variable {t} out of range for {nvars} variable(s)")
            power = 1
            if peek() == "^":
                take()
                e = take()
                neg = 1
                if e == "-":
                    neg = -1
                    e = take()
                if e is None or not e.isdigit():
                    raise PolyParseError("expected integer exponent after ^")
                power = neg * int(e)
            return LaurentPoly.variable(nvars, i - 1, power).scale(sign)
        if re.fullmatch(r"\d+(/\d+)?", t):
            try:
                return LaurentPoly.constant(nvars, Fraction(t) * sign)
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator in {t!r}") from None
        raise PolyParseError(f"unexpected token {t!r}")

    def parse_term(sign: int) -> LaurentPoly:
        p = parse_factor(sign)
        while peek() == "*":
            take()
            p = p * parse_factor(1)
        return p

    result = LaurentPoly(nvars)
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    result = result + parse_term(sign)
    while peek() is not None:
        op = take()
        if op == "+":
            result = result + parse_term(1)
        elif op == "-":
            result = result + parse_term(-1)
        else:
            raise PolyParseError(f"unexpected token {op!r}")
    return result


def parse_vector(text: str, nvars: int, k: int) -> LaurentVec:
    """Parse '[p1, p2, ...]' (or a bare polynomial when k == 1)."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise PolyParseError("unterminated vector")
        parts = [p.strip() for p in text[1:-1].split(",")]
        if "" in parts:
            raise PolyParseError(f"empty entry in vector {text!r}")
    else:
        parts = [text]
    if len(parts) != k:
        raise PolyParseError(f"expected {k} entries, got {len(parts)}")
    return LaurentVec([parse_poly(p, nvars) for p in parts])


def _term_sort_key(poly: LaurentPoly):
    """Graded-lex on exponents shifted to be nonnegative, descending."""
    pts = poly.support()
    mins = tuple(min(p[i] for p in pts) for i in range(poly.nvars)) if pts else ()

    def key(e: Exp):
        shifted = exp_sub(e, mins)
        return (sum(shifted), shifted)

    return key


def poly_to_str(poly: LaurentPoly, prefix: str = "s") -> str:
    """Canonical rendering; parse_poly round-trips it bit exactly."""
    if poly.is_zero():
        return "0"
    key = _term_sort_key(poly)
    pieces = []
    for e in sorted(poly.terms, key=key, reverse=True):
        c = poly.terms[e]
        mono = []
        for i, p in enumerate(e):
            if p == 1:
                mono.append(f"{prefix}{i + 1}")
            elif p != 0:
                mono.append(f"{prefix}{i + 1}^{p}")
        coeff = abs(c)
        if not mono:
            body = str(coeff)
        elif coeff == 1:
            body = "*".join(mono)
        else:
            body = str(coeff) + "*" + "*".join(mono)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def vector_to_str(v: LaurentVec, prefix: str = "s") -> str:
    return "[" + ", ".join(poly_to_str(p, prefix) for p in v.entries) + "]"
