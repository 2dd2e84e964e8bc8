"""Exact linear algebra over Q on sparse rows.

Rows are dicts mapping column index -> value; absent keys are zero.  Rows come
in with int or Fraction values and leave (from nullspace_basis) as Fractions.
In between, a SpanBuilder holds primitive int rows and eliminates
fraction-free, so building and querying a span does no rational arithmetic.
Inserts and queries cancel a row's leading column only, until it is no pivot:
an echelon form decides rank and membership, and nullspace_basis cancels the
other pivot columns once, when it back-substitutes.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

Row = dict[int, Fraction]


def strip_content(f: dict) -> dict:
    """Scale by a positive rational to primitive int values, dropping zeros.

    Takes int or Fraction values under any keys: a row here, a module element
    in the Groebner engine.
    """
    den = 1
    for c in f.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.items() if c}
    content = gcd(*ints.values())
    if content <= 1:
        return ints
    return {m: c // content for m, c in ints.items()}


def _eliminate(row: dict[int, int], col: int, prow: dict[int, int]) -> None:
    """Cancel row's entry at col with prow, whose entry at col is positive.

    row becomes (b/g)*row - (a/g)*prow for a = row[col], b = prow[col] and
    g = gcd(a, b): a positive multiple of the rational result.
    """
    a = row.pop(col)
    b = prow[col]
    g = gcd(a, b)
    scale, factor = b // g, a // g
    if scale != 1:
        for c in row:
            row[c] *= scale
    for c, v in prow.items():
        if c != col:
            nv = row.get(c, 0) - factor * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


class SpanBuilder:
    """Incrementally built row space in echelon form.

    Each stored row is a primitive int row whose pivot, its smallest column,
    holds a positive entry and is the pivot of no other stored row.  Inserts
    never rewrite a stored row: rank and membership need echelon form only,
    and nullspace_basis back-substitutes its own builder's rows once, at the
    end.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row) -> dict[int, int]:
        """An int multiple of row whose leading column is no pivot, or {}.

        Only the leading column is cancelled, smallest first: the heap holds
        the row's columns, and eliminating one brings in larger ones only.
        An int row is copied as it is, zeros dropped: its content is divided
        out by add, so only a row holding a Fraction needs strip_content.
        """
        out = {c: v for c, v in row.items() if v}
        if any(type(v) is not int for v in row.values()):
            bad = [v for v in row.values() if not isinstance(v, (int, Fraction))]
            if bad:
                raise TypeError(f"row value {bad[0]!r} is neither an int nor a Fraction")
            out = strip_content(out)
        pivots = self.pivots
        heap = sorted(out)
        while out:
            col = heappop(heap)
            if col not in out:
                continue
            prow = pivots.get(col)
            if prow is None:
                break
            for c in prow:
                if c not in out:
                    heappush(heap, c)
            _eliminate(out, col, prow)
        return out

    def add(self, row: Row) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        red = self._reduce(row)
        if not red:
            return False
        pivot = min(red)
        content = gcd(*red.values())
        if red[pivot] < 0:
            content = -content
        # red is a fresh dict: keep it when it is already primitive
        self.pivots[pivot] = red if content == 1 else {c: v // content for c, v in red.items()}
        return True

    def contains(self, row: Row) -> bool:
        return not self._reduce(row)


def rank_of_rows(rows: Iterable[Row]) -> int:
    sb = SpanBuilder()
    for r in rows:
        sb.add(r)
    return sb.rank


def nullspace_basis(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Basis of {x : A x = 0} for the sparse row list A, columns 0..ncols-1.

    The basis is canonical: one vector per free column f, with 1 at f and
    -row[f] / row[pivot] at each pivot, in the reduced echelon form.  The
    rows go into a SpanBuilder in echelon form, and one back-substitution of
    its stored rows, from the largest pivot down, leaves each with a positive
    entry at its pivot and no other pivot column.  Window systems repeat a few
    values many times over, so each entry Fraction(-v, lead) is built once
    per call and shared between the vectors.
    """
    sb = SpanBuilder()
    for r in rows:
        if any(not 0 <= c < ncols for c in r):
            raise ValueError(f"row has a column outside 0..{ncols - 1}")
        sb.add(r)
    # back-substitute in place, from the largest pivot down: the rows right
    # of a pivot are already reduced and hold no other pivot column
    pivots = sb.pivots
    for pcol in sorted(pivots, reverse=True):
        prow = pivots[pcol]
        hits = [c for c in prow if c != pcol and c in pivots]
        for c in hits:
            _eliminate(prow, c, pivots[c])
        if hits:
            content = gcd(*prow.values())
            if content != 1:
                pivots[pcol] = {c: v // content for c, v in prow.items()}
    one = Fraction(1)
    basis = {free: {free: one} for free in range(ncols) if free not in pivots}
    # lead -> v -> Fraction(-v, lead)
    values: dict[int, dict[int, Fraction]] = {}
    # pivots in insertion order, so each vector lists them in that order
    for pcol, prow in pivots.items():
        lead = prow[pcol]
        shared = values.setdefault(lead, {})
        for c, v in prow.items():
            if c != pcol:
                val = shared.get(v)
                if val is None:
                    val = shared[v] = Fraction(-v, lead)
                basis[c][pcol] = val
    return list(basis.values())
