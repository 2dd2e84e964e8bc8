"""Exact rational linear algebra on sparse rows.

Rows are dicts mapping column index -> Fraction; absent keys are zero.
Everything here is over Q with no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, Fraction]


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form.

    Pivot rows are kept monic with their pivot column eliminated from all
    other stored rows, so membership tests reduce to a single sweep.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return row reduced against the current pivot rows."""
        out = dict(row)
        while True:
            hit = None
            for col in out:
                if col in self.pivots:
                    hit = col
                    break
            if hit is None:
                return out
            coef = out[hit]
            for c, v in self.pivots[hit].items():
                nv = out.get(c, Fraction(0)) - coef * v
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
        return out

    def add(self, row: Row) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        red = {c: v for c, v in self.reduce(row).items() if v}
        if not red:
            return False
        pivot = min(red)
        inv = Fraction(1) / red[pivot]
        red = {c: v * inv for c, v in red.items()}
        # keep stored rows fully reduced against the new pivot
        for col, prow in self.pivots.items():
            if pivot in prow:
                coef = prow[pivot]
                for c, v in red.items():
                    nv = prow.get(c, Fraction(0)) - coef * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        self.pivots[pivot] = red
        return True

    def contains(self, row: Row) -> bool:
        return not any(self.reduce(row).values())


def rank_of_rows(rows: list[Row]) -> int:
    sb = SpanBuilder()
    for r in rows:
        sb.add(r)
    return sb.rank


def nullspace_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : A x = 0} for the sparse row list A, columns 0..ncols-1.

    The basis is canonical: one vector per free column, with value 1 at the
    free column and pivot entries back-substituted.
    """
    sb = SpanBuilder()
    for r in rows:
        sb.add(r)
    pivot_cols = set(sb.pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec: Row = {free: Fraction(1)}
        for pcol, prow in sb.pivots.items():
            coef = prow.get(free)
            if coef:
                vec[pcol] = -coef
        basis.append(vec)
    return basis

