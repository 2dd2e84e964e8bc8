"""Finite-window trajectory oracle.

Solutions of a difference system on a finite window are computed by exact
linear algebra on the instantiated equations: one primitive int equation per
(generator, shift) whose shifted support fits inside the window.  This path
never consults a Groebner basis, so it serves as an independent check for
the symbolic operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import Row, SpanBuilder, nullspace_basis, rank_of_rows, strip_content
from .laurent import Exp, LaurentVec
from .groebner import Submodule
from .intlat import as_int
from .sublattice import ContractedModule, contract, extend

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Window:
    """Finite set of lattice points, optionally a product box.

    A box window's points are exactly the box's product in sorted order:
    equation rows on a box compute their columns from that order.
    """

    points: tuple[Exp, ...]
    box: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.box is None:
            return
        if any(a > b for a, b in self.box):
            raise ValueError("empty box side")
        if tuple(self.points) != tuple(product(*(range(a, b + 1) for a, b in self.box))):
            raise ValueError("a box window's points must be its box's points in sorted order")

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def __len__(self):
        return len(self.points)


def box_window(bounds) -> Window:
    bounds = tuple((as_int(a, "window coordinate"), as_int(b, "window coordinate"))
                   for a, b in bounds)
    # the product of ascending ranges comes in sorted order
    return Window(tuple(product(*(range(a, b + 1) for a, b in bounds))), bounds)


def explicit_window(points) -> Window:
    pts = tuple(sorted({tuple(as_int(x, "window coordinate") for x in p) for p in points}))
    if not pts:
        raise ValueError("empty window")
    if len({len(p) for p in pts}) != 1:
        raise ValueError("window points differ in their number of coordinates")
    return Window(pts, None)


def _generators_of(mod_or_gens, window: Window | None = None) -> list[LaurentVec]:
    """The generators; with a window, also check it has one axis per variable."""
    if isinstance(mod_or_gens, Submodule):
        gens, n = list(mod_or_gens.generators), mod_or_gens.nvars
    else:
        gens = list(mod_or_gens)
        n = gens[0].nvars if gens else None
    if window is not None and n is not None and window.dim != n:
        raise ValueError(f"window has {window.dim} axes but the system has {n} variables")
    return gens


def _ambient_rank(mod_or_gens, gens: list[LaurentVec], k) -> int:
    """k checked against the generators; when None, the module's ambient
    rank or the generators'."""
    if k is None:
        if isinstance(mod_or_gens, Submodule):
            k = mod_or_gens.k
        elif gens:
            k = gens[0].k
        else:
            raise ValueError("ambient rank unknown for empty generator list")
    elif (k := as_int(k, "ambient rank")) < 1:
        raise ValueError("ambient rank must be >= 1")
    if any(g.k > k for g in gens):
        raise ValueError("a generator has more than k components")
    return k


def _window_index(window: Window, k: int) -> dict[tuple[Exp, int], int]:
    """Column of each (point, component) unknown on the window."""
    return {(p, j): i * k + j for i, p in enumerate(window.points) for j in range(k)}


def _valid_shifts(support: set[Exp], window: Window) -> list[Exp]:
    """All y such that support + y lies inside the window, in sorted order."""
    if not support:
        return []
    pts = set(window.points)
    anchor = next(iter(support))
    out = []
    for w in window.points:
        y = tuple(a - b for a, b in zip(w, anchor))
        if all(tuple(a + b for a, b in zip(p, y)) in pts for p in support):
            out.append(y)
    return sorted(set(out))


@dataclass
class WindowSolutionSpace:
    """Exact basis of the trajectories of a system on a finite window."""

    window: Window
    k: int
    basis: list[Row]
    index: dict[tuple[Exp, int], int]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def value(self, vec: Row, point: Exp, comp: int) -> Fraction:
        return vec.get(self.index[(point, comp)], _ZERO)


def _equation_rows(gens: list[LaurentVec], window: Window,
                   index: dict[tuple[Exp, int], int]):
    """One row per generator and window-supported shift of it.

    Every shift of a generator has its coefficients, so they are scaled to
    primitive ints once per generator; each row is a positive multiple of the
    generator's shifted coefficients and spans the same space.  index is the
    window's _window_index, which a box window's rows do not look up: a box
    lists its points in sorted order, so the column of (x, j) is
    sum((x_i - lo_i) * stride_i) + j with stride_i counting unknowns, and
    term (e, j) of shift y sits at offset sum(e_i * stride_i) + j from the
    shift's base sum((y_i - lo_i) * stride_i).
    """
    box = window.box
    if box is not None:
        strides = [len(index) // len(window)] * len(box)
        for i in range(len(box) - 1, 0, -1):
            strides[i - 1] = strides[i] * (box[i][1] - box[i][0] + 1)
    for g in gens:
        terms = strip_content({(e, j): c for j, poly in enumerate(g.entries)
                               for e, c in poly.terms.items()})
        if not terms:
            continue
        supp = g.support()
        if box is None:
            for y in _valid_shifts(supp, window):
                yield {index[(tuple(a + b for a, b in zip(e, y)), j)]: c
                       for (e, j), c in terms.items()}
            continue
        offsets = [(sum(a * st for a, st in zip(e, strides)) + j, c)
                   for (e, j), c in terms.items()]
        # per axis, (y_i - lo_i) * stride_i for each y_i that keeps supp + y in the box
        shares = [range(-min(p[i] for p in supp) * st,
                        (hi - lo - max(p[i] for p in supp) + 1) * st, st)
                  for i, ((lo, hi), st) in enumerate(zip(box, strides))]
        for base in map(sum, product(*shares)):
            yield {base + off: c for off, c in offsets}


def window_solutions(mod_or_gens, window: Window, k: int | None = None) -> WindowSolutionSpace:
    """Nullspace of the instantiated equations on the window."""
    gens = _generators_of(mod_or_gens, window)
    k = _ambient_rank(mod_or_gens, gens, k)
    index = _window_index(window, k)
    basis = nullspace_basis(_equation_rows(gens, window, index), len(index))
    return WindowSolutionSpace(window, k, basis, index)


class WindowSpan:
    """Q-span of all window-supported shifts of the generators.

    Membership here certifies membership in the module; a refusal only says
    the certificate does not fit in this window.  A vector of another shape
    is an error, as it is for member.
    """

    def __init__(self, gens, window: Window, k: int | None = None):
        source, gens = gens, _generators_of(gens, window)
        k = _ambient_rank(source, gens, k)
        self.window = window
        self.k = k
        self.index = _window_index(window, k)
        self.builder = SpanBuilder()
        for row in _equation_rows(gens, window, self.index):
            self.builder.add(row)

    def _flatten(self, v: LaurentVec) -> Row:
        row: Row = {}
        for j, poly in enumerate(v.entries):
            for e, c in poly.terms.items():
                key = (e, j)
                if key not in self.index:
                    raise ValueError("vector sticks out of the window")
                row[self.index[key]] = c
        return row

    def contains(self, v: LaurentVec) -> bool:
        if v.nvars != self.window.dim or v.k != self.k:
            raise ValueError("vector shape mismatch")
        try:
            row = self._flatten(v)
        except ValueError:
            return False
        return self.builder.contains(row)


def default_membership_window(gens) -> Window:
    """Symmetric box comfortably larger than the generator supports."""
    gens = _generators_of(gens)
    pts = set()
    for g in gens:
        pts |= g.support()
    if not pts:
        raise ValueError("no support")
    n = len(next(iter(pts)))
    diam = 0
    for i in range(n):
        vals = [p[i] for p in pts]
        diam = max(diam, max(vals) - min(vals))
    reach = 2 * diam + 2
    bound = max(max(abs(v) for v in p) for p in pts) + reach
    return box_window([(-bound, bound)] * n)


def _as_box_window(w) -> Window:
    if isinstance(w, Window):
        if w.box is None:
            raise ValueError("a box window is required here")
        return w
    return box_window(w)


def restriction_check(p: Submodule, s, w) -> bool:
    """Window-scale check that restriction onto the sublattice matches the
    contraction: restricted trajectories satisfy the contracted equations and
    span a space of the same dimension.

    Both comparisons run on an interior core of the box, one support
    diameter in from the boundary, to keep boundary artifacts out.  Each core
    point is transported once, by SublatticeContext.t_point, which picks the
    sublattice points and gives their t-points.

    Neither half forms the box's solutions.  A functional vanishes on every
    box solution exactly when it lies in the row space of the box equations,
    so the equation half asks the box's echelon form whether each contracted
    equation, written on the core's sublattice columns, is a member.  Those
    columns are numbered last, so the echelon rows whose pivots fall among
    them span the row space's intersection with the core coordinates.  The
    restricted trajectories then have dimension |core columns| minus that
    pivot count, and the contracted side |core columns| minus the rank of
    its equations: the dimension half compares the count with the rank.
    """
    full = _as_box_window(w)
    gens = _generators_of(p, full)
    q = contract(p, s)
    ctx = q.context
    pts = set().union(*(g.support() for g in gens))
    margins = [max(c) - min(c) for c in zip(*pts)] if pts else [0] * p.nvars
    core_bounds = [(lo + m, hi - m) for (lo, hi), m in zip(full.box, margins)]
    if any(lo > hi for lo, hi in core_bounds):
        raise ValueError("window too small for the interior core")

    t_of = {x: t for x in product(*(range(lo, hi + 1) for lo, hi in core_bounds))
            if (t := ctx.t_point(x)) is not None}
    if not t_of:
        raise ValueError("no sublattice points in the core window")

    k = p.k
    index = _window_index(full, k)
    ncols = len(index)
    # number the core's sublattice columns last: each moves up past every other
    col = list(range(ncols))
    for x in t_of:
        for j in range(k):
            col[index[(x, j)]] += ncols
    box = SpanBuilder()
    for row in _equation_rows(gens, full, index):
        box.add({col[c]: v for c, v in row.items()})

    t_cols = {(t, j): col[index[(x, j)]] for x, t in t_of.items() for j in range(k)}
    q_rows = list(_equation_rows(list(q.module.generators), explicit_window(t_of.values()),
                                 t_cols))
    if not all(box.contains(row) for row in q_rows):
        return False
    return sum(c >= ncols for c in box.pivots) == rank_of_rows(q_rows)


def extension_product_check(q: ContractedModule, w) -> bool:
    """Window dimension of the extension equals (group index) x (window
    dimension on one sublattice translate); the box must split into
    congruent translates, otherwise it is rejected.
    """
    ctx = q.context
    if ctx.rank != ctx.ambient:
        raise ValueError("product structure needs a full-rank sublattice")
    full = _as_box_window(w)
    _generators_of(q.module, full)  # at full rank the contraction has n variables too
    cosets: dict[Exp, list[Exp]] = {}
    for x in full.points:
        cosets.setdefault(ctx.lattice.coset_rep(x), []).append(x)
    if len(cosets) != ctx.index:
        raise ValueError("window misses some cosets")
    shapes = set()
    translates = []
    for rep, pts in sorted(cosets.items()):
        base = min(pts)
        shape = tuple(sorted(ctx.point_to_sub(tuple(a - b for a, b in zip(x, base)))
                             for x in pts))
        shapes.add(shape)
        translates.append(shape)
    if len(shapes) != 1:
        raise ValueError("window is not aligned to sublattice translates")
    sub_window = explicit_window(shapes.pop())
    sub_dim = window_solutions(q.module, sub_window).dimension
    ext_dim = window_solutions(extend(q), full).dimension
    return ext_dim == ctx.index * sub_dim
