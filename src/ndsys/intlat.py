"""Integer matrices, sublattices of Z^n, and the diagonal-group correspondence.

Lattices are stored by a canonical basis: the row-style Hermite normal form
with strictly increasing pivot columns, positive pivots, and entries above
each pivot reduced into [0, pivot).  Constructing an IntLattice checks that
form, which is unique for each lattice, so two equal lattices compare equal
as data; lattice_from_rows takes any generating rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm, prod


def as_int(v, what: str) -> int:
    """v as an int; a ValueError, naming what v is, unless v has an integer value."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise ValueError(f"{what} {v!r} is not an integer")
    return i


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; rows is a tuple of equal-length int tuples
    (given otherwise, integral values become ints and others raise)."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        rows = self.rows  # a type test first, so int tuples skip as_int
        if type(rows) is not tuple or not {tuple}.issuperset(map(type, rows)) \
                or not {int}.issuperset(map(type, chain.from_iterable(rows))):
            rows = tuple(tuple(as_int(v, "matrix entry") for v in r) for r in rows)
            object.__setattr__(self, "rows", rows)
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for empty matrix")
            ncols = len(rows[0])
        return IntMatrix(rows, ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix(tuple(() for _ in range(self.ncols)), 0)
        return IntMatrix(tuple(zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.rows)) if other.rows else [() for _ in range(other.ncols)]
        rows = tuple(
            tuple(sum(a * b for a, b in zip(r, col)) for col in ot) for r in self.rows
        )
        return IntMatrix(rows, other.ncols)

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.rows)

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        # Bareiss fraction-free elimination
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                piv = next((r for r in range(t + 1, n) if m[r][t] != 0), None)
                if piv is None:
                    return 0
                m[t], m[piv] = m[piv], m[t]
                sign = -sign
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
                m[i][t] = 0
            prev = m[t][t]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.nrows == self.ncols and abs(self.det()) == 1


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix: its HNF is I, so the HNF
    transform is the inverse; any other HNF means m is not unimodular."""
    h, u, _ = hnf_with_transform(m)
    if h != IntMatrix.identity(m.ncols):
        raise ValueError("matrix is not unimodular")
    return u


# ---------------------------------------------------------------------------
# Hermite normal form


def _hnf_inplace(rows: list[list[int]], transform: list[list[int]] | None):
    """Row-reduce rows to HNF; the same row operations are applied to transform."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cur = 0
    for col in range(ncols):
        if cur >= nrows:
            break
        # euclidean elimination within this column, rows cur..end
        while True:
            nz = [r for r in range(cur, nrows) if rows[r][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda r: abs(rows[r][col]))
            if piv != cur:
                rows[cur], rows[piv] = rows[piv], rows[cur]
                if transform is not None:
                    transform[cur], transform[piv] = transform[piv], transform[cur]
            done = True
            for r in range(cur + 1, nrows):
                if rows[r][col] != 0:
                    q = rows[r][col] // rows[cur][col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[cur])]
                    if transform is not None:
                        transform[r] = [a - q * b for a, b in zip(transform[r], transform[cur])]
                    if rows[r][col] != 0:
                        done = False
            if done:
                break
        if rows[cur][col] == 0:
            continue
        if rows[cur][col] < 0:
            rows[cur] = [-a for a in rows[cur]]
            if transform is not None:
                transform[cur] = [-a for a in transform[cur]]
        # reduce the entries above the pivot into [0, pivot)
        for r in range(cur):
            q = rows[r][col] // rows[cur][col]
            if q:
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[cur])]
                if transform is not None:
                    transform[r] = [a - q * b for a, b in zip(transform[r], transform[cur])]
        cur += 1
    return cur


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical row HNF of the lattice spanned by the rows (zero rows dropped)."""
    rows = [list(r) for r in m.rows]
    rank = _hnf_inplace(rows, None)
    return IntMatrix.from_rows(rows[:rank], m.ncols)


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, int]:
    """Return (H, U, rank) with U unimodular, U @ m = H-padded-with-zero-rows."""
    rows = [list(r) for r in m.rows]
    transform = [[1 if i == j else 0 for j in range(m.nrows)] for i in range(m.nrows)]
    rank = _hnf_inplace(rows, transform)
    h = IntMatrix.from_rows(rows, m.ncols)
    u = IntMatrix.from_rows(transform, m.nrows)
    return h, u, rank


def integer_kernel_rows(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis rows of {u in Z^nrows : u @ m = 0}."""
    _, u, rank = hnf_with_transform(m)
    return [u.rows[i] for i in range(rank, m.nrows)]


# ---------------------------------------------------------------------------
# Lattices


def as_count(v, what: str) -> int:
    """v as a nonnegative int; a ValueError, naming what v is, otherwise."""
    n = v if type(v) is int else as_int(v, what)
    if n < 0:
        raise ValueError(f"{what} {n} is negative")
    return n


@dataclass(frozen=True)
class IntLattice:
    """Sublattice of Z^ambient given by its canonical HNF basis rows: an
    IntMatrix of width ambient, a nonnegative integer, that equals its own
    hnf.  Construction checks all three and raises otherwise."""

    ambient: int
    basis: IntMatrix

    def __post_init__(self):
        if not isinstance(self.basis, IntMatrix):
            raise TypeError(f"basis must be an IntMatrix, got {type(self.basis).__name__}")
        object.__setattr__(self, "ambient", as_count(self.ambient, "ambient dimension"))
        if self.basis.ncols != self.ambient:
            raise ValueError("basis width differs from ambient dimension")
        h = hnf(self.basis)  # ints, even where the basis holds integral floats
        if h != self.basis:
            raise ValueError("basis is not in Hermite normal form "
                             "(lattice_from_rows takes any generating rows)")
        object.__setattr__(self, "basis", h)

    @classmethod
    def _of(cls, ambient: int, basis: IntMatrix) -> "IntLattice":
        """Wrap a basis already in HNF, unchecked, as the package builds them."""
        lat = object.__new__(cls)
        lat.__dict__.update(ambient=ambient, basis=basis)
        return lat

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, strictly increasing."""
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.basis.rows)

    @property
    def rank(self) -> int:
        return self.basis.nrows

    def index(self) -> int | None:
        """Group index [Z^n : L]; None when the lattice has lower rank."""
        if self.rank != self.ambient:
            return None
        return prod(row[c] for c, row in zip(self.pivots, self.basis.rows))

    def reduce(self, x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(c, r) with x = sum_i c_i * basis_i + r, r the canonical
        representative of x + L (in [0, pivot) at each pivot column): r is
        zero exactly when x is on L, and c is then x's basis coordinates."""
        if len(x) != self.ambient:
            raise ValueError("point dimension mismatch")
        coords = []
        for c, row in zip(self.pivots, self.basis.rows):
            q = x[c] // row[c]
            if q:
                x = tuple(a - q * b for a, b in zip(x, row))
            coords.append(q)
        return tuple(coords), tuple(x)

    def coset_rep(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Canonical representative of x + L."""
        return self.reduce(x)[1]

    def contains(self, x: tuple[int, ...]) -> bool:
        return not any(self.coset_rep(x))

    def contains_lattice(self, other: "IntLattice") -> bool:
        return all(self.contains(r) for r in other.basis.rows)


def lattice_from_rows(ambient: int, rows) -> IntLattice:
    """The lattice spanned by any integer rows of length ambient."""
    ambient = as_count(ambient, "ambient dimension")
    return IntLattice._of(ambient, hnf(IntMatrix.from_rows(rows, ambient)))


def zero_lattice(ambient: int) -> IntLattice:
    ambient = as_count(ambient, "ambient dimension")
    return IntLattice._of(ambient, IntMatrix((), ambient))


def full_lattice(ambient: int) -> IntLattice:
    ambient = as_count(ambient, "ambient dimension")
    return IntLattice._of(ambient, IntMatrix.identity(ambient))


def diagonal_lattice(moduli) -> IntLattice:
    """Lattice of points with coordinate i a multiple of moduli[i].

    A modulus of 0 pins that coordinate to zero: the basis row is absent.
    """
    moduli = [as_int(d, "modulus") for d in moduli]
    n = len(moduli)
    rows = []
    for i, d in enumerate(moduli):
        if d < 0:
            raise ValueError("moduli must be nonnegative")
        if d > 0:
            rows.append(tuple(d if j == i else 0 for j in range(n)))
    return lattice_from_rows(n, rows) if rows else zero_lattice(n)


def meet(a: IntLattice, b: IntLattice) -> IntLattice:
    """Intersection, via the integer kernel of the stacked bases."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    ra, rb = a.rank, b.rank
    if ra == 0 or rb == 0:
        return zero_lattice(a.ambient)
    stacked = IntMatrix.from_rows(
        list(a.basis.rows) + [tuple(-v for v in r) for r in b.basis.rows], a.ambient
    )
    rows = []
    for u in integer_kernel_rows(stacked):
        coeffs = u[:ra]
        vec = [0] * a.ambient
        for c, brow in zip(coeffs, a.basis.rows):
            for j, v in enumerate(brow):
                vec[j] += c * v
        rows.append(tuple(vec))
    return lattice_from_rows(a.ambient, rows)


def join(a: IntLattice, b: IntLattice) -> IntLattice:
    """Smallest lattice containing both, via HNF of the concatenated bases."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    return lattice_from_rows(a.ambient, list(a.basis.rows) + list(b.basis.rows))


def same_coset(lat: IntLattice, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """True iff x - y lies in the lattice."""
    return lat.contains(tuple(a - b for a, b in zip(x, y)))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """S = U @ D @ V with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.D.nrows, self.D.ncols)
        return tuple(self.D.rows[i][i] for i in range(k))


def smith(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transform witnesses.

    Args:
        m: any integer matrix, shape n x c.

    Returns:
        SmithDecomposition(U, D, V) with U (n x n) and V (c x c) unimodular,
        U @ D @ V == m, D diagonal with nonnegative entries forming a
        divisibility chain d1 | d2 | ...
    """
    n, c = m.nrows, m.ncols
    d = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    # maintaining the invariant  U @ D @ V == m:
    #   a row operation E on D pairs with the inverse column operation on U,
    #   a column operation F on D pairs with the inverse row operation on V.
    def row_add(i, j, q):  # D.row[i] += q * D.row[j]
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        for r in range(n):
            u[r][j] -= q * u[r][i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in range(n):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def row_neg(i):
        d[i] = [-a for a in d[i]]
        for r in range(n):
            u[r][i] = -u[r][i]

    def col_add(i, j, q):  # D.col[i] += q * D.col[j]
        for r in range(n):
            d[r][i] += q * d[r][j]
        v[j] = [a - q * b for a, b in zip(v[j], v[i])]

    def col_swap(i, j):
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        v[i], v[j] = v[j], v[i]

    t = 0
    while t < min(n, c):
        entries = [(abs(d[i][j]), i, j) for i in range(t, n) for j in range(t, c) if d[i][j] != 0]
        if not entries:
            break
        while True:
            _, pi, pj = min(entries)
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            for i in range(t + 1, n):
                if d[i][t] != 0:
                    row_add(i, t, -(d[i][t] // d[t][t]))
            for j in range(t + 1, c):
                if d[t][j] != 0:
                    col_add(j, t, -(d[t][j] // d[t][t]))
            if all(d[i][t] == 0 for i in range(t + 1, n)) \
                    and all(d[t][j] == 0 for j in range(t + 1, c)):
                # pivot isolated; enforce divisibility of the residual block
                bad = None
                for i in range(t + 1, n):
                    for j in range(t + 1, c):
                        if d[i][j] % d[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_add(t, bad, 1)
            entries = [(abs(d[i][j]), i, j) for i in range(t, n) for j in range(t, c) if d[i][j] != 0]
        if d[t][t] < 0:
            row_neg(t)
        t += 1

    dm = IntMatrix.from_rows(d, c)
    um = IntMatrix.from_rows(u, n)
    vm = IntMatrix.from_rows(v, c)
    return SmithDecomposition(um, dm, vm)


# ---------------------------------------------------------------------------
# Subgroups of a product of cyclic groups vs. lattices between L_d and Z^n


@dataclass(frozen=True)
class GaloisSubgroup:
    """Subgroup of Z/d1 x ... x Z/dn given by generator tuples.

    Element (a1..an) stands for the diagonal character sending the i-th shift
    to a primitive di-th root raised to ai; no root-of-unity arithmetic is
    ever performed.
    """

    moduli: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(d < 1 for d in self.moduli):
            raise ValueError("moduli must be positive")
        for g in self.generators:
            if len(g) != len(self.moduli):
                raise ValueError("generator length mismatch")

    @staticmethod
    def make(moduli, generators) -> "GaloisSubgroup":
        moduli = tuple(as_int(d, "modulus") for d in moduli)
        # before the generators are reduced modulo them
        if any(d < 1 for d in moduli):
            raise ValueError("moduli must be positive")
        gens = []
        for g in generators:
            r = tuple(as_int(a, "generator entry") % d for a, d in zip(g, moduli, strict=True))
            if any(r):
                gens.append(r)
        return GaloisSubgroup(moduli, tuple(sorted(set(gens))))

    def elements(self) -> frozenset[tuple[int, ...]]:
        """All elements, by closure; the cost grows with the group order."""
        zero = tuple(0 for _ in self.moduli)
        seen = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = tuple((a + b) % d for a, b, d in zip(x, g, self.moduli))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def order(self) -> int:
        """Group order, without enumeration: by duality it is the index of
        the lattice the subgroup fixes."""
        return subgroup_to_lattice(self).index()

    def same_subgroup(self, other: "GaloisSubgroup") -> bool:
        """Equal moduli and elements, without enumeration: by duality a
        subgroup is determined by the lattice it fixes."""
        return self.moduli == other.moduli \
            and subgroup_to_lattice(self) == subgroup_to_lattice(other)


def _congruence_solution_lattice(constraint_rows: list[tuple[int, ...]], n: int, modulus: int) -> IntLattice:
    """Lattice {x in Z^n : R x = 0 (mod modulus)} for the given constraint rows."""
    g = len(constraint_rows)
    if g == 0:
        return full_lattice(n)
    # solve x . R^T + y . (modulus I) = 0 over Z and project to x
    stacked_rows = [tuple(constraint_rows[j][i] for j in range(g)) for i in range(n)]
    stacked_rows += [tuple(modulus if j == i else 0 for j in range(g)) for i in range(g)]
    stacked = IntMatrix.from_rows(stacked_rows, g)
    rows = [u[:n] for u in integer_kernel_rows(stacked)]
    return lattice_from_rows(n, rows)


def subgroup_to_lattice(h: GaloisSubgroup) -> IntLattice:
    """Lattice of exponents fixed by every character in the subgroup.

    A generator a fixes the monomial with exponent x iff
    sum_i a_i x_i / d_i is an integer.
    """
    d = h.moduli
    n = len(d)
    big = lcm(*d) if d else 1
    rows = [tuple(a * (big // di) for a, di in zip(g, d)) for g in h.generators]
    lat = _congruence_solution_lattice(rows, n, big)
    return lat


def lattice_to_subgroup(lat: IntLattice, moduli) -> GaloisSubgroup:
    """Stabilizer subgroup of all characters fixing every lattice monomial.

    Requires the lattice to contain the diagonal lattice of the moduli, so the
    quotient group is defined.
    """
    d = tuple(as_int(x, "modulus") for x in moduli)
    n = lat.ambient
    if len(d) != n:
        raise ValueError("moduli length mismatch")
    if any(di < 1 for di in d):
        raise ValueError(f"moduli must be positive, got {list(d)}")
    if not lat.contains_lattice(diagonal_lattice(d)):
        raise ValueError("lattice does not contain the diagonal lattice of the moduli")
    big = lcm(*d) if d else 1
    rows = [tuple(x * (big // di) for x, di in zip(brow, d)) for brow in lat.basis.rows]
    sol = _congruence_solution_lattice(rows, n, big)
    gens = [tuple(a % di for a, di in zip(brow, d)) for brow in sol.basis.rows]
    return GaloisSubgroup.make(d, [g for g in gens if any(g)])
