"""Moving systems between Z^n and a sublattice: contraction and extension.

A sublattice S of rank r is straightened by a Smith decomposition of its
basis columns: the unimodular transport turns S into the diagonal lattice
with moduli d1..dr (remaining coordinates pinned).  Contraction of a
submodule P of A^k is the intersection with the subring generated by the
straightened directions, one prime-index step at a time; extension
substitutes the sublattice monomials back and returns the A-span.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .groebner import (
    Submodule,
    component_cut,
    eliminate,
    groebner_basis,
    member,
    submodule_contains,
    submodule_equal,
)
from .intlat import (
    GaloisSubgroup,
    IntLattice,
    IntMatrix,
    SmithDecomposition,
    smith,
    unimodular_inverse,
)
from .laurent import LaurentPoly, LaurentVec, apply_monomial_map, coset_split


@dataclass(frozen=True)
class SublatticeContext:
    """Smith frame of a sublattice: basis columns = U @ D @ V."""

    lattice: IntLattice
    decomposition: SmithDecomposition
    transport: IntMatrix  # exponent action x -> U^{-1} x

    @property
    def ambient(self) -> int:
        return self.lattice.ambient

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def moduli(self) -> tuple[int, ...]:
        """Positive diagonal entries d1 | d2 | ... | dr."""
        return self.decomposition.diagonal[: self.rank]

    @property
    def index(self) -> int:
        """Product of the moduli: the group index when S has full rank."""
        return prod(self.moduli)

    def sub_exponent_matrix(self) -> IntMatrix:
        """n x r matrix whose column i is the exponent of the i-th sub-ring
        variable inside Z^n (equals U @ D restricted to the first r columns)."""
        ud = self.decomposition.U @ self.decomposition.D
        return IntMatrix.from_rows([row[: self.rank] for row in ud.rows], self.rank)

    def point_to_sub(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of a sublattice point in the straightened basis."""
        y = self.transport.apply(x)
        r = self.rank
        if any(v != 0 for v in y[r:]):
            raise ValueError("point is not in the sublattice")
        d = self.moduli
        if any(y[i] % d[i] != 0 for i in range(r)):
            raise ValueError("point is not in the sublattice")
        return tuple(y[i] // d[i] for i in range(r))

    def point_from_sub(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return self.sub_exponent_matrix().apply(t)


def sublattice_context(s: IntLattice) -> SublatticeContext:
    dec = smith(s.basis.transpose())
    return SublatticeContext(s, dec, unimodular_inverse(dec.U))


@dataclass
class ContractedModule:
    """A submodule over the sublattice ring, with the frame that produced it."""

    context: SublatticeContext
    module: Submodule

    def __post_init__(self):
        if self.module.nvars != self.context.rank:
            raise ValueError("module variable count differs from sublattice rank")


def contracted_module(s: IntLattice, module: Submodule) -> ContractedModule:
    """Attach a user-supplied module on the sublattice to its Smith frame."""
    return ContractedModule(sublattice_context(s), module)


def _prime_steps(moduli) -> list[tuple[int, int]]:
    """(axis, prime) per prime factor of each modulus, largest prime first."""
    steps = []
    for i, d in enumerate(moduli):
        f = 2
        while d > 1:
            if d % f:
                f += 1
            else:
                steps.append((i, f))
                d //= f
    return sorted(steps, key=lambda step: (-step[1], step[0]))


def contract(p: Submodule, s: IntLattice) -> ContractedModule:
    """Intersection of p with the subring of monomials supported on s.

    The transport makes s diagonal with moduli d_i, and contraction is
    transitive (contracting to L, then to S inside L, is contracting to S),
    so s is reached one prime p of one d_i at a time, largest p first, ties
    by axis.  Over the subring with t_i^p for t_i, A^k is free on one block
    of k components per residue of e_i mod p; a component-elimination
    Groebner run on the p shifts of the generators cuts to the zero block.
    Then t_i stands for t_i^{d_i}; degenerate directions are eliminated.
    """
    if s.ambient != p.nvars:
        raise ValueError("lattice ambient dimension mismatch")
    ctx = sublattice_context(s)
    n, k, r = p.nvars, p.k, ctx.rank
    gens = [apply_monomial_map(ctx.transport, g) for g in p.generators]
    for i, f in _prime_steps(ctx.moduli):
        blocks = []
        for g in gens:
            for o in range(f):
                polys = [{} for _ in range(f * k)]
                for j, poly in enumerate(g.entries):
                    for e, c in poly.terms.items():
                        quo, rem = divmod(e[i] + o, f)
                        polys[rem * k + j][e[:i] + (quo,) + e[i + 1:]] = c
                blocks.append(LaurentVec([LaurentPoly(n, t) for t in polys]))
        gens = component_cut(blocks, k)
    q = Submodule(n, k, gens)
    if r < n:
        q = eliminate(q, range(r, n))
    return ContractedModule(ctx, q)


def extend_vector(ctx: SublatticeContext, v: LaurentVec) -> LaurentVec:
    """Rewrite a vector over the sublattice coordinates as one over Z^n."""
    return apply_monomial_map(ctx.sub_exponent_matrix(), v)


def extend(q: ContractedModule) -> Submodule:
    """A-span of the contracted generators, substituted back into Z^n."""
    ctx = q.context
    gens = [extend_vector(ctx, g) for g in groebner_basis(q.module)]
    return Submodule(ctx.ambient, q.module.k, gens)


def is_extension_from(p: Submodule, s: IntLattice) -> tuple[bool, tuple[LaurentVec, LaurentVec] | None]:
    """Is p recoverable from its restriction to the sublattice s?

    Splits every canonical generator into its coset components relative to s
    and tests each component for membership; the first failing (generator,
    component) pair is returned as a witness.
    """
    if s.ambient != p.nvars:
        raise ValueError("lattice ambient dimension mismatch")
    for g in groebner_basis(p):
        parts = coset_split(g, s)
        if len(parts) <= 1:
            continue
        for part in parts.values():
            if not member(part, p):
                return False, (g, part)
    return True, None


@dataclass(frozen=True)
class RoundtripReport:
    extension_contained_in_original: bool
    extension_equals_original: bool
    double_contraction_stable: bool


def contract_extend_roundtrips(p: Submodule, s: IntLattice) -> RoundtripReport:
    """Check the contraction/extension laws for p against s."""
    q = contract(p, s)
    pce = extend(q)
    contained = submodule_contains(p, pce)
    equal = contained and submodule_equal(pce, p)
    q2 = contract(pce, s)
    stable = submodule_equal(q2.module, q.module)
    return RoundtripReport(contained, equal, stable)


def roundtrip_from_sublattice(q: ContractedModule) -> bool:
    """Extension followed by contraction recovers a module on the sublattice."""
    back = contract(extend(q), q.context.lattice)
    return submodule_equal(back.module, q.module)


@dataclass(frozen=True)
class DiagonalGroupInfo:
    """Structural description of the finite diagonal symmetry group."""

    moduli: tuple[int, ...]
    order: int
    group: GaloisSubgroup


def galois_group_of(s: IntLattice) -> DiagonalGroupInfo:
    """Finite group distinguishing Z^n-monomial cosets of a full-rank s.

    The group is the product of cyclic groups given by the Smith moduli,
    reported structurally; characters are never evaluated numerically.
    """
    if s.rank != s.ambient:
        raise ValueError("the symmetry group is finite only for full-rank sublattices")
    ctx = sublattice_context(s)
    d = ctx.moduli
    gens = []
    for i, di in enumerate(d):
        if di > 1:
            gens.append(tuple(1 if j == i else 0 for j in range(len(d))))
    return DiagonalGroupInfo(d, ctx.index, GaloisSubgroup.make(d, gens))
