"""Moving systems between Z^n and a sublattice: contraction and extension.

A sublattice S of rank r is straightened by a Smith decomposition of its
basis columns: the unimodular transport turns S into the diagonal lattice
with moduli d1..dr (remaining coordinates pinned).  Contraction of a
submodule P of A^k is the intersection with the subring generated by the
straightened directions, for every rank alike: the n - r pinned directions
are eliminated first, then the moduli are reached one prime-index step at a
time (the chain itself runs inside the Groebner engine).  Extension
substitutes the sublattice monomials back and returns the A-span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .groebner import (
    Submodule,
    eliminate,
    groebner_basis,
    member,
    prime_step_cuts,
    submodule_contains,
    submodule_equal,
)
from .intlat import (
    GaloisSubgroup,
    IntLattice,
    IntMatrix,
    SmithDecomposition,
    smith,
)
from .laurent import LaurentVec, apply_monomial_map, coset_split


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

    @cached_property
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
        return self._sub_exponents

    @cached_property
    def _sub_exponents(self) -> IntMatrix:
        ud = self.decomposition.U @ self.decomposition.D
        return IntMatrix.from_rows([row[: self.rank] for row in ud.rows], self.rank)

    def t_point(self, x: tuple[int, ...]) -> tuple[int, ...] | None:
        """(y_i // d_i) for y = transport x, or None off the sublattice: when
        y is nonzero past the rank or a modulus d_i does not divide y_i."""
        y = self.transport.apply(x)
        d = self.moduli
        if any(y[len(d):]) or any(v % m for v, m in zip(y, d)):
            return None
        return tuple(v // m for v, m in zip(y, d))

    def point_to_sub(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of a sublattice point in the straightened basis."""
        t = self.t_point(x)
        if t is None:
            raise ValueError("point is not in the sublattice")
        return t

    def point_from_sub(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return self.sub_exponent_matrix().apply(t)


def sublattice_context(s: IntLattice) -> SublatticeContext:
    dec = smith(s.basis.transpose())
    return SublatticeContext(s, dec, dec.U_inverse)


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

    The transport makes s diagonal with moduli d_i on its first r axes, and
    contraction is transitive (contracting to L, then to S inside L, is
    contracting to S).  So the n - r off-lattice directions are eliminated
    first, which lands in the Laurent ring of t_1..t_r, and s is reached
    from there one prime p of one d_i at a time, largest p first, ties by
    axis: groebner.prime_step_cuts runs that chain, and an index-1 frame
    keeps the generators as they are.  Then t_i stands for t_i^{d_i}.
    """
    if s.ambient != p.nvars:
        raise ValueError("lattice ambient dimension mismatch")
    ctx = sublattice_context(s)
    n, k, r = p.nvars, p.k, ctx.rank
    moved = Submodule(n, k, [apply_monomial_map(ctx.transport, g) for g in p.generators])
    q = eliminate(moved, range(r, n))
    steps = _prime_steps(ctx.moduli)
    if steps:
        q = prime_step_cuts(q, steps)
    return ContractedModule(ctx, q)


def extend_vector(ctx: SublatticeContext, v: LaurentVec) -> LaurentVec:
    """Rewrite a vector over the sublattice coordinates as one over Z^n."""
    return apply_monomial_map(ctx.sub_exponent_matrix(), v)


def extend(q: ContractedModule) -> Submodule:
    """A-span of the contracted generators, substituted back into Z^n."""
    ctx = q.context
    gens = [extend_vector(ctx, g) for g in groebner_basis(q.module)]
    return Submodule(ctx.ambient, q.module.k, gens)


def failing_coset_part(gens, s: IntLattice, holds) -> tuple[LaurentVec, LaurentVec] | None:
    """The extension rule with the membership test passed in: every coset
    part, relative to s, of every generator that meets two or more cosets
    must hold.  Returns the first failing (generator, part), or None."""
    for g in gens:
        parts = coset_split(g, s)
        if len(parts) > 1:
            for part in parts.values():
                if not holds(part):
                    return g, part
    return None


def is_extension_from(p: Submodule, s: IntLattice) -> tuple[bool, tuple[LaurentVec, LaurentVec] | None]:
    """Is p recoverable from its restriction to the sublattice s?

    Applies the extension rule to the canonical generators, with membership
    in p as the test; a failing (generator, part) pair is the witness.
    """
    if s.ambient != p.nvars:
        raise ValueError("lattice ambient dimension mismatch")
    witness = failing_coset_part(groebner_basis(p), s, lambda part: member(part, p))
    return witness is None, witness


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
