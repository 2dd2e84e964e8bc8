"""System-theoretic classification of kernel behaviors.

Controllability and autonomy of the behavior Ker(P) are properties of the
quotient A^k/P: torsion-free means controllable, torsion means autonomous.
Rank over the fraction field, autonomy and its degree are read off the
canonical basis's leading exponents by component.  The torsion closure P0
(all vectors with a nonzero multiple inside P) is computed by one double
relation pass, whose column relations are also the image representation of a
controllable system; a further relation pass presents P0/P as A^m/T.  analyze
reads the rank first and skips the passes whose answers are closed forms
(Oberst, Acta Appl. Math. 20, 1990): rank k leaves no column relations, so P0
is A^k on its unit vectors and T = P; P = P0 makes T all of A^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .laurent import LaurentPoly, LaurentVec
from .groebner import (InvariantError, Submodule, leading_exponents, member,
                       submodule_contains, submodule_equal, syzygies)
from .intlat import IntLattice
from .sublattice import contract, extend, extend_vector


def rank_over_fractions(p: Submodule) -> int:
    """Rank of the generator matrix over the field of rational functions: the
    canonical basis is in echelon form by component under its
    position-over-term order, so its number of leading components is the rank.
    """
    return len(leading_exponents(p))


def _columns(gens: list[LaurentVec], k: int) -> list[LaurentVec]:
    """Columns of the generator matrix, as vectors in A^(number of rows)."""
    return [LaurentVec([g.entries[j] for g in gens]) for j in range(k)]


def _kernel_of_rows(rows: list[LaurentVec], nvars: int, k: int) -> Submodule:
    """{x in A^k : r . x = 0 for every row r}."""
    rows = [r for r in rows if not r.is_zero()]
    if not rows:
        return Submodule(nvars, k, [LaurentVec.unit(nvars, k, j) for j in range(k)])
    return syzygies(_columns(rows, k), nvars, len(rows))


def _closure(p: Submodule, rank: int | None = None) -> tuple[list[LaurentVec], Submodule]:
    """Column relations R of P (P . R = 0) and the torsion closure P0.

    Relations among the generator-matrix columns cut out exactly the
    rational-span constraints, so the kernel of R's rows is P0; when P = P0
    the columns of R are an image representation.  Given a rank of k, the
    columns are independent: R is a zero column and P0 is A^k, with no pass.
    """
    n, k = p.nvars, p.k
    if not p.generators:
        return [LaurentVec.unit(n, k, j) for j in range(k)], Submodule(n, k, [])
    zero = LaurentVec([LaurentPoly(n) for _ in range(k)])
    if rank == k:
        return [zero], _kernel_of_rows([], n, k)
    gens = list(p.generators)
    cols = list(syzygies(_columns(gens, k), n, len(gens)).generators) or [zero]
    if any(not g.dot(c).is_zero() for g in gens for c in cols):
        raise InvariantError("column relations fail P . R = 0")
    return cols, _kernel_of_rows(cols, n, k)


def torsion_closure(p: Submodule) -> Submodule:
    """P0 = {x in A^k : a x in P for some nonzero scalar polynomial a}."""
    return _closure(p)[1]


def is_controllable(p: Submodule) -> bool:
    return submodule_equal(p, torsion_closure(p))


def is_autonomous(p: Submodule) -> bool:
    return rank_over_fractions(p) == p.k


def image_representation(p: Submodule) -> list[LaurentVec]:
    """Columns R with behavior = image of R; exists only without torsion.

    The rows of R cut out P0, so P = P0 is both the controllability test
    and the check that R cuts out exactly P.
    """
    cols, p0 = _closure(p)
    if not submodule_equal(p, p0):
        raise ValueError("no image representation: the system is not controllable")
    return cols


def _presentation(p: Submodule, p0: Submodule, ctl: bool, rank: int) -> tuple:
    """(P0, T) with P0/P = A^m / T: A^m on its unit vectors when P = P0 (the
    zero submodule of A^1 when m = 0), P itself at rank k, where P0 is A^k on
    its unit vectors, else by one relation pass with an exactness check."""
    n, q_gens = p.nvars, list(p0.generators)
    m = len(q_gens)
    if m == 0:
        return p0, Submodule(n, 1, [])
    if ctl:
        return p0, Submodule(n, m, [LaurentVec.unit(n, m, j) for j in range(m)])
    if rank == p.k:
        return p0, p
    if not submodule_contains(p0, p):
        raise InvariantError("torsion closure does not contain the module")
    combined = q_gens + list(p.generators)
    rel = syzygies(combined, n, p.k)
    t = Submodule(n, m, [LaurentVec(v.entries[:m]) for v in rel.generators])
    # exactness spot check: every relation row really lands inside P
    for h in t.generators:
        acc = LaurentVec([LaurentPoly(n) for _ in range(p.k)])
        for hi, qi in zip(h.entries, q_gens):
            acc = acc + qi.scale_poly(hi)
        if not member(acc, p):
            raise InvariantError("presentation row escapes P")
    return p0, t


def _classify(p: Submodule) -> tuple[int, list[LaurentVec], Submodule, bool]:
    """Rank, column relations, P0 and whether P = P0, which at rank k, where
    P0 = A^k, holds when every component leads with the monomial 1."""
    rank = rank_over_fractions(p)
    cols, p0 = _closure(p, rank)
    ctl = submodule_equal(p, p0) if rank < p.k else all(
        (0,) * p.nvars in exps for exps in leading_exponents(p).values())
    return rank, cols, p0, ctl


def decomposition(p: Submodule) -> tuple[Submodule, Submodule]:
    """Torsion closure P0 plus a presentation of the obstruction P0/P.

    The second component T lives in A^m (m = number of P0 generators) and
    collects the coefficient rows h with sum h_i q_i inside P, so
    P0/P = A^m / T; see _presentation for its closed forms.
    """
    rank, _, p0, ctl = _classify(p)
    return _presentation(p, p0, ctl, rank)


def degree_of_autonomy(p: Submodule) -> int:
    """n minus the largest size of a variable set S with rank(P ∩ A_S^k) < k,
    A_S the Laurent ring in S; n when no S qualifies.

    That rank falls short exactly when A^k/P has an element whose annihilator
    meets A_S only in 0, so the largest such S has the size of dim A^k/P.  The
    saturated lift has the Laurent module's dimension, and so has its
    position-over-term initial module, a sum of monomial ideals I_j e_j, each
    of dimension the largest S supporting none of I_j's generators (Kredel and
    Weispfenning, J. Symbolic Comput. 6, 1988): S's complement meets them all.
    """
    n, table = p.nvars, leading_exponents(p)
    supports = [[{i for i, x in enumerate(e) if x} for e in table.get(j, ())] for j in range(p.k)]
    # the smallest variable set meeting every leading support of some component
    return next((size for size in range(n) for hit in combinations(range(n), size)
                 if any(all(s.intersection(hit) for s in sup) for sup in supports)), n)


@dataclass(frozen=True)
class TransferReport:
    contraction_preserves_controllability: bool
    contraction_preserves_autonomy: bool
    extension_controllability_equiv: bool
    extension_autonomy_equiv: bool
    image_rep_transfers: bool | None

    @property
    def all_ok(self) -> bool:
        return (self.contraction_preserves_controllability
                and self.contraction_preserves_autonomy
                and self.extension_controllability_equiv
                and self.extension_autonomy_equiv
                and self.image_rep_transfers is not False)


def transfer_checks(p: Submodule, s: IntLattice) -> TransferReport:
    """Checks that contraction and extension move the classification the way
    they should: contraction preserves both properties, and a contracted
    system matches its extension exactly.
    """
    q = contract(p, s)
    qe = extend(q)
    cols, q0 = _closure(q.module)
    q_ctl = submodule_equal(q.module, q0)
    ctr = (not is_controllable(p)) or q_ctl
    ctr_equiv = q_ctl == is_controllable(qe)
    aut = aut_equiv = True
    img: bool | None = None
    if q.context.rank == q.context.ambient:
        q_aut = is_autonomous(q.module)
        aut = (not is_autonomous(p)) or q_aut
        aut_equiv = q_aut == is_autonomous(qe)
        if q_ctl:
            ext_cols = [extend_vector(q.context, c) for c in cols]
            img = all(g.dot(c).is_zero() for g in qe.generators for c in ext_cols)
            if img:
                live = [c for c in ext_cols if not c.is_zero()]
                img = submodule_equal(_kernel_of_rows(live, p.nvars, p.k), qe)
    return TransferReport(ctr, aut, ctr_equiv, aut_equiv, img)


@dataclass(frozen=True)
class AnalysisReport:
    rank_over_fractions: int
    is_controllable: bool
    is_autonomous: bool
    torsion_closure: Submodule
    image_rep: list[LaurentVec] | None
    degree_of_autonomy: int
    decomposition: tuple[Submodule, Submodule]


def analyze(p: Submodule) -> AnalysisReport:
    rank, cols, p0, ctl = _classify(p)
    return AnalysisReport(
        rank_over_fractions=rank,
        is_controllable=ctl,
        is_autonomous=rank == p.k,
        torsion_closure=p0,
        image_rep=cols if ctl else None,
        degree_of_autonomy=degree_of_autonomy(p),
        decomposition=_presentation(p, p0, ctl, rank),
    )
