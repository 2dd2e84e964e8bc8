"""Coarsest lattice from which a system can be reconstructed.

The candidate is the lattice generated by all support differences of the
reduced Groebner basis.  Any lattice the system extends from must contain
every such difference, and each reduced generator sits inside a single coset
of the candidate, so the candidate itself always passes; minimality is
guarded by an index-p audit and, at small scale, by brute-force enumeration
against the window oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intlat import (IntLattice, _congruence_solution_lattice,
                     lattice_from_rows, meet, zero_lattice)
from .laurent import coset_split
from .groebner import InvariantError, Submodule, groebner_basis, syzygies
from .sublattice import is_extension_from
from .trajectories import WindowSpan, default_membership_window


def support_difference_lattice(p: Submodule) -> IntLattice:
    """Lattice spanned by z - z0 over the support of each canonical generator."""
    n = p.nvars
    rows = []
    for g in groebner_basis(p):
        pts = sorted(g.support())
        base = pts[0]
        for z in pts[1:]:
            rows.append(tuple(a - b for a, b in zip(z, base)))
    return lattice_from_rows(n, rows)


def is_constant_module(p: Submodule) -> bool:
    """True when the module is generated by single-point vectors.

    Such modules are free; the syzygy computation double-checks that on the
    canonical generators.
    """
    if support_difference_lattice(p).rank != 0:
        return False
    gens = list(groebner_basis(p))
    rel = syzygies(gens, p.nvars, p.k)
    if not rel.is_zero_module():
        raise InvariantError("constant module with nonzero relations")
    return True


def _normalized_functionals(r: int, prime: int):
    """Nonzero vectors over F_p^r up to scaling: first nonzero entry is 1."""
    from itertools import product
    for lead in range(r):
        for tail in product(range(prime), repeat=r - lead - 1):
            yield (0,) * lead + (1,) + tail


def maximal_sublattices(lat: IntLattice, prime: int) -> list[IntLattice]:
    """All (p^r - 1)/(p - 1) index-p sublattices of a rank-r lattice."""
    r = lat.rank
    if r == 0:
        return []
    basis_t = lat.basis.transpose()
    out = []
    for a in _normalized_functionals(r, prime):
        coeffs = _congruence_solution_lattice([a], r, prime)
        rows = [tuple(basis_t.apply(c)) for c in coeffs.basis.rows]
        out.append(lattice_from_rows(lat.ambient, rows))
    return out


@dataclass(frozen=True)
class CoarsestReport:
    lattice: IntLattice
    rank: int
    is_constant_module: bool
    audit: tuple[tuple[IntLattice, bool], ...]
    oracle_confirmed: bool | None


def coarsest_lattice(p: Submodule, audit_primes=(2, 3, 5, 7),
                     oracle_index_bound: int | None = None) -> CoarsestReport:
    """Candidate lattice plus an audit that no index-p coarsening works.

    Each reduced generator lies in one coset of any lattice the module
    extends from, so no index-p sublattice of the candidate can pass; a
    passing audit entry is a defect and raises InvariantError.
    """
    lat = support_difference_lattice(p)
    ok, _ = is_extension_from(p, lat)
    if not ok:
        raise InvariantError("candidate lattice rejected by its own construction")
    audit: list[tuple[IntLattice, bool]] = []
    for prime in audit_primes:
        for sub in maximal_sublattices(lat, prime):
            if is_extension_from(p, sub)[0]:
                raise InvariantError(f"index-{prime} sublattice passed the minimality audit")
            audit.append((sub, False))
    oracle_confirmed = None
    if oracle_index_bound is not None:
        oracle = brute_force_coarsest(p, oracle_index_bound)
        oracle_confirmed = oracle == lat
    return CoarsestReport(lat, lat.rank, is_constant_module(p), tuple(audit),
                          oracle_confirmed)


def _window_extension_test(p: Submodule, span: WindowSpan):
    """Groebner-free variant of the extension-from-sublattice test: split the
    raw generators into coset parts and certify each part inside the window
    span of shifted generators."""
    def passes(lat: IntLattice) -> bool:
        for g in p.generators:
            parts = coset_split(g, lat)
            if len(parts) <= 1:
                continue
            for part in parts.values():
                if not span.contains(part):
                    return False
        return True
    return passes


def brute_force_coarsest(p: Submodule, index_bound: int = 16) -> IntLattice:
    """Intersection of every enumerated lattice the system extends from.

    Sound because the family of lattices a module extends from is closed
    under intersection and upward inclusion; complete as long as the true
    answer is within the enumeration bounds.
    """
    n = p.nvars
    if n > 2:
        raise ValueError("brute force is limited to n <= 2")
    if index_bound < 1:
        raise ValueError("index bound must be at least 1")
    if index_bound > 32:
        raise ValueError("index bound too large for enumeration")
    if p.is_zero_module():
        return zero_lattice(n)

    window = default_membership_window(list(p.generators))
    span = WindowSpan(list(p.generators), window, p.k)
    passes = _window_extension_test(p, span)

    candidates: list[IntLattice] = [zero_lattice(n)]
    if n == 1:
        candidates += [lattice_from_rows(1, [[d]]) for d in range(1, index_bound + 1)]
    else:
        for a in range(1, index_bound + 1):
            for d in range(1, index_bound // a + 1):
                for b in range(d):
                    candidates.append(lattice_from_rows(2, [[a, b], [0, d]]))
        for x in range(-index_bound, index_bound + 1):
            for y in range(index_bound + 1):
                if (x, y) == (0, 0) or (y == 0 and x < 0):
                    continue
                if gcd(abs(x), abs(y)) == 1:
                    candidates.append(lattice_from_rows(2, [[x, y]]))

    cur: IntLattice | None = None
    for lat in candidates:
        if passes(lat):
            cur = lat if cur is None else meet(cur, lat)
    if cur is None:
        raise InvariantError("the full lattice failed the window extension test")
    return cur
