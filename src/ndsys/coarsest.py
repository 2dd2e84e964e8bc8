"""Coarsest lattice from which a system can be reconstructed.

The candidate is the lattice generated by all support differences of the
reduced Groebner basis.  Any lattice the system extends from must contain
every such difference, and each reduced generator sits inside a single coset
of the candidate, so the candidate itself always passes; minimality is
guarded by an index-p audit and, at small scale, by brute-force enumeration
against the window oracle.  The audit writes generators of each index-p
sublattice down in closed form from a functional a on the candidate's
basis, puts them through lattice_from_rows, and builds that table of (a,
sublattice) pairs once per (candidate lattice, prime): equal candidates
share it through a bounded cache.  It splits the reduced generators into
coset parts by coordinate buckets: each term's coordinates c on the
candidate's basis are found once per coarsest_lattice call, and a.c mod p
names the term's coset.  Each generator's part, a set of its terms, is
tested for membership once per call.  The brute-force oracle's candidate
lattices go through lattice_from_rows once per process, and it certifies
each distinct part once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

from .intlat import IntLattice, as_int, lattice_from_rows, meet, zero_lattice
from .laurent import LaurentPoly, LaurentVec
from .groebner import InvariantError, Submodule, groebner_basis, member, syzygies
from .sublattice import failing_coset_part
from .trajectories import WindowSpan, default_membership_window

# largest index bound brute_force_coarsest enumerates up to
MAX_ORACLE_INDEX = 32


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
    return support_difference_lattice(p).rank == 0 and _is_free(p)


def _is_free(p: Submodule) -> bool:
    """True, after checking the canonical generators have no relations."""
    rel = syzygies(groebner_basis(p), p.nvars, p.k)
    if not rel.is_zero_module():
        raise InvariantError("constant module with nonzero relations")
    return True


def _normalized_functionals(r: int, prime: int):
    """Nonzero vectors over F_p^r up to scaling: first nonzero entry is 1."""
    from itertools import product
    for lead in range(r):
        for tail in product(range(prime), repeat=r - lead - 1):
            yield (0,) * lead + (1,) + tail


def is_prime(n: int) -> bool:
    """Trial division; the audit's moduli are small."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def _audit_modulus(prime) -> int:
    """The modulus as an int; a non-integer or non-prime raises ValueError."""
    prime = as_int(prime, "audit modulus")
    if not is_prime(prime):
        raise ValueError(f"audit modulus {prime} is not prime")
    return prime


def maximal_sublattices(lat: IntLattice, prime: int) -> list[IntLattice]:
    """All (p^r - 1)/(p - 1) index-p sublattices of a rank-r lattice.

    The count holds only for a prime p, and a non-prime raises ValueError.
    The list is a fresh copy of the shared table _audit_table builds once
    per (lattice, prime), in _normalized_functionals' order.
    """
    return [sub for _, sub in _audit_table(lat, _audit_modulus(prime))]


@lru_cache(maxsize=64)
def _audit_table(lat: IntLattice, prime: int) -> tuple[tuple[tuple[int, ...], IntLattice], ...]:
    """Each normalized functional a mod prime paired with its index-p
    sublattice of lat; prime must already be a checked prime.

    The sublattice is the kernel of a (first nonzero entry 1) mod p on the
    coefficients of the basis b.  With m the index of a's last nonzero
    entry and t_i = -a_i * a_m^-1 mod p, that kernel has the basis
    e_i + t_i*e_m (i != m) and p*e_m, so the sublattice is spanned by
    b_i + t_i*b_m and p*b_m, and lattice_from_rows gives its canonical
    basis.

    IntLattice is frozen and canonical, so equal lattices share one table,
    kept for the process.  A table holds (p^r - 1)/(p - 1) lattices, at
    worst 993 for rank 3 at p = 31, the largest prime the CLI's audit
    takes; the cache keeps at most 64 tables.
    """
    b = lat.basis.rows
    minus_inverse = [0] + [-pow(x, -1, prime) for x in range(1, prime)]
    out = []
    for a in _normalized_functionals(lat.rank, prime):
        m = len(a) - 1
        while not a[m]:
            m -= 1
        bm = b[m]
        rows = list(b)
        rows[m] = tuple(prime * w for w in bm)
        for i in range(m):
            if a[i]:
                t = a[i] * minus_inverse[a[m]] % prime
                rows[i] = tuple(v + t * w for v, w in zip(b[i], bm))
        out.append((a, lattice_from_rows(lat.ambient, rows)))
    return tuple(out)


def _coordinate_terms(gens, lat: IntLattice):
    """Each generator's terms with the coordinates, on lat's basis, of the
    term's exponent minus the exponent of the generator's first term.

    Returns one ((component, exponent, coefficient) list, coordinate list)
    pair per generator.  Every generator lies in one coset of lat by
    construction, so a point off lat raises InvariantError.
    """
    out = []
    for g in gens:
        terms = [(j, e, c) for j, poly in enumerate(g.entries) for e, c in poly.terms.items()]
        base = terms[0][1]
        coords = []
        for _, e, _ in terms:
            c, rest = lat.reduce(tuple(a - b for a, b in zip(e, base)))
            if any(rest):
                raise InvariantError("candidate lattice rejected by its own construction")
            coords.append(c)
        out.append((terms, coords))
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
    passing audit entry is a defect and raises InvariantError.  Each
    prime's entries are _audit_table's (functional, sublattice) pairs,
    built once per (candidate, prime) and shared between calls.  An entry
    is judged by is_extension_from's rule: every coset part of a generator
    that meets two or more cosets must be a member.  The parts come from
    coordinate buckets, not coset reduction: each term's coordinates c on
    the candidate's basis, relative to its generator's first term, are
    found once per call, and the parts for the entry of functional a
    are the terms grouped by a.c mod p.  Each part's membership is asked
    once for the whole audit, keyed by its generator and term indices.  A
    repeated audit modulus would repeat its entries and raises ValueError,
    as does a modulus that is not a prime.
    """
    audit_primes = tuple(map(_audit_modulus, audit_primes))
    if len(set(audit_primes)) != len(audit_primes):
        raise ValueError(f"audit modulus repeated in {audit_primes}")
    lat = support_difference_lattice(p)
    gens = _coordinate_terms(groebner_basis(p), lat)
    # (generator, indices of the terms in one part) -> part is a member
    held: dict = {}

    def holds(gi: int, idx: tuple) -> bool:
        verdict = held.get((gi, idx))
        if verdict is None:
            terms = gens[gi][0]
            slot = [{} for _ in range(p.k)]
            for i in idx:
                j, e, c = terms[i]
                slot[j][e] = c
            verdict = held[gi, idx] = member(
                LaurentVec([LaurentPoly._of(p.nvars, t) for t in slot]), p)
        return verdict

    audit: list[tuple[IntLattice, bool]] = []
    for prime in audit_primes:
        for a, sub in _audit_table(lat, prime):
            for gi, (_, coords) in enumerate(gens):
                buckets: dict = {}
                for i, c in enumerate(coords):
                    buckets.setdefault(sum(map(mul, a, c)) % prime, []).append(i)
                if len(buckets) > 1 and not all(holds(gi, tuple(idx))
                                                for idx in buckets.values()):
                    break
            else:
                raise InvariantError(f"index-{prime} sublattice passed the minimality audit")
            audit.append((sub, False))
    oracle_confirmed = None
    if oracle_index_bound is not None:
        oracle = brute_force_coarsest(p, oracle_index_bound)
        oracle_confirmed = oracle == lat
    return CoarsestReport(lat, lat.rank, lat.rank == 0 and _is_free(p), tuple(audit),
                          oracle_confirmed)


@lru_cache(maxsize=2 * MAX_ORACLE_INDEX)
def _oracle_candidates(n: int, index_bound: int) -> tuple[IntLattice, ...]:
    """The lattices brute_force_coarsest tries, in order: the zero lattice,
    every full-rank lattice of index at most index_bound and, for n = 2,
    every line through a primitive (x, y) with |x|, y <= index_bound.

    A full-rank lattice is spanned by (d,) for n = 1, or by (a, b) and
    (0, d) with 0 <= b < d, and each goes through lattice_from_rows.  The
    tuple is kept for the process, one per (n, index_bound) the oracle
    takes: n is 1 or 2 and index_bound at most MAX_ORACLE_INDEX.
    """
    candidates = [zero_lattice(n)]
    if n == 1:
        candidates += [lattice_from_rows(n, [(d,)]) for d in range(1, index_bound + 1)]
        return tuple(candidates)
    for a in range(1, index_bound + 1):
        for d in range(1, index_bound // a + 1):
            for b in range(d):
                candidates.append(lattice_from_rows(n, [(a, b), (0, d)]))
    for x in range(-index_bound, index_bound + 1):
        for y in range(index_bound + 1):
            if (x, y) == (0, 0) or (y == 0 and x < 0):
                continue
            if gcd(abs(x), abs(y)) == 1:
                candidates.append(lattice_from_rows(n, [(x, y)]))
    return tuple(candidates)


def brute_force_coarsest(p: Submodule, index_bound: int = 16) -> IntLattice:
    """Intersection of every enumerated lattice the system extends from.

    Sound because the family of lattices a module extends from is closed
    under intersection and upward inclusion; complete as long as the true
    answer is within the enumeration bounds.  The candidates are
    _oracle_candidates', put through lattice_from_rows once per process and
    then read from its cache.  Each distinct coset part is certified in the
    window span once per call.
    """
    n = p.nvars
    if n > 2:
        raise ValueError("brute force is limited to n <= 2")
    index_bound = as_int(index_bound, "index bound")
    if index_bound < 1:
        raise ValueError("index bound must be at least 1")
    if index_bound > MAX_ORACLE_INDEX:
        raise ValueError("index bound too large for enumeration")
    if p.is_zero_module():
        return zero_lattice(n)

    window = default_membership_window(list(p.generators))
    span = WindowSpan(list(p.generators), window, p.k)
    known: dict = {}

    def certified(part) -> bool:
        if part not in known:
            known[part] = span.contains(part)
        return known[part]

    cur: IntLattice | None = None
    for lat in _oracle_candidates(n, index_bound):
        # Groebner-free: the raw generators' parts, certified in the window span
        if failing_coset_part(p.generators, lat, certified) is None:
            cur = lat if cur is None else meet(cur, lat)
    if cur is None:
        raise InvariantError("the full lattice failed the window extension test")
    return cur
