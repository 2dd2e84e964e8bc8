import random
import runpy
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import ndsys
from ndsys.cli import parse_system
from ndsys.intlat import (IntLattice, IntMatrix, _congruence_solution_lattice,
                          full_lattice, lattice_from_rows, meet, zero_lattice)
from ndsys.laurent import LaurentPoly, LaurentVec, coset_split, parse_vector
from ndsys.groebner import InvariantError, Submodule, groebner_basis, member
from ndsys.sublattice import failing_coset_part, is_extension_from
from ndsys.trajectories import WindowSpan
from ndsys.coarsest import (MAX_ORACLE_INDEX, CoarsestReport, _audit_table,
                            _normalized_functionals, _oracle_candidates,
                            brute_force_coarsest, coarsest_lattice, is_constant_module,
                            is_prime, maximal_sublattices, support_difference_lattice)

pv = parse_vector


def test_support_difference_hexagonal():
    p = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    lat = support_difference_lattice(p)
    assert lat == lattice_from_rows(2, [[1, 1], [2, 0]])
    assert lat.basis.rows == ((1, 1), (0, 2))


def test_support_difference_rank_one():
    p = Submodule(2, 1, [pv("1 + s1*s2", 2, 1)])
    assert support_difference_lattice(p) == lattice_from_rows(2, [[1, 1]])


def test_support_difference_constant_vector():
    p = Submodule(2, 2, [pv("[1, 2]", 2, 2)])
    assert support_difference_lattice(p) == zero_lattice(2)


def test_support_difference_uses_reduced_generators():
    """A redundant multi-coset generating set must not widen the lattice."""
    p = Submodule(1, 1, [pv("s1 - 1", 1, 1), pv("s1^3 - 1", 1, 1)])
    assert support_difference_lattice(p) == lattice_from_rows(1, [[1]])


def test_coarsest_hexagonal_with_audit_and_oracle():
    p = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    rep = coarsest_lattice(p, oracle_index_bound=16)
    assert rep.lattice == lattice_from_rows(2, [[1, 1], [2, 0]])
    assert rep.rank == 2
    assert not rep.is_constant_module
    # (p+1) maximal sublattices per prime at rank 2: 3 + 4 + 6 + 8
    assert len(rep.audit) == 21
    assert all(not passed for _, passed in rep.audit)
    assert rep.oracle_confirmed is True


def test_passing_audit_entry_raises(monkeypatch):
    monkeypatch.setattr("ndsys.coarsest.member", lambda v, p: True)
    p = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    with pytest.raises(InvariantError):
        coarsest_lattice(p)


def test_coarsest_rank_one_degenerate():
    p = Submodule(2, 1, [pv("1 + s1*s2", 2, 1)])
    rep = coarsest_lattice(p, oracle_index_bound=16)
    assert rep.lattice == lattice_from_rows(2, [[1, 1]])
    assert rep.rank == 1
    assert rep.oracle_confirmed is True
    assert is_extension_from(p, rep.lattice)[0]


def test_coarsest_constant_module():
    p = Submodule(2, 2, [pv("[1, 2]", 2, 2), pv("[0, 3]", 2, 2)])
    rep = coarsest_lattice(p)
    assert rep.lattice == zero_lattice(2)
    assert rep.is_constant_module
    assert rep.audit == ()


def test_is_constant_module_cases():
    assert is_constant_module(Submodule(2, 2, [pv("[1, 2]", 2, 2), pv("[0, 3]", 2, 2)]))
    assert is_constant_module(Submodule(1, 2, [pv("[s1, 2*s1]", 1, 2)]))
    assert not is_constant_module(Submodule(1, 1, [pv("s1 - 1", 1, 1)]))
    assert is_constant_module(Submodule(2, 1, []))
    # full module
    assert is_constant_module(Submodule(1, 1, [pv("1", 1, 1)]))


def test_brute_force_examples():
    p = Submodule(2, 1, [pv("1 + s1*s2", 2, 1)])
    assert brute_force_coarsest(p, 16) == lattice_from_rows(2, [[1, 1]])
    q = Submodule(1, 1, [pv("s1^2 - 1", 1, 1)])
    assert brute_force_coarsest(q, 8) == lattice_from_rows(1, [[2]])
    unit = Submodule(1, 1, [pv("1", 1, 1)])
    assert brute_force_coarsest(unit, 4) == zero_lattice(1)


def test_brute_force_rejects_big_instances():
    p = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    import pytest
    with pytest.raises(ValueError):
        brute_force_coarsest(p, 64)


@pytest.mark.parametrize("bound", [0, -3])
def test_brute_force_rejects_nonpositive_bound(bound):
    p = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    with pytest.raises(ValueError, match="at least 1"):
        brute_force_coarsest(p, bound)


def test_maximal_sublattice_enumeration():
    full = full_lattice(2)
    for p, expect in ((2, 3), (3, 4), (5, 6), (7, 8)):
        subs = maximal_sublattices(full, p)
        assert len(subs) == expect
        assert len(set(subs)) == expect
        for sub in subs:
            assert sub.index() == p
            assert full.contains_lattice(sub)
    line = lattice_from_rows(2, [[1, 1]])
    subs = maximal_sublattices(line, 3)
    assert subs == [lattice_from_rows(2, [[3, 3]])]
    assert maximal_sublattices(zero_lattice(2), 2) == []


def test_maximal_sublattices_audit_modulus_goes_through_as_int():
    with pytest.raises(ValueError, match="audit modulus 2.5 is not an integer"):
        maximal_sublattices(full_lattice(2), 2.5)
    assert maximal_sublattices(full_lattice(2), 2.0) == maximal_sublattices(full_lattice(2), 2)


def test_coarsest_audit_moduli_go_through_as_int():
    p = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    with pytest.raises(ValueError, match="audit modulus '2' is not an integer"):
        coarsest_lattice(p, audit_primes=("2",))
    assert coarsest_lattice(p, audit_primes=(2.0, 3)) == coarsest_lattice(p, audit_primes=(2, 3))
    with pytest.raises(ValueError, match="repeated"):
        coarsest_lattice(p, audit_primes=(2, 2.0))


def test_brute_force_index_bound_goes_through_as_int():
    p = Submodule(1, 1, [pv("s1^2 - 1", 1, 1)])
    with pytest.raises(ValueError, match="index bound 2.5 is not an integer"):
        brute_force_coarsest(p, 2.5)
    assert brute_force_coarsest(p, 4.0) == brute_force_coarsest(p, 4)


def test_maximal_sublattices_rejects_non_prime():
    assert [q for q in range(1, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for q in (1, 4, 6, 9):
        with pytest.raises(ValueError, match="not prime"):
            maximal_sublattices(full_lattice(2), q)
    with pytest.raises(ValueError, match="not prime"):
        maximal_sublattices(zero_lattice(2), 4)


def _kernel_sublattices(lat, prime):
    """Reference: each functional's congruence kernel on the basis
    coefficients, solved by an integer kernel, mapped through the basis."""
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


def _assert_raw_rows_rejected(n, rows, hnf_lat):
    """The raw rows are a basis only when they are already canonical."""
    raw = IntMatrix.from_rows(rows, n)
    if raw == hnf_lat.basis:
        assert IntLattice(n, raw) == hnf_lat
    else:
        with pytest.raises(ValueError, match="Hermite normal form"):
            IntLattice(n, raw)


def test_maximal_sublattices_match_kernel_reference():
    rng = random.Random(101)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 3)
        r = rng.randint(1, n)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
        hnf_lat = lattice_from_rows(n, rows)
        if hnf_lat.rank != r:
            continue
        _assert_raw_rows_rejected(n, rows, hnf_lat)
        for p in (2, 3, 5, 7):
            got = maximal_sublattices(hnf_lat, p)
            assert got == _kernel_sublattices(hnf_lat, p)
            assert len(got) == (p ** r - 1) // (p - 1)
        checked += 1


def _row_sublattices(lat, prime):
    """Reference: for a = (0, .., 0, 1, a_{l+1}, ..) the rows b_j (j < l),
    p*b_l and b_j - a_j*b_l (j > l), put through lattice_from_rows."""
    b = lat.basis.rows
    out = []
    for a in _normalized_functionals(lat.rank, prime):
        lead = a.index(1)
        rows = list(b[:lead])
        rows.append(tuple(prime * v for v in b[lead]))
        rows += [tuple(v - aj * w for v, w in zip(bj, b[lead]))
                 for aj, bj in zip(a[lead + 1:], b[lead + 1:])]
        out.append(lattice_from_rows(lat.ambient, rows))
    return out


def test_closed_form_matches_row_reference():
    rng = random.Random(113)
    cases = 0
    for n in range(1, 5):
        for r in range(1, n + 1):
            built = 0
            while built < 3:
                rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(r)]
                hnf_lat = lattice_from_rows(n, rows)
                if hnf_lat.rank != r:
                    continue
                _assert_raw_rows_rejected(n, rows, hnf_lat)
                for p in (2, 3, 5, 7):
                    if r == 4 and p > 3:
                        continue
                    got = maximal_sublattices(hnf_lat, p)
                    assert got == _row_sublattices(hnf_lat, p)
                    cases += len(got)
                built += 1
    assert cases > 1000


def test_audit_n3():
    p = Submodule(3, 1, [pv("1 + s1*s2 + s2*s3 + s3^2", 3, 1)])
    rep = coarsest_lattice(p)
    assert rep.rank == 3
    # (p^3 - 1)/(p - 1) entries per prime
    assert len(rep.audit) == 7 + 13 + 31 + 57
    assert all(not passed for _, passed in rep.audit)
    assert is_extension_from(p, rep.lattice)[0]


def test_audit_rejects_repeated_modulus():
    p = Submodule(3, 1, [pv("1 + s1*s2 + s2*s3 + s3^2", 3, 1)])
    for primes in ((2, 2), (3, 2, 3), [5, 5]):
        with pytest.raises(ValueError, match="repeated"):
            coarsest_lattice(p, primes)
    rep = coarsest_lattice(p, (2, 3))
    assert len(rep.audit) == len({sub for sub, _ in rep.audit}) == 7 + 13


def _random_module(rng, k, m, nterms, emax):
    gens = []
    for _ in range(m):
        entries = []
        for _ in range(k):
            terms = {}
            while len(terms) < nterms:
                e = (rng.randint(0, emax), rng.randint(0, emax))
                terms[e] = Fraction(rng.choice([1, -1, 2, -2, 3]))
            entries.append(LaurentPoly(2, terms))
        gens.append(LaurentVec(entries))
    return Submodule(2, k, gens)


# (k, generators, terms per polynomial, largest exponent)
SMALL_SHAPES = ((1, 1, 3, 2), (2, 1, 2, 2), (1, 2, 3, 1), (2, 2, 2, 1))


def test_audit_entries_match_is_extension_from():
    rng = random.Random(107)
    for shape in SMALL_SHAPES * 2:
        p = _random_module(rng, *shape)
        rep = coarsest_lattice(p)
        for sub, passed in rep.audit:
            assert passed is False
            assert is_extension_from(p, sub)[0] is False


def test_audit_asks_each_part_once(monkeypatch):
    rng = random.Random(109)
    asked = []

    def counted(v, p):
        asked.append(v)
        return member(v, p)

    monkeypatch.setattr("ndsys.coarsest.member", counted)
    for shape in SMALL_SHAPES:
        asked.clear()
        rep = coarsest_lattice(_random_module(rng, *shape))
        assert len(asked) == len(set(asked))
        if rep.rank:
            assert asked
    asked.clear()
    rep = coarsest_lattice(Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)]))
    assert len(rep.audit) == 21
    assert 0 < len(asked) == len(set(asked))


def _reference_report(p, primes=(2, 3, 5, 7)):
    """Reference: the audit by row sublattices and failing_coset_part's
    coset_split, one member call per part."""
    lat = support_difference_lattice(p)
    gens = groebner_basis(p)
    known = {}

    def holds(part):
        if part not in known:
            known[part] = member(part, p)
        return known[part]

    audit = tuple((sub, failing_coset_part(gens, sub, holds) is None)
                  for prime in primes for sub in _row_sublattices(lat, prime))
    return lat, lat.rank, is_constant_module(p), audit


def _report_fields(rep):
    return rep.lattice, rep.rank, rep.is_constant_module, rep.audit


def test_audit_matches_coset_split_reference(monkeypatch):
    asked = []

    def counted(v, p):
        asked.append(v)
        return member(v, p)

    monkeypatch.setattr("ndsys.coarsest.member", counted)
    rng = random.Random(127)
    modules = [_random_module(rng, *shape) for shape in SMALL_SHAPES * 3]
    modules += [Submodule(3, 1, [pv("1 + s1*s2 + s2*s3 + s3^2", 3, 1)]),
                Submodule(2, 1, [pv("1 + s1*s2", 2, 1)]),
                Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)]),
                Submodule(2, 2, [pv("[1, 2]", 2, 2), pv("[0, 3]", 2, 2)]),
                # coordinates past p: 0, 7 and 3 on the candidate Z
                Submodule(1, 1, [pv("1 + s1^7 + 2*s1^3", 1, 1)]),
                Submodule(2, 1, [pv("1 + s1^7*s2 + s2^3", 2, 1)])]
    for p in modules:
        rep = coarsest_lattice(p)
        assert _report_fields(rep) == _reference_report(p)
        assert rep.oracle_confirmed is None
        for prime in (2, 3, 5, 7):
            asked.clear()
            rep = coarsest_lattice(p, (prime,))
            # every part asked is a coset part of a generator for an entry
            parts = {part for sub, _ in rep.audit for g in groebner_basis(p)
                     for part in coset_split(g, sub).values()}
            assert set(asked) <= parts
    p = Submodule(3, 1, [pv("1 + s1*s2 + s2*s3 + s3^2", 3, 1)])
    assert _report_fields(coarsest_lattice(p, (5, 2))) == _reference_report(p, (5, 2))


def test_brute_force_certifies_each_part_once(monkeypatch):
    asked = []
    contains = WindowSpan.contains

    def counted(self, v):
        asked.append(v)
        return contains(self, v)

    monkeypatch.setattr(WindowSpan, "contains", counted)
    hexagonal = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    assert brute_force_coarsest(hexagonal, 16) == lattice_from_rows(2, [[1, 1], [0, 2]])
    # the three terms make at most 7 distinct parts: each term, each pair, all
    assert 0 < len(asked) == len(set(asked)) <= 7
    for p, want in zip(ORACLE_FIXTURES, ORACLE_LATTICES):
        asked.clear()
        assert brute_force_coarsest(p, 16) == want
        assert len(asked) == len(set(asked))


def test_soundness_always():
    rng = random.Random(83)
    for _ in range(12):
        n = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 2)):
            t = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(-2, 2) for _ in range(n))
                t[e] = Fraction(rng.randint(-3, 3))
            if t:
                gens.append(LaurentVec([LaurentPoly(n, t)]))
        p = Submodule(n, 1, gens)
        rep = coarsest_lattice(p)
        assert is_extension_from(p, rep.lattice)[0]


def test_passing_family_closed_under_meet():
    """If a system extends from two lattices it extends from their meet."""
    rng = random.Random(89)
    hits = 0
    while hits < 8:
        n = 2
        base = lattice_from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]
                                     for _ in range(2)])
        if base.rank == 0:
            continue
        # build a generator supported inside cosets of base
        offsets = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        pts = [base.basis.rows[0], tuple(0 for _ in range(n))]
        terms = {}
        for o in pts:
            terms[o] = Fraction(rng.randint(1, 3))
        p = Submodule(n, 1, [LaurentVec([LaurentPoly(n, terms)])])
        s1 = lattice_from_rows(n, list(base.basis.rows) + [offsets[0]])
        s2 = lattice_from_rows(n, list(base.basis.rows) + [offsets[1]])
        if not (is_extension_from(p, s1)[0] and is_extension_from(p, s2)[0]):
            continue
        both = meet(s1, s2)
        assert is_extension_from(p, both)[0]
        hits += 1


ORACLE_FIXTURES = [
    Submodule(1, 1, [pv("s1^3 - 1", 1, 1)]),
    Submodule(1, 1, [pv("s1^4 + s1^2 + 1", 1, 1)]),
    Submodule(2, 1, [pv("s1^2 - s2^2", 2, 1)]),
    Submodule(1, 2, [pv("[s1^2, 1]", 1, 2)]),
    Submodule(2, 1, [pv("1 + s1^2*s2^2", 2, 1), pv("s1^4 - 1", 2, 1)]),
]
# the oracle's answers before it cached its certificates
ORACLE_LATTICES = [
    lattice_from_rows(1, [[3]]),
    lattice_from_rows(1, [[2]]),
    lattice_from_rows(2, [[2, -2]]),
    lattice_from_rows(1, [[2]]),
    lattice_from_rows(2, [[2, 2], [0, 4]]),
]


def test_agreement_candidate_vs_oracle_fixture_family():
    for p in ORACLE_FIXTURES:
        rep = coarsest_lattice(p)
        assert brute_force_coarsest(p, 16) == rep.lattice


def test_maximal_sublattices_share_one_table_per_lattice_and_prime():
    """Equal lattices share one table, so a second call builds nothing, and
    a modulus given as an integral float reads the same table."""
    hexagonal = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    lat = lattice_from_rows(2, [[1, 1], [2, 0]])
    assert maximal_sublattices(lat, 2.0) == maximal_sublattices(lat, 2)
    _audit_table.cache_clear()
    coarsest_lattice(hexagonal)
    assert _audit_table.cache_info().misses == 4
    coarsest_lattice(Submodule(2, 1, [pv("s2^2 - s1*s2 + 3", 2, 1)]))
    got = maximal_sublattices(lattice_from_rows(2, [[1, 1], [0, 2]]), 7)
    assert _audit_table.cache_info().misses == 4
    assert got == _row_sublattices(lat, 7)
    assert [a for a, _ in _audit_table(lat, 7)] == list(_normalized_functionals(2, 7))
    # bounded: (p^r - 1)/(p - 1) lattices a table, 993 at rank 3 and p = 31
    assert isinstance(_audit_table.cache_info().maxsize, int)
    assert len(_audit_table(full_lattice(3), 31)) == 993


def test_maximal_sublattices_lists_are_fresh_copies():
    hexagonal = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    lat = support_difference_lattice(hexagonal)
    report = coarsest_lattice(hexagonal)
    want = [sub for sub, _ in report.audit]
    subs = maximal_sublattices(lat, 3)
    assert subs == want[3:7]
    subs[0] = zero_lattice(2)
    subs.append(full_lattice(2))
    again = maximal_sublattices(lat, 3)
    assert again == want[3:7] and again is not subs
    again.clear()
    assert [sub for sub, _ in report.audit] == want
    assert coarsest_lattice(hexagonal) == report
    assert [s for q in (2, 3, 5, 7) for s in maximal_sublattices(lat, q)] == want


def test_bad_audit_moduli_raise_on_every_call():
    """Only a checked prime reaches the table, so no error is cached."""
    lat = full_lattice(2)
    hexagonal = Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)])
    before = _audit_table.cache_info()
    for _ in range(3):
        for q, message in ((4, "not prime"), (1, "not prime"), (2.5, "not an integer"),
                           ("2", "not an integer")):
            with pytest.raises(ValueError, match=message):
                maximal_sublattices(lat, q)
            with pytest.raises(ValueError, match=message):
                coarsest_lattice(hexagonal, (3, q))
    after = _audit_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _row_candidates(n, bound):
    """Reference: the oracle's candidate rows, each put through lattice_from_rows."""
    out = [zero_lattice(n)]
    if n == 1:
        return out + [lattice_from_rows(1, [[d]]) for d in range(1, bound + 1)]
    for a in range(1, bound + 1):
        for d in range(1, bound // a + 1):
            for b in range(d):
                out.append(lattice_from_rows(2, [[a, b], [0, d]]))
    for x in range(-bound, bound + 1):
        for y in range(bound + 1):
            if (x, y) == (0, 0) or (y == 0 and x < 0):
                continue
            if gcd(abs(x), abs(y)) == 1:
                out.append(lattice_from_rows(2, [[x, y]]))
    return out


def test_oracle_candidates_match_row_reference():
    for n in (1, 2):
        for bound in range(1, MAX_ORACLE_INDEX + 1):
            assert _oracle_candidates(n, bound) == tuple(_row_candidates(n, bound))
    # 857 of full rank and 1296 lines, past the zero lattice
    assert len(_oracle_candidates(2, MAX_ORACLE_INDEX)) == 1 + 857 + 1296


def test_oracle_candidates_are_built_once_per_bound():
    """The candidates are a cached tuple, so a second oracle run with the
    same bound puts none of them through lattice_from_rows again."""
    first = _oracle_candidates(2, 16)
    assert isinstance(first, tuple) and _oracle_candidates(2, 16) is first
    assert _oracle_candidates.cache_info().maxsize == 2 * MAX_ORACLE_INDEX


GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _fresh_report(p, monkeypatch, bound=None):
    """Reference: the report with the audit's sublattices enumerated afresh
    on every call by lattice_from_rows, and the oracle run on candidates put
    through lattice_from_rows."""
    lat, rank, constant, audit = _reference_report(p)
    oracle = None
    if bound is not None:
        with monkeypatch.context() as m:
            m.setattr("ndsys.coarsest._oracle_candidates", _row_candidates)
            oracle = brute_force_coarsest(p, bound) == lat
    return CoarsestReport(lat, rank, constant, audit, oracle)


def test_shared_tables_match_fresh_enumeration(monkeypatch):
    """The whole report, audit order included, on the golden systems with
    the oracle and on query-mix systems of a fixed seed, twice each, so the
    second call reads tables the first one built."""
    goldens = [parse_system(path.read_text()).submodule()
               for path in sorted(GOLDEN.glob("*.system"))]
    for p in goldens:
        want = _fresh_report(p, monkeypatch, 16)
        for _ in range(2):
            assert coarsest_lattice(p, oracle_index_bound=16) == want
    query_mix_inputs = runpy.run_path(str(WORKLOADS))["query_mix_inputs"]
    specs = query_mix_inputs(ndsys, 7)[:30]
    assert len({s["k"] for s in specs}) == 2
    for spec in specs:
        p = Submodule(2, spec["k"], spec["gens"])
        want = _fresh_report(p, monkeypatch)
        for _ in range(2):
            assert coarsest_lattice(p) == want
