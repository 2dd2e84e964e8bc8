import random
from fractions import Fraction

import pytest

from ndsys.intlat import (full_lattice, lattice_from_rows, meet, zero_lattice)
from ndsys.laurent import LaurentPoly, LaurentVec, parse_vector
from ndsys.groebner import InvariantError, Submodule
from ndsys.sublattice import is_extension_from
from ndsys.coarsest import (brute_force_coarsest, coarsest_lattice,
                            is_constant_module, maximal_sublattices,
                            support_difference_lattice)

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
    monkeypatch.setattr("ndsys.coarsest.is_extension_from", lambda p, s: (True, None))
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


def test_agreement_candidate_vs_oracle_fixture_family():
    fixtures = [
        Submodule(1, 1, [pv("s1^3 - 1", 1, 1)]),
        Submodule(1, 1, [pv("s1^4 + s1^2 + 1", 1, 1)]),
        Submodule(2, 1, [pv("s1^2 - s2^2", 2, 1)]),
        Submodule(1, 2, [pv("[s1^2, 1]", 1, 2)]),
        Submodule(2, 1, [pv("1 + s1^2*s2^2", 2, 1), pv("s1^4 - 1", 2, 1)]),
    ]
    for p in fixtures:
        rep = coarsest_lattice(p)
        assert brute_force_coarsest(p, 16) == rep.lattice
