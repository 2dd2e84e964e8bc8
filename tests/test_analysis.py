import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import ndsys.analysis
from ndsys import groebner
from ndsys.intlat import diagonal_lattice, lattice_from_rows
from ndsys.laurent import LaurentPoly, LaurentVec, parse_vector
from ndsys.groebner import (InvariantError, Submodule, eliminate, groebner_basis, member,
                            submodule_contains, submodule_equal, syzygies)
from ndsys.sublattice import contract, extend
from ndsys.analysis import (analyze, decomposition, degree_of_autonomy,
                            image_representation, is_autonomous,
                            is_controllable, rank_over_fractions,
                            torsion_closure, transfer_checks)
from ndsys.trajectories import box_window, window_solutions

pv = parse_vector


def _cross_multiplied_rank(p: Submodule) -> int:
    """The rank over fractions by cross-multiplied Gaussian elimination on the
    generator rows, as analysis computed it before it read the rank off the
    canonical basis; kept here as the reference."""
    rows = [list(g.entries) for g in p.generators]
    k = p.k
    rank = 0
    col = 0
    while rows and col < k:
        pivot = next((i for i, r in enumerate(rows) if not r[col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        prow = rows.pop(pivot)
        rank += 1
        # cross-multiplied elimination keeps everything polynomial
        rows = [[prow[col] * r[j] - r[col] * prow[j] for j in range(k)]
                for r in rows if not r[col].is_zero()] + \
               [r for r in rows if r[col].is_zero()]
        rows = [r for r in rows if any(not e.is_zero() for e in r)]
        col += 1
    return rank


def _subset_loop_degree(p: Submodule) -> int:
    """The degree of autonomy by one elimination per variable subset, largest
    first, as analysis computed it before it read the degree off the leading
    exponents; kept here as the reference, with the cross-multiplied rank."""
    n, k = p.nvars, p.k
    for size in range(n, -1, -1):
        for keep in combinations(range(n), size):
            q = eliminate(p, [i for i in range(n) if i not in keep])
            if _cross_multiplied_rank(q) < k:
                return n - size
    return n


def _small_poly(rng, n, terms):
    return LaurentPoly(n, {tuple(rng.randint(-1, 1) for _ in range(n)):
                           Fraction(rng.choice([1, -1, 2, 3]))
                           for _ in range(rng.randint(0, terms))})


def _module_with_dependent_rows(rng, n, k):
    """Up to three random generators, and half the time one more that is a
    polynomial combination of them."""
    gens = [LaurentVec([_small_poly(rng, n, 2) for _ in range(k)])
            for _ in range(rng.randint(0, 3))]
    if gens and rng.random() < 0.5:
        v = gens[0].scale_poly(_small_poly(rng, n, 2))
        for g in gens[1:]:
            v = v + g.scale_poly(_small_poly(rng, n, 1))
        gens.append(v)
    return Submodule(n, k, gens)


def test_rank_over_fractions_examples():
    assert rank_over_fractions(Submodule(2, 2, [pv("[s1, s2]", 2, 2)])) == 1
    assert rank_over_fractions(Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2),
                                                pv("[0, s1 - 1]", 1, 2)])) == 2
    assert rank_over_fractions(Submodule(1, 2, [pv("[1, s1]", 1, 2),
                                                pv("[s1, s1^2]", 1, 2)])) == 1
    assert rank_over_fractions(Submodule(2, 1, [])) == 0


def test_rank_and_degree_match_cross_multiplied_elimination():
    """Fixed-seed differential test: the rank and the degree of autonomy read
    off the canonical basis's leading exponents equal the cross-multiplied
    elimination's rank and the subset loop's degree, for n 0-3 and k 1-3,
    zero modules and dependent rows included."""
    seen = set()
    degrees = set()
    for seed in range(200):
        rng = random.Random(1000 + seed)
        n, k = rng.randint(0, 3), rng.randint(1, 3)
        p = _module_with_dependent_rows(rng, n, k)
        rank, degree = rank_over_fractions(p), degree_of_autonomy(p)
        assert rank == _cross_multiplied_rank(p), seed
        assert degree == _subset_loop_degree(Submodule(n, k, p.generators)), seed
        seen.add((n, k, rank))
        degrees.add((n, degree))
    # every rank 0..k was met for every shape, and every degree 0..n for every n
    assert seen == {(n, k, r) for n in range(4) for k in range(1, 4) for r in range(k + 1)}
    assert degrees == {(n, d) for n in range(4) for d in range(n + 1)}


def test_degree_of_an_analyzed_module_runs_no_buchberger(monkeypatch):
    """degree_of_autonomy and rank_over_fractions read the leading exponents
    of the canonical basis a module already holds; a fresh module of the same
    generators needs a Buchberger run."""
    rng = random.Random(131)
    plain = groebner.buchberger
    runs = []

    def counting(*args):
        runs.append(args)
        return plain(*args)

    for _ in range(12):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        p = _module_with_dependent_rows(rng, n, k)
        groebner_basis(p)
        fresh = Submodule(n, k, p.generators)
        with monkeypatch.context() as m:
            m.setattr(groebner, "buchberger", counting)
            degree, rank = degree_of_autonomy(p), rank_over_fractions(p)
            assert not runs
            assert (degree_of_autonomy(fresh), rank_over_fractions(fresh)) == (degree, rank)
            assert runs or not fresh.generators
        runs.clear()


def test_torsion_closure_examples():
    p = Submodule(2, 2, [pv("[s1, s2]", 2, 2)])
    assert submodule_equal(torsion_closure(p), p)

    pe = Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2)])
    assert submodule_equal(torsion_closure(pe), Submodule(1, 2, [pv("[1, 0]", 1, 2)]))

    z = Submodule(2, 1, [])
    assert torsion_closure(z).is_zero_module()


def test_torsion_closure_idempotent_and_monotone():
    rng = random.Random(97)
    for _ in range(10):
        n = rng.randint(1, 2)
        k = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 2)):
            entries = []
            for _ in range(k):
                t = {}
                for _ in range(rng.randint(0, 2)):
                    e = tuple(rng.randint(-1, 2) for _ in range(n))
                    t[e] = Fraction(rng.randint(-2, 2))
                entries.append(LaurentPoly(n, t))
            gens.append(LaurentVec(entries))
        p = Submodule(n, k, gens)
        p0 = torsion_closure(p)
        assert submodule_contains(p0, p)
        assert submodule_equal(torsion_closure(p0), p0)


def test_controllability_examples():
    assert is_controllable(Submodule(2, 2, [pv("[s1, s2]", 2, 2)]))
    assert not is_controllable(Submodule(1, 1, [pv("s1 - 1", 1, 1)]))
    assert is_controllable(Submodule(2, 1, []))


def test_autonomy_examples():
    assert is_autonomous(Submodule(1, 1, [pv("s1 - 1", 1, 1)]))
    assert not is_autonomous(Submodule(2, 2, [pv("[s1, s2]", 2, 2)]))
    assert not is_autonomous(Submodule(1, 1, []))


def test_image_representation_gradients():
    p = Submodule(2, 2, [pv("[s1, s2]", 2, 2)])
    cols = image_representation(p)
    # P . R = 0 is asserted inside; check the shape and a unit-multiple match
    assert len(cols) == 1
    c = cols[0]
    lead = c.entries[0]
    # normalizing the first entry to -s2 must give exactly (-s2, s1)
    assert not lead.is_zero()


def test_image_representation_identity_and_zero():
    eye = image_representation(Submodule(2, 3, []))
    assert len(eye) == 3
    for j, col in enumerate(eye):
        assert col == LaurentVec.unit(2, 3, j)
    unit = image_representation(Submodule(1, 1, [pv("1", 1, 1)]))
    assert len(unit) == 1 and unit[0].is_zero()


def test_image_representation_rejects_torsion():
    with pytest.raises(ValueError):
        image_representation(Submodule(1, 1, [pv("s1 - 1", 1, 1)]))


def test_decomposition_torsion_quotient():
    p = Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2)])
    p0, t = decomposition(p)
    assert submodule_equal(p0, Submodule(1, 2, [pv("[1, 0]", 1, 2)]))
    assert submodule_equal(t, Submodule(1, 1, [pv("s1 - 1", 1, 1)]))


def test_decomposition_controllable_quotient_trivial():
    p = Submodule(2, 2, [pv("[s1, s2]", 2, 2)])
    p0, t = decomposition(p)
    assert submodule_equal(p0, p)
    # quotient P0/P is zero: the presentation contains the unit relations
    assert submodule_equal(t, Submodule(2, 1, [pv("1", 2, 1)]))


def test_decomposition_full_rank_autonomous():
    p = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    p0, t = decomposition(p)
    assert submodule_equal(p0, Submodule(1, 1, [pv("1", 1, 1)]))
    assert submodule_equal(t, Submodule(1, 1, [pv("s1 - 1", 1, 1)]))


def test_degree_of_autonomy_ladder():
    assert degree_of_autonomy(Submodule(2, 1, [pv("s1 - 1", 2, 1)])) == 1
    assert degree_of_autonomy(Submodule(2, 1, [pv("s1 - 1", 2, 1),
                                               pv("s2 - 1", 2, 1)])) == 2
    assert degree_of_autonomy(Submodule(2, 1, [])) == 0
    assert degree_of_autonomy(Submodule(2, 2, [pv("[s1, s2]", 2, 2)])) == 0
    assert degree_of_autonomy(Submodule(1, 1, [pv("1", 1, 1)])) == 1
    hex3 = "1 + s1*s2 + s2*s3 + s3^2"
    assert degree_of_autonomy(Submodule(3, 1, [pv(hex3, 3, 1)])) == 1
    assert degree_of_autonomy(Submodule(3, 1, [pv(g, 3, 1)
                                               for g in (hex3, "s1 - 1", "s2 - 1")])) == 3
    assert degree_of_autonomy(Submodule(3, 2, [pv("[s1 - 1, 0]", 3, 2),
                                               pv("[0, s2*s3 - 1]", 3, 2)])) == 1
    hex4 = pv("1 + s1*s2 + s2*s3 + s3*s4 + s4^2", 4, 1)
    assert degree_of_autonomy(Submodule(4, 1, [hex4])) == 1
    assert degree_of_autonomy(Submodule(4, 1, [hex4, pv("s1 - s2*s4 + 2", 4, 1)])) == 2
    assert degree_of_autonomy(Submodule(4, 1, [pv("1", 4, 1)])) == 4
    assert degree_of_autonomy(Submodule(4, 1, [])) == 0


def test_degree_matches_restriction_degree():
    """Full-rank diagonal restriction preserves the degree of autonomy."""
    s = diagonal_lattice([2, 2])
    for gens in (["s1 - 1"], ["s1 - 1", "s2 - 1"], ["s1^2 - 1", "s2^2 - 1"]):
        p = Submodule(2, 1, [pv(g, 2, 1) for g in gens])
        q = contract(p, s)
        assert degree_of_autonomy(p) == degree_of_autonomy(q.module)


def test_transfer_checks_fixtures():
    assert transfer_checks(Submodule(2, 2, [pv("[s1, s2]", 2, 2)]),
                           diagonal_lattice([2, 2])).all_ok
    assert transfer_checks(Submodule(1, 1, [pv("s1^2 - 1", 1, 1)]),
                           lattice_from_rows(1, [[2]])).all_ok
    assert transfer_checks(Submodule(2, 1, []),
                           diagonal_lattice([2, 2])).all_ok
    assert transfer_checks(Submodule(2, 1, [pv("1 + s1*s2 + s2^2", 2, 1)]),
                           lattice_from_rows(2, [[1, 1], [2, 0]])).all_ok


def test_annihilator_witness_for_torsion_quotient():
    """P0/P is killed by a nonzero polynomial while A^k/P0 has no such
    annihilator unless P0 is everything."""
    p = Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2)])
    p0, t = decomposition(p)
    # (s1 - 1) annihilates the quotient: (s1-1) * q in P for all q in P0
    ann = pv("s1 - 1", 1, 1).entries[0]
    for q in p0.generators:
        assert member(q.scale_poly(ann), p)
    # no scalar kills A^2/P0: e2 has no multiple inside P0
    e2 = pv("[0, 1]", 1, 2)
    assert not member(e2.scale_poly(ann), p0) or submodule_equal(
        torsion_closure(p0), p0)
    assert submodule_equal(torsion_closure(p0), p0)


def test_patching_dimension_additivity():
    """For a controllable system, far-apart windows impose independent
    constraints: the solution dimension over the union is the product."""
    p = Submodule(2, 2, [pv("[s1, s2]", 2, 2)])
    w1 = box_window([(0, 2), (0, 2)])
    d1 = window_solutions(p, w1).dimension
    w2 = box_window([(10, 12), (10, 12)])
    d2 = window_solutions(p, w2).dimension
    from ndsys.trajectories import explicit_window, Window
    union = explicit_window(list(w1.points) + list(w2.points))
    du = window_solutions(p, union).dimension
    assert du == d1 + d2


def test_analyze_bundles_everything():
    rep = analyze(Submodule(2, 2, [pv("[s1, s2]", 2, 2)]))
    assert rep.rank_over_fractions == 1
    assert rep.is_controllable and not rep.is_autonomous
    assert rep.image_rep is not None
    assert rep.degree_of_autonomy == 0
    rep2 = analyze(Submodule(1, 1, [pv("s1 - 1", 1, 1)]))
    assert rep2.is_autonomous and not rep2.is_controllable
    assert rep2.image_rep is None
    assert rep2.degree_of_autonomy == 1


def test_analyze_makes_one_relation_pass(monkeypatch):
    """Column relations and their row kernel: two syzygy computations for a
    controllable system of rank 1 < k, the closure shared by every answer and
    the presentation of P0/P = 0 taken in closed form."""
    calls = []
    real = ndsys.analysis.syzygies

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ndsys.analysis, "syzygies", counting)
    p = Submodule(2, 2, [pv("[s1, s2]", 2, 2)])
    rep = analyze(p)
    assert len(calls) == 2
    assert rep.is_controllable
    assert rep.image_rep == image_representation(p)


def test_full_rank_analyze_runs_no_relation_pass(monkeypatch):
    """Rank k gives P0 = A^k and T = P in closed form, so analyze runs no
    relation pass beyond what P's own canonical basis needs: none for one
    generator or a unimodular P, whose bases are saturated at once."""
    calls = []
    real_syz, real_basis = ndsys.analysis.syzygies, groebner.syzygy_basis

    def spy(real):
        return lambda *args: calls.append(real) or real(*args)

    ideal = Submodule(1, 1, [pv("s1 - 1", 1, 1)])
    unimodular = Submodule(2, 2, [pv("[1, s1]", 2, 2), pv("[s2, 1 + s1*s2]", 2, 2)])
    torsion = Submodule(1, 2, [pv("[s1 - 1, 0]", 1, 2), pv("[0, s1 + 1]", 1, 2)])
    groebner_basis(torsion)
    monkeypatch.setattr(ndsys.analysis, "syzygies", spy(real_syz))
    monkeypatch.setattr(groebner, "syzygy_basis", spy(real_basis))
    reps = [analyze(p) for p in (ideal, unimodular, torsion)]
    assert not calls
    assert [(r.rank_over_fractions, r.is_controllable, r.is_autonomous) for r in reps] == \
        [(1, False, True), (2, True, True), (2, False, True)]
    assert reps[2].decomposition[1] is torsion


def test_standalone_torsion_closure_leaves_the_module_unsaturated(monkeypatch):
    """torsion_closure keeps the relation route, which reads no rank: on an
    n=3 ideal whose saturation takes about 30 s it returns at once, and P's
    canonical basis is never asked for."""
    p = Submodule(3, 1, [pv("2*s2^2*s3^-2 + 2*s2*s3^-1 + s1^-1*s2^-2*s3^-1", 3, 1),
                         pv("s1^-1*s2 + s1^-2*s2^2*s3^-1 + s1*s2^-1*s3^-2", 3, 1)])
    asked = []
    real = Submodule.saturated_vpolys

    def spy(self):
        asked.append(self)
        return real(self)

    monkeypatch.setattr(Submodule, "saturated_vpolys", spy)
    t0 = time.perf_counter()
    p0 = torsion_closure(p)
    assert time.perf_counter() - t0 < 1.0
    assert p0.generators == (pv("1", 3, 1),)
    assert all(m is not p for m in asked) and p._sat_cache is None


def _relation_closure(p: Submodule) -> tuple[list[LaurentVec], Submodule]:
    """The column relations and the torsion closure by the relation route
    for every P, as analyze took them before it read the rank first; kept
    here as the reference."""
    n, k = p.nvars, p.k
    if not p.generators:
        return [LaurentVec.unit(n, k, j) for j in range(k)], Submodule(n, k, [])
    gens = list(p.generators)
    cols = list(syzygies([LaurentVec([g.entries[j] for g in gens]) for j in range(k)],
                         n, len(gens)).generators)
    cols = cols or [LaurentVec([LaurentPoly(n) for _ in range(k)])]
    rows = [c for c in cols if not c.is_zero()]
    if not rows:
        return cols, Submodule(n, k, [LaurentVec.unit(n, k, j) for j in range(k)])
    return cols, syzygies([LaurentVec([r.entries[j] for r in rows]) for j in range(k)],
                          n, len(rows))


def _relation_presentation(p: Submodule, p0: Submodule) -> Submodule:
    """T with P0/P = A^m / T by one relation pass over P0's and P's
    generators, the route every P took before the closed forms."""
    m = len(p0.generators)
    if m == 0:
        return Submodule(p.nvars, 1, [])
    rel = syzygies(list(p0.generators) + list(p.generators), p.nvars, p.k)
    return Submodule(p.nvars, m, [LaurentVec(v.entries[:m]) for v in rel.generators])


def _analysis_digest(p: Submodule, closure, presentation) -> tuple:
    """Every answer of analyze, the canonical bases of P0 and T included."""
    rank = rank_over_fractions(p)
    cols, p0 = closure(p)
    ctl = submodule_equal(p, p0)
    t = presentation(p, p0)
    return (rank, ctl, rank == p.k, degree_of_autonomy(p), cols if ctl else None,
            t.k, groebner_basis(p0), groebner_basis(t))


def test_closed_forms_match_the_relation_route():
    """Fixed-seed differential test: analyze, which takes P0 and T in closed
    form for full-rank and controllable P, gives every answer the relation
    route gives, over random n 0-2, k 1-3 modules of all three kinds (a
    generator scaled by s1 - 1 or s1 + 2 brings torsion) and fixtures for the
    zero module, n = 0 and a k=3 module of rank 2 with torsion."""
    fixtures = [Submodule(2, 2, []), Submodule(0, 2, [pv("[2, 3]", 0, 2)]),
                Submodule(1, 3, [pv("[s1 - 1, 0, 0]", 1, 3), pv("[0, s1 - 1, 0]", 1, 3)])]
    kinds = set()
    for seed in range(150):
        rng = random.Random(2800 + seed)
        n, k = rng.randint(0, 2), rng.randint(1, 3)
        gens = [LaurentVec([_small_poly(rng, n, 2) for _ in range(k)])
                for _ in range(rng.randint(0, 3))]
        if gens and n and rng.random() < 0.5:
            torsion = {(0,) * n: rng.choice([-1, 2]), (1,) + (0,) * (n - 1): 1}
            gens[0] = gens[0].scale_poly(LaurentPoly(n, torsion))
        fixtures.append(Submodule(n, k, gens))
    for i, p in enumerate(fixtures):
        rep = analyze(p)
        p0, t = rep.decomposition
        got = (rep.rank_over_fractions, rep.is_controllable, rep.is_autonomous,
               rep.degree_of_autonomy, rep.image_rep, t.k, groebner_basis(p0), groebner_basis(t))
        # fresh copies, so that neither side reads what analyze cached on p
        fresh = Submodule(p.nvars, p.k, p.generators)
        assert got == _analysis_digest(fresh, _relation_closure, _relation_presentation), i
        p0, t = decomposition(Submodule(p.nvars, p.k, p.generators))
        assert (t.k, groebner_basis(p0), groebner_basis(t)) == got[-3:], i
        kinds.add((rep.is_controllable, rep.is_autonomous))
    # controllable, full rank, both (P = A^k) and neither
    assert kinds == {(True, False), (False, True), (True, True), (False, False)}


def test_invariant_failure_raises_typed_error(monkeypatch):
    monkeypatch.setattr(LaurentVec, "dot",
                        lambda self, other: LaurentPoly.constant(self.nvars, 1))
    with pytest.raises(InvariantError):
        image_representation(Submodule(2, 2, [pv("[s1, s2]", 2, 2)]))
