"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is built from the freshly imported ``ndsys`` package, the checkout
root and a seed.  It yields a ``Plan``: the fixed list of operations that one
pass runs in order, plus an optional cross-check that runs once per run.

Every operation has three parts.  ``run`` is the only timed part and calls the
public ``ndsys`` API (or ``ndsys.cli.main``) through module attributes, so the
tracer's rebinding reaches it.  ``answer`` turns the raw result into a
canonical, comparable value, and ``verify`` checks that value against an
independent reference; neither is timed.  Operations of one pass share a state
dict, which is how a query reuses the basis that the pass built earlier.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

HEX = "1 + s1*s2 + s2^2"
HEX_LATTICE = [[1, 1], [2, 0]]
K2 = ["[s1 - 1, s2 + 1]", "[s2^2 - s1, s1*s2 - 3]"]
FIB = "s1^2 - s1 - 1"


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    answer: Callable[[Any, dict], Any] = lambda raw, st: raw
    verify: Callable[[Any, dict], str | None] = lambda ans, st: None
    cap_s: float = 30.0


@dataclass
class Plan:
    ops: list[Op]
    cross_check: Callable[[], str | None] | None = None
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Any, Path, int], Plan]
    # Wrapped functions the workload is meant to exercise.
    expected_spans: tuple[str, ...]


def _expect(got, want) -> str | None:
    return None if got == want else f"expected {want!r}, got {got!r}"


def _load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 7]))


def _sign(rng: random.Random) -> int:
    return rng.choice([1, -1])


def _vec_at(v, z) -> list[Fraction]:
    """Evaluate a Laurent vector at a point of (Q*)^n."""
    out = []
    for p in v.entries:
        acc = Fraction(0)
        for e, c in p.terms.items():
            term = c
            for zi, ei in zip(z, e):
                term *= zi ** ei
            acc += term
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# contract-ladder: contraction followed by the canonical basis of the result

LADDER = [
    # (case, system, lattice basis rows); the index-4 rungs, then up the
    # ladder through the cliff at 5Z x 5Z and the non-diagonal index 9.
    ("hex 2Zx2Z", "hex", [[2, 0], [0, 2]]),
    ("hex 4Zx1", "hex", [[4, 0], [0, 1]]),
    ("hex 1x4Z", "hex", [[1, 0], [0, 4]]),
    ("hex [[1,1],[0,4]]", "hex", [[1, 1], [0, 4]]),
    ("hex [[2,1],[0,2]]", "hex", [[2, 1], [0, 2]]),
    ("hex 5Zx1", "hex", [[5, 0], [0, 1]]),
    ("hex 1x5Z", "hex", [[1, 0], [0, 5]]),
    ("hex 6Zx1", "hex", [[6, 0], [0, 1]]),
    ("hex 3Zx2Z", "hex", [[3, 0], [0, 2]]),
    ("hex 2Zx3Z", "hex", [[2, 0], [0, 3]]),
    ("hex 8Zx1", "hex", [[8, 0], [0, 1]]),
    ("hex 1x7Z", "hex", [[1, 0], [0, 7]]),
    ("hex 1x8Z", "hex", [[1, 0], [0, 8]]),
    ("hex 12Zx1", "hex", [[12, 0], [0, 1]]),
    ("hex 3Zx3Z", "hex", [[3, 0], [0, 3]]),
    ("hex 4Zx4Z", "hex", [[4, 0], [0, 4]]),
    ("hex 5Zx5Z", "hex", [[5, 0], [0, 5]]),
    ("hex [[1,2],[0,9]]", "hex", [[1, 2], [0, 9]]),
    ("k2 2Zx2Z", "k2", [[2, 0], [0, 2]]),
    ("k2 3Zx1", "k2", [[3, 0], [0, 1]]),
] + [(f"fib {2 ** j}Z", "fib", [[2 ** j]]) for j in range(1, 6)]

# Cases of a second or more run once per pass, every other case LIGHT_REPEATS
# times, after them.  A pass lasts about 10 s, so a run has only 3 or 4; the
# repeats give each light case 24 or more samples per run, taken at different
# moments, and op_p50_ms and op_tail_ms (p95) then rest on many samples
# instead of on one slow or fast moment of the host.
HEAVY = ("hex 5Zx5Z", "hex [[1,2],[0,9]]", "k2 2Zx2Z", "k2 3Zx1")
LIGHT_REPEATS = 8


def named_systems(nd) -> dict:
    """The three named systems as (n, k, generator list)."""
    return {
        "hex": (2, 1, [nd.parse_vector(HEX, 2, 1)]),
        "k2": (2, 2, [nd.parse_vector(t, 2, 2) for t in K2]),
        "fib": (1, 1, [nd.parse_vector(FIB, 1, 1)]),
    }


def contraction_answer(nd, basis) -> list[str]:
    return [nd.vector_to_str(g, "t") for g in basis]


def build_contract_ladder(nd, root: Path, seed: int) -> Plan:
    rng = random.Random(seed)
    ref = _load_reference()["contract"]
    systems = named_systems(nd)
    # The seed rescales every generator (the canonical basis is monic, so the
    # answer does not change).  The order of the ladder is fixed: an operation
    # costs more early in a pass than late, so a seeded order made each
    # operation's time depend on the seed.
    scales = {name: [_scale(rng) for _ in gens] for name, (_, _, gens) in systems.items()}
    scaled = {name: (n, k, [g.scale(c) for g, c in zip(gens, scales[name])])
              for name, (n, k, gens) in systems.items()}

    def op(case, system, rows):
        n, k, gens = scaled[system]
        lat = nd.lattice_from_rows(n, rows)
        return Op(
            name=f"contract {case}",
            run=lambda st: nd.groebner_basis(nd.contract(nd.Submodule(n, k, gens), lat).module),
            answer=lambda raw, st: contraction_answer(nd, raw),
            verify=lambda ans, st: _expect(ans, ref[case]),
            cap_s=60.0)

    n, k, gens = scaled["hex"]
    box = rng.randint(-10, 10), rng.randint(-10, 10)

    def cross_check():
        # restriction_check recomputes the 2Z x 2Z contraction and compares it
        # with the window oracle, independently of the reference answer.
        bounds = [(box[0], box[0] + 20), (box[1], box[1] + 20)]
        ok = nd.restriction_check(nd.Submodule(n, k, gens),
                                  nd.lattice_from_rows(2, [[2, 0], [0, 2]]), bounds)
        return None if ok is True else "restriction_check rejected hex on 2Z x 2Z"

    cases = ([c for c in LADDER if c[0] in HEAVY]
             + [c for c in LADDER if c[0] not in HEAVY] * LIGHT_REPEATS)
    return Plan([op(*c) for c in cases], cross_check,
                {"scales": {name: [str(c) for c in cs] for name, cs in scales.items()}})


# ---------------------------------------------------------------------------
# window-oracle: exact linear algebra on finite windows, no Groebner basis

# Many window sizes, and the certificate queries batched into one operation:
# the median operation is then a solve of about 0.2 s.  Operations of a few
# milliseconds swing far more with contention from other tenants of the host.
HEX_SIDES = (13, 15, 17, 19, 21, 25, 29, 41)
K2_SIDES = (9, 11, 15)
RESTRICTION_SIDE = 21
SPAN_SIDE = 21
SPAN_QUERIES = 10


def _box(rng: random.Random, side: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(2):
        lo = rng.randint(-10, 10)
        out.append((lo, lo + side - 1))
    return out


def _hex_combination(nd, rng, hexv, box, terms: int):
    """A member of the hex ideal whose support lies inside the box."""
    (x0, x1), (y0, y1) = box
    v = None
    for _ in range(terms):
        # hex has support {(0,0), (1,1), (0,2)}
        shift = (rng.randint(x0, x1 - 1), rng.randint(y0, y1 - 2))
        t = hexv.shift(shift).scale(rng.choice([1, -1, 2, -2, 3]))
        v = t if v is None else v + t
    return v


def build_window_oracle(nd, root: Path, seed: int) -> Plan:
    rng = random.Random(seed)
    ref = _load_reference()["window"]
    # Exact linear algebra costs more on larger rationals, so the seed moves
    # the windows and picks the queries but only flips the sign of hex.
    hexv = nd.parse_vector(HEX, 2, 1).scale(_sign(rng))
    k2 = [nd.parse_vector(t, 2, 2) for t in K2]
    ops = []

    def solutions(name, n, k, gens, bounds, want):
        ops.append(Op(
            name=name,
            run=lambda st: nd.window_solutions(nd.Submodule(n, k, gens), nd.box_window(bounds)),
            answer=lambda raw, st: [raw.dimension, len(raw.index)],
            verify=lambda ans, st: _expect(ans[0], want)))

    boxes = {}
    for side in HEX_SIDES:
        boxes[f"hex {side}"] = bounds = _box(rng, side)
        # closed form of the hex solution space on a side x side box
        solutions(f"window hex {side}^2", 2, 1, [hexv], bounds, 3 * side - 2)
    for side in K2_SIDES:
        boxes[f"k2 {side}"] = bounds = _box(rng, side)
        solutions(f"window k2 {side}^2", 2, 2, k2, bounds, ref[f"k2 {side}"])

    rbounds = boxes["restriction"] = _box(rng, RESTRICTION_SIDE)
    hex_lattice = nd.lattice_from_rows(2, HEX_LATTICE)
    ops.append(Op(
        name=f"restriction_check hex {RESTRICTION_SIDE}^2",
        run=lambda st: nd.restriction_check(nd.Submodule(2, 1, [hexv]), hex_lattice, rbounds),
        verify=lambda ans, st: _expect(ans, True)))

    sbounds = boxes["span"] = _box(rng, SPAN_SIDE)

    def build_span(st):
        st["span"] = nd.WindowSpan([hexv], nd.box_window(sbounds), 1)
        return st["span"]

    ops.append(Op(
        name=f"WindowSpan hex {SPAN_SIDE}^2",
        run=build_span,
        answer=lambda raw, st: raw.builder.rank,
        # every shift of hex that fits is independent of the others
        verify=lambda ans, st: _expect(ans, (SPAN_SIDE - 1) * (SPAN_SIDE - 2))))

    check_module = nd.Submodule(2, 1, [hexv])
    queries = []
    for i in range(SPAN_QUERIES):
        v = _hex_combination(nd, rng, hexv, sbounds, 6)
        is_member = i % 2 == 0
        if not is_member:
            # nonzero at (-2, 1), where hex and so its whole ideal vanish
            e = (rng.randint(*sbounds[0]), rng.randint(*sbounds[1]))
            v = v + nd.LaurentVec([nd.LaurentPoly.monomial(2, e, _sign(rng))])
        queries.append((v, is_member))
    rng.shuffle(queries)

    def verify_certificates(certified, st):
        for i, (ok, (v, is_member)) in enumerate(zip(certified, queries)):
            if ok != is_member:
                return f"query {i}: certified={ok} for a vector built with member={is_member}"
            if ok and not nd.member(v, check_module):
                return f"query {i}: a vector with a window certificate is not a member"
        return None

    ops.append(Op(name=f"WindowSpan.contains x{SPAN_QUERIES}",
                  run=lambda st: [st["span"].contains(v) for v, _ in queries],
                  verify=verify_certificates))
    return Plan(ops, None, {"boxes": boxes,
                            "queries": [nd.vector_to_str(v) for v, _ in queries]})


# ---------------------------------------------------------------------------
# query-mix: golden CLI runs and many small systems answering queries

GOLDEN_RUNS = [
    (["coarsest", "hexagonal.system", "--oracle"], "hexagonal_coarsest.json"),
    (["contract", "hexagonal.system", "--lattice", "hex", "--oracle"],
     "hexagonal_contract.json"),
    (["analyze", "pair.system", "--check-transfer", "two"], "pair_analyze.json"),
    (["extend", "fibonacci.system"], "fibonacci_extend.json"),
    (["smith", "skew.system", "--lattice", "skew"], "skew_smith.json"),
    (["galois", "hexagonal.system", "--lattice", "hex", "--moduli", "2,2"],
     "hexagonal_galois.json"),
]

# (k, generators, terms per random polynomial, largest exponent, systems).
# Two-generator systems keep exponents at most 1: with exponents up to 2 their
# build cost is heavy-tailed, and the pass time would then depend on the seed.
# 126 systems: with fewer, the p99 latency, which falls among the systems'
# 5 ms builds and analyses, moved with the seed; above 3333 operations per
# pass the tail would move to p99.9.
SHAPES = ((1, 1, 3, 2, 36), (2, 1, 2, 2, 36), (1, 2, 3, 1, 36), (2, 2, 2, 1, 18))
MEMBER_QUERIES = 20
EXTENSION_LATTICES = ([[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 2]],
                      [[3, 0], [0, 1]], [[1, 0], [0, 3]], [[1, 1], [0, 3]])
ZERO_COORDS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2))


def _random_poly(nd, rng, nterms: int, emax: int):
    terms = {}
    while len(terms) < nterms:
        terms[(rng.randint(0, emax), rng.randint(0, emax))] = Fraction(rng.choice([1, -1, 2, -2, 3]))
    return nd.LaurentPoly(2, terms)


def _random_monomial(nd, rng):
    return nd.LaurentPoly.monomial(2, (rng.randint(-1, 1), rng.randint(-1, 1)), _scale(rng))


def random_system(nd, rng, k: int, m: int, nterms: int, emax: int) -> dict:
    """A small system whose generators all satisfy one linear condition at a
    rational point z: lam . g(z) = 0.  Evaluation at z is a ring map, so every
    member satisfies it too, and a vector that breaks it is not a member."""
    while True:
        z = (rng.choice(ZERO_COORDS), rng.choice(ZERO_COORDS))
        lam = [Fraction(1)] + [Fraction(rng.choice([1, -1, 2, 3])) for _ in range(k - 1)]
        gens = []
        for _ in range(m):
            entries = [_random_poly(nd, rng, nterms, emax) for _ in range(k)]
            val = sum(l * x for l, x in zip(lam, _vec_at(nd.LaurentVec(entries), z)))
            entries[0] = entries[0] - nd.LaurentPoly.constant(2, val)
            gens.append(nd.LaurentVec(entries))
        if all(not g.is_zero() for g in gens):
            break
    queries = []
    for i in range(MEMBER_QUERIES):
        while True:
            v = None
            for g in gens:
                for _ in range(3):
                    t = g.scale_poly(_random_monomial(nd, rng))
                    v = t if v is None else v + t
            if i % 2:
                bump = [_random_monomial(nd, rng)] + [nd.LaurentPoly(2)] * (k - 1)
                v = v + nd.LaurentVec(bump)
            if not v.is_zero():
                break
        queries.append((v, i % 2 == 0))
    rng.shuffle(queries)
    return {"k": k, "gens": gens, "queries": queries,
            "lattice": rng.choice(EXTENSION_LATTICES)}


def _cli_op(nd, argv, text, expected) -> Op:
    def run(st):
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out):
                code = nd.cli.main(argv)
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    return Op(name="cli " + " ".join(argv), run=run,
              verify=lambda ans, st: None if ans == (0, expected)
              else f"exit {ans[0]} or output differs from the golden report")


def _system_ops(nd, idx: int, spec: dict) -> list[Op]:
    k, gens = spec["k"], spec["gens"]
    lat = nd.lattice_from_rows(2, spec["lattice"])
    tag = f"sys{idx}"

    def build(st):
        st[tag] = p = nd.Submodule(2, k, gens)
        return nd.groebner_basis(p)

    def verify_build(ans, st):
        p = st[tag]
        return None if all(nd.member(g, p) for g in gens) else "a generator is not a member"

    ops = [Op(f"{tag} groebner_basis", build,
              answer=lambda raw, st: [nd.vector_to_str(g) for g in raw],
              verify=verify_build, cap_s=10.0)]
    for j, (v, is_member) in enumerate(spec["queries"]):
        ops.append(Op(
            f"{tag} member #{j}",
            run=lambda st, v=v: nd.member(v, st[tag]),
            verify=lambda ans, st, want=is_member: _expect(ans, want), cap_s=10.0))

    # rank over the fraction field: two generators in A^2 are independent
    # exactly when their determinant is nonzero
    rank = 1
    if k == 2 and len(gens) == 2:
        (a, b), (c, d) = gens[0].entries, gens[1].entries
        rank = 1 if (a * d - b * c).is_zero() else 2

    def verify_analyze(ans, st):
        got, controllable, autonomous, _ = ans
        if got != rank or autonomous != (rank == k):
            return f"rank {got} / autonomous {autonomous}, expected rank {rank} of k={k}"
        if k == 1 and controllable:
            return "a proper ideal reported controllable"
        return None

    ops.append(Op(
        f"{tag} analyze", run=lambda st: nd.analyze(st[tag]),
        answer=lambda raw, st: [raw.rank_over_fractions, raw.is_controllable,
                                raw.is_autonomous, raw.degree_of_autonomy],
        verify=verify_analyze, cap_s=10.0))

    def coarsest(st):
        st[tag + " coarsest"] = rep = nd.coarsest_lattice(st[tag])
        return rep

    ops.append(Op(
        f"{tag} coarsest_lattice", run=coarsest,
        answer=lambda raw, st: [list(r) for r in raw.lattice.basis.rows],
        verify=lambda ans, st: None if nd.is_extension_from(st[tag], st[tag + " coarsest"].lattice)[0]
        else "the system does not extend from its own coarsest lattice", cap_s=10.0))

    def verify_extension(ans, st):
        # The lattices a system extends from are exactly those containing the
        # coarsest one (the audit covers every prime index up to 7).
        want = lat.contains_lattice(st[tag + " coarsest"].lattice)
        return _expect(ans, want)

    ops.append(Op(
        f"{tag} is_extension_from", run=lambda st: nd.is_extension_from(st[tag], lat)[0],
        verify=verify_extension, cap_s=10.0))
    return ops


def query_mix_inputs(nd, seed: int) -> list[dict]:
    rng = random.Random(seed)
    specs = [random_system(nd, rng, k, m, nterms, emax)
             for k, m, nterms, emax, count in SHAPES for _ in range(count)]
    rng.shuffle(specs)
    return specs


def build_query_mix(nd, root: Path, seed: int) -> Plan:
    golden = root / "tests" / "golden"
    specs = query_mix_inputs(nd, seed)
    blocks = [[_cli_op(nd, [argv[0], "-"] + argv[2:],
                       (golden / argv[1]).read_text(), (golden / expected).read_text())]
              for argv, expected in GOLDEN_RUNS]
    blocks += [_system_ops(nd, i, spec) for i, spec in enumerate(specs)]
    random.Random(seed).shuffle(blocks)
    systems = [{"k": s["k"], "gens": [nd.vector_to_str(g) for g in s["gens"]],
                "lattice": s["lattice"]} for s in specs]
    return Plan([op for block in blocks for op in block], None, {"systems": systems})


WORKLOADS = {
    w.name: w for w in (
        Workload("contract-ladder", build_contract_ladder, (
            "sublattice.contract", "groebner.groebner_basis", "groebner.buchberger",
            "groebner.normal_form", "groebner.reduced_basis",
            "groebner.Submodule.saturated_vpolys", "groebner.syzygy_basis", "intlat.smith")),
        Workload("window-oracle", build_window_oracle, (
            "trajectories.window_solutions", "linalg.nullspace_basis", "linalg.SpanBuilder.add",
            "trajectories.restriction_check", "trajectories.WindowSpan.__init__",
            "trajectories.WindowSpan.contains", "linalg.SpanBuilder.contains",
            "sublattice.contract")),
        Workload("query-mix", build_query_mix, (
            "cli.main", "cli.parse_system", "laurent.parse_poly",
            "laurent.coset_split", "groebner.member", "groebner.top_reduce",
            "groebner.buchberger", "groebner.Submodule.saturated_vpolys", "groebner.syzygies",
            "groebner.syzygy_basis", "groebner.eliminate", "analysis.analyze",
            "analysis.torsion_closure", "analysis.degree_of_autonomy",
            "coarsest.coarsest_lattice", "coarsest.brute_force_coarsest",
            "sublattice.is_extension_from", "sublattice.contract", "sublattice.extend",
            "intlat.smith", "intlat.hnf", "trajectories.WindowSpan.__init__")),
    )
}
