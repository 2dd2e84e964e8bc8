"""ndsys benchmark driver: one process, one thread, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``ndsys`` is imported from ``src/``.
Set-up (importing ``ndsys``, parsing the inputs and generating the seeded
workload) is repeated and timed on its own.  Each pass then runs the
workload's fixed operation list in order, each operation timed alone and under
a time cap, and checks every answer outside the timed span.

``--trace 0`` runs at least MIN_PASSES passes, and more while another one of
median length still ends within ``--seconds``, and reports the end-to-end
metrics.  Their times are scaled to a reference host speed (see HostSpeed);
the record keeps the raw figures beside them.  ``--trace 1`` runs an
untraced, a traced and another untraced pass, and reports the per-layer
metrics of the traced one; the tracing overhead is its wall time minus the
mean of the two untraced ones.  Every pass must give the answers of the
first, so traced answers are checked against untraced ones.

The last line of standard output is the JSON result; a fuller record goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, span_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated at least SETUP_MIN and at most SETUP_MAX times, stopping
# once SETUP_BUDGET_S seconds have gone into it.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0
MIN_PASSES = 3
# Every operation still running at this many seconds after start is cut.
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host-speed kernel takes KERNEL_REF_S at the reference speed; it is timed
# every SPEED_EVERY_S of process time while end-to-end figures are measured.
KERNEL_STEPS, KERNEL_REF_S, SPEED_EVERY_S = 1500, 0.010, 0.25


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _import_ndsys():
    for name in [m for m in sys.modules if m == "ndsys" or m.startswith("ndsys.")]:
        del sys.modules[name]
    nd = importlib.import_module("ndsys")
    importlib.import_module("ndsys.cli")
    return nd


def _kernel() -> int:
    """Fixed work of the kind ndsys does: Fraction arithmetic, tuple-keyed dict."""
    acc, seen = Fraction(0), {}
    for i in range(1, KERNEL_STEPS):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
        seen[(i % 97, i % 89)] = acc
    return len(seen)


class HostSpeed:
    """Tracks the CPU throughput the process gets from a shared host.

    On a host shared with other tenants that throughput drifts by a third and
    more, over seconds to minutes, and every operation's time drifts with it.
    Between ``start`` and ``stop`` a process-time timer interrupts the work
    every SPEED_EVERY_S, inside operations too, and times a fixed kernel that
    does not touch ndsys.  ``spent`` sums the time that sampling took, which
    timed spans leave out.  ``scale`` gives the factor that turns a span's
    time into the time it would have taken at the reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.spent = 0.0

    def start(self) -> None:
        _kernel()  # warm-up
        self.sample()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, SPEED_EVERY_S, SPEED_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        # The collector's passes cost more the more the workload holds alive.
        collecting = gc.isenabled()
        gc.disable()
        try:
            _kernel()
        finally:
            if collecting:
                gc.enable()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += perf_counter() - t0

    def scale(self, t0: float, t1: float) -> float:
        """KERNEL_REF_S over the mean kernel time of the samples taken from the
        last one before t0 to the first one after t1."""
        lo = bisect.bisect_right(self.samples, t0, key=itemgetter(0)) - 1
        hi = bisect.bisect_left(self.samples, t1, key=itemgetter(0))
        return KERNEL_REF_S / statistics.fmean(k for _, k in self.samples[lo:hi + 1])


def setup(workload, seed: int, speed: HostSpeed):
    """Time several fresh set-ups; keep the last one.

    The modules and plan of the set-up before are freed first, untimed, so
    that neither the time nor the peak memory depends on the set-up count.
    Returns the start and the time of each set-up.
    """
    spans = []
    while len(spans) < SETUP_MIN or (len(spans) < SETUP_MAX
                                     and sum(dt for _, dt in spans) < SETUP_BUDGET_S):
        nd = plan = None
        gc.collect()
        spent, t0 = speed.spent, perf_counter()
        nd = _import_ndsys()
        plan = workload.build(nd, ROOT, seed)
        spans.append((t0, perf_counter() - t0 - (speed.spent - spent)))
    return nd, plan, spans


class Runner:
    """Runs passes, caps each operation and checks each answer."""

    def __init__(self, plan, start: float, speed: HostSpeed):
        self.plan = plan
        self.speed = speed
        self.deadline = start + RUN_LIMIT_S
        self.verified: dict[int, tuple[object, str | None]] = {}
        self.errors: list[str] = []
        self.timeouts = 0
        self.attempted = 0

    def capped(self, fn, cap_s: float):
        left = min(cap_s, self.deadline - perf_counter())
        if left <= 0:
            raise OpTimeout()
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def check(self, i: int, op, raw, state) -> None:
        """Untimed: record in ``errors`` an answer that is wrong.

        The first answer of an operation is verified; a later pass must give
        the same answer, which then gets the same verdict.
        """
        try:
            ans = self.capped(lambda: op.answer(raw, state), op.cap_s)
            seen = self.verified.get(i)
            if seen is None:
                err = self.capped(lambda: op.verify(ans, state), op.cap_s)
                self.verified[i] = (ans, err)
            elif seen[0] == ans:
                err = seen[1]
            else:
                err = f"answer differs from an earlier pass: {ans!r}"
        except OpTimeout:
            err = "check timed out"
        except Exception as e:  # a crashing check is a wrong answer, not a crash
            err = f"check raised {type(e).__name__}: {e}"
        if err:
            self.errors.append(f"{op.name}: {err}")

    def run_pass(self, tracer: Tracer | None = None) -> tuple[array, array]:
        """Runs the plan once; returns each operation's start and seconds."""
        state: dict = {}
        starts, times = array("d"), array("d")
        for i, op in enumerate(self.plan.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op, tracer.enabled = i, True
            spent, t0 = self.speed.spent, perf_counter()
            try:
                raw = self.capped(lambda: op.run(state), op.cap_s)
                failed = None
            except OpTimeout:
                self.timeouts += 1
                failed = f"timeout after {op.cap_s} s cap"
            except Exception as e:
                failed = f"raised {type(e).__name__}: {e}"
            dt = perf_counter() - t0 - (self.speed.spent - spent)
            if tracer is not None:
                tracer.enabled = False
            if failed:
                self.errors.append(f"{op.name}: {failed}")
            else:
                self.check(i, op, raw, state)
            # Only start and time are kept, packed: holding more per pass
            # would make peak memory grow with the number of passes a run
            # fits in, and so shrink when a commit is slower.
            starts.append(t0)
            times.append(dt)
        return starts, times


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of n samples beyond it.

    Called with the sample count of MIN_PASSES passes, so that the percentile
    is fixed per workload and does not move with the number of passes run.
    """
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    idx = max(0, min(len(sorted_vals) - 1, -(-len(sorted_vals) * p // 100) - 1))
    return sorted_vals[int(idx)]


def commit_of(root: Path) -> str:
    """HEAD of the checkout, or 'unknown'; git looks no higher than root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = perf_counter()
    src = ROOT / "src"
    if not (src / "ndsys" / "__init__.py").is_file():
        print(f"ndsys sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _alarm)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    speed = HostSpeed()
    if args.trace == 0:
        speed.start()
    nd, plan, setup_spans = setup(workload, args.seed, speed)
    setup_times = [dt for _, dt in setup_spans]
    runner = Runner(plan, start, speed)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit_of(ROOT), "nproc": os.cpu_count(),
        "setup_s": setup_times, "inputs": plan.inputs,
    }

    if args.trace == 0:
        results, raw_walls = [], []
        t0 = perf_counter()
        while (len(results) < MIN_PASSES
               or perf_counter() - t0 + statistics.median(raw_walls) <= args.seconds):
            results.append(runner.run_pass())
            raw_walls.append(sum(results[-1][1]))
        speed.stop()
        # Read now: working out the figures below is not part of the workload.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # every time at the reference speed
        scaled = [[dt * speed.scale(t, t + dt) for t, dt in zip(*res)] for res in results]
        walls = [sum(res) for res in scaled]
        setup_scaled = [dt * speed.scale(t, t + dt) for t, dt in setup_spans]
        lat = sorted(dt for res in scaled for dt in res)
        raw_lat = sorted(dt for res in results for dt in res[1])
        by_name: dict[str, list[float]] = {}
        for res in scaled:
            for op, dt in zip(plan.ops, res):
                by_name.setdefault(op.name, []).append(dt)
        p_tail = tail_percentile(len(plan.ops) * MIN_PASSES)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (1000 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000 * nearest_rank(lat, p_tail), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update({
            "passes": len(results), "pass_wall_s": walls,
            "op_tail_percentile": p_tail, "op_samples": len(lat),
            "op_tail_samples_beyond": len(lat) - int(-(-len(lat) * p_tail // 100)),
            "op_median_s": {name: statistics.median(v) for name, v in by_name.items()},
            "kernel_s": [k for _, k in speed.samples],
            "raw": {"setup_s": statistics.median(setup_times),
                    "wall_s": statistics.median(raw_walls),
                    "op_p50_ms": 1000 * statistics.median(raw_lat),
                    "op_tail_ms": 1000 * nearest_rank(raw_lat, p_tail),
                    "pass_wall_s": raw_walls},
        })
    else:
        untraced = runner.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        again = runner.run_pass()
        counts = span_counts(tracer)
        silent = [name for name in workload.expected_spans if not counts.get(name)]
        if silent:
            print("traced run recorded no span for: " + ", ".join(silent), file=sys.stderr)
            return 1
        walls = [sum(res[1]) for res in (untraced, traced, again)]
        layer = tracer.metrics(walls[1], (walls[0] + walls[2]) / 2)
        metrics = {k: (v, "count" if isinstance(v, int) else
                       "s" if k.endswith("_s") else "ratio") for k, v in layer.items()}
        spans_file = out_dir / f"{workload.name}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_file)
        record.update({"pass_wall_s": walls, "span_counts": counts,
                       "shares": tracer.shares(walls[1]), "spans": len(tracer.spans),
                       "spans_file": spans_file.name})

    cross = plan.cross_check
    if cross is not None:
        runner.attempted += 1
        try:
            err = runner.capped(cross, 60.0)
        except OpTimeout:
            err = "cross-check timed out"
        if err:
            runner.errors.append(f"cross-check: {err}")

    if args.trace == 0:
        metrics["ok_ratio"] = (1 - len(runner.errors) / runner.attempted, "ratio")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update({"result": result, "errors": runner.errors, "timeouts": runner.timeouts,
                   "fail_ratio": len(runner.errors) / runner.attempted,
                   "total_s": perf_counter() - start})
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for e in runner.errors:
        print("error: " + e)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
