"""Run benchmark pairs of a parent and a change checkout; write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \\
        --pairs query-mix=1-10 --pairs contract-ladder=1,2,3 [--describe TEXT]

Each checkout is a source tree with its own ``perfbench/run.py``.  Every run
lasts the ``run_seconds`` of the change checkout's ``BENCHMARK.json``.  For
every seed of every ``--pairs`` workload, the tool runs ``run.py --trace 0``
once in each checkout, one child process at a time, and alternates which side
goes first: the parent on even pair indices, the change on odd ones.  It then
runs one ``--trace 1`` pass of every named workload on seed 1 in each
checkout, alternating the same way by workload index (the parent first on even
ones), so a host that drifts during the traced passes does not always weigh on
the same side.  The record is written to ``BENCH_<label>.json`` in the current
directory, with each side's commit and its ``src_lines``, the line count of
``src/ndsys/*.py`` as ``wc -l`` gives it.

It gives, for each end-to-end metric, the median and quartiles of each side
(``statistics.quantiles``, inclusive method), every run's value in pair
order, and ``change_better_pairs``: the pairs in which the change is strictly
better, in the direction ``BENCHMARK.json`` declares.  ``median_gap`` is the
change's median less the parent's, ``parent_iqr`` the parent's q3 less its q1,
and ``gain_rule_met`` says whether the change is better in at least 9 of 10
pairs and its median better by more than ``parent_iqr``: the rule a claimed
gain must meet.  ``worse_by`` is how much worse the change's median is than
the parent's, relative to the parent's median (negative when it is better,
null when the parent's median is 0), and ``within_bound`` says whether it is
no more than the metric's ``bound`` in ``BENCHMARK.json`` (with a parent
median of 0, whether the change is no worse): the no-regression check every
metric a change does not claim must pass.  A pair is one seed's two runs; a
seed whose run lacks the metric on either side (a failed run) is left out of
that metric's pairs, values and summaries.  Traced runs keep their exit code, ``correct``, every
per-layer metric and the span counts ``run.py`` wrote to its results file,
``first`` names the side traced first, and ``counters_differ`` lists the
metrics in unit ``count`` whose values differ between the two sides (a metric
one side lacks counts as differing), so a record shows at once whether a
change kept its work counters.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]; a range that runs backwards is an error."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"seed range {part!r} runs backwards")
        out += range(lo, hi + 1)
    return out


def _pair_spec(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    try:
        return name, _seeds(seeds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list in {text!r}: {exc}") from None


def _commit(checkout: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/ndsys/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "ndsys").glob("*.py"))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py child; its JSON result plus the exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"exit": None, "correct": False, "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def _benchmark(checkout: Path) -> tuple[float, dict[str, tuple[str, float]]]:
    """Run length and each end-to-end metric's better direction and bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"])
                                 for m in spec["end_to_end"]}


def _summary(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def untraced_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
                   seconds: float, metrics: dict[str, tuple[str, float]]) -> dict:
    """Pairs by seed; a pair missing a metric on either side is left out of it."""
    runs: list[dict[str, dict]] = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict[str, dict] = {}
        for side in order:
            res = run_bench(parent if side == "parent" else change, workload, seed, seconds, 0)
            pair[side] = res
            wall = res.get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: exit {res['exit']}, "
                  f"correct {res.get('correct')}, wall_s {wall}", file=sys.stderr)
        runs.append(pair)
    out: dict = {}
    for name, (direction, bound) in metrics.items():
        have = [pair for pair in runs
                if all(name in res.get("metrics", {}) for res in pair.values())]
        if not have:
            continue
        got = {side: [pair[side]["metrics"][name]["value"] for pair in have]
               for side in ("parent", "change")}
        pairs = list(zip(got["parent"], got["change"]))
        wins = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        unit = have[0]["parent"]["metrics"][name]["unit"]
        summary = {side: _summary(vals) for side, vals in got.items()}
        gap = round(summary["change"]["median"] - summary["parent"]["median"], 6)
        iqr = round(summary["parent"]["q3"] - summary["parent"]["q1"], 6)
        base = summary["parent"]["median"]
        worse = gap if direction == "lower" else -gap
        worse_by = worse / abs(base) if base else None
        out[name] = {"unit": unit, **summary,
                     "change_better_pairs": wins, "pairs": len(pairs),
                     "median_gap": gap, "parent_iqr": iqr,
                     "gain_rule_met": 10 * wins >= 9 * len(pairs)
                     and -worse > iqr,
                     "worse_by": None if worse_by is None else round(worse_by, 6),
                     "within_bound": worse <= 0 if worse_by is None else worse_by <= bound,
                     "values": {side: [round(v, 6) for v in vals] for side, vals in got.items()}}
    out["correct"] = {side: all(pair[side].get("correct") and pair[side]["exit"] == 0
                                for pair in runs)
                      for side in ("parent", "change")}
    return out


def traced_run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, set]:
    """One traced run's record, and the names of its metrics in unit count."""
    res = run_bench(checkout, workload, seed, seconds, 1)
    out = {"correct": res.get("correct", False), "exit": res["exit"]}
    metrics = res.get("metrics", {})
    out.update({k: m["value"] for k, m in metrics.items()})
    record = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    if res["exit"] == 0 and record.is_file():
        out["span_counts"] = json.loads(record.read_text()).get("span_counts", {})
    return out, {k for k, m in metrics.items() if m.get("unit") == "count"}


def traced_pair(parent: Path, change: Path, workload: str, index: int, seconds: float) -> dict:
    """Traced seed-1 runs of both sides, the parent first on even workload
    indices, and the count metrics whose values differ between them."""
    order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
    out: dict = {"first": order[0]}
    counts: set = set()
    for side in order:
        out[side], names = traced_run(parent if side == "parent" else change, workload, 1, seconds)
        counts |= names
    out["counters_differ"] = sorted(name for name in counts
                                    if out["parent"].get(name) != out["change"].get(name))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--pairs", type=_pair_spec, action="append", required=True,
                    metavar="WORKLOAD=SEEDS", help="e.g. query-mix=1-10 (repeatable)")
    ap.add_argument("--describe", default="", help="one line on what the change does")
    args = ap.parse_args(argv)
    names = [w for w, _ in args.pairs]
    repeated = sorted({w for w in names if names.count(w) > 1})
    if repeated:
        ap.error(f"workload given more than once in --pairs: {', '.join(repeated)}")

    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"no perfbench/run.py under {checkout}", file=sys.stderr)
            return 2
    seconds, metrics = _benchmark(change)
    command = f"python3 perfbench/run.py --workload W --seed {{}} --seconds {seconds:g} --trace {{}}"
    record = {
        "label": args.label, "change": args.describe,
        "parent_commit": _commit(parent), "change_commit": _commit(change),
        "src_lines": {"parent": _src_lines(parent), "change": _src_lines(change)},
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "untraced": {
            "command": command.format("S", 0),
            "pairs": "one parent and one change run per seed and workload, alternating which "
                     "side runs first (parent first on even pair indices); "
                     + "; ".join(f"{w}: seeds {', '.join(map(str, s))}" for w, s in args.pairs),
            "workloads": {w: untraced_pairs(parent, change, w, s, seconds, metrics)
                          for w, s in args.pairs},
        },
        "traced_seed1": {
            "command": command.format(1, 1),
            "workloads": {w: traced_pair(parent, change, w, i, seconds)
                          for i, (w, _) in enumerate(args.pairs)},
        },
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.resolve()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
