"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload it makes two traced runs with the same seed, one after the
other, and checks that:

- both runs report correct answers, and the traced answers equal the
  untraced ones (each traced run compares the two passes it makes);
- the deterministic work counters are identical between the two runs;
- the trace confirms what the workload is for: Groebner self time is most of
  contract-ladder, linear-algebra self time is most of window-oracle, and
  top_reduce takes a larger share of query-mix than of contract-ladder.

It also checks that a different seed changes the query-mix inputs.  The
shares come from the traced runs' record files in ``perfbench/results/``.
Exits 1 on the first list of failures, 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

COUNTERS = ("groebner.spairs", "groebner.spair_useful_ratio", "groebner.basis_peak",
            "groebner.coef_bits_max", "linalg.span_add_calls",
            "trajectories.window_unknowns", "coarsest.audit_candidates")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {"correct": result["correct"], "shares": record["shares"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def query_mix_inputs(seed: int) -> list:
    import ndsys
    from workloads import query_mix_inputs as generate
    return [(spec["gens"], spec["queries"]) for spec in generate(ndsys, seed)]


def main() -> int:
    failures = []
    runs = {}
    for workload in ("contract-ladder", "window-oracle", "query-mix"):
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        runs[workload] = first["shares"]
        for r in (first, second):
            if not r["correct"]:
                failures.append(f"{workload}: a traced run reported wrong answers")
        for name in COUNTERS:
            a, b = first["metrics"][name], second["metrics"][name]
            if a != b:
                failures.append(f"{workload}: {name} differs between runs: {a} vs {b}")
        print(f"{workload}: " + ", ".join(f"{n}={first['metrics'][n]:g}" for n in COUNTERS),
              flush=True)

    intent = [
        ("groebner self time is most of contract-ladder",
         runs["contract-ladder"]["groebner"] > 0.5),
        ("linalg self time is most of window-oracle",
         runs["window-oracle"]["linalg"] > 0.5),
        ("top_reduce share of query-mix exceeds that of contract-ladder",
         runs["query-mix"]["groebner.top_reduce"]
         > runs["contract-ladder"]["groebner.top_reduce"]),
    ]
    failures += [f"intent: {text}" for text, ok in intent if not ok]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if query_mix_inputs(SEED) == query_mix_inputs(SEED + 1):
        failures.append("query-mix inputs do not change with the seed")

    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
