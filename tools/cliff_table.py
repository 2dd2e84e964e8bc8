"""Time the contraction cliff cases, each in a child process of a checkout.

    python3 tools/cliff_table.py [--checkout DIR] [--cap SECONDS] [--case NAME ...]

Each case builds a module, then either contracts it to a lattice and takes
``groebner_basis`` of the result, or takes ``groebner_basis`` of the module
itself.  It runs in its own ``python3`` child with ``DIR/src`` on
``PYTHONPATH`` (default: the checkout this file sits in) and is killed after
``--cap`` seconds (default 60).  One JSON line per case goes to stdout:

    {"case": NAME, "seconds": 0.81 or "timeout", "steps": [0.05, 0.76],
     "digest": "3f2a..."}

``seconds`` is the sum of ``steps``, the time of each call measured inside
the child (imports and parsing excluded); ``digest`` is the first 16 hex
digits of the SHA-256 of the answer's canonical basis, one vector per line,
so two checkouts that agree print the same digest.  ``--case`` picks cases
by name (repeatable).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

K2 = ["[s1-1, s2+1]", "[s2^2-s1, s1*s2-3]"]
K2B = ["[-2*s2 - 1, 2*s1 - 1]", "[-1, s2]"]

# name -> (nvars, k, generators, lattice rows or None for groebner_basis alone)
CASES: dict[str, tuple[int, int, list[str], list[list[int]] | None]] = {
    "hex 7Zx7Z": (2, 1, ["[1 + s1*s2 + s2^2]"], [[7, 0], [0, 7]]),
    "k2 3Zx3Z": (2, 2, K2, [[3, 0], [0, 3]]),
    "k2 4Zx2Z": (2, 2, K2, [[4, 0], [0, 2]]),
    "k2 3Zx2Z": (2, 2, K2, [[3, 0], [0, 2]]),
    "k2b [[2,1],[0,6]]": (2, 2, K2B, [[2, 1], [0, 6]]),
    "saturate module": (2, 2, [
        "[2*s1^2, s2^2]",
        "[0, 3*s1^2*s2^2 - s1^-1 + s2^-2]",
        "[s1^-1*s2 + 2*s1*s2^-2 - s1^-1*s2^-1, -3*s1 - s1*s2^-1 - 3*s1^-2*s2^2]"], None),
    "k1 n3 ideal": (3, 1, [
        "[2*s2^2*s3^-2 + 2*s2*s3^-1 + s1^-1*s2^-2*s3^-1]",
        "[s1^-1*s2 + s1^-2*s2^2*s3^-1 + s1*s2^-1*s3^-2]"], None),
    "n3 [[2,0,0],[0,3,0]]": (3, 2, ["[2*s1*s2 - 2*s3, -2*s3 + 2]", "[2*s1, 2*s1*s2 - s2]"],
                             [[2, 0, 0], [0, 3, 0]]),
    "n3b [[2,0,0],[0,2,0]]": (3, 2, ["[-s1*s2*s3 - 2*s1*s3, -s1*s2*s3 + 2*s2 - 2]",
                                     "[-s1*s2*s3 - s2*s3, -s1*s2 - s1*s3 - s3]"],
                              [[2, 0, 0], [0, 2, 0]]),
}

# Run in the child: argv[1] is the case as JSON; prints {"steps": [...], "digest": ...}.
CHILD = """
import hashlib, json, sys, time
from ndsys.groebner import Submodule, groebner_basis
from ndsys.intlat import lattice_from_rows
from ndsys.laurent import parse_vector, vector_to_str
from ndsys.sublattice import contract

nvars, k, gens, rows = json.loads(sys.argv[1])
mod = Submodule(nvars, k, [parse_vector(g, nvars, k) for g in gens])
steps, prefix = [], "s"
if rows is not None:
    lat = lattice_from_rows(nvars, rows)
    t0 = time.perf_counter()
    mod = contract(mod, lat).module
    steps.append(time.perf_counter() - t0)
    prefix = "t"
t0 = time.perf_counter()
basis = groebner_basis(mod)
steps.append(time.perf_counter() - t0)
text = "\\n".join(vector_to_str(v, prefix) for v in basis)
print(json.dumps({"steps": [round(s, 3) for s in steps],
                  "digest": hashlib.sha256(text.encode()).hexdigest()[:16]}))
"""


def run_case(checkout: Path, name: str, cap: float) -> dict:
    """One case in a child of checkout, killed after cap seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", CHILD, json.dumps(CASES[name])]
    try:
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"case": name, "seconds": "timeout", "steps": None, "digest": None}
    if proc.returncode != 0:
        return {"case": name, "seconds": "error", "steps": None, "digest": None,
                "exit": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-1:]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"case": name, "seconds": round(sum(out["steps"]), 3), **out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="source tree with src/ndsys (default: this one)")
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per case (default 60)")
    ap.add_argument("--case", action="append", choices=sorted(CASES), metavar="NAME",
                    help="run only this case (repeatable)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "ndsys").is_dir():
        print(f"no src/ndsys under {checkout}", file=sys.stderr)
        return 2
    for name in args.case or CASES:
        print(json.dumps(run_case(checkout, name, args.cap)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
