"""Write perfbench/reference.json: answers recorded from the current code.

    python3 perfbench/record_reference.py

The file holds the canonical contraction generators of every contract-ladder
case and the window dimension of the k=2 module on each of its boxes.  The
benchmark checks later commits against them.  Record it only from a commit
whose answers are trusted.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ndsys as nd  # noqa: E402
from workloads import K2, K2_SIDES, LADDER, contraction_answer, named_systems  # noqa: E402


def main():
    systems = named_systems(nd)
    contract = {}
    for case, system, rows in LADDER:
        n, k, gens = systems[system]
        q = nd.contract(nd.Submodule(n, k, gens), nd.lattice_from_rows(n, rows))
        contract[case] = contraction_answer(nd, nd.groebner_basis(q.module))
    k2 = nd.Submodule(2, 2, [nd.parse_vector(t, 2, 2) for t in K2])
    window = {f"k2 {side}": nd.window_solutions(k2, nd.box_window([(0, side - 1)] * 2)).dimension
              for side in K2_SIDES}
    (HERE / "reference.json").write_text(
        json.dumps({"contract": contract, "window": window}, indent=1) + "\n")


if __name__ == "__main__":
    main()
