"""tools/cliff_table.py: one fast case end to end, the timeout line, and the
canonical bases of two of its cases."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ndsys.groebner import Submodule, groebner_basis
from ndsys.intlat import diagonal_lattice, lattice_from_rows
from ndsys.laurent import parse_vector, vector_to_str
from ndsys.sublattice import contract

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("_cliff_table", ROOT / "tools" / "cliff_table.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


cliff_table = _load()


def test_fast_case_prints_time_and_digest(capsys):
    assert cliff_table.main(["--checkout", str(ROOT), "--case", "hex 7Zx7Z", "--cap", "120"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    out = json.loads(line)
    assert out["case"] == "hex 7Zx7Z"
    assert len(out["steps"]) == 2 and out["seconds"] == round(sum(out["steps"]), 3)
    p = Submodule(2, 1, [parse_vector("[1 + s1*s2 + s2^2]", 2, 1)])
    basis = groebner_basis(contract(p, diagonal_lattice([7, 7])).module)
    text = "\n".join(vector_to_str(v, "t") for v in basis)
    assert out["digest"] == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_capped_case_prints_timeout(monkeypatch, capsys):
    def slow(argv, timeout, **kwargs):
        raise subprocess.TimeoutExpired(argv, timeout)

    monkeypatch.setattr(cliff_table.subprocess, "run", slow)
    assert cliff_table.main(["--checkout", str(ROOT), "--case", "k1 n3 ideal", "--cap", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "case": "k1 n3 ideal", "seconds": "timeout", "steps": None, "digest": None}


# case -> basis size and SHA-256 of its canonical text
CLIFF_BASES = {
    "k2 3Zx3Z": (8, "c31bd75ca2e66a54c45bfb06e0d902583e2455aa916e97ffbe0d897a4011b205"),
    "k2b [[2,1],[0,6]]": (6, "9875ca15798cd8534cd17293b49605e50286e998a18f2567fdbd2fffdbb7d7c8"),
}


@pytest.mark.parametrize("name", sorted(CLIFF_BASES))
def test_contraction_cliffs_keep_their_canonical_basis(name):
    """The canonical basis of each contraction, one vector per line, hashes
    to the digest recorded when Buchberger met pairs by smallest lcm (7 and
    12 s then; the texts run to 9 and 68 kB)."""
    nvars, k, gens, rows = cliff_table.CASES[name]
    p = Submodule(nvars, k, [parse_vector(g, nvars, k) for g in gens])
    basis = groebner_basis(contract(p, lattice_from_rows(nvars, rows)).module)
    text = "\n".join(vector_to_str(v, "t") for v in basis)
    size, digest = CLIFF_BASES[name]
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
