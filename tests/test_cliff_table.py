"""tools/cliff_table.py: one fast case end to end, the timeout line, the
canonical bases of four of its cases, and an independent check of the two
rank-deficient ones."""

import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ndsys.groebner import Submodule, eliminate, groebner_basis
from ndsys.intlat import diagonal_lattice, lattice_from_rows
from ndsys.laurent import (LaurentPoly, apply_monomial_map, parse_vector, poly_to_str,
                           vector_to_str)
from ndsys.sublattice import contract, sublattice_context

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


ZERO = hashlib.sha256(b"").hexdigest()

# case -> basis size and SHA-256 of its canonical text
CLIFF_BASES = {
    "k2 3Zx3Z": (8, "c31bd75ca2e66a54c45bfb06e0d902583e2455aa916e97ffbe0d897a4011b205"),
    "k2b [[2,1],[0,6]]": (6, "9875ca15798cd8534cd17293b49605e50286e998a18f2567fdbd2fffdbb7d7c8"),
    "n3 [[2,0,0],[0,3,0]]": (0, ZERO),
    "n3b [[2,0,0],[0,2,0]]": (0, ZERO),
}


def _case(name):
    nvars, k, gens, rows = cliff_table.CASES[name]
    return Submodule(nvars, k, [parse_vector(g, nvars, k) for g in gens]), lattice_from_rows(nvars, rows)


@pytest.mark.parametrize("name", sorted(CLIFF_BASES))
def test_contraction_cliffs_keep_their_canonical_basis(name):
    """The canonical basis of each contraction, one vector per line, hashes
    to the digest recorded when Buchberger met pairs by smallest lcm (7 and
    12 s then; the texts run to 9 and 68 kB).  The two n=3 rank-deficient
    cases are the zero module; they ran past a minute when the prime chain
    ran in all three variables before the third was eliminated."""
    p, s = _case(name)
    t0 = time.perf_counter()
    basis = groebner_basis(contract(p, s).module)
    seconds = time.perf_counter() - t0
    text = "\n".join(vector_to_str(v, "t") for v in basis)
    size, digest = CLIFF_BASES[name]
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if s.rank < s.ambient:
        assert seconds < 1.0


def _flip(poly, axis):
    """The sign character t_axis -> -t_axis."""
    return LaurentPoly(poly.nvars, {e: -c if e[axis] % 2 else c for e, c in poly.terms.items()})


# case -> moduli, the one generator (v1, v2) of the t3-free part of the
# transported module, a modulus axis of even d, and v1*f(v2) - v2*f(v1)
# for f the sign character on that axis
RANK_DEFICIENT = {
    "n3 [[2,0,0],[0,3,0]]": ((1, 6), "[t2, t1*t2^3 - 1/2]", 1, "-t2"),
    "n3b [[2,0,0],[0,2,0]]": (
        (2, 2),
        "[t1^2*t2^2 + 2*t1^2*t2 + 2*t1*t2^2 - 2*t1*t2 + 2*t2^2 - 2*t2, "
        "t1^2*t2^2 + 2*t1*t2 - 2*t1 + 2*t2 - 2]",
        0, "4*t1^3*t2^4 - 8*t1^3*t2^3 - 4*t1^3*t2^2 + 8*t1^3*t2"),
}


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_cliffs_are_zero_without_the_chain(name):
    """Zero by a fraction-field argument, with no prime step run.  The t3-free
    part of the transported module is A*(v1, v2), and contraction keeps the
    multiples f*(v1, v2) with both entries in the sublattice ring R.  A
    nonzero one puts v1/v2 in the fraction field of R, which every character
    of the lattice fixes; the sign character on an axis of even modulus
    fixes R but not v1/v2, because the cross term is nonzero.  So the zero
    digests pinned above are the right answers."""
    moduli, gen, axis, cross = RANK_DEFICIENT[name]
    p, s = _case(name)
    ctx = sublattice_context(s)
    assert ctx.moduli == moduli and moduli[axis] % 2 == 0
    moved = Submodule(p.nvars, p.k, [apply_monomial_map(ctx.transport, g) for g in p.generators])
    (g,) = eliminate(moved, [2]).generators
    assert vector_to_str(g, "t") == gen
    v1, v2 = g.entries
    assert v2 and poly_to_str(v1 * _flip(v2, axis) - v2 * _flip(v1, axis), "t") == cross
