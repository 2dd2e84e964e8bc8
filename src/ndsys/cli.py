"""Batch command-line front end.

Reads a small system-file format, dispatches to the library, and prints a
canonical JSON report.  Exit codes: 0 success, 1 failed internal invariant,
2 input problem, 3 violated precondition of the requested operation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .intlat import (IntLattice, IntMatrix, SmithDecomposition, lattice_from_rows,
                     lattice_to_subgroup, subgroup_to_lattice)
from .laurent import (LaurentVec, PolyParseError, parse_vector, poly_to_str,
                      vector_to_str)
from .groebner import InvariantError, Submodule, TermOrder, groebner_basis, member
from .sublattice import (contract, extend, galois_group_of, is_extension_from,
                         sublattice_context)
from .analysis import analyze, transfer_checks
from .coarsest import MAX_ORACLE_INDEX, coarsest_lattice, is_prime
from .trajectories import (WindowSpan, box_window, default_membership_window,
                           restriction_check, window_solutions)

SCHEMA_TAG = "ndsys-report/1"


class InputError(Exception):
    """Problem with the provided file, flags, or syntax (exit code 2)."""


@dataclass
class SystemFile:
    n: int
    k: int
    rows: list[LaurentVec]
    lattices: dict[str, IntLattice]
    windows: dict[str, list[tuple[int, int]]]

    def submodule(self) -> Submodule:
        return Submodule(self.n, self.k, list(self.rows))

    def canonical_text(self) -> str:
        out = [f"n = {self.n}", f"k = {self.k}"]
        body = ",\n  ".join(
            "[" + ", ".join(poly_to_str(p) for p in r.entries) + "]" for r in self.rows)
        out.append("P = [\n  " + body + "\n]" if self.rows else "P = []")
        for name in sorted(self.lattices):
            rows = self.lattices[name].basis.rows
            out.append(f"lattice {name} = [" + ", ".join(str(list(r)) for r in rows) + "]")
        for name in sorted(self.windows):
            spec = ", ".join(f"{a}..{b}" for a, b in self.windows[name])
            out.append(f"window {name} = [{spec}]")
        return "\n".join(out) + "\n"


def _statements(text: str):
    """Logical lines: comments stripped, bracketed groups joined."""
    buf = ""
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip() and depth == 0:
            continue
        if not buf:
            start = lineno
        buf += line + " "
        depth = buf.count("[") - buf.count("]")
        if depth < 0:
            raise InputError(f"line {lineno}: unbalanced ']'")
        if depth == 0:
            if buf.strip():
                yield start, buf.strip()
            buf = ""
    if buf.strip():
        raise InputError("unterminated '[' at end of file")


_INT_LIST = re.compile(r"^-?\d+(\s*,\s*-?\d+)*$")


def _parse_int_rows(body: str, lineno: int) -> list[list[int]]:
    rows = []
    for part in _split_rows(body, lineno):
        part = part.strip()
        if not part:
            raise InputError(f"line {lineno}: empty lattice row")
        if not _INT_LIST.match(part):
            raise InputError(f"line {lineno}: lattice rows must be integers")
        rows.append([int(v) for v in part.split(",")])
    return rows


def _split_rows(body: str, lineno: int) -> list[str]:
    body = body.strip()
    if not body.startswith("[") or not body.endswith("]"):
        raise InputError(f"line {lineno}: expected a bracketed row list [[...], ...]")
    inner = body[1:-1]
    rows = re.findall(r"\[([^\[\]]*)\]", inner)
    leftovers = re.sub(r"\[[^\[\]]*\]", "", inner).replace(",", "").strip()
    if leftovers or (inner.strip() and not rows):
        raise InputError(f"line {lineno}: stray text {leftovers or inner.strip()!r} in row list")
    return rows


def _declare(declared: set[str], what: str, lineno: int) -> None:
    if what in declared:
        raise InputError(f"line {lineno}: {what} is declared twice")
    declared.add(what)


def parse_system(text: str) -> SystemFile:
    n = k = None
    matrix_rows: list[str] | None = None
    matrix_line = 0
    lattices: dict[str, IntLattice] = {}
    windows: dict[str, list[tuple[int, int]]] = {}
    declared: set[str] = set()
    for lineno, stmt in _statements(text):
        m = re.match(r"^(n|k)\s*=\s*(\d+)$", stmt)
        if m:
            _declare(declared, m.group(1), lineno)
            if m.group(1) == "n":
                n = int(m.group(2))
            else:
                k = int(m.group(2))
            continue
        m = re.match(r"^P\s*=\s*(.*)$", stmt, re.DOTALL)
        if m:
            _declare(declared, "P", lineno)
            matrix_rows = _split_rows(m.group(1), lineno)
            matrix_line = lineno
            continue
        m = re.match(r"^lattice\s+(\w+)\s*=\s*(.*)$", stmt, re.DOTALL)
        if m:
            if n is None:
                raise InputError(f"line {lineno}: n must be declared before lattices")
            _declare(declared, f"lattice {m.group(1)}", lineno)
            rows = _parse_int_rows(m.group(2), lineno)
            for r in rows:
                if len(r) != n:
                    raise InputError(f"line {lineno}: lattice row length != n")
            lattices[m.group(1)] = lattice_from_rows(n, rows)
            continue
        m = re.match(r"^window\s+(\w+)\s*=\s*\[(.*)\]$", stmt, re.DOTALL)
        if m:
            _declare(declared, f"window {m.group(1)}", lineno)
            windows[m.group(1)] = _parse_window_spec(m.group(2), f"line {lineno}")
            continue
        raise InputError(f"line {lineno}: cannot parse {stmt!r}")
    if n is None or k is None:
        raise InputError("system file must declare n and k")
    if n < 1 or k < 1:
        raise InputError(f"n and k must be at least 1, got n = {n}, k = {k}")
    if matrix_rows is None:
        raise InputError("system file must declare P")
    for name, bounds in windows.items():
        if len(bounds) != n:
            raise InputError(f"window {name} has {len(bounds)} axes, expected n={n}")
    rows = []
    for i, rtext in enumerate(matrix_rows):
        try:
            rows.append(parse_vector(f"[{rtext}]", n, k))
        except PolyParseError as e:
            raise InputError(f"line {matrix_line}: matrix row {i + 1}: {e}") from e
    return SystemFile(n, k, rows, lattices, windows)


def _parse_window_spec(spec: str, where: str) -> list[tuple[int, int]]:
    """Axis bounds lo..hi; where ('line N' or the option) prefixes errors."""
    bounds = []
    for axis in spec.split(","):
        m = re.match(r"^\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*$", axis)
        if not m:
            raise InputError(f"{where}: window axis must look like 'lo..hi'")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise InputError(f"{where}: empty window axis {lo}..{hi}")
        bounds.append((lo, hi))
    return bounds


# ---------------------------------------------------------------------------
# serialization helpers


def _mat_json(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.rows]


def _lat_json(lat: IntLattice) -> dict:
    return {"ambient": lat.ambient, "rank": lat.rank,
            "basis": [list(r) for r in lat.basis.rows]}


def _vecs_json(vecs, prefix: str = "s") -> list[str]:
    return [vector_to_str(v, prefix) for v in vecs]


def _system_json(sf: SystemFile) -> dict:
    return {"n": sf.n, "k": sf.k,
            "matrix": [[poly_to_str(p) for p in r.entries] for r in sf.rows]}


def _int_list(text: str, option: str, least: int) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{option} must be comma-separated integers, got {text!r}") from None
    if any(x < least for x in values):
        raise InputError(f"{option} values must be >= {least}")
    return values


def _pick_lattice(sf: SystemFile, args) -> IntLattice:
    if args.lattice is None:
        if len(sf.lattices) == 1:
            return next(iter(sf.lattices.values()))
        raise InputError("select a lattice block with --lattice NAME")
    try:
        return sf.lattices[args.lattice]
    except KeyError:
        raise InputError(f"no lattice named {args.lattice!r} in the file") from None


def _pick_window(sf: SystemFile, args, gens=None) -> list[tuple[int, int]]:
    if args.window:
        bounds = _parse_window_spec(args.window, "--window")
        if len(bounds) != sf.n:
            raise InputError(f"--window has {len(bounds)} axes, expected n={sf.n}")
        return bounds
    if sf.windows:
        return next(iter(sorted(sf.windows.items())))[1]
    if gens:
        return list(default_membership_window(gens).box)
    raise InputError("no window given; use --window lo..hi[,lo..hi]")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gb(sf: SystemFile, args) -> dict:
    order = TermOrder(kind=args.order)
    basis = groebner_basis(sf.submodule(), order)
    return {"order": args.order, "basis": _vecs_json(basis)}


def _cmd_member(sf: SystemFile, args) -> dict:
    if not args.vector:
        raise InputError("member needs --vector '[p1, ..., pk]'")
    try:
        v = parse_vector(args.vector, sf.n, sf.k)
    except PolyParseError as e:
        raise InputError(str(e)) from e
    p = sf.submodule()
    verdict = member(v, p)
    out = {"vector": vector_to_str(v), "member": verdict}
    if args.oracle:
        window = box_window(_pick_window(sf, args, list(p.generators) + [v]))
        span = WindowSpan(list(p.generators), window, p.k)
        certified = span.contains(v)
        out["oracle"] = {"window": [list(b) for b in window.box],
                         "span_certified": certified,
                         "consistent": (not certified) or verdict}
    return out


def _smith_json(dec: SmithDecomposition) -> dict:
    return {"U": _mat_json(dec.U), "D": _mat_json(dec.D), "V": _mat_json(dec.V)}


def _cmd_contract(sf: SystemFile, args) -> dict:
    s = _pick_lattice(sf, args)
    p = sf.submodule()
    q = contract(p, s)
    out = {"lattice": _lat_json(s),
           "smith": _smith_json(q.context.decomposition),
           "moduli": list(q.context.moduli),
           "sub_rank": q.context.rank,
           "generators": _vecs_json(groebner_basis(q.module), "t")}
    if args.oracle:
        if q.context.rank == 0:
            raise InputError("window oracle needs a nonzero sublattice")
        bounds = _pick_window(sf, args, list(sf.rows) or None)
        out["oracle"] = {"window": [list(b) for b in bounds],
                         "restriction_check": restriction_check(p, s, bounds)}
    return out


def _cmd_extend(sf: SystemFile, args) -> dict:
    s = _pick_lattice(sf, args)
    q = contract(sf.submodule(), s)
    ext = extend(q)
    return {"lattice": _lat_json(s),
            "smith": _smith_json(q.context.decomposition),
            "contraction": _vecs_json(groebner_basis(q.module), "t"),
            "extension": _vecs_json(groebner_basis(ext))}


def _cmd_invariant(sf: SystemFile, args) -> dict:
    s = _pick_lattice(sf, args)
    ok, witness = is_extension_from(sf.submodule(), s)
    out = {"lattice": _lat_json(s), "is_extension": ok}
    if witness is not None:
        gen, part = witness
        out["witness"] = {"generator": vector_to_str(gen),
                          "component": vector_to_str(part)}
    return out


def _cmd_coarsest(sf: SystemFile, args) -> dict:
    primes = tuple(_int_list(args.audit_primes, "--audit-primes", 2))
    if not all(map(is_prime, primes)):
        raise InputError(f"--audit-primes values must be primes, got {args.audit_primes!r}")
    if len(set(primes)) != len(primes):
        raise InputError(f"--audit-primes values must be distinct, got {args.audit_primes!r}")
    if not 1 <= args.index_bound <= MAX_ORACLE_INDEX:
        raise InputError(f"--index-bound must be between 1 and {MAX_ORACLE_INDEX}")
    bound = args.index_bound if args.oracle else None
    rep = coarsest_lattice(sf.submodule(), primes, oracle_index_bound=bound)
    return {"lattice": _lat_json(rep.lattice),
            "rank": rep.rank,
            "is_constant_module": rep.is_constant_module,
            "audit": [{"sublattice": _lat_json(lat), "passes": v}
                      for lat, v in rep.audit],
            "oracle_confirmed": rep.oracle_confirmed}


def _cmd_analyze(sf: SystemFile, args) -> dict:
    p = sf.submodule()
    rep = analyze(p)
    p0, t = rep.decomposition
    out = {"rank_over_fractions": rep.rank_over_fractions,
           "controllable": rep.is_controllable,
           "autonomous": rep.is_autonomous,
           "torsion_closure": _vecs_json(groebner_basis(p0)),
           "image_rep": None if rep.image_rep is None else _vecs_json(rep.image_rep),
           "degree_of_autonomy": rep.degree_of_autonomy,
           "presentation": _vecs_json(groebner_basis(t)) if t.generators else []}
    if args.check_transfer:
        try:
            s = sf.lattices[args.check_transfer]
        except KeyError:
            raise InputError(f"no lattice named {args.check_transfer!r}") from None
        tr = transfer_checks(p, s)
        out["transfer"] = {
            "contraction_preserves_controllability": tr.contraction_preserves_controllability,
            "contraction_preserves_autonomy": tr.contraction_preserves_autonomy,
            "extension_controllability_equiv": tr.extension_controllability_equiv,
            "extension_autonomy_equiv": tr.extension_autonomy_equiv,
            "image_rep_transfers": tr.image_rep_transfers,
            "all_ok": tr.all_ok,
        }
    return out


def _cmd_simulate(sf: SystemFile, args) -> dict:
    bounds = _pick_window(sf, args, list(sf.rows) or None)
    window = box_window(bounds)
    sols = window_solutions(sf.submodule(), window)
    out = {"window": [list(b) for b in bounds],
           "points": len(window),
           "dimension": sols.dimension}
    if args.basis:
        dump = []
        for vec in sols.basis:
            entries = []
            for (pt, comp), idx in sols.index.items():
                val = vec.get(idx)
                if val:
                    entries.append({"point": list(pt), "comp": comp,
                                    "value": str(Fraction(val))})
            entries.sort(key=lambda e: (e["point"], e["comp"]))
            dump.append(entries)
        out["basis"] = dump
    return out


def _cmd_smith(sf: SystemFile, args) -> dict:
    s = _pick_lattice(sf, args)
    dec = sublattice_context(s).decomposition
    return {"lattice": _lat_json(s), **_smith_json(dec),
            "diagonal": list(dec.diagonal),
            "product_matches": dec.U @ dec.D @ dec.V == s.basis.transpose()}


def _cmd_galois(sf: SystemFile, args) -> dict:
    s = _pick_lattice(sf, args)
    info = galois_group_of(s)
    out = {"lattice": _lat_json(s),
           "moduli": list(info.moduli),
           "order": info.order,
           "generators": [list(g) for g in info.group.generators]}
    if args.moduli is not None:
        d = _int_list(args.moduli, "--moduli", 1)
        if len(d) != sf.n:
            raise InputError("--moduli length must equal n")
        h = lattice_to_subgroup(s, d)
        fixed = subgroup_to_lattice(h)
        out["stabilizer"] = {"moduli": list(h.moduli),
                             "generators": [list(g) for g in h.generators],
                             "order": h.order(),
                             "fixed_lattice": _lat_json(fixed),
                             "roundtrip_exact": fixed == s}
    return out


_COMMANDS = {
    "gb": _cmd_gb,
    "member": _cmd_member,
    "contract": _cmd_contract,
    "extend": _cmd_extend,
    "invariant": _cmd_invariant,
    "coarsest": _cmd_coarsest,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "smith": _cmd_smith,
    "galois": _cmd_galois,
}


def run(command: str, sf: SystemFile, args) -> dict:
    result = _COMMANDS[command](sf, args)
    return {"schema": SCHEMA_TAG, "command": command,
            "input": _system_json(sf), "result": result}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ndsys",
        description="Lattice-structure toolkit for multidimensional difference systems")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("file", help="system file path, or - for stdin")
    ap.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    ap.add_argument("--lattice", help="name of a lattice block in the file")
    ap.add_argument("--vector", help="vector literal for membership tests")
    ap.add_argument("--window", help="window bounds lo..hi, comma-separated per axis")
    ap.add_argument("--audit-primes", default="2,3,5,7",
                    help="comma-separated primes for the minimality audit")
    ap.add_argument("--moduli", help="ambient diagonal moduli d1,...,dn for galois")
    ap.add_argument("--index-bound", type=int, default=16,
                    help="enumeration bound for the brute-force oracle")
    ap.add_argument("--oracle", action="store_true",
                    help="run the independent window/enumeration cross-checks")
    ap.add_argument("--basis", action="store_true",
                    help="include the solution basis in simulate reports")
    ap.add_argument("--check-transfer", metavar="LATTICE",
                    help="verify classification transfer across this sublattice")
    ap.add_argument("--json", action="store_true",
                    help="compact single-line JSON instead of indented")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise InputError(f"cannot read {args.file}: {e}") from e
        sf = parse_system(text)
        report = run(args.command, sf, args)
    except InvariantError as e:
        print(json.dumps({"schema": SCHEMA_TAG, "error": "invariant", "detail": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 1
    except InputError as e:
        print(json.dumps({"schema": SCHEMA_TAG, "error": "input", "detail": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except ValueError as e:
        print(json.dumps({"schema": SCHEMA_TAG, "error": "precondition", "detail": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 3
    if args.json:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(report, sort_keys=True, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`ndsys ... | head`): exit as a SIGPIPE
        # death would, 128 + 13, without a traceback
        _drop_stdout()
        return 141
    return 0


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so the interpreter's
    last flush of what the closed pipe refused does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
