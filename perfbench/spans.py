"""Span tracer for the traced benchmark run, applied from outside ``ndsys``.

``Tracer.install`` wraps the public functions listed in ``TRACED``.  Modules
import names directly (``from .groebner import buchberger``), so patching the
defining module is not enough: every ``ndsys.*`` module attribute that *is* one
of the original function objects is rebound to its wrapper, and methods are
patched on their class.  ``uninstall`` restores every binding.

A span records its name, its parent span, the operation it belongs to, start
and end, and a probe value (a count read from the arguments or the result).
Spans stay in memory until the run writes them out.  Self time is a span's
duration minus its child spans and minus the probes run in it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _coef_bits(basis) -> int:
    bits = 0
    for g in basis:
        for c in g.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


# (module, qualified name) -> probe(args, result) or None
TRACED = {
    ("groebner", "normal_form"): lambda a, r: bool(r),
    ("groebner", "top_reduce"): None,
    ("groebner", "buchberger"): lambda a, r: (len(r), _coef_bits(r)),
    ("groebner", "reduced_basis"): None,
    ("groebner", "syzygy_basis"): None,
    ("groebner", "syzygies"): None,
    ("groebner", "eliminate"): None,
    ("groebner", "groebner_basis"): None,
    ("groebner", "member"): None,
    ("groebner", "Submodule.saturated_vpolys"): None,
    ("sublattice", "contract"): lambda a, r: r.context.index * a[0].k,
    ("sublattice", "extend"): None,
    ("sublattice", "is_extension_from"): None,
    ("linalg", "SpanBuilder.add"): lambda a, r: r,
    ("linalg", "SpanBuilder.contains"): None,
    ("linalg", "nullspace_basis"): None,
    ("trajectories", "window_solutions"): lambda a, r: len(r.index),
    ("trajectories", "restriction_check"): None,
    ("trajectories", "WindowSpan.__init__"): None,
    ("trajectories", "WindowSpan.contains"): None,
    ("analysis", "analyze"): None,
    ("analysis", "torsion_closure"): None,
    ("analysis", "degree_of_autonomy"): None,
    ("coarsest", "coarsest_lattice"): lambda a, r: len(r.audit),
    ("coarsest", "brute_force_coarsest"): None,
    ("cli", "main"): None,
    ("cli", "parse_system"): None,
    ("laurent", "parse_poly"): None,
    ("laurent", "parse_vector"): None,
    ("laurent", "coset_split"): None,
    ("intlat", "smith"): None,
    ("intlat", "hnf"): None,
    ("intlat", "hnf_with_transform"): None,
}

LAYERS = ("groebner", "sublattice", "linalg", "trajectories", "analysis",
          "coarsest", "cli", "laurent", "intlat")


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "probe_s", "info")

    def __init__(self, sid, name, parent, op, start):
        self.id, self.name, self.parent, self.op, self.start = sid, name, parent, op, start
        self.end = start
        self.probe_s = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name, parent.id if parent else None,
                        tracer.op, perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, result)
                if parent is not None:
                    parent.probe_s += perf_counter() - span.end
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for (module, qualname), probe in TRACED.items():
            owner = sys.modules["ndsys." + module]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(f"{module}.{qualname}", fn, probe)
            wrappers[id(fn)] = (fn, wrapper)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        for name, mod in list(sys.modules.items()):
            if name != "ndsys" and not name.startswith("ndsys."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.parent, s.op, s.start, s.end, s.info]))
                fh.write("\n")

    def self_times(self) -> dict[str, float]:
        """Summed self time of each span name, in seconds."""
        self_s: dict[str, float] = defaultdict(float)
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        for s in self.spans:
            self_s[s.name] += s.end - s.start - child_s[s.id] - s.probe_s
        return self_s

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; times in seconds."""
        by_id = {s.id: s for s in self.spans}
        calls = span_counts(self)
        self_s = self.self_times()

        def parent_name(s):
            return by_id[s.parent].name if s.parent is not None else None

        nf = [s for s in self.spans if s.name == "groebner.normal_form"
              and parent_name(s) == "groebner.buchberger"]
        bb = [s for s in self.spans if s.name == "groebner.buchberger"]
        rounds = defaultdict(int)
        for s in bb:
            p = s
            while p.parent is not None:
                p = by_id[p.parent]
                if p.name == "groebner.Submodule.saturated_vpolys":
                    rounds[p.id] += 1
                    break
        adds = [s for s in self.spans if s.name == "linalg.SpanBuilder.add"]

        def info_sum(name):
            return sum(s.info for s in self.spans if s.name == name)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "groebner.buchberger_calls": calls["groebner.buchberger"],
            "groebner.buchberger_self_s": self_s["groebner.buchberger"],
            "groebner.spairs": len(nf),
            "groebner.spair_useful_ratio": ratio(sum(s.info for s in nf), len(nf)),
            "groebner.normal_form_s": self_s["groebner.normal_form"],
            "groebner.reduced_basis_s": self_s["groebner.reduced_basis"],
            "groebner.basis_peak": max((s.info[0] for s in bb), default=0),
            "groebner.coef_bits_max": max((s.info[1] for s in bb), default=0),
            "groebner.top_reduce_calls": calls["groebner.top_reduce"],
            "groebner.top_reduce_s": self_s["groebner.top_reduce"],
            "groebner.saturate_s": self_s["groebner.Submodule.saturated_vpolys"],
            "groebner.saturate_rounds": sum(max(0, n - 1) for n in rounds.values()),
            "groebner.syzygy_s": self_s["groebner.syzygy_basis"] + self_s["groebner.syzygies"],
            "groebner.eliminate_s": self_s["groebner.eliminate"],
            "sublattice.contract_calls": calls["sublattice.contract"],
            "sublattice.contract_self_s": self_s["sublattice.contract"],
            "sublattice.contract_components": info_sum("sublattice.contract"),
            "sublattice.extend_s": self_s["sublattice.extend"],
            "sublattice.is_extension_from_s": self_s["sublattice.is_extension_from"],
            "linalg.span_add_calls": len(adds),
            "linalg.span_add_useful_ratio": ratio(sum(1 for s in adds if s.info), len(adds)),
            "linalg.span_add_s": self_s["linalg.SpanBuilder.add"],
            "linalg.nullspace_s": self_s["linalg.nullspace_basis"],
            "trajectories.window_solutions_s": self_s["trajectories.window_solutions"],
            "trajectories.window_unknowns": info_sum("trajectories.window_solutions"),
            "trajectories.restriction_check_s": self_s["trajectories.restriction_check"],
            "trajectories.window_span_s": (self_s["trajectories.WindowSpan.__init__"]
                                           + self_s["trajectories.WindowSpan.contains"]),
            "analysis.analyze_s": self_s["analysis.analyze"],
            "analysis.torsion_closure_s": self_s["analysis.torsion_closure"],
            "analysis.degree_of_autonomy_s": self_s["analysis.degree_of_autonomy"],
            "coarsest.coarsest_lattice_s": self_s["coarsest.coarsest_lattice"],
            "coarsest.audit_candidates": info_sum("coarsest.coarsest_lattice"),
            "coarsest.brute_force_s": self_s["coarsest.brute_force_coarsest"],
            "cli.self_s": self_s["cli.main"],
            "cli.parse_s": self_s["cli.parse_system"],
            "laurent.parse_s": self_s["laurent.parse_poly"] + self_s["laurent.parse_vector"],
            "laurent.coset_split_s": self_s["laurent.coset_split"],
            "intlat.smith_s": self_s["intlat.smith"],
            "intlat.hnf_s": self_s["intlat.hnf"] + self_s["intlat.hnf_with_transform"],
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        return m

    def shares(self, traced_wall: float) -> dict[str, float]:
        """Share of the traced pass time of each layer, of top_reduce and of
        the time outside any span."""
        self_s = self.self_times()
        outside = traced_wall - sum(s.end - s.start for s in self.spans if s.parent is None)
        out = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
               for layer in LAYERS}
        out["groebner.top_reduce"] = self_s["groebner.top_reduce"]
        out["outside_spans"] = outside
        return {k: v / traced_wall if traced_wall else 0.0 for k, v in out.items()}


def span_counts(tracer: Tracer) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        counts[s.name] += 1
    return counts
