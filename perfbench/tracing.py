"""Spans and work counts at the boundaries of the toricfans modules.

`Tracer.install` wraps each traced function in every module namespace that
holds it. Modules bind names with ``from .x import y``, so
``projectivity.solve_system``, ``fan.fm_feasible`` and ``cli.is_projective``
are separate references to patch, not just ``lp.solve_system``. Spans stay in
memory with their op and parent span until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

TRACED = (
    "cli.main",
    "fanio.load_fan", "fanio.dumps",
    "fan.validate_fan", "fan.interiors_overlap", "fan.wall_circuit",
    "fan.primitive_collections", "fan.star_subdivide", "fan.canonical_key",
    "lp.solve_system", "lp.fm_feasible",
    "rational.solve_columns", "rational.determinant", "rational.integerize",
    "projectivity.is_projective", "projectivity.effective_ample_obstruction",
    "projectivity.nontrivial_nef_exists", "projectivity.verify_certificate",
    "surgery.perform_surgery", "surgery.classify_wall",
    "search.projectivize", "search.surgery_graph",
    "enumeration.enumerate_smooth_complete_fans",
)

COUNTS = (
    "lp.solve_system.rows", "lp.fm_feasible.rows", "fan.validate_fan.cones",
    "search.projectivize.visited", "search.surgery_graph.edges",
    "enumeration.search_nodes",
)
RATIOS = ("lp.solve_system.farkas_frac", "search.dup_edge_frac", "enumeration.fans_per_node")


def _count_work(name: str, args, result, counts: dict[str, float]) -> None:
    """Add the work one call did to ``counts``; ratio terms are kept as
    separate numerator and denominator counts."""
    if name == "lp.solve_system":
        counts["lp.solve_system.rows"] += len(args[0])
        counts["solves"] += 1
        counts["farkas"] += type(result).__name__ == "FarkasCertificate"
    elif name == "lp.fm_feasible":
        counts["lp.fm_feasible.rows"] += len(args[0])
    elif name == "fan.validate_fan":
        counts["fan.validate_fan.cones"] += len(args[2])
    elif name == "search.projectivize":
        counts["search.projectivize.visited"] += result.visited
    elif name == "search.surgery_graph":
        counts["search.surgery_graph.edges"] += len(result.edges)
        # every edge but the first to each new node reaches a seen fan
        counts["dup_edges"] += len(result.edges) - (len(result.nodes) - 1)
    elif name == "enumeration.enumerate_smooth_complete_fans":
        counts["enumeration.search_nodes"] += result.search_nodes
        counts["fans"] += len(result.fans)


class Tracer:
    """Records spans while `active`. Span ``i`` is the call of function
    ``TRACED[name[i]]`` made by op ``op[i]`` inside span ``parent[i]`` (-1 for
    none), from ``start[i]`` to ``end[i]`` in perf_counter seconds; columns
    keep a million spans in tens of megabytes."""

    def __init__(self):
        self.active = False
        self.op_index = -1
        self.op, self.parent, self.name = array("i"), array("i"), array("b")
        self.start, self.end = array("d"), array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def start_op(self, op_index: int) -> None:
        # a timeout can interrupt a wrapper before it pops its span
        self._stack.clear()
        self.op_index = op_index

    def _wrap(self, name: str, fn):
        name_id = TRACED.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.op)
            self.op.append(self.op_index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(name_id)
            self._stack.append(index)
            start = time.perf_counter()
            self.start.append(start)
            self.end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                if self._stack and self._stack[-1] == index:
                    self._stack.pop()
            _count_work(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a toricfans module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "toricfans" or n.startswith("toricfans.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module("toricfans." + module), attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._patches):
            setattr(m, key, value)
        self._patches.clear()

    def metrics(self) -> dict[str, dict]:
        """calls, total_s and self_s per traced function, the work counts and
        the ratios. Self time is a span's duration less its children's."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                child_time[parent] += duration
        calls = [0] * len(TRACED)
        total = [0.0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for name, duration, children in zip(self.name, durations, child_time):
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - children
        out: dict[str, dict] = {}
        for i, name in enumerate(TRACED):
            out[name + ".calls"] = {"value": calls[i], "unit": "count"}
            out[name + ".total_s"] = {"value": total[i], "unit": "s"}
            out[name + ".self_s"] = {"value": self_s[i], "unit": "s"}
        c = self.counts
        for name in COUNTS:
            out[name] = {"value": c[name], "unit": "count"}
        ratios = {
            "lp.solve_system.farkas_frac": (c["farkas"], c["solves"]),
            "search.dup_edge_frac": (c["dup_edges"], c["search.surgery_graph.edges"]),
            "enumeration.fans_per_node": (c["fans"], c["enumeration.search_nodes"]),
        }
        for name in RATIOS:
            num, den = ratios[name]
            out[name] = {"value": num / den if den else 0.0, "unit": "ratio"}
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped CSV, one line per span in span order: op, parent span,
        function, start and end in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,parent,function,start_us,end_us\n")
            for op, parent, name, start, end in zip(self.op, self.parent, self.name, self.start, self.end):
                fh.write(f"{op},{parent},{TRACED[name]},{round((start - t0) * 1e6)},{round((end - t0) * 1e6)}\n")
