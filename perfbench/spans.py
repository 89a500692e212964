"""Spans and counts recorded around calls into `thunt`'s modules.

Modules import names with `from .geom import ...`, so each wrapper is
installed under the name the calling module looks up: patching
`thunt.geom.sees` alone would miss the agent's calls, which go through
`thunt.agent.sees`.  A span name is `<layer>.<function>`, with
`@<caller>` when the same function is wrapped at several call sites.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("generators", "geom", "vecgeom", "oracle", "codec", "agent", "harness")


def _visibility_graph_done(tracer, args, result):
    tracer.counts["oracle.visibility_graphs"] += 1
    tracer.counts["oracle.visibility_vertices"] += len(result[0])


def _classification_done(tracer, args, result):
    _, I, _, t, _ = args[:5]
    blocked, ambiguous = result
    tracer.counts["vecgeom.pair_edge_cells"] += len(I) * len(t.boundary_edges)
    tracer.counts["vecgeom.blocked_pairs"] += int(blocked.sum())
    tracer.counts["vecgeom.ambiguous_pairs"] += int(ambiguous.sum())


def _terrain_done(tracer, args, result):
    tracer.counts["generators.obstacles_placed"] += len(result[0].obstacles)


def _decode_called(tracer, args, result):
    tracer.counts["codec.advice_bits"] += len(args[0])


# (module, attribute, span name, hook called with the arguments and result)
SPANNED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("thunt.harness", "bench_scenario", "harness.bench_scenario", None),
    ("thunt.harness", "run_scenario", "harness.run_scenario", None),
    ("thunt.harness", "random_regular_terrain", "generators.random_regular_terrain",
     _terrain_done),
    ("thunt.generators", "random_fat_polygon", "generators.random_fat_polygon", None),
    ("thunt.generators", "is_c_fat", "generators.is_c_fat", None),
    ("thunt.harness", "validate_regular_terrain", "geom.validate_regular_terrain", None),
    ("thunt.geom", "largest_inscribed_circle", "geom.largest_inscribed_circle", None),
    ("thunt.geom", "smallest_enclosing_circle", "geom.smallest_enclosing_circle", None),
    ("thunt.geom", "segment_in_terrain", "geom.segment_in_terrain@geom", None),
    ("thunt.oracle", "segment_in_terrain", "geom.segment_in_terrain@oracle", None),
    ("thunt.harness", "segment_in_terrain", "geom.segment_in_terrain@harness", None),
    ("thunt.agent", "sees", "geom.sees@agent", None),
    ("thunt.harness", "sees", "geom.sees@harness", None),
    ("thunt.agent", "first_hit", "geom.first_hit@agent", None),
    ("thunt.oracle", "accessibility", "oracle.accessibility", None),
    ("thunt.oracle", "make_advice", "oracle.make_advice", None),
    ("thunt.oracle", "shortest_path", "oracle.shortest_path", None),
    ("thunt.oracle", "_visibility_graph", "oracle.visibility_graph", _visibility_graph_done),
    ("thunt.oracle", "dijkstra", "oracle.dijkstra", None),
    ("thunt.vecgeom", "pairwise_edge_classification",
     "vecgeom.pairwise_edge_classification", _classification_done),
    ("thunt.oracle", "encode", "codec.encode", None),
    ("thunt.agent", "decode", "codec.decode", _decode_called),
    ("thunt.harness", "thunt", "agent.thunt", None),
    ("thunt.agent", "thunt", "agent.thunt", None),
    ("thunt.agent", "_first_sight_length", "agent.first_sight", None),
    ("thunt.agent", "cow_path", "agent.cow_path", None),
]
# Called too often for a span each: (module, attribute, count name)
COUNTED = [
    ("thunt.generators", "segment_segment_distance", "generators.segment_segment_distance.calls"),
]


class Tracer:
    """Spans kept in memory while installed; `uninstall` restores the
    original functions."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id); a slot holds None
        # while its span is open
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for modname, attr, name, hook in SPANNED:
            self._patch(modname, attr, lambda fn: self._span(name, fn, hook))
        for modname, attr, name in COUNTED:
            self._patch(modname, attr, lambda fn: self._count(name, fn))

    def _patch(self, modname: str, attr: str, wrap) -> None:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics over the traced ops: totals per pass, and
        ratios or means of those totals."""
        w = 1.0 / passes
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        fallback_calls, fallback_s = 0.0, 0.0
        for name, start, end, parent, _ in self.spans:
            dur = (end - start) * w
            total[name] += dur
            self_s[name] += dur
            calls[name] += w
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] -= dur
                if name == "geom.segment_in_terrain@oracle" and pname == "oracle.visibility_graph":
                    fallback_calls += w
                    fallback_s += dur

        def tot(prefix):
            return sum(v for k, v in total.items() if k.split("@")[0] == prefix)

        def n(prefix):
            return sum(v for k, v in calls.items() if k.split("@")[0] == prefix)

        c = defaultdict(float, {k: v * w for k, v in self.counts.items()})
        m = {f"{layer}.self_s": sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
             for layer in LAYERS}
        m.update({
            "generators.random_regular_terrain.s": tot("generators.random_regular_terrain"),
            "generators.random_fat_polygon.calls": n("generators.random_fat_polygon"),
            "generators.obstacle_accept_ratio":
                c["generators.obstacles_placed"] / max(n("generators.random_fat_polygon"), 1),
            "generators.segment_segment_distance.calls":
                c["generators.segment_segment_distance.calls"],
            "generators.is_c_fat.s": tot("generators.is_c_fat"),
            "geom.validate_regular_terrain.s": tot("geom.validate_regular_terrain"),
            "geom.largest_inscribed_circle.s": tot("geom.largest_inscribed_circle"),
            "geom.smallest_enclosing_circle.s": tot("geom.smallest_enclosing_circle"),
            "geom.segment_in_terrain.calls": n("geom.segment_in_terrain"),
            "geom.first_hit.calls": n("geom.first_hit"),
            "geom.first_hit.s": tot("geom.first_hit"),
            "geom.sees.calls": n("geom.sees"),
            "geom.sees.s": tot("geom.sees"),
            "oracle.shortest_path.s": tot("oracle.shortest_path"),
            "oracle.shortest_path.calls": n("oracle.shortest_path"),
            "oracle.visibility_vertices":
                c["oracle.visibility_vertices"] / max(c["oracle.visibility_graphs"], 1),
            "oracle.segment_in_terrain.calls": calls["geom.segment_in_terrain@oracle"],
            "oracle.scalar_fallbacks": fallback_calls,
            "oracle.scalar_fallback.s": fallback_s,
            "oracle.dijkstra.s": tot("oracle.dijkstra"),
            "vecgeom.pairwise_edge_classification.s": tot("vecgeom.pairwise_edge_classification"),
            "vecgeom.pair_edge_cells": c["vecgeom.pair_edge_cells"],
            "vecgeom.ambiguous_pairs": c["vecgeom.ambiguous_pairs"],
            "vecgeom.blocked_pairs": c["vecgeom.blocked_pairs"],
            "oracle.make_advice.s": tot("oracle.make_advice"),
            "oracle.accessibility.calls": n("oracle.accessibility"),
            "codec.encode.s": tot("codec.encode"),
            "codec.decode.s": tot("codec.decode"),
            "codec.advice_bits": c["codec.advice_bits"],
            "agent.thunt.s": tot("agent.thunt"),
            "agent.first_sight.s": tot("agent.first_sight"),
            "agent.first_sight.sees_calls": calls["geom.sees@agent"],
            "agent.cow_path.calls": n("agent.cow_path"),
            "agent.cow_path.s": tot("agent.cow_path"),
            "agent.first_hit.s": total["geom.first_hit@agent"],
            "harness.run_scenario.s": tot("harness.run_scenario"),
            "harness.verify.self_s": self_s["harness.run_scenario"],
        })
        return m
