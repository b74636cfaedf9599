"""Per-layer spans recorded from outside the package.

Each traced function is replaced, while a traced operation runs, under the
name its caller looks it up by (the modules use `from ... import`, so
`graffassoc.pipeline.solve_densest` is wrapped, not the definition in
`clique_solver`).  A span is (name, op id, parent span, start ns, end ns);
spans stay in memory and are written out when the run ends.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import graffassoc
import graffassoc.cli
import graffassoc.consistency
import graffassoc.pipeline
import graffassoc.registration
import graffassoc.scene_sim
from graffassoc import DegenerateConfigurationError

_now = time.perf_counter_ns


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._assoc: dict = {}

    @contextmanager
    def op_span(self, op: int):
        """Root span around one benchmark operation."""
        self.op = op
        sid = self._open("harness.op")
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.op, self._stack[-1] if self._stack else -1, _now(), 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = _now()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` so each call records a span, then runs the counter hooks."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sid)
                if after is not None:
                    after(args, None, exc)
                raise
            self._close(sid)
            if after is not None:
                after(args, result, None)
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counter hooks -------------------------------------------------------

    def _after_affinity(self, args, result, exc):
        if exc is None:
            M, candidates = result
            m = len(candidates)
            self.counts["affinity_calls"] += 1
            self.counts["candidates_m"] += m
            self.counts["affinity_bytes"] += 8 * m * m
            if m > 1:
                self.counts["edge_density"] += (np.count_nonzero(M) - m) / (m * m - m)

    def _after_solve(self, args, result, exc):
        if exc is None:
            self.counts["solves"] += 1
            self.counts["selected"] += len(result.indices)
            self.counts["solve_m2"] += float(np.shape(args[0])[0]) ** 2

    def _after_unique(self, args, result, exc):
        if exc is None:
            self.counts["one_to_one_drops"] += len(args[1]) - len(result)
            self._assoc["unique"] = len(result)

    def _after_estimate(self, args, result, exc):
        self.counts["estimate_calls"] += 1
        if isinstance(exc, DegenerateConfigurationError):
            self.counts["degenerate"] += 1

    def _before_associate(self, args):
        self._assoc = {"estimates": self.counts["estimate_calls"], "unique": None}

    def _after_associate(self, args, result, exc):
        self.counts["associations"] += 1
        if exc is not None:
            return
        if self._assoc["unique"] is not None:
            self.counts["refine_drops"] += self._assoc["unique"] - len(result.matches)
        if result.transform is not None:
            self.counts["successes"] += 1
            self.counts["estimates_on_success"] += self.counts["estimate_calls"] - self._assoc["estimates"]

    def _after_residuals(self, args, result, exc):
        self.counts["residual_calls"] += 1

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(namespace, attribute, wrapper factory) for every wrapped lookup."""
        pkg, cli, cons = graffassoc, graffassoc.cli, graffassoc.consistency
        pipe, reg, sim = graffassoc.pipeline, graffassoc.registration, graffassoc.scene_sim

        def spans(name, before=None, after=None):
            return lambda fn: self.span(name, fn, before, after)

        def count(fn):
            return self.counter("conversions", fn)

        assoc = spans("pipeline.associate_scans", self._before_associate, self._after_associate)
        internal = spans("consistency.internal_distance")
        generate = spans("scene_sim.generate")
        return [
            (cli, "main", spans("cli.main")),
            (cli, "load_scan", spans("scan_io.load_scan")),
            (pkg, "associate_scans", assoc),
            (cli, "associate_scans", assoc),
            (sim, "associate_scans", assoc),
            (pkg, "run_campaign", spans("scene_sim.run_campaign")),
            (sim, "run_trial", spans("scene_sim.run_trial")),
            (sim, "generate_scene", generate),
            (sim, "make_loop_pair", generate),
            (pipe, "build_affinity", spans("consistency.build_affinity", after=self._after_affinity)),
            (cons, "internal_distance_matrix", internal),
            (cons, "_gr_distance_matrix", internal),
            (cons, "_rep_vector_angle_matrix", internal),
            (cons, "_centroid_distance_matrix", internal),
            (pipe, "solve_densest", spans("clique_solver.solve_densest", after=self._after_solve)),
            (pipe, "unique_matches", spans("consistency.unique_matches", after=self._after_unique)),
            (pipe, "estimate_transform", spans("registration.estimate_transform", after=self._after_estimate)),
            (pipe, "match_residuals", spans("pipeline.match_residuals", after=self._after_residuals)),
            (pipe, "to_pd", count),
            (pipe, "to_hesse", count),
            (pipe, "transform_line", count),
            (pipe, "transform_plane", count),
            (reg, "from_pd", count),
        ]

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it.

        One wrapper per original function, so a function looked up under
        several names still records one span per call.
        """
        saved = []
        wrapped = {}
        try:
            for namespace, attr, factory in self._targets():
                original = getattr(namespace, attr)
                key = (id(original), id(factory))
                if key not in wrapped:
                    wrapped[key] = factory(original)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, wrapped[key])
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    # -- reduction -----------------------------------------------------------

    def times(self):
        """Inclusive and self nanoseconds per span name, and total op time."""
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        for name, _, parent, start, end in self.spans:
            incl[name] += end - start
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        return incl, self_ns, incl["harness.op"]

    def layer_metrics(self) -> dict:
        """Per-layer metrics, as means per association (one `associate_scans`
        call: one op on the match workloads, one record on `campaign_mix`)."""
        c = self.counts
        incl, self_ns, op_ns = self.times()
        n = max(c["associations"], 1)

        def per(ns_or_count):
            return ns_or_count / n

        out = {
            "clique_solver.solve_ms": per(incl["clique_solver.solve_densest"]) / 1e6,
            "clique_solver.ns_per_m2": incl["clique_solver.solve_densest"] / max(c["solve_m2"], 1),
            "clique_solver.selected": c["selected"] / max(c["solves"], 1),
            "consistency.build_affinity_ms": per(incl["consistency.build_affinity"]) / 1e6,
            "consistency.internal_distance_ms": per(incl["consistency.internal_distance"]) / 1e6,
            "consistency.candidates_m": c["candidates_m"] / max(c["affinity_calls"], 1),
            "consistency.edge_density": c["edge_density"] / max(c["affinity_calls"], 1),
            "consistency.affinity_bytes": c["affinity_bytes"] / max(c["affinity_calls"], 1),
            "registration.estimate_ms": per(incl["registration.estimate_transform"]) / 1e6,
            "registration.estimate_calls": per(c["estimate_calls"]),
            "registration.fit_useful_ratio": c["successes"] / c["estimates_on_success"] if c["successes"] else 0.0,
            "registration.degenerate": per(c["degenerate"]),
            "pipeline.residual_ms": per(incl["pipeline.match_residuals"]) / 1e6,
            "pipeline.residual_calls": per(c["residual_calls"]),
            "pipeline.unique_ms": per(incl["consistency.unique_matches"]) / 1e6,
            "pipeline.one_to_one_drops": per(c["one_to_one_drops"]),
            "pipeline.refine_drops": per(c["refine_drops"]),
            "pipeline.associate_self_ms": per(self_ns["pipeline.associate_scans"]) / 1e6,
            "graff_core.conversions": per(c["conversions"]),
            "scan_io.load_ms": per(incl["scan_io.load_scan"]) / 1e6,
            "cli.match_self_ms": per(self_ns["cli.main"]) / 1e6,
            "scene_sim.generate_ms": per(incl["scene_sim.generate"]) / 1e6,
        }
        layer_self = defaultdict(int)
        for name, ns in self_ns.items():
            layer_self[name.split(".")[0]] += ns
        for layer in ("clique_solver", "consistency", "registration", "pipeline", "scan_io", "cli", "scene_sim", "harness"):
            out[f"{layer}.share"] = layer_self[layer] / op_ns if op_ns else 0.0
        return out

    def write_spans(self, path) -> None:
        names = ["name", "op", "parent", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": names, "spans": self.spans}, fh)
            fh.write("\n")
