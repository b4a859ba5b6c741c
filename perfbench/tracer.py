"""Span tracer that wraps qcc's public functions from outside the package.

Each wrapper records one span (layer, start, end, parent span, operation
id) and, where the wrapped function returns a public result object, the
counts read off it.  Spans stay in memory; ``layer_report`` turns them
into per-layer self times, and ``dump`` writes them out at the end of a
run.  ``uninstall`` restores every patched name, so an untraced section
runs the unmodified program.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

# layer names, in report order
LAYERS = (
    "sdp.builders",
    "sdp.problem.compile_ipm",
    "sdp.ipm.solve_ipm",
    "sdp.projection.solve_dykstra",
    "sdp.solve",
    "sdp.decide",
    "witness.verify",
    "cli.sweep",
)


def _count_compile(counts, comp):
    counts["sdp.problem.compile_ipm.m"] += comp.m
    counts["sdp.problem.compile_ipm.constraint_bytes"] += sum(a.nbytes for a in comp.A_blocks)
    counts["sdp.problem.compile_ipm.dropped_directions"] += comp.dropped_directions


def _count_ipm(counts, res):
    counts["sdp.ipm.solve_ipm.iterations"] += res.iterations
    counts["sdp.ipm.solve_ipm.unconverged"] += 0 if res.converged else 1


def _count_dykstra(counts, res):
    counts["sdp.projection.solve_dykstra.iterations"] += res.iterations
    counts["sdp.projection.solve_dykstra.feasible"] += 1 if res.feasible else 0


def _count_decision(counts, dec):
    certified = dec.compatibilizer is not None or dec.witness is not None
    counts["sdp.decide.certified"] += 1 if certified and dec.verdict != "Inconclusive" else 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (layer, start_ns, end_ns, parent index or -1, op id)
        self.counts: defaultdict = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, module, attr: str, layer: str, count=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper."""
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[idx] = (layer, start, end, parent, tracer.op_id)
            if count is not None:
                count(tracer.counts, result)
            return result

        self._patches.append((module, attr, orig))
        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer at the names its callers look up."""
        import qcc.cli
        import qcc.sdp
        import qcc.sdp.decide as decide_mod

        sdp = qcc.sdp
        # qcc.sdp.solve resolves these as module globals at call time
        self.wrap(sdp, "compile_ipm", "sdp.problem.compile_ipm", _count_compile)
        self.wrap(sdp, "solve_ipm", "sdp.ipm.solve_ipm", _count_ipm)
        self.wrap(sdp, "solve_dykstra", "sdp.projection.solve_dykstra", _count_dykstra)
        # qcc.cli calls sdp.solve / sdp.build_k_extension through the package
        self.wrap(sdp, "solve", "sdp.solve")
        self.wrap(sdp, "build_k_extension", "sdp.builders")
        # decide() bound these names at import
        self.wrap(decide_mod, "solve", "sdp.solve")
        for name in ("build_compat", "build_jordan_compat", "two_marginal_problem"):
            self.wrap(decide_mod, name, "sdp.builders")
        self.wrap(decide_mod, "verify_witness", "witness.verify")
        self.wrap(decide_mod, "verify_jordan_witness", "witness.verify")
        # the operation roots, called by the workloads through these names
        self.wrap(decide_mod, "decide", "sdp.decide", _count_decision)
        self.wrap(qcc.cli, "main", "cli.sweep")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Per-layer self time in seconds (span length minus its child
        spans) and per-layer call counts."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, (layer, start, end, _parent, _op) in enumerate(self.spans):
            out[layer] += (end - start - child_ns[i]) * 1e-9
            calls[layer] += 1
        return out, calls

    def layer_report(self) -> dict:
        """Every per-layer metric, zero where a layer did not run."""
        self_s, calls = self.self_times()
        c = self.counts
        rep = {}
        for layer in LAYERS:
            rep[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            rep[f"{layer}.calls"] = calls.get(layer, 0)
        rep["sdp.problem.compile_ipm.m"] = c["sdp.problem.compile_ipm.m"]
        rep["sdp.problem.compile_ipm.constraint_mb"] = c["sdp.problem.compile_ipm.constraint_bytes"] / 1e6
        rep["sdp.problem.compile_ipm.dropped_directions"] = c["sdp.problem.compile_ipm.dropped_directions"]
        iters = c["sdp.ipm.solve_ipm.iterations"]
        rep["sdp.ipm.solve_ipm.iterations"] = iters
        rep["sdp.ipm.solve_ipm.ms_per_iteration"] = (
            1000.0 * self_s.get("sdp.ipm.solve_ipm", 0.0) / iters if iters else 0.0
        )
        rep["sdp.ipm.solve_ipm.unconverged"] = c["sdp.ipm.solve_ipm.unconverged"]
        dyk_calls = calls.get("sdp.projection.solve_dykstra", 0)
        rep["sdp.projection.solve_dykstra.iterations"] = c["sdp.projection.solve_dykstra.iterations"]
        rep["sdp.projection.solve_dykstra.feasible_ratio"] = (
            c["sdp.projection.solve_dykstra.feasible"] / dyk_calls if dyk_calls else 0.0
        )
        decisions = calls.get("sdp.decide", 0)
        rep["sdp.decide.certified_ratio"] = (
            c["sdp.decide.certified"] / decisions if decisions else 0.0
        )
        return rep

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["layer", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, f)
