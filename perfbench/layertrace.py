"""Outside-in layer tracing for the traced benchmark run.

Spans and counters are recorded by replacing nodal's public functions,
at every module where they are bound, with wrappers.  A binding made with
``from .x import f`` is a separate name, so each such site is wrapped on
its own.  Nothing inside ``src/`` changes.

* A span wrapper records (id, parent, op, name, layer, start, end, child
  time).  A span's self time is its duration minus the time its traced
  children (spans and leaves) cover.
* A leaf wrapper is for functions called thousands of times per op
  (``lambert_w0``, ``eval_state``): it only accumulates calls and time,
  and charges the time to the enclosing span as child time.

Spans stay in memory until :meth:`Tracer.dump` writes them at the end.
Solves inside pool workers are invisible here; per-solve numbers come
from an in-process replay (see ``run.py``).
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict

# (module, attribute, span name, layer).  The cli and verify rows are the
# ``from ... import`` bindings; the constants rows also catch the calls
# constants makes to itself, since those resolve through module globals.
_SPAN_SITES = [
    ("nodal.cli", "run", "cli.run", "cli"),
    ("nodal.cli", "convergence_report", "verify.convergence_report", "verify"),
    ("nodal.cli", "solve_whole_plane", "radial_ode.solve_whole_plane", "radial_ode"),
    ("nodal.cli", "prefetch_solutions", "radial_ode.prefetch_solutions", "radial_ode"),
    ("nodal.cli", "dirichlet_solution", "radial_ode.dirichlet_solution", "radial_ode"),
    ("nodal.cli", "neumann_solution", "radial_ode.neumann_solution", "radial_ode"),
    ("nodal.cli", "bubble_spec", "bubbles.bubble_spec", "bubbles"),
    ("nodal.cli", "bubble_mass", "bubbles.bubble_mass", "bubbles"),
    ("nodal.cli", "bubble_split_integrals", "bubbles.bubble_split_integrals", "bubbles"),
    ("nodal.cli", "profile_samples", "bubbles.profile_samples", "bubbles"),
    ("nodal.verify", "solve_whole_plane", "radial_ode.solve_whole_plane", "radial_ode"),
    ("nodal.verify", "prefetch_solutions", "radial_ode.prefetch_solutions", "radial_ode"),
    ("nodal.verify", "dirichlet_solution", "radial_ode.dirichlet_solution", "radial_ode"),
    ("nodal.verify", "neumann_solution", "radial_ode.neumann_solution", "radial_ode"),
    ("nodal.verify", "rescaled_profile", "radial_ode.rescaled_profile", "radial_ode"),
    ("nodal.verify", "bubble_spec", "bubbles.bubble_spec", "bubbles"),
    ("nodal.verify", "green_profile_check", "verify.green_profile_check", "verify"),
    ("nodal.verify", "bubble_convergence_check", "verify.bubble_convergence_check", "verify"),
    ("nodal.radial_ode", "flux_identity_residual", "radial_ode.flux_identity_residual", "radial_ode"),
    ("nodal.radial_ode", "m0_product_formula", "constants.m0_product_formula", "constants"),
    ("nodal.bubbles", "theta_sequence", "constants.theta_sequence", "constants"),
] + [
    ("nodal.constants", fn, "constants." + fn, "constants")
    for fn in ("theta_sequence", "constant_table", "neumann_constants",
               "whole_plane_limits", "m0_sequence", "energy_limit", "gamma_alpha_m",
               "theta_bounds_suite", "m0_bounds_suite", "sup_norm_bounds")
]

# (module, attribute or Class.method, leaf name)
_LEAF_SITES = [
    ("nodal.constants", "lambert_w0", "specfun.lambert_w0"),
    ("nodal.constants", "ln_gamma", "specfun.ln_gamma"),
    ("nodal.verify", "bubble_profile", "bubbles.bubble_profile"),
    ("nodal.radial_ode", "WholePlaneSolution.eval_state", "radial_ode.eval_state"),
]

_ALL3 = "op_p50_ms on all three workloads"
_LT = "limit_tables.ops_per_s, limit_tables.op_p50_ms"
_VS = "verify_sweep.ops_per_s, verify_sweep.op_p90_ms"
_DG = "dense_gauges.ops_per_s"

#: (name, unit, better, end-to-end metric and workload it should move).
#: On every other workload the prediction is no change.
METRICS = [
    ("specfun.lambert_w0.calls_per_op", "count", "lower", "limit_tables.ops_per_s"),
    ("specfun.lambert_w0.us_per_call", "us/call", "lower", "limit_tables.ops_per_s"),
    ("specfun.ln_gamma.calls_per_op", "count", "lower", "limit_tables.ops_per_s"),
    ("constants.theta_sequence.calls_per_op", "count", "lower", _LT),
    ("constants.theta_sequence.terms_per_op", "count", "lower", _LT),
    ("constants.theta_useful_ratio", "ratio", "higher", _LT),
    ("constants.constant_table.ms_per_op", "ms/op", "lower", _LT),
    ("constants.whole_plane_limits.ms_per_op", "ms/op", "lower", _LT),
    ("constants.self_ms_per_op", "ms/op", "lower", _LT),
    ("bubbles.bubble_mass.ms", "ms/call", "lower", "limit_tables.ops_per_s"),
    ("bubbles.bubble_split_integrals.ms", "ms/call", "lower", "limit_tables.ops_per_s"),
    ("bubbles.bubble_profile.us_per_call", "us/call", "lower", _DG),
    ("radial_ode.solve.ms_per_zero", "ms/zero", "lower", _VS),
    ("radial_ode.solve.steps_per_zero", "count", "lower", _VS),
    ("radial_ode.solve.us_per_step", "us/step", "lower", _VS),
    ("radial_ode.solution.pickle_kb", "kB", "lower", _VS),
    ("radial_ode.prefetch.ms_per_op", "ms/op", "lower", _VS),
    ("radial_ode.pool_speedup", "ratio", "higher", _VS),
    ("radial_ode.solve.failures", "count", "lower", _VS),
    ("radial_ode.eval_state.us_per_point", "us/point", "lower", _DG),
    ("radial_ode.flux_identity_residual.ms", "ms/call", "lower", _DG),
    ("radial_ode.rescaled_profile.ms", "ms/call", "lower", _DG),
    ("verify.convergence_report.self_ms", "ms/call", "lower", "verify_sweep.ops_per_s"),
    ("verify.bubble_convergence_check.ms", "ms/call", "lower", _DG),
    ("verify.green_profile_check.ms", "ms/call", "lower", _DG),
    ("cli.self_ms_per_op", "ms/op", "lower", _ALL3),
    ("cli.output_bytes_per_op", "bytes", "lower", _ALL3),
    ("trace.ops_per_s", "1/s", "higher", "none: the traced rate, for the overhead"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "none: the untraced rate, same run"),
    ("trace.slowdown", "ratio", "lower", "none: untraced / traced rate"),
]


def _resolve(path: str, attr: str):
    owner = importlib.import_module(path)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Span and counter recorder; :meth:`install` wraps, :meth:`remove` restores."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.leaves = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, seconds, points]
        self.theta_terms = defaultdict(int)  # op -> sum of k_max + 1
        self.theta_max = defaultdict(int)  # op -> max k_max + 1
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list = []

    # -- wrapping

    def install(self) -> None:
        for path, attr, name, layer in _SPAN_SITES:
            owner, attr = _resolve(path, attr)
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, layer))
        for path, attr, name in _LEAF_SITES:
            owner, attr = _resolve(path, attr)
            self._patch(owner, attr, self._leaf_wrapper(getattr(owner, attr), name))

    def remove(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str, layer: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "constants.theta_sequence":
                terms = int(args[0]) + 1
                tracer.theta_terms[tracer.op] += terms
                tracer.theta_max[tracer.op] = max(tracer.theta_max[tracer.op], terms)
            parent = stack[-1][0] if stack else -1
            span = [next(tracer._ids), parent, tracer.op, name, layer, clock(), 0.0, 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[6] = end
                if stack:
                    stack[-1][7] += end - span[5]
                tracer.spans.append(span)

        return wrapper

    def _leaf_wrapper(self, fn, name: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        counts_points = name == "radial_ode.eval_state"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                rec = tracer.leaves[name]
                rec[0] += 1
                rec[1] += dt
                if counts_points:
                    rec[2] += _size(args[1])
                if stack:
                    stack[-1][7] += dt

        return wrapper

    # -- summaries

    def self_seconds(self, pred) -> float:
        return sum(s[6] - s[5] - s[7] for s in self.spans if pred(s))

    def total_seconds(self, name: str) -> tuple[int, float]:
        calls = [s[6] - s[5] for s in self.spans if s[3] == name]
        return len(calls), sum(calls)

    def dump(self, path) -> None:
        """Write spans as JSON lines: id, parent, op, name, layer, start, end, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:7] + [s[6] - s[5] - s[7]]) + "\n")


def _size(t) -> int:
    try:
        return len(t)
    except TypeError:
        return 1


def layer_metrics(tracer: Tracer, n_ops: int, out_bytes: int, replay: dict,
                  rates: tuple[float, float]) -> dict[str, float]:
    """Every per-layer metric from one traced phase of ``n_ops`` ops.

    A metric of a layer the workload never calls reads 0.
    """
    def per_call(name: str, scale: float) -> float:
        calls, secs = tracer.total_seconds(name)
        return scale * secs / calls if calls else 0.0

    def per_op_ms(name: str) -> float:
        return 1e3 * tracer.total_seconds(name)[1] / n_ops

    lam_calls, lam_s, _ = tracer.leaves["specfun.lambert_w0"]
    prof_calls, prof_s, _ = tracer.leaves["bubbles.bubble_profile"]
    ev_calls, ev_s, ev_points = tracer.leaves["radial_ode.eval_state"]
    terms = sum(tracer.theta_terms.values())
    reports = [s for s in tracer.spans if s[3] == "verify.convergence_report"]
    traced_rate, untraced_rate = rates
    out = {
        "specfun.lambert_w0.calls_per_op": lam_calls / n_ops,
        "specfun.lambert_w0.us_per_call": 1e6 * lam_s / lam_calls if lam_calls else 0.0,
        "specfun.ln_gamma.calls_per_op": tracer.leaves["specfun.ln_gamma"][0] / n_ops,
        "constants.theta_sequence.calls_per_op":
            tracer.total_seconds("constants.theta_sequence")[0] / n_ops,
        "constants.theta_sequence.terms_per_op": terms / n_ops,
        "constants.theta_useful_ratio":
            sum(tracer.theta_max.values()) / terms if terms else 0.0,
        "constants.constant_table.ms_per_op": per_op_ms("constants.constant_table"),
        "constants.whole_plane_limits.ms_per_op": per_op_ms("constants.whole_plane_limits"),
        "constants.self_ms_per_op":
            1e3 * tracer.self_seconds(lambda s: s[4] == "constants") / n_ops,
        "bubbles.bubble_mass.ms": per_call("bubbles.bubble_mass", 1e3),
        "bubbles.bubble_split_integrals.ms": per_call("bubbles.bubble_split_integrals", 1e3),
        "bubbles.bubble_profile.us_per_call": 1e6 * prof_s / prof_calls if prof_calls else 0.0,
        "radial_ode.prefetch.ms_per_op": per_op_ms("radial_ode.prefetch_solutions"),
        "radial_ode.eval_state.us_per_point": 1e6 * ev_s / ev_points if ev_points else 0.0,
        "radial_ode.flux_identity_residual.ms":
            per_call("radial_ode.flux_identity_residual", 1e3),
        "radial_ode.rescaled_profile.ms": per_call("radial_ode.rescaled_profile", 1e3),
        "verify.convergence_report.self_ms":
            1e3 * sum(s[6] - s[5] - s[7] for s in reports) / len(reports) if reports else 0.0,
        "verify.bubble_convergence_check.ms": per_call("verify.bubble_convergence_check", 1e3),
        "verify.green_profile_check.ms": per_call("verify.green_profile_check", 1e3),
        "cli.self_ms_per_op": 1e3 * tracer.self_seconds(lambda s: s[3] == "cli.run") / n_ops,
        "cli.output_bytes_per_op": out_bytes / n_ops,
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.slowdown": untraced_rate / traced_rate,
    }
    out.update(replay)
    return {name: out[name] for name, _, _, _ in METRICS}
