"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each library module (the
layers) and ``PerformanceProfile.f``, and rebinds every module-level name that
refers to a wrapped function: ``from .strategy import success_probability``
copies the function into ``solver``, so wrapping only the defining module would
miss those calls.  Each wrapped call records a span (name, start, end, parent)
in memory plus work counters read from its arguments.  Policies returned by
``threshold_policy``/``strategy_policy`` are counted per call but record no
span, since they run once per arrival.  Nothing runs concurrently, so no layer
waits on another and there is no wait metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "randhorizon"
LAYERS = ("cli", "formats", "dist", "strategy", "solver", "sim", "learn", "meta")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _lambda(t, a, k):
    p = _arg(a, k, 0, "p")
    t.count("dist.lambda_calls")
    t.count("dist.lambda_elems", p.n)
    t.distinct("dist.lambda_dists", p)
    if t.command == "solve":
        t.count("solve_op.lambda_calls")
        t.distinct("solve_op.lambda_dists", p)


def _harmonic(t, a, k):
    t.count("dist.harmonic_calls")
    t.count("dist.harmonic_elems", _arg(a, k, 0, "n"))


def _backward_induction(t, a, k):
    t.count("solver.bi_calls")
    t.count("solver.bi_steps", len(_arg(a, k, 0, "gains")))
    if t.command == "solve":
        t.count("solve_op.bi_calls")


def _solve_optimal(t, a, k):
    t.count("solver.solve_calls")
    t.distinct("solver.solve_dists", _arg(a, k, 0, "p"))


def _eval(t, a, k):
    t.count("strategy.eval_elems", _arg(a, k, 0, "p").n)


def _threshold_values(t, a, k):
    t.count("strategy.eval_elems", max(_arg(a, k, 1, "l_max"), _arg(a, k, 0, "p").n))


def _sim_trials(pos: int, name: str, policy: bool):
    def hook(t, a, k):
        trials = _arg(a, k, pos, name)
        t.count("sim.trials", trials)
        if policy:
            t.count("sim.policy_trials", trials)

    return hook


def _meta_mixture(t, a, k):
    t.count("meta.points", _arg(a, k, 2, "n_hi") - _arg(a, k, 1, "n_lo") + 1)


def _f(t, a, k):
    t.count("meta.f_calls")


def _learning_trial(t, a, k):
    t.count("learn.trials")


def _draw_samples(t, a, k):
    t.count("learn.samples_drawn", _arg(a, k, 1, "m"))


def _load_json(t, a, k):
    t.count("formats.in_bytes", os.path.getsize(_arg(a, k, 0, "path")))


HOOKS = {
    "dist.lambda_sequence": _lambda,
    "dist.harmonic": _harmonic,
    "solver.backward_induction": _backward_induction,
    "solver.solve_optimal": _solve_optimal,
    "strategy.success_probability": _eval,
    "strategy.success_probability_pform": _eval,
    "strategy.threshold_success_values": _threshold_values,
    "sim.simulate": _sim_trials(2, "trials", policy=False),
    "sim.simulate_custom": _sim_trials(2, "trials", policy=True),
    "sim.adversary_game": _sim_trials(2, "trials", policy=True),
    "sim.average_case_experiment": _sim_trials(2, "draws", policy=False),
    "meta.meta_mixture": _meta_mixture,
    "meta.f": _f,
    "learn.learning_trial": _learning_trial,
    "learn.draw_samples": _draw_samples,
    "formats.load_json": _load_json,
}
POLICY_FACTORIES = ("sim.threshold_policy", "sim.strategy_policy")


class Tracer:
    """In-memory spans and counters; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, raised)
        self.counts: Counter = Counter()
        self.command = ""  # command of the op being run, for the solve-op ratios
        self._stack: list[int] = []
        self._started = 0
        self._seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._patches: list[tuple] = []

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    def distinct(self, key: str, obj) -> None:
        """Remember ``obj`` under ``key``; holding it keeps its id unique."""
        self._seen[key][id(obj)] = obj

    def n_distinct(self, key: str) -> int:
        return len(self._seen.get(key, ()))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._started
        self._started += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, raised))

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs)
            if name in POLICY_FACTORIES:
                return self._counted_policy(result)
            return result

        return traced

    def _counted_policy(self, policy):
        def counted(*args, **kwargs):
            self.count("sim.policy_calls")
            return policy(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every layer's public functions and rebind every name for them."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        profile = modules["meta"].PerformanceProfile
        self._patch(profile, "f", self._wrap("meta.f", profile.f))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _raised in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _raised in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """calls, self_s and errors per layer (the span name's prefix)."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    for sid, name, _start, _end, _parent, raised in spans:
        t = totals[name.split(".", 1)[0]]
        t["calls"] += 1
        t["self_s"] += own[sid]
        t["errors"] += int(raised)
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named ``<layer>.<metric>``."""
    totals = layer_totals(t.spans)
    c = t.counts
    out: dict[str, float] = {}
    for layer in (*LAYERS, "bench"):
        for key in ("calls", "self_s", "errors"):
            out[f"{layer}.{key}"] = totals[layer][key] if layer in totals else 0
    for key in (
        "cli.out_bytes",
        "formats.in_bytes",
        "dist.lambda_calls",
        "dist.lambda_elems",
        "dist.harmonic_calls",
        "dist.harmonic_elems",
        "strategy.eval_elems",
        "solver.bi_calls",
        "solver.bi_steps",
        "sim.trials",
        "sim.policy_calls",
        "meta.points",
        "meta.f_calls",
        "learn.trials",
        "learn.samples_drawn",
    ):
        out[key] = c[key]
    out["dist.lambda_per_dist"] = _ratio(c["dist.lambda_calls"], t.n_distinct("dist.lambda_dists"))
    out["solver.solve_per_dist"] = _ratio(c["solver.solve_calls"], t.n_distinct("solver.solve_dists"))
    out["sim.policy_calls_per_trial"] = _ratio(c["sim.policy_calls"], c["sim.policy_trials"])
    out["sim.us_per_trial"] = _ratio(1e6 * out["sim.self_s"], c["sim.trials"])
    out["meta.f_calls_per_point"] = _ratio(c["meta.f_calls"], c["meta.points"])
    out["learn.us_per_sample"] = _ratio(1e6 * out["learn.self_s"], c["learn.samples_drawn"])
    # the same two ratios restricted to solve ops
    out["dist.lambda_per_dist_solve"] = _ratio(
        c["solve_op.lambda_calls"], t.n_distinct("solve_op.lambda_dists")
    )
    out["solver.bi_calls_per_solve"] = _ratio(c["solve_op.bi_calls"], c["solve_op.ops"])
    out["trace.spans"] = len(t.spans)
    return out
