"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import randhorizon  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _labelled(ops: list[dict]) -> list[dict]:
    for i, op in enumerate(ops):
        op["label"] = f"op{i} {op['cmd']}"
    return ops


def _tiny_ops(workdir: Path) -> list[dict]:
    """One small op per command, at sizes that run in well under a second."""
    inp = workloads.Inputs(workdir, np.random.default_rng(7))
    p = inp.probs(50)
    return _labelled([
        workloads.adversary(inp, [16], 20),
        workloads.simulate(inp, p, 19, 500),
        workloads.simulate_custom(inp, 30, 20),
        workloads.avgcase(inp, [50], 100),
        workloads.solve(p),
        workloads.evaluate(p, 19),
        workloads.minimax(50, p),
        workloads.meta("exp-max", 5, 15),
        workloads.learn(inp, p, [0.2], 3),
    ])


def test_self_times_on_nested_span_tree():
    # (id, name, start, end, parent, raised)
    spans = [
        (0, "bench.solve", 0.0, 10.0, -1, False),
        (1, "cli.main", 1.0, 4.0, 0, False),
        (2, "dist.lambda_sequence", 2.0, 3.0, 1, False),
        (3, "solver.solve_optimal", 5.0, 9.0, 0, True),
        (4, "dist.lambda_sequence", 6.0, 7.0, 3, False),
        (5, "solver.backward_induction", 7.0, 8.0, 3, False),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.0}
    totals = tracer.layer_totals(spans)
    assert totals["dist"] == {"calls": 2, "self_s": 2.0, "errors": 0}
    assert totals["solver"] == {"calls": 2, "self_s": 3.0, "errors": 1}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_wrong_output_is_counted_failed(tmp_path):
    inp = workloads.Inputs(tmp_path, np.random.default_rng(3))
    p, other = inp.probs(40), inp.probs(40)
    wrong = workloads.solve(p)
    wrong["check"] = {"dist": other}  # q_opt of p scored against another distribution
    missing = workloads.evaluate(str(tmp_path / "missing.json"), 2)
    runner = worker.Runner(_labelled([workloads.solve(p), wrong, missing]))
    runner.round()
    assert runner.attempted == 3
    assert len(runner.failures) == 2
    assert "A(p, q_opt)" in runner.failures[0] and "exit code 3" in runner.failures[1]
    runner.reference[0] = "an output from another run"
    runner.run_op(0)
    assert "differs from the first run" in runner.failures[-1]


def test_timed_round_scales_each_op_by_the_kernel_around_it(tmp_path, monkeypatch):
    kernel_times = iter([0.004, 0.006, 0.008, 0.010])
    monkeypatch.setattr(calibrate, "kernel", lambda: next(kernel_times))
    monkeypatch.setattr(worker, "KERNEL_EVERY_S", 0.0)  # a kernel run after every op
    raw, scaled = worker.Runner(_tiny_ops(tmp_path)[:3]).timed_round()
    around = (0.005, 0.007, 0.009)  # mean of the kernel times before and after each op
    assert scaled == pytest.approx([t * calibrate.REF_S / k for t, k in zip(raw, around)])


def test_counters_repeat_across_traced_runs(tmp_path):
    ops = _tiny_ops(tmp_path)
    reports = []
    for _ in range(2):
        runner = worker.Runner(ops)
        times, t = runner.traced_round()
        assert runner.failures == []
        own = sum(v["self_s"] for v in tracer.layer_totals(t.spans).values())
        assert abs(own - sum(e - s for _i, n, s, e, parent, _r in t.spans if parent < 0)) < 1e-9
        assert sum(times) >= own
        reports.append(tracer.report(t))
    first, second = reports
    counts = [k for k in first if not k.endswith("_s") and ".us_per_" not in k]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for key in ("sim.policy_calls", "solver.bi_steps", "meta.f_calls", "dist.lambda_elems",
                "dist.harmonic_elems", "learn.samples_drawn", "formats.in_bytes", "cli.out_bytes"):
        assert first[key] > 0, key
    assert first["cli.errors"] == 0 and first["bench.calls"] == len(ops)


def test_install_patches_copied_bindings_and_uninstall_restores_them():
    original = randhorizon.strategy.success_probability
    t = tracer.Tracer()
    t.install()
    try:
        assert randhorizon.solver.success_probability.__wrapped__ is original
        assert randhorizon.meta.PerformanceProfile.f.__wrapped__ is not None
    finally:
        t.uninstall()
    assert randhorizon.solver.success_probability is original
    assert not hasattr(randhorizon.meta.PerformanceProfile.f, "__wrapped__")


def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ops = _tiny_ops(tmp_path)
    e2e = run.end_to_end(ops, {"op_seconds": [[0.1] * len(ops)], "peak_rss_mb": 1.0}, 0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    rounds, layers = worker.traced_pairs(worker.Runner(ops), deadline=0.0)
    assert rounds == 1
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
