"""Runs one workload in a fresh single-threaded process.

    python3 bench/worker.py PLAN.json RESULT.json

``bench/run.py`` writes the plan and starts this process with ``src`` on
PYTHONPATH.  The worker runs the round of ops once untimed (the warm-up, whose
outputs are checked), then repeats it, closed loop, until the plan's seconds
are up, timing every op.  Between ops it times the kernel of
``calibrate.py`` after about every ``KERNEL_EVERY_S`` of op time, and scales
each op's time by the mean of the two kernel times around it.  Every repeat must give the same bytes as the
warm-up, since it reruns the same ops with the same seeds.  With tracing on,
the seconds go instead to pairs of rounds, one untraced and one under
``tracer.Tracer``: the per-layer metrics are those of the traced round of median
time, and ``trace.overhead_s`` is the median of each pair's difference in wall
time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import tracer as tracing
from randhorizon import cli, dist, sim

KERNEL_EVERY_S = 0.1


class Runner:
    """Runs and checks the ops of one round; counts attempted and failed ops."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.reference: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: tracing.Tracer | None = None

    def _execute(self, op: dict) -> tuple[int, str, str]:
        """(exit code, stdout, stderr) of one op."""
        if op["cmd"] == "simulate_custom":
            policy = sim.threshold_policy(op["cutoff"])
            res = sim.simulate_custom(dist.delta(op["n"]), policy, op["trials"], op["seed"])
            return 0, json.dumps(list(res)), ""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def run_op(self, i: int) -> float:
        """Run op ``i``, check it, and return its wall time in seconds."""
        op = self.ops[i]
        start = time.perf_counter()
        try:
            if self.tracer is None:
                code, out, err = self._execute(op)
            else:
                self.tracer.command = op["cmd"]
                if op["cmd"] == "solve":
                    self.tracer.count("solve_op.ops")
                code, out, err = self.tracer.call(f"bench.{op['cmd']}", self._execute, op)
        except Exception:  # a crash is a failed op, not a failed benchmark
            code, out, err = 1, "", traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = self._verify(i, code, out, err)
        if problem is not None:
            self.failures.append(f"{op['label']}: {problem}")
        return elapsed

    def _verify(self, i: int, code: int, out: str, err: str) -> str | None:
        op = self.ops[i]
        if code != 0:
            return f"exit code {code}: {err.strip()[-500:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        extra = Path(op["summary"]).read_text(encoding="utf-8") if "summary" in op else ""
        if self.tracer is not None and op["cmd"] != "simulate_custom":
            self.tracer.count("cli.out_bytes", len(out.encode()) + len(extra.encode()))
        if self.reference[i] is not None:
            if out + extra != self.reference[i]:
                return "output differs from the first run of this op with the same seed"
            return None
        self.reference[i] = out + extra
        if op["cmd"] == "simulate_custom":
            _successes, rate, stderr = json.loads(out)
            return checks.check_simulate_custom(op["n"], op["cutoff"], rate, stderr)
        return checks.check_cli(op["cmd"], out, extra, op["check"])

    def round(self) -> list[float]:
        gc.collect()  # start every round from the same collector state
        return [self.run_op(i) for i in range(len(self.ops))]

    def timed_round(self) -> tuple[list[float], list[float]]:
        """Each op's wall time, and its time at reference speed (``calibrate``)."""
        gc.collect()
        raw: list[float] = []
        scaled: list[float] = []
        group: list[float] = []  # wall times of the ops since the last kernel run
        before = calibrate.kernel()
        for i in range(len(self.ops)):
            group.append(self.run_op(i))
            if sum(group) >= KERNEL_EVERY_S or i == len(self.ops) - 1:
                after = calibrate.kernel()
                scaled += [calibrate.scale(t, (before + after) / 2) for t in group]
                raw += group
                before, group = after, []
        return raw, scaled

    def traced_round(self) -> tuple[list[float], tracing.Tracer]:
        self.tracer = tracing.Tracer()
        self.tracer.install()
        try:
            return self.round(), self.tracer
        finally:
            self.tracer.uninstall()
            self.tracer = None


def traced_pairs(runner: Runner, deadline: float) -> tuple[int, dict[str, float]]:
    """Alternate untraced and traced rounds until ``deadline``; return the number
    of pairs and the per-layer metrics of the traced round of median time."""
    reports, overheads = [], []
    while not reports or time.perf_counter() < deadline:
        plain = sum(runner.round())
        times, t = runner.traced_round()
        layers = tracing.report(t)
        layers["trace.op_s"] = sum(times)
        overheads.append(sum(times) - plain)
        reports.append(layers)
    # one whole round, so that its layer self times add up to its traced op time
    layers = sorted(reports, key=lambda r: r["trace.op_s"])[(len(reports) - 1) // 2]
    layers["trace.overhead_s"] = statistics.median(overheads)
    return len(reports), layers


def run(plan: dict) -> dict:
    runner = Runner(plan["ops"])
    runner.round()
    deadline = time.perf_counter() + plan["seconds"]
    result: dict = {"op_seconds": [], "raw_op_seconds": [], "layers": None}
    if plan["trace"]:
        result["rounds"], result["layers"] = traced_pairs(runner, deadline)
    else:
        while not result["op_seconds"] or time.perf_counter() < deadline:
            raw, scaled = runner.timed_round()
            result["raw_op_seconds"].append(raw)
            result["op_seconds"].append(scaled)
        result["rounds"] = len(result["op_seconds"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=runner.attempted, failed=len(runner.failures), failures=runner.failures[:20])
    return result


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1:3]
    result = run(json.loads(Path(plan_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
