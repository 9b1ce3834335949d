"""The randhorizon benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It writes the workload's inputs, drawn
from the seed, into a temporary directory under ``.bench_build/``, measures the
import time of ``randhorizon.cli`` in fresh interpreters, and then runs the
workload in a fresh single-threaded process (``bench/worker.py``) that calls
``randhorizon.cli.main(argv)`` one op at a time (closed loop, one client) for
S seconds.  Every op of the round is timed in every round; each time metric
sums, over its ops, each op's median over the rounds of a run.  Times, the
import time too, are scaled to a reference machine speed by a calibration
kernel timed next to them (``bench/calibrate.py``), since the shared host's
speed drifts between runs.

It prints a readable report and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (of the
traced round of median time; each traced round is paired with an untraced one).  Units come from
``BENCHMARK.json``.  Without ``src/randhorizon`` in the current directory it exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 150
SETUP_REPEATS = 9
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median import time of randhorizon.cli, each in a fresh interpreter that
    then times the calibration kernel; at reference speed (``calibrate``)."""
    code = (
        "import time; t = time.perf_counter(); import randhorizon.cli; s = time.perf_counter() - t\n"
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import calibrate, statistics\n"
        "print(s, statistics.median(calibrate.kernel() for _ in range(5)))"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        seconds, kernel_s = map(float, proc.stdout.split())
        times.append(calibrate.scale(seconds, kernel_s))
    return statistics.median(times[1:])  # the first import also writes the bytecode cache


def env_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(ops: list[dict], result: dict, setup_s: float) -> dict[str, float]:
    rounds = result["op_seconds"]
    # the sum of per-op medians varies less from run to run than the median of round sums
    op_median = [statistics.median(r[i] for r in rounds) for i in range(len(ops))]
    metrics = {"setup_s": setup_s, "wall_s": sum(op_median), "peak_rss_mb": result["peak_rss_mb"]}
    for cmd in workloads.COMMANDS:
        metrics[f"{cmd}_s"] = sum(t for t, op in zip(op_median, ops) if op["cmd"] == cmd)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "randhorizon" / "cli.py").is_file():
        print(f"bench: no {src / 'randhorizon'}; run from the root of a randhorizon checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=build) as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp))
        setup_s = 0.0 if args.trace else setup_seconds(env)
        plan_path, result_path = Path(tmp, "plan.json"), Path(tmp, "result.json")
        plan_path.write_text(json.dumps({"ops": ops, "seconds": args.seconds, "trace": bool(args.trace)}))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=env, check=True, timeout=WORKER_TIMEOUT_S,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))

    counts = Counter(op["cmd"] for op in ops)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env {json.dumps(env_info())}")
    rounds = "pairs of untraced and traced rounds" if args.trace else "rounds timed"
    print(f"ops per round {json.dumps(counts)}; {rounds} {result['rounds']} (after 1 untimed warm-up round)")
    for label, n in Counter(op["label"] for op in ops).items():
        print(f"  {n:>3} x {label}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        metrics = result["layers"]
        print("per-layer metrics of the traced round of median time (no wait metrics: ops run one at a time "
              "in one thread)")
        own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  layer self times sum to {own:.6f} s of {metrics['trace.op_s']:.6f} s traced op time")
        print("  trace.overhead_s is the median over pairs of traced minus untraced round time")
    else:
        metrics = end_to_end(ops, result, setup_s)
        raw = sum(statistics.median(r[i] for r in result["raw_op_seconds"]) for i in range(len(ops)))
        print("end-to-end metrics (each op's median over the timed rounds, summed over all ops for wall_s "
              "and over one command's ops for <command>_s; times are at reference speed, see "
              f"bench/calibrate.py: wall_s unscaled is {raw:.6g} s)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {UNITS[name]}")
    # failed_frac is 0 when all ops pass; the result line carries it as failed / attempted
    print(f"  {'failed_frac':<30} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
