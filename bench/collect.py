"""Run the benchmark over ten seeds and summarise each metric's spread.

    python3 bench/collect.py --out FILE

Run it from the root of a checkout.  For every workload and seeds 1-10 it
runs ``bench/run.py`` with tracing off for ``run_seconds`` from
``BENCHMARK.json``, keeps the last line of each run, and reports per metric
the median, the quartiles and the spread (q3 - q1) / median, next to the
metric's bound.  It also keeps one traced run (seed 1) per workload.  The
JSON written to FILE is what ``bench/baselines/`` holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The result line of one run, and the report lines printed before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    *report, last = proc.stdout.strip().splitlines()
    return json.loads(last), report


def summarise(results: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = run.SPEC
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "env": run.env_info(),
        "seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        results, reports = [], []
        for seed in SEEDS:
            result, lines = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            reports.append(lines)
            print(f"{workload} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.4f}", flush=True)
        # sizes and op counts do not depend on the seed, so one run's report shows them
        entry = {"report": reports[0], "runs": results, "summary": summarise(results)}
        traced, lines = run_once(workload, TRACED_SEED, spec["run_seconds"], 1)
        entry["traced"] = {"seed": TRACED_SEED, "report": lines, "result": traced}
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            bound = bounds[name]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<20} median {s['median']:.6g}  spread {s['spread']:.4f}  bound {bound}{flag}")
        failed = sum(r["failed"] for r in results)
        print(f"  failed ops {failed} of {sum(r['attempted'] for r in results)}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
