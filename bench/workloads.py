"""Benchmark workloads: the op list of one round, generated from a seed.

A round is a fixed list of ops.  Each op is either one call of
``randhorizon.cli.main(argv)`` or the library-only ``sim.simulate_custom``.
The seed draws the CLI ``--seed`` values and the explicit ``probs`` vectors
(flat Dirichlet draws from the simplex); sizes never depend on the seed, so
runs with different seeds do the same amount of work.

Every workload runs every timed command, so every per-command metric is
defined (and non-zero) on every workload.  The commands a workload is about
run at large sizes; the others run as probes, two ops of 50-90 ms each (on
a 2-vCPU x86-64 VM), so that each per-command time is well above timer noise,
and the probes are about a quarter to a third of the round.  Ops of a command
come in pairs of half size where the work allows, since each op's time is a
median over the rounds of a run and two such medians vary less than one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Commands timed separately; each end-to-end metric "<command>_s" sums them.
COMMANDS = (
    "adversary",
    "simulate",
    "simulate_custom",
    "avgcase",
    "solve",
    "eval",
    "minimax",
    "meta",
    "learn",
)


class Inputs:
    """Writes the input files of one run into a work directory."""

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        self.workdir = workdir
        self.rng = rng
        self.labels: dict[str, str] = {}  # input path -> size label

    def _write(self, obj: dict, label: str) -> str:
        path = str(self.workdir / f"dist{len(self.labels):03d}.json")
        Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        self.labels[path] = label
        return path

    def named(self, kind: str, n: int, param: float | None = None) -> str:
        obj = {"kind": kind, "n": n}
        if param is not None:
            obj["param"] = param
        return self._write(obj, f"{kind}({n})")

    def probs(self, n: int) -> str:
        """A flat Dirichlet draw over horizons 1..n, as an explicit vector."""
        x = self.rng.standard_exponential(n)
        return self._write({"probs": (x / x.sum()).tolist()}, f"probs({n})")

    def seed(self) -> str:
        return str(int(self.rng.integers(2**31)))


def _cli(cmd: str, argv: list[str], check: dict | None = None, summary: str | None = None) -> dict:
    op = {"cmd": cmd, "argv": [cmd, *argv], "check": check or {}}
    if summary is not None:
        op["argv"] += ["--summary", summary]
        op["summary"] = summary
    return op


def adversary(inp: Inputs, ns: list[int], trials: int) -> dict:
    argv = ["--n", *map(str, ns), "--policy", "classical", "--trials", str(trials)]
    return _cli("adversary", argv + ["--seed", inp.seed()])


def simulate(inp: Inputs, dist_path: str, threshold: int, trials: int) -> dict:
    argv = ["--dist", dist_path, "--threshold", str(threshold), "--trials", str(trials)]
    return _cli("simulate", argv + ["--seed", inp.seed()])


def simulate_custom(inp: Inputs, n: int, trials: int) -> dict:
    """delta(n) against the classical threshold policy, through the library."""
    cutoff = _classical_cutoff(n)
    return {"cmd": "simulate_custom", "n": n, "cutoff": cutoff, "trials": trials,
            "seed": int(inp.seed()), "check": {}}


def avgcase(inp: Inputs, ns: list[int], draws: int) -> dict:
    argv = ["--n", *map(str, ns), "--epsilon", "0.03", "--draws", str(draws)]
    return _cli("avgcase", argv + ["--seed", inp.seed()])


def solve(dist_path: str) -> dict:
    return _cli("solve", ["--dist", dist_path], {"dist": dist_path})


def evaluate(dist_path: str, threshold: int) -> dict:
    return _cli("eval", ["--dist", dist_path, "--threshold", str(threshold)])


def minimax(nbar: int, dist_path: str) -> dict:
    return _cli("minimax", ["--nbar", str(nbar), "--dist", dist_path])


def meta(profile: str, nlo: int, nhi: int) -> dict:
    return _cli("meta", ["--profile", profile, "--nlo", str(nlo), "--nhi", str(nhi)])


def learn(inp: Inputs, dist_path: str, epsilons: list[float], trials: int) -> dict:
    delta = 0.1
    argv = ["--dist", dist_path, "--epsilon", *map(str, epsilons), "--delta", str(delta),
            "--trials", str(trials), "--seed", inp.seed()]
    summary = str(Path(dist_path).with_suffix(".summary.csv"))
    return _cli("learn", argv, {"delta": delta}, summary=summary)


def lowerbound(n: int, epsilon: float) -> dict:
    return _cli("lowerbound", ["--n", str(n), "--epsilon", str(epsilon)])


def _classical_cutoff(n: int) -> int:
    """Smallest s with sum_{i=s}^{n-1} 1/i <= 1, the fixed-horizon optimum."""
    if n <= 2:
        return n
    s, total = n, 0.0
    while s > 2 and total + 1.0 / (s - 1) <= 1.0:
        s -= 1
        total += 1.0 / s
    return s


def _probes(inp: Inputs, skip: set[str]) -> list[dict]:
    """Two probe ops per command not in ``skip``."""
    make = {
        "adversary": lambda: adversary(inp, [16, 64], 700),
        "simulate": lambda: simulate(inp, inp.named("delta", 100), 38, 17_500),
        "simulate_custom": lambda: simulate_custom(inp, 100, 150),
        "avgcase": lambda: avgcase(inp, [100, 1000], 2500),
        "solve": lambda: solve(inp.named("uniform", 35_000)),
        "eval": lambda: evaluate(inp.named("uniform", 700_000), 257_516),
        "minimax": lambda: minimax(45_000, inp.probs(1000)),
        "meta": lambda: meta("exp-max", 10, 110),
        "learn": lambda: learn(inp, inp.probs(100), [0.2], 100),
    }
    return [make[cmd]() for cmd in COMMANDS if cmd not in skip for _ in range(2)]


def montecarlo(inp: Inputs) -> list[dict]:
    """Runs both the vectorised engine (simulate) and the per-arrival Python
    engines (adversary, simulate_custom), so one sim engine has to win on both."""
    delta, probs = inp.named("delta", 1000), inp.probs(2000)
    ops = []
    for _ in range(2):
        ops += [
            adversary(inp, [16, 64, 256], 1250),
            simulate(inp, delta, 369, 8_000),
            simulate(inp, probs, 600, 8_000),
            simulate_custom(inp, 100, 400),
            avgcase(inp, [100, 1000], 5000),
        ]
    return ops + _probes(inp, {"adversary", "simulate", "simulate_custom", "avgcase"})


def exact_large(inp: Inputs) -> list[dict]:
    """One-shot exact math at large n: solver, dist, strategy and meta carry the
    load, with JSON parsing in formats and JSON encoding in cli (MB outputs)."""
    big = inp.probs(100_000)
    ops = [
        solve(inp.named("uniform", 300_000)),
        solve(big),
        *(evaluate(inp.named("poisson", 300_000, 1000.0), 1000) for _ in range(2)),
        *(minimax(100_000, big) for _ in range(2)),
        meta("exp-max", 10, 220),
        meta("identity", 1, 700),
    ]
    return ops + _probes(inp, {"solve", "eval", "minimax", "meta"})


def learn_small(inp: Inputs) -> list[dict]:
    """The exact_large functions called thousands of times at n <= 1000: a change
    that speeds large n but adds fixed cost per call loses here."""
    ops = [lowerbound(200, 0.02)]
    for _ in range(2):
        ops += [learn(inp, inp.probs(1000), [0.05, 0.1, 0.2], 40), avgcase(inp, [100, 1000], 5000)]
    for i in range(100):
        n = (10, 30, 100, 300, 1000)[i % 5]
        path = inp.probs(n)
        ops += [solve(path), evaluate(path, math.ceil(n / math.e))]
    return ops + _probes(inp, {"learn", "avgcase", "solve", "eval"})


WORKLOADS = {"montecarlo": montecarlo, "exact_large": exact_large, "learn_small": learn_small}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``; return its ops.

    Each op gets a ``label``: its command line with input files replaced by
    their size, e.g. ``solve --dist uniform(200000)``.
    """
    inp = Inputs(workdir, np.random.default_rng([seed, sorted(WORKLOADS).index(workload)]))
    ops = WORKLOADS[workload](inp)
    for op in ops:
        if op["cmd"] == "simulate_custom":
            op["label"] = f"simulate_custom delta({op['n']}) cutoff {op['cutoff']} trials {op['trials']}"
        else:
            words = [inp.labels.get(w, w) for w in op["argv"]]
            op["label"] = " ".join(w for w in words if not w.startswith(str(workdir)))
    return ops
