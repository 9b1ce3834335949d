"""Unified command-line entry point.

One binary, subcommand dispatch.  All randomness flows from --seed: stream s
(the s-th n or epsilon a command runs; simulate has stream 0) uses numpy's
SeedSequence([seed, s]), and ``learn`` draws the trials of its s-th epsilon
one after another from that stream, so results are bit-reproducible for
identical (config, seed).  Each ``cmd_*`` returns its
document, a dict for JSON or a list of rows for CSV (``learn`` also returns
its --summary document).  :func:`main` writes --out, then --summary, through
:func:`_write`, the one writer of files and stdout, in the bytes ``formats``
spells: JSON with sorted keys or CSV with a header row, UTF-8, LF endings and
no timestamps.

Exit codes: 0 success, 2 usage error, 3 missing, unreadable or malformed input
file, 4 parameter out of range, 5 unwritable output, stdout included, 6 out of
memory while computing or writing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dist, formats, learn, meta, sim, solver, strategy
from .errors import InputFileError, ValidationError

EXIT_BAD_FILE = 3
EXIT_BAD_RANGE = 4
EXIT_BAD_OUTPUT = 5
EXIT_NO_MEMORY = 6


def _subseed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([dist._check_int(seed, "seed", 0), *path])


def _write(doc: dict | list[dict], out: str | None) -> None:
    """Write a dict as one line of JSON, or rows as CSV, to a path or, for None or "-", stdout."""
    text = formats.json_text(doc) if isinstance(doc, dict) else formats.csv_text(doc)
    if out not in (None, "-"):
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # point stdout's descriptor at os.devnull, so that the interpreter's flush at exit
        # does not fail again; a stdout without one (io.UnsupportedOperation) is left alone
        with contextlib.suppress(OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _load_distribution(path: str) -> dist.HorizonDistribution:
    return formats.distribution_from_json(formats.load_json(path))


def _load_strategy(args, n: int) -> np.ndarray:
    if args.threshold is not None:  # the strategy file {"kind": "threshold", "l": L}
        return formats.strategy_from_json({"kind": "threshold", "l": args.threshold}, n)
    return formats.strategy_from_json(formats.load_json(args.strategy), n)


def cmd_eval(args) -> dict:
    p = _load_distribution(args.dist)
    value, value_pform = strategy.success_probabilities(p, _load_strategy(args, p.n))
    return {"value": value, "value_pform": value_pform, "n": p.n}


def cmd_solve(args) -> dict:
    p = _load_distribution(args.dist)
    s = solver.solve_optimal(p)
    return {
        "q_opt": s.q,
        "value": s.value,
        "theta": s.theta,
        "k_star": s.k_star,
        "threshold_value": s.threshold_value,
    }


def cmd_minimax(args) -> dict:
    if args.mubar is not None:
        weights = solver.minimax_mixture_expected_bound(args.mubar)
    else:
        weights = solver.minimax_mixture(args.nbar)
    n_bar = weights.size
    result = {
        "n_bar": n_bar,
        "weights": weights,
        "bound": 1.0 / (1.0 + dist.harmonic(n_bar - 1)),
    }
    if args.dist is not None:
        p = _load_distribution(args.dist)
        result["rate"] = strategy.mixture_success_probability(p, weights)
    return result


def _margin(p: float, trials: int) -> float:
    """Four standard errors of a rate of trials draws under the hypothesis p: the pass margin.

    Unlike the observed rate's stderr, it is not 0 when a run sees no success.
    """
    return 4.0 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def cmd_simulate(args) -> list[dict]:
    p = _load_distribution(args.dist)
    q = _load_strategy(args, p.n)
    res = sim.simulate(p, q, args.trials, _subseed(args.seed, 0))
    exact = strategy.success_probability(p, q)
    gap = abs(res.rate - exact)
    return [
        {
            "trials": args.trials,
            "successes": res.successes,
            "rate": f"{res.rate:.10g}",
            "stderr": f"{res.stderr:.10g}",
            "exact": f"{exact:.10g}",
            "gap": f"{gap:.10g}",
            "pass": int(gap <= _margin(exact, args.trials)),
        }
    ]


# threshold at n of each stock adversary policy; sqrt is tuned to the horizon
# the adversary forces on cautious players
_STOCK_POLICIES = {
    "first": lambda n: 1,
    "classical": solver.classical_cutoff,
    "sqrt": lambda n: solver.classical_cutoff(math.isqrt(n) + 1),
}


def cmd_adversary(args) -> list[dict]:
    rows = []
    for i, n in enumerate(args.n):
        dist._check_size(n, "n")
        policy = sim.threshold_policy(_STOCK_POLICIES[args.policy](n))
        res = sim.adversary_game(n, policy, args.trials, _subseed(args.seed, i))
        bound = 1.0 / math.sqrt(n)
        rows.append(
            {
                "n": n,
                "policy": args.policy,
                "trials": args.trials,
                "rate": f"{res.rate:.10g}",
                "stderr": f"{res.stderr:.10g}",
                "bound": f"{bound:.10g}",
                "pass": int(res.rate <= bound + _margin(bound, args.trials)),
            }
        )
    return rows


def cmd_avgcase(args) -> list[dict]:
    rows = []
    for i, n in enumerate(args.n):
        res = sim.average_case_experiment(n, args.epsilon, args.draws, _subseed(args.seed, i))
        rows.append(
            {
                "n": n,
                "epsilon": args.epsilon,
                "draws": args.draws,
                "threshold": res.threshold,
                "fraction_below": f"{res.fraction_below:.10g}",
                "mean_value": f"{res.mean_value:.10g}",
                "stderr_mean": f"{res.stderr_mean:.10g}",
            }
        )
    return rows


def cmd_learn(args) -> tuple[list[dict], list[dict]]:
    p = _load_distribution(args.dist)
    dist._check_size(args.trials, "trials")
    # by runs, as value_hat is scored, so that q_hat = q_opt has a gap of exactly 0
    value_opt = strategy.runs_value(p, solver.solve_optimal(p).q)
    rows, summary = [], []
    for i, eps in enumerate(args.epsilon):
        m, value_hat = learn.learning_trials(p, eps, args.delta, args.trials,
                                             _subseed(args.seed, i), T=args.tail_bound)
        gap = value_opt - value_hat
        ok = gap <= eps
        for trial, (m_t, v_t, gap_t, ok_t) in enumerate(zip(m.tolist(), value_hat.tolist(),
                                                             gap.tolist(), ok.tolist())):
            rows.append(
                {
                    "trial": trial,
                    "m": m_t,
                    "value_hat": f"{v_t:.10g}",
                    "value_opt": f"{value_opt:.10g}",
                    "gap": f"{gap_t:.10g}",
                    "pass": int(ok_t),
                    "epsilon": eps,
                }
            )
        summary.append({"epsilon": eps, "m": int(m[-1]),
                        "pass_rate": f"{int(ok.sum()) / args.trials:.10g}"})
    return rows, summary


def cmd_meta(args) -> dict | list[dict]:
    profile = _parse_profile(args.profile, args.c0)
    mix = meta.meta_mixture(profile, args.nlo, args.nhi)
    guarantee = f"{mix.guarantee:.10g}"
    flat = [
        {"n": n, "expected_performance": f"{e:.10g}", "guarantee": guarantee}
        for n, e in enumerate(mix.expected.tolist(), start=args.nlo)
    ]
    if args.format == "csv":
        return flat
    return {
        "profile": args.profile,
        "c0": args.c0,
        "n_lo": args.nlo,
        "n_hi": args.nhi,
        "weights": mix.weights,
        "guarantee": mix.guarantee,
        "log_bound": mix.log_bound,
        "flat_check": flat,
    }


def _parse_profile(profile_arg: str, c0: float) -> meta.PerformanceProfile:
    if profile_arg.startswith("table:"):
        raw = formats.load_json(profile_arg[len("table:") :])
        table = formats.profile_table_from_json(raw)
        return meta.PerformanceProfile(c0=c0, table=table)
    return meta.PerformanceProfile(c0=c0, family=profile_arg)


def cmd_lowerbound(args) -> dict:
    p_plus, p_minus, s_star = learn.hard_instance_lb(args.n, args.epsilon)
    opt_plus = solver.solve_optimal(p_plus)
    opt_minus = solver.solve_optimal(p_minus)
    cross_plus = strategy.success_probability(p_minus, opt_plus.q)
    cross_minus = strategy.success_probability(p_plus, opt_minus.q)
    separated = (
        cross_plus < opt_minus.value - args.epsilon / 3.0
        and cross_minus < opt_plus.value - args.epsilon / 3.0
    )
    return {
        "n": args.n,
        "epsilon": args.epsilon,
        "s_star": s_star,
        "p_plus_at_1": float(p_plus.probs[0]),
        "p_minus_at_1": float(p_minus.probs[0]),
        "opt_plus": opt_plus.value,
        "opt_minus": opt_minus.value,
        "cross_plus_on_minus": cross_plus,
        "cross_minus_on_plus": cross_minus,
        "separated": bool(separated),
    }


# built on the first call of main() and reused: rebuilding the nine subparsers on
# every call cost more than a small command and left reference cycles to collect
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randhorizon",
        description="Secretary problems with a random time horizon: "
        "exact evaluation, solving, learning, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def strategy_options(sp):
        rule = sp.add_mutually_exclusive_group(required=True)
        rule.add_argument("--strategy")
        rule.add_argument("--threshold", type=int)

    sp = sub.add_parser("eval", help="exact success probability of a strategy")
    sp.add_argument("--dist", required=True)
    strategy_options(sp)
    common(sp, seed=False)

    sp = sub.add_parser("solve", help="optimal strategy and value for a known distribution")
    sp.add_argument("--dist", required=True)
    common(sp, seed=False)

    sp = sub.add_parser("minimax", help="threshold mixture for a known horizon bound")
    bound = sp.add_mutually_exclusive_group(required=True)
    bound.add_argument("--nbar", type=int)
    bound.add_argument("--mubar", type=float)
    sp.add_argument("--dist")
    common(sp, seed=False)

    sp = sub.add_parser("simulate", help="Monte Carlo of a strategy vs the exact value")
    sp.add_argument("--dist", required=True)
    strategy_options(sp)
    sp.add_argument("--trials", type=int, default=100000)
    common(sp)

    sp = sub.add_parser("adversary", help="success against the adaptive horizon adversary")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--policy", choices=_STOCK_POLICIES, default="classical")
    sp.add_argument("--trials", type=int, default=100000)
    common(sp)

    sp = sub.add_parser("avgcase", help="threshold rule values on random simplex draws")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--draws", type=int, default=10000)
    common(sp)

    sp = sub.add_parser("learn", help="sample-based learner trials against a known truth")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--epsilon", type=float, nargs="+", required=True)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tail-bound", type=int, default=None,
                    help="known T with P[N > T] <= eps/12; omit to pre-estimate from fresh samples")
    sp.add_argument("--summary", default=None,
                    help="also write (epsilon, m, pass_rate) CSV; m is the last trial's sample count")
    common(sp)

    sp = sub.add_parser("meta", help="horizon-randomization mixture for black boxes")
    sp.add_argument("--profile", default="identity",
                    help="identity | uniform-max | exp-max | table:FILE")
    sp.add_argument("--c0", type=float, default=1.0)
    sp.add_argument("--nlo", type=int, required=True)
    sp.add_argument("--nhi", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp, seed=False)

    sp = sub.add_parser("lowerbound", help="two-point sample-complexity hard instances")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    common(sp, seed=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except MemoryError as exc:
        # a resource limit, neither bad input nor a bug: no traceback
        detail = str(exc).replace("\n", " ")
        print(f"randhorizon: out of memory in {args.command}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return EXIT_NO_MEMORY


def _run(args) -> int:
    """Compute and write one parsed command; the exit code of all but running out of memory."""
    # looked up on each call, not bound into the cached parser, so that a rebound
    # cmd_* (bench/tracer.py wraps them) is the one that runs
    command = {
        "eval": cmd_eval, "solve": cmd_solve, "minimax": cmd_minimax,
        "simulate": cmd_simulate, "adversary": cmd_adversary, "avgcase": cmd_avgcase,
        "learn": cmd_learn, "meta": cmd_meta, "lowerbound": cmd_lowerbound,
    }[args.command]
    try:
        doc = command(args)
    except ValidationError as exc:
        print(f"randhorizon: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    except InputFileError as exc:
        print(f"randhorizon: bad input file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    doc, summary = doc if args.command == "learn" else (doc, None)
    try:
        _write(doc, args.out)
        if summary is not None and args.summary is not None:
            _write(summary, args.summary)
    except OSError as exc:
        print(f"randhorizon: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_OUTPUT
    return 0


if __name__ == "__main__":
    sys.exit(main())
