"""Unified command-line entry point.

One binary, subcommand dispatch.  All randomness flows from --seed: trial t
of stream s uses numpy's SeedSequence([seed, s, t]) so results are
bit-reproducible for identical (config, seed).  Outputs are JSON (sorted
keys) or CSV (header row, UTF-8, LF endings) and carry no timestamps.

Exit codes: 0 success, 2 usage error, 3 missing or malformed input file,
4 parameter out of range, 5 unwritable output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dist, formats, learn, meta, sim, solver, strategy
from .errors import InputFileError, ValidationError

EXIT_BAD_FILE = 3
EXIT_BAD_RANGE = 4
EXIT_BAD_OUTPUT = 5


class _OutputError(Exception):
    pass


def _subseed(seed: int, *path: int) -> np.random.SeedSequence:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence([seed, *path])


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def emit_plotdata(rows: list[dict], out: str | None, fieldnames: list[str] | None = None) -> None:
    """Write tidy CSV (header row, LF endings) for external plotting."""
    if not rows:
        raise ValidationError("no rows to write")
    names = fieldnames or list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buf.getvalue(), out)


def _load_distribution(path: str) -> dist.HorizonDistribution:
    return formats.distribution_from_json(formats.load_json(path))


def _load_strategy(args) -> strategy.Strategy:
    if getattr(args, "threshold", None) is not None:
        return strategy.single_threshold(args.threshold, args.threshold)
    if getattr(args, "strategy", None) is not None:
        return formats.strategy_from_json(formats.load_json(args.strategy))
    raise ValidationError("need --strategy FILE or --threshold L")


def cmd_eval(args) -> int:
    p = _load_distribution(args.dist)
    q = _load_strategy(args)
    _write_text(
        _json_text(
            {
                "value": strategy.success_probability(p, q),
                "value_pform": strategy.success_probability_pform(p, q),
                "n": p.n,
            }
        ),
        args.out,
    )
    return 0


def cmd_solve(args) -> int:
    p = _load_distribution(args.dist)
    s = solver.solve_summary(p)
    _write_text(
        _json_text(
            {
                "q_opt": s.q.tolist(),
                "value": s.value,
                "theta": s.theta,
                "k_star": s.k_star,
                "threshold_value": s.threshold_value,
            }
        ),
        args.out,
    )
    return 0


def cmd_minimax(args) -> int:
    if args.mubar is not None:
        mix = solver.minimax_mixture_expected_bound(args.mubar)
    elif args.nbar is not None:
        mix = solver.minimax_mixture(args.nbar)
    else:
        raise ValidationError("need --nbar N or --mubar MU")
    n_bar = mix.weights.size
    result = {
        "n_bar": n_bar,
        "weights": list(map(float, mix.weights)),
        "bound": 1.0 / (1.0 + dist.harmonic(n_bar - 1)),
    }
    if args.dist is not None:
        p = _load_distribution(args.dist)
        result["rate"] = strategy.mixture_success_probability(p, mix)
    _write_text(_json_text(result), args.out)
    return 0


def cmd_simulate(args) -> int:
    p = _load_distribution(args.dist)
    q = _load_strategy(args)
    res = sim.simulate(p, q, args.trials, _subseed(args.seed, 0))
    exact = strategy.success_probability(p, q)
    gap = abs(res.rate - exact)
    emit_plotdata(
        [
            {
                "trials": args.trials,
                "successes": res.successes,
                "rate": f"{res.rate:.10g}",
                "stderr": f"{res.stderr:.10g}",
                "exact": f"{exact:.10g}",
                "gap": f"{gap:.10g}",
                "pass": int(gap <= 4.0 * res.stderr),
            }
        ],
        args.out,
    )
    return 0


_STOCK_POLICIES = ("first", "classical", "sqrt")


def _stock_policy(name: str, n: int) -> sim.Policy:
    if name == "first":
        return sim.threshold_policy(1)
    if name == "classical":
        return sim.threshold_policy(solver.classical_cutoff(n))
    if name == "sqrt":
        # tuned to the horizon the adversary forces on cautious players
        return sim.threshold_policy(solver.classical_cutoff(math.isqrt(n) + 1))
    raise ValidationError(f"unknown policy {name!r}")


def cmd_adversary(args) -> int:
    rows = []
    for i, n in enumerate(args.n):
        res = sim.adversary_game(
            n, _stock_policy(args.policy, n), args.trials, _subseed(args.seed, i)
        )
        bound = 1.0 / math.sqrt(n)
        rows.append(
            {
                "n": n,
                "policy": args.policy,
                "trials": args.trials,
                "rate": f"{res.rate:.10g}",
                "stderr": f"{res.stderr:.10g}",
                "bound": f"{bound:.10g}",
                "pass": int(res.rate <= bound + 4.0 * res.stderr),
            }
        )
    emit_plotdata(rows, args.out)
    return 0


def cmd_avgcase(args) -> int:
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
    emit_plotdata(rows, args.out)
    return 0


def cmd_learn(args) -> int:
    p = _load_distribution(args.dist)
    rows, summary = [], []
    for i, eps in enumerate(args.epsilon):
        passes = 0
        m_used = 0
        for trial in range(args.trials):
            seed = int(_subseed(args.seed, i, trial).generate_state(1)[0])
            res = learn.learning_trial(p, eps, args.delta, seed, T=args.tail_bound)
            ok = int(res.gap <= eps)
            passes += ok
            m_used = res.m
            rows.append(
                {
                    "trial": trial,
                    "m": res.m,
                    "value_hat": f"{res.value_hat:.10g}",
                    "value_opt": f"{res.value_opt:.10g}",
                    "gap": f"{res.gap:.10g}",
                    "pass": ok,
                    "epsilon": eps,
                }
            )
        summary.append({"epsilon": eps, "m": m_used, "pass_rate": f"{passes / args.trials:.10g}"})
    emit_plotdata(rows, args.out)
    if args.summary is not None:
        emit_plotdata(summary, args.summary)
    return 0


def cmd_meta(args) -> int:
    profile = _parse_profile(args.profile, args.c0)
    mix = meta.meta_mixture(profile, args.nlo, args.nhi)
    guarantee = f"{mix.guarantee:.10g}"
    flat = [
        {"n": n, "expected_performance": f"{e:.10g}", "guarantee": guarantee}
        for n, e in enumerate(meta.meta_expected_curve(mix, profile).tolist(), start=args.nlo)
    ]
    if args.format == "csv":
        emit_plotdata(flat, args.out)
    else:
        _write_text(
            _json_text(
                {
                    "profile": args.profile,
                    "c0": args.c0,
                    "n_lo": args.nlo,
                    "n_hi": args.nhi,
                    "weights": list(map(float, mix.weights)),
                    "guarantee": mix.guarantee,
                    "log_bound": profile.c0
                    / (1.0 + math.log(profile.f(args.nhi) / profile.f(args.nlo))),
                    "flat_check": flat,
                }
            ),
            args.out,
        )
    return 0


def _parse_profile(profile_arg: str, c0: float) -> meta.PerformanceProfile:
    if profile_arg.startswith("table:"):
        raw = formats.load_json(profile_arg[len("table:") :])
        table = formats.profile_table_from_json(raw)
        return meta.PerformanceProfile(c0=c0, family="table", table=table)
    return meta.PerformanceProfile(c0=c0, family=profile_arg)


def cmd_lowerbound(args) -> int:
    p_plus, p_minus, s_star = learn.hard_instance_lb(args.n, args.epsilon)
    opt_plus = solver.solve_optimal(p_plus)
    opt_minus = solver.solve_optimal(p_minus)
    cross_plus = strategy.success_probability(p_minus, opt_plus.q_opt)
    cross_minus = strategy.success_probability(p_plus, opt_minus.q_opt)
    separated = (
        cross_plus < opt_minus.value - args.epsilon / 3.0
        and cross_minus < opt_plus.value - args.epsilon / 3.0
    )
    _write_text(
        _json_text(
            {
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
        ),
        args.out,
    )
    return 0


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

    sp = sub.add_parser("eval", help="exact success probability of a strategy")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--strategy")
    sp.add_argument("--threshold", type=int)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("solve", help="optimal strategy and value for a known distribution")
    sp.add_argument("--dist", required=True)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("minimax", help="threshold mixture for a known horizon bound")
    sp.add_argument("--nbar", type=int)
    sp.add_argument("--mubar", type=float)
    sp.add_argument("--dist")
    common(sp, seed=False)
    sp.set_defaults(func=cmd_minimax)

    sp = sub.add_parser("simulate", help="Monte Carlo of a strategy vs the exact value")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--strategy")
    sp.add_argument("--threshold", type=int)
    sp.add_argument("--trials", type=int, default=100000)
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("adversary", help="success against the adaptive horizon adversary")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--policy", choices=_STOCK_POLICIES, default="classical")
    sp.add_argument("--trials", type=int, default=100000)
    common(sp)
    sp.set_defaults(func=cmd_adversary)

    sp = sub.add_parser("avgcase", help="threshold rule values on random simplex draws")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--draws", type=int, default=10000)
    common(sp)
    sp.set_defaults(func=cmd_avgcase)

    sp = sub.add_parser("learn", help="sample-based learner trials against a known truth")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--epsilon", type=float, nargs="+", required=True)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument(
        "--tail-bound",
        type=int,
        default=None,
        help="known T with P[N > T] <= eps/12; omit to pre-estimate from fresh samples",
    )
    sp.add_argument("--summary", default=None, help="also write (epsilon, m, pass_rate) CSV")
    common(sp)
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("meta", help="horizon-randomization mixture for black boxes")
    sp.add_argument(
        "--profile",
        default="identity",
        help="identity | uniform-max | exp-max | table:FILE",
    )
    sp.add_argument("--c0", type=float, default=1.0)
    sp.add_argument("--nlo", type=int, required=True)
    sp.add_argument("--nhi", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp, seed=False)
    sp.set_defaults(func=cmd_meta)

    sp = sub.add_parser("lowerbound", help="two-point sample-complexity hard instances")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    common(sp, seed=False)
    sp.set_defaults(func=cmd_lowerbound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OutputError as exc:
        print(f"randhorizon: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_OUTPUT
    except ValidationError as exc:
        print(f"randhorizon: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    except (InputFileError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"randhorizon: bad input file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
