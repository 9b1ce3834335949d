"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with `pytest -s` to see the lines as they happen).  Stated runtime
budgets are enforced with wall-clock assertions.
"""

import contextlib
import io
import itertools
import math
import time
from pathlib import Path

import numpy as np

from randhorizon import (
    PerformanceProfile,
    adversary_game,
    average_case_experiment,
    block_distribution,
    classical_cutoff,
    delta,
    draw_samples,
    hard_instance_lb,
    harmonic,
    learn_strategy,
    make_distribution,
    make_strategy,
    meta_mixture,
    minimax_mixture,
    mixture_success_probability,
    non_iid_hard_instance,
    prophet_block_distribution,
    sample_dirichlet_uniform,
    sample_size_bound,
    simulate,
    single_threshold,
    solve_optimal,
    success_probability,
    threshold_policy,
    uniform,
    union_event_rate,
    worst_case_pstar,
)

from oracles import meta_expected_performance, perm_optimum

TOL = 1e-12


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_classical_optima_match_brute_force():
    start = time.perf_counter()
    stated = {3: 0.5, 4: 11 / 24, 5: 13 / 30}
    worst = 0.0
    for n in range(1, 8):
        oracle, _ = perm_optimum(n)
        got = solve_optimal(delta(n)).value
        worst = max(worst, abs(got - oracle))
        if n in stated:
            worst = max(worst, abs(got - stated[n]))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= TOL and elapsed < 1.0,
        f"delta(1..7) optimum vs permutation brute force, max |diff| = {worst:.2e}, "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_worst_case_tightness():
    rng = np.random.default_rng(1002)
    worst_eq, worst_cap = 0.0, 0.0
    for n in range(2, 51):
        p = worst_case_pstar(n)
        cap = 1.0 / harmonic(n)
        worst_eq = max(worst_eq, abs(solve_optimal(p).value - cap))
        values = np.array(
            [success_probability(p, make_strategy(rng.random(n))) for _ in range(1000)]
        )
        worst_cap = max(worst_cap, float(np.max(values - cap)))
    _report(
        2,
        worst_eq <= TOL and worst_cap <= TOL,
        f"pstar(2..50): |optimum - 1/H_n| <= {worst_eq:.2e}, "
        f"max excess of 1000 random strategies per n = {worst_cap:.2e}",
    )


def test_criterion_03_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    margins = []
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        p = sample_dirichlet_uniform(n, rng)
        s = solve_optimal(p)
        t, opt = s.theta, s.value
        approx = success_probability(p, single_threshold(s.cutoff, n))
        margins.append((t / math.e - approx, approx - opt, opt - t, abs(approx - s.threshold_value)))
    worst = max(max(m) for m in margins)
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= TOL and elapsed < 10.0,
        f"theta/e <= threshold value <= optimum <= theta on 1000 draws (n <= 200), "
        f"max violation = {worst:.2e}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_04_minimax_exactness():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n_bar in range(1, 101):
        mix = minimax_mixture(n_bar)
        want = 1.0 / (1.0 + harmonic(n_bar - 1))
        for _ in range(100):
            p = sample_dirichlet_uniform(n_bar, rng)
            worst = max(worst, abs(mixture_success_probability(p, mix) - want))
    _report(
        4,
        worst <= TOL,
        f"mixture value == 1/(1+H_(n-1)) for n = 1..100, 100 random p each, "
        f"max |dev| = {worst:.2e}",
    )


def test_criterion_05_average_case():
    res = average_case_experiment(100, 0.03, 10_000, 1005)
    exact_uniform = success_probability(uniform(100), single_threshold(res.threshold, 100))
    mean_gap = abs(res.mean_value - exact_uniform)
    target_gap = abs(exact_uniform - 2.0 / math.e**2)
    ok = (
        res.fraction_below == 0.0
        and mean_gap <= 4.0 * res.stderr_mean
        and target_gap <= 0.02
    )
    _report(
        5,
        ok,
        f"n=100, eps=0.03, 1e4 draws: fraction_below = {res.fraction_below}, "
        f"|mean - uniform value| = {mean_gap:.2e} (<= {4 * res.stderr_mean:.2e}), "
        f"|uniform value - 2/e^2| = {target_gap:.4f} (<= 0.02)",
    )


def test_criterion_06_blocking_error():
    rng = np.random.default_rng(1006)
    worst = -1.0
    for _ in range(1000):
        n = int(rng.integers(1, 150))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(n))
        rho = 2.0 - float(rng.random())  # uniform on (1, 2]
        gap = abs(success_probability(p, q) - success_probability(block_distribution(p, rho), q))
        worst = max(worst, gap - (rho - 1.0))
    _report(
        6,
        worst <= TOL,
        f"|A(p,q) - A(Block(p,rho),q)| <= rho-1 on 1000 triples, "
        f"max excess = {worst:.2e}",
    )


def test_criterion_07_learner_end_to_end():
    start = time.perf_counter()
    truths = {
        "delta(100)": (delta(100), 100),
        "uniform(100)": (uniform(100), 100),
        "mix(1,50)": (
            make_distribution(np.concatenate([[0.5], np.zeros(48), [0.5]])),
            50,
        ),
    }
    delta_conf, trials = 0.1, 200
    floor = 1.0 - delta_conf - 0.05
    all_ok, details = True, []
    for name, (p, tail_T) in truths.items():
        opt = solve_optimal(p).value
        for eps in (0.1, 0.2):
            m = sample_size_bound(eps, delta_conf, tail_T)
            seeds = np.random.SeedSequence(1007).spawn(trials)
            wins = 0
            for k in range(trials):
                out = learn_strategy(draw_samples(p, m, seeds[k]), eps)
                wins += success_probability(p, out.q_hat) >= opt - eps
            frac = wins / trials
            all_ok &= frac >= floor
            details.append(f"{name} eps={eps}: {frac:.3f}")
    elapsed = time.perf_counter() - start
    _report(
        7,
        all_ok and elapsed < 120.0,
        f"pass fractions >= {floor} [{'; '.join(details)}], {elapsed:.1f}s (< 120s)",
    )


def test_criterion_08_lower_bound_instances():
    n, eps = 200, 0.02
    p_plus, p_minus, s_star = hard_instance_lb(n, eps)
    limit_gap = abs(s_star - 1.0 / (1.0 + math.e))
    r_plus, r_minus = solve_optimal(p_plus), solve_optimal(p_minus)
    cross_plus = success_probability(p_minus, make_strategy(r_plus.q))
    cross_minus = success_probability(p_plus, make_strategy(r_minus.q))
    separated = (
        cross_plus < r_minus.value - eps / 3.0 and cross_minus < r_plus.value - eps / 3.0
    )
    _report(
        8,
        limit_gap <= 0.01 and separated,
        f"|s*_200 - 1/(1+e)| = {limit_gap:.4f} (<= 0.01); optimum of either side is "
        f"more than eps/3 suboptimal on the other "
        f"(gaps {r_minus.value - cross_plus:.4f}, {r_plus.value - cross_minus:.4f})",
    )


def test_criterion_09_monte_carlo_consistency():
    rng = np.random.default_rng(1009)
    hits = 0
    for k in range(50):
        n = int(rng.integers(1, 41))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(n))
        exact = success_probability(p, q)
        r = simulate(p, q, 100_000, 2000 + k)
        hits += abs(r.rate - exact) <= 4.0 * max(r.stderr, 1e-12)
    _report(
        9,
        hits >= 48,
        f"50 random (p,q) pairs at 1e5 trials: {hits}/50 within 4 standard errors (>= 48)",
    )


def test_criterion_10_adversary_bound():
    all_ok, details = True, []
    for n in (16, 64, 256):
        policies = {
            "first": threshold_policy(1),
            "classical": threshold_policy(classical_cutoff(n)),
            "sqrt": threshold_policy(classical_cutoff(math.isqrt(n) + 1)),
        }
        bound = 1.0 / math.sqrt(n)
        for name, pol in policies.items():
            r = adversary_game(n, pol, 100_000, 3000 + n)
            ok = r.rate <= bound + 4.0 * max(r.stderr, 1e-12)
            all_ok &= ok
            details.append(f"n={n} {name}: {r.rate:.4f} <= {bound:.4f}+4se")
    _report(10, all_ok, "; ".join(details))


def test_criterion_11_meta_mixture():
    rng = np.random.default_rng(1011)
    worst_spread, all_bounded = 0.0, True
    for trial in range(20):
        family = ("identity", "uniform-max", "exp-max")[trial % 3]
        prof = PerformanceProfile(c0=float(rng.uniform(0.05, 2.0)), family=family)
        n_lo = int(rng.integers(1, 40))
        n_hi = n_lo + int(rng.integers(0, 100))
        mix = meta_mixture(prof, n_lo, n_hi)
        values = [meta_expected_performance(mix, prof, n) for n in range(n_lo, n_hi + 1)]
        worst_spread = max(worst_spread, max(abs(v - mix.guarantee) for v in values))
        all_bounded &= mix.guarantee >= prof.c0 / (
            1.0 + math.log(prof.f(n_hi) / prof.f(n_lo))
        ) - TOL
    ident = meta_mixture(PerformanceProfile(c0=1.0), 1, 1000)
    closed_form = 1.0 / (1000 - sum(i / (i + 1) for i in range(1, 1000)))
    eq_gap = abs(ident.guarantee - closed_form)
    asym_gap = abs(ident.guarantee - 1.0 / (1.0 + math.log(1000)))
    _report(
        11,
        worst_spread <= TOL and all_bounded and eq_gap <= TOL and asym_gap <= 0.05,
        f"20 profiles: expected value flat at the guarantee to {worst_spread:.2e}, "
        f"log bound holds; identity n=1000: guarantee matches 1/(n - sum i/(i+1)) "
        f"to {eq_gap:.2e} and is within {asym_gap:.4f} (abs <= 0.05) of 1/(1+log n)",
    )


def test_criterion_12_prophet_constructions():
    rng = np.random.default_rng(1012)
    worst_pin = 0.0
    for n in range(2, 9):
        a = np.sort(rng.uniform(0.1, 3.0, n))
        h, c = non_iid_hard_instance(a)
        vals = [sum(a[i] / a[j] * h.probs[j] for j in range(i, n)) for i in range(n)]
        worst_pin = max(worst_pin, max(abs(v - c) for v in vals))
    ladder_n, x = 2000, 0.1
    a = x ** ((ladder_n - np.arange(1, ladder_n + 1)) / (ladder_n - 1))
    _, c = non_iid_hard_instance(a)
    ladder_gap = abs(c - 1.0 / (1.0 + math.log(10)))
    grid_ok = True
    for n, z_pow in itertools.product((2, 3, 4), (1, 3, 6)):
        K = (2**z_pow) ** (n - 1)
        grid = prophet_block_distribution(n, K, np.linspace(0.1, 1.0, n + 1))
        z = K ** (1.0 / (n - 1))
        bound = (n - 1) * (1 + z ** (-z / (2 * (z - 1))) - z ** (-1 / (z - 1)))
        grid_ok &= grid.xi <= bound + 1e-9
    mc_grid = prophet_block_distribution(3, 4096, 0.1 ** (1 - np.arange(0, 4) / 3))
    r = union_event_rate(mc_grid, 100_000, 1012)
    mc_ok = r.rate >= 1.0 - mc_grid.xi - 4.0 * r.stderr
    _report(
        12,
        worst_pin <= TOL and ladder_gap <= 0.005 and grid_ok and mc_ok,
        f"stopping rules pinned to {worst_pin:.2e}; ladder value within {ladder_gap:.5f} "
        f"(<= 0.005) of 1/(1+ln 10); grid slack bounds hold; union event rate "
        f"{r.rate:.4f} >= 1 - {mc_grid.xi:.4f} - 4se",
    )


def test_readme_library_example_runs_verbatim():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library example"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[: code.index("```")]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    gap = float(printed.getvalue())
    assert -TOL <= gap <= 0.1, gap
