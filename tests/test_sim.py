import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from randhorizon import (
    HarnessError,
    ValidationError,
    adversary_game,
    average_case_experiment,
    classical_cutoff,
    delta,
    harmonic,
    make_strategy,
    sample_dirichlet_uniform,
    scalar_policy,
    simulate,
    simulate_custom,
    single_threshold,
    solve_optimal,
    strategy_policy,
    success_probability,
    threshold_policy,
    uniform,
    worst_case_pstar,
)
from randhorizon import sim

from oracles import average_case_one_block, perm_adversary_rate


def test_simulate_examples():
    r = simulate(delta(1), make_strategy([1.0]), 2000, 0)
    assert r.rate == 1.0 and r.stderr == 0.0
    r = simulate(delta(3), single_threshold(2, 3), 100_000, 1)
    assert abs(r.rate - 0.5) <= 4 * r.stderr
    r = simulate(worst_case_pstar(4), single_threshold(1, 4), 100_000, 2)
    assert abs(r.rate - 1 / harmonic(4)) <= 4 * r.stderr
    assert simulate(uniform(6), make_strategy(np.zeros(6)), 2000, 3).successes == 0


def test_simulate_large_horizon():
    n = 10**6
    c = classical_cutoff(n)
    r = simulate(delta(n), single_threshold(c, c), 100_000, 4)
    assert abs(r.rate - 1 / math.e) <= 4 * r.stderr


def test_simulate_deterministic_and_validated():
    a = simulate(uniform(7), single_threshold(3, 7), 5000, 42)
    b = simulate(uniform(7), single_threshold(3, 7), 5000, 42)
    assert a == b
    with pytest.raises(ValidationError):
        simulate(delta(2), single_threshold(1, 2), 0, 0)


def test_simulate_matches_exact_values():
    rng = np.random.default_rng(30)
    fails = 0
    for k in range(15):
        n = int(rng.integers(1, 25))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(n))
        exact = success_probability(p, q)
        r = simulate(p, q, 50_000, 1000 + k)
        if abs(r.rate - exact) > 4 * max(r.stderr, 1e-9):
            fails += 1
    assert fails <= 1


def _binned(times, edges):
    return np.histogram(times, bins=[*edges, np.inf])[0]


def test_record_jump_law():
    # first record after t: P(T > x) = t / x, checked on bins (t, 2t], (2t, 4t], (4t, 8t], (8t, inf)
    rng = np.random.default_rng(14)
    for t in (1, 5, 40):
        jumps = sim._next_record(np.full(40_000, float(t)), rng)
        assert np.all(jumps > t) and np.all(jumps == np.floor(jumps))
        edges = np.array([t, 2 * t, 4 * t, 8 * t], dtype=float)
        tail = t / edges
        expected = jumps.size * (tail - np.append(tail[1:], 0.0))
        counts = _binned(jumps, edges + 0.5)
        assert stats.chisquare(counts, expected).pvalue > 0.001, t
        # the same law from rank streams: the first R_s = 1 with s > t, or s > 8t if none
        records = sim._draw_ranks(8 * t, 10_000, rng)[t:] == 1
        first = np.where(records.any(axis=0), records.argmax(axis=0) + t + 1, np.inf)
        table = np.array([counts, _binned(first, edges + 0.5)])
        assert stats.chi2_contingency(table).pvalue > 0.001, t


def test_simulate_engines_agree():
    # the record walk, the rank-stream engine and the exact value, pairwise;
    # q is shorter than the support, so both engines pad it with ones
    rng = np.random.default_rng(15)
    for k in range(6):
        n = int(rng.integers(2, 61))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(int(rng.integers(1, n))))
        exact = success_probability(p, q)
        walk = simulate(p, q, 40_000, 200 + k)
        ranks = simulate_custom(p, strategy_policy(q), 40_000, 300 + k)
        assert abs(walk.rate - exact) <= 4 * walk.stderr, (n, walk.rate, exact)
        assert abs(ranks.rate - exact) <= 4 * ranks.stderr, (n, ranks.rate, exact)
        assert abs(walk.rate - ranks.rate) <= 4 * math.hypot(walk.stderr, ranks.stderr)


def test_rank_law():
    # relative ranks are uniform on [t] and independent across t
    ranks = sim._draw_ranks(8, 100_000, np.random.default_rng(7)).T
    stat, dof = 0.0, 0
    for t in range(2, 9):
        counts = np.bincount(ranks[:, t - 1], minlength=t + 1)[1:]
        expected = len(ranks) / t
        stat += float(np.sum((counts - expected) ** 2 / expected))
        dof += t - 1
    assert stats.chi2.sf(stat, dof) > 0.001
    # joint uniformity of (R_2, R_3) over its 6 cells implies independence
    joint = np.zeros((2, 3))
    np.add.at(joint, (ranks[:, 1] - 1, ranks[:, 2] - 1), 1)
    expected = len(ranks) / 6
    stat2 = float(np.sum((joint - expected) ** 2 / expected))
    assert stats.chi2.sf(stat2, 5) > 0.001


def test_trace_invariants(monkeypatch):
    # a small chunk cap splits the 2000 rows into many chunks
    monkeypatch.setattr(sim, "_CHUNK_ELEMS", 64)
    rng = np.random.default_rng(9)
    horizons = uniform(9).sample(2000, rng)
    chunks = list(sim._play(horizons, strategy_policy(make_strategy([0.3] * 9)), rng))
    assert len(chunks) > 1
    # the chunks cover every horizon exactly once, in ascending order
    assert np.array_equal(np.concatenate([h for h, _, _ in chunks]), np.sort(horizons))
    for h, ranks, picks in chunks:
        assert ranks.shape == (h[-1], h.size) and 1 <= h[0] <= h[-1] <= 9
        t = np.arange(1, h[-1] + 1)[:, None]
        assert np.all((1 <= ranks) & (ranks <= t))
        assert np.all((0 <= picks) & (picks <= h))
        picked = picks > 0
        # strategy_policy accepts only records
        assert np.all(ranks[picks[picked] - 1, np.flatnonzero(picked)] == 1)
        assert np.all(picked[sim._wins(ranks, picks, h)])


def test_simulate_custom_matches_accept_first():
    p = worst_case_pstar(6)
    exact = 1 / harmonic(6)
    r = simulate_custom(p, threshold_policy(1), 50_000, 3)
    assert abs(r.rate - exact) <= 4 * r.stderr


def test_strategy_policy_replays_threshold_policy_exactly():
    # a 0/1 vector draws no uniforms, so both policies consume one random stream
    p = uniform(8)
    for l in (1, 2, 5, 8, 9, 12):
        a = simulate_custom(p, strategy_policy(single_threshold(l, l)), 3000, 17)
        b = simulate_custom(p, threshold_policy(l), 3000, 17)
        assert a == b, l


def test_simulate_custom_rejects_bad_policy_output():
    with pytest.raises(HarnessError):
        simulate_custom(delta(3), scalar_policy(lambda t, ranks, rng: "yes"), 10, 0)


def test_policies_never_beat_solver_optimum():
    rng = np.random.default_rng(33)

    def second_record(t, ranks, rng_):
        return ranks[-1] == 1 and t >= 2

    def parity(t, ranks, rng_):
        return ranks[-1] == 1 and t % 2 == 0

    def coin(t, ranks, rng_):
        return ranks[-1] == 1 and rng_.random() < 0.5

    for k, policy in enumerate((second_record, parity, coin)):
        n = int(rng.integers(2, 20))
        p = sample_dirichlet_uniform(n, rng)
        opt = solve_optimal(p).value
        r = simulate_custom(p, scalar_policy(policy), 30_000, 50 + k)
        assert r.rate <= opt + 4 * max(r.stderr, 1e-9)


def test_scalar_adapter_agrees_with_batched_threshold():
    p, l = uniform(12), 4
    a = simulate_custom(p, scalar_policy(lambda t, r, g: t >= l and r[-1] == 1), 20_000, 21)
    b = simulate_custom(p, threshold_policy(l), 20_000, 22)
    assert abs(a.rate - b.rate) <= 4 * math.hypot(a.stderr, b.stderr)


@pytest.mark.parametrize(
    "policy",
    [
        lambda t, ranks, rng: np.ones(ranks.shape[1] + 1, dtype=bool),  # wrong shape
        lambda t, ranks, rng: (ranks[-1] == 1).astype(np.int64),  # wrong dtype
        lambda t, ranks, rng: True,  # a scalar answer without scalar_policy
    ],
)
def test_batched_policy_output_is_checked(policy):
    with pytest.raises(HarnessError):
        simulate_custom(uniform(5), policy, 50, 0)
    with pytest.raises(HarnessError):
        adversary_game(9, policy, 50, 0)


def test_picking_non_best_never_wins():
    def non_best(t, ranks, rng_):
        return ranks[-1] != 1

    r = simulate_custom(delta(5), scalar_policy(non_best), 20_000, 4)
    assert r.rate == 0.0


def test_adversary_examples():
    # accept-first at n=4: pick happens at t=1, horizon becomes 4
    r = adversary_game(4, threshold_policy(1), 40_000, 5)
    assert abs(r.rate - 0.25) <= 4 * r.stderr
    assert r.rate <= 0.5 + 4 * r.stderr
    r1 = adversary_game(1, threshold_policy(1), 500, 6)
    assert r1.rate == 1.0


def test_adversary_bound_small():
    for n in (9, 25):
        for l in (1, 2, classical_cutoff(math.isqrt(n) + 1)):
            r = adversary_game(n, threshold_policy(l), 20_000, 80 + n + l)
            assert r.rate <= 1 / math.sqrt(n) + 4 * max(r.stderr, 1e-9)


def test_adversary_matches_permutation_enumeration():
    for n in (4, 9):
        for l in (1, 2, 3):
            exact = perm_adversary_rate(n, l)
            r = adversary_game(n, threshold_policy(l), 40_000, 90 + 3 * n + l)
            assert abs(r.rate - exact) <= 4 * max(r.stderr, 1e-9), (n, l, r.rate, exact)


def test_adversary_small_n():
    # k = 1 here: the adversary asks about two arrivals at most, and n = 1 only one
    for n in (1, 2, 3):
        for l in (1, 2, 3):
            exact = perm_adversary_rate(n, l)
            r = adversary_game(n, threshold_policy(l), 40_000, 110 + 3 * n + l)
            assert abs(r.rate - exact) <= 4 * max(r.stderr, 1e-9), (n, l, r.rate, exact)


def test_average_case_experiment():
    res = average_case_experiment(100, 0.03, 2000, 12)
    assert res.threshold == math.ceil(100 / math.e**2)
    assert res.fraction_below == 0.0
    exact_uniform = success_probability(uniform(100), single_threshold(res.threshold, 100))
    assert abs(res.mean_value - exact_uniform) <= 4 * res.stderr_mean
    res1 = average_case_experiment(1, 0.2, 200, 0)
    assert res1.fraction_below == 0.0 and res1.mean_value == 1.0
    with pytest.raises(ValidationError):
        average_case_experiment(10, 0.5, 100, 0)  # epsilon above 2/e^2


def test_average_case_chunking_keeps_the_stream(monkeypatch):
    # rows of n = 777 are no whole number of SIMD blocks, where a BLAS product per slab
    # would round differently from one on all rows
    whole = average_case_experiment(777, 0.27, 129, 13)
    assert whole.fraction_below > 0.0
    # the slab holds _CHUNK_ELEMS >> 6 elements: 1 row, 7 rows (the last slab short), one slab
    for chunk_elems in (0, (7 * 777 + 11) << 6, (129 * 777) << 6):
        monkeypatch.setattr(sim, "_CHUNK_ELEMS", chunk_elems)
        assert average_case_experiment(777, 0.27, 129, 13) == whole, chunk_elems


@pytest.mark.parametrize("n, epsilon, draws, seed",
                         [(1, 0.2, 50, 0), (7, 0.1, 333, 1), (30, 0.27, 500, 13),
                          (1000, 0.03, 300, 2), (70_000, 0.03, 3, 4)])
def test_average_case_draws_the_stream_of_one_block(n, epsilon, draws, seed):
    fraction, mean = average_case_one_block(n, epsilon, draws, seed)
    res = average_case_experiment(n, epsilon, draws, seed)
    assert res.fraction_below == fraction
    assert abs(res.mean_value - mean) <= 1e-14


def test_average_case_memory_is_the_values_plus_one_slab():
    tracemalloc.start()
    try:
        average_case_experiment(1000, 0.03, 20000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # 160 KB of values and a 512 KB slab; one (draws, n) block is 160 MB
