import math
from fractions import Fraction
import re
import tracemalloc

import numpy as np
import pytest

from randhorizon import (
    ValidationError,
    delta,
    lambda_sequence,
    make_distribution,
    make_strategy,
    mixture_success_probability,
    minimax_mixture,
    sample_dirichlet_uniform,
    simulate,
    single_threshold,
    solve_optimal,
    strategy_policy,
    success_probabilities,
    success_probability,
    threshold_success_values,
    uniform,
    worst_case_pstar,
)

from randhorizon.strategy import (_CHUNK, _acceptance_terms, _runs_value, _threshold_values,
                                  point_mass_values, runs_value)

from oracles import (eval_two_pass, eval_whole_vector, first_principles_success, lambda_form_exact,
                     lambda_sequence_copy, padded, perm_success_rate, prefix_products_concat,
                     threshold_values_padded)


def test_single_threshold_examples():
    assert np.array_equal(single_threshold(1, 3), [1, 1, 1])
    assert np.array_equal(single_threshold(2, 3), [0, 1, 1])
    assert np.array_equal(single_threshold(5, 3), [0, 0, 0])
    with pytest.raises(ValidationError):
        single_threshold(0, 3)


def test_strategy_validation():
    with pytest.raises(ValidationError):
        make_strategy([0.5, 1.2])
    with pytest.raises(ValidationError):
        make_strategy([-0.1])


READERS = {
    "success_probability": lambda q: success_probability(delta(4), q),
    "success_probabilities": lambda q: success_probabilities(delta(4), q),
    "simulate": lambda q: simulate(delta(4), q, 10, 0),
    "strategy_policy": strategy_policy,
    "point_mass_values": point_mass_values,
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_every_reader_of_a_vector_refuses_what_make_strategy_refuses(read):
    for bad in ([[0.5, 1.0]], [0.5, np.nan], [-0.1, 1.0], [0.5, 1.5]):
        with pytest.raises(ValidationError) as want:
            make_strategy(bad)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(want.value))}$"):
            read(np.array(bad))
    q = np.array([0.0, 1.0, 0.25])
    read(q)
    assert q.flags.writeable and np.array_equal(q, [0.0, 1.0, 0.25])
    read(q.tolist())  # a list crosses in as a vector does


def test_a_strategy_policy_plays_the_vector_it_was_given():
    q = np.array([0.0, 1.0])
    policy = strategy_policy(q)
    q[:] = [1.0, 0.0]
    records = np.ones((2, 3), dtype=np.int32)
    rng = np.random.default_rng(0)
    assert not policy(1, records[:1], rng).any() and policy(2, records, rng).all()


def _terms(q: np.ndarray, start: int = 0, u: float = 1.0, n: int | None = None):
    """(a_{start+1}..a_n, U_n) of q by one kernel step from U_start = u; n defaults to q's length."""
    n = q.size if n is None else n
    buf = np.empty(n - start + 1)
    u = _acceptance_terms(q, start, u, np.arange(start + 1.0, n + 1), buf)
    return buf[:-1], u


def test_prefix_products_examples():
    # the terms a_i = U_{i-1} q_i that the prefix products U make, and U after the last
    assert np.array_equal(_terms(np.array([1.0, 1.0, 1.0]))[0], [1, 0, 0])
    assert np.array_equal(_terms(np.array([0.0, 1.0, 1.0]))[0], [0, 1, 0.5])
    assert _terms(np.array([0.0, 1.0, 1.0]))[1] == 0.5 * (1 - 1 / 3)
    assert np.array_equal(_terms(np.zeros(3))[0], [0, 0, 0])
    assert np.array_equal(_terms(np.zeros(0))[0], np.zeros(0)) and _terms(np.zeros(0))[1] == 1.0
    # past q's length the entries count as 1
    assert np.array_equal(_terms(np.array([0.0]), n=3)[0], [0, 1, 0.5])


def test_a_kernel_step_split_anywhere_keeps_the_bits_of_one_step():
    # U is carried into the next step's first entry, so the cumprod runs on unbroken
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        q = rng.random(int(rng.integers(0, 2 * n)))
        whole, u_n = _terms(q, n=n)
        cut = int(rng.integers(0, n + 1))
        head, u = _terms(q, n=cut)
        tail, u_end = _terms(q, cut, u, n)
        assert _same_bits(np.concatenate([head, tail]), whole) and u_end.hex() == u_n.hex(), (n, cut)


def test_prefix_products_monotone_in_unit_interval():
    # U_i = U_{i-1} - a_i / i, so U is nonincreasing in [0, 1] iff every a_i >= 0 and sum a_i/i <= 1
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = _terms(rng.random(int(rng.integers(1, 50))))[0]
        assert np.all(a >= 0.0)
        assert np.sum(a / np.arange(1, a.size + 1)) <= 1 + 1e-15


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _random_law_and_strategy(rng: np.random.Generator, case: int):
    """n = 1 or log-uniform up to 5000, zero entries; q 0/1 or fractional, shorter or longer than n."""
    n = 1 if case % 20 == 0 else int(math.exp(rng.uniform(0.0, math.log(5000.0))))
    w = rng.standard_exponential(n)
    w[rng.random(n) < 0.3] = 0.0
    w[n - int(rng.integers(0, n // 2 + 1)) :] = 0.0
    w[rng.integers(n)] += 1e-3
    q = rng.random(int(rng.integers(0, 2 * n + 2)))
    if case % 2:
        q = np.floor(q + rng.random())  # 0/1
    return make_distribution(w), make_strategy(q)


def test_prefix_products_match_the_concatenate_form_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = [np.zeros(0), np.ones(1), np.zeros(1)]
    for _ in range(300):
        m = int(rng.integers(0, 3000))
        cases.append(rng.random(m) if rng.random() < 0.5 else np.floor(rng.random(m) + rng.random()))
    for q in cases:
        assert _same_bits(_terms(q)[0], prefix_products_concat(q)[:-1] * q), q.shape


def test_one_buffer_evaluators_match_the_separate_passes_bit_for_bit():
    rng = np.random.default_rng(24)
    for case in range(2000):
        p, s = _random_law_and_strategy(rng, case)
        assert _same_bits(lambda_sequence(p), lambda_sequence_copy(p)), p.n
        want = eval_two_pass(p, s)
        got = success_probabilities(p, s)
        assert [v.hex() for v in got] == [v.hex() for v in want], (p.n, s.size)
        assert success_probability(p, s).hex() == want[0].hex()
        qx = padded(s, p.n)
        assert _same_bits(point_mass_values(qx),
                          np.cumsum(prefix_products_concat(qx)[:-1] * qx) / np.arange(1, p.n + 1))


def _laws_with_zero_tails(n: int, rng: np.random.Generator):
    """(name, p) on [n]: random weights, some of them zeros, whose zero tail (+0.0 or -0.0) starts
    nowhere, at index 1, mid-chunk or one either side of a chunk edge."""
    for start in sorted({n, 1, min(n, _CHUNK // 2 + 3), _CHUNK - 1, _CHUNK + 1}):
        if start > n:
            continue
        w = rng.standard_exponential(n)
        w[rng.random(n) < 0.3] = 0.0
        w[start - 1] += 1e-3
        for zero in (0.0, -0.0):
            w[start:] = zero
            yield f"tail from {start}, {zero}", make_distribution(w)


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
def test_chunked_evaluators_keep_the_bits_of_the_whole_vector_pass(n):
    # U and the prefix sum of the terms are carried across chunk edges; the kernel runs from
    # q's first positive entry to p's last positive horizon, and both sums still run over n
    rng = np.random.default_rng(n)
    for law, p in _laws_with_zero_tails(n, rng):
        k = p._last_positive + 1
        leading_zeros = rng.random(n + 3)
        leading_zeros[: max(n // 2, 1)] = 0.0
        past_k = rng.random(n + 3)
        past_k[:k] = -0.0
        rules = {
            "shorter": rng.random(max(n - 5, 0)),
            "longer": rng.random(n + 9),
            "empty": np.zeros(0),
            "zeros": np.zeros(n),
            "negative zeros": -np.zeros(n // 2 + 1),
            "negative zeros to n and past it": -np.zeros(n + 3),
            "leading zeros": leading_zeros,
            "first positive past K": past_k,
            "threshold past K": single_threshold(k + 1, n),
            "0/1 shorter": np.floor(rng.random(n // 2) + rng.random()),
            "threshold at n": single_threshold(n, n),
            "threshold past n": single_threshold(n + 2, n + 4),
        }
        for name, q in rules.items():
            value, pform, masses = eval_whole_vector(p, q)
            assert [v.hex() for v in success_probabilities(p, q)] == [value.hex(), pform.hex()], (
                law, name)
            assert success_probability(p, q).hex() == value.hex(), (law, name)
            assert _same_bits(point_mass_values(padded(q, n)), masses), (law, name)


def test_windowed_evaluators_keep_the_bits_on_random_laws_and_rules():
    # zero tails and zero heads of every length, -0.0 in p and in q, empty windows, chunk edges
    rng = np.random.default_rng(33)
    sizes = [1, 2, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
    for case in range(2000):
        n = sizes[case // 10 % len(sizes)] if case % 10 == 0 else int(rng.integers(1, 300))
        w = rng.standard_exponential(n)
        w[rng.random(n) < rng.random()] = 0.0
        k = int(rng.integers(1, n + 1))
        w[k:] = 0.0
        w[k - 1] += 1e-3
        if rng.random() < 0.3:
            w[w == 0.0] = -0.0
        p = make_distribution(w)
        m = int(rng.integers(0, n + 5))
        q = rng.random(m)
        if rng.random() < 0.3:
            q = np.floor(q + rng.random())
        q[: int(rng.integers(0, m + 1))] = 0.0
        if rng.random() < 0.3:
            q[q == 0.0] = -0.0
        value, pform = eval_whole_vector(p, q)[:2]
        assert [v.hex() for v in success_probabilities(p, q)] == [value.hex(), pform.hex()], case
        assert success_probability(p, q).hex() == value.hex(), case


def _random_rule(rng: np.random.Generator, n: int) -> np.ndarray:
    """A 0/1 rule of random length around n with a random number of runs."""
    size = int(rng.integers(max(1, n - 3), n + 4))
    return np.floor(rng.random(size) + rng.random()).astype(float)


def _runs_scale(p, q) -> float:
    """sum_j U_j (A(q^(s_j)) + f_j A(q^(e_j+1))) over q's runs: what the run form cancels down from.

    A short run [s, e] far from 1 scores the difference of two close threshold
    values, so the run form's rounding is a few ulps of this sum, not of A(p, q).
    """
    steps = np.diff(padded(q, p.n), prepend=0.0, append=0.0)
    starts, stops = np.flatnonzero(steps > 0) + 1, np.flatnonzero(steps < 0)
    values = _threshold_values(lambda_sequence(p), p.n + 1)
    f = (starts - 1) / stops
    u = np.concatenate([[1.0], np.cumprod(f)[:-1]])
    return float(np.sum(u * (values[starts - 1] + f * values[stops])))


def test_runs_value_is_within_16_ulps_of_exact_arithmetic():
    # stored rules shorter and longer than n, on laws with zero entries; in ulps of
    # the value itself the worst case here is 21.6, a one-run rule at n = 48
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        w = rng.standard_exponential(n)
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] += 1.0
        p = make_distribution(w)
        q = _random_rule(rng, n)
        want = lambda_form_exact(p, q)
        got = runs_value(p, q)
        if want == 0:
            assert got == 0.0
        else:
            assert abs(Fraction(got) - want) <= 16 * Fraction(math.ulp(_runs_scale(p, q))), (n, q)
    # an all-reject rule scores exactly 0, as does a rule that accepts past the support only
    for p in (uniform(7), delta(1)):
        assert runs_value(p, np.zeros(p.n)) == 0.0
    assert runs_value(make_distribution([0.5, 0.5, 0.0]), [0.0, 0.0, 1.0]) == 0.0


def test_runs_value_agrees_with_success_probability_on_large_rules():
    rng = np.random.default_rng(30)
    for n in (1, 2, 100, 3000, 10**5):
        for p in (sample_dirichlet_uniform(n, rng), uniform(n), worst_case_pstar(n)):
            q = _random_rule(rng, n)
            want = success_probability(p, q)
            assert abs(runs_value(p, q) - want) <= 1e-12 * want, n
            flip = rng.random(q.size) < 0.01  # a run every 50 or so entries
            q[flip] = 1.0 - q[flip]
            want = success_probability(p, q)
            assert abs(runs_value(p, q) - want) <= 1e-12 * want, n
            # one short run far from 1: up to about 2e-12 of the value off, but within
            # a few ulps of the two threshold values it is the difference of
            for s, e in ((n // 2 + 1, n // 2 + 1), (n // 10 + 1, n // 10 + 2), (n, n)):
                q = np.zeros(n)
                q[s - 1 : e] = 1.0
                want = success_probability(p, q)
                assert abs(runs_value(p, q) - want) <= 16 * math.ulp(_runs_scale(p, q)), (n, s, e)
    with pytest.raises(ValidationError, match="^q must be a 0/1 rule$"):
        runs_value(uniform(3), [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match=r"^q entries must lie in \[0, 1\]$"):
        runs_value(uniform(3), [0.0, 2.0])


def test_a_row_of_runs_has_the_same_bits_alone_and_padded_in_a_batch():
    # the learner scores a chunk of trials at once, each row padded in front by no-op
    # runs [2, 1] to the chunk's largest run count; one more no-op, [n + 1, n], ends
    # every row here, since a no-op anywhere in a row must leave its bits alone
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        p = sample_dirichlet_uniform(n, rng)
        values = _threshold_values(lambda_sequence(p), n + 1)
        rules = [_random_rule(rng, n)[:n] for _ in range(int(rng.integers(1, 6)))]
        rows = []
        for q in rules:
            steps = np.diff(padded(q, n), prepend=0.0, append=0.0)
            rows.append((np.flatnonzero(steps > 0) + 1, np.flatnonzero(steps < 0)))
        width = 1 + max(starts.size for starts, _ in rows)
        batch = np.empty((2, len(rows), width), dtype=np.int64)
        for r, (starts, stops) in enumerate(rows):
            pad = width - 1 - starts.size
            batch[:, r] = [[2] * pad + starts.tolist() + [n + 1], [1] * pad + stops.tolist() + [n]]
        got = _runs_value(values, batch[0], batch[1])
        for r, (q, (starts, stops)) in enumerate(zip(rules, rows)):
            alone = runs_value(p, q)
            assert got[r].hex() == alone.hex(), (n, r)
            if starts.size:
                assert _runs_value(values, starts, stops) == alone
            else:
                assert alone == 0.0


def test_success_probability_examples():
    assert abs(success_probability(worst_case_pstar(2), single_threshold(1, 2)) - 2 / 3) < 1e-12
    # brute force over all permutations
    assert abs(success_probability(delta(3), single_threshold(2, 3))
               - perm_success_rate(3, np.array([0, 1, 1.0]))) < 1e-12
    assert abs(success_probability(delta(4), single_threshold(2, 4))
               - perm_success_rate(4, np.array([0, 1, 1, 1.0]))) < 1e-12
    for c in (0.0, 0.25, 1.0):
        assert abs(success_probability(delta(1), make_strategy([c])) - c) < 1e-15


def test_matches_first_principles_for_fractional_strategies():
    # exact probability computed by enumerating permutations and acceptance laws
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        p = sample_dirichlet_uniform(n, rng)
        q = rng.random(int(rng.integers(1, n + 2)))
        got = success_probability(p, make_strategy(q))
        want = first_principles_success(p, q)
        assert abs(got - want) <= 1e-12


def test_pform_agrees_with_lambda_form():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(int(rng.integers(1, n + 10))))
        a = success_probability(p, q)
        b = success_probabilities(p, q)[1]
        assert 0.0 <= a <= 1.0
        assert abs(a - b) <= 1e-12


def test_extension_rule_equivalence():
    # a short strategy evaluates exactly like its explicitly one-padded version
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 80))
        m = int(rng.integers(1, n))
        p = sample_dirichlet_uniform(n, rng)
        short = make_strategy(rng.random(m))
        padded = make_strategy(np.concatenate([short, np.ones(n - m)]))
        assert abs(success_probability(p, short) - success_probability(p, padded)) < 1e-15


def test_linearity_in_p():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        p1, p2 = sample_dirichlet_uniform(n, rng), sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(n))
        a = rng.random()
        mixed = make_distribution(a * p1.probs + (1 - a) * p2.probs)
        lhs = success_probability(mixed, q)
        rhs = a * success_probability(p1, q) + (1 - a) * success_probability(p2, q)
        assert abs(lhs - rhs) <= 1e-12


def test_theta_upper_bounds_every_strategy():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 100))
        p = sample_dirichlet_uniform(n, rng)
        bound = float(np.max(np.arange(1, n + 1) * lambda_sequence(p)))
        q = make_strategy(rng.random(n))
        assert success_probability(p, q) <= bound + 1e-12


def test_mixture_point_mass_degenerates():
    rng = np.random.default_rng(9)
    p = sample_dirichlet_uniform(12, rng)
    for l in (1, 4, 12):
        w = np.zeros(12)
        w[l - 1] = 1.0
        direct = success_probability(p, single_threshold(l, 12))
        assert abs(mixture_success_probability(p, w) - direct) <= 1e-12


def test_mixture_examples():
    mix2 = minimax_mixture(2)
    for probs in ([1.0, 0.0], [0.25, 0.75], [0.0, 1.0]):
        p = make_distribution(probs)
        assert abs(mixture_success_probability(p, mix2) - 0.5) <= 1e-12
    assert abs(mixture_success_probability(worst_case_pstar(3), minimax_mixture(3)) - 0.4) <= 1e-12


def test_mixture_matches_naive_sum():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        l_max = int(rng.integers(1, n + 15))
        p = sample_dirichlet_uniform(n, rng)
        w = rng.random(l_max) + 1e-12
        w /= w.sum()
        naive = sum(
            wl * success_probability(p, single_threshold(l + 1, max(n, l + 1)))
            for l, wl in enumerate(w)
        )
        assert abs(mixture_success_probability(p, w) - naive) <= 1e-12
        fast = threshold_success_values(p, l_max)
        for l in range(l_max):
            direct = success_probability(p, single_threshold(l + 1, max(n, l + 1)))
            assert abs(fast[l] - direct) <= 1e-12


def test_threshold_values_have_the_bits_of_a_lambda_padded_past_every_threshold():
    # R is built over [n] only; zeros added before the tail's first nonzero term are exact
    rng = np.random.default_rng(27)
    for n in [1, 2, 3, 10, *rng.integers(11, 400, size=20)]:
        n = int(n)
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0  # zero entries, the last ones too
        w[int(rng.integers(n))] = 1.0
        for p in (make_distribution(w / w.sum()), sample_dirichlet_uniform(n, rng)):
            for l_max in {max(n - 1, 1), int(rng.integers(1, n + 1)), n, n + 1, 3 * n + 7}:
                want = threshold_values_padded(p, l_max)
                got = threshold_success_values(p, l_max)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (n, l_max)
                mix = rng.random(l_max)
                mix /= mix.sum()
                assert mixture_success_probability(p, mix) == float(np.sum(mix * want)), (n, l_max)


def test_threshold_values_hold_one_vector_of_thresholds_past_the_support():
    p = uniform(1000)
    threshold_success_values(p, 10**6)  # warm
    tracemalloc.start()
    try:
        threshold_success_values(p, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB result and vectors of n = 1000; a lambda padded to 10^6 took 40 MB
    assert peak <= 9e6, peak


@pytest.mark.parametrize("l_max", [10**6 + 1, 10**6 // 2 + 1])
def test_threshold_values_hold_two_vectors_beyond_lambda(l_max):
    # R in the output's buffer and one float range; a separate R and int ranges made 3.0
    n = 10**6
    lam = lambda_sequence(uniform(n))
    _threshold_values(lam, l_max)  # warm
    tracemalloc.start()
    try:
        _threshold_values(lam, l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + 2**12, peak / (8 * n)


def test_mixture_weight_validation():
    p = delta(3)
    with pytest.raises(ValidationError, match="^weights must sum to 1 within"):
        mixture_success_probability(p, np.array([0.5, 0.6]))
    with pytest.raises(ValidationError, match="^weights must be non-negative$"):
        mixture_success_probability(p, np.array([-0.5, 1.5]))
    for bad in ([], [[0.5, 0.5]]):
        with pytest.raises(ValidationError, match="^weights must be a non-empty 1-D vector$"):
            mixture_success_probability(p, bad)
    with pytest.raises(ValidationError, match="^weights must be finite$"):
        mixture_success_probability(p, [np.nan, 1.0])


def test_fractional_never_beats_solver_optimum():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        p = sample_dirichlet_uniform(n, rng)
        opt = solve_optimal(p).value
        q = make_strategy(rng.random(n))
        assert success_probability(p, q) <= opt + 1e-12
