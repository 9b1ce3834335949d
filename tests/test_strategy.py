import math
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
    prefix_products,
    sample_dirichlet_uniform,
    simulate,
    single_threshold,
    solve_optimal,
    strategy_policy,
    success_probabilities,
    success_probability,
    success_probability_pform,
    threshold_success_values,
    uniform,
    worst_case_pstar,
)

from randhorizon.strategy import (_acceptance_terms, _lambda_form, extended, lambda_form_value,
                                  point_mass_values)

from oracles import (eval_two_pass, first_principles_success, lambda_sequence_copy, perm_success_rate,
                     prefix_products_concat, threshold_values_padded)


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
    "success_probability_pform": lambda q: success_probability_pform(delta(4), q),
    "success_probabilities": lambda q: success_probabilities(delta(4), q),
    "simulate": lambda q: simulate(delta(4), q, 10, 0),
    "strategy_policy": strategy_policy,
    "extended": lambda q: extended(q, 4),
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


def test_a_strategy_policy_plays_the_vector_it_was_given():
    q = np.array([0.0, 1.0])
    policy = strategy_policy(q)
    q[:] = [1.0, 0.0]
    records = np.ones((2, 3), dtype=np.int32)
    rng = np.random.default_rng(0)
    assert not policy(1, records[:1], rng).any() and policy(2, records, rng).all()


def test_prefix_products_examples():
    assert np.array_equal(prefix_products(np.array([1.0, 1.0, 1.0])), [1, 0, 0, 0])
    assert np.allclose(prefix_products(np.array([0.0, 1.0, 1.0])), [1, 1, 0.5, 1 / 3], atol=1e-15)
    assert np.array_equal(prefix_products(np.zeros(3)), [1, 1, 1, 1])
    assert np.array_equal(prefix_products(np.zeros(0)), [1])


def test_prefix_products_of_rows_are_those_of_each_row():
    q = np.random.default_rng(3).random((4, 300))
    u = prefix_products(q)
    assert u.shape == (4, 301)
    for row, want in zip(u, q):
        assert np.array_equal(row, prefix_products(want))


def test_prefix_products_monotone_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = prefix_products(rng.random(int(rng.integers(1, 50))))
        assert np.all(u >= -1e-15) and np.all(u <= 1 + 1e-15)
        assert np.all(np.diff(u) <= 1e-15)


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
    cases = [np.zeros(0), np.zeros((3, 0)), np.ones(1), np.zeros(1)]
    for _ in range(300):
        m = int(rng.integers(0, 3000))
        q = rng.random(m) if rng.random() < 0.5 else np.floor(rng.random(m) + rng.random())
        cases += [q, rng.random((int(rng.integers(1, 6)), m))]
    cases.append(np.asfortranarray(rng.random((7, 500))))
    for q in cases:
        assert _same_bits(prefix_products(q), prefix_products_concat(q)), q.shape


def test_one_buffer_evaluators_match_the_separate_passes_bit_for_bit():
    rng = np.random.default_rng(24)
    for case in range(2000):
        p, s = _random_law_and_strategy(rng, case)
        assert _same_bits(lambda_sequence(p), lambda_sequence_copy(p)), p.n
        want = eval_two_pass(p, s)
        got = success_probabilities(p, s)
        assert [v.hex() for v in got] == [v.hex() for v in want], (p.n, s.size)
        assert success_probability(p, s).hex() == want[0].hex()
        assert success_probability_pform(p, s).hex() == want[1].hex()
        qx = extended(s, p.n)
        assert _same_bits(point_mass_values(qx),
                          np.cumsum(prefix_products_concat(qx)[:-1] * qx) / np.arange(1, p.n + 1))


def test_row_scores_match_the_product_array_and_the_1d_sum_bit_for_bit():
    # the learner scores (trials x n) 0/1 strategies by rows of the kernel's buffer
    rng = np.random.default_rng(25)
    for _ in range(500):
        rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 3000))
        q = np.floor(rng.random((rows, n)) + rng.random((rows, 1)))
        if rng.random() < 0.3:
            q = rng.random((rows, n))
        lam = lambda_sequence(make_distribution(rng.standard_exponential(n)))
        a = _acceptance_terms(q)
        got = _lambda_form(a, lam, out=a)
        assert _same_bits(got, np.sum(prefix_products_concat(q)[:, :-1] * q * lam, axis=1))
        assert got.tolist() == [lambda_form_value(lam, row) for row in q]


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
        b = success_probability_pform(p, q)
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
