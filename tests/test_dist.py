import math

import numpy as np
import pytest

from randhorizon import (
    ValidationError,
    delta,
    geometric_truncated,
    harmonic,
    lambda_sequence,
    make_distribution,
    poisson_truncated,
    sample_dirichlet_uniform,
    uniform,
    worst_case_pstar,
)


def test_make_distribution_examples():
    assert np.array_equal(make_distribution([0, 0, 1]).probs, [0.0, 0.0, 1.0])
    assert np.allclose(make_distribution([1, 1]).probs, [0.5, 0.5], atol=1e-15)
    assert np.allclose(make_distribution([1, 2]).probs, [1 / 3, 2 / 3], atol=1e-15)


@pytest.mark.parametrize("bad", [[0, 0], [-1, 2], [math.nan, 1], [math.inf, 1], []])
def test_make_distribution_rejects(bad):
    with pytest.raises(ValidationError):
        make_distribution(bad)


def test_delta():
    assert np.array_equal(delta(1).probs, [1.0])
    assert np.array_equal(delta(3).probs, [0.0, 0.0, 1.0])
    assert np.allclose(lambda_sequence(delta(4)), 0.25, atol=1e-15)
    with pytest.raises(ValidationError):
        delta(0)


def test_worst_case_pstar():
    p = worst_case_pstar(2)
    assert np.allclose(p.probs, [1 / 3, 2 / 3], atol=1e-15)
    assert np.array_equal(worst_case_pstar(1).probs, [1.0])
    # i*lambda_i is the constant 1/H_n on the support
    for n in (3, 17, 50):
        lam = lambda_sequence(worst_case_pstar(n))
        scaled = np.arange(1, n + 1) * lam
        assert np.max(np.abs(scaled - 1.0 / harmonic(n))) <= 1e-12
    assert abs(3 * lambda_sequence(worst_case_pstar(3))[2] - 6 / 11) < 1e-12


def test_parametric_families():
    assert np.allclose(uniform(4).probs, 0.25, atol=1e-15)
    assert np.allclose(geometric_truncated(0.5, 2).probs, [2 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(poisson_truncated(1.0, 2).probs, [2 / 3, 1 / 3], atol=1e-14)
    k = np.arange(1, 501, dtype=float)
    logw = k * math.log(40.0) - np.array([math.lgamma(x + 1.0) for x in k])
    want = make_distribution(np.exp(logw - logw.max())).probs
    assert np.array_equal(poisson_truncated(40.0, 500).probs, want)
    for bad in (lambda: uniform(0), lambda: geometric_truncated(1.0, 5),
                lambda: geometric_truncated(0.5, 0), lambda: poisson_truncated(0.0, 5)):
        with pytest.raises(ValidationError):
            bad()


def test_lambda_sequence_examples():
    assert np.allclose(lambda_sequence(worst_case_pstar(2)), [2 / 3, 1 / 3], atol=1e-15)
    assert np.array_equal(lambda_sequence(delta(1)), [1.0])
    assert not lambda_sequence(delta(3)).flags.writeable


def test_lambda_sequence_properties():
    rng = np.random.default_rng(20240301)
    for _ in range(50):
        n = int(rng.integers(1, 180))
        p = sample_dirichlet_uniform(n, rng)
        lam = lambda_sequence(p)
        assert np.all(np.diff(lam) <= 1e-15)  # non-increasing
        idx = np.arange(1, n + 1)
        tails = np.cumsum(p.probs[::-1])[::-1]
        assert np.all(idx * lam <= tails + 1e-12)
        assert np.all(idx * lam <= 1.0 + 1e-12)
        # exact partial-sum identity
        direct = np.array([np.sum(p.probs[i:] / idx[i:]) for i in range(n)])
        assert np.max(np.abs(lam - direct)) <= 1e-12


def test_lambda_linearity_in_p():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        p1, p2 = sample_dirichlet_uniform(n, rng), sample_dirichlet_uniform(n, rng)
        a = rng.random()
        mixed = make_distribution(a * p1.probs + (1 - a) * p2.probs)
        lhs = lambda_sequence(mixed)
        rhs = a * lambda_sequence(p1) + (1 - a) * lambda_sequence(p2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_dirichlet_degenerate_and_deterministic():
    assert np.array_equal(sample_dirichlet_uniform(1, 123).probs, [1.0])
    a = sample_dirichlet_uniform(6, 99).probs
    b = sample_dirichlet_uniform(6, 99).probs
    assert np.array_equal(a, b)


def test_dirichlet_mean():
    # law of large numbers: coordinate means near 1/4 at n=4
    rng = np.random.default_rng(11)
    draws = 100_000
    total = np.zeros(4)
    for _ in range(draws):
        total += sample_dirichlet_uniform(4, rng).probs
    mean = total / draws
    se = math.sqrt(0.25 * 0.75 / 5.0 / draws)  # Dirichlet(1,..,1) coordinate variance
    assert np.max(np.abs(mean - 0.25)) <= 3 * se


def test_dirichlet_marginal_beta():
    # first coordinate at n=3 has cdf 1-(1-x)^2; KS distance below 0.02 at 1e4 draws
    rng = np.random.default_rng(5)
    draws = 10_000
    sample = np.sort([sample_dirichlet_uniform(3, rng).probs[0] for _ in range(draws)])
    model = 1.0 - (1.0 - sample) ** 2
    ecdf_hi = np.arange(1, draws + 1) / draws
    ecdf_lo = np.arange(0, draws) / draws
    ks = max(np.max(np.abs(ecdf_hi - model)), np.max(np.abs(model - ecdf_lo)))
    assert ks <= 0.02


def test_sum_invariant_random_constructions():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 300))
        p = make_distribution(rng.random(n) + 1e-9)
        assert abs(p.probs.sum() - 1.0) <= 1e-12
        assert np.all(p.probs >= 0)
