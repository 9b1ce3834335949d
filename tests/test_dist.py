import math
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import poisson_full_support
from randhorizon import dist, learn, meta
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


def test_make_distribution_copies_and_checks_once(monkeypatch):
    checks = []
    monkeypatch.setattr(dist, "_check_weights", lambda w, what: checks.append(what))
    w = np.random.default_rng(31).random(10**6) * 3.0  # needs normalizing
    tracemalloc.start()
    try:
        p = make_distribution(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak  # one 8 MB copy, not two
    assert checks == ["weights"]
    assert np.array_equal(p.probs, w / w.sum()) and not p.probs.flags.writeable
    assert not np.shares_memory(p.probs, w)
    unit = w / w.sum()
    q = make_distribution(unit)  # already normalized: copied as it is
    assert np.array_equal(q.probs, unit) and not np.shares_memory(q.probs, unit)
    assert not q.probs.flags.writeable and unit.flags.writeable


# each library-built distribution of the size of p = delta(10^6), and the traced peak (MB)
# it may reach when it keeps the vector it built: one 8 MB vector, or None where its own
# work needs more
BUILT = {
    "delta": (lambda p: delta(p.n), 10),
    "uniform": (lambda p: uniform(p.n), 10),
    "two_point": (lambda p: learn._two_point(p.n, 0.3), 10),
    "dirichlet": (lambda p: sample_dirichlet_uniform(p.n, 31), 18),  # the draws and their quotient
    "pstar": (lambda p: worst_case_pstar(p.n), None),  # H_n takes a 16 MB cumulative sum
    "block": (lambda p: learn.block_distribution(p, 1.5), None),
    "non_iid": (lambda p: meta.non_iid_hard_instance(np.ones(p.n))[0], None),
}


@pytest.mark.parametrize("name", BUILT)
def test_library_built_distributions_are_checked_once_and_not_copied(name, monkeypatch):
    build, peak_mb = BUILT[name]
    base = delta(10**6)
    want = build(base).probs
    checks, copies = [], []
    monkeypatch.setattr(dist, "_check_weights", lambda w, what: checks.append(what))
    frozen = dist._frozen
    monkeypatch.setattr(dist, "_frozen", lambda *a: copies.append(a) or frozen(*a))
    tracemalloc.start()
    try:
        p = build(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks == ["probs"] and copies == []
    assert np.array_equal(p.probs, want) and not p.probs.flags.writeable
    if peak_mb is not None:
        assert peak < peak_mb * 2**20, peak


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
    assert np.array_equal(poisson_truncated(40.0, 500).probs, poisson_full_support(40.0, 500).probs)
    for bad in (lambda: uniform(0), lambda: geometric_truncated(1.0, 5),
                lambda: geometric_truncated(0.5, 0), lambda: poisson_truncated(0.0, 5)):
        with pytest.raises(ValidationError):
            bad()


# integer, half-integer and subnormal-scale rates, rates far above every n, the largest float,
# and log-uniform draws; n = 1 is a window of a single point
POISSON_RATES = [1e-300, 1e-5, 0.3, 1.0, 2.0, 2.5, 7.0, 50.0, 1e4, 123456.7, 1e6, 1e12, 1e300,
                 sys.float_info.max,
                 *np.exp(np.random.default_rng(15).uniform(math.log(1e-6), math.log(1e9), 40))]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 300_000, 2_000_000])
def test_poisson_window_matches_the_full_support_formula(n):
    # the full-support oracle costs n lgamma calls a rate: fewer rates at the largest n
    rates = {300_000: POISSON_RATES[::3], 2_000_000: [0.3, 1e6, 1e12, sys.float_info.max]}
    for mu in rates.get(n, POISSON_RATES):
        got = poisson_truncated(float(mu), n).probs
        assert got.tobytes() == poisson_full_support(float(mu), n).probs.tobytes(), (mu, n)


def test_poisson_runs_lgamma_on_its_window_only(monkeypatch):
    mu, n = 1000.0, 300_000
    k = np.arange(1, n + 1, dtype=float)
    f = k * math.log(mu) - np.array([math.lgamma(x) for x in (k + 1.0).tolist()])
    window = int(np.count_nonzero(f >= f[round(mu) - 1] - 800.0))
    # the window holds every nonzero weight (2374 of them) and a margin of zeros
    assert np.count_nonzero(np.exp(f - f.max())) < window < 3000
    calls = 0
    lgamma = math.lgamma

    def counted(x):
        nonlocal calls
        calls += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counted)
    poisson_truncated(mu, n)
    assert calls <= window + 4 * math.ceil(math.log2(n)) + 8


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
