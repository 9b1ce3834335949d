import math
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import last_positive_one_shot, poisson_full_support, poisson_whole_vector
from randhorizon import dist, learn, meta, solver
from randhorizon import (
    HorizonDistribution,
    PerformanceProfile,
    ValidationError,
    backward_induction,
    delta,
    geometric_truncated,
    harmonic,
    lambda_sequence,
    make_distribution,
    make_strategy,
    mixture_success_probability,
    poisson_truncated,
    prophet_block_distribution,
    sample_dirichlet_uniform,
    single_threshold,
    success_probabilities,
    uniform,
    worst_case_pstar,
)


def test_make_distribution_examples():
    assert np.array_equal(make_distribution([0, 0, 1]).probs, [0.0, 0.0, 1.0])
    assert np.allclose(make_distribution([1, 1]).probs, [0.5, 0.5], atol=1e-15)
    assert np.allclose(make_distribution([1, 2]).probs, [1 / 3, 2 / 3], atol=1e-15)


def test_laws_compare_and_hash_by_identity():
    # a generated __eq__ over the array field had no truth value, and no __hash__ at all
    p = uniform(3)
    assert p == p
    assert p != uniform(3)
    assert len({p, p}) == 1


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
    "geometric": (lambda p: geometric_truncated(0.5, p.n), 18),  # the exponents and the powers
    "poisson": (lambda p: poisson_truncated(4.0, p.n), 10),
    "pstar": (lambda p: worst_case_pstar(p.n), None),  # H_n takes a 16 MB cumulative sum
    "block": (lambda p: learn.block_distribution(p, 1.5), None),
    "non_iid": (lambda p: meta.non_iid_hard_instance(np.ones(p.n))[0], None),
}


@pytest.mark.parametrize("name", BUILT)
def test_library_built_distributions_are_not_checked_or_copied(name, monkeypatch):
    # a builder's weights are finite and non-negative by construction
    build, peak_mb = BUILT[name]
    base = delta(10**6)
    want = build(base).probs
    checks, copies = [], []
    monkeypatch.setattr(dist, "_check_weights", lambda w, what: checks.append(what))
    floats = dist._floats  # every conversion or copy of a vector into a library value
    monkeypatch.setattr(dist, "_floats", lambda *a, **k: copies.append(a) or floats(*a, **k))
    tracemalloc.start()
    try:
        p = build(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks == [] and copies == []
    assert np.array_equal(p.probs, want) and not p.probs.flags.writeable
    if peak_mb is not None:
        assert peak < peak_mb * 2**20, peak


def test_built_distributions_renormalize_the_rounding_of_a_long_sum():
    # np.bincount adds each block's weights one by one: the sum is 1 - 1.3e-12
    blocked = learn.block_distribution(uniform(10**6), 1.5)
    # the law's n terms c (1 - a_l / a_(l+1)) sum to 1 - 6.9e-12
    ladder = np.cumsum(np.random.default_rng(0).random(10**6))
    pinned, c = meta.non_iid_hard_instance(ladder)
    for p in (blocked, pinned):
        assert abs(p.probs.sum() - 1.0) <= dist.SUM_TOL and not p.probs.flags.writeable
    assert c == pinned.probs[-1]  # the ratio every stopping rule earns is the law's own


def test_only_the_constructors_stay_strict_about_the_sum():
    with pytest.raises(ValidationError, match="must sum to 1"):
        HorizonDistribution(probs=[0.5, 0.6])
    with pytest.raises(ValidationError, match="must sum to 1"):
        mixture_success_probability(delta(2), [0.5, 0.6])
    assert np.array_equal(make_distribution([0.5, 0.6]).probs, np.array([0.5, 0.6]) / 1.1)
    # within SUM_TOL nothing is renormalized: the bytes stay the caller's
    assert np.array_equal(make_distribution([0.5, 0.5 + 1e-13]).probs, [0.5, 0.5 + 1e-13])


HUGE = 10**400  # an integer beyond the float range

ENTRY_POINTS = {
    "make_distribution": lambda: make_distribution([HUGE, 1]),
    "HorizonDistribution": lambda: HorizonDistribution(probs=[HUGE, 1]),
    "make_strategy": lambda: make_strategy([0, HUGE]),
    "mixture_weights": lambda: mixture_success_probability(delta(2), [HUGE, 1]),
    "non_iid_hard_instance": lambda: meta.non_iid_hard_instance([1, HUGE]),
    "backward_induction": lambda: backward_induction([1, HUGE]),
    "prophet_block_distribution": lambda: prophet_block_distribution(3, 4, [0, 1, 2, HUGE]),
    "profile_table": lambda: PerformanceProfile(c0=1.0, table={1: 1.0, 2: HUGE}).f(2),
    "PerformanceProfile": lambda: PerformanceProfile(c0=HUGE),
    "poisson_truncated": lambda: poisson_truncated(HUGE, 4),
    "minimax_mixture_expected_bound": lambda: solver.minimax_mixture_expected_bound(HUGE),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_integer_beyond_the_float_range_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="beyond the float range"):
        ENTRY_POINTS[name]()


def test_a_float_gain_vector_is_not_copied(monkeypatch):
    gains = np.linspace(1.0, 0.0, 5)
    seen = []

    def spy(*args, **kwargs):
        seen.append(dist._floats(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(solver, "_floats", spy)
    backward_induction(gains)
    assert len(seen) == 1 and seen[0] is gains


def test_a_float_weight_vector_is_only_read(monkeypatch):
    weights = np.full(4, 0.25)
    floats, seen = dist._floats, []

    def spy(*args, **kwargs):
        seen.append(floats(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(dist, "_floats", spy)
    assert mixture_success_probability(uniform(4), weights) > 0
    assert len(seen) == 1 and seen[0] is weights and weights.flags.writeable


@pytest.mark.parametrize("bad", [[0, 0], [-1, 2], [math.nan, 1], [math.inf, 1], []])
def test_make_distribution_rejects(bad):
    with pytest.raises(ValidationError):
        make_distribution(bad)


def test_horizon_edges_count_the_uniforms_as_the_horizons_do():
    # cdf tops below 1 (ten tenths; a sum within SUM_TOL, kept as given), zero entries
    # inside and at the end, point masses
    truths = [make_distribution([0.1] * 10), make_distribution([0.5, 0.5 - 1e-13, 0.0]),
              make_distribution([0.2, 0.0, 0.5, 0.3, 0.0, 0.0]), delta(1), delta(4),
              make_distribution([0.0, 1.0, 0.0]), uniform(7), sample_dirichlet_uniform(30, 3)]
    above_top = 0
    for p in truths:
        cdf = np.cumsum(p.probs)
        ends = np.arange(1, p.n + 4)  # every endpoint, and three past n
        # each cdf value, one ulp either side of it, and a grid; uniforms lie in [0, 1)
        u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                            np.linspace(0.0, 1.0, 101)])
        u = np.sort(u[u < 1.0])
        above_top += np.count_nonzero(u >= cdf[np.flatnonzero(p.probs)[-1]])
        want = np.diff(np.searchsorted(dist._horizons(p, u), ends, side="right"), prepend=0)
        got = np.diff(u.searchsorted(dist._horizon_edges(p, ends)), prepend=0)
        assert np.array_equal(got, want), p.probs
    assert above_top > 0  # where the last_positive clamp decides


def test_horizon_edges_gather_the_ends_without_a_copy_of_the_cdf():
    p = uniform(10**6)
    cdf = p._inverse_cdf
    ends = np.unique(np.geomspace(1, p.n, 400).astype(np.int64))
    tracemalloc.start()
    try:
        edges = dist._horizon_edges(p, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak  # a few vectors of the ends, not the 8 MB of the cdf
    want = cdf[ends - 1].copy()
    want[ends >= p.n] = np.inf  # the last positive entry and past it: every uniform
    assert np.array_equal(edges, want)


def test_the_inverse_cdf_costs_the_cdf_alone():
    # the cdf and nothing else: the last positive entry is _last_positive's, found without an
    # int64 index of every nonzero entry
    p = uniform(10**6)
    tracemalloc.start()
    try:
        p._inverse_cdf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5e6, peak  # the 8.0 MB cdf; with the index of every entry, 16.0 MB


@pytest.mark.parametrize("w", [[1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.0, 0.5, 0.0, -0.0],
                               [0.0, 1.0, -0.0, 0.0], [1.0] + [0.0] * 40000])
def test_last_positive_is_the_index_of_the_last_positive_entry(w):
    p = make_distribution(w)
    assert p._last_positive == np.flatnonzero(p.probs)[-1]
    assert np.array_equal(p._inverse_cdf, np.cumsum(p.probs))  # the cdf alone; readers clamp it


def test_last_positive_scans_back_one_chunk_at_a_time():
    # the same index as one boolean scan of the whole vector, tails across chunk edges
    rng = np.random.default_rng(41)
    chunk = dist._CHUNK
    for n in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        for last in {0, 1, n // 2, n - chunk - 1, n - chunk, n - chunk + 1, n - 2, n - 1}:
            if not 0 <= last < n:
                continue
            v = rng.random(n)
            v[rng.random(n) < 0.5] = 0.0
            v[last] = 0.5
            v[last + 1:] = rng.choice([0.0, -0.0], n - last - 1)
            assert dist._last_positive_entry(v) == last_positive_one_shot(v) == last, (n, last)
    assert dist._last_positive_entry(np.zeros(3)) == dist._last_positive_entry(np.zeros(0)) == -1
    p = make_distribution([1.0] + [0.0] * 10**6)
    tracemalloc.start()
    try:
        assert p._last_positive == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * chunk, peak  # one chunk of booleans; the whole-vector scan took 1 MB


def test_a_poisson_law_holds_one_vector_of_n():
    # the zero vector it writes its window into; checking it whole took two boolean vectors more
    n = 10**6
    tracemalloc.start()
    try:
        poisson_truncated(1000.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 2**18, peak


def _poisson_window_top(mu: float) -> int:
    """The last k with f(k) >= f(k0) - 800 of :func:`poisson_truncated` at any n past it."""
    k = np.arange(1, 3 * round(mu) + 400, dtype=float)
    f = k * math.log(mu) - np.array([math.lgamma(x) for x in (k + 1.0).tolist()])
    return int(np.flatnonzero(f >= f[max(round(mu), 1) - 1] - 800.0)[-1]) + 1


def test_a_poisson_law_has_the_same_bits_at_every_truncation_past_its_window():
    # the law's sum runs over its window alone, so neither its probs there nor eval's values move
    rng = np.random.default_rng(46)
    for mu in (0.7, 40.0, 1000.0):
        top = _poisson_window_top(mu)
        laws = [poisson_truncated(mu, n) for n in (top, 3 * 10**5, 3 * 10**6)]
        rules = [single_threshold(max(round(mu), 1), round(mu) + 1), rng.random(top // 2)]
        want = [[v.hex() for v in success_probabilities(laws[0], q)] for q in rules]
        for p in laws[1:]:
            assert p.probs[:top].tobytes() == laws[0].probs.tobytes(), (mu, p.n)
            assert not p.probs[top:].any() and p._last_positive == laws[0]._last_positive
            got = [[v.hex() for v in success_probabilities(p, q)] for q in rules]
            assert got == want, (mu, p.n)


def test_a_law_that_sums_to_one_has_the_same_bits_padded_with_zeros():
    # within SUM_TOL of 1 nothing is renormalized, so the zeros past K change no sum
    rng = np.random.default_rng(47)
    for n in (1, 7, 300, 5000):
        w = sample_dirichlet_uniform(n, rng).probs
        assert abs(w.sum() - 1.0) <= dist.SUM_TOL
        rules = [rng.random(n), single_threshold(n // 2 + 1, n), np.ones(0)]
        want = [[v.hex() for v in success_probabilities(make_distribution(w), q)] for q in rules]
        for pad in (1, 4096, 10**5):
            p = make_distribution(np.concatenate([w, np.zeros(pad)]))
            assert p.probs[:n].tobytes() == w.tobytes(), (n, pad)
            got = [[v.hex() for v in success_probabilities(p, q)] for q in rules]
            assert got == want, (n, pad)


def test_poisson_law_sums_and_finds_k_on_its_window_alone():
    # the probs bits and K of the whole-vector path, at n below, at and past the support's edges
    rng = np.random.default_rng(45)
    for mu in [0.5, 5000.0, *rng.uniform(0.5, 5000.0, 6)]:
        support = np.flatnonzero(poisson_truncated(mu, 3 * round(mu) + 400).probs) + 1
        first, last = int(support[0]), int(support[-1])
        for n in {1, first - 1, first, first + 1, (first + last) // 2, last - 1, last, last + 1,
                  last + 200}:
            if n < 1:
                continue
            p = poisson_truncated(mu, n)
            probs, k = poisson_whole_vector(mu, n)
            assert p.probs.tobytes() == probs.tobytes(), (mu, n)
            assert p._last_positive == k, (mu, n)


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
