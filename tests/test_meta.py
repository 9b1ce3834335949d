import itertools
import math

import numpy as np
import pytest

from randhorizon import (
    PerformanceProfile,
    ValidationError,
    harmonic,
    meta_mixture,
    non_iid_hard_instance,
    prophet_block_distribution,
    union_event_rate,
)

from oracles import meta_expected_performance, union_event_rate_matrix


def test_profile_families():
    p = PerformanceProfile(c0=0.745, family="uniform-max")
    assert p.f(3) == 0.75
    assert PerformanceProfile(c0=1, family="identity").f(7) == 7.0
    assert PerformanceProfile(c0=1, family="exp-max").f(3) == harmonic(3)
    t = PerformanceProfile(c0=1, table={2: 1.0, 3: 1.5})
    assert t.f(3) == 1.5
    with pytest.raises(ValidationError):
        t.f(4)  # outside the table: no extrapolation
    with pytest.raises(ValidationError):
        t.f(np.array([2, 3, 4]))
    assert np.array_equal(t.f(np.array([3, 2])), [1.5, 1.0])
    idx = np.arange(1, 60)
    exp_max = PerformanceProfile(c0=1, family="exp-max")
    assert np.array_equal(exp_max.f(idx), [harmonic(i) for i in range(1, 60)])
    for family in ("identity", "uniform-max", "exp-max"):
        prof = PerformanceProfile(c0=1, family=family)
        assert np.array_equal(prof.f(idx), [prof.f(i) for i in range(1, 60)])
        with pytest.raises(ValidationError):
            prof.f(np.array([0, 1]))
    with pytest.raises(ValidationError):
        PerformanceProfile(c0=0.0)
    with pytest.raises(ValidationError):
        PerformanceProfile(c0=1.0, family="linear")


def test_a_given_table_is_the_profile():
    # a table is never silently ignored in favour of a named family
    assert PerformanceProfile(c0=1.0, table={1: 5.0, 2: 7.0}).f(2) == 7.0
    assert PerformanceProfile(c0=1.0).family == "identity"
    for family in ("identity", "exp-max", "table"):
        with pytest.raises(ValidationError, match="takes no family"):
            PerformanceProfile(c0=1.0, family=family, table={1: 5.0, 2: 7.0})
    with pytest.raises(ValidationError, match="unknown profile family 'table'"):
        PerformanceProfile(c0=1.0, family="table")
    with pytest.raises(ValidationError, match="non-empty table"):
        PerformanceProfile(c0=1.0, table={})


def test_meta_mixture_identity_example():
    prof = PerformanceProfile(c0=1.0)
    mix = meta_mixture(prof, 1, 2)
    assert np.allclose(mix.weights, [2 / 3, 1 / 3], atol=1e-15)
    assert abs(mix.guarantee - 2 / 3) < 1e-12
    for n in (1, 2):
        assert abs(meta_expected_performance(mix, prof, n) - 2 / 3) <= 1e-12


def test_meta_mixture_point_mass():
    prof = PerformanceProfile(c0=0.3)
    mix = meta_mixture(prof, 6, 6)
    assert np.array_equal(mix.weights, [1.0])
    assert mix.guarantee == 0.3
    assert meta_expected_performance(mix, prof, 6) == 0.3


def test_meta_curve_matches_the_per_n_oracle():
    table = {i: math.sqrt(i) for i in range(3, 60)}
    for prof, n_lo, n_hi in (
        (PerformanceProfile(c0=0.7), 1, 300),
        (PerformanceProfile(c0=1.3, family="uniform-max"), 2, 200),
        (PerformanceProfile(c0=0.745, family="exp-max"), 10, 150),
        (PerformanceProfile(c0=0.5, table=table), 3, 59),
    ):
        mix = meta_mixture(prof, n_lo, n_hi)
        curve = mix.expected
        want = [meta_expected_performance(mix, prof, n) for n in range(n_lo, n_hi + 1)]
        assert curve.shape == (n_hi - n_lo + 1,)
        assert np.max(np.abs(curve - want)) <= 1e-12, prof.family


def test_meta_guarantee_sums_its_weight_numerators_without_cancellation():
    # identity profile on [1, n]: Z = H_n; n - sum i/(i+1) loses about 2000 ulps at 10^6
    n = 10**6
    guarantee = meta_mixture(PerformanceProfile(c0=1.0), 1, n).guarantee
    exact = 1.0 / math.fsum(1.0 / i for i in range(1, n + 1))
    assert abs(guarantee - exact) <= 64 * math.ulp(exact)


def test_meta_mixture_flat_and_bounded():
    rng = np.random.default_rng(41)
    for trial in range(20):
        family = ("identity", "uniform-max", "exp-max")[trial % 3]
        prof = PerformanceProfile(c0=float(rng.uniform(0.05, 2.0)), family=family)
        n_lo = int(rng.integers(1, 30))
        n_hi = n_lo + int(rng.integers(0, 80))
        mix = meta_mixture(prof, n_lo, n_hi)
        assert abs(mix.weights.sum() - 1.0) <= 1e-12
        assert np.all(mix.weights >= -1e-15)
        values = [meta_expected_performance(mix, prof, n) for n in range(n_lo, n_hi + 1)]
        assert max(values) - min(values) <= 1e-12
        assert abs(values[0] - mix.guarantee) <= 1e-12
        log_bound = prof.c0 / (1.0 + math.log(prof.f(n_hi) / prof.f(n_lo)))
        assert mix.guarantee >= log_bound - 1e-12


def test_meta_mixture_validation():
    prof = PerformanceProfile(c0=1.0)
    with pytest.raises(ValidationError):
        meta_mixture(prof, 0, 5)
    with pytest.raises(ValidationError):
        meta_mixture(prof, 5, 3)
    decreasing = PerformanceProfile(c0=1.0, table={1: 2.0, 2: 1.0})
    with pytest.raises(ValidationError):
        meta_mixture(decreasing, 1, 2)
    mix = meta_mixture(prof, 2, 4)
    with pytest.raises(ValidationError):
        meta_expected_performance(mix, prof, 5)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_meta_mixture_refuses_f_values_off_the_positive_finite_range(bad):
    # a NaN passed both "<= 0" and "diff < 0" (a NaN guarantee); an inf at n_hi passed too (NaN
    # in the expected curve)
    for table in ({1: 1.0, 2: bad, 3: 2.0}, {1: 1.0, 2: 2.0, 3: bad}):
        prof = PerformanceProfile(c0=1.0, table=table)
        with pytest.raises(ValidationError, match=r"^f must be positive and finite on \[n_lo, n_hi\]$"):
            meta_mixture(prof, 1, 3)
        assert meta_mixture(prof, 1, 1).guarantee == 1.0  # the bad value lies outside [1, 1]


def test_non_iid_hard_instance_examples():
    h, c = non_iid_hard_instance([0.5, 1.0])
    assert abs(c - 2 / 3) < 1e-12
    assert np.allclose(h.probs, [1 / 3, 2 / 3], atol=1e-15)
    h, c = non_iid_hard_instance(np.ones(6))
    assert c == 1.0
    assert np.array_equal(h.probs, [0, 0, 0, 0, 0, 1])
    with pytest.raises(ValidationError):
        non_iid_hard_instance([1.0, 0.5])
    with pytest.raises(ValidationError):
        non_iid_hard_instance([0.0, 1.0])


def test_non_iid_pins_every_stopping_rule():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        a = np.sort(rng.uniform(0.1, 3.0, n))
        h, c = non_iid_hard_instance(a)
        # deterministic one-pick rules are the vertices; the objective is linear
        best = max(
            sum(a[i] / a[j] * h.probs[j] for j in range(i, n)) for i in range(n)
        )
        worst = min(
            sum(a[i] / a[j] * h.probs[j] for j in range(i, n)) for i in range(n)
        )
        assert abs(best - c) <= 1e-12
        assert abs(worst - c) <= 1e-12


def test_non_iid_geometric_ladder_limit():
    n, x = 2000, 0.1
    a = x ** ((n - np.arange(1, n + 1)) / (n - 1))
    _, c = non_iid_hard_instance(a)
    assert abs(c - 1 / (1 + math.log(10))) <= 0.005


def test_prophet_grid_construction():
    th = np.linspace(0.1, 1.0, 4)
    grid = prophet_block_distribution(3, 4, th)
    assert np.array_equal(grid.k, [1, 2, 4])
    assert np.allclose(grid.values, [0.0, 0.5, math.sqrt(0.5), 1.0], atol=1e-12)
    assert abs(grid.xi - 1.5) < 1e-12
    z = 2.0
    bound = 2 * (1 + z ** (-z / (2 * (z - 1))) - z ** (-1 / (z - 1)))
    assert grid.xi <= bound + 1e-9
    # 32**0.8 is 16.000000000000004: the counts snap to the integers they stand for
    grid = prophet_block_distribution(6, 32, np.linspace(0.1, 1.0, 7))
    assert np.array_equal(grid.k, [1, 2, 4, 8, 16, 32])


def test_prophet_grid_validation():
    with pytest.raises(ValidationError):
        prophet_block_distribution(3, 3, np.linspace(0, 1, 4))  # z < 2
    with pytest.raises(ValidationError):
        prophet_block_distribution(3, 4, np.linspace(0, 1, 5))  # wrong grid size
    with pytest.raises(ValidationError):
        prophet_block_distribution(3, 4, [0.5, 0.4, 0.6, 1.0])  # not monotone


def test_prophet_slack_bound_on_grid():
    for n, z_pow in itertools.product((2, 3, 4), (1, 2, 4)):
        K = (2**z_pow) ** (n - 1)
        th = np.linspace(0.2, 1.0, n + 1)
        grid = prophet_block_distribution(n, K, th)
        z = K ** (1.0 / (n - 1))
        bound = (n - 1) * (1 + z ** (-z / (2 * (z - 1))) - z ** (-1 / (z - 1)))
        assert grid.xi <= bound + 1e-9
        v = grid.values
        assert np.all(np.diff(v) >= -1e-15)
        assert v[0] == 0.0 and abs(v[-1] - 1.0) <= 1e-12


def test_union_event_probability():
    x = 0.1
    n, K = 3, 4096
    th = x ** (1 - np.arange(0, n + 1) / n)
    grid = prophet_block_distribution(n, K, th)
    assert grid.xi < 0.5
    r = union_event_rate(grid, 20_000, 0)
    assert r.rate >= 1 - grid.xi - 4 * r.stderr


def test_union_event_rate_matches_direct_simulation():
    # independent oracle: draw all K iid values and take prefix maxima directly
    n, K = 3, 64
    th = np.linspace(0.25, 1.0, n + 1)
    grid = prophet_block_distribution(n, K, th)
    rng = np.random.default_rng(17)
    trials = 20_000
    hits = 0
    atoms = grid.points
    levels = grid.values
    for _ in range(trials):
        u = rng.random(int(grid.k[-1]))
        draws = atoms[np.searchsorted(levels, u, side="right")]
        ok = True
        for i, kk in enumerate(grid.k):
            m = draws[:kk].max()
            if not (th[i] < m <= th[i + 1]):
                ok = False
                break
        hits += ok
    direct = hits / trials
    r = union_event_rate(grid, trials, 99)
    se = math.sqrt(direct * (1 - direct) / trials) + r.stderr
    assert abs(direct - r.rate) <= 4 * se


def test_union_event_rate_equals_the_matrix_form():
    grids = [
        prophet_block_distribution(3, 4096, 0.1 ** (1 - np.arange(4) / 3)),
        prophet_block_distribution(3, 64, np.linspace(0.25, 1.0, 4)),
        prophet_block_distribution(6, 32, np.linspace(0.1, 1.0, 7)),
        prophet_block_distribution(2, 4, [0.0, 0.5, 1.0]),
    ]
    for grid in grids:
        for seed in (0, 7, 2024):
            want = union_event_rate_matrix(grid, 5000, seed)
            assert tuple(union_event_rate(grid, 5000, seed)) == want, (grid.k.tolist(), seed)
