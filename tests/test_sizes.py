"""The one integer rule: every integer a caller sets passes ``dist._check_int``.

Counts and lengths pass it through ``dist._check_size``, which adds the cap.
"""

import numpy as np
import pytest

from randhorizon import ValidationError, cli, dist, learn, meta, sim, solver, strategy

P = dist.delta(3)
POLICY = sim.threshold_policy(1)
GRID = meta.prophet_block_distribution(2, 4, [0.0, 0.5, 1.0])
PROFILE = meta.PerformanceProfile(c0=1.0)

# (entry point of one size, its floor, the name its errors give the size); the power
# count of learn._endpoints_until is at least 2, and tests/test_learn.py checks its cap
SIZES = {
    "harmonic n": (dist.harmonic, 0, "n"),
    "delta n": (dist.delta, 1, "n"),
    "uniform n": (dist.uniform, 1, "n"),
    "worst_case_pstar n": (dist.worst_case_pstar, 1, "n"),
    "geometric_truncated n": (lambda n: dist.geometric_truncated(0.5, n), 1, "n"),
    "poisson_truncated n": (lambda n: dist.poisson_truncated(1.0, n), 1, "n"),
    "sample_dirichlet_uniform n": (lambda n: dist.sample_dirichlet_uniform(n, 0), 1, "n"),
    "simulate trials": (lambda t: sim.simulate(P, strategy.single_threshold(2, 3), t, 0),
                        1, "trials"),
    "simulate_custom trials": (lambda t: sim.simulate_custom(P, POLICY, t, 0), 1, "trials"),
    "adversary_game trials": (lambda t: sim.adversary_game(4, POLICY, t, 0), 1, "trials"),
    "adversary_game n": (lambda n: sim.adversary_game(n, POLICY, 10, 0), 1, "n"),
    "average_case_experiment n": (lambda n: sim.average_case_experiment(n, 0.05, 10, 0), 1, "n"),
    "average_case_experiment draws": (
        lambda d: sim.average_case_experiment(10, 0.05, d, 0), 1, "draws"),
    "union_event_rate trials": (lambda t: meta.union_event_rate(GRID, t, 0), 1, "trials"),
    "meta_mixture n_hi": (lambda n: meta.meta_mixture(PROFILE, 1, n), 1, "n_hi"),
    "meta_mixture n_lo": (lambda n: meta.meta_mixture(PROFILE, n, n), 1, "n_lo"),
    "threshold_success_values l_max": (lambda l: strategy.threshold_success_values(P, l), 1,
                                       "l_max"),
    "HorizonDistribution.sample m": (lambda m: P.sample(m, np.random.default_rng(0)), 1,
                                     "sample count"),
    "draw_samples m": (lambda m: learn.draw_samples(P, m, 0), 1, "sample count"),
    "hard_instance_lb n": (lambda n: learn.hard_instance_lb(n, 0.01), 3, "n"),
    "classical_cutoff k": (solver.classical_cutoff, 1, "scale"),
    "minimax_mixture n_bar": (solver.minimax_mixture, 1, "n_bar"),
    "single_threshold m": (lambda m: strategy.single_threshold(1, m), 0, "length"),
    "Strategy.extended n": (lambda n: strategy.Strategy(q=[1.0]).extended(n), 0, "length"),
}

# small enough that a site which allocated before checking would still stay cheap
SMALL_CAP = 1000

NOT_INTEGERS = pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), True],
                                       ids=["2.5", "3.0", "nan", "True"])


@pytest.mark.parametrize("name", SIZES)
def test_every_size_passes_its_floor_and_the_cap_and_refuses_one_past_either(name, monkeypatch):
    call, floor, what = SIZES[name]
    with pytest.raises(ValidationError) as exc:
        call(floor - 1)
    assert str(exc.value) == f"{what} must be >= {floor}, got {floor - 1}"
    # every site reads the one cap in dist, so lowering it there lowers it everywhere
    monkeypatch.setattr(dist, "MAX_ELEMS", SMALL_CAP)
    with pytest.raises(ValidationError) as exc:
        call(SMALL_CAP + 1)
    assert str(exc.value) == f"{what} {SMALL_CAP + 1} exceeds the cap of {SMALL_CAP} elements"
    call(floor)
    call(SMALL_CAP)


def test_check_size_at_and_past_its_bounds():
    cap = dist.MAX_ELEMS
    for size, low in ((cap, 1), (1, 1), (0, 0), (3, 3)):
        dist._check_size(size, "x", low)
    for size, low, message in (
        (0, 1, "x must be >= 1, got 0"),
        (-1, 0, "x must be >= 0, got -1"),
        (2, 3, "x must be >= 3, got 2"),
        (cap + 1, 1, f"x {cap + 1} exceeds the cap of {cap} elements"),
        (10**40, 3, f"x {10**40} exceeds the cap of {cap} elements"),
    ):
        with pytest.raises(ValidationError) as exc:
            dist._check_size(size, "x", low)
        assert str(exc.value) == message


@NOT_INTEGERS
@pytest.mark.parametrize("name", SIZES)
def test_every_size_refuses_what_is_not_an_integer(name, value):
    call, _floor, what = SIZES[name]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer, got {value!r}"

# (entry point of one uncapped integer, its floor, the name its errors give it): a huge
# threshold, tail bound or seed costs no memory
INTEGERS = {
    "single_threshold l": (lambda l: strategy.single_threshold(l, 3), 1, "threshold"),
    "threshold_policy l": (lambda l: sim.simulate_custom(P, sim.threshold_policy(l), 10, 0), 1,
                           "threshold"),
    "sample_size_bound T": (lambda t: learn.sample_size_bound(0.5, 0.5, t), 1, "tail bound T"),
    "learning_trials T": (lambda t: learn.learning_trials(P, 0.5, 0.5, [0], T=t), 1,
                          "tail bound T"),
    "learning_trials seed": (lambda s: learn.learning_trials(P, 0.5, 0.5, [0, s]), 0, "seed"),
    "cli._subseed seed": (lambda s: cli._subseed(s, 0), 0, "seed"),
    "prophet_block_distribution K": (
        lambda k: meta.prophet_block_distribution(2, k, [0.0, 0.5, 1.0]), 1, "K"),
}


@pytest.mark.parametrize("name", INTEGERS)
def test_every_uncapped_integer_refuses_one_below_its_floor(name):
    call, floor, what = INTEGERS[name]
    with pytest.raises(ValidationError) as exc:
        call(floor - 1)
    assert str(exc.value) == f"{what} must be >= {floor}, got {floor - 1}"


@NOT_INTEGERS
@pytest.mark.parametrize("name", INTEGERS)
def test_every_uncapped_integer_refuses_what_is_not_an_integer(name, value):
    call, _floor, what = INTEGERS[name]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer, got {value!r}"


# K sets the prefix counts k_i <= K, stored as int64, so a huge K is refused (below)
@pytest.mark.parametrize("name", [n for n in INTEGERS if n != "prophet_block_distribution K"])
def test_every_uncapped_integer_takes_a_huge_one(name):
    INTEGERS[name][0](10**40)


def test_a_huge_threshold_is_a_threshold_past_every_arrival():
    assert np.array_equal(strategy.single_threshold(10**40, 3).q, [0.0, 0.0, 0.0])
    assert sim.simulate_custom(P, sim.threshold_policy(10**40), 10, 0).successes == 0


# the grid's n needs K >= 2^(n-1), so its prefix counts leave int64 long before the cap
def test_the_grid_size_passes_its_floor_and_refuses_one_past_it_or_the_cap(monkeypatch):
    call = lambda n: meta.prophet_block_distribution(n, 4, np.linspace(0.0, 1.0, 4))  # noqa: E731
    with pytest.raises(ValidationError, match=r"^n must be >= 2, got 1$"):
        call(1)
    for value in (2.5, 3.0, float("nan"), True):
        with pytest.raises(ValidationError, match=r"^n must be an integer, got "):
            call(value)
    monkeypatch.setattr(dist, "MAX_ELEMS", SMALL_CAP)
    with pytest.raises(ValidationError, match=f"^n {SMALL_CAP + 1} exceeds the cap of {SMALL_CAP}"):
        call(SMALL_CAP + 1)
    assert meta.prophet_block_distribution(2, 4, [0.0, 0.5, 1.0]).k.tolist() == [1, 4]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, K", [(64, 2**63 - 1), (64, 2**63), (70, 2**69)],
                         ids=["2^63 - 1", "2^63", "2^69"])
def test_a_grid_whose_prefix_counts_leave_int64_is_refused(n, K):
    # 2^63 - 1 is below the int64 limit, but its float, the last prefix count, is 2^63
    with pytest.raises(ValidationError, match=r"^K = \d+ puts the prefix counts past int64"):
        meta.prophet_block_distribution(n, K, np.linspace(0.0, 1.0, n + 1))


@pytest.mark.filterwarnings("error")
def test_the_largest_grid_that_fits_int64_keeps_its_prefix_counts():
    grid = meta.prophet_block_distribution(63, 2**62, np.linspace(0.0, 1.0, 64))
    assert grid.k[-1] == 2**62 and np.all(np.diff(grid.k) > 0)


def test_the_largest_sample_is_the_learned_length_and_passes_the_cap(monkeypatch):
    # SampleBatch refuses a sample below 1, so the floor is its; the cap is learn_strategy's
    with pytest.raises(ValidationError) as exc:
        learn.learn_strategy(learn.SampleBatch(samples=[1, 10**12]), 0.5)
    assert str(exc.value) == f"largest sample {10**12} exceeds the cap of {dist.MAX_ELEMS} elements"
    monkeypatch.setattr(dist, "MAX_ELEMS", SMALL_CAP)
    with pytest.raises(ValidationError, match=f"^largest sample {SMALL_CAP + 1} exceeds the cap"):
        learn.learn_strategy(learn.SampleBatch(samples=[SMALL_CAP + 1]), 0.5)
    assert learn.learn_strategy(learn.SampleBatch(samples=[SMALL_CAP]), 0.5).G.size >= SMALL_CAP


@pytest.mark.parametrize("samples", [[2.7, 3.9], [True, True], [float("nan"), 2], [1e30], [10**30],
                                     [], [[1, 2]]],
                         ids=["floats", "bools", "nan", "1e30", "10**30", "empty", "2-D"])
def test_sample_batch_refuses_what_is_no_integer_vector(samples):
    with pytest.raises(ValidationError, match="^samples must be a non-empty 1-D integer vector"):
        learn.SampleBatch(samples=samples)


def test_sample_batch_takes_integer_vectors_of_any_width_and_refuses_one_below_1():
    for samples in ([2, 3], np.array([2, 3], dtype=np.uint8), np.array([2, 3], dtype=np.int32)):
        batch = learn.SampleBatch(samples=samples)
        assert batch.samples.dtype == np.int64 and batch.samples.tolist() == [2, 3]
    for samples in ([0, 2], np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValidationError, match="^samples must be positive integers$"):
            learn.SampleBatch(samples=samples)


def test_check_int_returns_a_python_int_and_has_no_cap():
    assert type(dist._check_int(np.int64(5), "x", 0)) is int
    assert dist._check_int(10**40, "x", 1) == 10**40
    assert type(dist._check_size(np.uint8(5), "x")) is int
