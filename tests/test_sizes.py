"""The one size rule: every count or length a caller sets passes ``dist._check_size``."""

import pytest

from randhorizon import ValidationError, dist, learn, meta, sim, solver, strategy

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
    "draw_samples m": (lambda m: learn.draw_samples(P, m, 0), 1, "sample count"),
    "hard_instance_lb n": (lambda n: learn.hard_instance_lb(n, 0.01), 3, "n"),
    "classical_cutoff k": (solver.classical_cutoff, 1, "scale"),
    "minimax_mixture n_bar": (solver.minimax_mixture, 1, "n_bar"),
    "single_threshold m": (lambda m: strategy.single_threshold(1, m), 0, "length"),
}

# meta_mixture's floor is its relation check 1 <= n_lo <= n_hi
FLOOR_ERRORS = {"meta_mixture n_hi": "need 1 <= n_lo <= n_hi, got (1, 0)"}

# NaN fails meta_mixture's relation check before its size check
NAN_ERRORS = {"meta_mixture n_hi": "need 1 <= n_lo <= n_hi, got (1, nan)"}

# small enough that a site which allocated before checking would still stay cheap
SMALL_CAP = 1000


@pytest.mark.parametrize("name", SIZES)
def test_every_size_passes_its_floor_and_the_cap_and_refuses_one_past_either(name, monkeypatch):
    call, floor, what = SIZES[name]
    with pytest.raises(ValidationError) as exc:
        call(floor - 1)
    assert str(exc.value) == FLOOR_ERRORS.get(name, f"{what} must be >= {floor}, got {floor - 1}")
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


@pytest.mark.parametrize("size", [2.5, 3.0, float("nan"), True], ids=["2.5", "3.0", "nan", "True"])
@pytest.mark.parametrize("name", SIZES)
def test_every_size_refuses_what_is_not_an_integer(name, size):
    call, _floor, what = SIZES[name]
    with pytest.raises(ValidationError) as exc:
        call(size)
    want = f"{what} must be an integer, got {size!r}"
    assert str(exc.value) == (NAN_ERRORS.get(name, want) if size != size else want)
