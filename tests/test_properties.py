"""Property tests of the closed forms and the sample-size bound on generated inputs."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from randhorizon import (  # noqa: E402
    ValidationError,
    best_single_threshold,
    harmonic,
    make_distribution,
    make_strategy,
    minimax_mixture,
    mixture_success_probability,
    sample_size_bound,
    solve_optimal,
    success_probability,
    success_probability_pform,
)

# a fixed example sequence and no example database: runs repeat exactly
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
TOL = 1e-12

unit = st.floats(0.0, 1.0)
weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=60).filter(
    lambda w: max(w) > 0.0
)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@PROPERTY
@given(w=weights, q=st.lists(unit, max_size=70))
def test_lambda_form_equals_the_per_horizon_form(w, q):
    p, strategy = make_distribution(w), make_strategy(q)
    assert abs(success_probability(p, strategy) - success_probability_pform(p, strategy)) <= TOL


@PROPERTY
@given(w=weights)
def test_threshold_value_best_threshold_and_optimum_are_sandwiched(w):
    p = make_distribution(w)
    s = solve_optimal(p)
    _, best = best_single_threshold(p)
    assert s.theta / math.e <= s.threshold_value + TOL
    assert s.threshold_value <= best + TOL
    assert best <= s.value + TOL
    assert s.value <= s.theta + TOL


@PROPERTY
@given(w=weights)
def test_minimax_mixture_earns_its_constant_on_every_distribution(w):
    n = len(w)
    rate = mixture_success_probability(make_distribution(w), minimax_mixture(n))
    assert abs(rate - 1.0 / (1.0 + harmonic(n - 1))) <= TOL


@PROPERTY
@given(
    epsilon=st.one_of(open_unit, st.sampled_from([5e-324, 1e-310, 1e-200, 1e-160])),
    delta=st.one_of(open_unit, st.sampled_from([5e-324, 1e-320, 1e-200])),
    T=st.one_of(st.integers(1, 100), st.integers(1, 10**40)),
)
def test_sample_size_bound_is_an_int_or_a_range_error(epsilon, delta, T):
    try:
        m = sample_size_bound(epsilon, delta, T)
    except ValidationError as exc:
        assert "overflows" in str(exc)
        return
    assert type(m) is int and m >= 1
