"""Library values hold read-only copies: no caller's input is frozen in place or aliased."""

import numpy as np
import pytest

from randhorizon import (
    HorizonDistribution,
    PerformanceProfile,
    draw_samples,
    learn_strategy,
    make_distribution,
    make_strategy,
    meta_mixture,
    minimax_mixture,
    prophet_block_distribution,
    single_threshold,
    solve_optimal,
    uniform,
)
from randhorizon import formats


def _arrays(value, prefix=""):
    """Every ndarray a value holds, by field path, looking into nested values (an array: itself)."""
    if isinstance(value, np.ndarray):
        return {"array": value}
    fields = value._asdict() if hasattr(value, "_asdict") else vars(value)
    found = {}
    for name, field in fields.items():
        if isinstance(field, np.ndarray):
            found[prefix + name] = field
        elif hasattr(field, "_asdict") or hasattr(field, "__dataclass_fields__"):
            found.update(_arrays(field, f"{prefix}{name}."))
    return found


def _built_values():
    """(value, caller arrays it was built from) for each constructor and factory."""
    probs = np.array([0.25, 0.75])
    unit_weights = np.array([0.5, 0.5])
    raw_weights = np.array([1.0, 3.0])
    q = np.array([0.0, 1.0, 0.5])
    samples = np.array([1, 3, 2], dtype=np.int64)
    thetas = np.linspace(0.1, 1.0, 4)
    exp_max = PerformanceProfile(c0=0.5, family="exp-max")
    built = {
        "HorizonDistribution": (HorizonDistribution(probs=probs), [probs]),
        "make_distribution": (make_distribution(unit_weights), [unit_weights]),
        "make_distribution-renormalized": (make_distribution(raw_weights), [raw_weights]),
        "make_strategy": (make_strategy(q), [q]),
        "single_threshold": (single_threshold(2, 3), []),
        "strategy_from_json-q": (formats.strategy_from_json({"q": q.tolist()}, 3), []),
        "strategy_from_json-threshold": (
            formats.strategy_from_json({"kind": "threshold", "l": 2}, 3), []),
        "minimax_mixture": (minimax_mixture(3), []),
        "draw_samples": (draw_samples(uniform(6), 5, 0), []),
        "solve_optimal": (solve_optimal(uniform(6)), []),
        "learn_strategy": (learn_strategy(samples, 0.5), [samples]),
        "meta_mixture": (meta_mixture(exp_max, 2, 9), []),
        "prophet_block_distribution": (prophet_block_distribution(3, 4, thetas), [thetas]),
    }
    return [pytest.param(*case, id=label) for label, case in built.items()]


@pytest.mark.parametrize("value, inputs", _built_values())
def test_values_hold_read_only_copies(value, inputs):
    arrays = _arrays(value)
    assert arrays
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        for source in inputs:
            assert not np.shares_memory(arr, source), name
    for source in inputs:
        assert source.flags.writeable


def test_profile_table_is_a_read_only_copy():
    table = {1: 1.0, 2: 2.0}
    prof = PerformanceProfile(c0=1.0, table=table)
    table[2] = 5.0
    assert prof.f(2) == 2.0
    with pytest.raises(TypeError):
        prof.table[2] = 3.0
