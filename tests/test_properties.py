"""Property tests of the closed forms, the sample-size bound and the CLI on generated inputs."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from randhorizon import cli, formats  # noqa: E402
from randhorizon.dist import MAX_ELEMS  # noqa: E402
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
    success_probabilities,
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
    assert abs(success_probability(p, strategy) - success_probabilities(p, strategy)[1]) <= TOL


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


# --- the CLI's exit-code contract on generated files and sizes -------------

CLI_PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# integers skip (10^4, MAX_ELEMS]: a size there is accepted and would allocate up to 800 MB
json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**4),
    st.integers(MAX_ELEMS + 1, 10**400),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_leaf,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=5), kids, max_size=4)
    ),
    max_leaves=12,
)


def sizes(floor: int, top: int):
    """Sizes on both sides of a floor and of MAX_ELEMS; the accepted ones are at most top."""
    return st.one_of(
        st.integers(floor - 3, floor + 2),
        st.integers(floor, top),
        st.integers(MAX_ELEMS + 1, MAX_ELEMS + 10),
        st.integers(MAX_ELEMS + 1, 10**30),
    )


n_values = st.one_of(sizes(1, 10**4), st.integers(-(10**30), 0))
kinds = st.sampled_from(["delta", "uniform", "pstar", "geometric", "poisson", "zeta"])
unit_lists = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
leaf_lists = st.lists(json_leaf, max_size=20)
# well-formed shapes are drawn more often than arbitrary values, so every exit code occurs
dist_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"kind": st.one_of(kinds, kinds, json_values),
         "n": st.one_of(n_values, n_values, json_values)},
        optional={"param": st.one_of(st.floats(), st.floats(0.0, 2.0), json_values)},
    ),
    st.fixed_dictionaries({"probs": st.one_of(unit_lists, leaf_lists, json_values)}),
)
strategy_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"kind": st.one_of(st.just("threshold"), st.just("threshold"), json_values),
         "l": st.one_of(n_values, n_values, json_values)}
    ),
    st.fixed_dictionaries({"q": st.one_of(unit_lists, leaf_lists, json_values)}),
)


def file_texts(docs):
    """A document as file text: JSON of a generated value, too deep to parse, or bare text."""
    as_json = docs.map(json.dumps)
    return st.one_of(
        as_json,
        as_json,
        as_json,
        st.sampled_from([10, 1000, 100_000]).map(lambda d: "[" * d + "]" * d),
        st.text(max_size=12),
    )


def _main(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main in this process; argparse's exit is a code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv: list[str]) -> int:
    """The README's exit codes, no output on failure, and one line of stderr saying why."""
    code, out, err = _main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err, err
    if code != 0:
        assert out == "", (argv, out)
        lines = err.splitlines()
        if code == 2:  # argparse prints its usage lines, then one error line
            assert ": error: " in lines[-1], err
        else:
            assert len(lines) == 1 and err.startswith("randhorizon: "), err
    return code


@CLI_PROPERTY
@given(text=file_texts(dist_docs), command=st.sampled_from(["solve", "eval", "simulate"]))
def test_cli_keeps_its_exit_code_contract_on_any_distribution_file(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "dist.json")
        path.write_text(text, encoding="utf-8")
        extra = {"solve": [], "eval": ["--threshold", "2"],
                 "simulate": ["--threshold", "2", "--trials", "50"]}
        _assert_contract([command, "--dist", str(path), *extra[command]])


@CLI_PROPERTY
@given(text=file_texts(strategy_docs), command=st.sampled_from(["eval", "simulate"]))
def test_cli_keeps_its_exit_code_contract_on_any_strategy_file(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        dist_path, strat_path = Path(tmp, "dist.json"), Path(tmp, "strategy.json")
        dist_path.write_text(json.dumps({"kind": "uniform", "n": 40}), encoding="utf-8")
        strat_path.write_text(text, encoding="utf-8")
        extra = ["--trials", "50"] if command == "simulate" else []
        _assert_contract([command, "--dist", str(dist_path), "--strategy", str(strat_path), *extra])


def _size_argvs(dist_path: str):
    """argvs of every command with a size a user sets, on both sides of its floor and the cap."""
    d = ["--dist", dist_path]
    return st.one_of(
        st.builds(lambda t: ["simulate", *d, "--threshold", "2", "--trials", str(t)],
                  sizes(1, 10**4)),
        st.builds(lambda n, t, rule: ["adversary", "--policy", rule, "--n", str(n),
                                      "--trials", str(t)],
                  sizes(1, 10**4), sizes(1, 300), st.sampled_from(["first", "classical", "sqrt"])),
        st.builds(lambda n, k: ["avgcase", "--n", str(n), "--epsilon", "0.05", "--draws", str(k)],
                  sizes(1, 1000), sizes(1, 50)),
        st.builds(lambda n: ["minimax", "--nbar", str(n)], sizes(1, 10**4)),
        st.builds(lambda n: ["meta", "--nlo", "1", "--nhi", str(n)], sizes(1, 10**4)),
        st.builds(lambda n: ["lowerbound", "--n", str(n), "--epsilon", "0.01"], sizes(3, 10**4)),
        st.builds(lambda t: ["learn", *d, "--epsilon", "0.5", "--delta", "0.5", "--trials", str(t)],
                  sizes(1, 3)),
        st.builds(lambda l: ["eval", *d, "--threshold", str(l)], sizes(1, 10**4)),
    )


@CLI_PROPERTY
@given(data=st.data())
def test_cli_keeps_its_exit_code_contract_on_sizes_across_floor_and_cap(data):
    with tempfile.TemporaryDirectory() as tmp:
        dist_path = Path(tmp, "dist.json")
        dist_path.write_text(json.dumps({"kind": "delta", "n": 3}), encoding="utf-8")
        argv = data.draw(_size_argvs(str(dist_path)))
        code = _assert_contract(argv)
        # every size but eval's threshold, which costs no memory, is capped
        if argv[0] != "eval" and any(a.isdigit() and int(a) > MAX_ELEMS for a in argv):
            assert code == 4, argv


# formats.json_text against its contract: json.dumps of the document with each vector as a list
CHUNK = formats._CHUNK
RUNS_FROM = formats._RUNS_FROM


def _contract(doc: dict) -> str:
    listed = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    return json.dumps(listed, sort_keys=True, separators=(", ", ": ")) + "\n"


run_values = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
                       st.floats())


@PROPERTY
@given(runs=st.lists(st.tuples(run_values, st.integers(1, 2 * CHUNK)), max_size=10),
       distinct=st.integers(0, 2 * CHUNK), step=st.sampled_from([1, 2, 3]),
       extra=st.dictionaries(st.text(max_size=5), json_values, max_size=3))
def test_json_text_writes_vectors_of_runs_as_json_dumps_does(runs, distinct, step, extra):
    values = np.array([v for v, _ in runs], dtype=float)
    a = np.repeat(values, [k for _, k in runs])
    a = np.concatenate([a, np.random.default_rng(distinct).random(distinct)])[::step]
    doc = {**extra, "vector": a, "head": a[:3]}
    assert formats.json_text(doc) == _contract(doc)


def _runs(count: int, n: int) -> np.ndarray:
    """n entries in count runs of near-equal lengths, each run a new value."""
    lengths = np.diff(np.linspace(0, n, count + 1).astype(int))
    return np.repeat(np.arange(count, dtype=float), lengths)


_RNG = np.random.default_rng(17)
_READ_ONLY = np.repeat([0.0, 1.0, 0.0], CHUNK)
_READ_ONLY.setflags(write=False)
EDGE_VECTORS = {
    "empty": np.zeros(0),
    "one entry": np.array([-0.0]),
    "chunk - 1": _RNG.random(CHUNK - 1),
    "chunk": _RNG.random(CHUNK),
    "chunk + 1": _RNG.random(CHUNK + 1),
    "4 entries a run": _runs(1200, 4 * 1200),  # the shortest mean run spelled once a run
    "under 4 entries a run": _runs(1201, 4 * 1200),
    "alternating zeros of both signs": np.array([0.0, -0.0] * CHUNK),
    "runs of zeros of both signs": np.repeat([-0.0, 0.0, -0.0], CHUNK),
    "nan and infinities": np.repeat([math.nan, math.inf, -math.inf, math.nan, 1.0], CHUNK),
    "strided": np.repeat([1.0, 0.5, 0.0], 2 * CHUNK)[::3],
    "read-only": _READ_ONLY,
    "broadcast": np.broadcast_to(0.5, (3 * CHUNK,)),
    # w_1 = w_2, then distinct values: minimax's weights
    "minimax weights": minimax_mixture(3 * CHUNK),
    "pair then distinct": np.concatenate([[0.25, 0.25], _RNG.random(2 * CHUNK)]),
    # around the length below which one json.dumps call writes the vector
    "two 0/1 runs, one under the run cutoff": np.repeat([0.0, 1.0], [40, RUNS_FROM - 41]),
    "two 0/1 runs, at the run cutoff": np.repeat([0.0, 1.0], [40, RUNS_FROM - 40]),
    "two 0/1 runs, one over the run cutoff": np.repeat([0.0, 1.0], [40, RUNS_FROM - 39]),
    "short runs of zeros of both signs": np.repeat([-0.0, 0.0], 5),
    "short run of nan": np.repeat([1.0, math.nan], [3, 7]),
}


@pytest.mark.parametrize("name", EDGE_VECTORS)
def test_json_text_writes_edge_vectors_as_json_dumps_does(name):
    a = EDGE_VECTORS[name]
    nested = {"flat_check": [{"n": 1, "expected_performance": "0.5"}], "profile": "identity",
              "tree": {"b": [1, None, True], "a": {"x": -0.0}}}
    for doc in ({"vector": a}, {**nested, "weights": a, "n_bar": a.size, "bound": math.nan},
                {"q": a, "p": EDGE_VECTORS["chunk + 1"], "r": a[:2]}):
        assert formats.json_text(doc) == _contract(doc), name


def test_json_text_calls_json_dumps_once_per_short_document_chunk_or_run_chunk(monkeypatch):
    docs = [{"q_opt": np.zeros(CHUNK), "value": 0.5},
            {"q_opt": np.repeat([0.0, 1.0], 50 * CHUNK), "value": 0.5},
            {"weights": _RNG.random(3 * CHUNK + 1), "value": 0.5}]
    want = [_contract(doc) for doc in docs]
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    found = []
    for doc in docs:
        calls.clear()
        assert formats.json_text(doc) == want[len(found)]
        found.append(len(calls))
    # every document, short or long: one call per key and per non-vector value, then
    # per chunk of entries, or per chunk of runs when their mean length is 4 or more
    assert found == [2 + 1 + 1, 2 + 1 + 1, 2 + 1 + 4]
