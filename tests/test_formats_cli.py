import json
import math
import warnings

import numpy as np
import pytest

from randhorizon import cli, formats
from randhorizon import (
    ValidationError,
    classical_cutoff,
    delta,
    harmonic,
    make_strategy,
    minimax_mixture,
    sample_dirichlet_uniform,
    single_threshold,
    solve_optimal,
    success_probability,
    theta,
    worst_case_pstar,
)
from randhorizon.errors import InputFileError


def test_distribution_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(20):
        p = sample_dirichlet_uniform(int(rng.integers(1, 40)), rng)
        again = formats.distribution_from_json(formats.distribution_to_json(p))
        assert np.array_equal(again.probs, p.probs) and again.n == p.n


def test_named_distribution_kinds():
    assert np.array_equal(
        formats.distribution_from_json({"kind": "delta", "n": 3}).probs, delta(3).probs
    )
    assert np.array_equal(
        formats.distribution_from_json({"kind": "pstar", "n": 4}).probs,
        worst_case_pstar(4).probs,
    )
    p = formats.distribution_from_json({"kind": "geometric", "n": 2, "param": 0.5})
    assert np.allclose(p.probs, [2 / 3, 1 / 3], atol=1e-15)
    p = formats.distribution_from_json({"kind": "poisson", "n": 2, "param": 1.0})
    assert np.allclose(p.probs, [2 / 3, 1 / 3], atol=1e-14)
    for bad in (
        {"kind": "zeta", "n": 3},
        {"kind": "delta"},
        {"kind": "geometric", "n": 3},
        {"n": 3},
        [1, 2],
    ):
        with pytest.raises(ValidationError):
            formats.distribution_from_json(bad)


def test_strategy_round_trip():
    q = make_strategy([0.25, 1.0, 0.0])
    again = formats.strategy_from_json(formats.strategy_to_json(q))
    assert np.array_equal(again.q, q.q)
    thr = formats.strategy_from_json({"kind": "threshold", "l": 3})
    assert np.array_equal(thr.q, [0, 0, 1])
    with pytest.raises(ValidationError):
        formats.strategy_from_json({"kind": "threshold"})
    with pytest.raises(ValidationError):
        formats.strategy_from_json({})


def test_mixture_round_trip():
    mix = minimax_mixture(5)
    again = formats.mixture_from_json(formats.mixture_to_json(mix))
    assert np.allclose(again.weights, mix.weights, atol=1e-15)
    with pytest.raises(InputFileError):
        formats.mixture_from_json({"weights": [0.5, "0.5"]})


def _write_dist(tmp_path, name, obj):
    path = tmp_path / name
    formats.dump_json(obj, path)
    return str(path)


def test_cli_solve_pstar3(tmp_path):
    dist_path = _write_dist(tmp_path, "pstar3.json", {"kind": "pstar", "n": 3})
    out = tmp_path / "solved.json"
    assert cli.main(["solve", "--dist", dist_path, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert abs(result["value"] - 6 / 11) < 1e-12
    assert abs(result["theta"] - 6 / 11) < 1e-12
    assert result["k_star"] == 1


def test_cli_minimax_rate(tmp_path):
    dist_path = _write_dist(tmp_path, "any2.json", {"probs": [0.3, 0.7]})
    out = tmp_path / "mm.json"
    assert cli.main(["minimax", "--nbar", "2", "--dist", dist_path, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert abs(result["rate"] - 0.5) < 1e-12
    assert result["weights"] == [0.5, 0.5]


def test_cli_simulate_csv(tmp_path):
    dist_path = _write_dist(tmp_path, "delta3.json", {"kind": "delta", "n": 3})
    out = tmp_path / "sim.csv"
    code = cli.main(
        ["simulate", "--dist", dist_path, "--threshold", "2",
         "--trials", "100000", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["pass"] == "1"
    assert abs(float(fields["rate"]) - 0.5) <= 4 * float(fields["stderr"])
    assert float(fields["exact"]) == 0.5


def test_cli_eval_round_trip_strategy(tmp_path):
    dist_path = _write_dist(tmp_path, "u5.json", {"kind": "uniform", "n": 5})
    q = make_strategy([0.5, 1.0, 0.0, 1.0, 0.25])
    strat_path = _write_dist(tmp_path, "q.json", formats.strategy_to_json(q))
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--dist", dist_path, "--strategy", strat_path, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    from randhorizon import uniform

    assert abs(result["value"] - success_probability(uniform(5), q)) < 1e-12
    assert abs(result["value"] - result["value_pform"]) < 1e-12


def test_cli_learn_and_summary_deterministic(tmp_path):
    dist_path = _write_dist(tmp_path, "p.json", {"kind": "pstar", "n": 20})
    outs = []
    for run in range(2):
        out = tmp_path / f"learn{run}.csv"
        summary = tmp_path / f"summary{run}.csv"
        code = cli.main(
            ["learn", "--dist", dist_path, "--epsilon", "0.3", "--delta", "0.3",
             "--trials", "4", "--seed", "11", "--out", str(out), "--summary", str(summary)]
        )
        assert code == 0
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]  # byte-identical for identical (config, seed)
    header = outs[0][0].decode().split("\n")[0]
    assert header == "trial,m,value_hat,value_opt,gap,pass,epsilon"
    assert outs[0][1].decode().split("\n")[0] == "epsilon,m,pass_rate"


def test_cli_avgcase_columns(tmp_path):
    out = tmp_path / "avg.csv"
    code = cli.main(
        ["avgcase", "--n", "40", "60", "--epsilon", "0.03",
         "--draws", "500", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,epsilon,draws,threshold,fraction_below")
    assert len(lines) == 3


def test_cli_adversary(tmp_path):
    out = tmp_path / "adv.csv"
    code = cli.main(
        ["adversary", "--n", "16", "--policy", "first",
         "--trials", "20000", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["pass"] == "1"
    assert float(fields["bound"]) == 0.25


def test_cli_meta_json_and_csv(tmp_path):
    out = tmp_path / "meta.json"
    assert cli.main(["meta", "--nlo", "1", "--nhi", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert abs(result["guarantee"] - 2 / 3) < 1e-12
    out_csv = tmp_path / "meta.csv"
    assert cli.main(
        ["meta", "--profile", "exp-max", "--c0", "0.745", "--nlo", "2", "--nhi", "5",
         "--format", "csv", "--out", str(out_csv)]
    ) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,expected_performance,guarantee"
    assert len(lines) == 5


def test_cli_meta_table_profile(tmp_path):
    table_path = tmp_path / "table.json"
    formats.dump_json({"2": 1.0, "3": 2.0, "4": 2.5}, table_path)
    out = tmp_path / "meta_table.json"
    code = cli.main(
        ["meta", "--profile", f"table:{table_path}", "--c0", "0.5",
         "--nlo", "2", "--nhi", "4", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert abs(sum(result["weights"]) - 1.0) < 1e-12


def test_cli_lowerbound(tmp_path):
    out = tmp_path / "lb.json"
    assert cli.main(["lowerbound", "--n", "200", "--epsilon", "0.02", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["separated"] is True
    assert abs(result["s_star"] - 1 / (1 + math.e)) <= 0.01


def test_cli_exit_codes(tmp_path):
    assert cli.main(["solve", "--dist", str(tmp_path / "missing.json")]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["solve", "--dist", str(garbled)]) == 3
    assert cli.main(["minimax", "--nbar", "0"]) == 4
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    assert cli.main(["solve", "--dist", dist_path, "--out", str(tmp_path / "no" / "x.json")]) == 5
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_solve_matches_the_library(tmp_path, capsys):
    rng = np.random.default_rng(52)
    for n in (1, 2, 50, 5000):
        for name, obj in (
            ("delta", {"kind": "delta", "n": n}),
            ("uniform", {"kind": "uniform", "n": n}),
            ("pstar", {"kind": "pstar", "n": n}),
            ("dirichlet", formats.distribution_to_json(sample_dirichlet_uniform(n, rng))),
        ):
            assert cli.main(["solve", "--dist", _write_dist(tmp_path, f"{name}{n}.json", obj)]) == 0
            p = formats.distribution_from_json(obj)
            opt, th = solve_optimal(p), theta(p)
            rule = single_threshold(classical_cutoff(th.k_star), n)
            want = {
                "q_opt": list(map(float, opt.q_opt.q)),
                "value": opt.value,
                "theta": th.theta,
                "k_star": th.k_star,
                "threshold_value": success_probability(p, rule),
            }
            assert capsys.readouterr().out == formats.json_text(want), (name, n)


def test_cli_non_numeric_input_is_a_bad_file(tmp_path, capsys):
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    files = {
        "probs": {"probs": ["a", 0.5]},
        "probs_bool": {"probs": [True, 0.5]},
        "probs_nested": {"probs": [[0.5, 0.5]]},
        "q": {"q": [0.0, "1"]},
        "table_value": {"1": 1.0, "2": "x"},
        "table_key": {"1": 1.0, "two": 2.0},
        "table_key_underscore": {"1": 1.0, "1_0": 2.0},
        "table_key_spaces": {"1": 1.0, " 5 ": 1.0},
        "table_key_plus": {"1": 1.0, "+7": 3.0},
        "table_key_zero_padded": {"1": 1.0, "010": 3.0},
        "table_key_negative": {"1": 1.0, "-2": 3.0},
        "n_bool": {"kind": "delta", "n": True},
        "n_float": {"kind": "uniform", "n": 2.5},
        "param_bool": {"kind": "poisson", "n": 4, "param": True},
        "param_string": {"kind": "geometric", "n": 4, "param": "0.5"},
        "l_bool": {"kind": "threshold", "l": True},
    }
    paths = {key: _write_dist(tmp_path, f"{key}.json", obj) for key, obj in files.items()}
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "delta", "n": 3, "note": "caf\u00e9"}'.encode("latin-1"))
    meta_argv = ["meta", "--nlo", "1", "--nhi", "2", "--profile"]
    for argv in (
        ["solve", "--dist", paths["probs"]],
        ["eval", "--dist", paths["probs_bool"], "--threshold", "1"],
        ["minimax", "--nbar", "2", "--dist", paths["probs_nested"]],
        ["eval", "--dist", dist_path, "--strategy", paths["q"]],
        [*meta_argv, "table:" + paths["table_value"]],
        *([*meta_argv, "table:" + paths[key]] for key in files if key.startswith("table_key")),
        ["solve", "--dist", paths["n_bool"]],
        ["solve", "--dist", paths["n_float"]],
        ["eval", "--dist", paths["param_bool"], "--threshold", "1"],
        ["solve", "--dist", paths["param_string"]],
        ["eval", "--dist", dist_path, "--strategy", paths["l_bool"]],
        ["solve", "--dist", str(latin1)],
    ):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert err.startswith("randhorizon: bad input file:") and err.count("\n") == 1, err
    # an integer too large for a float is a number out of range, not a malformed file
    huge_probs = _write_dist(tmp_path, "huge_probs.json", {"probs": [10**400, 1]})
    huge_table = _write_dist(tmp_path, "huge_table.json", {"1": 1.0, "2": 10**400})
    huge_param = _write_dist(tmp_path, "huge_param.json", {"kind": "poisson", "n": 4, "param": 10**400})
    for argv in (
        ["solve", "--dist", huge_probs],
        [*meta_argv, "table:" + huge_table],
        ["solve", "--dist", huge_param],
    ):
        assert cli.main(argv) == 4, argv
        assert "Traceback" not in capsys.readouterr().err, argv


def test_cli_sizes_over_the_cap_and_overflowing_weights_are_range_errors(tmp_path, capsys):
    huge_n = _write_dist(tmp_path, "huge_n.json", {"kind": "delta", "n": 10**11})
    overflow = _write_dist(tmp_path, "overflow.json", {"probs": [1e308, 1e308]})
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    learn_argv = ["learn", "--dist", dist_path, "--epsilon", "1e-9", "--trials", "1"]
    for argv, words in (
        (["solve", "--dist", huge_n], "cap"),
        (learn_argv, "cap"),
        ([*learn_argv, "--tail-bound", "5"], "cap"),
        (["solve", "--dist", overflow], "overflows"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would fail here
            assert cli.main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("randhorizon: invalid parameter:") and err.count("\n") == 1, err
        assert words in err and "np.float64" not in err, err


def test_cli_negative_seed_is_a_range_error(tmp_path):
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    for argv in (
        ["simulate", "--dist", dist_path, "--threshold", "2", "--trials", "10"],
        ["adversary", "--n", "4", "--trials", "10"],
        ["avgcase", "--n", "10", "--epsilon", "0.05", "--draws", "10"],
        ["learn", "--dist", dist_path, "--epsilon", "0.5", "--delta", "0.5", "--trials", "1"],
    ):
        assert cli.main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")]) == 4, argv


def test_cli_minimax_mubar(tmp_path):
    out = tmp_path / "mm.json"
    assert cli.main(["minimax", "--mubar", str(math.e), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["n_bar"] == 3
    assert np.allclose(result["weights"], [0.4, 0.4, 0.2], atol=1e-12)
    assert abs(result["bound"] - 1 / (1 + harmonic(2))) < 1e-12
