import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from randhorizon import cli, formats, learn, sim, solver, strategy
from randhorizon import (
    ValidationError,
    backward_induction,
    classical_cutoff,
    delta,
    harmonic,
    lambda_sequence,
    make_strategy,
    sample_dirichlet_uniform,
    single_threshold,
    success_probability,
    uniform,
    worst_case_pstar,
)
from randhorizon.errors import InputFileError
from oracles import learning_trial_loop

SRC = Path(__file__).resolve().parents[1] / "src"


def test_distribution_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(20):
        p = sample_dirichlet_uniform(int(rng.integers(1, 40)), rng)
        again = formats.distribution_from_json(json.loads(json.dumps({"probs": p.probs.tolist()})))
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
    ):
        with pytest.raises(ValidationError):
            formats.distribution_from_json(bad)
    for bad in ([1, 2], "x", None, {"kind": 5, "n": 3}, {"kind": ["delta"], "n": 3}):
        with pytest.raises(InputFileError):
            formats.distribution_from_json(bad)


def test_strategy_round_trip():
    q = make_strategy([0.25, 1.0, 0.0])
    again = formats.strategy_from_json(json.loads(json.dumps({"q": q.tolist()})), 5)
    assert np.array_equal(again, q)
    # a threshold rule stores min(l, n) entries: A(p, q) reads q_1..q_n only
    cases = ((3, 3, [0, 0, 1]), (3, 10, [0, 0, 1]), (10, 4, [0, 0, 0, 0]), (10**10, 2, [0, 0]))
    for l, n, want in cases:
        thr = formats.strategy_from_json({"kind": "threshold", "l": l}, n)
        assert np.array_equal(thr, want), (l, n)
        if l < 100:
            p = uniform(n)
            assert success_probability(p, thr) == success_probability(p, single_threshold(l, l))
    with pytest.raises(ValidationError):
        formats.strategy_from_json({"kind": "threshold"}, 3)
    with pytest.raises(ValidationError):
        formats.strategy_from_json({}, 3)
    for bad in ([0.5], "x", {"kind": 1, "l": 2}):
        with pytest.raises(InputFileError):
            formats.strategy_from_json(bad, 3)


@pytest.mark.parametrize("key, load", [
    ("probs", lambda obj: formats.distribution_from_json(obj).probs),
    ("q", lambda obj: formats.strategy_from_json(obj, 10**5)),
], ids=["probs", "q"])
def test_a_file_vector_becomes_one_float_array(key, load):
    # the parsed list is converted once, in dist: 0.8 MB for 10^5 floats, not two copies
    x = np.random.default_rng(5).random(10**5)
    obj = {key: (x / x.sum()).tolist()}
    tracemalloc.start()
    try:
        value = load(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert np.array_equal(value, obj[key])


def _write_dist(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
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
    strat_path = _write_dist(tmp_path, "q.json", {"q": q.tolist()})
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--dist", dist_path, "--strategy", strat_path, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert abs(result["value"] - success_probability(uniform(5), q)) < 1e-12
    assert abs(result["value"] - result["value_pform"]) < 1e-12


def test_cli_eval_checks_q_once_and_runs_the_kernel_once_per_chunk(tmp_path, monkeypatch, capsys):
    # both forms of A(p, q) come from one chunked pass over the stored rule, never padded to n;
    # the pass covers the window [l, n], 2 CHUNK - 14 indices: two chunks of the kernel
    n, l = 2 * strategy._CHUNK + 5, 20
    calls = {"checked": 0, "kernel": 0}
    kernel_q_sizes = set()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def kernel(q, *args, step=strategy._acceptance_terms):
        kernel_q_sizes.add(q.size)
        return step(q, *args)

    monkeypatch.setattr(strategy, "_acceptance_vector",
                        counted("checked", strategy._acceptance_vector))
    monkeypatch.setattr(strategy, "_acceptance_terms", counted("kernel", kernel))
    dist_path = _write_dist(tmp_path, "u.json", {"kind": "uniform", "n": n})
    assert cli.main(["eval", "--dist", dist_path, "--threshold", str(l)]) == 0
    assert calls == {"checked": 1, "kernel": 2}
    assert kernel_q_sizes == {l}  # the stored rule itself, not an extension of length n
    result = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    assert (result["value"], result["value_pform"]) == strategy.success_probabilities(
        uniform(n), single_threshold(l, l))


def test_cli_eval_runs_the_kernel_on_the_live_window_only(tmp_path, monkeypatch):
    # poisson(1000) truncated to 3e5 is 0 past horizon 2444, and threshold 1000 zero below it:
    # the window [1000, 2444] fits in one chunk of the kernel, whatever n is
    steps = []
    step = strategy._acceptance_terms
    monkeypatch.setattr(strategy, "_acceptance_terms", lambda *a: steps.append(a[1]) or step(*a))
    dist_path = _write_dist(tmp_path, "p.json", {"kind": "poisson", "n": 300000, "param": 1000.0})
    assert cli.main(["eval", "--dist", dist_path, "--threshold", "1000"]) == 0
    assert steps == [999]


def test_cli_eval_keeps_its_peak_memory(tmp_path):
    dist_path = _write_dist(tmp_path, "u.json", {"kind": "uniform", "n": 10**6})
    argv = ["eval", "--dist", dist_path, "--threshold", "367880"]
    assert cli.main(argv) == 0  # warm
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8 MB vectors: the law, the stored rule (0.37 of one) and the two forms' terms on the
    # window [l, n] (2 x 0.63 of one), 21.1 MB; the terms as two vectors of n took 27.2 MB, and
    # q padded to n, U's buffer of n + 1 and their product took it to 34.9 MB
    assert peak <= 22e6, peak


_CAPPED_MAIN = (
    "import contextlib, io, json, resource, sys\n"
    "cap = 1 << 31\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from randhorizon import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        code = cli.main(argv)\n"
    "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
)


def _main_under_memory_cap(argvs):
    """(exit code, stdout, stderr) of cli.main per argv, in a child with 2 GiB of address space.

    An argv that allocates more than that exits 6 there; one that raised
    anything else would end the child with a traceback and a non-zero exit.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return [json.loads(line) for line in run.stdout.splitlines()]


def test_cli_huge_threshold_needs_no_memory(tmp_path):
    # a rule stored with l entries would fail fast under the address-space cap
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    strat_path = _write_dist(tmp_path, "s.json", {"kind": "threshold", "l": 10**10})
    l = str(10**10)
    results = _main_under_memory_cap([
        ["eval", "--dist", dist_path, "--threshold", l],
        ["eval", "--dist", dist_path, "--strategy", strat_path],
        ["simulate", "--dist", dist_path, "--threshold", l, "--trials", "1000"],
    ])
    assert [code for code, _, _ in results] == [0, 0, 0], results
    for _, out, _ in results[:2]:
        result = json.loads(out)
        assert result["value"] == 0.0 and result["value_pform"] == 0.0 and result["n"] == 3
    assert results[2][1].splitlines() == [
        "trials,successes,rate,stderr,exact,gap,pass", "1000,0,0,0,0,0,1"]


def test_cli_eval_on_a_named_law_at_the_cap_reads_its_window_alone(tmp_path):
    # poisson(1000) at 10^8: a zero vector of n that is only read, and sums on the window;
    # two more vectors of n for the terms exited 6 here
    argvs = [["eval", "--dist", _write_dist(tmp_path, f"p{n}.json",
                                            {"kind": "poisson", "n": n, "param": 1000.0}),
              "--threshold", "1000"] for n in (10**8, 3 * 10**5)]
    results = _main_under_memory_cap(argvs)
    assert [code for code, _, _ in results] == [0, 0], results
    big, small = (json.loads(out) for _, out, _ in results)
    assert big["n"] == 10**8
    # the law's renormalizing sum and both forms' sums run over the window alone, whatever n is
    for key in ("value", "value_pform"):
        assert big[key].hex() == small[key].hex(), key


def test_cli_out_of_memory_exits_6_with_one_line(tmp_path):
    # a law at the size cap needs vectors of 800 MB, more than the child's 2 GiB allow
    dist_path = _write_dist(tmp_path, "u.json", {"kind": "uniform", "n": 100000000})
    results = _main_under_memory_cap([
        ["solve", "--dist", dist_path],
        ["eval", "--dist", dist_path, "--threshold", "2"],
    ])
    for (code, out, err), command in zip(results, ["solve", "eval"]):
        assert code == 6 and out == "", (code, err)
        assert err.startswith(f"randhorizon: out of memory in {command}") and err.count("\n") == 1, err
        assert "Traceback" not in err, err


def test_cli_minimax_rate_does_not_depend_on_blas_threads(tmp_path):
    # a BLAS dot product of over 10^4 terms is split between threads, which moves its rounding
    probs = sample_dirichlet_uniform(12000, 7).probs.tolist()
    dist_path = _write_dist(tmp_path, "d.json", {"probs": probs})
    main = "import sys; from randhorizon import cli; sys.exit(cli.main(sys.argv[1:]))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    stdouts = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", main, "minimax", "--nbar", "12000",
                              "--dist", dist_path], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        stdouts.append(run.stdout)
    rates = [json.loads(out)["rate"] for out in stdouts]
    assert rates[0] == rates[1]
    assert stdouts[0] == stdouts[1], "the weights differ"  # 12000 of them: no diff printed


def test_cli_learn_and_summary_deterministic(tmp_path, capsys):
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
    # both on stdout: the rows, then the summary
    capsys.readouterr()
    assert cli.main(["learn", "--dist", dist_path, "--epsilon", "0.3", "--delta", "0.3",
                     "--trials", "4", "--seed", "11", "--summary", "-"]) == 0
    assert capsys.readouterr().out.encode() == outs[0][0] + outs[0][1]


def test_cli_learn_gap_is_exactly_zero_when_the_learned_strategy_is_the_optimum(tmp_path, capsys):
    # on delta(10) every trial learns q_opt; backward induction's C_1 and the lambda
    # form differ by an ulp there, which the gap printed as -5.551115123e-17
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 10})
    assert cli.main(["learn", "--dist", dist_path, "--epsilon", "0.2", "0.5", "--trials", "4",
                     "--seed", "0"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 8
    for row in rows:
        assert row["value_hat"] == row["value_opt"] == "0.3986904762"
        assert row["gap"] == "0"


def test_cli_learn_repeats_its_bytes_after_another_truth(tmp_path, capsys):
    # three epsilons, 40 trials of ragged sample counts, and a second truth of the same
    # size in between: nothing one call leaves behind may reach the next
    rng = np.random.default_rng(31)
    paths = [_write_dist(tmp_path, f"p{k}.json", {"probs": rng.standard_exponential(1000).tolist()})
             for k in range(2)]
    summary = tmp_path / "summary.csv"
    outputs = []
    for path in (paths[0], paths[1], paths[0]):
        argv = ["learn", "--dist", path, "--epsilon", "0.05", "0.1", "0.2", "--trials", "40",
                "--seed", "3", "--summary", str(summary)]
        assert cli.main(argv) == 0
        outputs.append((capsys.readouterr().out, summary.read_bytes()))
    assert outputs[2] == outputs[0]
    # the run in between is the second truth's own: its values are those of the per-trial loop
    p = formats.distribution_from_json(formats.load_json(paths[1]))
    rows = [row.split(",") for row in outputs[1][0].split("\n")[1:-1]]
    want = [(want_m, f"{want_value:.10g}") for i, eps in enumerate((0.05, 0.1, 0.2))
            for want_m, want_value in learning_trial_loop(p, eps, 0.1, 40, cli._subseed(3, i))]
    assert [(int(m), value_hat) for _trial, m, value_hat, *_rest in rows] == want
    assert len({m for _trial, m, *_rest in rows}) > 1  # ragged sample counts


def _simulate_row(tmp_path, capsys, dist_path, threshold, trials, seed=0):
    argv = ["simulate", "--dist", dist_path, "--threshold", str(threshold),
            "--trials", str(trials), "--seed", str(seed)]
    assert cli.main(argv) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


def test_cli_simulate_passes_a_correct_run_without_successes(tmp_path, capsys):
    # exact value 0.01: a correct run of 100 trials sees no success with probability 0.37
    dist_path = _write_dist(tmp_path, "delta100.json", {"kind": "delta", "n": 100})
    row = _simulate_row(tmp_path, capsys, dist_path, 100, 100, seed=2)
    assert (row["successes"], row["stderr"], row["pass"]) == ("0", "0", "1")


def test_cli_simulate_fails_a_biased_sampler(tmp_path, capsys, monkeypatch):
    dist_path = _write_dist(tmp_path, "delta100.json", {"kind": "delta", "n": 100})
    for bias, want in ((1.0, "1"), (1.1, "0")):
        def sampler(p, q, trials, seed, bias=bias):
            return sim._binomial_result(round(bias * success_probability(p, q) * trials), trials)

        monkeypatch.setattr(sim, "simulate", sampler)
        assert _simulate_row(tmp_path, capsys, dist_path, 38, 10**6)["pass"] == want, bias


def test_cli_adversary_fails_a_rate_over_the_bound(capsys, monkeypatch):
    # bound 1/4 at n = 16; 4 standard errors of 10^4 trials under it are 0.0173
    for rate, want in ((0.267, "1"), (0.268, "0")):
        monkeypatch.setattr(sim, "adversary_game",
                            lambda n, policy, trials, seed, rate=rate: sim._binomial_result(
                                round(rate * trials), trials))
        assert cli.main(["adversary", "--n", "16", "--trials", "10000"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["pass"] == want, rate


def test_cli_learn_solves_the_truth_once(tmp_path, monkeypatch):
    dist_path = _write_dist(tmp_path, "p.json", {"kind": "pstar", "n": 20})
    solved = []

    def counted(p, real=solver.solve_optimal):
        solved.append(p.n)
        return real(p)

    monkeypatch.setattr(solver, "solve_optimal", counted)
    monkeypatch.setattr(learn, "solve_optimal", counted)
    code = cli.main(
        ["learn", "--dist", dist_path, "--epsilon", "0.3", "0.5", "--trials", "3",
         "--out", str(tmp_path / "learn.csv")]
    )
    assert code == 0 and solved == [20]


def test_cli_runs_a_rebound_command_with_the_parser_it_already_built(tmp_path, monkeypatch):
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    argv = ["solve", "--dist", dist_path, "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    calls = []

    def counted(args, real=cli.cmd_solve):
        calls.append(args.dist)
        return real(args)

    monkeypatch.setattr(cli, "cmd_solve", counted)
    assert cli.main(argv) == 0 and calls == [dist_path]


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
    table_path = _write_dist(tmp_path, "table.json", {"2": 1.0, "3": 2.0, "4": 2.5})
    out = tmp_path / "meta_table.json"
    code = cli.main(
        ["meta", "--profile", f"table:{table_path}", "--c0", "0.5",
         "--nlo", "2", "--nhi", "4", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert abs(sum(result["weights"]) - 1.0) < 1e-12


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_cli_meta_refuses_a_non_finite_table_value(tmp_path, capsys, literal):
    # json.loads takes both literals; the mixture then printed "guarantee": NaN, which is not JSON
    table_path = tmp_path / "table.json"
    table_path.write_text(f'{{"2": 1.0, "3": {literal}, "4": 2.5}}', encoding="utf-8")
    assert cli.main(["meta", "--profile", f"table:{table_path}", "--nlo", "2", "--nhi", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "randhorizon: invalid parameter: f must be positive and finite on [n_lo, n_hi]\n"


def test_cli_lowerbound(tmp_path):
    out = tmp_path / "lb.json"
    assert cli.main(["lowerbound", "--n", "200", "--epsilon", "0.02", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["separated"] is True
    assert abs(result["s_star"] - 1 / (1 + math.e)) <= 0.01


def test_cli_solve_learn_and_lowerbound_succeed_at_a_million(tmp_path, capsys):
    # each solves delta(10^6), whose optimum must clear solve_optimal's sandwich assertion
    dist = _write_dist(tmp_path, "delta.json", {"kind": "delta", "n": 1000000})
    assert cli.main(["solve", "--dist", dist]) == 0
    assert json.loads(capsys.readouterr().out)["k_star"] == 1000000
    assert cli.main(["learn", "--dist", dist, "--epsilon", "0.5", "--delta", "0.1", "--trials", "2",
                     "--seed", "0", "--tail-bound", "1000000"]) == 0
    assert capsys.readouterr().out.count(",1,0.5\n") == 2  # both trials pass
    assert cli.main(["lowerbound", "--n", "1000000", "--epsilon", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["separated"] is True


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["solve", "--dist", str(tmp_path / "missing.json")]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["solve", "--dist", str(garbled)]) == 3
    assert cli.main(["minimax", "--nbar", "0"]) == 4
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    assert cli.main(["solve", "--dist", dist_path, "--out", str(tmp_path / "no" / "x.json")]) == 5
    assert cli.main(["solve", "--dist", str(tmp_path)]) == 3  # a directory is no input file
    for policy in ("sqrt", "classical"):
        capsys.readouterr()
        assert cli.main(["adversary", "--policy", policy, "--n", "-5", "--trials", "10"]) == 4
        assert capsys.readouterr().err == "randhorizon: invalid parameter: n must be >= 1, got -5\n"
    # an option pair given neither way or both ways is a usage error
    strat_path = _write_dist(tmp_path, "s.json", {"kind": "threshold", "l": 2})
    for argv in (
        ["minimax"],
        ["minimax", "--nbar", "3", "--mubar", "5"],
        ["eval", "--dist", dist_path],
        ["eval", "--dist", dist_path, "--strategy", strat_path, "--threshold", "2"],
        ["simulate", "--dist", dist_path, "--trials", "10"],
        ["simulate", "--dist", dist_path, "--strategy", strat_path, "--threshold", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    for value in (0, -1):
        table_path = _write_dist(tmp_path, "t.json", {"1": value, "2": 1.0})
        capsys.readouterr()
        argv = ["meta", "--profile", f"table:{table_path}", "--nlo", "1", "--nhi", "2"]
        assert cli.main(argv) == 4
        assert "f must be positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _buffered_stdout_into(stdout, argv):
    """(exit code, stderr) of the CLI in a child writing stdout into ``stdout``.

    PYTHONUNBUFFERED is removed: with it, stdout is written at once and the
    failed flush at interpreter exit does not show.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    main = "import sys; from randhorizon import cli; sys.exit(cli.main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", main, *argv], stdout=stdout,
                         stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return run.returncode, run.stderr


def test_cli_a_failed_stdout_write_exits_5_with_one_line(tmp_path):
    dist_path = _write_dist(tmp_path, "u.json", {"kind": "uniform", "n": 50})
    small, large = ["solve", "--dist", dist_path], ["minimax", "--nbar", "2000"]  # 40 kB of weights
    runs = []
    for argv in (small, large):
        read, write = os.pipe()
        os.close(read)
        try:
            runs.append(_buffered_stdout_into(write, argv))
        finally:
            os.close(write)
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                runs.append(_buffered_stdout_into(full, argv))
    for code, err in runs:
        assert code == 5, err
        assert len(err.splitlines()) == 1 and err.startswith("randhorizon: cannot write output:"), err


def test_cli_learn_writes_no_summary_when_out_fails(tmp_path, capsys):
    dist_path = _write_dist(tmp_path, "p.json", {"kind": "pstar", "n": 20})
    (tmp_path / "file").write_text("")
    summary = tmp_path / "summary.csv"
    argv = ["learn", "--dist", dist_path, "--epsilon", "0.3", "--trials", "2",
            "--out", str(tmp_path / "file" / "rows.csv"), "--summary", str(summary)]
    assert cli.main(argv) == 5
    assert not summary.exists()
    assert capsys.readouterr().err.startswith("randhorizon: cannot write output:")


def test_cli_solve_matches_the_library(tmp_path, capsys):
    rng = np.random.default_rng(52)
    for n in (1, 2, 50, 5000):
        for name, obj in (
            ("delta", {"kind": "delta", "n": n}),
            ("uniform", {"kind": "uniform", "n": n}),
            ("pstar", {"kind": "pstar", "n": n}),
            ("dirichlet", {"probs": sample_dirichlet_uniform(n, rng).probs.tolist()}),
        ):
            assert cli.main(["solve", "--dist", _write_dist(tmp_path, f"{name}{n}.json", obj)]) == 0
            p = formats.distribution_from_json(obj)
            gains = np.arange(1, n + 1) * lambda_sequence(p)
            q, c = backward_induction(gains)
            k = int(np.argmax(gains))
            cutoff = classical_cutoff(k + 1)
            want = {
                "q_opt": list(map(float, q)),
                "value": float(c[0]),
                "theta": float(gains[k]),
                "k_star": k + 1,
                # the cutoff rule's value in the closed form of every threshold rule
                "threshold_value": float(strategy.threshold_success_values(p, cutoff)[cutoff - 1]),
            }
            # the contract written out, not formats.json_text: that is the code under test
            text = json.dumps(want, sort_keys=True, separators=(", ", ": ")) + "\n"
            assert capsys.readouterr().out == text, (name, n)


def test_cli_minimax_encodes_its_weights_a_chunk_at_a_time():
    # 10^5 weights: 0.8 MB of float64 and 2.2 MB of text; 10^5 Python floats and
    # their repr strings alive at once would take the traced peak to 9.4 MB
    argv = ["minimax", "--nbar", "100000"]
    outs = [io.StringIO(), io.StringIO()]
    with contextlib.redirect_stdout(outs[0]):
        assert cli.main(argv) == 0  # warm: the parser and lazy imports are built once
    with contextlib.redirect_stdout(outs[1]):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert outs[0].getvalue() == outs[1].getvalue()
    assert peak < 7 * 2**20, peak


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
        # the file's shape is checked before the family refuses its size
        "param_string_huge_n": {"kind": "geometric", "n": 10**11, "param": "0.5"},
        "l_bool": {"kind": "threshold", "l": True},
        "top_list": [1, 2],
        "top_string": "x",
        "kind_number": {"kind": 5, "n": 3},
        "kind_list": {"kind": ["threshold"], "l": 2},
    }
    paths = {key: _write_dist(tmp_path, f"{key}.json", obj) for key, obj in files.items()}
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "delta", "n": 3, "note": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 50_000 + "]" * 50_000)
    # beyond Python's 4300-digit limit, json.loads raises a plain ValueError
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"kind": "delta", "n": ' + "9" * 5000 + "}")
    meta_argv = ["meta", "--nlo", "1", "--nhi", "2", "--profile"]
    top_level = ("top_list", "top_string")  # not a JSON object, in every kind of input file
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
        ["solve", "--dist", paths["param_string_huge_n"]],
        ["eval", "--dist", dist_path, "--strategy", paths["l_bool"]],
        ["solve", "--dist", str(latin1)],
        *(["solve", "--dist", paths[key]] for key in top_level),
        *(["eval", "--dist", dist_path, "--strategy", paths[key]] for key in top_level),
        *([*meta_argv, "table:" + paths[key]] for key in top_level),
        ["solve", "--dist", paths["kind_number"]],
        ["eval", "--dist", dist_path, "--strategy", paths["kind_list"]],
        ["solve", "--dist", str(deep)],
        ["eval", "--dist", dist_path, "--strategy", str(deep)],
        [*meta_argv, f"table:{deep}"],
        ["solve", "--dist", str(long_int)],
    ):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert err.startswith("randhorizon: bad input file:") and err.count("\n") == 1, err
    # an integer too large for a float is a number out of range, not a malformed file
    huge_probs = _write_dist(tmp_path, "huge_probs.json", {"probs": [10**400, 1]})
    huge_table = _write_dist(tmp_path, "huge_table.json", {"1": 1.0, "2": 10**400})
    huge_param = _write_dist(tmp_path, "huge_param.json", {"kind": "poisson", "n": 4, "param": 10**400})
    huge_q = _write_dist(tmp_path, "huge_q.json", {"q": [0, 10**400]})
    for argv, named in (
        (["solve", "--dist", huge_probs], "'probs' holds"),
        (["eval", "--dist", dist_path, "--strategy", huge_q], "q holds"),
        ([*meta_argv, "table:" + huge_table], "value at '2' overflows"),
        (["solve", "--dist", huge_param], "'param' overflows"),
    ):
        assert cli.main(argv) == 4, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err, argv


def test_cli_sizes_over_the_cap_and_overflowing_weights_are_range_errors(tmp_path, capsys):
    huge_n = _write_dist(tmp_path, "huge_n.json", {"kind": "delta", "n": 10**11})
    overflow = _write_dist(tmp_path, "overflow.json", {"probs": [1e308, 1e308]})
    dist_path = _write_dist(tmp_path, "d.json", {"kind": "delta", "n": 3})
    learn_argv = ["learn", "--dist", dist_path, "--epsilon", "1e-9", "--trials", "1"]
    for argv, words in (
        (["solve", "--dist", huge_n], "cap"),
        (learn_argv, "cap"),
        ([*learn_argv, "--tail-bound", "5"], "cap"),
        (["learn", "--dist", dist_path, "--epsilon", "0.5", "--trials", "0"], "trials"),
        (["learn", "--dist", dist_path, "--epsilon", "0.5", "--trials", "-3"], "trials"),
        (["solve", "--dist", overflow], "overflows"),
        # size formulas whose float result overflows (or whose epsilon**2 underflows to 0)
        ([*learn_argv[:4], "1e-200", "--tail-bound", "10"], "overflows"),
        ([*learn_argv[:4], "1e-160", "--tail-bound", "10"], "overflows"),
        ([*learn_argv[:4], "1e-310"], "overflows"),
        (["minimax", "--mubar", "1e308"], "overflows"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would fail here
            assert cli.main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("randhorizon: invalid parameter:") and err.count("\n") == 1, err
        assert words in err and "np.float64" not in err, err
    # the bound is computed in log space, so a tiny delta alone overflows nothing
    assert learn.sample_size_bound(0.1, 1e-320, 10) == 133898
    # sizes the library allocates from: each must be refused before any allocation
    huge = "100000000000"
    uniform_over_cap = _write_dist(tmp_path, "u.json", {"kind": "uniform", "n": 100000001})
    results = _main_under_memory_cap([
        ["learn", "--dist", dist_path, "--epsilon", "0.5", "--trials", "100000001"],
        ["solve", "--dist", uniform_over_cap],
        ["simulate", "--dist", dist_path, "--threshold", "2", "--trials", huge],
        ["adversary", "--n", "16", "--trials", huge],
        ["adversary", "--n", huge, "--trials", "10"],
        ["avgcase", "--n", "10", "--epsilon", "0.05", "--draws", huge],
        ["avgcase", "--n", "1000000000", "--epsilon", "0.05", "--draws", "2"],
        ["minimax", "--nbar", "10000000000"],
        ["minimax", "--mubar", "1e9"],
        ["meta", "--nlo", "1", "--nhi", "10000000000"],
        ["lowerbound", "--n", "10000000000", "--epsilon", "0.02"],
    ])
    for code, out, err in results:
        assert code == 4 and out == "", (code, err)
        assert err.startswith("randhorizon: invalid parameter:") and err.count("\n") == 1, err
        assert "cap" in err, err


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
