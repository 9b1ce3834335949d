"""Byte identity of the CLI's outputs against recorded hashes.

Runs the README's CLI examples at small sizes, plus ``eval`` on a Poisson law
at n = 300000, ``solve``, ``minimax`` and ``meta`` with output vectors of
10^4 to 3 * 10^5 entries (long enough to be written in chunks, with runs of
equal entries and without), ``meta`` as CSV and on a table profile, ``learn --tail-bound``,
``learn`` at eps 0.02, ``learn`` on a distribution with zero entries whose
trials differ in their largest sample, and the exit-3/4/5 paths, in-process.
Each case's exit code and the sha256 of its stdout and of every file it writes
(``--out``, ``--summary``) must equal ``tests/golden.json``.  A change meant
to move an output records new hashes with

    PYTHONPATH=src python tests/test_golden.py

The exit codes are checked under every numpy.  The hashes hold for the numpy
version stored with them; under another version only their comparison is
skipped.  A second test runs the cases again in a child
interpreter with numpy's widest dispatched SIMD targets off
(``NPY_DISABLE_CPU_FEATURES``), so no output may depend on the host's vector width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from randhorizon import cli

GOLDEN = Path(__file__).resolve().with_name("golden.json")


def _cases() -> list[tuple[str, list[str], list[Path]]]:
    """(name, argv, files the run writes) of every case; writes the inputs into the cwd."""

    def put(name: str, obj) -> str:
        Path(name).write_text(json.dumps(obj), encoding="utf-8")
        return name

    x = np.random.default_rng(2024).standard_exponential(30)
    p = put("p.json", {"probs": (x / x.sum()).tolist()})
    pstar3 = put("pstar3.json", {"kind": "pstar", "n": 3})
    poisson = put("poisson.json", {"kind": "poisson", "n": 300000, "param": 1000.0})
    delta3 = put("delta3.json", {"kind": "delta", "n": 3})
    any2 = put("any2.json", {"probs": [0.3, 0.7]})
    # every third entry and the last 20 are zero; the largest sample varies between trials
    w = 0.8 ** np.arange(40)
    w[2::3] = 0.0
    ragged = put("ragged.json", {"probs": (np.concatenate([w, np.zeros(20)]) / w.sum()).tolist()})
    # point masses at 300, 3000 and 30000 of 60000: q_opt has 6 runs
    w = np.zeros(60000)
    w[[299, 2999, 29999]] = 1.0 / 3.0
    masses = put("masses.json", {"probs": w.tolist()})
    q = put("q.json", {"q": [0.0, 0.5, 1.0, 0.25]})
    table = put("table.json", {"2": 1.0, "3": 1.5, "4": 2.5, "5": 2.6})
    out, summary = Path("out"), Path("summary.csv")
    learn = ["learn", "--dist", p, "--delta", "0.1", "--seed", "0"]
    meta = ["meta", "--profile", "exp-max", "--c0", "0.745", "--nlo", "10", "--nhi", "1000"]
    return [
        ("solve", ["solve", "--dist", pstar3], []),
        ("solve_out", ["solve", "--dist", p, "--out", str(out)], [out]),
        ("solve_uniform_large", ["solve", "--dist", put("uniform.json", {"kind": "uniform",
                                                                         "n": 300000})], []),
        ("solve_runs_large", ["solve", "--dist", masses], []),
        ("eval", ["eval", "--dist", p, "--strategy", q], []),
        ("eval_threshold", ["eval", "--dist", p, "--threshold", "4"], []),
        # the benchmark's Poisson op: 2374 of its 300000 weights are nonzero
        ("eval_poisson", ["eval", "--dist", poisson, "--threshold", "1000"], []),
        ("minimax", ["minimax", "--nbar", "2", "--dist", any2], []),
        ("minimax_mubar", ["minimax", "--mubar", "10", "--dist", p], []),
        ("minimax_large", ["minimax", "--nbar", "100000"], []),
        ("simulate", ["simulate", "--dist", delta3, "--threshold", "2", "--trials", "20000",
                      "--seed", "7"], []),
        ("simulate_strategy", ["simulate", "--dist", p, "--strategy", q, "--trials", "5000",
                               "--seed", "3", "--out", str(out)], [out]),
        ("learn", [*learn, "--epsilon", "0.1", "0.2", "--trials", "3", "--summary", str(summary)],
         [summary]),
        ("learn_tail_bound", [*learn, "--epsilon", "0.3", "--trials", "3", "--tail-bound", "40",
                              "--out", str(out), "--summary", str(summary)], [out, summary]),
        ("learn_ragged", [*learn[:2], ragged, *learn[3:], "--epsilon", "0.05", "0.3",
                          "--trials", "50", "--summary", str(summary)], [summary]),
        # eps 0.02: rho = 1.005 < 2^(1/64), so each small endpoint spans over 64 powers of rho
        ("learn_fine_blocks", [*learn, "--epsilon", "0.02", "0.05", "--trials", "2",
                               "--summary", str(summary)], [summary]),
        ("learn_fine_blocks_tail_bound", [*learn, "--epsilon", "0.02", "0.05", "--trials", "2",
                                          "--tail-bound", "40", "--summary", str(summary)],
         [summary]),
        *((f"adversary_{policy}", ["adversary", "--n", "16", "64", "--policy", policy,
                                   "--trials", "2000", "--seed", "0"], [])
          for policy in ("first", "classical", "sqrt")),
        ("avgcase", ["avgcase", "--n", "100", "--epsilon", "0.03", "--draws", "200",
                     "--seed", "0"], []),
        ("meta", meta, []),
        ("meta_csv", [*meta, "--format", "csv"], []),
        ("meta_large", ["meta", "--profile", "identity", "--nlo", "1", "--nhi", "10000",
                        "--format", "json"], []),
        ("meta_table", ["meta", "--profile", f"table:{table}", "--c0", "0.5", "--nlo", "2",
                        "--nhi", "5"], []),
        ("lowerbound", ["lowerbound", "--n", "200", "--epsilon", "0.02"], []),
        ("missing_file", ["solve", "--dist", "missing.json"], []),
        ("garbled_file", ["solve", "--dist", put("garbled.json", "{not json")], []),
        ("range_error", ["minimax", "--nbar", "0"], []),
        ("learn_range_error", [*learn, "--epsilon", "1.5", "--trials", "2"], []),
        ("unwritable", ["solve", "--dist", delta3, "--out", "no/x.json"], []),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hashes() -> dict[str, dict]:
    found = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative input paths: the meta JSON echoes its --profile path
        try:
            for name, argv, files in _cases():
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                found[name] = {
                    "exit": code,
                    "stdout": _sha(stdout.getvalue().encode()),
                    "files": [_sha(f.read_bytes()) for f in files],
                }
                for f in files:
                    f.unlink()
        finally:
            os.chdir(home)
    return found


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _recorded_cases() -> dict[str, dict]:
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"hashes recorded under numpy {golden['numpy']}, not {np.__version__}")
    return golden["cases"]


def test_outputs_match_the_recorded_hashes():
    golden, found = _golden(), _hashes()
    exits = lambda cases: {name: case["exit"] for name, case in cases.items()}  # noqa: E731
    assert exits(found) == exits(golden["cases"])
    if golden["numpy"] != np.__version__:
        pytest.skip(f"sha256 comparison: hashes recorded under numpy {golden['numpy']}, "
                    f"not {np.__version__}; the exit codes were checked")
    assert found == golden["cases"]


# numpy ignores a name it does not know, so the child checks that each one reads off
SIMD_OFF = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
_CHILD = (
    "import json, sys\n"
    "from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
    "on = [name for name in sys.argv[1].split() if cpu.get(name) is not False]\n"
    "assert not on, f'not off: {on}'\n"
    "import test_golden\n"
    "print(json.dumps(test_golden._hashes()))\n"
)


def test_outputs_match_the_recorded_hashes_with_wide_simd_off():
    cases = _recorded_cases()
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, str(GOLDEN.parent),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": SIMD_OFF, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", _CHILD, SIMD_OFF], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == cases


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "cases": _hashes()}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
