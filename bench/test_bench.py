"""The benchmark's own tests: op lists, oracles, and a tiny run of each
workload.  Run with ``python -m pytest bench``."""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    first = workloads.make_ops(workload, 7, "cache")
    assert first == workloads.make_ops(workload, 7, "cache")
    assert repr(first).encode() == repr(workloads.make_ops(workload, 7, "cache")).encode()
    assert first != workloads.make_ops(workload, 8, "cache")


def _brute_force(n_vertices: int):
    """Every dissection of a small polygon, from all non-crossing
    subsets of its diagonals."""
    diagonals = [(i, j) for i in range(n_vertices) for j in range(i + 2, n_vertices)
                 if (i, j) != (0, n_vertices - 1)]
    for k in range(len(diagonals) + 1):
        for chords in itertools.combinations(diagonals, k):
            try:
                oracles.parse(oracles.fmt(n_vertices, chords))
            except oracles.OracleError:
                continue
            yield chords


def test_composition_count_matches_brute_force():
    filters = [lambda t: True, lambda t: t % 2 == 1, lambda t: t % 3 == 0,
               lambda t: t in (3, 4), lambda t: t == 4]
    for n_vertices in range(3, 8):
        sizes = [[len(c) for c in oracles.cells_by_splitting(n_vertices, chords)]
                 for chords in _brute_force(n_vertices)]
        for allowed in filters:
            for m in range(1, n_vertices - 1):
                want = sum(1 for s in sizes if len(s) == m and all(map(allowed, s)))
                assert oracles.dissection_count(n_vertices, m, allowed) == want


def test_quiddity_count_matches_known_values():
    # distinct 3-periodic quiddities of the (n+2)-gon, diagonals m = n, n-3, n-6
    rows = {0: [1, 1, 2, 5, 14, 42, 132, 429], 3: [1, 7, 34, 147, 605], 6: [1, 15, 121]}
    for offset, values in rows.items():
        first = 0 if offset == 0 else offset + 1
        for k, value in enumerate(values):
            assert oracles.quiddity_count_3p(first + k, first + k - offset) == value


def test_p_series_solves_its_equation():
    p = oracles.p_series(9)
    assert p[(0, 0)] == 1 and p[(1, 1)] == 1 and p[(2, 2)] == 2


@pytest.mark.parametrize("argv, out, ok", [
    (("count", "--n", "8", "--m", "3", "--ell", "3"), "36\n", True),
    (("count", "--n", "8", "--m", "3", "--ell", "3"), "35\n", False),
    (("of", "8:1-3,5-7"), "1,2,1,2,1,2,1,2\n", True),
    (("of", "8:1-3,5-7"), "1,2,1,2,1,2,2,1\n", False),
    (("surgery", "canon", "8:1-7,3-5"), "8:1-3,5-7\n", True),
    (("surgery", "canon", "8:1-7,3-5"), "8:1-7,3-5\n", False),
    (("cf", "convert", "1,2,1,1"), "2,2,3\n", True),
    (("cf", "convert", "1,2,1,1"), "2,3,2\n", False),
    (("modular", "classify", "3,1,2,2,1"),
     '{"classification":"minus_identity","matrix":[[-1,0],[0,-1]]}\n', True),
    (("enumerate", "--n", "5", "--m", "2"), "5:0-2\n5:1-3\n5:1-4\n5:2-4\n", False),
])
def test_oracles_accept_right_and_reject_wrong_output(argv, out, ok):
    assert (oracles.check(argv, 0, 0, out, "") is None) == ok


def test_refusals_need_the_right_exit_code_and_an_error_line():
    assert oracles.check(("count", "--n", "2"), 1, 1, "", "error: too small\n") is None
    assert oracles.check(("count", "--n", "2"), 1, 2, "", "error: too small\n") is not None
    assert oracles.check(("count", "--n", "2"), 1, 1, "", "Traceback\n") is not None
    assert oracles.check(("count", "--n", "2"), 1, None, "", "ValueError: x\n") is not None


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


TINY = {
    "FAMILY_MIX": {"enumerate": [(10, 150, 2)], "quiddities": [(10, 150, 1)],
                   "classes": [(10, 150, 1)]},
    "SURGERY_MIX": [("canon", (12, 18), 2), ("moves", (12, 18), 1),
                    ("apply", (12, 18), 1), ("class", (12, 15), 1)],
    "COUNT_TOP": {(): 10, ("--ell", "2"): 10, ("--ell", "3"): 11, ("--sizes", "3,4"): 11},
    "QUERY_MIX": {"count": 6, "quiddities": 2, "formula": 3, "table": 2, "of": 2,
                  "modular": 2, "malformed": 3},
    "CF_MIX": {"regular": 1, "hj": 1, "convert": 1, "strip": 1},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [0, 1])
def test_tiny_run_prints_every_metric(workload, traced, monkeypatch, capsys):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(traced)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0.000000 ratio (0 of ") for line in lines)
    names = tracing.metric_names() if traced else run.END_TO_END
    assert list(result["metrics"]) == [n[0] for n in names]
    for name, unit, *_ in names:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split() == [name, line.split()[1], unit] for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_calibration_scales_to_the_nominal_speed():
    nominal = run.REF_NOMINAL_S
    # a machine at half speed: the kernel and the op both take twice as long
    assert run.calibrated([0.2, 0.4], [2 * nominal, 2 * nominal]) == pytest.approx([0.1, 0.2])
    # one outlying kernel timing does not move its neighbours' scale
    refs = [nominal] * 4 + [9 * nominal] + [nominal] * 4
    assert run.calibrated([1.0] * 9, refs, window=2) == pytest.approx([1.0] * 9)
