"""Command-line behavior: outputs, exit codes, and the result cache:
its transparency, and a table published whole, by rename, to readers
and writers that run at once."""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiddity import cache, cli, core, enumeration, formulas, modular, series, surgery, verification
from quiddity.cache import source_key
from quiddity.cli import SERIES_ORDER_CAP, _dumps, _parse_plain, build_parser, main
from quiddity.enumeration import CellFilter, enumerate_dissections
from quiddity.formulas import ell_periodic_count, kirkman_cayley, tri_quad_count


def run(argv, monkeypatch=None, cache_dir=None):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUIDDITY_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_quiddity_of(cache_env):
    code, out = run(["of", "8:1-3,5-7"])
    assert code == 0
    assert out == "1,2,1,2,1,2,1,2\n"


def test_quiddity_of_json(cache_env):
    code, out = run(["of", "6:", "--json"])
    assert code == 0
    assert json.loads(out) == {"quiddity": [1, 1, 1, 1, 1, 1]}


def test_formula_catalan(cache_env):
    code, out = run(["formula", "catalan", "0"])
    assert (code, out) == (0, "1\n")


def test_formula_wrong_arity(cache_env):
    code, out = run(["formula", "catalan", "1", "2"])
    assert code == 1


def test_formula_names_closed_forms_of_their_arity(monkeypatch):
    for function, arity in cli._FORMULAS.values():
        assert len(inspect.signature(getattr(formulas, function)).parameters) == arity
    # each call looks its closed form up, so a patched one is what runs
    monkeypatch.setattr(formulas, "fuss", lambda n, m: 7)
    assert run(["formula", "fuss", "12", "4"]) == (0, "7\n")


def test_count_quiddities_and_classes(cache_env):
    code, out = run(["count", "--n", "8", "--m", "3", "--ell", "3"])
    assert (code, out) == (0, "36\n")
    code, out = run(["quiddities", "--n", "8", "--m", "3", "--ell", "3"])
    assert (code, out) == (0, "34\n")
    code, out = run(["classes", "--n", "8", "--m", "3", "--ell", "3"])
    table = json.loads(out)
    assert len(table) == 34
    assert sum(len(v) for v in table.values()) == 36
    assert table["1,2,1,2,1,2,1,2"] == ["8:1-3,5-7", "8:1-7,3-5"]


def test_enumerate_streams_lines(cache_env):
    code, out = run(["enumerate", "--n", "4"])
    assert code == 0
    assert sorted(out.splitlines()) == ["4:", "4:0-2", "4:1-3"]


def test_enumerate_max_results(cache_env):
    code, out = run(["enumerate", "--n", "6", "--max-results", "3"])
    assert len(out.splitlines()) == 3


def test_enumerate_with_no_results_asks_for_no_dissection(cache_env, monkeypatch, capsys):
    asked = []
    real = cli._texts

    def counting(*args):
        for text in real(*args):
            asked.append(text)
            yield text

    monkeypatch.setattr(cli, "_texts", counting)
    # a first line would build the 200-gon's N^2 chord-name table
    assert run(["enumerate", "--n", "200", "--max-results", "0"]) == (0, "")
    assert asked == []
    assert run(["enumerate", "--n", "8", "--max-results", "3"])[0] == 0
    assert len(asked) == 3
    # the verb writes in chunks, yet asks for no line past the limit
    for limit in (cli._CHUNK_LINES, cli._CHUNK_LINES + 1):
        asked.clear()
        assert run(["enumerate", "--n", "12", "--m", "10", "--max-results", str(limit)])[0] == 0
        assert len(asked) == limit
    # a bad polygon is still refused when no dissection is asked for
    monkeypatch.undo()
    assert run(["enumerate", "--n", "2", "--max-results", "0"]) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [(), ("--ell", "3"), ("--sizes", "3,4")], ids=str)
def test_enumerate_json_streams_the_bytes_of_one_dump(cache_env, flags):
    filt = {(): CellFilter.all_cells(), ("--ell", "3"): CellFilter.ell_periodic(3),
            ("--sizes", "3,4"): CellFilter.size_set({3, 4})}[flags]
    for n in range(3, 10):
        for m in (None, *range(1, n - 1)):
            by_m = () if m is None else ("--m", str(m))
            code, out = run(["enumerate", "--n", str(n), *by_m, *flags, "--json"])
            want = _dumps([str(d) for d in enumerate_dissections(n, m, filt)]) + "\n"
            assert (code, out) == (0, want), (n, m)
            limited = run(["enumerate", "--n", str(n), *by_m, *flags, "--json",
                           "--max-results", "2"])
            assert limited == (0, _dumps(json.loads(want)[:2]) + "\n"), (n, m)


@pytest.mark.parametrize("limit", [cli._CHUNK_LINES - 1, cli._CHUNK_LINES,
                                   cli._CHUNK_LINES + 1, None])
def test_enumerate_across_a_chunk_boundary(cache_env, limit):
    # 16,796 triangulations of the 12-gon: four whole chunks and a part
    want = [str(d) for d in itertools.islice(enumerate_dissections(12, 10), limit)]
    argv = ["enumerate", "--n", "12", "--m", "10"]
    if limit is not None:
        argv += ["--max-results", str(limit)]
    assert run(argv) == (0, "".join(text + "\n" for text in want))
    assert run(argv + ["--json"]) == (0, _dumps(want) + "\n")


def test_table_csv(cache_env):
    code, out = run(["table", "--max-n", "4"])
    lines = out.splitlines()
    assert lines[0] == "n,m,value"
    assert "4,1,1" in lines and "4,4,14" in lines and "0,0,1" in lines


def test_series_output(cache_env):
    code, out = run(["series", "catalan", "--order", "3"])
    assert json.loads(out) == [
        {"n": 0, "m": 0, "coeff": "1"},
        {"n": 1, "m": 0, "coeff": "1"},
        {"n": 2, "m": 0, "coeff": "2"},
        {"n": 3, "m": 0, "coeff": "5"},
    ]


@pytest.mark.parametrize("order", [0, 1, 2, 12])
@pytest.mark.parametrize("equation, ell", [
    ("catalan", None), ("kirkman-cayley", None), ("tri-quad", None), ("p", None), ("q", None),
    ("ell-periodic", 1), ("ell-periodic", 2), ("ell-periodic", 3), ("ell-periodic", 40)])
def test_series_writes_the_bytes_of_the_json_module(cache_env, equation, ell, order):
    # the verb writes its terms as JSON text by hand
    argv = ["series", equation, "--order", str(order), *(["--ell", str(ell)] if ell else [])]
    want = _dumps(series.series_terms_json(series.solve_named(equation, order, ell))) + "\n"
    assert run(argv) == (0, want)


def test_series_ell_requires_period(cache_env):
    code, _ = run(["series", "ell-periodic", "--order", "4"])
    assert code == 1


@pytest.mark.parametrize("equation", ["catalan", "kirkman-cayley", "tri-quad", "p", "q"])
def test_series_refuses_a_period_its_equation_does_not_take(cache_env, capsys, equation):
    # only ell-periodic reads --ell; any other equation given it once
    # printed its own coefficients as though no period were asked for
    code, out = run(["series", equation, "--order", "3", "--ell", "3"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: equation {equation!r} takes no period, got ell=3\n"


def test_surgery_verbs(cache_env):
    code, out = run(["surgery", "moves", "8:1-3,5-7", "--require-3p"])
    assert json.loads(out.splitlines()[0]) == {
        "cell": 0, "remove": ["1-3", "5-7"], "add": ["1-7", "3-5"],
    }
    code, out = run(["surgery", "apply", "8:1-3,5-7", "--remove", "1-3,5-7"])
    assert out == "8:1-7,3-5\n"
    assert run(["surgery", "apply", "8:1-3,5-7", "--remove", "3-1,7-5"]) == (0, out)
    code, out = run(["surgery", "canon", "8:1-7,3-5"])
    assert out == "8:1-3,5-7\n"
    code, out = run(["surgery", "class", "8:1-3,5-7", "--require-3p"])
    assert json.loads(out)["members"] == ["8:1-3,5-7", "8:1-7,3-5"]


@pytest.mark.parametrize("token", ["1-x,5-7", "1-3-5,5-7", "-,5-7", "13,5-7", ",5-7"])
def test_surgery_apply_rejects_malformed_chords(cache_env, capsys, token):
    # "--remove=" keeps argparse from reading "-,5-7" as a flag; the
    # message is the dissection parser's
    code, out = run(["surgery", "apply", "8:1-3,5-7", f"--remove={token}"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == f"error: bad chord token {token.split(',')[0]!r}\n"


def test_cf_verbs(cache_env):
    code, out = run(["cf", "eval", "--regular", "1,2,1,1"])
    assert out == "7/5\n"
    code, out = run(["cf", "eval", "--hj", "2,2,3"])
    assert out == "7/5\n"
    code, out = run(["cf", "convert", "1,2,1,1"])
    assert out == "2,2,3\n"
    code, out = run(["cf", "strip", "1,1"])
    assert json.loads(out)["dissection"] == "4:1-3"


def test_modular_verbs(cache_env):
    code, out = run(["modular", "product", "3,1,2,2,1"])
    assert json.loads(out)["matrix"] == [[-1, 0], [0, -1]]
    code, out = run(["modular", "classify", "1,2,1,2,1,2,1,2"])
    assert json.loads(out)["classification"] == "plus_identity"
    code, out = run(["modular", "verify", "--n", "5", "--entry-bound", "3"])
    report = json.loads(out)
    assert report["forward_failures"] == []
    assert report["converse_extra"] == []


def test_exit_codes(cache_env):
    assert run(["count", "--n", "2", "--m", "1"])[0] == 1     # domain error
    assert main(["no-such-verb"]) == 2                        # usage error
    assert run(["of", "6:0-2,1-3"])[0] == 1                   # crossing chords


def test_output_is_deterministic(cache_env):
    a = run(["classes", "--n", "8", "--m", "3", "--ell", "3"])
    b = run(["classes", "--n", "8", "--m", "3", "--ell", "3"])
    assert a == b


def test_cache_transparency(cache_env, monkeypatch):
    # only table caches; a warm run prints the cold bytes without
    # computing a single entry
    fresh = run(["table", "--max-n", "9", "--no-cache"])
    cold = run(["table", "--max-n", "9"])
    with monkeypatch.context() as warm:
        warm.setattr(formulas, "quiddity_table", None)  # calling it fails
        assert run(["table", "--max-n", "9"]) == fresh == cold
    side_file = cache_env / f"table-9-{source_key()}.csv"
    assert sorted(cache_env.iterdir()) == [side_file]
    assert side_file.read_text() + "\n" == fresh[1]


def test_cache_dir_flag_beats_env(cache_env, tmp_path):
    explicit = tmp_path / "elsewhere"
    code, out = run(["table", "--max-n", "6", "--cache-dir", str(explicit)])
    assert (code, out) == run(["table", "--max-n", "6", "--no-cache"])
    assert (explicit / f"table-6-{source_key()}.csv").exists()
    assert not cache_env.exists()


@pytest.mark.parametrize("argv", [
    ["count", "--n", "7", "--m", "3"],
    ["count", "--n", "8", "--m", "3", "--ell", "3", "--json"],
    ["formula", "catalan", "9"],
    ["formula", "quiddity-3p", "40", "28", "--json"],
    ["quiddities", "--n", "8", "--m", "3", "--ell", "3"],
])
def test_count_formula_and_quiddities_touch_no_cache(tmp_path, monkeypatch, argv):
    # the cache flags are accepted and ignored: the answer is computed,
    # and nothing is read or written under the directory either names
    fresh = run([*argv, "--no-cache"])
    unused = tmp_path / "cache"
    assert run([*argv, "--cache-dir", str(unused)]) == fresh
    monkeypatch.setenv("QUIDDITY_CACHE_DIR", str(unused))
    assert run(argv) == fresh
    assert fresh[0] == 0 and not unused.exists()


def test_table_with_an_unusable_cache_directory_is_refused(cache_env, tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    for directory in (regular / "sub", regular):
        assert run(["table", "--max-n", "8", "--cache-dir", str(directory)]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cache directory {directory} is unusable: ")
        assert err.count("\n") == 1


def test_table_with_an_unusable_cache_directory_computes_nothing(tmp_path, monkeypatch, capsys):
    # the directory is made before the table is computed, so the refusal
    # costs no count
    calls = []
    table = formulas.quiddity_table
    monkeypatch.setattr(formulas, "quiddity_table",
                        lambda max_n: calls.append(max_n) or table(max_n))
    regular = tmp_path / "regular"
    regular.write_text("")
    assert run(["table", "--max-n", "1200", "--cache-dir", str(regular / "sub")]) == (1, "")
    assert "is unusable" in capsys.readouterr().err
    assert calls == []
    assert run(["table", "--max-n", "8", "--no-cache"])[0] == 0
    assert calls


def test_table_cache_transparency(cache_env):
    fresh = run(["table", "--max-n", "8", "--no-cache"])
    warm1 = run(["table", "--max-n", "8"])
    warm2 = run(["table", "--max-n", "8"])
    assert fresh == warm1 == warm2
    assert (cache_env / f"table-8-{source_key()}.csv").exists()


def test_table_side_file_of_other_source_is_not_served(cache_env, monkeypatch):
    # code A caches the table, code B (another source hash, other values)
    # caches the same --max-n, and A must still read its own bytes
    fresh = run(["table", "--max-n", "8", "--no-cache"])
    assert run(["table", "--max-n", "8"]) == fresh
    with monkeypatch.context() as other:
        other.setattr(cache, "source_key", lambda: "0" * 16)
        other.setattr(formulas, "quiddity_table", lambda max_n: {(1, 1): 999})
        assert "999" in run(["table", "--max-n", "8"])[1]
    assert run(["table", "--max-n", "8"]) == fresh


def test_a_table_read_while_it_is_rewritten_is_whole(tmp_path, monkeypatch):
    # writer B looks before writer A publishes table --max-n 8, so B
    # writes the same table again; reader C, run after B's file is
    # opened and before anything is written to it, must read A's whole
    # table, not the empty file B opened
    directory = tmp_path / "cache"
    argv = ["table", "--max-n", "8", "--cache-dir", str(directory)]
    fresh = run(["table", "--max-n", "8", "--no-cache"])
    real_open = Path.open
    armed, read = [], []

    def open_then_read(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if armed and "w" in mode and not read:
            read.append(run(argv))  # reader C
        return handle

    def compute():
        assert run(argv) == fresh  # writer A
        armed.append(True)
        return fresh[1].removesuffix("\n")

    monkeypatch.setattr(Path, "open", open_then_read)
    writer_b = cache.ResultCache(directory)
    assert writer_b.get_payload("table", "table", "table-8.csv", compute) + "\n" == fresh[1]
    assert read == [fresh]


@pytest.mark.parametrize("argv", [["count", "--n", "8", "--m", "3"],
                                  ["table", "--max-n", "6"]])
def test_cli_needs_no_fcntl_and_loads_no_csv(tmp_path, argv):
    # the cache takes no lock, so the CLI runs where fcntl cannot be
    # imported; with or without it, importing the CLI loads neither
    # fcntl nor csv
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "QUIDDITY_CACHE_DIR": str(tmp_path)}
    script = ("import sys\n"
              "if sys.argv.pop(1) == 'without': sys.modules['fcntl'] = None\n"
              "import quiddity.cli\n"
              "loaded = {'csv', 'fcntl'} & {k for k, v in sys.modules.items() if v is not None}\n"
              "assert not loaded, loaded\n"
              "sys.exit(quiddity.cli.main(sys.argv[1:]))\n")
    want = run([*argv, "--no-cache"])
    for fcntl in ("without", "with"):
        done = subprocess.run([sys.executable, "-c", script, fcntl, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (*want, "")


def test_count_and_of_load_no_dataclasses_and_no_rare_path_modules(tmp_path):
    # the value classes make no code at import, so nothing loads
    # dataclasses or inspect; no module imports typing for its
    # annotations; and the cache and verify-all's fork path import
    # hashlib, pathlib, traceback and signal where they use them.
    # Without site, which may load some of them, the interpreter's own
    # start-up loads none; the table still caches in the same process
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = ("import sys\n"
              "from quiddity.cli import main\n"
              "main(['count', '--n', '10', '--m', '3'])\n"
              "main(['of', '8:1-3,5-7'])\n"
              "rare = {'dataclasses', 'inspect', 'typing', 'hashlib', 'pathlib', 'traceback',"
              " 'signal'}\n"
              "loaded = rare & {k for k, v in sys.modules.items() if v is not None}\n"
              "assert not loaded, sorted(loaded)\n"
              "sys.exit(main(['table', '--max-n', '8', '--cache-dir', sys.argv[1]]))\n")
    directory = tmp_path / "cache"
    done = subprocess.run([sys.executable, "-S", "-c", script, str(directory)], env=env,
                          capture_output=True, text=True, timeout=120)
    want = "".join(run(argv)[1] for argv in (["count", "--n", "10", "--m", "3"],
                                             ["of", "8:1-3,5-7"],
                                             ["table", "--max-n", "8", "--no-cache"]))
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
    assert [p.name for p in directory.iterdir()] == [f"table-8-{source_key()}.csv"]


def test_cold_writers_of_one_table_print_it_and_leave_one_file(tmp_path):
    directory = tmp_path / "cache"
    argv = ["table", "--max-n", "300", "--cache-dir", str(directory)]
    fresh = run(["table", "--max-n", "300", "--no-cache"])
    start = threading.Barrier(2)
    outcomes = []

    def writer():
        start.wait()
        outcomes.append(run(argv))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes == [fresh, fresh]
    assert [path.name for path in directory.iterdir()] == [f"table-300-{source_key()}.csv"]


def test_verify_all_fast_scope_passes(cache_env):
    import time
    start = time.perf_counter()
    code, out = run(["verify-all", "--scope", "fast"])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("PASS") for line in lines)
    assert elapsed < 60


def test_shared_parser_matches_fresh_interpreters(capsys):
    # One process reuses its parsers; usage errors, a domain error and
    # two valid calls must print what a fresh interpreter prints.  Each
    # usage error meets another kind of partial parser: one verb, the
    # verb names alone, a verb's actions with no arguments, and one
    # action's arguments.
    calls = [
        ["count", "--n", "6"],
        ["of", "6:0-2,1-3"],
        ["surgery", "canon", "14:0-7,2-4,4-6,7-13,9-11"],
        ["count", "--n", "9", "--m", "3", "--ell", "3", "--no-cache"],
        ["frobnicate", "--n", "12"],
        ["surgery", "nope", "8:"],
        ["series", "hexagonal", "--order", "9"],
        ["cf", "eval", "--regular", "1", "--hj", "2"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = "import sys; from quiddity.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, want_code in zip(calls, (2, 1, 0, 0, 2, 2, 2, 2), strict=True):
        code, out = run(argv)
        err = capsys.readouterr().err
        fresh = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == want_code


def test_count_refuses_oversized_composition_tables(cache_env, capsys):
    for n, m, why in [
        ("3000", "500", "steps, over the cap of 2500000"),   # 3.1 million recurrence terms
        ("20000", "10000", "over the cap of 4300 digits"),  # about 10^8286 dissections
        ("7000", "6800", "has over 4300 digits, too many to print"),  # 4,537 digits
    ]:
        code, out = run(["count", "--n", n, "--m", m, "--no-cache"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err, err


def test_count_answers_what_the_row_table_refused(cache_env):
    code, out = run(["count", "--n", "2000", "--m", "1000", "--no-cache"])
    assert (code, out) == (0, f"{kirkman_cayley(1998, 1000)}\n")


@pytest.mark.parametrize("flags, closed_form", [
    ((), kirkman_cayley),
    (("--ell", "2"), lambda n, m: ell_periodic_count(n, m, 2)),
    (("--ell", "3"), lambda n, m: ell_periodic_count(n, m, 3)),
    (("--sizes", "3,4"), tri_quad_count),
])
def test_count_answers_the_largest_benchmark_queries(cache_env, flags, closed_form):
    # the benchmark's count queries go up to N = 40
    for m in (2, 13, 20, 26, 38):
        code, out = run(["count", "--n", "40", "--m", str(m), *flags, "--no-cache"])
        assert (code, out) == (0, f"{closed_form(38, m)}\n")


def test_cache_ignores_rows_written_by_other_source(cache_env):
    # a table is served only under the hash of the source that wrote it,
    # and then as it stands
    fresh = run(["table", "--max-n", "7", "--no-cache"])
    cache_env.mkdir(parents=True)
    (cache_env / f"table-7-{'0' * 16}.csv").write_text("999")
    assert run(["table", "--max-n", "7"]) == fresh
    (cache_env / f"table-7-{source_key()}.csv").write_text("999")
    assert run(["table", "--max-n", "7"]) == (0, "999\n")


def test_count_with_no_composition_prints_zero(capsys):
    # 10,000 quadrilaterals need a 20,002-gon; the digit estimate once
    # refused this count as about 10^8286 dissections
    assert run(["count", "--n", "20001", "--m", "10000", "--sizes", "4", "--no-cache"]) == (0, "0\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags", [
    ("--m", "3"), ("--m", "4", "--ell", "2"), ("--m", "3", "--sizes", "3,4,99999999"),
])
def test_count_of_a_huge_polygon_is_refused_before_any_work(capsys, flags):
    # listing every allowed cell size took 0.4 s and 128 MB at 10^6
    # vertices, and would take gigabytes at 10^8
    start = time.perf_counter()
    assert run(["count", "--n", "100000000", *flags, "--no-cache"]) == (1, "")
    assert "steps, over the cap of 2500000" in capsys.readouterr().err
    assert time.perf_counter() - start < 0.1


def test_count_ruled_out_by_the_common_divisor_prints_zero(capsys):
    # three odd parts cannot sum to the even 99,999,998: 0 before the
    # step estimate, which once refused the count
    start = time.perf_counter()
    argv = ["count", "--n", "100000000", "--m", "3", "--ell", "2", "--no-cache"]
    assert run(argv) == (0, "0\n")
    assert capsys.readouterr().err == ""
    assert time.perf_counter() - start < 0.1


def test_count_with_one_large_period_is_answered_at_once():
    # the cells of a 10^8-gon: two triangles and one (10^8 - 2)-gon; the
    # recurrence steps only over multiples of the period
    start = time.perf_counter()
    ell = 10**8 - 5
    code, out = run(["count", "--n", "100000000", "--m", "3", "--ell", str(ell), "--no-cache"])
    assert (code, out) == (0, f"{ell_periodic_count(10**8 - 2, 3, ell)}\n")
    assert time.perf_counter() - start < 0.1


# Each argv with the function that does its work, which the refusal
# must come before.  A family over the enumeration cap is refused before
# its count is built.
_REFUSED_UP_FRONT = [
    (["formula", "catalan", "200000"], (formulas, "catalan")),
    (["formula", "kirkman-cayley", "200000", "100000"], (formulas, "kirkman_cayley")),
    (["series", "kirkman-cayley", "--order", "200"], (series, "solve_named")),
    (["table", "--max-n", "100000"], (formulas, "quiddity_table")),
    (["modular", "verify", "--n", "9"], (modular, "three_periodic_quiddities")),
    (["modular", "verify", "--n", "30", "--entry-bound", "1"],
     (modular, "three_periodic_quiddities")),
    (["quiddities", "--n", "14", "--m", "6", "--no-cache"], (enumeration, "_walk")),
    (["classes", "--n", "14", "--m", "6"], (enumeration, "_walk")),
    (["classes", "--n", "12", "--m", "7", "--max-results", "10000000"], (enumeration, "_walk")),
    (["modular", "verify", "--n", "13", "--entry-bound", "2"],
     (modular, "three_periodic_quiddities")),
    (["cf", "convert", "1,1000000000"], (cli, "regular_to_hj")),
    (["cf", "strip", "1000000000,1"], (cli, "strip_triangulation")),
    (["enumerate", "--n", "201", "--max-results", "1"], (enumeration, "_reach_masks")),
    (["enumerate", "--n", "100000", "--m", "2", "--max-results", "1"],
     (enumeration, "_reach_masks")),
    (["quiddities", "--n", "1000000", "--m", "1200", "--sizes", "5000,6,12"],
     (formulas, "dissection_count")),
    (["classes", "--n", "1000000", "--m", "1200", "--sizes", "5000,6,12"],
     (formulas, "dissection_count")),
]


@pytest.mark.parametrize("argv, unreached", _REFUSED_UP_FRONT,
                         ids=[f"argv{k}" for k in range(len(_REFUSED_UP_FRONT))])
def test_unreachable_work_is_refused_up_front(cache_env, capsys, monkeypatch, argv, unreached):
    def reached(*args, **kwargs):
        raise AssertionError(f"{argv} reached {unreached[1]} before its refusal")

    monkeypatch.setattr(*unreached, reached)
    start = time.perf_counter()
    code, out = run(argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error:")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["of", "100000000:"],
    ["surgery", "moves", "100000000:"],
])
def test_huge_polygon_text_is_refused_before_any_work(capsys, argv):
    # the cells and chord degrees of a 10^8-gon once took more memory
    # than the machine had
    start = time.perf_counter()
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == "error: vertex count 100000000 is over the cap of 1000000\n"
    assert time.perf_counter() - start < 1


def test_few_cell_family_of_a_large_polygon_is_quick(cache_env):
    # 14,421 dissections; a search that tries every base cell took 99 s
    # to print the same count
    start = time.perf_counter()
    code, out = run(["quiddities", "--n", "22", "--m", "3", "--no-cache"])
    assert (code, out) == (0, "10681\n")
    assert time.perf_counter() - start < 5


def test_series_at_its_order_cap_is_quick(cache_env):
    # about 0.1 s in-process; re-evaluating the equation at every order took 90 s
    start = time.perf_counter()
    code, out = run(["series", "kirkman-cayley", "--order", str(SERIES_ORDER_CAP)])
    assert code == 0
    assert {"n": SERIES_ORDER_CAP, "m": SERIES_ORDER_CAP,
            "coeff": str(formulas.catalan(SERIES_ORDER_CAP))} in json.loads(out)
    assert time.perf_counter() - start < 5


def test_unprintable_continued_fraction_is_refused_before_evaluating(capsys):
    # its numerator is the Fibonacci number F(120001); evaluating it
    # first took 4.1 s
    start = time.perf_counter()
    code, out = run(["cf", "eval", "--regular", ",".join(["1"] * 120_000)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error:")
    assert time.perf_counter() - start < 0.5


def test_classes_max_results_lowers_the_family_cap(capsys):
    code, out = run(["classes", "--n", "8", "--m", "3", "--ell", "3", "--max-results", "35"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: 36 dissections exceed the cap of 35\n"
    code, out = run(["classes", "--n", "8", "--m", "3", "--ell", "3", "--max-results", "36"])
    assert code == 0 and len(json.loads(out)) == 34


def test_classes_refuses_a_polygon_over_the_enumeration_cap_before_the_writer(
        monkeypatch, capsys):
    # no 4000-gon splits into two quadrilaterals, so the family count, 0,
    # is under the family cap, and the walk's polygon cap must refuse it
    # before the line writer builds its N^2 table of chord names
    def no_writer(n_vertices):
        raise AssertionError(f"a line writer was made for the {n_vertices}-gon")

    monkeypatch.setattr(enumeration, "_line_writer", no_writer)
    assert run(["classes", "--n", "4000", "--m", "2", "--sizes", "4"]) == (1, "")
    assert capsys.readouterr().err == \
        "error: a 4000-gon is over the enumeration cap of 200 vertices\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "8", "--max-results", "-1"],
    ["classes", "--n", "8", "--m", "3", "--max-results", "-5"],
])
def test_negative_max_results_is_refused(capsys, argv):
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error: --max-results must be at least 0, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ["count", "--n", "8", "--m", "3", "--sizes=", "--no-cache"],
    ["quiddities", "--n", "8", "--m", "3", "--sizes=", "--no-cache"],
    ["enumerate", "--n", "6", "--m", "2", "--sizes="],
    ["classes", "--n", "6", "--m", "2", "--sizes="],
    ["count", "--n", "8", "--m", "3", "--ell", "3", "--sizes=", "--no-cache"],
])
def test_empty_size_list_is_refused(capsys, argv):
    # an empty list names no size; it must not read as every size
    assert run(argv) == (1, "")
    assert capsys.readouterr().err.startswith("error:")


def test_negative_table_max_n_is_refused_before_the_cache(cache_env, capsys):
    assert run(["table", "--max-n", "-3"]) == (1, "")
    assert capsys.readouterr().err == "error: --max-n must be at least 0, got -3\n"
    assert not cache_env.exists()
    assert run(["table", "--max-n", "0", "--no-cache"]) == (0, "n,m,value\n0,0,1\n")


def test_largest_polygons_under_the_caps_are_answered(cache_env):
    # the first dissection of the largest polygon enumerate takes; and
    # the largest polygon the modular correspondence check takes
    code, out = run(["enumerate", "--n", "200", "--max-results", "1"])
    assert (code, out) == (0, "200:" + ",".join(f"{i}-199" for i in range(1, 198)) + "\n")
    code, out = run(["modular", "verify", "--n", "12", "--entry-bound", "2"])
    assert code == 0
    report = json.loads(out)
    assert (report["forward_checked"], report["forward_failures"]) == (27201, [])
    assert (report["converse_missing"], report["converse_extra"]) == ([], [])


def test_cli_module_runs_as_a_script():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "quiddity.cli", "count", "--n", "8", "--m", "3", "--no-cache"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "120\n")


def test_surgery_class_over_its_cap_is_refused(capsys, monkeypatch):
    # the default cap on work x N, lowered below the 324 moves tried
    # and 8 for each of the 56 members of this 30-gon's class
    text = "30:4-25,5-7,7-22,9-11,11-21,13-16,14-16,22-24,27-29"
    work = 30 * (324 + 8 * 56)
    monkeypatch.setattr(surgery, "SURGERY_CLASS_CAP", work - 1)
    assert run(["surgery", "class", text, "--require-3p"]) == (1, "")
    assert capsys.readouterr().err == (
        "error: surgery class exceeds the cap of 23159 on "
        "(moves tried + 8 x members) x N\n")
    monkeypatch.setattr(surgery, "SURGERY_CLASS_CAP", work)
    code, out = run(["surgery", "class", text, "--require-3p"])
    assert (code, len(json.loads(out)["members"])) == (0, 56)


def test_surgery_canon_over_its_cap_is_refused(capsys, monkeypatch):
    # the canonicalization cap, lowered below this 30-gon
    text = "30:4-25,5-7,7-22,9-11,11-21,13-16,14-16,22-24,27-29"
    monkeypatch.setattr(surgery, "SURGERY_CANON_CAP", 29)
    for argv in (["surgery", "canon", text], ["surgery", "class", text, "--require-3p"]):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            "error: a 30-gon is over the canonicalization cap of 29 vertices\n")
    monkeypatch.setattr(surgery, "SURGERY_CANON_CAP", 30)
    code, out = run(["surgery", "canon", text])
    assert code == 0 and out.startswith("30:")


def test_closed_pipe_ends_quietly():
    # a reader such as ``head -1`` closes the pipe long before the
    # 12-gon's 4 million dissections are written
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "quiddity.cli", "enumerate", "--n", "12"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"12:")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert err == ""  # no traceback, no "Exception ignored" at exit


def test_closed_pipe_keeps_the_exit_code(monkeypatch):
    # failing checks still fail when the reader leaves early
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    checks = [verification.CheckResult("one", True), verification.CheckResult("two", False)]
    monkeypatch.setattr(cli, "run_all", lambda scope: checks)
    assert main(["verify-all"], out=ClosedPipe()) == 1
    checks[1] = verification.CheckResult("two", True)
    assert main(["verify-all"], out=ClosedPipe()) == 0
    # a domain error whose error line meets a closed pipe still fails
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "quiddity.cli", "of", "5:0-9"],
                              env=env, stdout=write, stderr=write, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 1


@pytest.mark.parametrize("argv", [
    ["formula", "catalan", "40"],
    ["formula", "quiddity-3p", "40", "28"],
    ["series", "kirkman-cayley", "--order", "16"],
    ["series", "q", "--order", "16"],
    ["table", "--max-n", "60"],
    ["modular", "verify", "--n", "6"],
])
def test_benchmark_sized_queries_are_answered(cache_env, argv):
    assert run(argv + (["--no-cache"] if argv[0] in ("formula", "table") else []))[0] == 0


NUMBER = st.integers(-3, 9).map(str)
TEXT = st.one_of(
    st.sampled_from([
        "8:1-3,5-7", "8:1-7,3-5", "6:", "5:0-2", "6:0-2,1-3", "9:0-3,3-6", "7:0-2,0-2",
        "14:0-7,2-4,4-6,7-13,9-11", "1-3,5-7", "1-7,3-5", "1-x,5-7", "1,2,1,1",
        "3,1,2,2,1", "2,2,3", "3,4", "0,1", "-1,2", "1,,2", "", "x", ":", "-", "--",
    ]),
    # garbage whose numbers, like NUMBER's, have one digit
    st.text(alphabet="0123456789-,:x", max_size=6).filter(
        lambda t: not re.search(r"\d\d", t)),
)
ANY = st.one_of(NUMBER, TEXT)
# (words, positional values, flags always given, optional flags with a
# value, switches) per command; verify-all is left out, since it takes
# no sized input and runs for seconds
SIZED = ["--n", "--m"]
FILTER = ["--ell", "--sizes"]
COMMANDS = [
    (["of"], [TEXT], [], [], ["--json"]),
    (["enumerate"], [], ["--n"], ["--m", "--max-results", *FILTER], ["--json"]),
    (["count"], [], SIZED, FILTER, ["--json", "--no-cache"]),
    (["quiddities"], [], SIZED, FILTER, ["--json", "--no-cache"]),
    (["classes"], [], SIZED, ["--max-results", *FILTER], []),
    (["table"], [], [], ["--max-n"], ["--no-cache"]),
    *[(["formula", name], [NUMBER] * arity, [], [], ["--json", "--no-cache"])
      for name, arity in (("catalan", 1), ("kirkman-cayley", 2), ("fuss", 2),
                          ("ell-periodic", 3), ("tri-quad", 2), ("quiddity-3p", 2))],
    *[(["series", name], [], [], ["--order", "--ell"], [])
      for name in ("catalan", "kirkman-cayley", "ell-periodic", "tri-quad", "p", "q")],
    *[(["surgery", action], [TEXT], ["--remove"] if action == "apply" else [], [],
       ["--require-3p"] if action in ("moves", "class") else [])
      for action in ("moves", "apply", "canon", "class")],
    (["cf", "eval"], [], [], ["--regular", "--hj"], ["--json"]),
    (["cf", "convert"], [TEXT], [], [], []),
    (["cf", "strip"], [TEXT], [], [], []),
    (["modular", "product"], [TEXT], [], [], []),
    (["modular", "classify"], [TEXT], [], [], []),
    (["modular", "verify"], [], ["--n"], ["--entry-bound"], []),
]
TEXT_FLAGS = {"--sizes", "--remove", "--regular", "--hj"}


@st.composite
def argvs(draw):
    """A command's own words, flags and positionals, mostly well-formed:
    any value may be a wrong kind, and flags may repeat or be missing."""
    words, positionals, required, optional, switches = draw(st.sampled_from(COMMANDS))

    def value(flag):
        return draw(st.one_of(TEXT if flag in TEXT_FLAGS else NUMBER, ANY))

    argv = words + [draw(st.one_of(kind, ANY)) for kind in positionals]
    for flag in required:
        if draw(st.integers(0, 9)):
            argv += [flag, value(flag)]
    for flag in draw(st.lists(st.sampled_from(optional + switches), max_size=3)
                     if optional or switches else st.just([])):
        argv += [flag] + ([] if flag in switches else [value(flag)])
    if not draw(st.integers(0, 9)):
        argv.append(draw(ANY))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=argvs())
@example(argv=["cf", "eval", "--regular", ""])  # once an AttributeError
# results past Python's int-to-str digit limit were once a ValueError
@example(argv=["modular", "product", ",".join(["1000000000"] * 600)])
@example(argv=["cf", "eval", "--regular", ",".join(["1000000000"] * 600)])
@example(argv=["cf", "strip", "1,1000000000"])  # once built a billion-vertex strip
@example(argv=["cf", "eval", "--regular", ",".join(["1"] * 120_000)])  # once evaluated first
def test_argv_fuzz_ends_with_a_documented_exit(tmp_path_factory, argv):
    # ints stay small, so no accepted op enumerates at scale
    if argv[0] in ("count", "quiddities", "formula", "table"):
        argv = argv + ["--cache-dir", str(tmp_path_factory.getbasetemp() / "fuzz-cache")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=io.StringIO())
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")


SIZED_FLAGS = {"--n", "--m", "--max-results", "--max-n", "--order", "--ell", "--entry-bound"}


def _sized_values() -> list[int]:
    """Small values, each cap of the package and its neighbours, and
    values far past every cap."""
    caps = {value for module in (cli, core, enumeration, formulas, modular, surgery)
            for name, value in vars(module).items() if name.endswith("_CAP")}
    return sorted({*range(8), 9, 12, 30, *caps, *(c - 1 for c in caps), *(c + 1 for c in caps),
                   10 ** 6, 10 ** 8, 10 ** 12})


def _sized_argv(rng, sized: list[int]) -> list[str]:
    """One command of ``COMMANDS``, well formed, its sized flags and
    positionals drawn from ``sized``: dissection texts are fans of that
    many vertices (bare polygons over 5001), lists hold one to three
    values, and each optional flag and switch is given or not."""
    words, positionals, required, optional, switches = rng.choice(COMMANDS)

    def number() -> str:
        return str(rng.choice(sized))

    def numbers() -> str:
        return ",".join(number() for _ in range(rng.randint(1, 3)))

    def fan() -> str:
        n = rng.choice(sized)
        return f"{n}:" + (",".join(f"0-{j}" for j in range(2, n - 1)) if n <= 5001 else "")

    def value(flag: str) -> str:
        if flag in SIZED_FLAGS:
            return number()
        return "1-3,5-7" if flag == "--remove" else numbers()

    argv = list(words)
    for kind in positionals:
        argv.append(number() if kind is NUMBER
                    else fan() if words[0] in ("of", "surgery") else numbers())
    for flag in required + [f for f in optional if rng.random() < 0.5]:
        argv += [flag, value(flag)]
    return argv + [f for f in switches if rng.random() < 0.5]


def _fuzz_sized(seed: int, count: int, alarm_s: float, memory_bytes: int) -> None:
    """Run ``count`` seeded sized argvs through ``main`` in this process,
    under an address-space limit and a per-argv alarm, and print the
    failures as JSON: an argv the alarm cut, an exception out of
    ``main``, an exit code outside {0, 1, 2}, exit 1 without an
    ``error:`` line, or a traceback on stderr.  Output past 1 MB meets a
    closed pipe, as under ``| head -c 1M``, which ends a streamed
    family early."""
    import random
    import resource
    import signal
    import traceback

    class Slow(BaseException):
        pass

    def alarm(signum, frame):
        raise Slow

    class Pipe:
        def __init__(self):
            self.left = 2 ** 20

        def write(self, text):
            self.left -= len(text)
            if self.left < 0:
                raise BrokenPipeError
            return len(text)

    resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    signal.signal(signal.SIGALRM, alarm)
    rng, sized = random.Random(seed), _sized_values()
    failures = []
    for _ in range(count):
        argv = _sized_argv(rng, sized)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, alarm_s)
                try:
                    code = main(argv, out=Pipe())
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Slow:
            failures.append([argv, f"over {alarm_s} s"])
            continue
        except Exception:
            failures.append([argv, traceback.format_exc(limit=-3)])
            continue
        text = err.getvalue()
        if (code not in (0, 1, 2) or (code == 1 and not text.startswith("error:"))
                or "Traceback" in text):
            failures.append([argv, f"exit {code}: {text[-500:]}"])
    print(json.dumps(failures))


def test_sized_argv_fuzz_ends_with_a_documented_exit(tmp_path):
    # one child process, its memory bounded by RLIMIT_AS, which a
    # per-argv alarm cannot bound, and which acts on that process only;
    # 1,500 argvs take about 10 s on a 2-core machine, and the alarm
    # leaves room over the caps, each set at about 2 s
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
           "QUIDDITY_CACHE_DIR": str(tmp_path / "cache")}
    script = ("from test_cli import _fuzz_sized; "
              f"_fuzz_sized(seed=22, count=1500, alarm_s=5.0, memory_bytes={2 ** 30})")
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def argparse_result(argv):
    """What ``parse_args`` gives for ``argv``, or None where it exits
    (a usage error, ``--help`` or ``--version``)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def test_plain_parse_equals_argparse_on_the_contract():
    from test_cli_contract import contract_grid

    deferred = 0
    for argv in contract_grid():
        got = _parse_plain(argv)
        if got is not None:
            assert got == argparse_result(argv), argv
        else:  # only the usage errors, --version, --sizes=, --remove= and negative values
            deferred += 1
            assert argparse_result(argv) is None or any(
                re.fullmatch(r"--[a-z-]+=.*|-\d+", tok) for tok in argv), argv
    # a plain argv that newly defers pays for building the whole parser
    assert deferred <= 17


TOP_LEVEL_HELP = """\
usage: quiddity [-h] [--version] verb ...

Enumerate polygon dissections and their quiddities.

positional arguments:
  verb
    of          quiddity of a dissection
    enumerate   stream all dissections, one per line
    count       number of dissections
    quiddities  number of distinct quiddities
    classes     map from quiddity to dissections
    formula     closed-form counts
    series      solve a generating-function equation
    surgery     surgery moves and canonical forms
    cf          continued fractions and strips
    modular     elementary matrix products
    table       known quiddity counts as CSV
    verify-all  run the oracle-equivalence suite

options:
  -h, --help    show this help message and exit
  --version     show program's version number and exit
"""


def test_top_level_help_keeps_each_verb_on_its_line(monkeypatch, capsys):
    # argparse wraps to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == (0, "")
    assert capsys.readouterr().out == TOP_LEVEL_HELP


def test_plain_argv_does_not_call_argparse(cache_env, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert run(["count", "--n", "8", "--m", "3", "--ell", "3", "--no-cache"]) == (0, "36\n")
    assert run(["surgery", "canon", "8:1-3,5-7"])[0] == 0


# a plain argv of every leaf, each answered with exit code 0
PLAIN = {
    "of": ["of", "8:1-3,5-7", "--json"],
    "enumerate": ["enumerate", "--n", "6", "--m", "2", "--ell", "3", "--max-results", "5",
                  "--json"],
    "count": ["count", "--n", "8", "--m", "3", "--sizes", "3,4", "--no-cache", "--json"],
    "quiddities": ["quiddities", "--n", "8", "--m", "3", "--ell", "3", "--cache-dir", "x"],
    "classes": ["classes", "--n", "7", "--m", "2", "--max-results", "100"],
    "formula": ["formula", "kirkman-cayley", "9", "4", "--json", "--no-cache"],
    "series": ["series", "ell-periodic", "--order", "6", "--ell", "2"],
    "surgery moves": ["surgery", "moves", "8:1-3,5-7", "--require-3p"],
    "surgery apply": ["surgery", "apply", "8:1-3,5-7", "--remove", "1-3,5-7"],
    "surgery canon": ["surgery", "canon", "8:1-3,5-7"],
    "surgery class": ["surgery", "class", "8:1-3,5-7", "--require-3p"],
    "cf eval": ["cf", "eval", "--hj", "2,2,3", "--json"],
    "cf convert": ["cf", "convert", "1,2,1,1"],
    "cf strip": ["cf", "strip", "1,2,1,1"],
    "modular product": ["modular", "product", "3,1,2,2,1"],
    "modular classify": ["modular", "classify", "1,2,1,2,1,2,1,2"],
    "modular verify": ["modular", "verify", "--n", "5", "--entry-bound", "3"],
    "table": ["table", "--max-n", "6"],
    "verify-all": ["verify-all", "--scope", "fast"],
}


def test_a_plain_argv_of_every_leaf_builds_no_parser(cache_env, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plain argv built an argument parser")

    assert sorted(PLAIN) == sorted(" ".join(path) for path, _ in LEAVES)
    want = {leaf: run(argv) for leaf, argv in PLAIN.items()}
    assert all(code == 0 for code, _ in want.values())
    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert {leaf: run(argv) for leaf, argv in PLAIN.items()} == want


def test_a_usage_error_builds_only_the_sub_parsers_it_reaches(monkeypatch, capsys):
    # argparse adds -h to every parser it makes; every other argument
    # added names the parser it went to
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *names, **keywords):
        if names[0] != "-h":
            added.append(self.prog)
        return real(self, *names, **keywords)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert run(["count", "--n", "6"]) == (2, "")
    assert "the following arguments are required: --m" in capsys.readouterr().err
    assert set(added) == {"quiddity", "quiddity count"}
    added.clear()
    assert run(["frobnicate", "--n", "12"]) == (2, "")
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert set(added) == {"quiddity"}


def test_unusual_forms_still_reach_argparse(cache_env, capsys):
    plain = run(["count", "--n", "8", "--m", "3", "--no-cache"])
    assert run(["count", "--n", "8", "--m", "3", "--no-c"]) == plain == (0, "120\n")
    assert run(["count", "--n", "6"]) == (2, "")
    assert "the following arguments are required: --m" in capsys.readouterr().err
    assert run(["formula", "catalan", "-3"]) == (1, "")
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["count", "--n=8", "--m", "3"],
    ["count", "--n", "8", "--m", "3", "--no-c"],
    ["count", "--n", "9", "--m", "3", "--n", "8"],
    ["count", "--n", "-3", "--m", "3"],
    ["formula", "catalan", "--", "-3"],
    ["of", "--json", "6:"],
], ids=" ".join)
def test_unusual_forms_are_left_to_argparse(argv):
    # each one argparse accepts, and the plain parse hands on
    assert argparse_result(argv) is not None
    assert _parse_plain(argv) is None


def _leaves(parser, path=()):
    # (verb and action words, parser) for every parser that takes no sub-command
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(list(path), parser)]
    return [leaf for name, sub in subs[0].choices.items() for leaf in _leaves(sub, path + (name,))]


def _parsers_above(parser, above=()):
    # (parser, the parsers above it) for every parser of the tree
    found = [(parser, list(above))]
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for sub in a.choices.values():
                found += _parsers_above(sub, (*above, parser))
    return found


def test_no_option_abbreviates_two_options_of_a_parser_above():
    # argparse reads a sub-command's tokens at every level above it too,
    # and refuses one that abbreviates two options there; the plain parse
    # reads each token at its own level only
    for parser, above in _parsers_above(build_parser()):
        for option in (o for a in parser._actions for o in a.option_strings):
            for upper in above:
                hits = [o for o in upper._option_string_actions if o.startswith(option)]
                assert option in hits or len(hits) < 2, (option, hits)


LEAVES = _leaves(build_parser())
OPTIONS = sorted({o for _, p in LEAVES for a in p._actions for o in a.option_strings})
WORDS = sorted({w for path, _ in LEAVES for w in path}
               | {c for _, p in LEAVES for a in p._actions if a.choices for c in a.choices})
VALUES = ["0", "5", "12", "x", "", " 7", "+3", "1,2", "3,4", "8:1-3,5-7", "1-3,5-7"]
UNUSUAL = ["--n=5", "--order=3", "-3", "-1", "--", "-", "-h", "--help", "--version",
           "--no-c", "--ord", "--requ", "--js"]


@st.composite
def token_runs(draw):
    """A leaf's verb and action words, then tokens drawn from its own
    options, values, every option, the CLI's words and unusual forms."""
    path, parser = draw(st.sampled_from(LEAVES))
    own = [o for a in parser._actions for o in a.option_strings]
    token = st.one_of(st.sampled_from(own), st.sampled_from(VALUES),
                      st.sampled_from(OPTIONS + WORDS + UNUSUAL))
    argv = (path if draw(st.integers(0, 9)) else path[:1]) + draw(st.lists(token, max_size=8))
    return argv if draw(st.integers(0, 19)) else draw(st.permutations(argv))


@settings(max_examples=1000, deadline=None)
@given(argv=token_runs())
@example(argv=["formula", "catalan"])  # an empty nargs='*' run
@example(argv=["cf", "eval", "--regular", "1", "--hj", "2"])  # an exclusive group
@example(argv=["count", "--n", "8", "--m", "3", "--n", "9"])  # a repeated option
@example(argv=["surgery", "moves", "--require-3p", "8:"])  # a positional after an option
@example(argv=["count", "--n", "8", "--m", "3", "--sizes", "--json"])  # an option as a value
def test_plain_parse_is_argparse_or_defers(argv):
    # wherever argparse exits, the plain parse returns None
    got = _parse_plain(argv)
    assert got is None or got == argparse_result(argv)


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(argv=token_runs())
@example(argv=[])  # the whole tree
@example(argv=["frobnicate", "--n", "12"])  # the verb names alone
@example(argv=["surgery", "nope", "8:"])  # a verb's actions, with no arguments
@example(argv=["surgery", "-x", "canon", "8:"])  # an action named after argv[1]
@example(argv=["cf", "eval", "--regular", "1", "--hj", "2"])  # one action's arguments
def test_partial_parser_prints_what_the_whole_parser_prints(argv):
    # what the plain parse passes on meets a parser built only as far as
    # the argv reaches; where the whole parser exits, main must print the
    # same with either, and where it accepts, the namespaces must be
    # equal, so main runs the same command
    if _parse_plain(argv) is not None:
        return
    want = argparse_result(argv)
    if want is not None:
        assert build_parser(argv).parse_args(argv) == want
        return
    whole = build_parser()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda argv=None: whole)
        reference = _outcome(argv)
    assert _outcome(argv) == reference
