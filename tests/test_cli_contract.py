"""The CLI contract: exit code, stdout and stderr of a fixed grid of
argvs, byte for byte.

``cli_contract.json`` maps each argv, shell-quoted, to the sha256 of
its (exit code, stdout, stderr).  A change that alters output on
purpose regenerates it with

    PYTHONPATH=src python tests/test_cli_contract.py --write

and names every argv whose hash moved; a failure is never made to go
away that way.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from quiddity import parse_dissection
from quiddity.cli import main
from quiddity.enumeration import CellFilter, enumerate_dissections

from oracles import surgery_moves_by_definition

MANIFEST = Path(__file__).resolve().parent / "cli_contract.json"
THIRTY_GON = "30:4-25,5-7,7-22,9-11,11-21,13-16,14-16,22-24,27-29"
FILTERS = [(), ("--ell", "3"), ("--sizes", "3,4")]
HUGE = ",".join(["9" * 400] * 11)  # the product of its terms has 4,400 digits


def _surgery_grid() -> list[list[str]]:
    # ``apply`` removes each plain move's chords, as the definition
    # oracle lists them, so the grid does not lean on find_surgeries
    dissections = [d for n in range(3, 10)
                   for d in enumerate_dissections(n, None, CellFilter.ell_periodic(3))]
    dissections.append(parse_dissection(THIRTY_GON))
    grid = []
    for d in dissections:
        text = str(d)
        grid += [["of", text], ["surgery", "canon", text]]
        for action in ("moves", "class"):
            grid += [["surgery", action, text], ["surgery", action, text, "--require-3p"]]
        for _, removed, _ in surgery_moves_by_definition(d, False):
            grid.append(["surgery", "apply", text, "--remove",
                         ",".join(f"{i}-{j}" for i, j in removed)])
    return grid


def _family_grid() -> list[list[str]]:
    grid = []
    for n in range(3, 12):
        for filt in FILTERS:
            grid.append(["enumerate", "--n", str(n), *filt])
            for m in range(1, n - 1):
                grid.append(["enumerate", "--n", str(n), "--m", str(m), *filt])
                grid.append(["classes", "--n", str(n), "--m", str(m), *filt])
                grid.append(["count", "--n", str(n), "--m", str(m), *filt, "--no-cache"])
                if n <= 9:
                    grid.append(["quiddities", "--n", str(n), "--m", str(m), *filt,
                                 "--no-cache"])
    return grid


def _query_grid() -> list[list[str]]:
    grid = [
        ["--version"],
        ["of", "8:1-3,5-7", "--json"],
        ["enumerate", "--n", "6", "--json"],
        ["enumerate", "--n", "8", "--max-results", "3"],
        ["count", "--n", "8", "--m", "3", "--ell", "3", "--json", "--no-cache"],
        ["quiddities", "--n", "8", "--m", "3", "--ell", "3", "--json", "--no-cache"],
        ["quiddities", "--n", "22", "--m", "3", "--no-cache"],
        ["classes", "--n", "8", "--m", "3", "--ell", "3", "--max-results", "36"],
        ["verify-all", "--scope", "fast"],
        ["verify-all", "--scope", "full"],
    ]
    for n in (24, 32, 40):
        for m in (2, 13, 20):
            for filt in FILTERS + [("--ell", "2")]:
                grid.append(["count", "--n", str(n), "--m", str(m), *filt, "--no-cache"])
    grid.append(["count", "--n", "2000", "--m", "1000", "--no-cache"])
    # no composition: 10,000 quadrilaterals need a 20,002-gon
    grid.append(["count", "--n", "20001", "--m", "10000", "--sizes", "4", "--no-cache"])
    for name, args in [("catalan", ["0"]), ("catalan", ["40"]), ("kirkman-cayley", ["9", "4"]),
                       ("fuss", ["12", "4"]), ("fuss", ["12", "5"]),
                       ("ell-periodic", ["12", "4", "3"]), ("tri-quad", ["10", "6"]),
                       ("quiddity-3p", ["6", "3"]), ("quiddity-3p", ["40", "28"])]:
        grid.append(["formula", name, *args, "--no-cache"])
        grid.append(["formula", name, *args, "--json", "--no-cache"])
    for max_n in (0, 4, 14, 60):
        grid.append(["table", "--max-n", str(max_n), "--no-cache"])
    for equation in ("catalan", "kirkman-cayley", "tri-quad", "p", "q"):
        for order in (0, 5, 14):
            grid.append(["series", equation, "--order", str(order)])
    for ell in (1, 2, 3):
        grid.append(["series", "ell-periodic", "--order", "12", "--ell", str(ell)])
    grid += [
        ["cf", "eval", "--regular", "1,2,1,1"], ["cf", "eval", "--hj", "2,2,3", "--json"],
        ["cf", "convert", "1,2,1,1"], ["cf", "strip", "1,2,1,1"], ["cf", "strip", "3,1,4,1,5"],
        ["modular", "product", "3,1,2,2,1"], ["modular", "classify", "1,2,1,2,1,2,1,2"],
        ["modular", "verify", "--n", "6"], ["modular", "verify", "--n", "5", "--entry-bound", "3"],
    ]
    return grid


def _refusal_grid() -> list[list[str]]:
    return [
        # refused by a cap, exit 1
        ["count", "--n", "3000", "--m", "500", "--no-cache"],  # recurrence terms
        ["count", "--n", "100000000", "--m", "3", "--no-cache"],  # the same, sizes unlisted
        ["count", "--n", "20000", "--m", "10000", "--no-cache"],  # digits, up front
        ["count", "--n", "7000", "--m", "6800", "--no-cache"],  # digits, once counted
        ["formula", "catalan", "5001", "--no-cache"],
        ["series", "kirkman-cayley", "--order", "86"],
        ["table", "--max-n", "1201", "--no-cache"],
        ["modular", "verify", "--n", "9"],
        ["modular", "verify", "--n", "13", "--entry-bound", "2"],
        ["quiddities", "--n", "14", "--m", "6", "--no-cache"],
        ["classes", "--n", "14", "--m", "6"],
        ["classes", "--n", "4000", "--m", "2", "--sizes", "4"],  # no member, N over the cap
        # a family over the enumeration cap, refused before its count is built
        ["quiddities", "--n", "1000000", "--m", "1200", "--sizes", "5000,6,12"],
        ["classes", "--n", "1000000", "--m", "1200", "--sizes", "5000,6,12"],
        ["classes", "--n", "8", "--m", "3", "--ell", "3", "--max-results", "35"],
        ["enumerate", "--n", "201", "--max-results", "1"],
        ["cf", "convert", "1,60000"],
        ["cf", "strip", "60000,1"],
        ["cf", "eval", "--regular", HUGE],
        ["modular", "product", HUGE],
        # refused input, exit 1
        ["count", "--n", "8", "--m", "3", "--sizes=", "--no-cache"],
        ["quiddities", "--n", "8", "--m", "3", "--sizes=", "--no-cache"],
        ["enumerate", "--n", "6", "--m", "2", "--sizes="],
        ["classes", "--n", "6", "--m", "2", "--sizes="],
        ["count", "--n", "8", "--m", "3", "--ell", "3", "--sizes", "3,4", "--no-cache"],
        ["enumerate", "--n", "8", "--max-results", "-1"],
        ["classes", "--n", "8", "--m", "3", "--max-results", "-5"],
        ["table", "--max-n", "-3", "--no-cache"],
        ["table", "--max-n", "8", "--cache-dir", "/dev/null/sub"],  # not a directory
        ["count", "--n", "2", "--m", "1", "--no-cache"],
        ["formula", "catalan", "1", "2", "--no-cache"],
        ["series", "ell-periodic", "--order", "4"],
        ["series", "catalan", "--order", "3", "--ell", "3"],  # a period it does not take
        ["of", "6:0-2,1-3"], ["of", "5"], ["of", "x:"], ["of", "2:"], ["of", "5:0-9"],
        ["of", "8:0-7"], ["of", "6:0-2,0-2"], ["of", "6:0-2,a-3"],
        ["surgery", "apply", "8:1-3,5-7", "--remove=1-x,5-7"],
        ["surgery", "apply", "8:1-3,5-7", "--remove", "1-3"],
        ["surgery", "apply", "8:1-7,3-5", "--remove", "1-3,5-7"],
        ["surgery", "apply", "8:1-3,5-7", "--remove", "3-1,7-5"],  # reversed ends
        ["surgery", "apply", "8:1-3,5-7", "--remove", "1-2-3,5-7"],
        ["count", "--n", "8", "--m", "3", "--sizes", "3,x", "--no-cache"],
        ["surgery", "moves", "5:0-2", "--require-3p"],
        ["surgery", "canon", "5:0-2"],
        # dissection text over the parser's vertex cap, exit 1
        ["of", "100000000:"],
        ["of", "1000001:"],
        ["surgery", "moves", "100000000:"],
        # usage errors, exit 2
        [],
        ["no-such-verb"],
        ["count", "--n", "6"],
        ["formula", "no-such-formula", "3"],
        ["series", "catalan", "--order", "x"],
        ["series", "hexagonal", "--order", "5"],  # lists the choices
        ["surgery", "moves"],
        ["cf", "eval", "--regular", "1,2", "--hj", "2,2"],
    ]


def contract_grid() -> list[list[str]]:
    return _surgery_grid() + _family_grid() + _query_grid() + _refusal_grid()


def outcome_hash(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_the_contract(tmp_path, monkeypatch):
    monkeypatch.setenv("QUIDDITY_CACHE_DIR", str(tmp_path / "cache"))
    want = json.loads(MANIFEST.read_text())
    grid = {shlex.join(argv): argv for argv in contract_grid()}
    assert sorted(grid) == sorted(want), (
        f"grid and manifest differ: new {sorted(set(grid) - set(want))[:5]}, "
        f"gone {sorted(set(want) - set(grid))[:5]}")
    changed = [key for key, argv in grid.items() if outcome_hash(argv) != want[key]]
    assert not changed, f"{len(changed)} argvs changed output, first: {changed[:10]}"
    assert not (tmp_path / "cache").exists()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    manifest = {shlex.join(argv): outcome_hash(argv) for argv in contract_grid()}
    MANIFEST.write_text(json.dumps(manifest, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} argvs to {MANIFEST.name}")
