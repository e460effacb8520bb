"""Command-line front end.

One flat verb per module operation: enumeration (``enumerate``,
``count``, ``quiddities``, ``classes``, ``of``), closed forms
(``formula``, ``table``), generating series (``series``), surgery
(``surgery``), continued fractions (``cf``), matrix products
(``modular``) and the oracle suite (``verify-all``).  Machine-readable
output, deterministic byte for byte.  ``table`` goes through a
persistent cache unless ``--no-cache`` is given: one file per result,
published by rename, with no index and no lock (``cache``).  ``count``,
``quiddities`` and ``formula`` accept the cache flags and ignore them.

The grammar is declared once, as data (``_VERB_HELP``, ``_LEAVES``
and ``_EXCLUSIVE``), and arguments are parsed in two steps with it.  A
plain argv, meaning the verb (and action), then its positionals, then
exact ``--option value`` pairs and flags, with no other token starting
with '-', is read in one pass off its leaf's table, compiled from that
data on first use, and no argparse parser is built.  Every other argv
(usage errors, ``--help``, ``--version``, abbreviations,
``--opt=value``, negative numbers, ``--``, repeated options and
positionals placed after options) goes to a parser that
``build_parser`` builds from the same data only as far as the argv
reaches.  So usage errors and help still come from argparse.

Exit codes: 0 success, 1 domain error or failed check, 2 usage error.
A reader that closes stdout early cuts the output short, with nothing
on stderr and the exit code the run would have had.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__, formulas, series
from .cache import ResultCache, resolve_cache_dir
from .contfrac import (
    HirzebruchJungContinuedFraction,
    RegularContinuedFraction,
    eval_hj,
    eval_regular,
    regular_to_hj,
    strip_triangulation,
)
from .core import DomainError, ResourceLimitError, _parse_chord, parse_dissection, quiddity
from .enumeration import (
    ALL_CELLS,
    FAMILY_CAP,
    CellFilter,
    _class_texts,
    _texts,
    count_dissections,
    count_quiddities,
)
from .modular import classify_monodromy, elementary_product, verify_monodromy_correspondence
from .surgery import (
    apply_surgery,
    canonicalize_maximally_open,
    class_export,
    find_surgeries,
)
from .verification import run_all

# Largest arguments the closed-form verbs accept, each refused up front.
# A formula argument of 5000 keeps every value under Python's 4300-digit
# int-to-str limit (all six count at most the (n+2)-gon's dissections,
# fewer than 5.83^n) and takes at most 0.07 s (the 3-periodic quiddity
# count at 4999, 2251, the slowest); the series solver grows about as
# order^4 (the general and the 1-periodic equation, the slowest, take
# 0.10 s at order 85, 0.19 s as a command) and the table as max-n^2
# (0.07 s at 1200, each diagonal's binomial stepped from entry to
# entry), on a 2-core machine.
FORMULA_ARG_CAP = 5000
SERIES_ORDER_CAP = 85
TABLE_MAX_N_CAP = 1200
# Largest sum of plus-sign terms that ``cf convert`` and ``cf strip``
# take: the strip has sum + 2 vertices and the minus-sign expansion about
# as many terms.  The slowest input is all ones, whose fractions grow as
# Fibonacci numbers: ``cf convert`` takes 1.7 s at the cap, ``cf strip``
# 0.6 s, on a 2-core machine.
CF_TERM_SUM_CAP = 60_000

# Lines ``enumerate`` joins into one write, rather than one write per
# line.  A chunk of the N-gon's first lines is about 150 KB at N = 12
# and 6 MB at the enumeration cap, N = 200.
_CHUNK_LINES = 4096

# Each closed form ``formula`` names: the name of its function in
# ``formulas``, looked up on every call, and its arity.
_FORMULAS = {
    "catalan": ("catalan", 1),
    "kirkman-cayley": ("kirkman_cayley", 2),
    "fuss": ("fuss", 2),
    "ell-periodic": ("ell_periodic_count", 3),
    "tri-quad": ("tri_quad_count", 2),
    "quiddity-3p": ("quiddity_count_3periodic", 2),
}


def _refuse_over(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ResourceLimitError(f"{what} {value} is over the cap of {cap}")


def _refuse_negative(value: Optional[int], flag: str) -> None:
    if value is not None and value < 0:
        raise DomainError(f"{flag} must be at least 0, got {value}")


def _print_digit_limit() -> int:
    # Python will not print an int longer than this many digits (0: no limit).
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@functools.lru_cache(maxsize=None)
def _print_bound(limit: int) -> int:
    # the least int with over ``limit`` digits, built once per limit
    return 10 ** limit


def _refuse_unprintable(*values: int) -> None:
    limit = _print_digit_limit()
    if limit and any(abs(v) >= _print_bound(limit) for v in values):
        raise ResourceLimitError(f"a result has over {limit} digits, too many to print")


def _refuse_unprintable_continuant(terms: tuple[int, ...]) -> None:
    """Refuse, before evaluating, a plus-sign expansion whose numerator
    is sure to be unprintable.  The numerator is the continuant of the
    terms, and with every term at least 1 it is at least their product
    and at least the Fibonacci number F(len + 1), the continuant of as
    many ones; so nothing printable is refused.  Both bounds grow term
    by term, so the check stops at the first prefix that reaches the
    limit."""
    limit = _print_digit_limit()
    if not limit:
        return
    bound = _print_bound(limit)
    product, fib, next_fib = 1, 1, 1  # F(1), F(2)
    for t in terms:
        product *= t
        fib, next_fib = next_fib, fib + next_fib
        if product >= bound or fib >= bound:
            _refuse_unprintable(product, fib)


# the encoder json.dumps would build on every call with these keywords
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _parse_filter(args: argparse.Namespace) -> CellFilter:
    # an empty --sizes= is a size list to reject, not an absent flag
    if args.ell is not None and args.sizes is not None:
        raise DomainError("give at most one of --ell and --sizes")
    if args.ell is not None:
        return CellFilter.ell_periodic(args.ell)
    if args.sizes is not None:
        return CellFilter.size_set(_parse_int_list(args.sizes, "size list"))
    return ALL_CELLS


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise DomainError(f"bad {what} {text!r}") from None


def _print_fraction(value: Fraction, as_json: bool, out) -> None:
    if as_json:
        print(_dumps({"r": value.numerator, "s": value.denominator}), file=out)
    else:
        print(f"{value.numerator}/{value.denominator}", file=out)


# The grammar, declared once.  Each verb's help line, in the order
# ``--help`` lists the verbs; each leaf ("verb", or "verb action" for a
# verb with actions) with its arguments in the order they are added,
# each a name ("--option", or a positional's dest) and the keywords of
# ``add_argument``; and the one required mutually exclusive group.
# ``_parse_plain`` models the keywords used here: action 'store_true',
# type, choices, nargs '*', required and default.
_VERB_HELP = {
    "of": "quiddity of a dissection",
    "enumerate": "stream all dissections, one per line",
    "count": "number of dissections",
    "quiddities": "number of distinct quiddities",
    "classes": "map from quiddity to dissections",
    "formula": "closed-form counts",
    "series": "solve a generating-function equation",
    "surgery": "surgery moves and canonical forms",
    "cf": "continued fractions and strips",
    "modular": "elementary matrix products",
    "table": "known quiddity counts as CSV",
    "verify-all": "run the oracle-equivalence suite",
}
_FLAG = {"action": "store_true"}
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_FILTER = {"--ell": {"type": int, "help": "keep cells of size 3 mod ell"},
           "--sizes": {"help": "comma-separated allowed cell sizes"}}


def _cache_flags(note: str = "") -> dict:
    return {"--no-cache": {"action": "store_true",
                           "help": "neither read nor write the result cache" + note},
            "--cache-dir": {"help": "result cache directory" + note}}


# count, quiddities and formula answer faster than a cache lookup, so
# they take the flags and ignore them
_IGNORED_CACHE = _cache_flags(" (accepted and ignored: only table caches)")
_COUNTER = {"--n": _REQUIRED_INT, "--m": _REQUIRED_INT, **_FILTER, **_IGNORED_CACHE,
            "--json": _FLAG}
_TERMS = {"terms": {"help": "plus-sign terms, e.g. 1,2,1,1"}}
_LEAVES = {
    "of": {"dissection": {}, "--json": _FLAG},
    "enumerate": {"--n": _REQUIRED_INT, "--m": _INT, **_FILTER, "--max-results": _INT,
                  "--json": _FLAG},
    "count": _COUNTER,
    "quiddities": _COUNTER,
    "classes": {"--n": _REQUIRED_INT, "--m": _REQUIRED_INT, **_FILTER,
                "--max-results": {"type": int, "default": FAMILY_CAP}},
    "formula": {"name": {"choices": list(_FORMULAS)}, "args": {"type": int, "nargs": "*"},
                **_IGNORED_CACHE, "--json": _FLAG},
    "series": {"equation": {"choices": [*series.NAMED_EQUATIONS, "q"]},
               "--order": {"type": int, "default": 12}, "--ell": _INT},
    "surgery moves": {"dissection": {}, "--require-3p": _FLAG},
    "surgery apply": {"dissection": {}, "--remove": {
        "required": True, "help": "the two chords to remove, e.g. 1-3,5-7"}},
    "surgery canon": {"dissection": {}},
    "surgery class": {"dissection": {}, "--require-3p": _FLAG},
    "cf eval": {"--regular": {"help": "plus-sign terms, e.g. 1,2,1,1"},
                "--hj": {"help": "minus-sign terms, e.g. 2,2,3"}, "--json": _FLAG},
    "cf convert": _TERMS,
    "cf strip": _TERMS,
    "modular product": {"coefficients": {"help": "e.g. 3,1,2,2,1"}},
    "modular classify": {"coefficients": {}},
    "modular verify": {"--n": _REQUIRED_INT, "--entry-bound": _INT},
    "table": {"--max-n": {"type": int, "default": 14}, **_cache_flags()},
    "verify-all": {"--scope": {"choices": ["fast", "full"], "default": "fast"}},
}
_EXCLUSIVE = {"cf eval": ("--regular", "--hj")}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout, with the help column past the longest
    verb name.  argparse measures a sub-command's name without the
    indent it prints it at, so with the column sized from ``-h, --help``
    every verb name over 8 characters would have its help wrapped onto
    the next line."""

    def add_argument(self, action: argparse.Action) -> None:
        super().add_argument(action)
        # the indent is the verb's while the iteration is on it
        for verb in self._iter_indented_subactions(action):
            self._action_max_length = max(
                self._action_max_length,
                self._current_indent + len(self._format_action_invocation(verb)))


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The argparse parser of the grammar as far as ``argv`` reaches,
    shared by later calls that reach as far: the verb it names, with
    arguments for the actions it names (an action's parser reads only
    the tokens after its name); the verb names alone, which argparse
    refuses a bare first word by; the whole tree for an argv that is
    None, empty or starts with an option."""
    first = argv[0] if argv else "-"
    if first in _VERB_HELP:
        return _tree(first, frozenset(
            _LEAVES.keys() & {first, *(f"{first} {word}" for word in argv[1:])}))
    if not first.startswith("-"):
        return _tree(None, frozenset())
    return _tree(None, frozenset(_LEAVES))


@functools.lru_cache(maxsize=None)
def _tree(only: Optional[str], leaves: frozenset) -> argparse.ArgumentParser:
    """The parser of the verb ``only`` (of every verb when None) and its
    actions, the leaves in ``leaves`` with their arguments; with neither,
    only each verb's name and help."""
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Enumerate polygon dissections and their quiddities.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    if only is None and not leaves:
        # argparse refuses the first word before any verb's parser runs
        for verb, text in _VERB_HELP.items():
            verbs.add_parser(verb, help=text, add_help=False)
        return parser
    actions = {}  # verb -> the sub-parsers of its actions
    for leaf, arguments in _LEAVES.items():
        verb, _, action = leaf.partition(" ")
        if only not in (None, verb):
            continue
        if not action:
            p = verbs.add_parser(verb, help=_VERB_HELP[verb])
        else:
            if verb not in actions:
                actions[verb] = verbs.add_parser(verb, help=_VERB_HELP[verb]).add_subparsers(
                    dest="action", required=True)
            p = actions[verb].add_parser(action)
        if leaf not in leaves:
            continue
        group = None
        for name, keywords in arguments.items():
            if name not in _EXCLUSIVE.get(leaf, ()):
                p.add_argument(name, **keywords)
                continue
            if group is None:
                group = p.add_mutually_exclusive_group(required=True)
            group.add_argument(name, **keywords)
    return parser


# build_parser.cache_clear() drops every parser built so far
build_parser.cache_clear = _tree.cache_clear


@functools.lru_cache(maxsize=None)
def _table(leaf: str) -> tuple:
    """The leaf's grammar for ``_parse_plain``: its positional slots and
    options, each (dest, many, type, choices), ``many`` meaning nargs '*'
    for a slot and store_true for an option; its required options, the
    options' defaults and its exclusive group."""
    slots, options, required, defaults = [], {}, [], {}
    for name, keywords in _LEAVES[leaf].items():
        dest = name.lstrip("-").replace("-", "_")
        spec = (dest, "nargs" in keywords or "action" in keywords, keywords.get("type"),
                keywords.get("choices"))
        if not name.startswith("-"):
            slots.append(spec)
            continue
        options[name] = spec
        defaults[dest] = keywords.get("default", False if "action" in keywords else None)
        if keywords.get("required"):
            required.append(name)
    return slots, options, required, defaults, _EXCLUSIVE.get(leaf, ())


def _parse_plain(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """``build_parser().parse_args(argv)`` for a plain argv (see the
    module docstring), read off the leaf's table in one pass; None for
    any other argv and for one that argparse would refuse."""
    verb = argv[0] if argv else None
    if verb not in _VERB_HELP:
        return None
    leaf, values, i = verb, {"verb": verb}, 1
    if verb not in _LEAVES and len(argv) > 1:  # a verb with actions
        leaf, values["action"], i = f"{verb} {argv[1]}", argv[1], 2
    if leaf not in _LEAVES:
        return None
    slots, options, required, defaults, group = _table(leaf)
    values.update(defaults)
    filled, seen, pending = 0, set(), None
    for token in itertools.islice(argv, i, None):
        if token.startswith("-"):
            spec = options.get(token)
            # an option with no value, an unknown or repeated one
            if pending is not None or spec is None or token in seen:
                return None
            seen.add(token)
            if spec[1]:  # a flag
                values[spec[0]] = True
            else:
                pending = spec
            continue
        if pending is not None:  # the pending option's value
            (dest, many, convert, choices), pending = pending, None
        elif seen or filled == len(slots):  # a positional after an option, or one too many
            return None
        else:
            dest, many, convert, choices = slots[filled]
            if not many:  # nargs '*' takes every positional from here on
                filled += 1
        try:  # argparse's type, then its choices
            value = convert(token) if convert else token
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        if many:
            values.setdefault(dest, []).append(value)
        else:
            values[dest] = value
    if pending is not None or not seen.issuperset(required):
        return None
    if group and len(seen.intersection(group)) != 1:
        return None
    if filled < len(slots):  # a positional missing, or an empty nargs '*' run
        dest, many, _, _ = slots[filled]
        if not many:
            return None
        values.setdefault(dest, [])
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _run_formula(args: argparse.Namespace, out) -> int:
    function, arity = _FORMULAS[args.name]
    if len(args.args) != arity:
        raise DomainError(f"formula {args.name} takes {arity} integer argument(s)")
    for value in args.args:
        _refuse_over(value, FORMULA_ARG_CAP, "formula argument")
    value = str(getattr(formulas, function)(*args.args))
    print(_dumps({"value": value}) if args.json else value, file=out)
    return 0


def _run_table(args: argparse.Namespace, out) -> int:
    _refuse_negative(args.max_n, "--max-n")
    _refuse_over(args.max_n, TABLE_MAX_N_CAP, "--max-n")

    def compute() -> str:
        lines = ["n,m,value"]
        for (n, m), value in sorted(formulas.quiddity_table(args.max_n).items()):
            lines.append(f"{n},{m},{value}")
        return "\n".join(lines)

    if args.no_cache:
        print(compute(), file=out)
        return 0
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    try:
        payload = cache.get_payload("table", "table", f"table-{args.max_n}.csv", compute)
    except OSError as exc:  # say which directory, not where it failed
        raise DomainError(
            f"cache directory {cache.directory} is unusable: {exc.strerror or exc}") from None
    print(payload, file=out)
    return 0


def _run_surgery(args: argparse.Namespace, out) -> int:
    d = parse_dissection(args.dissection)
    if args.action == "moves":
        for mv in find_surgeries(d, args.require_3p):
            print(_dumps({
                "cell": mv.cell_index,
                "remove": [f"{a}-{b}" for a, b in mv.removed],
                "add": [f"{a}-{b}" for a, b in mv.added],
            }), file=out)
        return 0
    if args.action == "apply":
        removed = [tuple(sorted(_parse_chord(token))) for token in args.remove.split(",")]
        if len(removed) != 2:
            raise DomainError("surgery removes exactly two chords")
        legal = find_surgeries(d, False)
        matches = [mv for mv in legal if set(mv.removed) == set(removed)]
        if not matches:
            raise DomainError(f"no legal surgery removes {args.remove}")
        print(apply_surgery(d, matches[0], legal), file=out)
        return 0
    if args.action == "canon":
        print(canonicalize_maximally_open(d), file=out)
        return 0
    print(_dumps(class_export(d, args.require_3p)), file=out)
    return 0


def _run_cf(args: argparse.Namespace, out) -> int:
    if args.action == "eval":
        if args.regular is not None:
            cf = RegularContinuedFraction(tuple(_parse_int_list(args.regular, "term list")))
            _refuse_unprintable_continuant(cf.terms)
            value = eval_regular(cf)
        else:
            value = eval_hj(HirzebruchJungContinuedFraction(
                tuple(_parse_int_list(args.hj, "term list"))))
        _refuse_unprintable(value.numerator, value.denominator)
        _print_fraction(value, args.json, out)
        return 0
    cf = RegularContinuedFraction(tuple(_parse_int_list(args.terms, "term list")))
    _refuse_over(sum(cf.terms), CF_TERM_SUM_CAP, "term sum")
    if args.action == "convert":
        print(",".join(str(t) for t in regular_to_hj(cf).terms), file=out)
        return 0
    d, tops = strip_triangulation(cf)
    q = quiddity(d)
    print(_dumps({
        "dissection": str(d),
        "top_vertices": list(tops),
        "top_quiddity": [q.entries[v] for v in tops],
    }), file=out)
    return 0


def _run_modular(args: argparse.Namespace, out) -> int:
    if args.action in ("product", "classify"):
        cs = _parse_int_list(args.coefficients, "coefficient list")
        if args.action == "product":
            matrix, extra = elementary_product(cs), {}
        else:
            report = classify_monodromy(cs)
            matrix, extra = report.matrix, {"classification": report.classification}
        _refuse_unprintable(matrix.a, matrix.b, matrix.c, matrix.d)
        print(_dumps({**extra, "matrix": matrix.entries()}), file=out)
        return 0
    report = verify_monodromy_correspondence(args.n, args.entry_bound)
    print(_dumps(report), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    # two steps (see the module docstring), so every usage error is
    # still argparse's
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

    code = 0
    try:
        if args.verb == "of":
            q = quiddity(parse_dissection(args.dissection))
            print(_dumps({"quiddity": list(q.entries)}) if args.json else str(q), file=out)
            return 0

        if args.verb == "enumerate":
            _refuse_negative(args.max_results, "--max-results")
            # a limit of 0 never asks the stream for a dissection
            stream = itertools.islice(
                _texts(args.n, args.m, _parse_filter(args)), args.max_results)
            if args.json:  # the bytes of _dumps(list of texts), written as they come
                # a text holds only digits, ':', '-' and ',', so quoting
                # it is json.dumps
                out.write("[")
                sep = '"'
                while chunk := list(itertools.islice(stream, _CHUNK_LINES)):
                    out.write(sep + '","'.join(chunk) + '"')
                    sep = ',"'
                out.write("]\n")
            else:
                while chunk := list(itertools.islice(stream, _CHUNK_LINES)):
                    out.write("\n".join(chunk) + "\n")
            return 0

        if args.verb in ("count", "quiddities"):
            counter = count_dissections if args.verb == "count" else count_quiddities
            value = counter(args.n, args.m, _parse_filter(args))
            # the count's digits are bounded up front only from below
            _refuse_unprintable(value)
            print(_dumps({"value": str(value)}) if args.json else value, file=out)
            return 0

        if args.verb == "classes":
            _refuse_negative(args.max_results, "--max-results")
            print(_dumps(_class_texts(args.n, args.m, _parse_filter(args),
                                      min(args.max_results, FAMILY_CAP))), file=out)
            return 0

        if args.verb == "formula":
            return _run_formula(args, out)

        if args.verb == "series":
            _refuse_over(args.order, SERIES_ORDER_CAP, "--order")
            sol = series.solve_named(args.equation, args.order, args.ell)
            # the bytes of _dumps(series_terms_json(sol)): a coefficient
            # is a digit string, so quoting it is json.dumps
            out.write("[" + ",".join(f'{{"coeff":"{c}","m":{m},"n":{n}}}'
                                     for n, m, c in sol.nonzero_terms()) + "]\n")
            return 0

        if args.verb == "surgery":
            return _run_surgery(args, out)

        if args.verb == "cf":
            return _run_cf(args, out)

        if args.verb == "modular":
            return _run_modular(args, out)

        if args.verb == "table":
            return _run_table(args, out)

        if args.verb == "verify-all":
            results = run_all(args.scope)
            code = 0 if all(r.passed for r in results) else 1
            for result in results:
                print(result.line(), file=out)
            return code

    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed ``out`` early (``quiddity enumerate ... | head``):
        # the output is cut short, but the exit code stands
        return code
    raise AssertionError(f"unhandled verb {args.verb!r}")


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at /dev/null so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
