"""Oracle-equivalence suites: brute-force enumeration against every
closed form, the surgery canonical-form properties, and the
counterexample searches.  Backs the ``verify-all`` command and the
acceptance tests.
"""
from __future__ import annotations

import os
import random
import threading
from collections import Counter
from collections.abc import Callable, Sequence

from . import formulas, series
from .core import Chord, Dissection, Quiddity, Value, dihedral_orbit, quiddity
from .enumeration import ALL_CELLS, CellFilter, _carried_quiddities, _walk, enumerate_dissections
from .modular import (
    MINUS_IDENTITY,
    NEITHER,
    classify_monodromy,
    three_periodic_quiddities,
    verify_monodromy_correspondence,
)
from .surgery import (
    canonicalize_maximally_open,
    find_surgeries,
    is_maximally_open,
    surgery_class,
)
from .contfrac import RegularContinuedFraction, regular_to_hj, strip_triangulation


class CheckResult(Value):
    """The outcome of one check: its name, whether it passed, and a
    detail to print after them."""

    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" — {self.detail}" if self.detail else "")


def check_dissection_counts(max_n: int) -> CheckResult:
    """Brute-force enumeration counts against all four closed forms,
    counting each comparison made.  The members are counted off the
    enumerator's walk, with no ``Dissection`` made for each."""
    def by_cells(n_vertices: int, m: int | None, cell_filter: CellFilter) -> Counter:
        return Counter(len(chords) + 1 for chords, _, _ in _walk(n_vertices, m, cell_filter))

    checked = 0
    for n_vertices in range(3, max_n + 1):
        n = n_vertices - 2
        # (label, cells by count, closed form) for each family
        families = [("general count", by_cells(n_vertices, None, CellFilter.all_cells()),
                     formulas.kirkman_cayley)]
        families += [(f"period {ell}", by_cells(n_vertices, None, CellFilter.ell_periodic(ell)),
                      lambda n, m, ell=ell: formulas.ell_periodic_count(n, m, ell))
                     for ell in (1, 2, 3)]
        families.append(("triangle/quad", by_cells(n_vertices, None, CellFilter.size_set({3, 4})),
                         formulas.tri_quad_count))
        for m in range(1, n_vertices - 1):
            comparisons = [(label, count[m], closed(n, m)) for label, count, closed in families]
            if n % m == 0:
                equal = by_cells(n_vertices, m, CellFilter.equal_size(n // m + 2))
                comparisons.append(("equal-size", equal[m], formulas.fuss(n, m)))
            for label, got, want in comparisons:
                if got != want:
                    return CheckResult("dissection-counts", False,
                                       f"{label} at N={n_vertices}, m={m}")
                checked += 1
    return CheckResult("dissection-counts", True, f"{checked} closed-form comparisons, N <= {max_n}")


def check_quiddity_counts(max_n: int) -> CheckResult:
    """Distinct 3-periodic quiddities against the closed-form count,
    including the column totals over all cell counts."""
    for n_vertices in range(3, max_n + 1):
        n = n_vertices - 2
        total = set()
        for m in range(1, n_vertices - 1):
            if (n - m) % 3:
                continue
            seen = {quiddity(d).entries
                    for d in enumerate_dissections(n_vertices, m, CellFilter.ell_periodic(3))}
            want = formulas.quiddity_count_3periodic(n, m)
            if len(seen) != want:
                return CheckResult(
                    "quiddity-counts", False,
                    f"N={n_vertices}, m={m}: enumerated {len(seen)}, closed form {want}")
            total |= seen
        want_total = sum(
            formulas.quiddity_count_3periodic(n, m) for m in range(0, n + 1)
        )
        if len(total) != want_total:
            return CheckResult("quiddity-counts", False, f"column total at N={n_vertices}")
    return CheckResult("quiddity-counts", True, f"matches closed form for all N <= {max_n}")


def check_quiddity_sum(max_n: int) -> CheckResult:
    """Quiddity sum N + 2(m-1) on every enumerated dissection."""
    for n_vertices in range(3, max_n + 1):
        for m in range(1, n_vertices - 1):
            for d in enumerate_dissections(n_vertices, m):
                if sum(quiddity(d).entries) != n_vertices + 2 * (m - 1):
                    return CheckResult("quiddity-sum", False, str(d))
    return CheckResult("quiddity-sum", True, f"all dissections with N <= {max_n}")


def check_equal_size_injectivity(max_n: int) -> CheckResult:
    """Equal-cell-size dissections are determined by their quiddities:
    no quiddity the enumerator carries comes twice in a family."""
    for n_vertices in range(3, max_n + 1):
        n = n_vertices - 2
        for m in range(1, n + 1):
            if n % m:
                continue
            members = _carried_quiddities(n_vertices, m, CellFilter.equal_size(n // m + 2))
            counts = Counter(entries for _, entries, _ in members)
            bad = [entries for entries, count in counts.items() if count > 1]
            if bad:
                return CheckResult(
                    "equal-size-injectivity", False,
                    f"N={n_vertices}, m={m}, quiddity {Quiddity(bad[0])}")
    return CheckResult("equal-size-injectivity", True, f"all equal-size families, N <= {max_n}")


def _shared_quiddities(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> list[list[Dissection]]:
    """The quiddity classes of a family with two or more members, by
    increasing quiddity, each in enumeration order: the classes of
    ``quiddity_classes``, grouped from the quiddities the enumerator
    carries, with a ``Dissection`` made only for a shared quiddity."""
    grouped: dict[bytes, list[tuple[Chord, ...]]] = {}
    for chords, entries, _ in _carried_quiddities(n_vertices, m, cell_filter):
        grouped.setdefault(entries, []).append(tuple(chords))
    return [[Dissection._trusted(n_vertices, chords) for chords in grouped[entries]]
            for entries in sorted(grouped) if len(grouped[entries]) > 1]


def find_non_dihedral_pair(max_n: int) -> tuple[Dissection, Dissection] | None:
    """Smallest equal-quiddity pair not related by any dihedral
    relabeling, searching all dissections by polygon size."""
    for n_vertices in range(3, max_n + 1):
        for m in range(1, n_vertices - 1):
            for first, *others in _shared_quiddities(n_vertices, m):
                orbit = dihedral_orbit(first)
                for other in others:
                    if other not in orbit:
                        return first, other
    return None


def find_equal_quiddity_without_surgery(n_vertices: int = 8) -> tuple[Dissection, Dissection] | None:
    """Equal-quiddity pair among triangle/quadrilateral dissections
    (which admit no surgery at all)."""
    for m in range(1, n_vertices - 1):
        for ds in _shared_quiddities(n_vertices, m, CellFilter.size_set({3, 4})):
            if all(not find_surgeries(d, False) for d in ds[:2]):
                return ds[0], ds[1]
    return None


def check_witnesses(max_n: int) -> CheckResult:
    pair = find_non_dihedral_pair(max_n)
    if pair is None:
        return CheckResult("equal-quiddity-witnesses", False,
                           f"no non-dihedral pair up to N={max_n}")
    no_surgery = find_equal_quiddity_without_surgery(8)
    if no_surgery is None:
        return CheckResult("equal-quiddity-witnesses", False,
                           "no triangle/quadrilateral pair at N=8")
    return CheckResult(
        "equal-quiddity-witnesses", True,
        f"non-dihedral: {pair[0]} vs {pair[1]}; "
        f"no-surgery: {no_surgery[0]} vs {no_surgery[1]}")


def check_surgery_classes(max_n: int, random_orders: int = 20, seed: int = 20260809) -> CheckResult:
    """Surgery classes = quiddity classes on 3-periodic dissections;
    one maximally open member per class; canonicalization lands on it
    from every member under randomized admissible orders."""
    rng = random.Random(seed)
    instances = 0
    for n_vertices in range(3, max_n + 1):
        # the quiddity sum N + 2(m-1) fixes m, so one class never spans two m
        by_quiddity: dict[tuple[int, ...], list[Dissection]] = {}
        for d in enumerate_dissections(n_vertices, None, CellFilter.ell_periodic(3)):
            by_quiddity.setdefault(quiddity(d).entries, []).append(d)
        for q, members in by_quiddity.items():
            cls = surgery_class(members[0], require_3periodic=True)
            if cls != frozenset(members):
                return CheckResult("surgery-classes", False,
                                   f"class mismatch at N={n_vertices}, quiddity {q}")
            open_members = [d for d in members if is_maximally_open(d)]
            if len(open_members) != 1:
                return CheckResult("surgery-classes", False,
                                   f"{len(open_members)} maximally open members at N={n_vertices}, quiddity {q}")
            target = open_members[0]
            for d in members:
                if canonicalize_maximally_open(d) != target:
                    return CheckResult("surgery-classes", False,
                                       f"canonicalization missed the open member from {d}")
                # the open member came back unmoved, so it has no opening
                # move: a random order from it draws nothing from the
                # stream and is the deterministic one, so one is enough
                for _ in range(1 if d is target else random_orders):
                    if canonicalize_maximally_open(d, rng) != target:
                        return CheckResult("surgery-classes", False,
                                           f"order-dependent canonical form from {d}")
                instances += 1
    return CheckResult("surgery-classes", True,
                       f"{instances} dissections, {random_orders} random orders from each one "
                       f"not maximally open, N <= {max_n}")


def check_monodromy(max_n: int, converse_max_n: int = 6) -> CheckResult:
    """Every 3-periodic quiddity gives a plus or minus identity
    product; triangulation quiddities give minus identity; the bounded
    converse holds."""
    for n_vertices in range(3, max_n + 1):
        for q in three_periodic_quiddities(n_vertices):
            if classify_monodromy(q).classification == NEITHER:
                return CheckResult("monodromy", False, f"quiddity {q} is not plus/minus identity")
    for n_vertices in range(3, min(max_n, 9) + 1):
        for d in enumerate_dissections(n_vertices, n_vertices - 2):
            kind = classify_monodromy(quiddity(d).entries).classification
            if kind != MINUS_IDENTITY:
                return CheckResult("monodromy", False,
                                   f"triangulation {d} product is not minus identity")
    for n_vertices in range(3, converse_max_n + 1):
        report = verify_monodromy_correspondence(n_vertices)
        if report["forward_failures"] or report["converse_extra"] or report["converse_missing"]:
            return CheckResult("monodromy", False, f"converse failed at N={n_vertices}")
    return CheckResult("monodromy", True,
                       f"forward N <= {max_n}, converse N <= {converse_max_n}")


def check_series(order: int = 14) -> CheckResult:
    """Fixed-point solutions against the closed forms, coefficient by
    coefficient, plus the quiddity series composition."""
    def with_cells(f: Callable[[int, int], int]) -> Callable[[int, int], int]:
        # with no cell, only the 2-gon's empty dissection is counted
        return lambda n, m: f(n, m) if m else int(n == 0)

    cases = [
        ("catalan", series.solve_named("catalan", order),
         lambda n, m: 0 if m else formulas.catalan(n)),
        ("general", series.solve_named("kirkman-cayley", order),
         with_cells(formulas.kirkman_cayley)),
        *[(f"period-{ell}", series.solve_named("ell-periodic", order, ell),
           with_cells(lambda n, m, ell=ell: formulas.ell_periodic_count(n, m, ell)))
          for ell in (2, 3)],
        ("tri-quad", series.solve_named("tri-quad", order), with_cells(formulas.tri_quad_count)),
        ("quiddity series", series.solve_named("q", order),
         with_cells(formulas.quiddity_count_3periodic)),
    ]
    for label, sol, closed in cases:
        for n in range(order + 1):
            for m in range(n + 1):
                if sol.coefficient(n, m) != closed(n, m):
                    return CheckResult("series-solver", False, f"{label} at z^{n} w^{m}")
    return CheckResult("series-solver", True, f"five equations to order {order}")


def check_lagrange(max_order: int = 12) -> CheckResult:
    """The inversion identity reproduces the dissection counts from
    phi(y) = 1 + wy/(1 - y - wy)."""
    phi = dissection_inversion_series(max_order)
    for n in range(1, max_order + 1):
        poly = series.lagrange_invert(phi, n)
        for m, coeff in enumerate(poly):
            if coeff != formulas.kirkman_cayley(n - 1, m):
                return CheckResult("lagrange-inversion", False, f"z^{n} w^{m}")
    return CheckResult("lagrange-inversion", True, f"orders 1..{max_order}")


def dissection_inversion_series(order: int) -> series.BivariateSeries:
    """phi(y) = 1 + w y / (1 - y - w y), the inversion kernel whose
    z-coefficients are rows of the dissection-count table."""
    y_plus_wy = series.BivariateSeries.monomial(order, 1, 0) + \
        series.BivariateSeries.monomial(order, 1, 1)
    return series.BivariateSeries.one(order) + \
        series.BivariateSeries.monomial(order, 1, 1) * series.geometric_sum(y_plus_wy)


def check_table(max_n: int = 14) -> CheckResult:
    """The closed-form quiddity counts against the known small table."""
    for (n, m), want in known_quiddity_table(max_n).items():
        got = formulas.quiddity_count_3periodic(n, m)
        if got != want:
            return CheckResult("quiddity-table", False, f"(n={n}, m={m}): {got} != {want}")
    return CheckResult("quiddity-table", True, f"all entries, n <= {max_n}")


def known_quiddity_table(max_n: int = 14) -> dict[tuple[int, int], int]:
    """Known counts of distinct 3-periodic quiddities by (n, m), for
    the (n+2)-gon, n <= 14, on the table's diagonals (each row lists a
    diagonal from its first entry)."""
    rows = {
        0: [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
            16796, 58786, 208012, 742900, 2674440],
        3: [1, 7, 34, 147, 605, 2431, 9646, 38012, 149226, 584630, 2288132],
        6: [1, 15, 121, 758, 4160, 21098, 101660, 472872],
        9: [1, 26, 315, 2710, 19234],
        12: [1, 40],
    }
    table = {}
    for offset, entries in formulas.quiddity_table_diagonals(max_n).items():
        table.update(zip(entries, rows[offset]))
    return table


def check_continued_fractions(max_sum: int = 12) -> CheckResult:
    """Strip-triangulation top quiddities equal the minus-sign terms
    for every plus-sign expansion with bounded term sum."""
    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    checked = 0
    for total in range(2, max_sum + 1):
        for length in range(2, total + 1, 2):
            for terms in compositions(total, length):
                cf = RegularContinuedFraction(terms)
                d, tops = strip_triangulation(cf)
                q = quiddity(d).entries
                if tuple(q[v] for v in tops[:-1]) != regular_to_hj(cf).terms:
                    return CheckResult("continued-fractions", False, f"terms {terms}")
                checked += 1
    return CheckResult("continued-fractions", True, f"{checked} expansions, term sum <= {max_sum}")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a worker process, set as
    the cause of the exception when it is raised again in the caller."""


def _take(fn: Callable[[object], object], tasks: Sequence, queue: int) -> dict[int, tuple]:
    """Run ``fn`` on each task whose index this process takes from the
    ``queue`` pipe, until the pipe is empty: index -> (True, value), or
    (False, exception, traceback text) for a task that raised."""
    done: dict[int, tuple] = {}
    while record := os.read(queue, 1):
        index = record[0]
        try:
            done[index] = (True, fn(tasks[index]))
        except Exception as exc:
            import traceback  # only a failing check needs it

            done[index] = (False, exc, traceback.format_exc())
    return done


# The least total cost, in ms, of the tasks that ``_fork_map`` is told
# the costs of, for it to fork: a smaller suite runs in this process.  A
# forked child plans again the walk tables that checks run in one process
# share, every page either process writes while both live is copied, and
# a fork, exit and reap alone take about 1.5 ms.  Measured on 2 cores,
# Python 3.11.7, in one process with the walk tables cleared before each
# run, median of 9, forked against in-process: suites costed at 92, 102
# and 605 ms took 87 against 105, 76 against 110 and 361 against 635 ms.
# The fast scope, costed at 40 ms, took 30-47 ms forked and 41-46 ms
# in-process from run to run there; in the benchmark's larger process,
# running it in-process cut the families session's wall time by 6%.
# 100 ms leaves the fast scope room to grow before it forks.
FORK_MIN_MS = 100


def _fork_map(
    fn: Callable[[object], object], tasks: Sequence, costs: Sequence[float] | None = None
) -> list:
    """``[fn(task) for task in tasks]``, run on up to one process per
    usable CPU when the tasks' ``costs`` (their estimated times in ms,
    one per task) sum to ``FORK_MIN_MS`` or more, or are not given.

    The task indices are queued on one pipe, one byte each, longest
    first by ``costs`` (in task order without them), before any worker
    starts, so there may be at most 256 tasks (a pipe takes at least 512
    bytes in one write).  This process and ``w - 1`` forked children,
    ``w`` being the smaller of the task count and the usable CPUs, each
    take the next index until the pipe is empty.  A child sends its
    values back pickled, and they come back in task order.  With costs
    summing under ``FORK_MIN_MS``, one CPU, no ``os.fork``, or a second
    live thread (a fork copies only the calling thread, so a lock
    another thread holds would stay held in the child), the same loop
    runs in this process alone, in the same queue order.

    Every task runs.  Then the exception of the first task in task order
    that raised, if any, is raised again here; one raised in a child
    keeps its type, with the child's traceback as its cause.  Every
    child is reaped before this returns or raises.  A child never
    returns into the caller: it ends with ``os._exit`` whatever happens.
    """
    tasks = list(tasks)
    order = range(len(tasks))
    workers = min(len(tasks), _usable_cpus())
    if costs is not None:
        order = sorted(order, key=lambda index: -costs[index])
        if sum(costs) < FORK_MIN_MS:
            workers = 1
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    if workers > 1:
        # imported here, so that a process that never forks the suite
        # does not hold them (pickle alone is about 0.25 MB)
        import pickle
        import signal
        import traceback
    queue, fill = os.pipe()
    os.write(fill, bytes(order))
    os.close(fill)
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child: take tasks, send their values, exit
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as sink:
                        pickle.dump(_take(fn, tasks, queue), sink)
                    status = 0
                except BaseException:  # not re-raised: that would unwind into the caller
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write_end)
            children[pid] = read_end
        done = _take(fn, tasks, queue)
        while children:
            pid, read_end = children.popitem()
            with open(read_end, "rb") as source:
                sent = source.read()
            _, status = os.waitpid(pid, 0)
            if status:
                raise ChildProcessError(f"worker process {pid} ended with status {status}")
            done.update(pickle.loads(sent))
    finally:
        os.close(queue)
        for pid, read_end in children.items():  # left only when raising
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for index in range(len(tasks)):
        if not done[index][0]:
            _, exc, text = done[index]
            if exc.__traceback__ is None:  # it was raised in a child
                exc.__cause__ = _ChildTraceback(text)
            raise exc
    return [done[index][1] for index in range(len(tasks))]


def run_all(scope: str = "fast") -> list[CheckResult]:
    """The oracle-equivalence suite at the configured polygon caps, one
    result per check, in a fixed order.

    The checks are independent and go through ``_fork_map`` with their
    measured times as costs: queued longest first, they run in this
    process when those sum under ``FORK_MIN_MS`` (the fast scope), and
    otherwise (the full scope) on the usable CPUs.  The results, and so
    the lines ``verify-all`` prints, are the same either way, as they
    are on one CPU or when the caller has a second live thread."""
    if scope not in ("fast", "full"):
        raise ValueError(f"scope must be 'fast' or 'full', got {scope!r}")
    fast = scope == "fast"
    max_n = 8 if fast else 10
    quiddity_max_n = 8 if fast else 11
    # (check, arguments, its time in ms run alone in a fresh interpreter,
    # the median of 15 taken round robin over the checks on a 2-core
    # machine, Python 3.11.7): the costs ``_fork_map`` sums and queues
    # longest first, so that no long check starts last.  They sum to 40 ms
    # at fast scope, run in one process in 41-46 ms, and to 0.60 s at full
    # scope, forked onto both cores in about 0.36 s
    checks: list[tuple[Callable[..., CheckResult], tuple, float]] = [
        (check_table, (), 0.1),
        (check_dissection_counts, (max_n,), 6.5 if fast else 63),
        (check_quiddity_counts, (quiddity_max_n,), 2.6 if fast else 116),
        (check_quiddity_sum, (7 if fast else 9,), 2.4 if fast else 52),
        (check_equal_size_injectivity, (9 if fast else 12,), 2.1 if fast else 62),
        (check_witnesses, (9,), 6.6),
        (check_surgery_classes, (8 if fast else 10, 5 if fast else 20), 6.6 if fast else 143),
        (check_monodromy, (8 if fast else 10, 5 if fast else 6), 5.3 if fast else 41),
        (check_series, (12 if fast else 14,), 1.7 if fast else 2.1),
        (check_lagrange, (10 if fast else 12,), 0.9 if fast else 1.5),
        (check_continued_fractions, (8 if fast else 12,), 5.3 if fast else 118),
    ]
    return _fork_map(lambda check: check[0](*check[1]), checks, [ms for _, _, ms in checks])
