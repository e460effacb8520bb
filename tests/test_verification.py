"""The oracle suite itself: it passes, and it can fail."""
from __future__ import annotations

import itertools
import os
import select
import threading
import time

import pytest

import quiddity.verification as verification
from quiddity import formulas, series


def test_fast_scope_is_all_green():
    results = verification.run_all("fast")
    assert [r.name for r in results].count("quiddity-table") == 1
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_bad_scope_rejected():
    with pytest.raises(ValueError):
        verification.run_all("huge")


def test_tampered_formula_is_detected(monkeypatch):
    # the suite must actually be wired to the formulas it claims to test
    monkeypatch.setattr(
        "quiddity.formulas.quiddity_count_3periodic", lambda n, m: 0)
    assert not verification.check_table().passed


def test_tampered_enumeration_is_detected(monkeypatch):
    # drops the first dissection of every N=8 family from the walk the
    # counts are read off
    real = verification._walk

    def skewed(n, m, cell_filter):
        stream = real(n, m, cell_filter)
        return itertools.islice(stream, 1, None) if n == 8 else stream

    monkeypatch.setattr(verification, "_walk", skewed)
    assert verification.check_dissection_counts(7).passed
    assert not verification.check_dissection_counts(8).passed


def _tamper_carried_quiddities(monkeypatch, edit):
    # ``edit(n, members)`` rewrites the members the checks group by quiddity
    real = verification._carried_quiddities
    monkeypatch.setattr(verification, "_carried_quiddities",
                        lambda n, m, cell_filter: edit(n, real(n, m, cell_filter)))


def test_a_repeated_equal_size_member_is_detected(monkeypatch):
    def repeat_the_first_at_9(n, members):
        first = next(members)
        yield from (first, first) if n == 9 else (first,)
        yield from members

    _tamper_carried_quiddities(monkeypatch, repeat_the_first_at_9)
    assert verification.check_equal_size_injectivity(8).passed
    result = verification.check_equal_size_injectivity(9)
    assert (result.passed, result.detail) == (False, "N=9, m=1, quiddity 1,1,1,1,1,1,1,1,1")


def test_a_lost_non_dihedral_witness_is_detected(monkeypatch):
    # at N=9 only the dihedral images of each quiddity's first member are
    # kept: equal-quiddity pairs remain there, but none a witness
    def dihedral_only_at_9(n, members):
        orbits = {}
        for chords, entries, low in members:
            d = verification.Dissection._trusted(n, chords)
            if n != 9 or d in orbits.setdefault(entries, verification.dihedral_orbit(d)):
                yield chords, entries, low

    _tamper_carried_quiddities(monkeypatch, dihedral_only_at_9)
    result = verification.check_witnesses(9)
    assert (result.passed, result.detail) == (False, "no non-dihedral pair up to N=9")


def _off_by_one_at(fn, n0, m0):
    return lambda n, m, *rest: fn(n, m, *rest) + (n == n0 and m == m0)


@pytest.mark.parametrize("name", [
    "tri_quad_count",
    # the prefactor every closed form and the generic count share: a
    # check comparing the generic count with the closed forms misses it
    "_prescribed_cells",
])
def test_tampered_closed_form_is_detected(monkeypatch, name):
    monkeypatch.setattr(formulas, name, _off_by_one_at(getattr(formulas, name), 6, 6))
    assert not verification.check_dissection_counts(8).passed


def test_dissection_counts_states_each_closed_form_comparison(monkeypatch):
    calls = []
    for name in ("kirkman_cayley", "ell_periodic_count", "tri_quad_count", "fuss"):
        def counted(*args, real=getattr(formulas, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formulas, name, counted)
    result = verification.check_dissection_counts(8)
    # 5 per (N, m), and fuss where m divides N - 2
    assert (result.passed, len(calls)) == (True, 119)
    assert result.detail == "119 closed-form comparisons, N <= 8"


@pytest.mark.parametrize("name", [
    "catalan", "kirkman_cayley", "ell_periodic_count", "tri_quad_count",
    "quiddity_count_3periodic",
])
def test_tampered_series_closed_form_is_detected(monkeypatch, name):
    real = getattr(formulas, name)
    monkeypatch.setattr(formulas, name, lambda n, *rest: real(n, *rest) + (n == 6))
    assert not verification.check_series(8).passed


def _kirkman_cayley_without_w(s):
    # S = 1 + z S^2 + z S (S - 1): w dropped from the cell term
    one, ss = series.BivariateSeries.one(s.order), s * s
    return one + ss.shift(1, 0) + (ss - s).shift(1, 0)


def _p_with_a_sign_flipped(s):
    # S = 1 + w z S^2 - z^3 S^2 (S - 1)
    one, ss = series.BivariateSeries.one(s.order), s * s
    return one + ss.shift(1, 1) - (ss * (s - one)).shift(3, 0)


@pytest.mark.parametrize("name, wrong, label", [
    ("kirkman-cayley", _kirkman_cayley_without_w, "general"),
    ("p", _p_with_a_sign_flipped, "quiddity series"),
], ids=["kirkman-cayley", "p"])
def test_a_wrong_equation_is_caught_by_the_closed_forms(monkeypatch, name, wrong, label):
    # the solver makes S = F(S) by construction, so a wrong F solves
    # normally and leaves no residual; only the closed forms see it
    s = series.solve_fixed_point(wrong, 8)
    assert wrong(s) == s
    if name == "p":
        monkeypatch.setattr(series, "p_equation", wrong)
    else:
        monkeypatch.setitem(series.NAMED_EQUATIONS, name, lambda ell: wrong)
    result = verification.check_series(8)
    assert not result.passed
    assert result.detail.startswith(f"{label} at ")


def _dropping_a_member(monkeypatch):
    real = verification.surgery_class
    monkeypatch.setattr(verification, "surgery_class",
                        lambda *args, **kwargs: frozenset(list(real(*args, **kwargs))[1:]))


def _every_member_open(monkeypatch):
    monkeypatch.setattr(verification, "is_maximally_open", lambda d: True)


def _random_orders_stay_put(monkeypatch):
    real = verification.canonicalize_maximally_open
    monkeypatch.setattr(verification, "canonicalize_maximally_open",
                        lambda d, rng=None: d if rng is not None else real(d))


@pytest.mark.parametrize("tamper, detail", [
    (_dropping_a_member, "class mismatch at N="),
    (_every_member_open, "2 maximally open members at N="),
    (_random_orders_stay_put, "order-dependent canonical form from "),
])
def test_tampered_surgery_check_is_detected(monkeypatch, tamper, detail):
    assert verification.check_surgery_classes(8, 2).passed
    tamper(monkeypatch)
    line = verification.check_surgery_classes(8, 2).line()
    assert line.startswith(f"FAIL surgery-classes — {detail}"), line


def test_check_lines_are_printable():
    result = verification.check_table()
    assert result.line().startswith("PASS quiddity-table")


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _counting_fork(monkeypatch) -> list[int]:
    """Count the children ``os.fork`` makes from here on: the list of
    their pids, as the parent saw them."""
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def forking(monkeypatch):
    """Two workers whatever the machine, and no suite too small to fork,
    so that a child is forked; a test may raise the count.  The pids of
    the children forked, as a list."""
    if threading.active_count() > 1:
        pytest.skip("another thread is live, so every run stays in-process")
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verification, "FORK_MIN_MS", 0)
    return _counting_fork(monkeypatch)


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_forked_checks_print_the_single_process_lines(monkeypatch, forking, scope):
    forked = [r.line() for r in verification.run_all(scope)]
    assert len(forking) == 1
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    assert [r.line() for r in verification.run_all(scope)] == forked
    assert len(forking) == 1
    assert _no_child_left()


def test_the_fast_suite_stays_in_process_and_the_full_suite_forks(monkeypatch):
    # the default threshold on two CPUs: the fast scope's checks cost too
    # little to pay for a fork, the full scope's pay for one child
    if threading.active_count() > 1:
        pytest.skip("another thread is live, so every run stays in-process")
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    real_fork = os.fork

    def no_fork():
        raise AssertionError("the fast suite forked")

    monkeypatch.setattr(os, "fork", no_fork)
    in_process = [r.line() for r in verification.run_all("fast")]
    monkeypatch.setattr(os, "fork", real_fork)
    forks = _counting_fork(monkeypatch)
    assert all(r.passed for r in verification.run_all("full"))
    assert len(forks) == 1
    # the lines the fast suite prints when it forks, as it always did
    monkeypatch.setattr(verification, "FORK_MIN_MS", 0)
    assert [r.line() for r in verification.run_all("fast")] == in_process
    assert len(forks) == 2
    assert _no_child_left()


def test_each_task_runs_once_and_comes_back_in_task_order(monkeypatch, forking):
    # more workers than cores share one queue, taken in another order
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 4)
    ran_r, ran_w = os.pipe()
    tasks = list(range(256))

    def fn(task):
        os.write(ran_w, bytes([task]))  # one byte: atomic across processes
        return task * task

    try:
        # costs that queue the tasks in reverse
        results = verification._fork_map(fn, tasks, tasks)
        ran = os.read(ran_r, 1024)
    finally:
        os.close(ran_r)
        os.close(ran_w)
    assert results == [t * t for t in tasks]
    assert sorted(ran) == tasks
    assert _no_child_left()


def test_cheap_tasks_run_here_longest_first():
    # costs summing under FORK_MIN_MS: every task runs in this process,
    # taken from the queue longest first, and comes back in task order
    ran = []

    def fn(task):
        ran.append(task)
        return -task

    assert verification._fork_map(fn, [2, 0, 3, 1], [2, 0, 3, 1]) == [-2, 0, -3, -1]
    assert ran == [3, 2, 1, 0]


def test_an_exception_in_a_child_is_raised_in_the_caller(forking):
    parent = os.getpid()
    signal_r, signal_w = os.pipe()

    def fn(task):
        if os.getpid() == parent:
            # hold this process's task until a child has taken the other
            select.select([signal_r], [], [], 30)
            return task
        os.write(signal_w, b"x")
        raise KeyError(task)

    try:
        with pytest.raises(KeyError) as info:
            verification._fork_map(fn, [0, 1])
        assert isinstance(info.value.__cause__, verification._ChildTraceback)
        assert "raise KeyError(task)" in str(info.value.__cause__)
    finally:
        os.close(signal_r)
        os.close(signal_w)
    assert _no_child_left()


def test_a_check_that_raises_is_raised_by_run_all(monkeypatch, forking):
    def broken(*args):
        raise ArithmeticError("broken check")

    monkeypatch.setattr(verification, "check_series", broken)
    with pytest.raises(ArithmeticError, match="broken check"):
        verification.run_all("fast")
    assert len(forking) == 1
    assert _no_child_left()


def test_a_tamper_reaches_the_forked_checks(monkeypatch, forking):
    # a fork copies the patched module, so each check sees the tamper
    monkeypatch.setattr(formulas, "kirkman_cayley", _off_by_one_at(formulas.kirkman_cayley, 6, 6))
    _every_member_open(monkeypatch)
    failed = [r for r in verification.run_all("fast") if not r.passed]
    assert [r.name for r in failed] == [
        "dissection-counts", "surgery-classes", "series-solver", "lagrange-inversion"]
    assert "maximally open members" in failed[1].detail
    assert len(forking) == 1
    assert _no_child_left()


def _slow_pid(task):
    # slow enough that a forked child takes some of the tasks
    time.sleep(0.05)
    return os.getpid()


def test_a_second_live_thread_keeps_the_run_in_process(forking):
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        pids = verification._fork_map(_slow_pid, range(8))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert pids == [os.getpid()] * 8


def test_forks_one_child_per_extra_cpu(forking):
    pids = set(verification._fork_map(_slow_pid, range(8)))
    assert os.getpid() in pids and len(pids) == 2
    assert _no_child_left()
