"""Benchmark of the ``quiddity`` command line, run in-process.

    python3 bench/run.py --workload families --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each op calls
``quiddity.cli.main(argv, out=buffer)`` and the next op starts when it
returns.  The workload's op list (a session) is built from the seed and
run again and again, each time on a freshly imported package and an
empty result cache, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` ops have been timed.  Each op starts from a collected
heap, and each timing is scaled to one machine speed by a reference
kernel timed next to it (``calibrated``).  After timing, every op's output is
checked by ``oracles.check`` and compared byte for byte with the same op
in the other sessions and with earlier runs of the same argv.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer wrapped (``tracing.py``), and
prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object; the lines before it repeat each
metric with its unit for people.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import zlib
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 200  # so that at least ten op latencies lie beyond the 95th percentile
SETUP_IMPORTS = 15  # fresh imports before the first session, for setup_s
TIME_CAP_S = 150  # stop starting sessions after this, whatever --seconds says
REF_NOMINAL_S = 0.001  # seconds the reference kernel is scaled to (see calibrated)
REF_WINDOW = 4  # an op's speed is the median reference time of the 2*4+1 ops around it

END_TO_END = [
    ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p95_ms", "ms"),
    ("dissections_per_s", "1/s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"),
]


def reference_kernel() -> int:
    """Fixed pure-Python work of the harness's own: tuples, a dict, calls
    and a sort, like the program's inner loops.  It is timed before every
    op and every import, so that each timing can be scaled to one machine
    speed (``calibrated``)."""
    table: dict[tuple, int] = {}
    acc = 0
    for i in range(1000):
        key = (i, i ^ 0x55, i % 13)
        table[key] = len(table)
        acc += table.get((i - 1, (i - 1) ^ 0x55, (i - 1) % 13), 0)
    return acc + len(sorted(table, key=lambda k: (k[2], -k[0])))


def reference_seconds(repeats: int = 1) -> float:
    """Median time of ``repeats`` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrated(seconds: list[float], refs: list[float], window: int = REF_WINDOW) -> list[float]:
    """Each timing scaled from the machine's speed at the time to the
    nominal speed at which the reference kernel takes ``REF_NOMINAL_S``.

    On a shared machine the speed of the same code drifts by up to 1.5x
    for seconds or minutes at a time, which the program's own code and
    the reference kernel feel alike.  ``refs[i]`` is the kernel's time
    just before timing ``i``; the speed at ``i`` is the median over the
    ``window`` timings on either side, which smooths the kernel's own
    jitter but follows the drift."""
    out = []
    for i, value in enumerate(seconds):
        local = statistics.median(refs[max(0, i - window):i + window + 1])
        out.append(value * REF_NOMINAL_S / local)
    return out


def fresh_import():
    """Drop every ``quiddity`` module and import ``quiddity.cli`` (which
    imports every layer) again; returns the module and the calibrated
    seconds the import took."""
    for name in [n for n in sys.modules if n == "quiddity" or n.startswith("quiddity.")]:
        del sys.modules[name]
    gc.collect()
    ref = reference_seconds(3)
    start = time.perf_counter()
    cli = importlib.import_module("quiddity.cli")
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "quiddity":
        raise ImportError(f"imported quiddity from {cli.__file__}, not from {SRC}")
    return cli, calibrated([seconds], [ref])[0]


class Session:
    """Latencies and outcome digests of one pass over the op list."""

    def __init__(self):
        self.latencies: list[float] = []  # calibrated, once the session has run
        self.raw_seconds = 0.0  # the uncalibrated sum of the latencies
        self.refs: list[float] = []  # reference kernel time just before each op
        self.digests: list[bytes] = []
        self.outcomes: list[tuple] = []  # kept for the first session only


def op_list_seconds(sessions: list[Session]) -> float:
    """Calibrated time to run the op list once: the sum over the ops of
    each op's median calibrated latency over the sessions."""
    return sum(statistics.median(per_op) for per_op in zip(*(s.latencies for s in sessions)))


def run_session(cli, ops, cache_dir: Path, keep: bool, tracer=None) -> Session:
    shutil.rmtree(cache_dir, ignore_errors=True)
    session = Session()
    for index, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = index
        gc.collect()
        session.refs.append(reference_seconds())
        with redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv), out=out)
            except Exception as exc:  # a traceback: the op failed
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            session.latencies.append(time.perf_counter() - start)
        text, err_text = out.getvalue(), err.getvalue()
        session.digests.append(hashlib.sha256(f"{code}\0{text}\0{err_text}".encode()).digest())
        if keep:
            session.outcomes.append((code, zlib.compress(text.encode()), err_text))
    session.raw_seconds = sum(session.latencies)
    session.latencies = calibrated(session.latencies, session.refs)
    return session


def judge(ops, sessions: list[Session]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, dissections emitted per session, reasons).

    The first session's outputs go through the oracles; every other
    session must reproduce them byte for byte, and every op with the
    same argv must print the same bytes (a cache hit equals its miss)."""
    first = sessions[0]
    bad: dict[int, str] = {}
    emitted = 0
    by_argv: dict[tuple, bytes] = {}
    for index, (op, (code, packed, err)) in enumerate(zip(ops, first.outcomes)):
        text = zlib.decompress(packed).decode()
        reason = oracles.check(op.argv, op.expect, code, text, err)
        if reason is None and by_argv.setdefault(op.argv, first.digests[index]) != first.digests[index]:
            reason = "output differs from an earlier run of the same argv"
        if reason is None:
            emitted += workloads.dissections_emitted(op, text)
        else:
            bad[index] = reason
    failed = 0
    oracle_failed = set(bad)
    for session in sessions:
        for index, digest in enumerate(session.digests):
            if index in oracle_failed or digest != first.digests[index]:
                failed += 1
                bad.setdefault(index, "output differs between sessions")
    reasons = [f"op {i} {' '.join(ops[i].argv)[:120]}: {r}" for i, r in sorted(bad.items())]
    return len(ops) * len(sessions), failed, emitted, reasons


def percentile_ms(sessions: list[Session], pct: int) -> tuple[float, int]:
    """The pct-th percentile of each session's op latencies, median over
    the sessions, in ms, and how many latencies of the whole run lie
    beyond it.

    Taken over the pooled latencies instead, a tail percentile falls
    where a few long ops of the list end, and so read the extreme
    repeats of one op rather than a steady share of the list."""
    per_session = [statistics.quantiles(s.latencies, n=100, method="inclusive")[pct - 1]
                   for s in sessions]
    value = statistics.median(per_session)
    beyond = sum(1 for s in sessions for x in s.latencies if x > value)
    return value * 1000, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quiddity" / "cli.py").is_file():
        print(f"error: no quiddity sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    began = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.make_ops(args.workload, args.seed, str(work / "cache"))
        reference_seconds(20)  # warm-up
        setup = [fresh_import()[1] for _ in range(SETUP_IMPORTS)]

        def run_until(deadline: float, traced: bool, min_samples: int, keep_first: bool):
            """Sessions until ``deadline`` has passed and ``min_samples``
            latencies exist, or the time cap is reached."""
            sessions, tracers = [], []
            while True:
                cli, seconds = fresh_import()
                setup.append(seconds)
                tracer = None
                if traced:
                    tracer = tracing.Tracer(keep_spans=not tracers)
                    tracer.install(tracing.package_modules())
                    tracers.append(tracer)
                sessions.append(run_session(cli, ops, work / "cache",
                                            keep=keep_first and not sessions, tracer=tracer))
                now = time.perf_counter()
                if now - began >= TIME_CAP_S or (
                        now >= deadline and len(sessions) * len(ops) >= min_samples):
                    return sessions, tracers

        start = time.perf_counter()
        if args.trace:
            plain, _ = run_until(start + args.seconds / 2, False, 0, True)
            traced, tracers = run_until(start + args.seconds, True, 0, False)
            sessions = plain + traced
        else:
            sessions, _ = run_until(start + args.seconds, False, MIN_SAMPLES, True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, emitted, reasons = judge(ops, sessions)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}: {len(sessions)} sessions of {len(ops)} ops; "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}, one thread, closed loop")
    for reason in reasons[:20]:
        print("FAILED " + reason)
    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} ops attempted)")

    if args.trace:
        wall_plain = op_list_seconds(plain)
        wall_traced = op_list_seconds(traced)
        rollups = [t.rollup() for t in tracers]
        metrics = {}
        for name, unit, _ in tracing.metric_names():
            if name == "trace.overhead_s":
                value = wall_traced - wall_plain
            else:
                value = statistics.median_low(r[name] for r in rollups)
            metrics[name] = {"value": value, "unit": unit}
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracers[0].write_spans(spans)
        print(f"tracing overhead {wall_traced - wall_plain:.4f} s per session "
              f"(traced wall_s {wall_traced:.4f} s, untraced {wall_plain:.4f} s, "
              f"{len(traced)} + {len(plain)} sessions)")
        print(f"spans of the first traced session: {spans.relative_to(ROOT)} "
              f"({len(tracers[0].span_name)} spans); time waited: not applicable, "
              f"single thread and no queues")
    else:
        latencies = [x for s in sessions for x in s.latencies]
        wall = op_list_seconds(sessions)
        p50 = statistics.median(statistics.median(s.latencies) for s in sessions) * 1000
        p95, beyond = percentile_ms(sessions, 95)
        values = {
            "wall_s": wall, "op_p50_ms": p50, "op_p95_ms": p95,
            "dissections_per_s": emitted / wall, "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"op latency samples: {len(latencies)}; {beyond} lie beyond op_p95_ms")
        print(f"dissections emitted per session: {emitted}; setup samples: {len(setup)}")
        print(f"uncalibrated seconds per session: median "
              f"{statistics.median(s.raw_seconds for s in sessions):.4f} s; calibrated "
              f"to the speed at which the reference kernel takes {REF_NOMINAL_S * 1000:g} ms")

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
