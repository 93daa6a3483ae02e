"""One workload in one process: set up, time whole rounds of ops, check
every op, and print the result as the last line of standard output.

Started by run.py with the source tree's ``src`` on ``PYTHONPATH``:

    python3 perfbench/bench.py --workload mc-complete --seed 1 --seconds 5 \
        --trace 0 --root . --spawned-at <time.monotonic() of the parent>

With ``--import-only`` it stops after the imports and prints how long the
process took to get there; run.py uses such probes to take the median of
several interpreter starts (``--import-probes``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

MIN_OPS = 100        # p90 needs ten samples beyond it
MAX_TIMED_S = 70.0   # hard stop, checked between units
NOTES_KEPT = 5


class DeadlineMiss(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline. A
    BaseException, so that no `except Exception` in the library swallows it.

    A miss is counted apart from failures: whether an op that takes about
    as long as its deadline misses it depends on the machine's speed at
    that moment, and a failure count must not."""


def _alarm(signum, frame):
    raise DeadlineMiss()


class Recorder:
    """Per-op latency and failure bookkeeping for one timed phase."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self.latencies: list[float] = []
        self.failed: list[bool] = []
        self.timed_out = 0
        self.reasons: Counter = Counter()
        self.notes: list[str] = []
        self.check_s = 0.0
        self._flag: str | None = None

    def flag(self, reason: str) -> None:
        """Mark the op in progress as failed (used by library hooks)."""
        self._flag = reason

    def _record(self, latency: float, reason: str | None, note: str | None = None):
        self.latencies.append(latency)
        self.failed.append(reason is not None)
        if reason is not None:
            self.reasons[reason] += 1
            if note and len(self.notes) < NOTES_KEPT:
                self.notes.append(note)

    def op(self, fn, check=None):
        """Run fn under the deadline and record it. Failures and deadline
        misses are recorded and re-raised so that a unit issuing several
        ops stops. A missed op counts with its measured time, at least
        the deadline, in the percentiles."""
        self._flag = None
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        t0 = perf_counter()
        try:
            out = fn()
            latency = perf_counter() - t0
        except DeadlineMiss:
            self.timed_out += 1
            self._record(perf_counter() - t0, None)
            raise
        except Exception as exc:
            self._record(perf_counter() - t0, "exception", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        reason = self._flag
        if reason is None and check is not None:
            c0 = perf_counter()
            try:
                note = check(out)
            except Exception as exc:
                note = f"check raised {type(exc).__name__}: {exc}"
            self.check_s += perf_counter() - c0
            if note is not None:
                reason = "non_converged" if note == "non_converged" else "check"
                self._record(latency, reason, note)
                return out
        self._record(latency, reason)
        return out

    def fail_op(self, index: int, note: str) -> None:
        """Charge a failed check over several ops to op `index`."""
        if not self.failed[index]:
            self.failed[index] = True
            self.reasons["check"] += 1
            if len(self.notes) < NOTES_KEPT:
                self.notes.append(note)

    def fail_last(self, note: str) -> None:
        self.fail_op(-1, note)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_rounds(workload, rec: Recorder, seconds: float, rounds: int | None,
               tracer=None) -> list[float]:
    """Run whole rounds until `seconds` have passed, MIN_OPS ops are done
    and the workload's `min_rounds` have run, or exactly `rounds` rounds,
    then the workload's closing checks.
    Returns the wall time of each round."""
    t0 = perf_counter()
    walls = []
    while True:
        r0 = perf_counter()
        for unit in workload.round(len(walls), rec):
            try:
                if tracer is None:
                    unit()
                else:
                    tracer.call("bench.unit", unit)
            except (DeadlineMiss, Exception):
                pass  # recorded by the op that failed
            if perf_counter() - t0 > MAX_TIMED_S:
                break
        walls.append(perf_counter() - r0)
        elapsed = perf_counter() - t0
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif (elapsed >= seconds and rec.ops >= MIN_OPS
              and len(walls) >= workload.min_rounds) or elapsed > MAX_TIMED_S:
            break
    workload.finish(rec)
    return walls


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_library(root: Path):
    src = (root / "src").resolve()
    import cascnet
    if not Path(cascnet.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cascnet imported from {cascnet.__file__}, not from {src}")
    from cascnet import (cli, core, distributions, meanfield, montecarlo,
                         search, strategies)
    return SimpleNamespace(cli=cli, core=core, distributions=distributions,
                           meanfield=meanfield, montecarlo=montecarlo,
                           search=search, strategies=strategies)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--import-probes", default="",
                    help="comma-separated start-up times of earlier probes")
    args = ap.parse_args()
    root = Path(args.root)

    lib = load_library(root)
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS
    import_s = time.monotonic() - args.spawned_at
    if args.import_only:
        print(repr(import_s))
        return 0
    import_times = [import_s] + [float(x) for x in args.import_probes.split(",") if x]

    signal.signal(signal.SIGALRM, _alarm)
    scratch = root / ".bench_out" / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    tracer = Tracer()

    # Set-up, repeated; the traced run needs one (traced) set-up only.
    reps = 1 if traced else WORKLOADS[args.workload].setup_reps
    setup_times = []
    for rep in range(reps):
        workload = None
        gc.collect()
        workload = WORKLOADS[args.workload](lib, args.seed, scratch)
        if traced:
            layers.install(tracer, lib)
        t0 = perf_counter()
        try:
            workload.setup()
        finally:
            tracer.restore()
        setup_times.append(perf_counter() - t0)
    setup_spans, setup_counts = tracer.reset()

    hooks = Tracer()
    rec = Recorder(workload.deadline_s)
    workload.hooks(hooks, rec)
    try:
        walls = run_rounds(workload, rec, args.seconds, None)
        wall, rounds = sum(walls), len(walls)
        if traced:
            rec_t = Recorder(workload.deadline_s)
            hooks.restore()
            workload.hooks(hooks, rec_t)
            layers.install(tracer, lib)
            nan_warnings = Counter()
            with warnings.catch_warnings():
                warnings.simplefilter("always", RuntimeWarning)
                warnings.showwarning = lambda msg, cat, *a, **k: nan_warnings.update(
                    [cat.__name__])
                try:
                    # One traced round, compared with the untraced first
                    # round (the same ops), keeps the traced run short.
                    wall_t = run_rounds(workload, rec_t, args.seconds, 1, tracer)[0]
                finally:
                    tracer.restore()
            timed_spans, timed_counts = tracer.reset()
    finally:
        hooks.restore()
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(rec.failed)
    wall_ops = wall - rec.check_s
    summary = {
        "workload": args.workload, "seed": args.seed,
        "deadline_s": workload.deadline_s, "ops": rec.ops, "rounds": rounds,
        "timed_wall_s": round(wall, 4), "check_s": round(rec.check_s, 4),
        "failures": dict(rec.reasons), "failure_notes": rec.notes,
        "deadline_misses": rec.timed_out,
        "numpy": sys.modules["numpy"].__version__,
        "import_s": [round(t, 4) for t in import_times],
        "setup_rep_s": [round(t, 4) for t in setup_times],
        **workload.notes(),
    }
    correct = rec.reasons["check"] == 0 and rec.reasons["exception"] == 0
    if not traced:
        lat_ms = [1e3 * x for x in rec.latencies]
        metrics = {
            "setup_s": (statistics.median(import_times)
                        + statistics.median(setup_times), "s"),
            "ops_per_s": (rec.ops / wall_ops, "1/s"),
            "op_ms_p50": (percentile(lat_ms, 50), "ms"),
            "op_ms_p90": (percentile(lat_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_ratio": ((rec.ops - failed) / rec.ops, "ratio"),
        }
        print(f"# {args.workload}: {rec.ops} ops in {rounds} rounds, "
              f"failed_ratio={failed / rec.ops:.6f} ({failed}/{rec.ops}), "
              f"deadline_miss_ratio={rec.timed_out / rec.ops:.6f} "
              f"({rec.timed_out}/{rec.ops})")
    else:
        self_sum = Tracer.total_self(timed_spans)
        coverage = self_sum / wall_t
        correct = correct and 0.97 <= coverage <= 1.0 + 1e-9
        extra = {"deadline_misses": rec_t.timed_out,
                 "nan_warnings": nan_warnings["RuntimeWarning"]}
        values = layers.metrics(timed_spans, timed_counts, setup_spans,
                                setup_counts, tracer.absent, extra)
        values["trace_overhead_ratio"] = wall_t / walls[0]
        values["trace.self_time_coverage"] = coverage
        metrics = {k: (v, layers.unit_of(k)) for k, v in values.items()}
        summary.update(traced_ops=rec_t.ops, traced_wall_s=round(wall_t, 4),
                       spans=len(timed_spans), absent=sorted(tracer.absent))
        trace_path = root / ".bench_out" / f"trace-{args.workload}-{args.seed}.csv"
        Tracer.write({"setup": setup_spans, "timed": timed_spans}, trace_path)
        summary["trace_file"] = str(trace_path.relative_to(root))
    print("# summary " + json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": rec.ops, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
