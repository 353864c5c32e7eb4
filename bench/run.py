#!/usr/bin/env python3
"""The splitjac benchmark: one command, stdlib only; the ops run in this process, unthreaded.

Run it from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

The workloads (pipeline, deep, fan, cli) and the reason for each are in
workloads.py.  A run builds the workload's op list from the seed and drives
splitjac through its public API in a closed loop: the next op starts when the
previous one returns.  It makes whole passes over the list until the ops have
taken --seconds seconds, and at least the workload's min_passes.  Each output
is checked exactly outside the timed interval, and every pass must give the
same outcomes and exact counts as the first.

--trace 0 reports the end-to-end metrics, with times at the reference speed
(see REFERENCE_S).  ops_per_s is the rate of a pass in which every op takes its
median latency, op_p50_ms the median op's median latency, op_tail_ms a
percentile of all latencies (see tail_percentile), and setup_s the median of
about SETUP_PROBES fresh interpreters started between passes.  --trace 1 makes at least two untraced
passes in half the time, then the same traced; it reports the per-layer
metrics per op and the tracing overhead, and writes the spans to bench/out/.
Readable lines come first; the last line of stdout is the JSON result.  The
exit code is 0 whenever a result is printed, including one with "correct": false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
TAIL_LADDER = (50, 75, 80, 85, 90, 95, 98, 99, 99.9)
TAIL_BEYOND = 10

# Other tenants of a shared machine can make identical work take up to twice as
# long for minutes at a time, and the process's CPU time grows with its wall time.
# So each timed interval is bracketed by a fixed reference loop of exact arithmetic
# that uses no splitjac code, and the reported end-to-end times are
#     measured time * REFERENCE_S / (mean of the reference times before and after),
# the time the work takes when the reference loop takes REFERENCE_S: its time on an
# otherwise idle Intel Xeon at 2.1 GHz under CPython 3.11.  A change to splitjac
# cannot move the reference.  The wall-clock figures are printed beside them.
REFERENCE_LOOPS = 100
REFERENCE_S = 0.000435

# A fresh interpreter until the first op is ready: the import plus the first stab_sigma().
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import splitjac; "
               "splitjac.stab_sigma(); print('ready', flush=True)")

# failed_ratio is printed by name; the JSON result carries ok_ratio = 1 - failed_ratio
# instead, because a metric with a bound must never read 0.
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MiB"}


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def reference_time() -> float:
    """The median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, REFERENCE_LOOPS + 1):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Run:
    wall: list  # per op of the list, its wall-clock latency in seconds in each pass
    scaled: list  # the same latencies at reference speed
    refs: list = field(default_factory=list)  # every reference time taken
    passes: int = 0
    failures: Counter = field(default_factory=Counter)  # (op label, reason) -> times
    wrong: int = 0  # ops whose output failed its check
    drift: list = field(default_factory=list)  # passes that differ from the first
    output_counts: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return self.passes * len(self.wall)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.drift

    @property
    def speed(self) -> float:
        """Machine speed during the run relative to the reference speed."""
        return REFERENCE_S / statistics.median(self.refs)


def _flat(per_op) -> list:
    return [t for samples in per_op for t in samples]


def run_passes(workload, seconds: float, min_passes: int, tracer=None,
               exact_counts=(), after_pass=None) -> Run:
    run = Run([[] for _ in workload.ops], [[] for _ in workload.ops])
    first, busy = None, 0.0
    while run.passes < min_passes or busy < seconds:
        outcomes, counts = [], Counter()
        before = {k: tracer.counts[k] for k in exact_counts} if tracer else {}
        ref = reference_time()
        for index, op in enumerate(workload.ops):
            t0 = perf_counter()
            try:
                out = tracer.call_op(index, op.run) if tracer else op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                t1 = perf_counter()
                outcome = ("raised", type(exc).__name__)
            else:
                t1 = perf_counter()
                try:
                    signature, op_counts = op.check(out)
                except Exception as exc:  # a changed output type is a wrong output too
                    outcome = ("wrong output", f"{type(exc).__name__}: {exc}")
                    run.wrong += 1
                else:
                    outcome = ("ok", signature)
                    counts.update(op_counts)
                del out
            ref_after = reference_time()
            run.wall[index].append(t1 - t0)
            run.scaled[index].append(at_reference_speed(t1 - t0, ref, ref_after))
            run.refs.append(ref_after)
            ref = ref_after
            busy += t1 - t0
            outcomes.append(outcome)
            if outcome[0] != "ok":
                run.failures[(op.label, outcome[0] + ": " + outcome[1])] += 1
        run.output_counts.update(counts)
        traced = {k: tracer.counts[k] - before[k] for k in exact_counts} if tracer else {}
        this = (outcomes, counts, traced)
        if first is None:
            first = this
        elif this != first:
            run.drift.append(_describe_drift(workload, run.passes, first, this))
        run.passes += 1
        if after_pass is not None:
            after_pass(busy)
    return run


def _describe_drift(workload, index, first, this) -> str:
    for op, a, b in zip(workload.ops, first[0], this[0]):
        if a != b:
            got = "another output" if a[0] == b[0] else b[0]
            return f"pass {index}: '{op.label}' gave {got}; pass 0 gave {a[0]}"
    return f"pass {index}: exact counts changed from {dict(first[1]) | first[2]} " \
           f"to {dict(this[1]) | this[2]}"


def tail_percentile(workload) -> float:
    """The highest ladder percentile with TAIL_BEYOND samples beyond it in the
    workload's min_passes passes.

    It depends only on the workload, so it is the same in every run however many
    passes the run makes; a run makes at least min_passes, so it always has at
    least TAIL_BEYOND samples beyond it.
    """
    n = workload.min_passes * len(workload.ops)
    return max((p for p in TAIL_LADDER if n - math.ceil(p * n / 100) >= TAIL_BEYOND),
               default=TAIL_LADDER[0])


def throughput(per_op) -> float:
    """Ops per second over a pass in which every op takes its median latency."""
    return len(per_op) / math.fsum(statistics.median(samples) for samples in per_op)


def typical(per_op) -> float:
    """The median op's latency: the lower median, over the ops of the list, of each
    op's median latency.  An op list has few distinct costs, and the plain median
    of all samples would average two of them whenever half the ops cost less."""
    return statistics.median_low(statistics.median(samples) for samples in per_op)


def percentile(values, p: float) -> float:
    xs = sorted(values)
    return xs[math.ceil(p * len(xs) / 100) - 1]  # nearest rank


def setup_time() -> float:
    """Wall time from spawning a fresh interpreter until its first op is ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return t1 - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "deep", "fan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "splitjac" / "__init__.py").is_file():
        print(f"error: the splitjac sources are not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splitjac
    import tracing
    import workloads

    workload = workloads.BY_NAME[args.workload](args.seed)
    splitjac.stab_sigma()  # the same lazy set-up that setup_s times
    context = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops_per_pass": len(workload.ops),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        setup_time()  # warms the file cache and writes the byte-code files
        setups = []  # (wall, at reference speed)

        def spread_setups(busy):  # about SETUP_PROBES set-ups, spread over the run
            if busy >= len(setups) * args.seconds / SETUP_PROBES:
                ref = reference_time()
                wall = setup_time()
                setups.append((wall, at_reference_speed(wall, ref, reference_time())))
        runs = [run_passes(workload, args.seconds, workload.min_passes,
                           after_pass=spread_setups)]
        run = runs[0]
        p = tail_percentile(workload)
        scaled, wall = _flat(run.scaled), _flat(run.wall)
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "ops_per_s": throughput(run.scaled),
            "op_p50_ms": typical(run.scaled) * 1e3,
            "op_tail_ms": percentile(scaled, p) * 1e3,
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes = {"failed_ratio": run.failed / run.attempted,
                 "op_tail_percentile": p, "latency_samples": run.attempted,
                 "passes": run.passes, "speed_vs_reference": run.speed,
                 "wall_setup_s": statistics.median(w for w, _ in setups),
                 "wall_ops_per_s": throughput(run.wall),
                 "wall_op_p50_ms": typical(run.wall) * 1e3,
                 "wall_op_tail_ms": percentile(wall, p) * 1e3}
    else:
        plain = run_passes(workload, args.seconds / 2, 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = run_passes(workload, args.seconds / 2, 2, tracer, tracing.EXACT_COUNTS)
        finally:
            tracer.uninstall()
        runs = [plain, run]
        metrics = tracer.per_layer(run.attempted, run.output_counts, run.speed)
        units = dict(tracing.PER_LAYER)
        plain_rate, traced_rate = throughput(plain.scaled), throughput(run.scaled)
        notes = {"trace_overhead_pct": (plain_rate / traced_rate - 1) * 100,
                 "untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
                 "traced_passes": run.passes, "speed_vs_reference": run.speed,
                 "spans": len(tracer.spans)}
        if tracer.missing:
            notes["untraced_missing"] = tracer.missing
        if tracer.counts["bench.uncountable_results"]:
            notes["uncountable_results"] = tracer.counts["bench.uncountable_results"]
        tracer.write(stem.with_suffix(".spans.jsonl"), context)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = all(r.correct for r in runs)
    failures = Counter()
    for r in runs:
        failures.update(r.failures)
    drift = [msg for r in runs for msg in r.drift]

    print(f"workload {args.workload}: {workload.why}")
    print("context " + json.dumps(context))
    for name, value in metrics.items():
        print(f"{name:<40} {_fmt(value):>14} {units[name]}")
    for name, value in notes.items():
        print(f"{name:<40} {_fmt(value):>14}")
    for (label, reason), times in sorted(failures.items()):
        print(f"failed op: {label}: {reason} (x{times})")
    for msg in drift:
        print(f"error: not repeatable: {msg}", file=sys.stderr)
    if not correct:
        print("error: some outputs are wrong or did not repeat; see above", file=sys.stderr)

    detail = {"context": context, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": {n: {"value": v, "unit": units[n]}
                                            for n, v in metrics.items()},
              "notes": notes, "drift": drift,
              "failures": [{"op": label, "reason": reason, "times": times}
                           for (label, reason), times in sorted(failures.items())]}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
