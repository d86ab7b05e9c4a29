"""Benchmark ctq end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 40 --trace 0

Run from the root of a ctq source tree.  The workload runs whole rounds of
operations in this process until the next round would end past --seconds,
checks every output, and prints one JSON object as the last line of stdout.
Set-up is timed in fresh interpreters (perfbench/prepare.py): importing ctq,
plus building the state corpus on state-files; a group of set-ups runs
before the first round and after every round, so that set-up is sampled
over the same stretch of time as the rounds.

With --trace 1 the first half of --seconds runs untraced rounds, which time
the acceptance criteria, and the second half traced ones, which give the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from _paths import HERE, OUT, ROOT, SRC

SETUP_GROUP = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("curves", "accept", "state-files"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setups(workload: str, seed: int, times: list[float], n: int) -> None:
    """Run prepare.py in n fresh interpreters; append the time from launching
    each to the stamp it prints once its inputs are built."""
    for _ in range(n):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)


class Tally:
    """What the rounds of a run did: round times, latency samples, outcomes."""

    def __init__(self):
        self.rounds: list[float] = []
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = self.failed = self.wrong = 0


def run_rounds(wl, seconds: float, tally: Tally, after_round=lambda: None) -> None:
    """Whole rounds until the next one would end past the deadline; at least one.

    after_round runs after each round and its checks; its time counts
    neither towards the round nor towards the deadline.
    """
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        recs = wl.run_round()
        tally.rounds.append(time.perf_counter() - t0)
        for rec, ok in zip(recs, wl.check(recs)):
            tally.attempted += 1
            tally.failed += not (rec.ok and ok)
            tally.wrong += rec.ok and not ok
            tally.by_label.setdefault(rec.label, []).append(rec.seconds)
        tally.latencies += wl.latencies(recs)
        last = time.perf_counter() - t0
        spent += last
        after_round()
        if spent + last > seconds:
            return


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, as statistics.quantiles(method='inclusive')."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctq", "__init__.py")):
        print(f"error: no ctq sources under {SRC}; run from a ctq checkout", file=sys.stderr)
        return 2
    setups: list[float] = []
    # with --trace 1 a single set-up only writes the inputs; it is not reported
    time_setups(args.workload, args.seed, setups, 1 if args.trace else SETUP_GROUP)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(OUT, args.workload))
    wl.warmup()
    tally = Tally()

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if not args.trace:
        run_rounds(
            wl, args.seconds, tally, lambda: time_setups(args.workload, args.seed, setups, SETUP_GROUP)
        )
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(tally.rounds), "s"),
            "op_p50_ms": metric(percentile(tally.latencies, 50) * 1e3, "ms"),
            "op_p99_ms": metric(percentile(tally.latencies, 99) * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from spans import Tracer

        run_rounds(wl, args.seconds / 2, tally)
        untraced = statistics.median(tally.rounds)
        traced = Tally()
        tracer = Tracer()
        tracer.install()
        try:
            run_rounds(wl, args.seconds / 2, traced)
        finally:
            tracer.uninstall()
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.wrong += traced.wrong
        layers = tracer.layer_metrics(len(traced.rounds))
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
        metrics["monogamy.alloc_peak_mb"] = metric(tracer.alloc_peak_mb(), "MB")
        metrics["trace.wall_s"] = metric(statistics.median(traced.rounds), "s")
        metrics["trace.overhead_s"] = metric(statistics.median(traced.rounds) - untraced, "s")
        for name in workloads.checks.ACCEPTANCE_CRITERIA:
            times = tally.by_label.get(name) if args.workload == "accept" else None
            metrics[f"acceptance.{name}_s"] = metric(statistics.median(times) if times else 0.0, "s")
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
