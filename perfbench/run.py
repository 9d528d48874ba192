#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the checkout.  With
``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead.  The line before it reports operations attempted
and failed per kind.  A missing program (no ``src/repro``) exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
    sys.exit(f"perfbench: no program to measure ({os.path.join(ROOT, 'src', 'repro')} is missing)")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.common import MIN_TAIL_SAMPLES, host_probe_ms, percentile, rss_bytes, tail  # noqa: E402
from perfbench.layers import PROBES, add_kernel_delta, kernel_snapshot, layer_metrics, METRICS  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups per run: at least SETUPS, more until they add up to
#: SETUP_SECONDS (at most MAX_SETUPS); ``setup_s`` is their median.
SETUPS = 7
SETUP_SECONDS = 2.0
MAX_SETUPS = 60
#: A traced run alternates blocks of this many traced and untraced rounds;
#: a block spans every ``k`` of the query mixes, so the two halves ask
#: the same mix of queries.
TRACE_BLOCK = 4
#: ``rss_mb`` is read after this many measured rounds, so it covers the
#: same work in every run however fast the rounds go.
RSS_ROUNDS = MIN_TAIL_SAMPLES

#: name → unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "ingest_eps": "elements/s",
    "bucket_p50_ms": "ms",
    "bucket_p95_ms": "ms",
    "query_mttd_p50_ms": "ms",
    "query_mttd_p95_ms": "ms",
    "query_mtts_p50_ms": "ms",
    "query_mtts_p95_ms": "ms",
    "answer_quality": "ratio",
    "rss_mb": "MB",
}


class Runner:
    """Drives one workload: set-up, measured rounds, checks, repeated set-ups."""

    def __init__(self, workload: Workload, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tracer = Tracer(PROBES) if trace else None
        self.kernels_seen = bool(kernel_snapshot())
        self.rounds = 0
        self.traced = [0.0, 0]
        self.untraced = [0.0, 0]

    def step(self, run) -> None:
        """Time one round; a traced run traces every other block of rounds."""
        traced = self.tracer is not None and (self.rounds // TRACE_BLOCK) % 2 == 0
        tracer = self.tracer if traced else None
        if tracer is not None:
            kernels = kernel_snapshot()
            self.workload.tracer = tracer
            tracer.install()
        start = time.perf_counter()
        try:
            run()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.remove()
                self.workload.tracer = None
                add_kernel_delta(tracer, kernels, kernel_snapshot())
        bucket = self.traced if tracer is not None else self.untraced
        bucket[0] += elapsed
        bucket[1] += 1
        self.rounds += 1

    def run(self) -> dict:
        workload = self.workload
        probes = [host_probe_ms()]
        workload.prepare()
        gc.collect()
        # The inputs and the oracle's tables live as long as the run; keep
        # them out of the collector's scans so they do not lengthen the
        # program's collection pauses.
        gc.freeze()
        rss_before = rss_bytes()
        start = time.perf_counter()
        workload.setup(keep=True)
        setups = [time.perf_counter() - start]
        workload.warm_up()

        rss = None
        target = workload.rounds_for(self.seconds)
        began = time.perf_counter()
        while self.rounds < target:
            self.step(workload.next_round())
            if self.rounds == RSS_ROUNDS:
                rss = rss_bytes() - rss_before
            workload.after_round()
        measured_s = time.perf_counter() - began
        workload.finish()
        if rss is None:
            rss = rss_bytes() - rss_before
        workload.teardown()
        workload.verify()
        while len(setups) < MAX_SETUPS and (
            len(setups) < SETUPS or sum(setups) < SETUP_SECONDS
        ):
            gc.collect()
            start = time.perf_counter()
            workload.setup(keep=False)
            setups.append(time.perf_counter() - start)
            workload.teardown()
        workload.close()
        probes.append(host_probe_ms())
        return {"setups": setups, "rss": rss, "probes": probes, "measured_s": measured_s,
                "rounds": self.rounds}


def end_to_end(workload: Workload, measured: dict) -> dict:
    record = workload.record
    mttd, mtts = record.query_ms["mttd"], record.query_ms["mtts"]
    return {
        "setup_s": statistics.median(measured["setups"]),
        "ingest_eps": record.elements / record.ingest_s,
        "bucket_p50_ms": percentile(record.bucket_ms, 50),
        "bucket_p95_ms": tail(record.bucket_ms, 95),
        "query_mttd_p50_ms": percentile(mttd, 50),
        "query_mttd_p95_ms": tail(mttd, 95),
        "query_mtts_p50_ms": percentile(mtts, 50),
        "query_mtts_p95_ms": tail(mtts, 95),
        "answer_quality": statistics.fmean(record.quality),
        "rss_mb": measured["rss"] / 2**20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, args.seconds, bool(args.trace))
    measured = runner.run()
    record = workload.record

    samples = {"buckets": len(record.bucket_ms),
               **{f"queries_{a}": len(v) for a, v in record.query_ms.items()}}
    short = {kind: n for kind, n in samples.items() if n < MIN_TAIL_SAMPLES}
    if short:
        record.problems.append(f"too few tail samples {short} (need {MIN_TAIL_SAMPLES})")
    for problem in (record.errors + record.problems)[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    operations = record.operations
    attempted = sum(entry["attempted"] for entry in operations.values())
    failed = sum(entry["failed"] for entry in operations.values())
    if args.trace:
        tracer = runner.tracer
        traced_mean = runner.traced[0] / max(1, runner.traced[1])
        untraced_mean = runner.untraced[0] / max(1, runner.untraced[1])
        extra = {
            "host.probe_ms": statistics.fmean(measured["probes"]),
            "trace.overhead_share": traced_mean / untraced_mean - 1.0 if untraced_mean else 0.0,
        }
        values, missing = layer_metrics(tracer, runner.kernels_seen, extra)
        if missing:
            print(json.dumps({"missing": missing}))
        metrics = {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
    else:
        values = end_to_end(workload, measured)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"operations": operations, "oracle_checks": record.checks,
                      "samples": samples, "rounds": measured["rounds"],
                      "measured_s": round(measured["measured_s"], 3),
                      "setups": len(measured["setups"])}))
    correct = not record.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
