#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at reduced size with every
oracle check, then planted errors the oracle must reject.

Usage, from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every reduced workload passes all its checks with no failed
operation and every planted error is caught.
"""

from __future__ import annotations

import copy
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import oracle as reference  # noqa: E402
from perfbench.run import Runner  # noqa: E402
from perfbench.workloads import WORKLOADS, Record  # noqa: E402

#: The oracle checks each workload must run at least once.
EXPECTED_CHECKS = {
    "ingest": {"bucket_commits", "ranked_lists", "answers", "quality"},
    "query": {"ranked_lists", "answers", "quality"},
    "serve": {"answers", "quality", "subscribers", "skipped_queries"},
    "sharded": {"answers", "quality"},
}


def run_reduced(name: str, seed: int, trace: bool):
    workload = WORKLOADS[name](seed, reduced=True)
    Runner(workload, 3.0, trace).run()
    return workload


def main() -> int:
    failures = []
    started = time.perf_counter()
    kept = {}
    for name in sorted(WORKLOADS):
        workload = run_reduced(name, seed=3, trace=name == "query")
        record = workload.record
        ran = {kind for kind, entry in record.checks.items() if entry["passed"] + entry["failed"]}
        failed_ops = sum(entry["failed"] for entry in record.operations.values())
        status = "ok"
        if record.problems or record.errors or failed_ops or not EXPECTED_CHECKS[name] <= ran:
            status = "FAILED"
            failures.append(name)
        print(f"{name:8s} {status}: checks {record.checks}")
        for line in (record.errors + record.problems)[:5]:
            print(f"    {line}")
        kept[name] = workload

    # -- planted errors -------------------------------------------------------------------
    planted = []

    query = WORKLOADS["query"](5, reduced=True)
    query.prepare()
    query.setup(keep=True)
    for _ in range(3):
        query.next_round()()
    index = query.engine.backend.processor.ranked_lists
    program = [list(index.items(topic)) for topic in range(index.num_topics)]
    state = query.oracle.state(query.check_time)
    planted.append(("unchanged ranked lists pass", not reference.check_ranked_lists(state, program)))
    topic = max(range(len(program)), key=lambda t: len(program[t]))
    perturbed = copy.deepcopy(program)
    element_id, score = perturbed[topic][0]
    perturbed[topic][0] = (element_id, score * (1 + 1e-6))
    planted.append(("one ranked-list score off by 1e-6", bool(reference.check_ranked_lists(state, perturbed))))
    dropped = copy.deepcopy(program)
    dropped[topic].pop()
    planted.append(("one ranked-list tuple missing", bool(reference.check_ranked_lists(state, dropped))))

    answer = query.record.answers[-1]
    state = query.oracle.state(answer.time, answer.logged)
    vector = query.oracle.query_vector(answer.keywords)
    ids = list(answer.element_ids)
    planted.append(("unchanged answer passes",
                    not reference.check_answer(state, vector, answer.k, ids, answer.score)))
    outsider = next(int(e) for e in state.active if int(e) not in ids)
    swapped = ids[:-1] + [outsider]
    planted.append(("one returned id replaced",
                    bool(reference.check_answer(state, vector, answer.k, swapped, answer.score))))
    planted.append(("returned id not active",
                    bool(reference.check_answer(state, vector, answer.k, ids[:-1] + [-1], answer.score))))
    planted.append(("score off by 1e-7",
                    bool(reference.check_answer(state, vector, answer.k, ids, answer.score * (1 + 1e-7)))))
    planted.append(("k exceeded",
                    bool(reference.check_answer(state, vector, 1, ids[:2], state.value(ids[:2], vector)))))
    weakest = [int(e) for e in state.active[(state.delta @ vector).argsort()[:answer.k]]]
    _, problems = reference.quality(state, vector, answer.k, "mttd", weakest, 0.1)
    planted.append(("a poor answer misses the MTTD bound", bool(problems)))
    query.teardown()
    query.close()

    serve = kept["serve"]
    session = next(s for s in serve.sessions if s.deltas)
    session.deltas.pop()
    serve.record = Record()
    serve._verify_pushes()
    planted.append(("one push delta lost", bool(serve.record.checks["subscribers"]["failed"])))

    for label, caught in planted:
        print(f"planted: {label:40s} {'ok' if caught else 'NOT CAUGHT'}")
        if not caught:
            failures.append(label)
    print(f"self-test {'passed' if not failures else 'FAILED'} in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
