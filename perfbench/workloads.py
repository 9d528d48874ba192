"""The four benchmark workloads.

Every workload drives the program through its public API only
(:class:`repro.KSIREngine`, :class:`repro.EngineConfig`,
:func:`repro.server.create_app` and the dataset generator), in closed-loop
*rounds*: one round is a fixed group of operations, and a run executes a
fixed number of whole rounds (see :class:`Workload`).  Oracle checks run
between rounds or after the measured phase, never inside a timed region.

The engine is configured as ``repro-ksir server`` configures it: keyword
inference with ``QUERY_INFERENCE`` (α = 0.05, sparsity 0.05).  Every
thread pool the program opens is sized to at most the CPU count, and no
option is set whose removal is planned (batched ingest, store choice,
kernel selection, shared-memory transport), so a change that removes one
runs this benchmark unchanged.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import ClusterConfig, EngineConfig, KSIREngine, ProcessorConfig, ScoringConfig
from repro.api import QUERY_INFERENCE, ServiceConfig, StreamConfig
from repro.server import create_app

from perfbench import oracle as reference
from perfbench.common import (
    MIN_TAIL_SAMPLES,
    LappedStream,
    QueryMix,
    event_chunks,
    generate_dataset,
)
from perfbench.oracle import Oracle

CPUS = os.cpu_count() or 1
HOUR = 3600
#: Seed of every full-size corpus.  Runs with different seeds measure the
#: same stream, including which events arrive late, so their figures are
#: comparable; the run seed draws only the query sequence.  (Corpora drawn from different
#: seeds differ by up to 40% in query cost, which would swamp any bound.)
#: Reduced self-test runs draw the corpus from the run seed as well.
CORPUS_SEED = 2019
#: The ε every MTTD/MTTS query runs with (the processor default).
EPSILON = 0.1
#: Answers checked against the greedy bound: every QUALITY_STRIDE-th query
#: per algorithm among the first MIN_TAIL_SAMPLES, a fixed sample per seed.
QUALITY_STRIDE = 8


@dataclass
class Answer:
    """One answer kept for the oracle: what was asked, at which window."""

    keywords: Tuple[str, ...]
    k: int
    algorithm: str
    element_ids: Tuple[int, ...]
    score: float
    time: int
    logged: int
    sequence: int


@dataclass
class Record:
    """Samples, operation accounting and check results of one run."""

    bucket_ms: List[float] = field(default_factory=list)
    query_ms: Dict[str, List[float]] = field(default_factory=lambda: {"mttd": [], "mtts": []})
    elements: int = 0
    ingest_s: float = 0.0
    operations: Dict[str, Dict[str, int]] = field(default_factory=dict)
    checks: Dict[str, Dict[str, int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    answers: List[Answer] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)

    def count(self, kind: str, amount: int = 1) -> None:
        """Count operations that completed."""
        entry = self.operations.setdefault(kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += amount

    def fail(self, kind: str, error: Exception, what: str, amount: int = 1) -> None:
        """Count operations that raised."""
        entry = self.operations.setdefault(kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += amount
        entry["failed"] += amount
        self.errors.append(f"{what}: {type(error).__name__}: {error}")

    def check(self, kind: str, problems: Sequence[str], where: str) -> None:
        """Record one oracle check of ``kind`` and the problems it found."""
        entry = self.checks.setdefault(kind, {"passed": 0, "failed": 0})
        entry["failed" if problems else "passed"] += 1
        self.problems.extend(f"{where}: {p}" for p in problems)


def engine_config(window_hours: float, bucket_seconds: int, eta: float, **sections: Any) -> EngineConfig:
    """The server-style engine configuration shared by every workload."""
    return EngineConfig(
        processor=ProcessorConfig(
            window_length=int(window_hours * HOUR),
            bucket_length=int(bucket_seconds),
            scoring=ScoringConfig(eta=eta),
        ),
        inference=QUERY_INFERENCE,
        service=ServiceConfig(max_workers=min(ServiceConfig().max_workers, CPUS)),
        **sections,
    )


class Workload:
    """Base class: inputs, set-up, rounds, oracle checks.

    The runner calls :meth:`next_round` outside the clock to prepare one
    round's inputs, times the callable it returns, then calls
    :meth:`after_round` outside the clock again.

    A run's work is fixed: ``--seconds`` × :attr:`round_rate` rounds (at
    least :attr:`min_rounds`, so every tail percentile has 200 samples).
    The rate is calibrated so that a run takes about ``--seconds`` on the
    reference box; every run therefore measures the same operations on the
    same stretch of stream, and a faster program simply finishes sooner.
    """

    name = ""
    #: Rounds per second of ``--seconds``.
    round_rate = 1.0
    #: Fewest rounds that give every tail percentile MIN_TAIL_SAMPLES samples.
    min_rounds = MIN_TAIL_SAMPLES

    def __init__(self, seed: int, reduced: bool = False) -> None:
        self.seed = seed
        self.reduced = reduced
        self.corpus_seed = seed if reduced else CORPUS_SEED
        self.record = Record()
        self.engine: Optional[KSIREngine] = None
        self.tracer = None

    # hooks implemented by the workloads
    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, keep: bool) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed ingest after the first set-up, until the window's archive
        horizon (``archive_windows`` windows of stream time) has filled.

        The window trims its archive of expired elements only once stream
        time has passed that horizon, and from then on scans the archive on
        every bucket.  That is the steady state of a long-running engine;
        measuring from the end of the set-up window instead would mix the
        two regimes, and the bucket median would sit between them.
        """

    def archive_filled(self, time: Optional[int]) -> bool:
        """Whether the bucket after the one ending at ``time`` trims the archive."""
        processor = self.config.processor
        horizon = processor.archive_windows * processor.window_length
        return time is not None and time + processor.bucket_length > horizon

    def next_round(self) -> Callable[[], None]:
        raise NotImplementedError

    def after_round(self) -> None:
        """Untimed work between rounds (sampled oracle checks)."""

    def finish(self) -> None:
        """Untimed work after the last round (final oracle checks)."""

    def rounds_for(self, seconds: float) -> int:
        """The number of rounds a run of ``seconds`` executes."""
        rounds = math.ceil(seconds * self.round_rate)
        return rounds if self.reduced else max(rounds, self.min_rounds)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def close(self) -> None:
        """Release what :meth:`prepare` created."""

    def verify(self) -> None:
        """Oracle checks of everything recorded (untimed)."""
        self.verify_answers()

    # -- shared pieces ----------------------------------------------------------------

    def run_query(self, query) -> Tuple[Tuple[int, ...], float]:
        """Answer one keyword query through the engine."""
        result = self.engine.query_keywords(list(query.keywords), k=query.k, algorithm=query.algorithm)
        return result.element_ids, result.score

    def timed_query(self, query, run) -> None:
        """Time one keyword query end to end and keep its answer."""
        start = time.perf_counter()
        try:
            result = run(query)
        except Exception as error:  # a failed operation is counted, not fatal
            self.record.fail("queries", error, f"query {query}")
            return
        elapsed = time.perf_counter() - start
        self.record.query_ms[query.algorithm].append(elapsed * 1000.0)
        self.record.count("queries")
        element_ids, score = result
        self.record.answers.append(Answer(
            query.keywords, query.k, query.algorithm, tuple(element_ids), float(score),
            self.check_time, self.oracle.logged, len(self.record.answers),
        ))

    def verify_answers(self) -> None:
        """Checks (b) on every answer and (c) on the fixed quality sample."""
        states: Dict[Tuple[int, int], Any] = {}
        per_algorithm: Dict[str, int] = {}
        for answer in self.record.answers:
            key = (answer.time, answer.logged)
            state = states.get(key)
            if state is None:
                states.clear()
                state = states[key] = self.oracle.state(answer.time, answer.logged)
            vector = self.oracle.query_vector(answer.keywords)
            self.record.check(
                "answers",
                reference.check_answer(state, vector, answer.k, answer.element_ids, answer.score),
                f"answer {answer.sequence} ({answer.algorithm} k={answer.k})",
            )
            seen = per_algorithm.get(answer.algorithm, 0)
            per_algorithm[answer.algorithm] = seen + 1
            if seen < MIN_TAIL_SAMPLES and seen % QUALITY_STRIDE == 0:
                ratio, problems = reference.quality(
                    state, vector, answer.k, answer.algorithm, answer.element_ids, EPSILON
                )
                self.record.quality.append(ratio)
                self.record.check("quality", problems, f"quality {answer.sequence}")

    def check_ranked_lists(self, where: str) -> None:
        """Check (a) against the local processor's ranked lists."""
        index = self.engine.backend.processor.ranked_lists
        program = [index.items(topic) for topic in range(index.num_topics)]
        state = self.oracle.state(self.check_time)
        self.record.check("ranked_lists", reference.check_ranked_lists(state, program), where)


# -- ingest ----------------------------------------------------------------------------


class IngestWorkload(Workload):
    """AMiner-shaped raw events through ``KSIREngine.ingest`` (local backend).

    Long documents (≈49 words) with ≈3.7 references each; 5% of events
    arrive up to two buckets late, within the allowed lateness.  An ingest
    round pushes the events that arrive until the event-time high-water
    mark enters a new bucket, which seals about one bucket.  Every
    ``burst_every`` ingest rounds one probe round asks ``burst`` MTTD/MTTS
    keyword-query pairs (k = 5, 10) on the current window; the probes
    supply the query metrics and take about half of the measured time.
    """

    name = "ingest"
    profile = "aminer-small"
    window_hours = 24
    bucket_seconds = 900
    eta = 20.0
    lateness = 2
    late_fraction = 0.05
    probe_ks = (5, 10)
    burst_every = 40
    burst = 8
    check_every = 64
    round_rate = 58.0
    min_rounds = (burst_every + 1) * math.ceil(MIN_TAIL_SAMPLES / burst)

    def prepare(self) -> None:
        overrides = dict(num_elements=1500, duration=24 * HOUR) if self.reduced else {}
        if self.reduced:
            self.window_hours = 6
            self.burst_every = 8
        dataset = generate_dataset(self.profile, self.corpus_seed, **overrides)
        self.model = dataset.topic_model
        self.config = engine_config(
            self.window_hours, self.bucket_seconds, self.eta,
            streams=StreamConfig(allowed_lateness=self.lateness),
        )
        self.stream = LappedStream(dataset.stream.elements, self.bucket_seconds)
        self.oracle = Oracle(self.stream, self.model, self.config.processor.scoring,
                             self.config.processor.window_length,
                             QUERY_INFERENCE.alpha, QUERY_INFERENCE.sparsity_threshold)
        self.chunks = event_chunks(self.stream, self.lateness, self.late_fraction, self.corpus_seed)
        window_buckets = self.window_hours * HOUR // self.bucket_seconds
        self.setup_chunks = [next(self.chunks) for _ in range(window_buckets)]
        self.queries = QueryMix(self.model, self.seed, self.probe_ks)
        self.pending: Dict[int, int] = {}
        self.high_ts = -1
        self.check_time: Optional[int] = None
        self.rounds = 0
        self.sealed_since_check = 0

    def _log(self, chunk: Sequence[Any]) -> None:
        """Log a chunk for the oracle and advance the expected watermark."""
        buckets = [self.stream.bucket_of(e.timestamp) for e in chunk]
        self.oracle.log([e.element_id for e in chunk], [self.stream.bucket_end(b) for b in buckets])
        for bucket in buckets:
            self.pending[bucket] = self.pending.get(bucket, 0) + 1
        self.high_ts = max(self.high_ts, max(e.timestamp for e in chunk))

    def _sealed_through(self) -> Optional[int]:
        """The last bucket end the watermark ``max ts − lateness`` has passed."""
        watermark = self.high_ts - self.lateness * self.bucket_seconds
        origin = self.stream.origin_end
        if watermark <= origin:
            return None
        return origin + ((watermark - 1 - origin) // self.bucket_seconds) * self.bucket_seconds

    def _commit(self) -> int:
        """Elements of the buckets sealed since the last call."""
        self.check_time = self._sealed_through()
        if self.check_time is None:
            return 0
        last = self.stream.bucket_of(self.check_time)
        return sum(self.pending.pop(b) for b in [b for b in self.pending if b <= last])

    def setup(self, keep: bool) -> None:
        self.engine = KSIREngine(self.model, self.config)
        for chunk in self.setup_chunks:
            if keep:
                self._log(chunk)
            self.engine.ingest(chunk)
        if keep:
            self._commit()

    def warm_up(self) -> None:
        while not self.archive_filled(self.check_time):
            chunk = next(self.chunks)
            self._log(chunk)
            self._commit()
            self.engine.ingest(chunk)

    def next_round(self) -> Callable[[], None]:
        self.rounds += 1
        if self.rounds % (self.burst_every + 1) == 0:
            queries = [self.queries.next(algorithm)
                       for _ in range(self.burst) for algorithm in ("mttd", "mtts")]
            return lambda: [self.timed_query(query, self.run_query) for query in queries]
        chunk = next(self.chunks)
        self._log(chunk)
        committed = self._commit()
        return lambda: self._ingest(chunk, committed)

    def _ingest(self, chunk: Sequence[Any], committed: int) -> None:
        tracer = self.tracer
        late_before = self.engine.stream_metrics().late_events if tracer else 0
        start = time.perf_counter()
        try:
            sealed = self.engine.ingest(chunk)
        except Exception as error:
            self.record.fail("buckets", error, "ingest")
            return
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.add("streams.late_events", self.engine.stream_metrics().late_events - late_before)
        self.record.ingest_s += elapsed
        self.record.elements += committed
        if sealed:
            self.sealed_since_check += sealed
            self.record.bucket_ms.append(elapsed * 1000.0)
            self.record.count("buckets", amount=sealed)

    def after_round(self) -> None:
        current = self.engine.current_time
        self.record.check(
            "bucket_commits",
            [] if current == self.check_time
            else [f"engine time {current}, the watermark has passed {self.check_time}"],
            "bucket commit",
        )
        if self.sealed_since_check >= self.check_every:
            self.sealed_since_check = 0
            self.check_ranked_lists(f"ranked lists at t={self.check_time}")

    def finish(self) -> None:
        self.check_ranked_lists(f"ranked lists at end, t={self.check_time}")


# -- query -----------------------------------------------------------------------------


class QueryWorkload(Workload):
    """Twitter-shaped stream (short documents, η = 200), window already full.

    One closed-loop client: each round ingests one bucket, then asks one
    MTTD and one MTTS keyword query (k cycling through 5, 10, 20, 50; one
    or two topics each).  The MTTD query is always first after the bucket,
    so it pays the snapshot rebuild every bucket triggers.
    """

    name = "query"
    profile = "twitter-small"
    window_hours = 12
    bucket_seconds = 900
    eta = 200.0
    ks = (5, 10, 20, 50)
    check_every = 64
    round_rate = 29.0

    def dataset_overrides(self) -> Dict[str, Any]:
        return dict(num_elements=1500, duration=12 * HOUR) if self.reduced else {}

    def prepare(self) -> None:
        if self.reduced:
            self.window_hours = 4
        dataset = generate_dataset(self.profile, self.corpus_seed, **self.dataset_overrides())
        self.model = dataset.topic_model
        self.config = self.make_config()
        self.stream = LappedStream(dataset.stream.elements, self.bucket_seconds)
        self.oracle = Oracle(self.stream, self.model, self.config.processor.scoring,
                             self.config.processor.window_length,
                             QUERY_INFERENCE.alpha, QUERY_INFERENCE.sparsity_threshold)
        self.queries = QueryMix(self.model, self.seed, self.ks)
        self.window_buckets = int(self.window_hours * HOUR // self.bucket_seconds)
        self.setup_buckets = [self.stream.bucket(i) for i in range(self.window_buckets)]
        self.next_bucket = self.window_buckets
        self.check_time: Optional[int] = None

    def make_config(self) -> EngineConfig:
        return engine_config(self.window_hours, self.bucket_seconds, self.eta)

    def setup(self, keep: bool) -> None:
        self.engine = KSIREngine(self.model, self.config)
        for elements, end_time in self.setup_buckets:
            if keep:
                self.oracle.log([e.element_id for e in elements], [end_time] * len(elements))
            self.engine.ingest_bucket(elements, end_time)
        if keep:
            self.check_time = self.setup_buckets[-1][1]

    def warm_up(self) -> None:
        while not self.archive_filled(self.check_time):
            elements, end_time = self._next_bucket()
            self.engine.ingest_bucket(elements, end_time)
            self.check_time = end_time

    def _next_bucket(self) -> Tuple[Tuple[Any, ...], int]:
        """The next bucket of the stream, logged for the oracle."""
        elements, end_time = self.stream.bucket(self.next_bucket)
        self.next_bucket += 1
        self.oracle.log([e.element_id for e in elements], [end_time] * len(elements))
        return elements, end_time

    def next_round(self) -> Callable[[], None]:
        elements, end_time = self._next_bucket()
        queries = [self.queries.next(algorithm) for algorithm in ("mttd", "mtts")]

        def run() -> None:
            self.ingest_one(elements, end_time)
            for query in queries:
                self.timed_query(query, self.run_query)

        return run

    def ingest_one(self, elements: Sequence[Any], end_time: int) -> None:
        start = time.perf_counter()
        try:
            self.engine.ingest_bucket(elements, end_time)
        except Exception as error:
            self.record.fail("buckets", error, f"bucket {end_time}")
            return
        elapsed = time.perf_counter() - start
        self.check_time = end_time
        self.record.ingest_s += elapsed
        self.record.bucket_ms.append(elapsed * 1000.0)
        self.record.elements += len(elements)
        self.record.count("buckets")

    def after_round(self) -> None:
        if len(self.record.bucket_ms) % self.check_every == 0:
            self.check_ranked_lists(f"ranked lists at t={self.check_time}")

    def finish(self) -> None:
        self.check_ranked_lists(f"ranked lists at end, t={self.check_time}")


# -- sharded ---------------------------------------------------------------------------


class ShardedWorkload(QueryWorkload):
    """Reddit-shaped stream on the ``sharded`` backend: 2 shards on the
    ``serial`` transport (in-process shard workers, fanned out in turn).

    Each round ingests one bucket (routed to the shards, with foreign
    replicas) and asks one MTTD and one MTTS keyword query by
    scatter-gather.  Each shard keeps ranked lists of its own home
    elements only, so the ranked-list check (a) does not apply.

    The ``pipe`` transport (one worker process per shard) is not used: on
    a shared 2-CPU host every bucket and query then waits on two worker
    processes, and its tails spread 29–38% from run to run.
    """

    name = "sharded"
    profile = "reddit-small"
    eta = 20.0
    shards = 2
    round_rate = 28.6

    def make_config(self) -> EngineConfig:
        return engine_config(
            self.window_hours, self.bucket_seconds, self.eta, backend="sharded",
            cluster=ClusterConfig(num_shards=self.shards, transport="serial"),
        )

    def run_query(self, query) -> Tuple[Tuple[int, ...], float]:
        result = self.engine.query_keywords(list(query.keywords), k=query.k, algorithm=query.algorithm)
        if self.tracer is not None:
            self.tracer.add("cluster.merged_candidates", result.extras.get("merged_candidates", 0.0))
            self.tracer.add("cluster.queries", 1)
        return result.element_ids, result.score

    def after_round(self) -> None:
        pass

    def finish(self) -> None:
        pass


# -- serve -----------------------------------------------------------------------------


class _Session:
    """One in-process WebSocket subscriber of one standing query."""

    def __init__(self, workload: "ServeWorkload", query_id: str) -> None:
        self.workload = workload
        self.query_id = query_id
        self.inbox: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.deltas: List[Tuple[int, Tuple[int, ...], float]] = []
        self.ready = asyncio.Event()
        self.task: Optional["asyncio.Task[None]"] = None

    async def open(self, app) -> None:
        scope = {"type": "websocket", "asgi": {"version": "3.0"}, "scheme": "ws",
                 "path": f"/ws/queries/{self.query_id}", "raw_path": b"",
                 "query_string": b"", "headers": [], "subprotocols": []}
        await self.inbox.put({"type": "websocket.connect"})
        self.task = asyncio.ensure_future(app(scope, self.inbox.get, self.send))
        await asyncio.wait_for(self.ready.wait(), 30)

    async def send(self, message: Dict[str, Any]) -> None:
        if message.get("type") != "websocket.send":
            return
        text = message["text"]
        payload = json.loads(text)
        kind = payload.get("type")
        if kind == "snapshot":
            self.ready.set()
        elif kind == "delta":
            self.deltas.append((int(payload["bucket"]), tuple(payload["element_ids"]),
                                float(payload["score"])))
            self.workload.delivered(int(payload["bucket"]), len(text))

    async def close(self) -> None:
        await self.inbox.put({"type": "websocket.disconnect", "code": 1000})
        if self.task is not None:
            await asyncio.wait_for(self.task, 30)


class ServeWorkload(Workload):
    """Standing queries on the ``service`` backend behind the ASGI app,
    driven in process (no sockets) from one event loop.

    A 50-topic Twitter-shaped stream in 1-minute buckets, so each bucket
    dirties a minority of topics.  32 standing queries (MTTD and MTTS,
    k cycling through 5, 10, 20, 50) with two WebSocket subscribers each.
    Each round POSTs one bucket to ``/ingest/bucket`` and waits until every
    subscriber of every query the response names has its delta (the
    bucket's push latency), then asks two ad-hoc MTTD and two MTTS keyword
    queries of the serving engine through ``KSIREngine.query_keywords``.
    (Through ``POST /query`` each 1–3 ms query also pays two thread
    hand-offs, and on a shared 2-CPU host their tails then spread 45–50%
    from run to run.)  The evaluation pool and the app's worker pool run
    one thread each: with two evaluation threads the bucket latency had the
    same median but twice the run-to-run spread, from GIL hand-offs.
    """

    name = "serve"
    profile = "twitter-small"
    topics = 50
    window_hours = 3
    bucket_seconds = 60
    eta = 200.0
    standing = 32
    subscribers = 2
    ks = (5, 10, 20, 50)
    check_skipped_every = 8
    #: Ad-hoc MTTD/MTTS pairs per round: these queries take 1–3 ms, so
    #: their p95 needs many samples to settle.
    ad_hoc_pairs = 2
    round_rate = 28.6

    def prepare(self) -> None:
        if self.reduced:
            self.window_hours = 1
            self.standing = 8
        duration = (4 if self.reduced else 8) * HOUR
        dataset = generate_dataset(self.profile, self.corpus_seed, num_topics=self.topics,
                                   num_elements=int(duration * 9000 / (42 * HOUR)),
                                   duration=duration)
        self.model = dataset.topic_model
        self.config = replace(
            engine_config(self.window_hours, self.bucket_seconds, self.eta, backend="service"),
            service=ServiceConfig(max_workers=1),
        )
        self.stream = LappedStream(dataset.stream.elements, self.bucket_seconds)
        self.oracle = Oracle(self.stream, self.model, self.config.processor.scoring,
                             self.config.processor.window_length,
                             QUERY_INFERENCE.alpha, QUERY_INFERENCE.sparsity_threshold)
        # The standing queries are part of the fixed corpus (they decide how
        # much work each bucket does); the run seed draws the ad-hoc ones.
        self.queries = QueryMix(self.model, self.corpus_seed, self.ks)
        self.ad_hoc = QueryMix(self.model, self.seed, self.ks)
        self.standing_queries = [
            self.queries.next("mttd" if i % 2 == 0 else "mtts") for i in range(self.standing)
        ]
        self.window_buckets = int(self.window_hours * HOUR // self.bucket_seconds)
        self.setup_buckets = [self.stream.bucket(i) for i in range(self.window_buckets)]
        self.warmup = self._body(self.window_buckets)
        self.next_bucket = self.window_buckets + 1
        self.loop = asyncio.new_event_loop()
        self.check_time: Optional[int] = None
        self.updates: List[Tuple[int, int, int, Tuple[str, ...]]] = []

    def _body(self, index: int) -> Tuple[bytes, int, List[int]]:
        elements, end_time = self.stream.bucket(index)
        body = json.dumps({"end_time": end_time,
                           "elements": [e.to_dict() for e in elements]}).encode()
        return body, end_time, [e.element_id for e in elements]

    # -- ASGI plumbing ------------------------------------------------------------------

    async def http(self, method: str, path: str, body: bytes = b"") -> Any:
        scope = {"type": "http", "asgi": {"version": "3.0"}, "http_version": "1.1",
                 "method": method, "path": path, "raw_path": path.encode(),
                 "query_string": b"", "headers": [(b"content-type", b"application/json")]}
        messages = [{"type": "http.request", "body": body, "more_body": False}]
        response: Dict[str, Any] = {"status": 500, "body": []}

        async def receive() -> Dict[str, Any]:
            return messages.pop(0) if messages else {"type": "http.disconnect"}

        async def send(message: Dict[str, Any]) -> None:
            if message["type"] == "http.response.start":
                response["status"] = message["status"]
            elif message["type"] == "http.response.body":
                response["body"].append(message.get("body", b""))

        await self.app(scope, receive, send)
        payload = json.loads(b"".join(response["body"]) or b"null")
        if response["status"] >= 300:
            raise RuntimeError(f"{method} {path} → {response['status']}: {payload}")
        return payload

    def delivered(self, bucket: int, size: int) -> None:
        self.arrivals[bucket] = self.arrivals.get(bucket, 0) + 1
        self.last_arrival[bucket] = time.perf_counter()
        self.push_bytes += size
        self.arrived.set()

    async def _wait_deltas(self, bucket: int, expected: int) -> None:
        while self.arrivals.get(bucket, 0) < expected:
            self.arrived.clear()
            await asyncio.wait_for(self.arrived.wait(), 30)

    # -- set-up -------------------------------------------------------------------------

    async def _open(self, keep: bool) -> None:
        for index, query in enumerate(self.standing_queries):
            body = json.dumps({"query_id": f"q{index}", "keywords": list(query.keywords),
                               "k": query.k, "algorithm": query.algorithm}).encode()
            await self.http("POST", "/queries", body)
        self.live_sessions: List[_Session] = []
        for index in range(self.standing):
            for _ in range(self.subscribers):
                session = _Session(self, f"q{index}")
                await session.open(self.app)
                self.live_sessions.append(session)
        if keep:
            self.sessions = self.live_sessions
            self.oracle.log(self.warmup[2], [self.warmup[1]] * len(self.warmup[2]))
        # The first bucket gives every newly registered query its answer.
        await self._post_bucket(self.warmup, log=keep, timed=False)

    def setup(self, keep: bool) -> None:
        self.arrivals: Dict[int, int] = {}
        self.last_arrival: Dict[int, float] = {}
        self.arrived = asyncio.Event()
        self.push_bytes = 0
        self.engine = KSIREngine(self.model, self.config)
        self.app = create_app(self.engine, max_workers=1)
        for elements, end_time in self.setup_buckets:
            if keep:
                self.oracle.log([e.element_id for e in elements], [end_time] * len(elements))
            self.engine.ingest_bucket(elements, end_time)
        self.loop.run_until_complete(self._open(keep))

    def teardown(self) -> None:
        async def close() -> None:
            for session in self.live_sessions:
                await session.close()

        self.loop.run_until_complete(close())
        self.app.close()
        self.engine = None

    def close(self) -> None:
        self.loop.close()

    # -- rounds -------------------------------------------------------------------------

    async def _post_bucket(self, body: Tuple[bytes, int, List[int]], log: bool, timed: bool) -> None:
        payload, end_time, ids = body
        tracer = self.tracer if timed else None
        service = self.engine.service_engine
        before = (service.metrics.reused, service.metrics.evaluations, self.app.hub.pushes,
                  self.push_bytes) if tracer else None
        start = time.perf_counter()
        summary = await self.http("POST", "/ingest/bucket", payload)
        responded = time.perf_counter()
        bucket = int(summary["bucket"])
        updated = tuple(summary["updated"])
        await self._wait_deltas(bucket, len(updated) * self.subscribers)
        done = max(self.last_arrival.get(bucket, responded), responded) if updated else responded
        if log:
            self.check_time = end_time
            self.updates.append((bucket, end_time, self.oracle.logged, updated))
        if timed:
            self.record.ingest_s += done - start
            self.record.bucket_ms.append((done - start) * 1000.0)
            self.record.elements += len(ids)
            self.record.count("buckets")
            self.record.count("deltas", amount=len(updated) * self.subscribers)
        if tracer:
            reused, evaluations, pushes, sent = before
            tracer.add("service.reused", service.metrics.reused - reused)
            tracer.add("service.standing_evaluations", service.metrics.evaluations - evaluations)
            tracer.add("server.pushes", self.app.hub.pushes - pushes)
            tracer.add("server.push_bytes", self.push_bytes - sent)
            tracer.add("server.request_ms", (responded - start) * 1000.0)
            tracer.add("server.fanout_ms", (done - responded) * 1000.0)

    def next_round(self) -> Callable[[], None]:
        body = self._body(self.next_bucket)
        self.next_bucket += 1
        self.oracle.log(body[2], [body[1]] * len(body[2]))
        queries = [self.ad_hoc.next(algorithm)
                   for _ in range(self.ad_hoc_pairs) for algorithm in ("mttd", "mtts")]

        def run() -> None:
            try:
                self.loop.run_until_complete(self._post_bucket(body, log=True, timed=True))
            except Exception as error:
                self.record.fail("buckets", error, f"bucket {body[1]}")
            for query in queries:
                self.timed_query(query, self.run_query)

        return run

    def verify(self) -> None:
        self.verify_answers()
        self._verify_pushes()

    def _verify_pushes(self) -> None:
        """Check (d) per subscriber and check (e) on sampled buckets."""
        named: Dict[str, set] = {f"q{i}": set() for i in range(self.standing)}
        for bucket, _, _, updated in self.updates:
            for query_id in updated:
                named[query_id].add(bucket)
        for number, session in enumerate(self.sessions):
            buckets = [bucket for bucket, _, _ in session.deltas]
            problems = []
            if len(buckets) != len(set(buckets)):
                problems.append("a bucket delivered twice")
            if set(buckets) != named[session.query_id]:
                missing = sorted(named[session.query_id] - set(buckets))[:5]
                extra = sorted(set(buckets) - named[session.query_id])[:5]
                problems.append(f"deltas missing for buckets {missing}, unexpected {extra}")
            self.record.check("subscribers", problems, f"subscriber {number} of {session.query_id}")
        # (e): a query the scheduler skipped keeps its last answer; that
        # answer's score must still be f(S, x) on the current window.
        first = {f"q{i}": self.sessions[i * self.subscribers] for i in range(self.standing)}
        vectors = {f"q{i}": self.oracle.query_vector(q.keywords)
                   for i, q in enumerate(self.standing_queries)}
        for position, (bucket, end_time, logged, updated) in enumerate(self.updates):
            if position == 0 or position % self.check_skipped_every:
                continue
            state = self.oracle.state(end_time, logged)
            for query_id, session in first.items():
                if query_id in updated:
                    continue
                last = [d for d in session.deltas if d[0] <= bucket]
                if not last:
                    continue
                _, ids, score = last[-1]
                expected = state.value(ids, vectors[query_id])
                self.record.check(
                    "skipped_queries",
                    [] if reference.close(score, expected)
                    else [f"cached score {score!r}, oracle {expected!r}"],
                    f"skipped {query_id} at bucket {bucket}",
                )


WORKLOADS = {cls.name: cls for cls in (IngestWorkload, QueryWorkload, ServeWorkload, ShardedWorkload)}
