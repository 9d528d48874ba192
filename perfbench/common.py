"""Shared pieces of the benchmark: input streams, query mixes, statistics
and process measurements.

Inputs are built before any clock starts.  A generated dataset covers
one or two days of stream time; runs that need more are fed *laps*: copies of the dataset shifted by a whole number of
buckets in time and by the dataset size in element ids, so the stream
stays continuous and every reference stays inside its own lap.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import DATASET_PROFILES, SocialElement, SyntheticStreamGenerator, inject_disorder

#: Every tail percentile needs at least this many samples so that ten
#: lie beyond the 95th percentile.
MIN_TAIL_SAMPLES = 200


#: Generated corpora are cached here (the checkout's build-output
#: directory), keyed by profile, seed and the program's source, so only
#: the first run in a checkout pays for generation.
CACHE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
    "perfbench",
)


def _program_digest() -> str:
    """Digest of every source file of the program.  The cached corpus holds
    instances of the program's classes, so any change to the program, not
    only to its generator, must miss the cache."""
    import repro as package

    digest = hashlib.sha256()
    folder = os.path.dirname(package.__file__)
    for directory, subdirectories, files in os.walk(folder):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    digest.update(os.path.relpath(path, folder).encode() + handle.read())
    return digest.hexdigest()[:16]


def generate_dataset(profile_name: str, seed: int, **overrides):
    """Generate (or load the cached copy of) a synthetic dataset from a
    named profile with overrides."""
    profile = DATASET_PROFILES[profile_name]
    if overrides:
        profile = replace(profile, name=f"{profile.name}-bench", **overrides)
    key = hashlib.sha256(repr((profile, seed, _program_digest())).encode()).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"corpus-{key}.pickle")
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:  # missing or unreadable: generate it again
        pass
    dataset = SyntheticStreamGenerator(profile, seed=seed).generate()
    os.makedirs(CACHE_DIR, exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "wb") as handle:
        pickle.dump(dataset, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return dataset


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0–100) of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: Most blocks a tail percentile is split into (see :func:`tail`).
MAX_TAIL_BLOCKS = 5


def tail(values: Sequence[float], q: float) -> float:
    """Tail percentile ``q`` of a run's samples in time order, as the median
    over consecutive blocks of at least MIN_TAIL_SAMPLES samples each (so
    every block has ten samples beyond its p95), at most MAX_TAIL_BLOCKS.

    On a shared host a few seconds of contention slow every operation in
    them; a whole-run percentile then reads the slow stretch, while the
    median over blocks reads the typical one.  With fewer than two blocks'
    worth of samples this is the whole-run percentile.
    """
    blocks = max(1, min(MAX_TAIL_BLOCKS, len(values) // MIN_TAIL_SAMPLES))
    samples = np.asarray(values, dtype=float)
    return float(np.median([np.percentile(part, q) for part in np.array_split(samples, blocks)]))


class LappedStream:
    """A dataset replayed in laps on the bucket grid ``(t − L, t]``.

    Bucket ``m`` (counted from 0 across laps) ends at
    ``origin_end + m·L``; lap ``j`` shifts timestamps by ``j·period`` and
    ids by ``j·size``.
    """

    def __init__(self, elements: Sequence[SocialElement], bucket_length: int) -> None:
        self.base = list(elements)
        self.size = len(self.base)
        if [e.element_id for e in self.base] != list(range(self.size)):
            raise ValueError("dataset element ids must be 0..n-1 in stream order")
        self.bucket_length = int(bucket_length)
        self.first_ts = self.base[0].timestamp
        self.origin_end = self.first_ts + self.bucket_length - 1
        last_ts = self.base[-1].timestamp
        self.buckets_per_lap = (last_ts - self.first_ts) // self.bucket_length + 1
        self.period = self.buckets_per_lap * self.bucket_length
        members: List[List[int]] = [[] for _ in range(self.buckets_per_lap)]
        for index, element in enumerate(self.base):
            members[self.bucket_of(element.timestamp)].append(index)
        self._members = members
        self._laps: Dict[int, List[SocialElement]] = {0: self.base}

    def bucket_of(self, timestamp: int) -> int:
        """Global bucket index of a timestamp."""
        if timestamp <= self.origin_end:
            return 0
        return (timestamp - self.origin_end + self.bucket_length - 1) // self.bucket_length

    def bucket_end(self, index: int) -> int:
        """End time of global bucket ``index``."""
        return self.origin_end + index * self.bucket_length

    def lap(self, lap: int) -> List[SocialElement]:
        """The elements of one lap, built on first use."""
        elements = self._laps.get(lap)
        if elements is None:
            shift_id = lap * self.size
            shift_ts = lap * self.period
            elements = [
                SocialElement(
                    element_id=e.element_id + shift_id,
                    timestamp=e.timestamp + shift_ts,
                    tokens=e.tokens,
                    references=tuple(r + shift_id for r in e.references),
                    topic_distribution=e.topic_distribution,
                )
                for e in self.base
            ]
            self._laps[lap] = elements
        return elements

    def bucket(self, index: int) -> Tuple[Tuple[SocialElement, ...], int]:
        """``(elements, end_time)`` of global bucket ``index``."""
        lap, offset = divmod(index, self.buckets_per_lap)
        if offset == 0:
            self.drop_lap(lap - 2)
        elements = self.lap(lap)
        return tuple(elements[i] for i in self._members[offset]), self.bucket_end(index)

    def drop_lap(self, lap: int) -> None:
        """Forget a lap's elements once nothing will read them again."""
        if lap > 0:
            self._laps.pop(lap, None)


def event_chunks(
    stream: LappedStream, lateness_buckets: int, late_fraction: float, seed: int
) -> Iterator[List[SocialElement]]:
    """Raw events in arrival order, cut where the high-water mark enters a
    new bucket, so pushing one chunk seals about one bucket.

    Within each lap a ``late_fraction`` share of events is delayed by up to
    ``lateness_buckets`` buckets (:func:`repro.inject_disorder`).
    """
    lap = 0
    chunk: List[SocialElement] = []
    high_bucket = -1
    while True:
        arrivals = inject_disorder(
            stream.lap(lap),
            bucket_length=stream.bucket_length,
            max_delay_buckets=lateness_buckets,
            fraction=late_fraction,
            seed=seed * 7919 + lap,
        )
        for element in arrivals:
            bucket = stream.bucket_of(element.timestamp)
            if bucket > high_bucket:
                if chunk:
                    yield chunk
                chunk = []
                high_bucket = bucket
            chunk.append(element)
        stream.drop_lap(lap - 1)
        lap += 1


@dataclass(frozen=True)
class KeywordQuery:
    """One keyword query of a workload's mix."""

    keywords: Tuple[str, ...]
    k: int
    algorithm: str


class QueryMix:
    """A seeded stream of keyword queries on one or two topics.

    A one-topic query uses the topic's two most probable words, a two-topic
    query the most probable word of each.  ``k`` cycles through ``ks`` per
    algorithm.
    """

    def __init__(self, topic_model, seed: int, ks: Sequence[int]) -> None:
        self._rng = random.Random(seed)
        self._num_topics = topic_model.num_topics
        self._top = [tuple(topic_model.top_words(t, 2)) for t in range(self._num_topics)]
        self._ks = tuple(ks)
        self._issued: Dict[str, int] = {}

    def next(self, algorithm: str) -> KeywordQuery:
        """The next query for ``algorithm``."""
        count = self._issued.get(algorithm, 0)
        self._issued[algorithm] = count + 1
        k = self._ks[count % len(self._ks)]
        if self._rng.random() < 0.5:
            topic = self._rng.randrange(self._num_topics)
            keywords = self._top[topic]
        else:
            first, second = self._rng.sample(range(self._num_topics), 2)
            keywords = (self._top[first][0], self._top[second][0])
        return KeywordQuery(keywords=tuple(keywords), k=k, algorithm=algorithm)


# -- process measurements -------------------------------------------------------------


def rss_bytes() -> int:
    """Resident set size of this process."""
    with open("/proc/self/statm") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE")


def host_probe_ms() -> float:
    """Wall time of a fixed reference computation (Python loop + NumPy)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    matrix = np.arange(250_000, dtype=float).reshape(500, 500)
    float((matrix @ matrix).sum())
    return (time.perf_counter() - start) * 1000.0
