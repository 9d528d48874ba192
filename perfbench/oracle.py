"""A reference k-SIR scorer built from the paper's definitions and the
generated input alone.

It never reads the program's state.  From the elements the benchmark
committed and the query time ``t`` it derives (Section 3.1 and 3.2 of
Wang, Li and Tan, EDBT 2019):

* the window ``W_t = {e : t − T < e.ts ≤ t}`` and the active set
  ``A_t = W_t ∪ {e' : e' ∈ e.ref, e ∈ W_t}``;
* the in-window followers ``I_t(e') = {e ∈ W_t : e' ∈ e.ref}``;
* word weights ``σ_i(w, e) = −γ(w, e)·p_i(w, e)·log p_i(w, e)`` with
  ``p_i(w, e) = p_i(w)·p_i(e)`` (topic probabilities at or below the
  threshold count as zero);
* ``R_i(S) = Σ_w max_{e∈S} σ_i(w, e)`` (Eq. 3),
  ``I_{i,t}(S) = Σ_f 1 − Π_{e∈S, f∈I_t(e)} (1 − p_i(e)·p_i(f))`` (Eq. 4),
  ``f_i(S) = λ·R_i(S) + (1 − λ)/η·I_{i,t}(S)`` and
  ``f(S, x) = Σ_i x_i·f_i(S)`` (Eq. 1–2);
* the ranked-list tuples ``δ_i(e) = f_i({e})`` and the lazy-greedy answer
  ``S_greedy`` that the approximation bounds are checked against.

Query vectors come from the same keyword fold-in the server uses
(mean-field inference, prior ``α``, sparsity cut, renormalised).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import LappedStream

#: Tolerance of every score comparison: |a − b| ≤ TOLERANCE·max(1, |b|).
TOLERANCE = 1e-9


def close(value: float, reference: float) -> bool:
    """Whether two scores agree within :data:`TOLERANCE`."""
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


class WindowState:
    """``A_t``, ``I_t`` and every ``δ_i(e)`` at one query time ``t``."""

    def __init__(self, oracle: "Oracle", active: np.ndarray, children: np.ndarray,
                 parents: np.ndarray) -> None:
        self.oracle = oracle
        self.active = active  # sorted element ids of A_t
        self.base = active % oracle.size
        order = np.argsort(parents, kind="stable")
        self._edge_parents = parents[order]
        self._edge_children = children[order]
        sums = np.zeros((len(active), oracle.num_topics))
        if len(order):
            starts = np.flatnonzero(np.r_[True, self._edge_parents[1:] != self._edge_parents[:-1]])
            rows = np.searchsorted(active, self._edge_parents[starts])
            sums[rows] = np.add.reduceat(oracle.P[self._edge_children % oracle.size], starts, axis=0)
        probabilities = oracle.P[self.base]
        self.delta = (
            oracle.lambda_weight * oracle.R[self.base]
            + oracle.influence_weight * probabilities * sums
        )
        self._active_set = set(active.tolist())

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._active_set

    def followers(self, element_id: int) -> np.ndarray:
        """``I_t(e)`` as element ids."""
        lo = np.searchsorted(self._edge_parents, element_id, side="left")
        hi = np.searchsorted(self._edge_parents, element_id, side="right")
        return self._edge_children[lo:hi]

    def ranked_lists(self) -> List[Dict[int, float]]:
        """Per topic, ``{e: δ_i(e)}`` over the active elements with ``p_i(e)`` above the threshold."""
        probabilities = self.oracle.P[self.base]
        lists = []
        for topic in range(self.oracle.num_topics):
            rows = np.nonzero(probabilities[:, topic] > 0.0)[0]
            lists.append(dict(zip(self.active[rows].tolist(), self.delta[rows, topic].tolist())))
        return lists

    # -- the objective ------------------------------------------------------------

    def value(self, element_ids: Iterable[int], vector: np.ndarray) -> float:
        """``f(S, x)`` evaluated directly from Eq. 1–4."""
        oracle = self.oracle
        members = list(dict.fromkeys(int(e) for e in element_ids))
        total = 0.0
        for topic in np.nonzero(vector > 0.0)[0].tolist():
            best: Dict[int, float] = {}
            remaining: Dict[int, float] = {}
            for element_id in members:
                base = element_id % oracle.size
                p_source = oracle.P[base, topic]
                if p_source <= 0.0:
                    continue
                for word, weight in oracle.word_weights(base, topic).items():
                    if weight > best.get(word, 0.0):
                        best[word] = weight
                for follower in self.followers(element_id).tolist():
                    edge = p_source * oracle.P[follower % oracle.size, topic]
                    remaining[follower] = remaining.get(follower, 1.0) * (1.0 - edge)
            semantic = sum(best.values())
            influence = sum(1.0 - r for r in remaining.values())
            total += float(vector[topic]) * (
                oracle.lambda_weight * semantic + oracle.influence_weight * influence
            )
        return total

    def greedy(self, vector: np.ndarray, k: int) -> Tuple[List[int], float]:
        """The lazy-greedy answer (identical to plain greedy) and its value."""
        oracle = self.oracle
        topics = [(t, float(vector[t])) for t in np.nonzero(vector > 0.0)[0].tolist()]
        singletons = self.delta @ vector
        heap = [(-float(s), int(e)) for e, s in zip(self.active.tolist(), singletons.tolist()) if s > 0.0]
        heapq.heapify(heap)
        covered: Dict[int, Dict[int, float]] = {t: {} for t, _ in topics}
        remaining: Dict[int, Dict[int, float]] = {t: {} for t, _ in topics}
        selected: List[int] = []
        fresh: Dict[int, int] = {}

        def gain(element_id: int, commit: bool) -> float:
            base = element_id % oracle.size
            followers = self.followers(element_id).tolist()
            total = 0.0
            for topic, weight in topics:
                p_source = oracle.P[base, topic]
                if p_source <= 0.0:
                    continue
                cover = covered[topic]
                semantic = 0.0
                for word, sigma in oracle.word_weights(base, topic).items():
                    previous = cover.get(word, 0.0)
                    if sigma > previous:
                        semantic += sigma - previous
                        if commit:
                            cover[word] = sigma
                rest = remaining[topic]
                influence = 0.0
                for follower in followers:
                    edge = p_source * oracle.P[follower % oracle.size, topic]
                    left = rest.get(follower, 1.0)
                    influence += edge * left
                    if commit:
                        rest[follower] = left * (1.0 - edge)
                total += weight * (oracle.lambda_weight * semantic + oracle.influence_weight * influence)
            return total

        while heap and len(selected) < k:
            negative, element_id = heapq.heappop(heap)
            if fresh.get(element_id) == len(selected):
                if -negative <= 0.0:
                    break
                gain(element_id, commit=True)
                selected.append(element_id)
                continue
            fresh[element_id] = len(selected)
            heapq.heappush(heap, (-gain(element_id, commit=False), element_id))
        return selected, self.value(selected, vector)


class Oracle:
    """Reference scorer over one lapped input stream.

    The benchmark logs every element it hands to the program together with
    the end time of the bucket it belongs to; :meth:`state` rebuilds the
    window from that log alone.
    """

    def __init__(self, stream: LappedStream, topic_model, scoring, window_length: int,
                 inference_alpha: float, inference_sparsity: float,
                 inference_iterations: int = 30) -> None:
        self.size = stream.size
        self.period = stream.period
        self.window_length = int(window_length)
        self.num_topics = topic_model.num_topics
        self.lambda_weight = scoring.lambda_weight
        self.influence_weight = (1.0 - scoring.lambda_weight) / scoring.eta
        self._phi = np.asarray(topic_model.topic_word_matrix, dtype=float)
        self._vocabulary = topic_model.vocabulary
        self._alpha = inference_alpha
        self._sparsity = inference_sparsity
        self._iterations = inference_iterations

        base = stream.base
        raw = np.stack([np.asarray(e.topic_distribution, dtype=float) for e in base])
        self.P = np.where(raw > scoring.topic_threshold, raw, 0.0)
        self.timestamps = np.array([e.timestamp for e in base], dtype=np.int64)
        pointers = [0]
        references: List[int] = []
        for element in base:
            references.extend(element.references)
            pointers.append(len(references))
        self._ref_pointers = np.array(pointers, dtype=np.int64)
        self._ref_targets = np.array(references, dtype=np.int64)
        self._words: List[Tuple[np.ndarray, np.ndarray]] = []
        for element in base:
            counts: Dict[int, int] = {}
            for token in element.tokens:
                word = self._vocabulary.get_id(token)
                if word is not None:
                    counts[word] = counts.get(word, 0) + 1
            self._words.append((np.array(list(counts), dtype=np.int64),
                                np.array(list(counts.values()), dtype=float)))
        self._weights: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._vectors: Dict[Tuple[str, ...], np.ndarray] = {}
        self.R = np.zeros_like(self.P)
        for index in range(self.size):
            for topic in np.nonzero(self.P[index])[0].tolist():
                self.R[index, topic] = sum(self.word_weights(index, topic).values())

        self._log_ids = np.empty(1024, dtype=np.int64)
        self._log_ends = np.empty(1024, dtype=np.int64)
        self.logged = 0

    # -- input log ------------------------------------------------------------------

    def log(self, element_ids: Sequence[int], bucket_ends: Sequence[int]) -> None:
        """Record elements handed to the program with their bucket end times."""
        count = len(element_ids)
        needed = self.logged + count
        if needed > len(self._log_ids):
            capacity = max(needed, 2 * len(self._log_ids))
            self._log_ids = np.resize(self._log_ids, capacity)
            self._log_ends = np.resize(self._log_ends, capacity)
        self._log_ids[self.logged:needed] = element_ids
        self._log_ends[self.logged:needed] = bucket_ends
        self.logged = needed

    def state(self, time: int, logged: Optional[int] = None) -> WindowState:
        """The window at ``time`` over the first ``logged`` log entries."""
        count = self.logged if logged is None else logged
        ids = self._log_ids[:count]
        laps, base = np.divmod(ids, self.size)
        stamps = self.timestamps[base] + laps * self.period
        # Element ids are logged once each, so no de-duplication is needed.
        window = ids[(self._log_ends[:count] <= time) & (stamps > time - self.window_length)]
        w_laps, w_base = np.divmod(window, self.size)
        starts = self._ref_pointers[w_base]
        counts = self._ref_pointers[w_base + 1] - starts
        total = int(counts.sum())
        ramp = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        targets = self._ref_targets[np.repeat(starts, counts) + ramp]
        # A parent is never later than its child, so every parent of a
        # committed element is committed too.
        parents = targets + np.repeat(w_laps, counts) * self.size
        children = np.repeat(window, counts)
        active = np.union1d(window, parents)
        return WindowState(self, active, children, parents)

    # -- scoring inputs ---------------------------------------------------------------

    def word_weights(self, base: int, topic: int) -> Dict[int, float]:
        """``{w: σ_i(w, e)}`` for the positive weights of a dataset element."""
        key = (base, topic)
        weights = self._weights.get(key)
        if weights is None:
            words, counts = self._words[base]
            joint = self._phi[topic, words] * self.P[base, topic]
            weights = {}
            for word, count, p in zip(words.tolist(), counts.tolist(), joint.tolist()):
                if p > 0.0:
                    weight = -count * p * math.log(p)
                    if weight > 0.0:
                        weights[word] = weight
            self._weights[key] = weights
        return weights

    def query_vector(self, keywords: Sequence[str]) -> np.ndarray:
        """The keyword fold-in: mean-field topic posterior, sparsified, normalised."""
        key = tuple(keywords)
        vector = self._vectors.get(key)
        if vector is None:
            vector = self._vectors[key] = self._fold_in(key)
        return vector

    def _fold_in(self, keywords: Sequence[str]) -> np.ndarray:
        words = [w for w in (self._vocabulary.get_id(k) for k in keywords) if w is not None]
        if not words:
            return np.full(self.num_topics, 1.0 / self.num_topics)
        phi = self._phi[:, words]
        theta = np.full(self.num_topics, 1.0 / self.num_topics)
        for _ in range(self._iterations):
            weighted = phi * theta[:, None]
            totals = weighted.sum(axis=0)
            totals[totals == 0.0] = 1.0
            theta = self._alpha + (weighted / totals).sum(axis=1)
            theta = theta / theta.sum()
        cut = np.where(theta >= self._sparsity, theta, 0.0)
        if cut.sum() <= 0.0:
            cut = np.zeros_like(theta)
            cut[int(np.argmax(theta))] = 1.0
        return cut / cut.sum()


# -- checks -------------------------------------------------------------------------------

#: The approximation ratio each algorithm guarantees (before ε).
BOUNDS = {"mttd": 1.0 - 1.0 / math.e, "mtts": 0.5}


def check_ranked_lists(state: WindowState, program: Sequence[Sequence[Tuple[int, float]]]) -> List[str]:
    """Check (a): every list holds exactly the active elements on its topic,
    each with ``δ_i(e) = f_i({e})``.  Returns the problems found."""
    problems = []
    for topic, expected in enumerate(state.ranked_lists()):
        actual = dict(program[topic])
        if len(actual) != len(program[topic]):
            problems.append(f"topic {topic}: duplicate ids in the ranked list")
        if set(actual) != set(expected):
            extra = sorted(set(actual) - set(expected))[:5]
            missing = sorted(set(expected) - set(actual))[:5]
            problems.append(f"topic {topic}: members differ (extra {extra}, missing {missing})")
            continue
        for element_id, score in actual.items():
            if not close(score, expected[element_id]):
                problems.append(
                    f"topic {topic}: δ({element_id}) = {score!r}, oracle {expected[element_id]!r}"
                )
                break
    return problems


def check_answer(state: WindowState, vector: np.ndarray, k: int,
                 element_ids: Sequence[int], score: float) -> List[str]:
    """Check (b): at most ``k`` distinct active ids, reported score = f(S, x)."""
    problems = []
    ids = [int(e) for e in element_ids]
    if len(ids) > k:
        problems.append(f"{len(ids)} ids for k={k}")
    if len(set(ids)) != len(ids):
        problems.append(f"repeated ids {ids}")
    inactive = [e for e in ids if e not in state]
    if inactive:
        problems.append(f"inactive ids {inactive[:5]}")
    expected = state.value(ids, vector)
    if not close(float(score), expected):
        problems.append(f"score {score!r}, oracle f(S, x) = {expected!r}")
    return problems


def quality(state: WindowState, vector: np.ndarray, k: int, algorithm: str,
            element_ids: Sequence[int], epsilon: float) -> Tuple[float, List[str]]:
    """Check (c): ``f(S) ≥ (bound − ε)·f(S_greedy)``.  Returns the ratio
    ``f(S)/f(S_greedy)`` and the problems found."""
    _, best = state.greedy(vector, k)
    value = state.value(element_ids, vector)
    if best <= 0.0:
        return 1.0, []
    ratio = value / best
    floor = BOUNDS[algorithm] - epsilon
    problems = []
    if ratio < floor - TOLERANCE:
        problems.append(f"{algorithm} k={k}: f(S)/f(S_greedy) = {ratio:.4f} < {floor:.4f}")
    return ratio, problems
