"""An outside-in tracer: spans around calls into the program's layers.

The tracer wraps public functions of the program (found by module and
attribute path) from the benchmark's own code and records, per metric
name, the *self time* of every call — its duration minus the part covered
by nested traced calls — and call counts.  A function that no longer
exists is reported missing instead of failing the run.

Spans nest per thread.  A call that starts on a thread with no open span
is adopted by the innermost open *fork point* (a function that hands work
to a thread pool), so pool work counts as covered time of its caller;
covered time is the union of the child intervals, so overlapping pool
children are not counted twice.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``hook(args, kwargs, result, tracer)`` adds counts for one call.
Hook = Callable[[tuple, dict, Any, "Tracer"], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module:Attr.path`` → ``metric``.

    ``metric`` may be a function of the call's arguments (used to split one
    function's time by the algorithm object it is called on).
    """

    target: str
    metric: Union[str, Callable[[tuple], str]]
    hook: Optional[Hook] = None
    fork_point: bool = False


class _Frame:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: List[Tuple[float, float]] = []


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Installs and removes the probes and accumulates their figures."""

    def __init__(self, probes: List[Probe]) -> None:
        self._probes = probes
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.inclusive_ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._forks: List[_Frame] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self._resolved = [self._resolve(probe) for probe in probes]

    def _resolve(self, probe: Probe) -> Optional[Tuple[Any, str, Any]]:
        module_name, _, path = probe.target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(probe.target)
            return None
        return owner, name, original

    # -- install / remove -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every probe that resolved."""
        for probe, resolved in zip(self._probes, self._resolved):
            if resolved is None:
                continue
            owner, name, original = resolved
            setattr(owner, name, self._wrap(probe, original))
            self._installed.append(resolved)

    def remove(self) -> None:
        """Restore the original functions."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def add(self, name: str, amount: float) -> None:
        """Add to a counter (callable from any thread)."""
        with self._lock:
            self.counts[name] += amount

    # -- spans ------------------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, probe: Probe, original: Any) -> Any:
        tracer = self
        name_of = probe.metric if callable(probe.metric) else None
        fixed_metric = probe.metric if name_of is None else ""
        hook = probe.hook
        fork_point = probe.fork_point
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack:
                parent: Optional[_Frame] = stack[-1]
            else:
                parent = tracer._forks[-1] if tracer._forks else None
            frame = _Frame()
            stack.append(frame)
            if fork_point:
                tracer._forks.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                if fork_point:
                    tracer._forks.remove(frame)
                stack.pop()
                covered = _covered(frame.children)
                metric = fixed_metric if name_of is None else name_of(args)
                with tracer._lock:
                    tracer.self_ms[metric] += (end - start - covered) * 1000.0
                    tracer.inclusive_ms[metric] += (end - start) * 1000.0
                    tracer.calls[metric] += 1
                if parent is not None:
                    parent.children.append((start, end))
            if hook is not None:
                hook(args, kwargs, result, tracer)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced
