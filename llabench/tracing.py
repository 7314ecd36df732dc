"""In-memory spans around the public calls into each layer.

The benchmark reads the program only from outside: :class:`Tracer` swaps a
timing wrapper in for each public callable that :func:`_layer_calls` lists
(class attributes, module functions, and the module globals that
from-imports bound) and restores the originals afterwards.  Each call records a span
``(id, name, parent, start, end, extra)``.  The open span lives in a
:class:`contextvars.ContextVar`, not a global stack: snapshots run in
``asyncio.to_thread``'s worker, which copies the context, and queries
interleave with ticks as separate asyncio tasks, so each of them must see
its own parent.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["Span", "Tracer", "self_times", "covered_seconds"]

#: ``(id, name, parent id or None, start, end, extra)``; ``extra`` holds a
#: call's verdict or result size where a metric needs it, else ``None``.
Span = Tuple[int, str, Optional[int], float, float, Any]

_OPEN: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "llabench_open_span", default=None)


def _allocate_name(allocator: Any, *args: Any, **kwargs: Any) -> str:
    # LatencyAllocator.allocate takes its closed form for linear and
    # inelastic utilities and runs L-BFGS-B for every other one.
    from repro.model.utility import LinearUtility

    utility = allocator.task.utility
    if isinstance(utility, LinearUtility) or not utility.is_elastic():
        return "core.allocation.closed_form"
    return "core.allocation.numeric"


def _array_bytes(structure: Any) -> int:
    return sum(v.nbytes for v in vars(structure).values()
               if isinstance(v, np.ndarray))


def _layer_calls() -> List[Tuple[Any, str, Any, Optional[Callable[..., Any]]]]:
    """``(owner, attribute, span name, extra)`` for every wrapped call.

    A span name may be a function of the call's arguments; ``extra`` maps
    the call's result to the value kept on its span.
    """
    from repro.core import structure, vectorized
    from repro.core.allocation import LatencyAllocator
    from repro.core.convergence import ConvergenceDetector
    from repro.core.optimizer import LLAOptimizer
    from repro.core.prices import PathPriceUpdater, ResourcePriceUpdater
    from repro.core.stepsize import AdaptiveStepSize
    from repro.distributed.checkpoint import CheckpointStore
    from repro.model import serialize
    from repro.model.task import TaskSet
    from repro.service import cache, service, supervisor

    compiled = _array_bytes
    return [
        (serialize, "taskset_from_json", "model.serialize.load", None),
        (structure, "compile_structure", "core.structure.compile", compiled),
        (vectorized, "compile_structure", "core.structure.compile", compiled),
        (cache, "compile_structure", "core.structure.compile", compiled),
        (LLAOptimizer, "__init__", "core.optimizer.init", None),
        (LLAOptimizer, "step", "core.optimizer.step", None),
        (vectorized.VectorizedEngine, "step_arrays", "core.vectorized.kernel",
         None),
        (vectorized.VectorizedEngine, "step", "core.vectorized.facade", None),
        (ConvergenceDetector, "converged", "core.convergence.check", bool),
        (TaskSet, "is_feasible", "model.task.is_feasible", None),
        (LatencyAllocator, "allocate", _allocate_name, None),
        (ResourcePriceUpdater, "update", "core.prices.update", None),
        (PathPriceUpdater, "update", "core.prices.update", None),
        (AdaptiveStepSize, "observe", "core.stepsize.observe", None),
        (service, "certify_infeasible", "analysis.admission.certify", None),
        (service, "taskset_fingerprint", "model.fingerprint.taskset", None),
        (cache, "taskset_fingerprint", "model.fingerprint.taskset", None),
        (service, "structure_to_dict", "core.structure.to_dict", None),
        (cache.StructureCache, "get", "service.cache.get", None),
        (service.AllocationService, "register", "service.rebuild", None),
        (service.AllocationService, "apply_batch", "service.rebuild", None),
        (service.AllocationService, "step", "service.solve_slice", None),
        (service.AllocationService, "allocations", "service.allocations",
         None),
        (service.AllocationService, "snapshot", "service.snapshot", None),
        (CheckpointStore, "save", "distributed.checkpoint.save", None),
        (supervisor.SupervisedService, "tick_async", "service.tick", None),
        (supervisor.SupervisedService, "query", "service.query", None),
    ]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._originals: List[Tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable[..., Any], name: Any,
             extra: Optional[Callable[[Any], Any]] = None) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``name``."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        named = callable(name)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                label = name(*args, **kwargs) if named else name
                sid, parent = next(ids), _OPEN.get()
                token = _OPEN.set(sid)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    _OPEN.reset(token)
                    spans.append((sid, label, parent, start, end, None))
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if named else name
            sid, parent = next(ids), _OPEN.get()
            token = _OPEN.set(sid)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                _OPEN.reset(token)
                spans.append((sid, label, parent, start, end,
                              extra(result) if returned and extra else None))
            return result
        return traced

    def install(self) -> None:
        """Swap the wrappers in."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, extra in _layer_calls():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, extra))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, parent, start, end, extra in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start": start, "end": end, "extra": extra,
                }) + "\n")


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, parent, start, end, _extra in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _name, _parent, start, end, _extra in spans:
        kids = [(max(a, start), min(b, end))
                for a, b in children.get(sid, ()) if b > start and a < end]
        result[sid] = (end - start) - _union_length(kids)
    return result


def covered_seconds(spans: List[Span], start: float, end: float) -> float:
    """Time within ``[start, end]`` during which any span was open."""
    return _union_length(
        (max(a, start), min(b, end))
        for _sid, _name, _parent, a, b, _extra in spans
        if b > start and a < end
    )
