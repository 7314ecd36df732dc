"""The three workloads, driven through the entry points users call.

``solve`` and ``nonlinear`` load workload JSON and run a cold
:meth:`LLAOptimizer.run` to convergence, as ``repro optimize`` does;
``serve`` drives the hardened service that ``repro serve --harden`` runs
(without its fault plan) through a tick-keyed churn script while an
open-loop coroutine queries it.  Every call into the program goes through
its module or class attribute, so an installed :class:`Tracer` sees it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.errors import ReproError
from repro.model import serialize
from repro.service import BrownoutConfig, HardeningConfig, SupervisedService

from llabench import inputs
from llabench.tracing import Span, Tracer, covered_seconds, self_times

__all__ = ["Outcome", "run_workload", "WORKLOADS", "END_TO_END", "PER_LAYER"]

WORKLOADS = ("solve", "nonlinear", "serve")

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("solve_s", "s"),
    ("iterations_per_s", "it/s"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
    ("reconverge_p50_ms", "ms"), ("reconverge_p90_ms", "ms"),
)

#: (name, unit) of every per-layer metric, reported by traced runs.
PER_LAYER = (
    ("model.serialize.load_s", "s"),
    ("core.structure.compile_s", "s"),
    ("core.structure.compile_calls", "count"),
    ("core.structure.array_bytes", "bytes"),
    ("core.optimizer.init_s", "s"),
    ("core.optimizer.iterations", "count"),
    ("core.optimizer.step_self_ms", "ms"),
    ("core.vectorized.kernel_ms", "ms"),
    ("core.vectorized.facade_ms", "ms"),
    ("core.convergence.check_s", "s"),
    ("core.convergence.feasibility_calls", "count"),
    ("core.convergence.useful_ratio", "ratio"),
    ("core.allocation.numeric_calls", "count"),
    ("core.allocation.numeric_us", "us"),
    ("core.allocation.numeric_s", "s"),
    ("core.allocation.closed_form_s", "s"),
    ("core.prices.update_s", "s"),
    ("core.stepsize.observe_s", "s"),
    ("analysis.admission.certify_s", "s"),
    ("analysis.admission.certify_calls", "count"),
    ("model.fingerprint.taskset_s", "s"),
    ("service.cache.get_s", "s"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.rebuild_ms", "ms"),
    ("service.rebuild_calls", "count"),
    ("service.solve_slice_ms", "ms"),
    ("service.publish_ms", "ms"),
    ("service.snapshot_ms", "ms"),
    ("service.snapshot_bytes", "bytes"),
    ("core.structure.to_dict_s", "s"),
    ("distributed.checkpoint.save_s", "s"),
    ("service.tick_ms_p50", "ms"),
    ("service.tick_ms_p99", "ms"),
    ("service.query_us", "us"),
    ("service.query_wait_ms_p50", "ms"),
    ("service.query_wait_ms_p99", "ms"),
    ("service.reconverge_iterations", "count"),
    ("service.churn_submitted", "count"),
    ("service.churn_shed", "count"),
    ("service.churn_coalesced", "count"),
    ("service.checkpoint_retries", "count"),
    ("service.queries", "count"),
    ("service.queries_failed", "count"),
    ("service.queries_degraded", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
)

#: Timed set-ups per run, after one discarded warm-up.  A 10k-subtask
#: set-up takes about 0.5 s and a single timing swings by a third; the
#: nonlinear one takes about 10 ms; a serve set-up takes about 6 s, so its
#: two leave the serving phase most of the run.
SETUP_REPS = {"solve": 5, "nonlinear": 40, "serve": 2}
#: Iteration budget: the reference instances converge in 1,651 and 774.
BUDGET = 6000
#: Relative utility tolerance against :data:`inputs.REFERENCES`: the
#: convergence detector's own band.
UTILITY_RTOL = 1e-4
#: Iterations (solve/nonlinear) or ticks (serve) whose traced and untraced
#: wall times give ``trace.overhead_pct``.
OVERHEAD_PREFIX = {"solve": 400, "nonlinear": 400, "serve": 100}
#: serve: churn events per second of ``--seconds``, one every 3 ticks, then
#: a quiet tail so the last events reconverge inside the timed phase.  At 7
#: the serving phase lasts about ``--seconds``: the host alternates between
#: two speeds within seconds, and short windows do not average it out.
EVENTS_PER_SECOND = 7
QUIET_TICKS = 30
#: serve: open-loop query rate over the live tasks.
QUERY_RATE = 250.0
#: serve: bound on ticks spent reaching convergence outside the script.
CONVERGE_TICKS = 1000
#: serve: the cold re-solve that checks the final allocation's utility.
SERVE_UTILITY_RTOL = 0.01


@dataclass
class Outcome:
    """A run's report: the metrics of its mode, its operation counts,
    whether every correctness check passed, and why not."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    problems: List[str] = field(default_factory=list)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _optimizer_config(workload: str) -> LLAConfig:
    if workload == "solve":
        return LLAConfig(backend="vectorized", record_history=False,
                         max_iterations=BUDGET)
    # nonlinear: the default backend; only the budget is raised.
    return LLAConfig(max_iterations=BUDGET)


# -- solve and nonlinear ------------------------------------------------------------


def _set_up(text: str, config: LLAConfig) -> Tuple[LLAOptimizer, float]:
    gc.collect()
    start = time.perf_counter()
    optimizer = LLAOptimizer(serialize.taskset_from_json(text), config)
    return optimizer, time.perf_counter() - start


def _check_solve(workload: str, optimizer: LLAOptimizer, result: Any,
                 problems: List[str]) -> None:
    if not result.converged:
        problems.append(f"no convergence in {result.iterations} iterations")
    if not optimizer.taskset.is_feasible(result.latencies, tol=1e-2):
        problems.append("final latencies infeasible at tol 1e-2")
    reference = inputs.REFERENCES[workload]
    if abs(result.utility - reference) > UTILITY_RTOL * abs(reference):
        problems.append(f"utility {result.utility!r} differs from the "
                        f"reference {reference!r} by more than "
                        f"{UTILITY_RTOL:g} relative")


def _untraced_prefix(optimizer: LLAOptimizer, iterations: int) -> float:
    """Wall time of ``run()``'s loop body for ``iterations`` iterations."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(iterations):
        optimizer.step()
        if optimizer.detector.converged():
            break
    return time.perf_counter() - start


def _solve_workload(workload: str, seed: int, seconds: float,
                    tracer: Optional[Tracer]) -> Outcome:
    text = inputs.workload_json(workload, seed)
    config = _optimizer_config(workload)
    # Discarded warm-up: lazy imports and first calls stay out of timing.
    warm, _ = _set_up(text, config)
    warm.step()
    del warm
    reference_wall = 0.0
    if tracer is not None:
        warm, _ = _set_up(text, config)
        reference_wall = _untraced_prefix(warm, OVERHEAD_PREFIX[workload])
        del warm
        tracer.install()

    # Set-ups are timed on both sides of the solves, so their median
    # spans the run rather than one moment of the host's speed.
    setups: List[float] = []
    for _ in range((SETUP_REPS[workload] + 1) // 2):
        optimizer = None
        optimizer, took = _set_up(text, config)
        setups.append(took)
    # (set-up of the solve's optimizer, run() wall time, iterations)
    solves: List[Tuple[float, float, int]] = []
    problems: List[str] = []
    phase_start = time.perf_counter()
    while True:
        gc.collect()
        run_start = time.perf_counter()
        result = optimizer.run()
        wall = time.perf_counter() - run_start
        solves.append((setups[-1], wall, result.iterations))
        peak = _peak_rss_mb()
        # Checked and released before the next set-up, so the peak RSS
        # does not grow with the number of solves.
        if tracer is not None:
            tracer.uninstall()
        _check_solve(workload, optimizer, result, problems)
        optimizer = result = None
        # One traced solve; untraced runs repeat until --seconds passed.
        if tracer is not None or time.perf_counter() - phase_start >= seconds:
            break
        optimizer, took = _set_up(text, config)
        setups.append(took)
    for _ in range(SETUP_REPS[workload] // 2 if tracer is None else 0):
        optimizer, took = _set_up(text, config)
        setups.append(took)
        optimizer = None

    ok = not problems
    attempted = len(solves)
    if tracer is not None:
        metrics = _layer_metrics(
            tracer.spans, run_start, run_start + wall,
            _prefix_overhead(tracer.spans, run_start, reference_wall,
                             OVERHEAD_PREFIX[workload], "core.convergence.check"),
            {},
        )
    else:
        walls = [wall for _setup, wall, _its in solves]
        waits = [(setup + wall) * 1e3 for setup, wall, _its in solves]
        rates = [its / wall for _setup, wall, its in solves]
        metrics = _e2e(
            setup_s=_median(setups), peak_rss_mb=peak,
            solve_s=_median(walls), iterations_per_s=_median(rates),
            query_p50_ms=_pct(waits, 50), query_p99_ms=_pct(waits, 99),
            reconverge_p50_ms=_pct([w * 1e3 for w in walls], 50),
            reconverge_p90_ms=_pct([w * 1e3 for w in walls], 90),
        )
    return Outcome(metrics, attempted, 0 if ok else attempted, ok, problems)


# -- serve --------------------------------------------------------------------------


def _hardening(snapdir: str, ticks: int) -> HardeningConfig:
    """``repro serve --harden``'s settings, minus its fault plan."""
    return HardeningConfig(
        queue_capacity=8, stall_deadline=3, snapshot_interval=10,
        snapshot_dir=snapdir,
        brownout=BrownoutConfig(enter_after=2, exit_after=5),
        reconverge_patience=max(200, ticks), seed=0,
    )


async def _converge(service: SupervisedService) -> bool:
    for _ in range(CONVERGE_TICKS):
        if service.service.converged:
            return True
        await service.tick_async()
    return service.service.converged


async def _set_up_service(text: str, snapdir: str, ticks: int
                          ) -> Tuple[SupervisedService, float]:
    """Service construction with the initial membership, through first
    convergence (one rebuild per registered task)."""
    gc.collect()
    start = time.perf_counter()
    taskset = serialize.taskset_from_json(text)
    service = SupervisedService(list(taskset.resources.values()),
                                list(taskset.tasks),
                                config=_hardening(snapdir, ticks))
    if not await _converge(service):
        raise RuntimeError("service did not converge during set-up")
    return service, time.perf_counter() - start


@dataclass
class _Serving:
    """What the benchmark saw during one serving phase."""

    start: float = 0.0
    end: float = 0.0
    iterations: int = 0
    queries: List[Tuple[float, float, float]] = field(default_factory=list)
    failed_queries: int = 0
    degraded_queries: int = 0
    submitted: int = 0
    shed: int = 0
    refused: int = 0
    reconverge: List[float] = field(default_factory=list)
    unreconverged: int = 0
    reconverge_rounds: List[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    coalesced: int = 0


def _submit(service: SupervisedService, event: inputs.Event,
            originals: Dict[str, Any]) -> bool:
    if event.kind == "deregister":
        return service.deregister(event.key)
    if event.kind == "register":
        return service.register(originals[event.key])
    if event.kind == "update":
        return service.update_task(event.key, critical_time=event.value)
    return service.set_availability(event.key, float(event.value))


async def _serve_phase(service: SupervisedService, originals: Dict[str, Any],
                       script: inputs.ChurnScript, ticks: int,
                       rng: np.random.Generator) -> _Serving:
    """``ticks`` back-to-back ticks with the script's churn, beside an
    open-loop query coroutine; every query is timed from its due time."""
    rec = _Serving()
    live = sorted(originals)
    before = service.service.stats()
    queue_before = service.stats()
    stop_at: List[Optional[float]] = [None]
    rec.start = start = time.perf_counter()

    async def queries() -> None:
        k = 0
        while True:
            due = start + k / QUERY_RATE
            if stop_at[0] is not None and due >= stop_at[0]:
                return
            delay = due - time.perf_counter()
            if delay > 0.0:
                await asyncio.sleep(delay)
                continue
            name = live[int(rng.integers(len(live)))]
            began = time.perf_counter()
            try:
                view = service.query(name)
            except ReproError:
                rec.failed_queries += 1
            else:
                rec.degraded_queries += int(view.degraded)
            rec.queries.append((due, began, time.perf_counter()))
            k += 1

    query_task = asyncio.create_task(queries())
    pending: List[float] = []

    def settle() -> None:
        if pending and service.service.converged:
            now = time.perf_counter()
            rec.reconverge.extend(now - submitted for submitted in pending)
            pending.clear()

    for tick in range(1, ticks + 1):
        event = script.events.get(tick)
        if event is not None:
            submitted = time.perf_counter()
            rec.submitted += 1
            if _submit(service, event, originals):
                pending.append(submitted)
                if event.kind == "deregister":
                    live.remove(event.key)
                elif event.kind == "register":
                    live.append(event.key)
            else:
                rec.shed += 1
        await service.tick_async()
        settle()
        await asyncio.sleep(0)
    rec.end = time.perf_counter()
    stop_at[0] = rec.end
    await query_task
    after = service.service.stats()
    rec.iterations = after.iterations - before.iterations
    # Events still settling when the phase ends are timed to the first
    # converged tick after it.
    for _ in range(CONVERGE_TICKS):
        if not pending:
            break
        await service.tick_async()
        settle()
    rec.unreconverged = len(pending)
    after = service.service.stats()
    rec.refused = after.admission_rejections - before.admission_rejections
    rec.reconverge_rounds = list(
        after.reconvergence_rounds[len(before.reconvergence_rounds):])
    rec.cache_hits = after.cache_hits - before.cache_hits
    rec.cache_lookups = rec.cache_hits + after.cache_misses \
        - before.cache_misses
    rec.coalesced = service.stats().queue_coalesced \
        - queue_before.queue_coalesced
    return rec


def _check_serve(service: SupervisedService, script: inputs.ChurnScript,
                 rec: _Serving, problems: List[str]) -> None:
    """Membership, feasibility and utility against a cold re-solve; run
    after timing ends."""
    inner = service.service
    if rec.unreconverged:
        problems.append(f"{rec.unreconverged} churn events never reconverged")
    if set(inner.tasks) != set(script.members):
        problems.append("final membership differs from the script's")
    else:
        for name in script.members:
            if inner.task(name).critical_time != script.critical_times[name]:
                problems.append(f"task {name!r} has the wrong critical time")
    taskset = inner.taskset
    if taskset is None:
        problems.append("no task set at the end of the script")
        return
    for rname, value in script.availabilities.items():
        if taskset.resources[rname].availability != value:
            problems.append(f"resource {rname!r} has the wrong availability")
    latencies = inner.allocations()
    if not inner.converged:
        problems.append("final allocation not converged")
    if not taskset.is_feasible(latencies, tol=1e-2):
        problems.append("final allocation infeasible at tol 1e-2")
    served = taskset.total_utility(latencies)
    cold = LLAOptimizer(taskset, LLAConfig(
        backend="vectorized", record_history=False, max_iterations=20000,
    )).run()
    if not cold.converged:
        problems.append("cold re-solve of the final membership did not converge")
    elif abs(served - cold.utility) > SERVE_UTILITY_RTOL * abs(cold.utility):
        problems.append(f"served utility {served!r} is not within "
                        f"{SERVE_UTILITY_RTOL:g} of the cold re-solve's "
                        f"{cold.utility!r}")


async def _serve_workload(seed: int, seconds: float, tracer: Optional[Tracer],
                          workdir: str) -> Outcome:
    text = inputs.workload_json("serve", seed)
    originals = {t.name: t for t in serialize.taskset_from_json(text).tasks}
    n_events = max(1, int(EVENTS_PER_SECOND * seconds))
    ticks = inputs.EVENT_EVERY * n_events + QUIET_TICKS
    script = inputs.churn_script(serialize.taskset_from_json(text), seed,
                                 n_events)
    os.makedirs(workdir, exist_ok=True)
    dirs: List[tempfile.TemporaryDirectory] = []

    def snapdir() -> str:
        dirs.append(tempfile.TemporaryDirectory(prefix="serve-", dir=workdir))
        return dirs[-1].name

    try:
        # Discarded warm-up on a few tasks: imports and first calls.
        small = serialize.taskset_from_json(text)
        warm = SupervisedService(list(small.resources.values()),
                                 list(small.tasks)[:8],
                                 config=_hardening(snapdir(), ticks))
        await _converge(warm)
        del warm
        reference_wall = 0.0
        if tracer is not None:
            prefix = OVERHEAD_PREFIX["serve"]
            service, _ = await _set_up_service(text, snapdir(), ticks)
            ref = await _serve_phase(service, originals, script, prefix,
                                     inputs.query_rng(seed))
            reference_wall = ref.end - ref.start
            del service
            tracer.install()
        # Set-ups are timed on both sides of the serving phase, so their
        # median spans the run rather than one moment of the host's speed.
        reps = 1 if tracer is not None else SETUP_REPS["serve"]
        setups: List[float] = []
        for _ in range((reps + 1) // 2):
            service = None
            service, took = await _set_up_service(text, snapdir(), ticks)
            setups.append(took)
        gc.collect()
        rec = await _serve_phase(service, originals, script, ticks,
                                 inputs.query_rng(seed))
        peak = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        store = service.snapshots.directory or ""
        snapshot_bytes = sum(entry.stat().st_size
                             for entry in os.scandir(store) if entry.is_file())

        problems: List[str] = []
        if rec.failed_queries:
            problems.append(f"{rec.failed_queries} queries raised")
        if rec.degraded_queries:
            problems.append(f"{rec.degraded_queries} queries answered degraded")
        if rec.shed or rec.refused:
            problems.append(f"{rec.shed} churn events shed, "
                            f"{rec.refused} refused")
        if not await _converge(service):
            problems.append("service did not converge after the script")
        _check_serve(service, script, rec, problems)
        ok = not problems
        for _ in range(reps // 2):
            extra, took = await _set_up_service(text, snapdir(), ticks)
            setups.append(took)
            del extra
    finally:
        for handle in dirs:
            handle.cleanup()

    attempted = len(rec.queries) + rec.submitted
    failed = rec.failed_queries + rec.degraded_queries + rec.shed + rec.refused
    if tracer is not None:
        waits = [(began - due) * 1e3 for due, began, _end in rec.queries]
        stats = service.stats()
        counted = {
            "service.cache.hit_ratio": rec.cache_hits / rec.cache_lookups
            if rec.cache_lookups else 0.0,
            "service.snapshot_bytes": float(snapshot_bytes),
            "service.query_wait_ms_p50": _pct(waits, 50),
            "service.query_wait_ms_p99": _pct(waits, 99),
            "service.reconverge_iterations": _median(
                [float(r) for r in rec.reconverge_rounds]),
            "service.churn_submitted": float(rec.submitted),
            "service.churn_shed": float(rec.shed),
            "service.churn_coalesced": float(rec.coalesced),
            "service.checkpoint_retries": float(stats.retries),
            "service.queries": float(len(rec.queries)),
            "service.queries_failed": float(rec.failed_queries),
            "service.queries_degraded": float(rec.degraded_queries),
        }
        metrics = _layer_metrics(
            tracer.spans, rec.start, rec.end,
            _prefix_overhead(tracer.spans, rec.start, reference_wall,
                             OVERHEAD_PREFIX["serve"], "service.tick"),
            counted,
        )
    else:
        latencies = [(end - due) * 1e3 for due, _began, end in rec.queries]
        reconverge = [r * 1e3 for r in rec.reconverge]
        wall = rec.end - rec.start
        metrics = _e2e(
            setup_s=_median(setups), peak_rss_mb=peak, solve_s=wall,
            iterations_per_s=rec.iterations / wall,
            query_p50_ms=_pct(latencies, 50),
            query_p99_ms=_pct(latencies, 99),
            reconverge_p50_ms=_pct(reconverge, 50),
            reconverge_p90_ms=_pct(reconverge, 90),
        )
    return Outcome(metrics, attempted, attempted if not ok else failed, ok,
                   problems)


# -- metrics ------------------------------------------------------------------------


def _e2e(**values: float) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values[name]), unit) for name, unit in END_TO_END}


def _prefix_overhead(spans: List[Span], start: float, untraced: float,
                     count: int, boundary: str) -> float:
    """Percent by which the traced run took longer than the untraced one
    to reach the end of the ``count``-th top-level ``boundary`` span."""
    ends = sorted(end for _sid, name, parent, _start, end, _extra in spans
                  if name == boundary and parent is None and end >= start)
    if not ends or untraced <= 0.0:
        return 0.0
    traced = ends[min(count, len(ends)) - 1] - start
    return 100.0 * (traced - untraced) / untraced


def _layer_metrics(spans: List[Span], start: float, end: float,
                   overhead_pct: float, counted: Dict[str, float]
                   ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced run's spans; ``[start, end]`` is
    its timed phase."""
    own = self_times(spans)
    named: Dict[str, List[Span]] = {}
    for span in spans:
        named.setdefault(span[1], []).append(span)

    def of(name: str, in_phase: bool = False) -> List[Span]:
        found = named.get(name, [])
        if in_phase:
            found = [s for s in found if s[3] >= start and s[4] <= end]
        return found

    def total_self(*names: str) -> float:
        return sum(own[s[0]] for name in names for s in of(name))

    def median_ms(name: str, self_time: bool = False,
                  in_phase: bool = False) -> float:
        return _median([(own[s[0]] if self_time else s[4] - s[3]) * 1e3
                        for s in of(name, in_phase)])

    check_ids = {s[0] for s in of("core.convergence.check")}
    feasibility = [s for s in of("model.task.is_feasible")
                   if s[2] in check_ids]
    verdicts = sum(1 for s in of("core.convergence.check") if s[5])
    numeric = of("core.allocation.numeric")
    compiled = [s[5] for s in of("core.structure.compile")]

    ticks = of("service.tick", in_phase=True)
    queries = sorted((s[3], s[4]) for s in of("service.query"))
    query_starts = [a for a, _b in queries]
    busy = []
    for _sid, _name, _parent, a, b, _extra in ticks:
        # Busy time: the tick's span less the queries the loop ran while
        # the tick awaited its snapshot thread.
        lo = int(np.searchsorted(query_starts, a, side="left"))
        hi = int(np.searchsorted(query_starts, b, side="right"))
        interleaved = sum(min(qb, b) - max(qa, a)
                          for qa, qb in queries[lo:hi])
        busy.append((b - a - interleaved) * 1e3)
    tick_ids = {s[0] for s in ticks}
    publish: Dict[int, float] = {}
    for name in ("model.task.is_feasible", "service.allocations"):
        for _sid, _name, parent, a, b, _extra in of(name):
            if parent in tick_ids:
                publish[parent] = publish.get(parent, 0.0) + (b - a) * 1e3

    values = {
        "model.serialize.load_s": total_self("model.serialize.load"),
        "core.structure.compile_s": total_self("core.structure.compile"),
        "core.structure.compile_calls": float(len(compiled)),
        "core.structure.array_bytes": float(max(compiled, default=0)),
        "core.optimizer.init_s": total_self("core.optimizer.init"),
        "core.optimizer.iterations": float(
            len(of("core.optimizer.step", in_phase=True))),
        "core.optimizer.step_self_ms": median_ms(
            "core.optimizer.step", self_time=True, in_phase=True),
        "core.vectorized.kernel_ms": median_ms("core.vectorized.kernel"),
        "core.vectorized.facade_ms": median_ms("core.vectorized.facade",
                                               self_time=True),
        "core.convergence.check_s": sum(
            s[4] - s[3] for s in of("core.convergence.check")),
        "core.convergence.feasibility_calls": float(len(feasibility)),
        "core.convergence.useful_ratio": verdicts / len(feasibility)
        if feasibility else 0.0,
        "core.allocation.numeric_calls": float(len(numeric)),
        "core.allocation.numeric_us": median_ms("core.allocation.numeric")
        * 1e3,
        "core.allocation.numeric_s": total_self("core.allocation.numeric"),
        "core.allocation.closed_form_s": total_self(
            "core.allocation.closed_form"),
        "core.prices.update_s": total_self("core.prices.update"),
        "core.stepsize.observe_s": total_self("core.stepsize.observe"),
        "analysis.admission.certify_s": total_self(
            "analysis.admission.certify"),
        "analysis.admission.certify_calls": float(
            len(of("analysis.admission.certify"))),
        "model.fingerprint.taskset_s": total_self("model.fingerprint.taskset"),
        "service.cache.get_s": total_self("service.cache.get"),
        "service.rebuild_ms": median_ms("service.rebuild"),
        "service.rebuild_calls": float(len(of("service.rebuild"))),
        "service.solve_slice_ms": median_ms("service.solve_slice",
                                            in_phase=True),
        "service.publish_ms": _median(list(publish.values())),
        "service.snapshot_ms": median_ms("service.snapshot"),
        "core.structure.to_dict_s": total_self("core.structure.to_dict"),
        "distributed.checkpoint.save_s": total_self(
            "distributed.checkpoint.save"),
        "service.tick_ms_p50": _pct(busy, 50),
        "service.tick_ms_p99": _pct(busy, 99),
        "service.query_us": median_ms("service.query") * 1e3,
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": 100.0 * covered_seconds(spans, start, end)
        / (end - start),
    }
    values.update(counted)
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Tuple[Outcome, Optional[Tracer]]:
    """Run one workload in this (fresh) process."""
    tracer = Tracer() if trace else None
    try:
        if workload == "serve":
            outcome = asyncio.run(
                _serve_workload(seed, seconds, tracer, workdir))
        else:
            outcome = _solve_workload(workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome, tracer
