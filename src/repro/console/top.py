"""``repro top``: a live terminal view of a running distributed LLA system.

Architecture mirrors the repo's replay==live principle: all layout logic
lives in pure functions from an immutable :class:`TopState` snapshot to
a string, so tests assert on rendered frames without a terminal, and the
interactive driver (:func:`live_top`) is a thin loop — snapshot, render,
emit — with ANSI screen-clearing as the only terminal-specific piece
(disabled by ``--plain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.diagnostics.engine import DiagnosticsEngine
from repro.diagnostics.findings import Finding

__all__ = ["TopState", "collect_top_state", "render_top", "live_top"]

#: ANSI: clear screen + home cursor (the interactive redraw prefix).
CLEAR = "\x1b[2J\x1b[H"


@dataclass(frozen=True)
class TopState:
    """One render-ready snapshot of a distributed run."""

    round: int
    utility: float
    feasible: bool
    #: (name, price, load, availability, congested) per resource.
    resources: Tuple[Tuple[str, float, float, float, bool], ...]
    #: Bus counters: sent/delivered/dropped/expired/deduplicated/pending.
    bus: Dict[str, int] = field(default_factory=dict)
    degraded: Tuple[str, ...] = ()
    crashed: Tuple[str, ...] = ()
    findings: Tuple[Finding, ...] = ()


def collect_top_state(runtime: object,
                      engine: Optional[DiagnosticsEngine] = None) -> TopState:
    """Snapshot a :class:`~repro.distributed.runtime.DistributedLLARuntime`.

    Typed loosely (``object``) to avoid importing the distributed layer
    here; duck-typing keeps the console usable with runtime test doubles.
    """
    taskset = runtime.taskset  # type: ignore[attr-defined]
    latencies = runtime.global_latencies()  # type: ignore[attr-defined]
    loads = taskset.resource_loads(latencies)
    rows: List[Tuple[str, float, float, float, bool]] = []
    for name in sorted(taskset.resources):
        resource = taskset.resources[name]
        load = loads.get(name, 0.0)
        agent = runtime.resources[name]  # type: ignore[attr-defined]
        rows.append((
            name, float(agent.price), float(load),
            float(resource.availability),
            load > resource.availability + 1e-9,
        ))
    bus = runtime.bus  # type: ignore[attr-defined]
    return TopState(
        round=int(runtime.round),  # type: ignore[attr-defined]
        utility=float(taskset.total_utility(latencies)),
        feasible=bool(taskset.is_feasible(latencies, tol=1e-2)),
        resources=tuple(rows),
        bus={
            "sent": bus.sent, "delivered": bus.delivered,
            "dropped": bus.dropped, "expired": bus.expired,
            "deduplicated": bus.deduplicated, "pending": bus.pending(),
        },
        degraded=tuple(runtime.degraded_controllers()),  # type: ignore[attr-defined]
        crashed=tuple(runtime.crashed_agents()),  # type: ignore[attr-defined]
        findings=tuple(engine.report()) if engine is not None else (),
    )


def _bar(fraction: float, width: int = 20) -> str:
    """A utilization bar, clamped to [0, 1+] with overflow marked."""
    clamped = max(0.0, min(fraction, 1.0))
    filled = int(round(clamped * width))
    bar = "#" * filled + "." * (width - filled)
    return bar + ("!" if fraction > 1.0 else " ")


def render_top(state: TopState, width: int = 78) -> str:
    """Render one frame; deterministic for a given state."""
    lines: List[str] = []
    status = "FEASIBLE" if state.feasible else "INFEASIBLE"
    lines.append(
        f"repro top — round {state.round}  utility {state.utility:.4f}  "
        f"[{status}]"
    )
    lines.append("-" * width)
    lines.append(
        f"{'resource':<12} {'price':>10} {'load':>10} {'avail':>8}  "
        f"utilization"
    )
    for name, price, load, availability, congested in state.resources:
        fraction = load / availability if availability else 0.0
        marker = " CONGESTED" if congested else ""
        lines.append(
            f"{name:<12} {price:>10.4f} {load:>10.4f} {availability:>8.3f}  "
            f"{_bar(fraction)} {fraction:>6.1%}{marker}"
        )
    if state.bus:
        b = state.bus
        lines.append("-" * width)
        lines.append(
            f"bus: sent {b.get('sent', 0)}  delivered {b.get('delivered', 0)}"
            f"  dropped {b.get('dropped', 0)}  expired {b.get('expired', 0)}"
            f"  dedup {b.get('deduplicated', 0)}"
            f"  in-flight {b.get('pending', 0)}"
        )
    if state.crashed:
        lines.append(f"crashed: {', '.join(state.crashed)}")
    if state.degraded:
        lines.append(f"degraded: {', '.join(state.degraded)}")
    if state.findings:
        lines.append("-" * width)
        lines.append("health:")
        for finding in state.findings:
            lines.append(
                f"  [{finding.severity.upper():<8}] {finding.detector}: "
                f"{finding.summary}"
            )
    else:
        lines.append("health: no findings")
    return "\n".join(lines)


def live_top(runtime: object, rounds: int, refresh_every: int = 10,
             engine: Optional[DiagnosticsEngine] = None,
             emit: Optional[Callable[[str], None]] = None,
             plain: bool = False) -> TopState:
    """Drive a runtime for ``rounds`` rounds, emitting a frame every
    ``refresh_every`` rounds (and a final one); returns the last state.

    ``emit`` defaults to ``print``; interactive mode prefixes each frame
    with an ANSI clear, ``plain`` just separates frames with a blank
    line (scripts, tests, logs).
    """
    if emit is None:
        emit = print
    state = collect_top_state(runtime, engine)
    remaining = int(rounds)
    while remaining > 0:
        batch = min(refresh_every, remaining)
        for _ in range(batch):
            record = runtime.step()  # type: ignore[attr-defined]
            if engine is not None:
                engine.observe(record)
        remaining -= batch
        state = collect_top_state(runtime, engine)
        frame = render_top(state)
        emit(frame if plain else CLEAR + frame)
    return state
