"""Admission control layered on LLA (Section 3.2).

The paper scopes admission control out ("we assume any admission control
is layered on top of our approach") — this module is that layer.  An
:class:`AdmissionController` holds the currently admitted task set and
evaluates each arriving task by *hypothetically* adding it and running the
LLA schedulability test (Section 5.4): admit when the combined workload
converges feasibly, reject otherwise.  Rejection leaves the running
system untouched — the test runs on a copy of the state (LLA is
stateless given a task set, so "copy" just means a fresh optimizer).

Two admission modes:

* ``strict`` — the combined workload must classify SCHEDULABLE;
* ``utility`` — additionally require that admitting the task does not
  decrease the *incumbent* tasks' aggregate utility by more than
  ``max_utility_loss`` (protects important running tasks from dilution
  by low-value arrivals, using the same utility currency the optimizer
  maximizes).

:func:`certify_infeasible` is the cheap complement: a sound,
optimizer-free infeasibility certificate the always-on service runs on
every churn event before touching the live solve.  It can prove some
task sets unschedulable from closed-form bounds alone; it never
condemns a feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.analysis.schedulability import (
    SchedulabilityAnalyzer,
    SchedulabilityReport,
)
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.structure import TaskSetStructure, compile_structure
from repro.errors import ModelError
from repro.model.resources import Resource
from repro.model.task import Task, TaskSet

__all__ = ["AdmissionDecision", "AdmissionController", "certify_infeasible"]


def certify_infeasible(problem: Union[TaskSet, TaskSetStructure],
                       tol: float = 1e-9) -> Optional[str]:
    """A cheap, sound infeasibility certificate for ``problem``.

    Returns a human-readable reason when the task set *provably* cannot
    satisfy the capacity (Eq. 3) and critical-time (Eq. 4) constraints,
    ``None`` when no certificate is found (the workload may still turn
    out unschedulable — run the full LLA oracle for a definitive answer).
    Two closed-form checks, each valid for every admissible assignment:

    1. **Path floor.**  No subtask can beat its latency floor
       ``min_latency(B_r)`` (the structure's ``lo``) — a lower latency
       would need a share exceeding the resource's entire availability,
       violating Eq. 3 even with the subtask alone on the resource.  If
       one path's summed floors already exceed the task's critical time,
       Eq. 4 cannot hold.
    2. **Load floor.**  On any path through subtask ``s``, Eq. 4 caps
       ``lat_s`` at ``C_i`` minus the other path members' floors.  Shares
       decrease in latency, so each subtask needs at least
       ``share(cap_s)``; if those minimum shares sum above ``B_r`` on
       some resource, Eq. 3 cannot hold.

    Both checks are monotone in the bounds used, so the certificate is
    conservative: it never rejects a feasible task set.

    The checks run over the compiled structure's arrays (a task set is
    compiled first); every sum is a ``bincount`` in the order of the
    per-element loops — paths in canonical task order, members in path
    order, a resource's subtasks in subtask order — so the sums, and with
    them the decision and the reason, are those of the loops over a task
    set declared in canonical (name-sorted) order.  The reason names the
    first violation in that order.
    """
    s = problem if isinstance(problem, TaskSetStructure) \
        else compile_structure(problem)
    if not s.n_subtasks:
        return None
    floors = s.lo

    # (1) per-path latency floor vs the critical time
    path_floor = np.bincount(s.path_ids_flat, weights=floors[s.path_sub_flat],
                             minlength=s.n_paths)
    over = np.flatnonzero(path_floor > s.path_crit + tol)
    if over.size:
        p = int(over[0])
        lo, hi = np.searchsorted(s.path_ids_flat, (p, p + 1))
        members = [s.subtask_names[i] for i in s.path_sub_flat[lo:hi]]
        return (
            f"task {s.path_keys[p].task!r}: path {'->'.join(members)} "
            f"needs latency >= {float(path_floor[p]):.6g} even at full "
            f"availability, above its critical time "
            f"{float(s.path_crit[p]):.6g}"
        )

    # (2) per-resource load floor at the per-subtask latency caps: each
    # subtask's cap is the least, over its paths, of the critical time
    # minus the other members' floors.
    on_path = s.sub_path_flat
    cap_of_pair = s.path_crit[on_path] - (path_floor[on_path]
                                          - floors[s.sub_ids_flat])
    firsts = np.searchsorted(s.sub_ids_flat, np.arange(s.n_subtasks))
    caps = np.minimum.reduceat(cap_of_pair, firsts)
    finite = np.isfinite(caps)
    spent = finite & (caps <= 0.0)
    counted = finite & ~spent
    # share(cap) as the share functions compute it (see compute_loads);
    # rows left out of the sum get a placeholder latency.
    model_lat = np.where(counted, caps, 1.0) - s.err
    with np.errstate(divide="ignore", invalid="ignore"):
        if s.hyper_mask.all():
            shares = s.cost / model_lat
        else:
            shares = np.where(s.hyper_mask, s.cost / model_lat,
                              s.cost / model_lat ** s.alpha)
    load = np.bincount(s.sub_resource, weights=np.where(counted, shares, 0.0),
                       minlength=s.n_resources)
    exhausted = np.zeros(s.n_resources, dtype=bool)
    exhausted[s.sub_resource[spent]] = True
    failing = np.flatnonzero(exhausted | (load > s.availability + tol))
    if not failing.size:
        return None
    r = int(failing[0])
    if exhausted[r]:
        sub = int(np.flatnonzero(spent & (s.sub_resource == r))[0])
        return (
            f"subtask {s.subtask_names[sub]!r}: the rest of its path "
            "already exhausts the critical time at full availability"
        )
    return (
        f"resource {s.resource_names[r]!r}: hosted subtasks need load >= "
        f"{float(load[r]):.6g} at their critical-time latency caps, above "
        f"availability {float(s.availability[r]):.6g}"
    )


@dataclass
class AdmissionDecision:
    """Outcome of one admission test."""

    task: str
    admitted: bool
    reason: str
    report: Optional[SchedulabilityReport] = None
    incumbent_utility_before: float = 0.0
    incumbent_utility_after: float = 0.0

    @property
    def incumbent_utility_loss(self) -> float:
        return self.incumbent_utility_before - self.incumbent_utility_after


class AdmissionController:
    """Online task admission using LLA as the schedulability oracle."""

    def __init__(
        self,
        resources: List[Resource],
        mode: str = "strict",
        max_utility_loss: float = 0.0,
        analyzer: Optional[SchedulabilityAnalyzer] = None,
        optimizer_config: Optional[LLAConfig] = None,
    ):
        if mode not in ("strict", "utility"):
            raise ModelError(f"unknown admission mode {mode!r}")
        self.resources = list(resources)
        self.mode = mode
        self.max_utility_loss = float(max_utility_loss)
        self.analyzer = analyzer or SchedulabilityAnalyzer(iterations=800)
        self.optimizer_config = optimizer_config or LLAConfig(
            max_iterations=1500
        )
        self.admitted: List[Task] = []
        self.decisions: List[AdmissionDecision] = []
        self._current_latencies: Dict[str, float] = {}

    # -- queries -----------------------------------------------------------------

    @property
    def taskset(self) -> Optional[TaskSet]:
        """The currently admitted workload (``None`` when empty)."""
        if not self.admitted:
            return None
        return TaskSet(self.admitted, self.resources)

    @property
    def latencies(self) -> Dict[str, float]:
        """The optimized allocation for the admitted workload."""
        return dict(self._current_latencies)

    def incumbent_utility(self) -> float:
        ts = self.taskset
        if ts is None or not self._current_latencies:
            return 0.0
        return ts.total_utility(self._current_latencies)

    # -- admission ----------------------------------------------------------------

    def offer(self, task: Task) -> AdmissionDecision:
        """Test a task for admission; admit it if the policy allows."""
        if any(t.name == task.name for t in self.admitted):
            decision = AdmissionDecision(
                task=task.name, admitted=False,
                reason=f"task {task.name!r} already admitted",
            )
            self.decisions.append(decision)
            return decision

        candidate_tasks = self.admitted + [task]
        try:
            candidate = TaskSet(candidate_tasks, self.resources)
        except ModelError as exc:
            decision = AdmissionDecision(
                task=task.name, admitted=False,
                reason=f"structurally invalid: {exc}",
            )
            self.decisions.append(decision)
            return decision

        report = self.analyzer.analyze(candidate)
        if not report.schedulable:
            decision = AdmissionDecision(
                task=task.name, admitted=False,
                reason="combined workload not schedulable: "
                       + report.summary(),
                report=report,
            )
            self.decisions.append(decision)
            return decision

        before = self.incumbent_utility()
        result = LLAOptimizer(candidate, self.optimizer_config).run()
        incumbents = [t for t in candidate.tasks if t.name != task.name]
        after = sum(t.utility_value(result.latencies) for t in incumbents)

        if self.mode == "utility" and self.admitted and \
                before - after > self.max_utility_loss:
            decision = AdmissionDecision(
                task=task.name, admitted=False,
                reason=(
                    f"incumbent utility would drop {before - after:.2f} "
                    f"(> allowed {self.max_utility_loss:.2f})"
                ),
                report=report,
                incumbent_utility_before=before,
                incumbent_utility_after=after,
            )
            self.decisions.append(decision)
            return decision

        self.admitted.append(task)
        self._current_latencies = dict(result.latencies)
        decision = AdmissionDecision(
            task=task.name, admitted=True,
            reason="schedulable" if self.mode == "strict" else
                   f"schedulable, incumbent loss {before - after:.2f}",
            report=report,
            incumbent_utility_before=before,
            incumbent_utility_after=after,
        )
        self.decisions.append(decision)
        return decision

    def withdraw(self, task_name: str) -> bool:
        """Remove an admitted task (completed or cancelled); re-optimizes
        the remaining workload.  Returns whether the task was present."""
        remaining = [t for t in self.admitted if t.name != task_name]
        if len(remaining) == len(self.admitted):
            return False
        self.admitted = remaining
        if self.admitted:
            ts = TaskSet(self.admitted, self.resources)
            result = LLAOptimizer(ts, self.optimizer_config).run()
            self._current_latencies = dict(result.latencies)
        else:
            self._current_latencies = {}
        return True

    def admission_rate(self) -> float:
        """Fraction of offers admitted so far."""
        if not self.decisions:
            return 0.0
        admitted = sum(1 for d in self.decisions if d.admitted)
        return admitted / len(self.decisions)
