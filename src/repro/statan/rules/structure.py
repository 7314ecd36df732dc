"""REP016 — compile once, share everywhere.

PR 10 made :class:`~repro.core.structure.TaskSetStructure` the canonical
compiled form of a task set: every per-iteration observer (loads, path
latencies, utilities, feasibility) has an array-based equivalent in
:mod:`repro.core.vectorized` that reads the structure.  Walking the
``TaskSet``/``Task`` object graph for the same facts is O(objects) per
call, duplicates the share/utility formulas, and silently diverges from
the compiled model the optimizer actually runs (e.g. after an error
correction refreshes the structure's arrays).

This rule flags calls to the traversal APIs inside the hot-path
packages (core, distributed, sim, service).  Call sites that must keep
traversing — the paper's per-element price updaters, which the
distributed agents run — carry inline suppressions explaining why.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statan.findings import Finding
from repro.statan.rules import FileContext, Rule

__all__ = ["StructureBypass"]

#: TaskSet/Task/TaskGraph methods that re-derive, per call, facts the
#: compiled structure already holds as arrays.
_TRAVERSAL_APIS = frozenset({
    "resource_loads",      # TaskSet → dict of per-resource loads, O(S)
    "resource_load",       # TaskSet → one resource's load, O(S)
    "total_utility",       # TaskSet → summed utilities, O(S)
    "is_feasible",         # TaskSet → feasibility, O(S + P)
    "constraint_violations",  # TaskSet → violation list, O(S + P)
    "subtasks_on",         # TaskSet → subtasks of a resource, O(S)
    "aggregated_latency",  # Task → weighted latency sum, O(S_t)
    "utility_value",       # Task → utility at a latency map, O(S_t)
    "critical_path",       # Task/TaskGraph → worst path, O(P_t)
    "path_latency",        # TaskGraph → one path's latency, O(|path|)
})


class StructureBypass(Rule):
    """REP016: hot paths read the compiled structure, not the object graph."""

    rule_id = "REP016"
    name = "object-graph-hot-path"
    rationale = (
        "The compiled TaskSetStructure is the single representation of a "
        "task set that the optimizer, distributed runtime, service and "
        "simulator share. Re-traversing the TaskSet object graph on a hot "
        "path recomputes facts the structure already holds as arrays, "
        "costs O(objects) per call, and can disagree with the compiled "
        "model after a live "
        "refresh (capacity shock, error correction). Observers in the hot "
        "packages must read the structure (repro.core.vectorized exposes "
        "compute_loads/observe_assignment); the per-element reference "
        "updaters keep traversing under justified suppressions."
    )
    scopes = (
        "repro/core/",
        "repro/distributed/",
        "repro/sim/",
        "repro/service/",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _TRAVERSAL_APIS:
                continue
            yield self.finding(
                ctx, node,
                f"`.{func.attr}(...)` re-traverses the TaskSet object "
                "graph on a hot path; read the compiled TaskSetStructure "
                "instead (repro.core.vectorized.observe_assignment / "
                "compute_loads), or suppress with the reason this site "
                "must keep traversing",
                api=func.attr,
            )
