"""Tracing is transparent and covers the run, at toy sizes of each workload.

Run with ``python -m pytest llabench/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from repro.core.optimizer import LLAOptimizer
from repro.model import serialize
from repro.workloads.generator import GeneratorConfig, random_workload

from llabench import inputs, workloads
from llabench.tracing import Tracer, covered_seconds, self_times

TOY = {
    "solve": GeneratorConfig(n_tasks=40, n_resources=30,
                             min_subtasks=4, max_subtasks=4),
    "nonlinear": GeneratorConfig(n_tasks=6, n_resources=6, min_subtasks=3,
                                 max_subtasks=4, provisioning=0.6),
    "serve": GeneratorConfig(n_tasks=12, n_resources=10,
                             min_subtasks=4, max_subtasks=4),
}
SEED = 3


def toy_json(workload: str) -> str:
    taskset = random_workload(TOY[workload], seed=inputs.BASE_SEED)
    if workload == "nonlinear":
        taskset = inputs.cycled_utilities(taskset)
    return serialize.taskset_to_json(inputs.relabel(taskset, SEED))


def solve(workload: str, text: str, tracer: Tracer = None):
    if tracer is not None:
        tracer.install()
    try:
        optimizer = LLAOptimizer(serialize.taskset_from_json(text),
                                 workloads._optimizer_config(workload))
        start = time.perf_counter()
        result = optimizer.run()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, start, end


def serve(text: str, tracer: Tracer = None, n_events: int = 8):
    originals = {t.name: t for t in serialize.taskset_from_json(text).tasks}
    script = inputs.churn_script(serialize.taskset_from_json(text), SEED,
                                 n_events)
    ticks = inputs.EVENT_EVERY * n_events + 10

    async def scenario():
        with tempfile.TemporaryDirectory() as snapdir:
            service, _ = await workloads._set_up_service(text, snapdir, ticks)
            if tracer is not None:
                tracer.install()
            try:
                rec = await workloads._serve_phase(
                    service, originals, script, ticks, inputs.query_rng(SEED))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            inner = service.service
            utility = inner.taskset.total_utility(inner.allocations())
            return rec, inner.stats(), utility

    return asyncio.run(scenario())


@pytest.mark.parametrize("workload", ["solve", "nonlinear"])
def test_tracing_is_transparent_and_covers_solves(workload):
    text = toy_json(workload)
    plain, _, _ = solve(workload, text)
    tracer = Tracer()
    traced, start, end = solve(workload, text, tracer)

    assert plain.converged and traced.converged
    assert traced.iterations == plain.iterations
    assert traced.utility == plain.utility
    metrics = workloads._layer_metrics(tracer.spans, start, end, 0.0, {})
    assert metrics["core.optimizer.iterations"][0] == plain.iterations
    assert metrics["trace.coverage_pct"][0] >= 90.0


def test_tracing_is_transparent_and_covers_serve():
    text = toy_json("serve")
    plain_rec, plain_stats, plain_utility = serve(text)
    tracer = Tracer()
    rec, stats, utility = serve(text, tracer)

    assert utility == plain_utility
    assert stats.iterations == plain_stats.iterations
    assert stats.reconvergence_rounds == plain_stats.reconvergence_rounds
    assert rec.failed_queries == 0 and rec.queries
    metrics = workloads._layer_metrics(tracer.spans, rec.start, rec.end,
                                       0.0, {})
    assert metrics["core.optimizer.iterations"][0] == rec.iterations
    assert metrics["trace.coverage_pct"][0] >= 90.0


def test_span_parents_follow_tasks_and_threads():
    # Snapshots run in asyncio.to_thread's worker and must still nest under
    # their tick; queries run as their own asyncio task and must not.
    tracer = Tracer()
    serve(toy_json("serve"), tracer)
    names = {sid: name for sid, name, *_rest in tracer.spans}
    snapshots = [s for s in tracer.spans if s[1] == "service.snapshot"]
    queries = [s for s in tracer.spans if s[1] == "service.query"]
    assert snapshots and queries
    assert all(names[s[2]] == "service.tick" for s in snapshots)
    assert all(s[2] is None for s in queries)


def test_uninstall_restores_the_originals():
    original = LLAOptimizer.step
    loader = serialize.taskset_from_json
    tracer = Tracer()
    tracer.install()
    assert LLAOptimizer.step is not original
    tracer.uninstall()
    assert LLAOptimizer.step is original
    assert serialize.taskset_from_json is loader


def test_a_raising_call_still_records_its_span():
    tracer = Tracer()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fails, "layer.fails", extra=len)()
    assert [(s[1], s[2], s[5]) for s in tracer.spans] \
        == [("layer.fails", None, None)]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", None, 0.0, 10.0, None),
        (2, "a", 1, 1.0, 3.0, None),
        (3, "b", 1, 2.0, 5.0, None),
        (4, "c", None, 12.0, 14.0, None),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 3.0, 4: 2.0}
    assert covered_seconds(spans, 0.0, 20.0) == 12.0
    assert covered_seconds(spans, 9.0, 13.0) == 2.0


def test_run_without_the_program_exits_nonzero(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "llabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "llabench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_benchmark_json_names_what_runs_report():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(os.path.dirname(bench), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(workloads.PER_LAYER)
