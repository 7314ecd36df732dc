"""Property-based tests for subtask graphs (hypothesis)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.structure import compile_structure
from repro.core.vectorized import critical_path_latencies, path_latencies
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import LinearUtility


@st.composite
def random_dags(draw, max_nodes=10):
    """Random single-root DAGs: each non-root node gets >= 1 earlier
    parent, guaranteeing acyclicity, reachability and a unique root."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent_count = draw(st.integers(min_value=1, max_value=i))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=i - 1),
                min_size=parent_count, max_size=parent_count, unique=True,
            )
        )
        for p in parents:
            edges.append((names[p], names[i]))
    return SubtaskGraph(names, edges)


@given(random_dags())
@settings(max_examples=80, deadline=None)
def test_weights_equal_path_membership_counts(graph):
    weights = graph.path_weights()
    for node in graph.nodes:
        member_count = sum(1 for p in graph.paths if node in p)
        assert weights[node] == member_count


@given(random_dags())
@settings(max_examples=80, deadline=None)
def test_every_path_starts_at_root_and_ends_at_leaf(graph):
    for path in graph.paths:
        assert path[0] == graph.root
        assert path[-1] in graph.leaves
        for a, b in zip(path, path[1:]):
            assert b in graph.successors(a)


@given(random_dags(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_critical_path_is_max_over_paths(graph, scale):
    latencies = {
        n: scale * (1.0 + (hash(n) % 17) / 7.0) for n in graph.nodes
    }
    _, crit = graph.critical_path(latencies)
    best = max(graph.path_latency(p, latencies) for p in graph.paths)
    # DP and direct summation may differ by float association order.
    assert crit == pytest.approx(best, rel=1e-12)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_valid(graph):
    position = {n: i for i, n in enumerate(graph.topological_order())}
    for before, after in graph.edges:
        assert position[before] < position[after]


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_root_weight_equals_total_paths(graph):
    assert graph.path_weights()[graph.root] == len(graph.paths)


@st.composite
def dags_with_latencies(draw):
    graph = draw(random_dags(max_nodes=8))
    latency = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                        allow_infinity=False)
    return graph, {n: draw(latency) for n in graph.nodes}


def _bits(value):
    return struct.pack("<d", value)


def _one_task_set(graph):
    names = list(graph.nodes)
    subtasks = [Subtask(name=n, resource=f"r{i}", exec_time=1.0)
                for i, n in enumerate(names)]
    task = Task(name="t", subtasks=subtasks, graph=graph,
                critical_time=1e6, utility=LinearUtility(1e6))
    resources = [Resource(name=f"r{i}", availability=1.0, lag=1.0)
                 for i in range(len(names))]
    return TaskSet([task], resources)


@given(dags_with_latencies())
@settings(max_examples=150, deadline=None)
def test_critical_path_is_bitwise_the_kernels(case):
    """The forward DP equals, bit for bit, the largest root-first path
    sum and the kernel's critical-path latency of the compiled task."""
    graph, latencies = case
    path, crit = graph.critical_path(latencies)
    assert _bits(graph.path_latency(path, latencies)) == _bits(crit)
    sums = [graph.path_latency(p, latencies) for p in graph.paths]
    assert _bits(max(sums)) == _bits(crit)
    s = compile_structure(_one_task_set(graph))
    lat = np.array([latencies[n] for n in s.subtask_names])
    kernel = critical_path_latencies(s, path_latencies(s, lat))
    assert _bits(float(kernel[0])) == _bits(crit)
