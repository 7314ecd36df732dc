"""Subtask graphs: the DAG precedence structure of a task (Section 2).

A subtask graph is a directed acyclic graph of subtasks with a unique root
(the *start subtask*); leaf nodes are *end subtasks*.  Edges represent
precedence — data transmission or logical ordering.  A *path* runs from the
root to a leaf; the task's end-to-end latency is the latency of its
*critical path*, the maximum-latency path.

The path-weighted utility variant (Section 3.2) weighs each subtask by the
number of root-to-leaf paths it belongs to; :meth:`SubtaskGraph.path_weights`
computes those counts without enumerating paths (product of path counts to
and from the node), though explicit enumeration is also provided for the
optimizer's per-path prices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import GraphError

__all__ = ["SubtaskGraph"]


class SubtaskGraph:
    """An immutable DAG over subtask names with a unique root.

    Parameters
    ----------
    nodes:
        All subtask names in the graph (order is preserved and used as a
        deterministic tiebreak everywhere).
    edges:
        Precedence pairs ``(before, after)``.

    A single isolated node is a valid graph (root == leaf, one path).
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[Tuple[str, str]]) -> None:
        self._nodes: List[str] = list(dict.fromkeys(nodes))
        if not self._nodes:
            raise GraphError("subtask graph must contain at least one node")
        node_set = set(self._nodes)
        self._succ: Dict[str, List[str]] = {n: [] for n in self._nodes}
        self._pred: Dict[str, List[str]] = {n: [] for n in self._nodes}
        seen_edges = set()
        for before, after in edges:
            if before not in node_set or after not in node_set:
                raise GraphError(
                    f"edge ({before!r}, {after!r}) references unknown subtask"
                )
            if before == after:
                raise GraphError(f"self-loop on subtask {before!r}")
            if (before, after) in seen_edges:
                continue
            seen_edges.add((before, after))
            self._succ[before].append(after)
            self._pred[after].append(before)

        self._topo_order = self._toposort()
        roots = [n for n in self._nodes if not self._pred[n]]
        if len(roots) != 1:
            raise GraphError(
                f"subtask graph must have a unique root, found {roots!r}"
            )
        self._root = roots[0]
        self._leaves = [n for n in self._nodes if not self._succ[n]]
        self._check_reachability()
        self._paths = self._enumerate_paths()
        self._weights = self._count_path_memberships()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def chain(cls, nodes: Sequence[str]) -> "SubtaskGraph":
        """A linear pipeline: each subtask precedes the next."""
        return cls(nodes, list(zip(nodes, nodes[1:])))

    @classmethod
    def single(cls, node: str) -> "SubtaskGraph":
        """A one-subtask graph (root is also the only leaf)."""
        return cls([node], [])

    # -- structural validation -----------------------------------------------

    def _toposort(self) -> List[str]:
        in_degree = {n: len(self._pred[n]) for n in self._nodes}
        ready = [n for n in self._nodes if in_degree[n] == 0]
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self._succ[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            cyclic = sorted(n for n in self._nodes if in_degree[n] > 0)
            raise GraphError(f"subtask graph contains a cycle through {cyclic!r}")
        return order

    def _check_reachability(self) -> None:
        reached = {self._root}
        frontier = [self._root]
        while frontier:
            node = frontier.pop()
            for succ in self._succ[node]:
                if succ not in reached:
                    reached.add(succ)
                    frontier.append(succ)
        unreachable = [n for n in self._nodes if n not in reached]
        if unreachable:
            raise GraphError(
                f"subtasks unreachable from root {self._root!r}: {unreachable!r}"
            )

    def _enumerate_paths(self) -> List[Tuple[str, ...]]:
        paths: List[Tuple[str, ...]] = []

        def walk(node: str, prefix: List[str]) -> None:
            prefix.append(node)
            if not self._succ[node]:
                paths.append(tuple(prefix))
            else:
                for succ in self._succ[node]:
                    walk(succ, prefix)
            prefix.pop()

        walk(self._root, [])
        return paths

    def _count_path_memberships(self) -> Dict[str, int]:
        # paths_to[n]: number of root->n paths; paths_from[n]: n->leaf paths.
        paths_to = {n: 0 for n in self._nodes}
        paths_to[self._root] = 1
        for node in self._topo_order:
            for succ in self._succ[node]:
                paths_to[succ] += paths_to[node]
        paths_from = {n: 0 for n in self._nodes}
        for node in reversed(self._topo_order):
            if not self._succ[node]:
                paths_from[node] = 1
            else:
                paths_from[node] = sum(paths_from[s] for s in self._succ[node])
        return {n: paths_to[n] * paths_from[n] for n in self._nodes}

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (n, s) for n in self._nodes for s in self._succ[n]
        )

    @property
    def root(self) -> str:
        return self._root

    @property
    def leaves(self) -> Tuple[str, ...]:
        return tuple(self._leaves)

    @property
    def paths(self) -> Tuple[Tuple[str, ...], ...]:
        """All root-to-leaf paths, deterministic order."""
        return tuple(self._paths)

    def successors(self, node: str) -> Tuple[str, ...]:
        self._require_node(node)
        return tuple(self._succ[node])

    def predecessors(self, node: str) -> Tuple[str, ...]:
        self._require_node(node)
        return tuple(self._pred[node])

    def topological_order(self) -> Tuple[str, ...]:
        return tuple(self._topo_order)

    def path_weights(self) -> Dict[str, int]:
        """Number of root-to-leaf paths through each subtask.

        These are the weights ``w_s`` of the path-weighted utility variant.
        """
        return dict(self._weights)

    def paths_through(self, node: str) -> Tuple[int, ...]:
        """Indices (into :attr:`paths`) of the paths containing ``node``."""
        self._require_node(node)
        return tuple(
            i for i, path in enumerate(self._paths) if node in path
        )

    def path_latency(self, path: Sequence[str],
                     latencies: Mapping[str, float]) -> float:
        """Sum of subtask latencies along ``path``, added from the root
        (the kernel's order; ``sum()`` is compensated on Python 3.12)."""
        total = 0.0
        try:
            for s in path:
                total += latencies[s]
        except KeyError as exc:
            raise GraphError(
                f"latency missing for subtask {exc.args[0]!r}"
            ) from exc
        return total

    def critical_path(
        self, latencies: Mapping[str, float]
    ) -> Tuple[Tuple[str, ...], float]:
        """The maximum-latency root-to-leaf path and its latency.

        Computed by dynamic programming forward from the root over the
        topological order rather than path enumeration, so it stays cheap
        on graphs whose path count is exponential in depth.  Each node
        keeps its largest predecessor prefix plus its own latency; since
        rounded addition is monotone, the result is, bit for bit, the
        largest of the path sums :meth:`path_latency` (and the kernel)
        add from the root.
        """
        best: Dict[str, float] = {}
        best_pred: Dict[str, str] = {}
        for node in self._topo_order:
            if node not in latencies:
                raise GraphError(f"latency missing for subtask {node!r}")
            if not self._pred[node]:
                # From 0.0, as path_latency and the kernel's sums start.
                best[node] = 0.0 + latencies[node]
            else:
                chosen = max(self._pred[node], key=lambda p: best[p])
                best[node] = best[chosen] + latencies[node]
                best_pred[node] = chosen
        leaf = max(self._leaves, key=lambda n: best[n])
        path = [leaf]
        while path[-1] in best_pred:
            path.append(best_pred[path[-1]])
        return tuple(reversed(path)), best[leaf]

    def _require_node(self, node: str) -> None:
        if node not in self._succ:
            raise GraphError(f"unknown subtask {node!r}")

    def __contains__(self, node: str) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"SubtaskGraph(nodes={len(self._nodes)}, "
            f"edges={sum(len(s) for s in self._succ.values())}, "
            f"paths={len(self._paths)})"
        )
