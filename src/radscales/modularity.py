"""Network modularity, per-group contributions, and relative (d-) modularity.

All functions are pure over immutable inputs and use the grouped O(n+m)
computation: for group i with e_i in-group edges and degree sum D_i,

    Q_i = e_i / m - (D_i / 2m)^2        Q = sum_i Q_i        d_i = Q_i / Q

which is algebraically the configuration-model comparison summed over
same-group vertex pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyGraphError
from .graph import Graph, Partition

# Below this magnitude Q is treated as zero and relative contributions
# are undefined.
ZERO_Q_THRESHOLD = 1e-12


@dataclass(frozen=True)
class GroupModularity:
    """One group's absolute (qi) and relative (di) contribution."""

    group_index: int
    label: str
    qi: float
    di: float | None


@dataclass(frozen=True)
class ModularityReport:
    """Network modularity plus the per-group breakdown summing to it."""

    q: float
    per_group: tuple[GroupModularity, ...]

    def to_dict(self) -> dict:
        return {
            "Q": self.q,
            "groups": [
                {"label": g.label, "Qi": g.qi, "di": g.di} for g in self.per_group
            ],
        }


def _check_inputs(graph: Graph, partition: Partition) -> None:
    if graph.m == 0:
        raise EmptyGraphError("modularity needs at least one edge")
    if len(partition.group_of) != graph.n:
        raise ValueError("partition does not cover the graph's vertex set")


def _contributions(
    group_of: Sequence[int], edges: Iterable[tuple[int, int]], group_count: int, m: int
) -> tuple[float, list[float]]:
    """Q and every group's Q_i, from per-group in-edge counts and degree sums
    taken in one pass over the edges; Q is summed in group order."""
    in_edges = [0] * group_count
    degree_sums = [0] * group_count
    for u, v in edges:
        gu, gv = group_of[u], group_of[v]
        degree_sums[gu] += 1
        degree_sums[gv] += 1
        if gu == gv:
            in_edges[gu] += 1
    qis = [e / m - (d / (2 * m)) ** 2 for e, d in zip(in_edges, degree_sums)]
    return sum(qis), qis


def _relative(qi: float, q: float) -> float | None:
    return qi / q if abs(q) >= ZERO_Q_THRESHOLD else None


def modularity(graph: Graph, partition: Partition) -> float:
    """Modularity of the partition: edge concentration inside groups
    versus the degree-preserving random expectation."""
    _check_inputs(graph, partition)
    return _contributions(partition.group_of, graph.edges(), partition.group_count, graph.m)[0]


def d_modularity_report(graph: Graph, partition: Partition) -> ModularityReport:
    """Q plus every group's Q_i and d_i in one pass.

    d_i is None for all groups when Q is zero. The per-group Q_i values
    sum to Q exactly (same summation order as modularity()).
    """
    _check_inputs(graph, partition)
    q, qis = _contributions(partition.group_of, graph.edges(), partition.group_count, graph.m)
    per_group = tuple(
        GroupModularity(group_index=i, label=partition.group_label(i), qi=qi, di=_relative(qi, q))
        for i, qi in enumerate(qis)
    )
    return ModularityReport(q=q, per_group=per_group)
