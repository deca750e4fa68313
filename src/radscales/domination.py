"""Partial dominating sets: how few vertices reach a rho-fraction of a graph.

A vertex covers its closed neighborhood (itself plus its neighbors). The
greedy heuristic repeatedly picks the vertex covering the most yet-uncovered
vertices (ties to the smallest index) via a lazy max-heap, so it stays
O((n + m) log n) and fits community-scale graphs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import EmptyGraphError, InvalidRhoError
from .graph import Graph


@dataclass(frozen=True)
class DominationResult:
    """Outcome of a (partial) domination run.

    ``authorities`` is in greedy pick order. No proper prefix reaches the
    target on its own.
    """

    authorities: tuple[int, ...]
    rho: float
    target_count: int
    covered_count: int
    graph_size: int

    @property
    def size(self) -> int:
        return len(self.authorities)

    def to_dict(self, graph: Graph) -> dict:
        return {
            "rho": self.rho,
            "size": self.size,
            "covered": self.covered_count,
            "n": self.graph_size,
            "authorities": [graph.labels[v] for v in self.authorities],
        }


def _coverage_target(rho: float, n: int) -> int:
    if not 0 < rho <= 1:
        raise InvalidRhoError(rho)
    raw = rho * n
    # ceil with a snap so float fuzz like 0.3 * 10 = 3.0000000000000004
    # does not overshoot the intended integer target.
    nearest = round(raw)
    if abs(raw - nearest) < 1e-9:
        return nearest
    return math.ceil(raw)


def greedy_partial_dominating_set(graph: Graph, rho: float) -> DominationResult:
    """Greedy authority set reaching at least ceil(rho * n) vertices.

    Each iteration adds the vertex covering the most yet-uncovered
    vertices, ties broken by smallest index, stopping as soon as the
    target is met. Deterministic; for rho1 <= rho2 the rho1 result is a
    prefix of the rho2 result.
    """
    n = graph.n
    if n == 0:
        raise EmptyGraphError("domination needs at least one vertex")
    target = _coverage_target(rho, n)
    # Closed neighborhoods are symmetric: the vertices covering u are N[u].
    lists = [(v, *graph.adjacency[v]) for v in range(n)]
    gain = [len(covered_by_v) for covered_by_v in lists]
    heap = [(-gain[v], v) for v in range(n)]
    heapq.heapify(heap)
    covered = [False] * n
    picked = [False] * n
    covered_count = 0
    picks: list[int] = []
    while covered_count < target:
        while heap:
            negative_gain, v = heapq.heappop(heap)
            if not picked[v] and -negative_gain == gain[v]:
                break
        else:
            raise AssertionError("no vertex adds coverage before target met")
        if gain[v] == 0:
            # Unreachable: every uncovered vertex covers at least itself.
            raise AssertionError("zero-gain pick before target met")
        picked[v] = True
        picks.append(v)
        for u in lists[v]:
            if covered[u]:
                continue
            covered[u] = True
            covered_count += 1
            for w in lists[u]:
                gain[w] -= 1
                if not picked[w]:
                    heapq.heappush(heap, (-gain[w], w))
    return DominationResult(
        authorities=tuple(picks),
        rho=rho,
        target_count=target,
        covered_count=covered_count,
        graph_size=n,
    )
