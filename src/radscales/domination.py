"""Partial dominating sets: how few vertices reach a rho-fraction of a graph.

A vertex covers its closed neighborhood (itself plus its neighbors). The
greedy heuristic repeatedly picks the vertex covering the most yet-uncovered
vertices (ties to the smallest index) via a lazy max-heap, so it stays
O((n + m) log n) and fits community-scale graphs. One run records the
covered count after each pick, so it answers every smaller target too.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def to_dict(self, labels: Sequence[str]) -> dict:
        """The result as JSON, vertex ``v`` named ``labels[v]``."""
        return {
            "rho": self.rho,
            "size": self.size,
            "covered": self.covered_count,
            "n": self.graph_size,
            "authorities": [labels[v] for v in self.authorities],
        }


def _check_rho(rho: float, name: str = "rho") -> None:
    """The one rule for a coverage fraction: it lies in (0, 1]."""
    if not 0 < rho <= 1:
        raise InvalidRhoError(rho, name)


def _coverage_target(rho: float, n: int) -> int:
    _check_rho(rho)
    raw = rho * n
    # ceil with a snap so float fuzz like 0.3 * 10 = 3.0000000000000004
    # does not overshoot the intended integer target.
    nearest = round(raw)
    if abs(raw - nearest) < 1e-9:
        return nearest
    return math.ceil(raw)


def _greedy_sweep(adjacency: Sequence[Sequence[int]], rhos: Iterable[float]) -> tuple[DominationResult, ...]:
    """The greedy result for each rho over a graph's ``adjacency`` rows, from
    one run at the largest target: the picks do not depend on the target but
    where they stop, so each rho's authorities are the shortest prefix that
    reaches its target."""
    n = len(adjacency)
    if n == 0:
        raise EmptyGraphError("domination needs at least one vertex")
    rhos = tuple(rhos)
    targets = [_coverage_target(rho, n) for rho in rhos]
    target = max(targets, default=0)
    # Closed neighborhoods are symmetric: the vertices covering u are N[u].
    lists = [(v, *adjacency[v]) for v in range(n)]
    gain = [len(covered_by_v) for covered_by_v in lists]
    heap = [(-gain[v], v) for v in range(n)]  # one entry per unpicked vertex
    heapq.heapify(heap)
    covered = [False] * n
    covered_count = 0
    picks: list[int] = []
    trail = [0]  # trail[k]: vertices covered by the first k picks
    while covered_count < target:
        # Gains only fall: a top entry at its vertex's current gain is the largest
        # gain, ties to the smallest index. A stale one goes back in at its gain.
        negative_gain, v = heapq.heappop(heap)
        while -negative_gain != gain[v]:
            negative_gain, v = heapq.heappushpop(heap, (-gain[v], v))
        if gain[v] == 0:
            # Unreachable: every uncovered vertex covers at least itself.
            raise AssertionError("zero-gain pick before target met")
        picks.append(v)
        for u in lists[v]:
            if covered[u]:
                continue
            covered[u] = True
            covered_count += 1
            for w in lists[u]:
                gain[w] -= 1
        trail.append(covered_count)
    sizes = [bisect_left(trail, t) for t in targets]
    return tuple(DominationResult(tuple(picks[:k]), rho, t, trail[k], n) for rho, t, k in zip(rhos, targets, sizes))


def greedy_partial_dominating_set(graph: Graph, rho: float) -> DominationResult:
    """Greedy authority set reaching at least ceil(rho * n) vertices.

    Each iteration adds the vertex covering the most yet-uncovered
    vertices, ties broken by smallest index, stopping as soon as the
    target is met. Deterministic; for rho1 <= rho2 the rho1 result is a
    prefix of the rho2 result.
    """
    return _greedy_sweep(graph.adjacency, (rho,))[0]
