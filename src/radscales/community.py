"""Modularity-optimizing community detection and resolution-limit filtering.

Two-phase detection: seeded local moves until no single-vertex move helps,
then aggregation of communities into super-vertices, repeated while a pass
still improves modularity. Output is deterministic for a fixed seed, and the
per-pass modularity log is non-decreasing by construction.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, EmptyGraphError
from .graph import Graph, Partition
from .modularity import _contributions


@dataclass(frozen=True)
class DetectionConfig:
    seed: int = 0
    max_passes: int = 20
    min_gain_epsilon: float = 1e-7

    def __post_init__(self):
        if self.max_passes < 1:
            raise ConfigError(f"maxPasses (max_passes) must be at least 1, got {self.max_passes}")
        if not self.min_gain_epsilon > 0:
            raise ConfigError(f"minGainEpsilon (min_gain_epsilon) must be above 0, got {self.min_gain_epsilon}")


@dataclass(frozen=True)
class DetectionResult:
    """Detected partition plus the modularity recorded after each pass."""

    partition: Partition
    pass_modularity: tuple[float, ...]
    seed: int


@dataclass
class _Level:
    """Weighted aggregate graph: neighbour tuple and weights along it (zip stops at the
    row's end: level 0 shares one tuple of 1.0s) per vertex, loop weights."""

    rows: Sequence[tuple[int, ...]]
    weights: list[tuple[float, ...]]
    loops: list[float]

    @property
    def n(self) -> int:
        return len(self.rows)

    def strengths(self) -> list[float]:
        return [sum(w for _, w in zip(row, ws)) + 2.0 * x for row, ws, x in zip(self.rows, self.weights, self.loops)]


def _local_move(level: _Level, rng: random.Random) -> list[int]:
    """Sweep vertices in shuffled order, greedily reassigning communities.

    Each accepted move strictly increases modularity; sweeps repeat until a
    full sweep makes no move. Returns the community id per vertex. A vertex is
    skipped while no community it sees (its own, its neighbours') changed since
    its last evaluation. A stay leaves sigma_tot untouched: exact, as every
    strength and sigma_tot is an integer-valued float far below 2^53.
    """
    n = level.n
    strength = level.strengths()
    two_w = sum(strength)
    comm = list(range(n))
    sigma_tot = strength.copy()
    order = list(range(n))
    rng.shuffle(order)
    changed_at = [-1] * n  # step of each sigma_tot's last change; a list read boxes no int
    evaluated_at = array("q", [-1]) * n  # a vertex that moved is evaluated again: its new community carries the same step
    step = -1
    while True:
        moves = 0
        for step, v in enumerate(order, step + 1):  # steps run on across sweeps
            since, c_old, row = evaluated_at[v], comm[v], level.rows[v]
            if changed_at[c_old] < since:
                for u in row:
                    if changed_at[comm[u]] >= since:
                        break
                else:
                    continue
            evaluated_at[v] = step
            weight_to: dict[int, float] = defaultdict(float)
            for u, w in zip(row, level.weights[v]):
                weight_to[comm[u]] += w
            # Gain of joining community c, up to a shared constant: edges to c minus the
            # expected-edge penalty. Staying wins a tie; other ties go to the smaller id.
            best_c, best_gain = c_old, weight_to.pop(c_old, 0.0) - (sigma_tot[c_old] - strength[v]) * strength[v] / two_w
            for c, wc in weight_to.items():
                gain = wc - sigma_tot[c] * strength[v] / two_w
                if gain > best_gain or (gain == best_gain and best_c != c_old and c < best_c):
                    best_c, best_gain = c, gain
            if best_c != c_old:
                sigma_tot[c_old] -= strength[v]
                sigma_tot[best_c] += strength[v]
                comm[v] = best_c
                changed_at[c_old] = changed_at[best_c] = step
                moves += 1
        if moves == 0:
            return comm


def _renumber(comm: list[int]) -> tuple[list[int], int]:
    """Dense community ids in first-appearance order."""
    mapping: dict[int, int] = {}
    dense = []
    for c in comm:
        mapping.setdefault(c, len(mapping))
        dense.append(mapping[c])
    return dense, len(mapping)


def _aggregate(level: _Level, comm: list[int], count: int) -> _Level:
    """Collapse communities into super-vertices, preserving modularity."""
    adj: list[dict[int, float]] = [defaultdict(float) for _ in range(count)]
    loops = [0.0] * count
    for v in range(level.n):
        cv = comm[v]
        loops[cv] += level.loops[v]
        for u, w in zip(level.rows[v], level.weights[v]):
            cu = comm[u]
            if cu == cv:
                loops[cv] += w / 2.0  # seen from both endpoints
            else:
                adj[cv][cu] += w
    return _Level(rows=[tuple(a) for a in adj], weights=[tuple(a.values()) for a in adj], loops=loops)


def detect(graph: Graph, config: DetectionConfig | None = None) -> DetectionResult:
    """Run community detection, keeping the per-pass modularity log."""
    return _detect(graph.adjacency, config or DetectionConfig())


def _detect(adjacency: Sequence[tuple[int, ...]], config: DetectionConfig) -> DetectionResult:
    """detect on level-0 adjacency rows: each vertex's distinct neighbours, at weight 1.0.

    The order within a row changes no result: every weight is an integer or
    a half-integer, so every sum is exact, and candidate ties go to the
    smaller id. Each pass's Q is counted over the level-0 rows.
    """
    m = sum(map(len, adjacency)) // 2
    if m == 0:
        raise EmptyGraphError("community detection needs at least one edge")
    rng = random.Random(config.seed)
    level = _Level(adjacency, [(1.0,) * max(map(len, adjacency))] * len(adjacency), [0.0] * len(adjacency))
    node_of = list(range(len(adjacency)))  # original vertex -> current level vertex
    pass_log: list[float] = []
    prev_q = -math.inf
    for _ in range(config.max_passes):
        comm, count = _renumber(_local_move(level, rng))
        node_of = [comm[node] for node in node_of]
        group_of, k = _renumber(node_of)
        edges = ((u, v) for u, row in enumerate(adjacency) for v in row if u < v)
        # A pass that moves no vertex (count == level.n) repeats the last Q; its zero gain ends the passes.
        q = _contributions(group_of, edges, k, m)[0] if count < level.n or not pass_log else prev_q
        pass_log.append(q)
        if q - prev_q < config.min_gain_epsilon:
            break
        prev_q = q
        level = _aggregate(level, comm, count)
    partition = Partition(
        group_of=tuple(group_of),
        group_count=k,
        group_labels=tuple(f"c{i}" for i in range(k)),
    )
    return DetectionResult(partition=partition, pass_modularity=tuple(pass_log), seed=config.seed)


def resolution_size_threshold(edge_count: int) -> int:
    """Smallest community size not attributable to an arbitrary merge,
    ceil(sqrt(2L)) for L total links."""
    if edge_count < 0:
        raise ValueError("edge count must be >= 0")
    if edge_count == 0:
        return 0
    return math.isqrt(2 * edge_count - 1) + 1


def filter_by_size(
    partition: Partition,
    min_size: int,
) -> tuple[Partition, tuple[int, ...]]:
    """Merge groups smaller than *min_size* into a residual group.

    Kept groups are re-indexed in original order and keep their labels; the
    residual group comes last, labeled "other". Returns the new partition
    and the kept groups' original indices. When nothing falls below the
    threshold the partition is returned unchanged.
    """
    sizes = partition.sizes()
    kept = tuple(i for i, s in enumerate(sizes) if s >= min_size)
    if len(kept) == partition.group_count:
        return partition, kept
    remap = {old: new for new, old in enumerate(kept)}
    residual = len(kept)
    group_of = tuple(remap.get(g, residual) for g in partition.group_of)
    labels = tuple(partition.group_label(i) for i in kept) + ("other",)
    return (
        Partition(group_of=group_of, group_count=residual + 1, group_labels=labels),
        kept,
    )
