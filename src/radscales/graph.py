"""Simple undirected graphs and vertex partitions, plus their file formats.

Graphs are immutable after construction: vertices are dense 0-based indices
carrying external string labels, edges are unweighted, and self-loops or
parallel edges are dropped on input. Both types are safe for concurrent
reads. ``Graph(...)`` checks its input; the builders below skip the checks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Hashable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateAssignmentError,
    MalformedLineError,
    MissingVertexError,
    UnknownVertexError,
)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over labeled vertices.

    ``labels[i]`` is the external id of vertex ``i``; ``adjacency[i]`` is the
    sorted tuple of its neighbor indices.
    """

    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(set(self.labels)):
            raise ValueError("vertex labels must be unique")
        if len(self.adjacency) != len(self.labels):
            raise ValueError("adjacency size must match label count")
        n = len(self.labels)
        arcs = set()
        for u, nbrs in enumerate(self.adjacency):
            if any(v < 0 or v >= n for v in nbrs):
                raise ValueError(f"neighbor index out of range for vertex {u}")
            if u in nbrs:
                raise ValueError(f"self-loop on vertex {u}")
            if tuple(sorted(set(nbrs))) != tuple(nbrs):
                raise ValueError(f"adjacency of vertex {u} must be sorted and duplicate-free")
            arcs.update((u, v) for v in nbrs)
        for u, v in arcs:
            if (v, u) not in arcs:
                raise ValueError(f"edge {u}-{v} is not symmetric")
        object.__setattr__(self, "_index", {lbl: i for i, lbl in enumerate(self.labels)})
        object.__setattr__(self, "_m", sum(map(len, self.adjacency)) // 2)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], adjacency: tuple[tuple[int, ...], ...]) -> Graph:
        """A graph from arguments that are valid by construction, unchecked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "labels", labels)
        object.__setattr__(graph, "adjacency", adjacency)
        object.__setattr__(graph, "_index", {lbl: i for i, lbl in enumerate(labels)})
        object.__setattr__(graph, "_m", sum(map(len, adjacency)) // 2)
        return graph

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def index_of(self, label: str) -> int:
        """Internal index of an external label (KeyError if absent)."""
        return self._index[label]

    def has_label(self, label: str) -> bool:
        return label in self._index

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v


@dataclass(frozen=True)
class Partition:
    """Assignment of every vertex to exactly one of ``group_count`` groups.

    Group indices are dense: each of 0..k-1 is non-empty. ``group_labels``
    is optional; ``group_label(i)`` falls back to the stringified index.
    """

    group_of: tuple[int, ...]
    group_count: int
    group_labels: tuple[str, ...] | None = None
    _members: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.group_count
        if k < 1 and self.group_of:
            raise ValueError("group_count must be >= 1 for a non-empty vertex set")
        buckets: dict[int, list[int]] = {}
        for v, g in enumerate(self.group_of):
            if not 0 <= g < k:
                raise ValueError(f"vertex {v} assigned to out-of-range group {g}")
            buckets.setdefault(g, []).append(v)
        if self.group_of and len(buckets) != k:
            raise ValueError("every group index must be non-empty")
        if self.group_labels is not None and len(self.group_labels) != k:
            raise ValueError("group_labels length must equal group_count")
        object.__setattr__(self, "_members", tuple(tuple(buckets.get(i, ())) for i in range(k)))

    def group_label(self, i: int) -> str:
        if not 0 <= i < self.group_count:
            raise IndexError(f"group index {i} out of range")
        if self.group_labels is not None:
            return self.group_labels[i]
        return str(i)

    def members(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.group_count:
            raise IndexError(f"group index {i} out of range")
        return self._members[i]

    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self._members))


def build_graph(edges: Iterable[tuple[str, str]]) -> Graph:
    """Build a graph from labeled edge pairs as sorted_rows joins them; no pairs give the empty graph."""
    labels, rows = sorted_rows(edges)
    return Graph._trusted(tuple(labels), tuple(rows))


def sorted_rows(edges: Iterable[tuple[Hashable, Hashable]]) -> tuple[list, list[tuple[int, ...]]]:
    """The labels of the pairs, numbered in first-seen order (the list gives each vertex index
    its label), and each vertex's sorted tuple of distinct neighbours; self-loops are dropped.
    Repeats are dropped whenever the rows reach twice their distinct entries plus one per vertex,
    so memory grows with the distinct edges, not the pairs, at amortised constant time per pair."""
    index: dict = {}
    rows: list = []
    held = limit = 0
    for a, b in edges:
        ia = index.setdefault(a, len(index))
        ib = index.setdefault(b, len(index))
        if len(rows) < len(index):
            rows += ([] for _ in range(len(index) - len(rows)))
        if ia != ib:
            rows[ia].append(ib)
            rows[ib].append(ia)
            held += 2
            if held > limit:
                for row in rows:
                    row[:] = set(row)
                held = sum(map(len, rows))
                limit = 2 * held + len(rows)
    for v, row in enumerate(rows):
        rows[v] = tuple(sorted(set(row)))  # in place: no list outlives its tuple
    return list(index), rows


def read_pairs(stream: IO[str] | Iterable[str]) -> Iterator[tuple[str, str]]:
    """Two-field records of a text stream, in order.

    Fields are TAB-separated if the line has a TAB, otherwise
    whitespace-separated. Blank lines and lines starting with '#' are
    skipped. Raises MalformedLineError for lines with other than two
    non-empty fields.
    """
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")] if "\t" in line else line.split()
        if len(fields) != 2 or not all(fields):
            raise MalformedLineError(line_no, f"expected two fields, got {len(fields)}")
        yield fields[0], fields[1]


_SURROGATE = re.compile("[\ud800-\udfff]")


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode *text*, which a lone surrogate (say, from a JSON escape) prevents."""
    return not _SURROGATE.search(text)


def read_json(path: Path | str, error: type[ValueError] = ValueError) -> object:
    """The JSON in the UTF-8 file at *path*; nesting too deep is a ValueError, a key twice in one object an *error*."""

    def distinct(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{path}: key {key!r} is given twice in one object")
            obj[key] = value
        return obj
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=distinct)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def load_edge_list(stream: IO[str] | Iterable[str]) -> Graph:
    """Parse a ``src<TAB>dst`` (or space-separated) edge list of read_pairs records."""
    return build_graph(read_pairs(stream))


def load_partition(stream: IO[str] | Iterable[str], graph: Graph) -> Partition:
    """Parse ``vertexLabel<TAB>groupLabel`` records into a partition of *graph*.

    Group indices follow first-seen order of group labels. Raises
    UnknownVertexError for labels not in the graph, DuplicateAssignmentError
    for repeated vertices, and MissingVertexError if any graph vertex is
    left unassigned.
    """
    group_index: dict[str, int] = {}
    assigned: dict[int, int] = {}
    for vertex_label, group_label in read_pairs(stream):
        if not graph.has_label(vertex_label):
            raise UnknownVertexError(vertex_label)
        v = graph.index_of(vertex_label)
        if v in assigned:
            raise DuplicateAssignmentError(vertex_label)
        assigned[v] = group_index.setdefault(group_label, len(group_index))
    for v in range(graph.n):
        if v not in assigned:
            raise MissingVertexError(graph.labels[v])
    return Partition(
        group_of=tuple(assigned[v] for v in range(graph.n)),
        group_count=len(group_index),
        group_labels=tuple(group_index),
    )


def community_rows(partition: Partition, edges: Iterable[tuple[int, int]], count: int) -> list[list[list[int]]]:
    """Adjacency rows of each of the first *count* groups of *partition* over its own edges.

    Vertex ``i`` of group ``g`` is ``partition.members(g)[i]``, its rank among
    the group's members. Each of the *edges*, vertex index pairs given once,
    joins two vertices of one such group or is skipped; rows keep edge order.
    """
    group_of = partition.group_of
    position = [0] * len(group_of)
    rows = []
    for g in range(count):
        members = partition.members(g)
        for i, v in enumerate(members):
            position[v] = i
        rows.append([[] for _ in members])
    for a, b in edges:
        g = group_of[a]
        if g == group_of[b] and g < count:
            rows[g][position[a]].append(position[b])
            rows[g][position[b]].append(position[a])
    return rows


def write_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Write the graph in the edge-list format read by load_edge_list."""
    for u, v in graph.edges():
        stream.write(f"{graph.labels[u]}\t{graph.labels[v]}\n")


def write_partition(partition: Partition, labels: Sequence[str], stream: IO[str]) -> None:
    """Write ``vertexLabel<TAB>groupLabel`` lines for the given vertex labels."""
    for v, g in enumerate(partition.group_of):
        stream.write(f"{labels[v]}\t{partition.group_label(g)}\n")
