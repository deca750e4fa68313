"""Independent brute-force oracles the optimized implementations are checked
against. Deliberately naive: these follow the defining formulas directly and
share no code path with the library, except partition_path_window, which
keeps a replaced composition of the library's public pieces, log_rows,
which reads an EventLog's columns back as one tuple per row, naive_events,
which gives a text as its tokens' match sets with the library's tokenize
and Lexicon.category_ids_for,
reference_local_move, the Louvain local move that evaluates every vertex on
every sweep, and reference_speech_analysis, which scores each community's
texts token by token with the library's tokenize and
Lexicon.category_ids_for."""

from __future__ import annotations

import json
import math
import random
import re
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import Container, Iterable, Mapping, Sequence

from radscales.community import filter_by_size, resolution_size_threshold
from radscales.domination import greedy_partial_dominating_set
from radscales.errors import NoEventsError
from radscales.graph import Graph, Partition
from radscales.lexicon import FoundationMap, FoundationScores, Lexicon, tokenize
from radscales.modularity import d_modularity_report
from radscales.pareto import CriterionSpec, Direction, ParetoPoint, pareto_frontier
from radscales.pipeline import CommunitySpeech, SpeechReport


def pair_sum_modularity(graph: Graph, partition: Partition) -> float:
    """Direct double sum over all same-group ordered vertex pairs,
    including the diagonal, divided by 2m."""
    m = graph.m
    total = 0.0
    adjacency_sets = [set(graph.neighbors(v)) for v in range(graph.n)]
    for u in range(graph.n):
        for v in range(graph.n):
            if partition.group_of[u] != partition.group_of[v]:
                continue
            a_uv = 1.0 if v in adjacency_sets[u] else 0.0
            total += a_uv - graph.degree(u) * graph.degree(v) / (2.0 * m)
    return total / (2.0 * m)


def pair_sum_group_contribution(graph: Graph, partition: Partition, group: int) -> float:
    """The same double sum restricted to one group's vertex pairs."""
    m = graph.m
    members = partition.members(group)
    adjacency_sets = [set(graph.neighbors(v)) for v in range(graph.n)]
    total = 0.0
    for u in members:
        for v in members:
            a_uv = 1.0 if v in adjacency_sets[u] else 0.0
            total += a_uv - graph.degree(u) * graph.degree(v) / (2.0 * m)
    return total / (2.0 * m)


def closed_coverage(graph: Graph, vertices: Iterable[int]) -> int:
    """Number of vertices in the union of the closed neighborhoods of *vertices*."""
    covered: set[int] = set()
    for v in vertices:
        if not 0 <= v < graph.n:
            raise IndexError(f"vertex index {v} out of range")
        covered.add(v)
        covered.update(graph.neighbors(v))
    return len(covered)


def coverage_target(graph: Graph, rho: float) -> int:
    """ceil(rho * n), with float fuzz such as 0.3 * 10 snapped down."""
    return math.ceil(rho * graph.n - 1e-9)


def min_partial_dominating_set(graph: Graph, rho: float) -> tuple[tuple[int, ...], int]:
    """The lexicographically first smallest vertex set covering at least
    ceil(rho * n) vertices, and how many it covers, by trying every subset
    in order of size; feasible to roughly 20 vertices."""
    target = coverage_target(graph, rho)
    for size in range(graph.n + 1):
        for subset in combinations(range(graph.n), size):
            covered = closed_coverage(graph, subset)
            if covered >= target:
                return subset, covered
    raise AssertionError("the full vertex set covers the graph")


def greedy_pick_order(graph: Graph, rho: float) -> tuple[int, ...]:
    """Greedy partial domination by definition: until ceil(rho * n) vertices
    are covered, pick the vertex whose closed neighborhood adds the most
    uncovered vertices, the smallest index among ties."""
    target = coverage_target(graph, rho)
    picks: list[int] = []
    while closed_coverage(graph, picks) < target:
        before = closed_coverage(graph, picks)
        gains = [closed_coverage(graph, picks + [v]) - before for v in range(graph.n)]
        picks.append(gains.index(max(gains)))
    return tuple(picks)


def exhaustive_best_partition(graph: Graph) -> tuple[float, list[int]]:
    """Best modularity over every set partition of the vertices.

    Restricted-growth enumeration with incremental in-edge and degree-sum
    bookkeeping; feasible to roughly 12 vertices.
    """
    n, m = graph.n, graph.m
    adjacency = graph.adjacency
    degree = [graph.degree(v) for v in range(n)]
    best_q = float("-inf")
    best_assign: list[int] = []
    assign = [0] * n
    in_edges = [0] * (n + 1)
    degree_sum = [0] * (n + 1)

    def recurse(v: int, group_count: int) -> None:
        nonlocal best_q, best_assign
        if v == n:
            q = sum(
                in_edges[g] / m - (degree_sum[g] / (2 * m)) ** 2
                for g in range(group_count)
            )
            if q > best_q:
                best_q = q
                best_assign = assign[:]
            return
        for g in range(group_count + 1):
            links = sum(1 for u in adjacency[v] if u < v and assign[u] == g)
            assign[v] = g
            in_edges[g] += links
            degree_sum[g] += degree[v]
            recurse(v + 1, group_count + 1 if g == group_count else group_count)
            in_edges[g] -= links
            degree_sum[g] -= degree[v]

    recurse(0, 0)
    return best_q, best_assign


def reference_local_move(level, rng: random.Random) -> list[int]:
    """community._local_move as it was before it skipped unchanged vertices:
    every sweep evaluates every vertex in the shuffled order, scans the
    candidate communities in id order and keeps the first strictly best."""
    n = level.n
    strength = level.strengths()
    two_w = sum(strength)
    comm = list(range(n))
    sigma_tot = strength.copy()
    order = list(range(n))
    rng.shuffle(order)
    while True:
        moves = 0
        for v in order:
            c_old = comm[v]
            weight_to: dict[int, float] = defaultdict(float)
            for u, w in zip(level.rows[v], level.weights[v]):
                weight_to[comm[u]] += w
            sigma_tot[c_old] -= strength[v]
            best_c = c_old
            best_gain = weight_to.get(c_old, 0.0) - sigma_tot[c_old] * strength[v] / two_w
            for c in sorted(weight_to):
                if c == c_old:
                    continue
                gain = weight_to[c] - sigma_tot[c] * strength[v] / two_w
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            sigma_tot[best_c] += strength[v]
            if best_c != c_old:
                comm[v] = best_c
                moves += 1
        if moves == 0:
            return comm


def dominates(b: ParetoPoint, a: ParetoPoint, criteria: Sequence[CriterionSpec]) -> bool:
    """Dominance by definition, one criterion at a time: *b* is as radical as
    *a* or more on every criterion and strictly more on at least one."""
    as_radical, more_radical = [], []
    for x, y, criterion in zip(b.values, a.values, criteria, strict=True):
        if criterion.direction is Direction.HIGHER_IS_MORE_RADICAL:
            as_radical.append(x >= y)
            more_radical.append(x > y)
        else:
            as_radical.append(x <= y)
            more_radical.append(x < y)
    return all(as_radical) and any(more_radical)


def all_pairs_frontier(points: list[ParetoPoint], criteria: list[CriterionSpec]) -> set[str]:
    """Frontier by definition: a point is kept iff no other point dominates it."""
    kept = set()
    for candidate in points:
        if not any(
            dominates(other, candidate, criteria)
            for other in points
            if other is not candidate
        ):
            kept.add(candidate.label)
    return kept


def foundation_scores(
    dic_text: str, axes: Mapping[str, Sequence[str]], docs: Iterable[str]
) -> tuple[int, dict[str, float]]:
    """Token count and per-axis frequencies by definition.

    A token is a letter run outside URLs and @-handles, lowercased on its
    own. It hits an axis when some dictionary entry naming one of the axis's
    categories equals it, or for a ``pattern*`` entry starts it; every entry
    is scanned for every token. The frequencies are empty when there are no
    tokens.
    """
    url = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
    handle = re.compile(r"@\w+")
    word = re.compile(r"[^\W\d_]+", re.UNICODE)
    names: dict[str, str] = {}
    entries: list[tuple[str, bool, set[str]]] = []
    section = 0
    for line in dic_text.splitlines():
        parts = line.split()
        if parts == ["%"]:
            section += 1
        elif parts and section == 1:
            names[parts[0]] = " ".join(parts[1:])
        elif parts and section == 2:
            pattern = parts[0].lower()
            entries.append((pattern.removesuffix("*"), pattern.endswith("*"), {names[i] for i in parts[1:]}))
    tokens = []
    for doc in docs:
        tokens += [m.lower() for m in word.findall(handle.sub(" ", url.sub(" ", doc)))]
    hits = dict.fromkeys(axes, 0)
    for token in tokens:
        for axis, axis_names in axes.items():
            if any(
                (token.startswith(pattern) if is_prefix else token == pattern)
                and categories & set(axis_names)
                for pattern, is_prefix, categories in entries
            ):
                hits[axis] += 1
    if not tokens:
        return 0, {}
    return len(tokens), {axis: hits[axis] / len(tokens) for axis in axes}


def membership_first_graph(
    interactions: Iterable[tuple[str, str, str]], kinds: Container[str], known: Container[str]
) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Labels and adjacency rows of a window graph by definition: intern every
    user of a matching (source, target, kind) interaction in first-seen
    order, keep the known ones in that order, and join two kept users when a
    matching interaction links them; a user is never its own neighbour."""
    seen: list[str] = []
    linked: set[frozenset[str]] = set()
    for source, target, kind in interactions:
        if kind not in kinds:
            continue
        for user in (source, target):
            if user not in seen:
                seen.append(user)
        if source != target:
            linked.add(frozenset((source, target)))
    labels = [u for u in seen if u in known]
    rows = tuple(
        tuple(j for j, w in enumerate(labels) if frozenset((u, w)) in linked) for u in labels
    )
    return tuple(labels), rows


def partition_path_window(
    interactions: Sequence[tuple[str, str, str]],
    kinds: Container[str],
    membership: Mapping[str, str],
    min_size: int | str,
    rhos: Sequence[float],
    primary_rho: float,
) -> tuple[list[tuple], int | None, list[str]]:
    """A window's communities as the structural analysis once computed them,
    with a Graph per window and per community: membership_first_graph, a
    partition by membership label with its groups sorted by label,
    filter_by_size, d_modularity_report, then each kept community's own
    Graph from sorted_induced_rows with a separate greedy run for every rho,
    and the frontier by definition. This composes the library's public
    pieces on purpose: it is the path the interned-id window code replaced.

    Returns a (label, size, d_i, {rho: authority-set size}, on frontier)
    tuple per kept community, the group count when every group folds (else
    None) and the labels whose d_i is undefined. Raises NoEventsError when no
    matching interaction links two users, and EmptyGraphError when a group
    is kept but the graph has no edge.
    """
    matching = [(s, t) for s, t, kind in interactions if kind in kinds]
    if all(s == t for s, t in matching):
        raise NoEventsError("self-loops only" if matching else "no matching interaction")
    labels, rows = membership_first_graph(interactions, kinds, membership)
    graph = Graph(labels, rows)
    resolved = resolution_size_threshold(graph.m) if min_size == "auto" else min_size
    present = sorted({membership[u] for u in labels})
    partition = Partition(tuple(present.index(membership[u]) for u in labels), len(present), tuple(present))
    filtered, kept = filter_by_size(partition, resolved)
    if not kept:
        return [], partition.group_count, []
    per_group = d_modularity_report(graph, filtered).per_group
    communities = []
    for i, group in enumerate(per_group[: len(kept)]):
        members = filtered.members(i)
        sub = Graph(tuple(graph.labels[v] for v in members), sorted_induced_rows(graph, members))
        sizes = {rho: greedy_partial_dominating_set(sub, rho).size for rho in rhos}
        communities.append((group.label, sub.n, group.di, sizes))
    points = [ParetoPoint(label, (di, float(sizes[primary_rho]))) for label, _, di, sizes in communities if di is not None]
    criteria = [
        CriterionSpec("dModularity", Direction.HIGHER_IS_MORE_RADICAL),
        CriterionSpec("pdsSize", Direction.LOWER_IS_MORE_RADICAL),
    ]
    frontier = all_pairs_frontier(points, criteria)
    undefined = [label for label, _, di, _ in communities if di is None]
    return [(*community, community[0] in frontier) for community in communities], None, undefined


def sorted_induced_rows(graph: Graph, vertices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Adjacency rows of the subgraph induced on *vertices*, each row
    relabeled by position in the sorted vertex list and sorted afterwards."""
    wanted = sorted(set(vertices))
    return tuple(
        tuple(sorted(wanted.index(u) for u in graph.neighbors(v) if u in wanted)) for v in wanted
    )


def naive_events(lines: Iterable[str], lexicon: Lexicon | None = None) -> tuple[list[tuple], int]:
    """Valid records of a JSONL stream, one (timestamp, kind, source, target,
    author, text) tuple per record in file order, and the number of invalid
    records, read one record at a time straight from the documented rules.
    With a *lexicon*, each text is the list of its tokens' match sets."""
    events: list[tuple] = []
    skipped = 0
    for i, line in enumerate(lines):
        if i == 0 and line.startswith("\ufeff"):  # one byte-order mark
            line = line[1:]
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            skipped += 1
            continue
        event = _naive_event(record)
        if event is None:
            skipped += 1
        elif lexicon is not None and event[5] is not None:
            events.append((*event[:5], [lexicon.category_ids_for(token) for token in tokenize(event[5])]))
        else:
            events.append(event)
    return events, skipped


def _naive_event(record) -> tuple | None:
    if type(record) is not dict or record.get("kind") not in ("retweet", "reply", "mention", "other"):
        return None
    fields = {}
    for name in ("source", "target", "author", "text", "timestamp"):
        value = record.get(name)
        if value is not None and type(value) is not str:
            return None
        fields[name] = value if value else None
    for name in ("source", "target", "author"):
        user = fields[name]
        if user and (user.strip() != user or user[0] == "#" or "\t" in user or "\r" in user or "\n" in user):
            return None
        if user and any(0xD800 <= ord(c) <= 0xDFFF for c in user):
            return None
    if record.get("timestamp") is None:
        return None
    stamp = record["timestamp"].strip()
    if stamp[-1:] in ("Z", "z"):
        stamp = stamp[:-1] + "+00:00"
    try:
        instant = datetime.fromisoformat(stamp)
        instant = instant.replace(tzinfo=timezone.utc) if instant.tzinfo is None else instant.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None
    source, target, author, text = (fields[n] for n in ("source", "target", "author", "text"))
    if not (source and target) and not ((author or source) and text):
        return None
    return instant, record["kind"], source, target, author, text


def naive_slice(events: Iterable[tuple], start: datetime, end: datetime) -> list[tuple]:
    """The events with start <= timestamp < end, by a linear scan in order."""
    return [event for event in events if start <= event[0] < end]


def log_rows(log) -> list[tuple]:
    """One (timestamp, kind, source, target, author, text) tuple per row of an
    EventLog or window, in its row order, read straight from the columns; the
    text is the list of its tokens' match sets, None without a text or a lexicon."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    sets = log.lexicon.match_sets() if log.lexicon is not None else []

    def user(index: int) -> str | None:
        return log.users[index] if index >= 0 else None

    def text(r: int) -> list | None:
        if log.lexicon is None or not log.has_text[r]:
            return None
        return [sets[i] for i in log.token_sets[log.token_offsets[r]:log.token_offsets[r + 1]]]

    return [
        (
            epoch + timedelta(microseconds=log.times[r]),
            ("retweet", "reply", "mention", "other")[log.kinds[r]],
            user(log.sources[r]),
            user(log.targets[r]),
            user(log.authors[r]),
            text(r),
        )
        for r in log.rows
    ]


def reference_speech_analysis(
    events: Sequence[tuple],
    windows: Iterable,
    membership: Mapping[str, str],
    lexicon: Lexicon,
    foundation_map: FoundationMap,
    *,
    include_shares: bool = False,
) -> list:
    """run_speech_analysis over naive_events tuples: each community's corpus
    is the list of its speakers' texts, one string each, in file order, and
    its scores count the match set of each of its tokens in turn."""
    axes = tuple(foundation_map.axes)
    criteria = tuple(CriterionSpec(a, Direction.HIGHER_IS_MORE_RADICAL) for a in axes)
    reports = []
    for window in windows:
        docs: dict[str, list[str]] = defaultdict(list)
        for _, kind, source, _, author, text in naive_slice(events, window.start, window.end):
            speaker = author or source
            if text and (include_shares or kind != "retweet") and speaker in membership:
                docs[membership[speaker]].append(text)
        scored = []
        for label in sorted(set(membership.values())):
            if docs[label]:
                matches = [lexicon.category_ids_for(token) for text in docs[label] for token in tokenize(text)]
                if matches:
                    frequencies = {
                        axis: sum(1 for matched in matches if matched & ids) / len(matches)
                        for axis, ids in foundation_map.axis_ids(lexicon).items()
                    }
                    scored.append(FoundationScores(label, len(matches), frequencies))
        points = [ParetoPoint(s.community_label, tuple(s.per_foundation[a] for a in axes)) for s in scored]
        frontier = pareto_frontier(points, criteria) if points else set()
        reports.append(
            SpeechReport(
                window_label=window.label,
                axes=axes,
                communities=tuple(CommunitySpeech(s, s.community_label in frontier) for s in scored),
                frontier=tuple(sorted(frontier)),
            )
        )
    return reports
