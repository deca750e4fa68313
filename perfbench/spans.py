"""Spans around the calls into each radscales layer, from outside the library.

``traced(tracer)`` swaps each hooked function for a wrapper at the place
where ``radscales.cli`` or ``radscales.pipeline`` looks it up (and patches
``Graph.__post_init__`` and ``Partition.members`` on their classes), then
restores the originals. A hook whose target no longer exists is skipped, so
its metrics read zero instead of failing: later changes may remove calls.

Spans (name, start, end, parent) are kept in memory. A metric ending in
``_s`` is the self time of its spans (duration minus the time its direct
child spans cover), except the pipeline metrics in ``TOTALS``, which are
whole durations.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns

# layer -> (end-to-end metric and workload it should move, metric names)
LAYERS = {
    "events": (
        "wall_s and max_rss_mb on planted-m and speech-heavy (ingest); wall_s on "
        "planted-m (detection graph build); wall_s on many-windows (16 slices)",
        ["events.ingest_s", "events.records_read", "events.slice_s", "events.slice_calls",
         "events.events_sliced", "events.graph_build_s", "events.graph_build_calls",
         "events.graph_vertices", "events.graph_edges"],
    ),
    "graph": (
        "wall_s on many-windows first, then planted-m; about 0 on speech-heavy",
        ["graph.validate_s", "graph.validations", "graph.induced_subgraph_s",
         "graph.induced_subgraph_calls", "graph.members_s", "graph.members_calls"],
    ),
    "community": (
        "wall_s on planted-m only; detection is bypassed elsewhere, so no change there",
        ["community.detect_s", "community.detect_calls", "community.louvain_passes",
         "community.communities", "community.q", "community.filter_s",
         "community.groups_kept", "community.groups_folded"],
    ),
    "modularity": (
        "small everywhere; recorded so that a regression shows",
        ["modularity.report_s", "modularity.report_calls"],
    ),
    "domination": (
        "wall_s on many-windows (24k calls)",
        ["domination.greedy_s", "domination.greedy_calls", "domination.authorities"],
    ),
    "lexicon": (
        "wall_s on speech-heavy; absent on many-windows",
        ["lexicon.parse_s", "lexicon.score_s", "lexicon.score_calls", "lexicon.tokens"],
    ),
    "pareto": (
        "small everywhere",
        ["pareto.frontier_s", "pareto.frontier_calls", "pareto.points", "pareto.frontier_size"],
    ),
    "pipeline": (
        "self time is the glue between layers (membership projection, dict building), "
        "on all workloads",
        ["pipeline.detect_membership_s", "pipeline.read_membership_s", "pipeline.structural_s",
         "pipeline.structural_self_s", "pipeline.speech_s", "pipeline.speech_self_s",
         "pipeline.emit_s"],
    ),
    "process": (
        "diagnostic only; measured by the caller around whole runs",
        ["proc.cpu_s", "trace.overhead_frac"],
    ),
}
METRICS = [name for _, names in LAYERS.values() for name in names]
# Counts that describe the reports rather than work done: they must not move.
OUTPUT_COUNTS = {
    "community.communities", "community.q", "community.groups_kept", "community.groups_folded",
    "domination.authorities", "lexicon.tokens", "pareto.points", "pareto.frontier_size",
}
# Pipeline spans reported as whole durations, children included.
TOTALS = {
    "pipeline.detect_membership_s": "pipeline.detect_membership",
    "pipeline.read_membership_s": "pipeline.read_membership",
    "pipeline.structural_s": "pipeline.structural",
    "pipeline.speech_s": "pipeline.speech",
    "pipeline.emit_s": "pipeline.emit",
}


def metric_spec(name: str) -> dict:
    """Unit and direction of a per-layer metric, as BENCHMARK.json lists it."""
    if name.endswith("_s"):
        unit = "s"
    elif name == "community.q":
        unit = "Q"
    elif name == "trace.overhead_frac":
        unit = "ratio"
    else:
        unit = "count"
    better = "higher" if name in OUTPUT_COUNTS else "lower"
    return {"name": name, "unit": unit, "better": better}


def _count(values: dict):
    """Counter adding, per metric name, fn(args, result) to the counts."""

    def counter(counts: Counter, args, result) -> None:
        for key, value in values.items():
            counts[key] += value(args, result)

    return counter


def _count_detect(counts: Counter, args, result) -> None:
    counts["community.louvain_passes"] += len(result.pass_modularity)
    counts["community.communities"] += result.partition.group_count
    counts["community.q"] = result.pass_modularity[-1]


# (module or class path, attribute, span name, counter(counts, args, result))
HOOKS = [
    ("radscales.cli", "ingest_events", "events.ingest",
     _count({"events.records_read": lambda a, r: len(r) + r.skipped})),
    ("radscales.pipeline", "slice_window", "events.slice",
     _count({"events.events_sliced": lambda a, r: len(r)})),
    ("radscales.pipeline", "build_interaction_graph", "events.graph_build",
     _count({"events.graph_vertices": lambda a, r: r.n, "events.graph_edges": lambda a, r: r.m})),
    ("radscales.graph.Graph", "__post_init__", "graph.validate", None),
    ("radscales.pipeline", "induced_subgraph", "graph.induced_subgraph", None),
    ("radscales.graph.Partition", "members", "graph.members", None),
    ("radscales.pipeline", "detect", "community.detect", _count_detect),
    ("radscales.pipeline", "filter_by_size", "community.filter",
     _count({"community.groups_kept": lambda a, r: len(r[1]),
               "community.groups_folded": lambda a, r: a[0].group_count - len(r[1])})),
    ("radscales.pipeline", "d_modularity_report", "modularity.report", None),
    ("radscales.pipeline", "greedy_partial_dominating_set", "domination.greedy",
     _count({"domination.authorities": lambda a, r: r.size})),
    ("radscales.cli", "parse_mfd_dic", "lexicon.parse", None),
    ("radscales.pipeline", "score_corpus", "lexicon.score",
     _count({"lexicon.tokens": lambda a, r: r.token_count})),
    ("radscales.pipeline", "pareto_frontier", "pareto.frontier",
     _count({"pareto.points": lambda a, r: len(a[0]), "pareto.frontier_size": lambda a, r: len(r)})),
    ("radscales.cli", "detect_membership", "pipeline.detect_membership", None),
    ("radscales.cli", "read_membership", "pipeline.read_membership", None),
    ("radscales.cli", "run_structural_analysis", "pipeline.structural", None),
    ("radscales.cli", "run_speech_analysis", "pipeline.speech", None),
    ("radscales.cli", "emit_plot_data", "pipeline.emit", None),
    ("radscales.cli", "write_json", "pipeline.emit", None),
]


def _resolve(path: str):
    """A module, or a class inside one, by dotted path; None if absent."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.child_ns: list[int] = []
        self.counts: Counter = Counter()
        self.hooked: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, child_ns, stack = self.spans, self.child_ns, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0, 0, parent])
            child_ns.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index][1:3] = start, end
                if parent >= 0:
                    child_ns[parent] += end - start
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every metric of the library layers; absent spans read 0."""
        total: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, self.child_ns):
            total[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        values = {}
        for metric in METRICS:
            if metric in LAYERS["process"][1]:
                continue
            if metric in TOTALS:
                values[metric] = total[TOTALS[metric]] / 1e9
            elif metric.endswith("_self_s"):
                values[metric] = own[metric[: -len("_self_s")]] / 1e9
            elif metric.endswith("_s"):
                values[metric] = own[metric[: -len("_s")]] / 1e9
            elif metric.endswith("_calls"):
                values[metric] = calls[metric[: -len("_calls")]]
            elif metric == "graph.validations":
                values[metric] = calls["graph.validate"]
            else:
                values[metric] = self.counts.get(metric, 0)
        return values


@contextmanager
def traced(tracer: Tracer):
    """Install every hook whose target exists; restore all on exit."""
    restore = []
    try:
        for path, attr, name, counter in HOOKS:
            owner = _resolve(path)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, tracer.wrap(name, original, counter))
            restore.append((owner, attr, original))
            tracer.hooked.append(f"{path}.{attr}")
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
