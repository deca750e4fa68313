"""End-to-end analysis: one detection run projected onto time windows,
structural and speech scales per community, frontier selection, plot data.

Communities are detected once (or loaded) and carried across windows as a
user -> community-label membership map; users absent from the map are
excluded from a window's analysis. The detection graph and each window's
graph come from one pass on the event log's interned user ids. The
cohesion axis is computed on the whole window graph; domination runs on
each community's own edges, one greedy run per community for every rho.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .community import DetectionConfig, DetectionResult, _detect, filter_by_size, resolution_size_threshold
from .domination import _check_rho, _greedy_sweep
from .errors import ConfigError, DuplicateAssignmentError, EmptyCorpusError, EmptyGraphError, NoEventsError
from .events import EVENT_KINDS, EventLog, WindowSpec, _interaction_pairs, check_kinds, ingest_events, slice_window
from .graph import Partition, community_rows, read_pairs, sorted_rows, utf8_encodable
from .lexicon import FoundationMap, FoundationScores, Lexicon, load_foundation_map, parse_mfd_dic, score_counts
from .modularity import _contributions, _relative
from .pareto import CriterionSpec, Direction, ParetoPoint, _is_number, pareto_frontier

logger = logging.getLogger(__name__)

DEFAULT_RHOS = (0.5, 0.75, 1.0)
DEFAULT_KINDS = ("retweet",)
# Sentinel for "use the resolution-limit threshold of the window graph".
AUTO = "auto"
_RETWEET = EVENT_KINDS.index("retweet")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by the per-window analyses, each checked here (ConfigError).

    A ``primary_rho`` of None takes 0.75 if it is swept, else the middle rho,
    kept as written.
    """

    rhos: tuple[float, ...] = DEFAULT_RHOS
    primary_rho: float | None = None
    min_community_size: int | str = AUTO
    kinds: tuple[str, ...] = DEFAULT_KINDS
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self):
        if not self.rhos:
            raise ConfigError("rhos must list at least one coverage fraction")
        for rho in self.rhos:
            _check_rho(rho, "rhos")
        if self.primary_rho is None:
            object.__setattr__(self, "primary_rho", 0.75 if 0.75 in self.rhos else self.rhos[len(self.rhos) // 2])
        elif self.primary_rho not in self.rhos:
            raise ConfigError(f"primaryRho {self.primary_rho} is not among the rhos {list(self.rhos)}")
        if not (self.min_community_size == AUTO or _is_int(self.min_community_size)):
            raise ConfigError(
                f'minCommunitySize (min_community_size) must be "{AUTO}" or an integer, got {self.min_community_size!r}'
            )
        check_kinds(self.kinds)


def _is_path(value: object) -> bool:
    return isinstance(value, str) and value != ""


def _has_strings(value: object, *names: str) -> bool:  # exactly the keys *names*, string values
    return isinstance(value, dict) and sorted(value) == sorted(names) and all(isinstance(value[n], str) for n in names)


# Every run config key once: JSON key -> (what its JSON value must be, check of
# the value, or of each element when the key holds a list). These check the JSON
# shape only: AnalysisConfig and DetectionConfig hold the rules and defaults of
# their settings, and a None check leaves the whole value to them. A parsed
# --window flag arrives as a WindowSpec.
RUN_KEYS = {
    "events": ("a non-empty string", _is_path, False),
    "windows": (
        "a list of {label, start, end} objects of strings",
        lambda v: isinstance(v, WindowSpec) or _has_strings(v, "label", "start", "end"),
        True,
    ),
    "detectionRange": ("a {start, end} object of strings", lambda v: _has_strings(v, "start", "end"), False),
    "membership": ("a non-empty string", _is_path, False),
    "lexicon": ("a non-empty string", _is_path, False),
    "foundationMap": ("a non-empty string", _is_path, False),
    "keywords": ("a list of non-empty strings", _is_path, True),
    "kinds": ("a list of strings", lambda v: isinstance(v, str), True),
    "seed": ("an integer", _is_int, False),
    "maxPasses": ("an integer", _is_int, False),
    "minGainEpsilon": ("a finite number", _is_number, False),
    "rhos": ("a list of numbers", _is_number, True),
    "primaryRho": ("a finite number", _is_number, False),
    "minCommunitySize": (None, None, False),
    "includeShares": ("true or false", lambda v: isinstance(v, bool), False),
    "outDir": ("a non-empty string", _is_path, False),
}


def _window(key: str, spec: WindowSpec | dict, label: str | None = None) -> WindowSpec:
    """Window of a checked *spec*; its bounds that do not parse stay a ValueError."""
    if isinstance(spec, WindowSpec):
        return spec
    try:
        return WindowSpec.from_strings(label or spec["label"], spec["start"], spec["end"])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run reads and writes, with paths resolved."""

    events: Path
    windows: tuple[WindowSpec, ...]
    out_dir: Path
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    detection_range: WindowSpec | None = None
    membership: Path | None = None
    lexicon: Path | None = None
    foundation_map: Path | None = None
    keywords: tuple[str, ...] | None = None
    include_shares: bool = False

    def __post_init__(self):
        if not self.windows:
            raise ConfigError("windows must list at least one window")
        labels: dict[str, str] = {}
        for window in self.windows:
            if not utf8_encodable(window.label):
                raise ConfigError(f"window label {window.label!r} cannot be written: UTF-8 cannot encode it")
            name = _safe_name(window.label)
            if name in labels:
                raise ConfigError(f"windows {labels[name]!r} and {window.label!r} both write the reports of {name!r}")
            labels[name] = window.label

    @classmethod
    def from_json(cls, raw: object, base: Path | str, overrides: Mapping[str, object] | None = None) -> "RunConfig":
        """Checked config from a config file's JSON, its paths relative to *base*.

        *overrides* (command-line values under the same keys, paths relative to
        the working directory) win. Only the keys given reach the config
        objects, so their fields hold the defaults. Raises ConfigError naming
        the key; window bounds that do not parse raise ValueError.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"a run config must be a JSON object, got {type(raw).__name__}")
        overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
        values = {key: value for key, value in raw.items() if value is not None} | overrides
        for key in (*raw, *overrides):
            if key not in RUN_KEYS:
                raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(RUN_KEYS)}")
        for key in ("events", "windows"):
            if key not in values:
                raise ConfigError(f"{key} is required")
        for key, value in values.items():
            expected, check, is_list = RUN_KEYS[key]
            if check and not (isinstance(value, list) and all(map(check, value)) if is_list else check(value)):
                raise ConfigError(f"{key} must be {expected}, got {json.dumps(value, default=repr)}")
        if "primaryRho" in values:
            values["primaryRho"] = float(values["primaryRho"])

        def given(**keys: str) -> dict:  # field -> the value of its key, a list as a tuple, for the keys given
            return {name: tuple(v) if isinstance(v := values[key], list) else v for name, key in keys.items() if key in values}

        def path(key: str) -> Path | None:  # values are absent or non-empty strings
            return values.get(key) and (Path() if key in overrides else Path(base)) / values[key]

        return cls(
            events=path("events"),
            windows=tuple(_window(f"windows[{i}]", w) for i, w in enumerate(values["windows"])),
            out_dir=path("outDir") or Path(base) / "out",
            analysis=AnalysisConfig(
                detection=DetectionConfig(**given(seed="seed", max_passes="maxPasses", min_gain_epsilon="minGainEpsilon")),
                **given(rhos="rhos", primary_rho="primaryRho", min_community_size="minCommunitySize", kinds="kinds"),
            ),
            detection_range=values.get("detectionRange") and _window("detectionRange", values["detectionRange"], "detection"),
            membership=path("membership"),
            lexicon=path("lexicon"),
            foundation_map=path("foundationMap"),
            keywords=tuple(values.get("keywords", ())) or None,
            **given(include_shares="includeShares"),
        )


@dataclass(frozen=True)
class CommunityStructure:
    label: str
    size: int
    d_modularity: float | None
    pds_sizes: dict[float, int]
    on_frontier: bool


@dataclass(frozen=True)
class StructuralReport:
    window_label: str
    communities: tuple[CommunityStructure, ...]
    frontier: tuple[str, ...]
    parameters: dict
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "window": self.window_label,
            "parameters": self.parameters,
            "degenerate": self.degenerate,
            "communities": [
                {
                    "label": c.label,
                    "size": c.size,
                    "dModularity": c.d_modularity,
                    "pdsSizes": {str(r): s for r, s in c.pds_sizes.items()},
                    "onFrontier": c.on_frontier,
                }
                for c in self.communities
            ],
            "frontier": list(self.frontier),
        }


@dataclass(frozen=True)
class CommunitySpeech:
    scores: FoundationScores
    on_frontier: bool


@dataclass(frozen=True)
class SpeechReport:
    window_label: str
    axes: tuple[str, ...]
    communities: tuple[CommunitySpeech, ...]
    frontier: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "window": self.window_label,
            "axes": list(self.axes),
            "communities": [
                {**c.scores.to_dict(), "onFrontier": c.on_frontier}
                for c in self.communities
            ],
            "frontier": list(self.frontier),
        }


def read_membership(stream: IO[str] | Iterable[str]) -> dict[str, str]:
    """Parse ``user<TAB>communityLabel`` records into a membership map."""
    membership: dict[str, str] = {}
    for user, community in read_pairs(stream):
        if user in membership:
            raise DuplicateAssignmentError(user)
        membership[user] = community
    return membership


def membership_from_partition(labels: Sequence[str], partition: Partition) -> dict[str, str]:
    """User label -> community label for a partition of the vertices labelled *labels*."""
    return {labels[v]: partition.group_label(g) for v, g in enumerate(partition.group_of)}


def _interaction_graph(
    events: EventLog, kinds: Sequence[str], keep: Sequence[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """A window graph of the matching interactions in *events*, in one pass: the users
    with a group code (``keep[id] >= 0``), as interned ids in first-seen order, and its
    edges as (low, high) vertex index pairs. A kept user whose partners are all dropped,
    or who only interacts with themself, stays isolated. Raises NoEventsError as
    _interaction_pairs does."""
    vertex: dict[int, int] = {}
    number, edges = vertex.setdefault, set()
    for s, t in _interaction_pairs(events, kinds):
        a = number(s, len(vertex)) if keep[s] >= 0 else -1
        b = number(t, len(vertex)) if keep[t] >= 0 else -1
        if a >= 0 and b >= 0 and a != b:
            edges.add((a, b) if a < b else (b, a))
    return list(vertex), list(edges)  # a list holds the edges in less memory than the set


def detect_membership(
    events: EventLog, config: AnalysisConfig, window: WindowSpec | None = None
) -> tuple[dict[str, str], DetectionResult]:
    """One detection run over the interactions of ``config.kinds`` in *window*
    (all events when None): the one path into detection from an event log."""
    users, rows = sorted_rows(_interaction_pairs(slice_window(events, window) if window else events, config.kinds))
    result = _detect(rows, config.detection)
    return membership_from_partition([events.users[u] for u in users], result.partition), result


def _structural_window_report(
    events: EventLog, window: WindowSpec, user_groups: Sequence[int], group_labels: Sequence[str], config: AnalysisConfig
) -> StructuralReport:
    try:
        users, edges = _interaction_graph(slice_window(events, window), config.kinds, user_groups)
    except NoEventsError as exc:
        raise NoEventsError(f"window {window.label}: {exc}") from None
    codes = [user_groups[u] for u in users]
    dense = {code: g for g, code in enumerate(sorted(set(codes)))}  # codes rank the labels
    partition = Partition(tuple(dense[c] for c in codes), len(dense), tuple(group_labels[c] for c in dense))
    min_size = config.min_community_size
    resolved_min = resolution_size_threshold(len(edges)) if min_size == AUTO else int(min_size)
    grouped, kept = filter_by_size(partition, resolved_min)
    if not dense:
        logger.warning("window %s: none of its users has a membership; it has no community", window.label)
    elif not kept:
        logger.warning(
            "window %s: none of its %d groups reaches the minimum community size "
            "%d (%s); all fold into 'other'",
            window.label,
            len(dense),
            resolved_min,
            "auto: ceil(sqrt(2m))" if min_size == AUTO else "configured",
        )
    elif not edges:
        raise EmptyGraphError(f"window {window.label}: no edge between two users with a membership")

    q, qis = _contributions(grouped.group_of, edges, grouped.group_count, len(edges)) if kept else (0.0, [])
    adjacency = community_rows(grouped, edges, len(kept))
    labels = grouped.group_labels
    # Drop the partitions before domination: their vertex-index ints would otherwise
    # keep memory pools in use under the report's values, raising peak memory.
    del partition, grouped
    rows: list[tuple[str, int, float | None, dict[float, int]]] = []
    points: list[ParetoPoint] = []
    for label, community, qi in zip(labels, adjacency, qis):
        di = _relative(qi, q)
        authorities = {r.rho: r.size for r in _greedy_sweep(community, config.rhos)}
        rows.append((label, len(community), di, authorities))
        if di is None:
            logger.warning(
                "window %s: community %s has undefined relative modularity; "
                "excluded from the frontier",
                window.label,
                label,
            )
        else:
            points.append(ParetoPoint(label=label, values=(di, float(authorities[config.primary_rho]))))

    criteria = (
        CriterionSpec("dModularity", Direction.HIGHER_IS_MORE_RADICAL),
        CriterionSpec(f"pdsSize@{config.primary_rho}", Direction.LOWER_IS_MORE_RADICAL),
    )
    frontier = pareto_frontier(points, criteria) if points else set()
    communities = tuple(
        CommunityStructure(
            label=label,
            size=size,
            d_modularity=di,
            pds_sizes=pds_sizes,
            on_frontier=label in frontier,
        )
        for label, size, di, pds_sizes in rows
    )
    return StructuralReport(
        window_label=window.label,
        communities=communities,
        frontier=tuple(sorted(frontier)),
        parameters={
            "rhos": list(config.rhos),
            "primaryRho": config.primary_rho,
            "minCommunitySize": min_size,
            "resolvedMinSize": resolved_min,
            "kinds": list(config.kinds),
            # Not the detection seed: see "seed": null in ROADMAP.md, carried over.
            "seed": None,
        },
        degenerate=len(kept) < 2,
    )


def run_structural_analysis(
    events: EventLog, windows: Sequence[WindowSpec], membership: Mapping[str, str], config: AnalysisConfig
) -> list[StructuralReport]:
    """One StructuralReport per window of users with a *membership*.

    The membership is a file's or one detect_membership run's. Window graphs
    are restricted to users with a membership, groups below the size
    threshold fold into a residual group, and the frontier combines the
    cohesion scale (higher = more radical) with the authority-set size at
    the primary rho (smaller = more radical).
    """
    group_labels = sorted(set(membership.values()))
    code = {label: i for i, label in enumerate(group_labels)}
    user_groups = [code[membership[u]] if u in membership else -1 for u in events.users]
    return [_structural_window_report(events, window, user_groups, group_labels, config) for window in windows]


def run_speech_analysis(
    events: EventLog,
    windows: Sequence[WindowSpec],
    membership: Mapping[str, str],
    lexicon: Lexicon,
    foundation_map: FoundationMap,
    *,
    include_shares: bool = False,
) -> list[SpeechReport]:
    """One SpeechReport per window from community corpora.

    By default only original posts count (shared/retweeted text is the
    behavioral signal, not the speaker's own words); ``include_shares``
    adds retweet text to the sharer's corpus. Communities with an empty
    corpus in a window are dropped with a warning. All axes point in the
    higher-is-more-radical direction. *events* must be ingested with
    *lexicon* (ValueError otherwise), whose match-set ids each corpus counts.
    """
    if lexicon is not events.lexicon:
        raise ValueError("the events were not ingested with this lexicon: pass it to ingest_events")
    axes = tuple(foundation_map.axes)
    criteria = tuple(CriterionSpec(a, Direction.HIGHER_IS_MORE_RADICAL) for a in axes)
    community_labels = sorted(set(membership.values()))
    code = {label: i for i, label in enumerate(community_labels)}
    community_of = [code[membership[u]] if u in membership else -1 for u in events.users]
    reports: list[SpeechReport] = []
    has_text, offsets, kinds, authors, sources = events.has_text, events.token_offsets, events.kinds, events.authors, events.sources
    view = memoryview(events.token_sets)
    for window in windows:
        docs = [array("i") for _ in community_labels]  # each community's rows with text
        for r in slice_window(events, window).rows:
            if not has_text[r]:
                continue
            if kinds[r] == _RETWEET and not include_shares:
                continue
            # The speaker is the author, else the source.
            speaker = authors[r] if authors[r] >= 0 else sources[r]
            if speaker >= 0 and (c := community_of[speaker]) >= 0:
                docs[c].append(r)
        scored: list[FoundationScores] = []
        for label, rows in zip(community_labels, docs):
            if not rows:
                logger.warning("window %s: community %s has an empty corpus; dropped", window.label, label)
                continue
            ids = memoryview(b"".join([view[offsets[r]:offsets[r + 1]] for r in rows])).cast(view.format)
            try:
                scored.append(score_counts(lexicon, foundation_map, Counter(ids), label))
            except EmptyCorpusError:
                logger.warning("window %s: community %s has no tokens; dropped", window.label, label)
        points = [
            ParetoPoint(
                label=s.community_label,
                values=tuple(s.per_foundation[a] for a in axes),
            )
            for s in scored
        ]
        frontier = pareto_frontier(points, criteria) if points else set()
        reports.append(
            SpeechReport(
                window_label=window.label,
                axes=axes,
                communities=tuple(
                    CommunitySpeech(scores=s, on_frontier=s.community_label in frontier)
                    for s in scored
                ),
                frontier=tuple(sorted(frontier)),
            )
        )
    return reports


def _safe_name(label: str) -> str:
    return re.sub(r"[^\w.-]+", "_", label)


def emit_plot_data(
    report: StructuralReport | SpeechReport,
    out_dir: Path | str,
) -> Path:
    """Write one CSV of plot-ready rows for the report's window.

    Structural reports become scatter points (cohesion vs authority-set
    size); speech reports become one row per community with a column per
    axis, for parallel-coordinates rendering.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(report, StructuralReport):
        path = out_dir / f"structural_{_safe_name(report.window_label)}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["community", "d_modularity", "pds_size", "on_frontier"])
            for c in report.communities:
                writer.writerow(
                    [
                        c.label,
                        "" if c.d_modularity is None else repr(c.d_modularity),
                        c.pds_sizes[report.parameters["primaryRho"]],
                        c.on_frontier,
                    ]
                )
        return path
    path = out_dir / f"speech_{_safe_name(report.window_label)}.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["community", *report.axes, "on_frontier"])
        for c in report.communities:
            writer.writerow(
                [
                    c.scores.community_label,
                    *(repr(c.scores.per_foundation[a]) for a in report.axes),
                    c.on_frontier,
                ]
            )
    return path


def write_json(payload: object, path: Path) -> None:
    """Deterministic JSON emission: fixed key order, trailing newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def run(config: RunConfig) -> None:
    """Check the lexicon and foundation map, ingest, read or detect the membership, then write the
    structural and, with a lexicon, the speech reports of each window into ``config.out_dir``."""
    lexicon = None
    if config.lexicon:
        with config.lexicon.open("r", encoding="utf-8") as fh:
            lexicon = parse_mfd_dic(fh)
        foundation_map = load_foundation_map(config.foundation_map)
        foundation_map.axis_ids(lexicon)  # every axis hits the lexicon
    with config.events.open("r", encoding="utf-8") as fh:
        events = ingest_events(fh, keywords=config.keywords, lexicon=lexicon)
    if events.skipped:
        logger.warning("%s: skipped %d invalid event records", config.events, events.skipped)
    if config.membership:
        with config.membership.open("r", encoding="utf-8") as fh:
            membership, result = read_membership(fh), None
    else:
        membership, result = detect_membership(events, config.analysis, config.detection_range)
    out_dir = config.out_dir  # made once every input is read
    out_dir.mkdir(parents=True, exist_ok=True)
    if result is not None:
        write_json(list(result.pass_modularity), out_dir / "detection_log.json")
    with (out_dir / "membership.tsv").open("w", encoding="utf-8") as fh:
        for user in sorted(membership):
            fh.write(f"{user}\t{membership[user]}\n")

    structural = run_structural_analysis(events, config.windows, membership, config.analysis)
    write_json([r.to_dict() for r in structural], out_dir / "structural.json")
    for report in structural:
        emit_plot_data(report, out_dir)

    if lexicon is not None:
        speech = run_speech_analysis(
            events, config.windows, membership, lexicon, foundation_map, include_shares=config.include_shares
        )
        write_json([r.to_dict() for r in speech], out_dir / "speech.json")
        for report in speech:
            emit_plot_data(report, out_dir)
