import hashlib
import io
import json
import logging
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from radscales import (
    AnalysisConfig,
    DetectionConfig,
    FoundationMap,
    PlantedPartitionParams,
    WindowSpec,
    ingest_events,
    parse_mfd_dic,
    parse_timestamp,
    planted_partition,
    read_membership,
    run_speech_analysis,
    run_structural_analysis,
)
from radscales.cli import main as cli_main
from radscales.errors import ConfigError, DuplicateAssignmentError, EmptyGraphError, NoEventsError
from radscales.events import EVENT_KINDS, _interaction_pairs, slice_window
from radscales.graph import Graph, build_graph, sorted_rows
from radscales.pareto import CriterionSpec, Direction, ParetoPoint, pareto_frontier
from radscales.pipeline import RUN_KEYS, RunConfig, _interaction_graph, detect_membership, emit_plot_data, run

from .oracles import (
    log_rows, membership_first_graph, naive_events, partition_path_window, reference_speech_analysis, sorted_induced_rows
)
from .streams import POST_TEMPLATES, RUN_DIR_SHA256, TEST_DIC, stream_windows, write_run_dir, write_stream, written_sha256


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    base = tmp_path_factory.mktemp("stream")
    windows = write_stream(base / "events.jsonl")
    with (base / "events.jsonl").open(encoding="utf-8") as fh:
        log = ingest_events(fh)
    return log, windows


@pytest.fixture(scope="module")
def analysis_config():
    return AnalysisConfig(min_community_size=10, detection=DetectionConfig(seed=0))


@pytest.fixture(scope="module")
def membership(stream, analysis_config):
    log, windows = stream
    detection_window = WindowSpec("det", windows[0].start, windows[2].end)
    mapping, result = detect_membership(log, analysis_config, detection_window)
    return mapping, result


def test_detection_recovers_planted_groups(membership):
    mapping, result = membership
    by_community = {}
    for user, community in mapping.items():
        by_community.setdefault(community, set()).add(user[0])
    # each detected community is exactly one planted group
    assert sorted(len(v) for v in by_community.values()) == [1, 1, 1]
    assert all(b >= a for a, b in zip(result.pass_modularity, result.pass_modularity[1:]))


def test_structural_reports_shape(stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    reports = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    assert [r.window_label for r in reports] == ["w1", "w2", "w3", "w4"]
    for report in reports:
        assert not report.degenerate
        assert len(report.communities) == 3
        for community in report.communities:
            assert community.size >= report.parameters["resolvedMinSize"]
            assert set(community.pds_sizes) == {0.5, 0.75, 1.0}
        assert set(report.frontier) <= {c.label for c in report.communities}


def test_structural_frontier_self_consistent(stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    reports = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    criteria = (
        CriterionSpec("dModularity", Direction.HIGHER_IS_MORE_RADICAL),
        CriterionSpec("pdsSize", Direction.LOWER_IS_MORE_RADICAL),
    )
    for report in reports:
        points = [
            ParetoPoint(label=c.label, values=(c.d_modularity, float(c.pds_sizes[0.75])))
            for c in report.communities
            if c.d_modularity is not None
        ]
        assert set(report.frontier) == pareto_frontier(points, criteria)
        flagged = {c.label for c in report.communities if c.on_frontier}
        assert flagged == set(report.frontier)


def test_planted_radical_community_unique_optimum_late(stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    reports = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    for report in reports[-2:]:
        assert len(report.frontier) == 1
        winner = report.frontier[0]
        winner_users = {u for u, c in mapping.items() if c == winner}
        assert all(u.startswith("a") for u in winner_users)


def test_community_sizes_bounded_by_window_activity(stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    reports = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    for window, report in zip(windows, reports):
        active = set()
        for timestamp, _, source, target, _, _ in log_rows(log):
            if window.start <= timestamp < window.end and source and target:
                active.update((source, target))
        assert sum(c.size for c in report.communities) <= len(active)


def test_users_outside_membership_are_excluded(stream, analysis_config):
    log, windows = stream
    mapping = _planted_membership()
    del mapping["a00"]  # pretend this user only appeared after detection
    reports = run_structural_analysis(
        log, windows[:1], config=analysis_config, membership=mapping
    )
    sizes = {c.label: c.size for c in reports[0].communities}
    assert sizes["a"] == 29
    assert sizes["b"] == 30


def test_structural_determinism(stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    first = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    second = run_structural_analysis(log, windows, config=analysis_config, membership=mapping)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_size_filter_folds_small_groups(stream, analysis_config):
    log, windows = stream
    mapping = {user: community for user, community in _planted_membership().items()}
    # shrink community c to 3 known users: it must fold into the residual
    mapping = {
        u: c
        for u, c in mapping.items()
        if not (c == "c" and u not in {"c00", "c01", "c02"})
    }
    reports = run_structural_analysis(
        log, windows[:1], config=analysis_config, membership=mapping
    )
    labels = {c.label for c in reports[0].communities}
    assert labels == {"a", "b"}
    assert reports[0].degenerate is False


def _planted_membership():
    from .streams import members

    mapping = {}
    for name in ("a", "b", "c"):
        for user in members(name):
            mapping[user] = name
    return mapping


def _demo_graph_window():
    """The demo graph as one window of retweets, with its planted membership."""
    from radscales import three_group_graph

    graph, partition = three_group_graph()
    lines = [
        json.dumps(
            {
                "source": graph.labels[u],
                "target": graph.labels[v],
                "timestamp": "2022-09-20T00:00:00Z",
                "kind": "retweet",
            }
        )
        for u, v in graph.edges()
    ]
    log = ingest_events(lines)
    mapping = {
        graph.labels[v]: partition.group_label(partition.group_of[v])
        for v in range(graph.n)
    }
    window = WindowSpec("all", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    return log, window, mapping


def test_demo_graph_single_window_black_on_frontier():
    log, window, mapping = _demo_graph_window()
    config = AnalysisConfig(min_community_size=1)
    (report,) = run_structural_analysis(log, [window], config=config, membership=mapping)
    assert "black" in report.frontier
    by_label = {c.label: c for c in report.communities}
    assert by_label["black"].d_modularity == pytest.approx(0.448, abs=2e-3)


def test_auto_min_size_is_the_window_resolution_threshold():
    log, window, mapping = _demo_graph_window()
    (report,) = run_structural_analysis(log, [window], config=AnalysisConfig(), membership=mapping)
    # 19 edges: ceil(sqrt(38)) = 7 beats every 4-user group
    assert report.parameters["minCommunitySize"] == "auto"
    assert report.parameters["resolvedMinSize"] == 7
    assert report.communities == ()
    assert report.degenerate


@pytest.mark.parametrize("min_size, resolved, source", [(5, 5, "configured"), ("auto", 7, "auto")])
def test_warns_once_when_every_group_folds(caplog, min_size, resolved, source):
    log, window, mapping = _demo_graph_window()
    with caplog.at_level(logging.WARNING, logger="radscales.pipeline"):
        (report,) = run_structural_analysis(
            log, [window], config=AnalysisConfig(min_community_size=min_size), membership=mapping
        )
    folds = [r.getMessage() for r in caplog.records if "fold" in r.getMessage()]
    assert len(folds) == 1
    assert folds[0].startswith(
        f"window all: none of its 3 groups reaches the minimum community size {resolved} ({source}"
    )
    assert folds[0].endswith("all fold into 'other'")
    assert report.to_dict() == {
        "window": "all",
        "parameters": {
            "rhos": [0.5, 0.75, 1.0],
            "primaryRho": 0.75,
            "minCommunitySize": min_size,
            "resolvedMinSize": resolved,
            "kinds": ["retweet"],
            "seed": None,
        },
        "degenerate": True,
        "communities": [],
        "frontier": [],
    }


def test_no_fold_warning_when_a_group_is_kept(caplog):
    log, window, mapping = _demo_graph_window()
    with caplog.at_level(logging.WARNING, logger="radscales.pipeline"):
        config = AnalysisConfig(min_community_size=4)
        run_structural_analysis(log, [window], config=config, membership=mapping)
    assert "fold" not in caplog.text


def _labelled_graph(log, window, kinds, membership=None):
    """Labels and sorted adjacency rows of the graph a run builds for *window*
    (all events when None): a window graph of the users in *membership*, or
    the detection graph of every user when it is None."""
    events = slice_window(log, window) if window else log
    if membership is None:
        users, rows = sorted_rows(_interaction_pairs(events, kinds))
        return tuple(log.users[u] for u in users), tuple(rows)
    users, edges = _interaction_graph(events, kinds, [0 if user in membership else -1 for user in log.users])
    rows = [[] for _ in users]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    return tuple(log.users[u] for u in users), tuple(tuple(sorted(r)) for r in rows)


# Peak traced bytes of detect_membership per detection edge on the streams
# below, with 1.25 and 5 interactions per edge on average. An edge set, an
# edge list and a weight dict per vertex, held at once, peaked at 159 and 143
# B/edge. A flat list of every interaction's pair, then rows with repeats,
# peaked at 63 and 186. Rows whose repeats are dropped as they grow peak at
# 60 and 57.
DETECT_PEAK_BYTES_PER_EDGE = 80


@pytest.mark.parametrize("interactions_per_edge", [1.25, 5])
def test_detect_membership_peak_memory_per_edge(interactions_per_edge):
    g, _ = planted_partition(PlantedPartitionParams(20, 50, 0.2, 0.004, seed=24))
    rng = random.Random(24)
    edges = list(g.edges())
    edges += rng.choices(edges, k=round((interactions_per_edge - 1) * len(edges)))  # repeated interactions
    rng.shuffle(edges)
    log = ingest_events(
        json.dumps({"source": g.labels[u], "target": g.labels[v], "timestamp": "2023-01-02T00:00:00Z", "kind": "retweet"})
        for u, v in edges
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        detect_membership(log, AnalysisConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / g.m <= DETECT_PEAK_BYTES_PER_EDGE, peak / g.m


def test_known_users_without_known_partners_stay_isolated():
    pairs = [("a1", "a2"), ("a3", "x"), ("b1", "b2"), ("b3", "b3"), ("a1", "b1"), ("y", "b2")]
    log = ingest_events(
        json.dumps({"source": s, "target": t, "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"})
        for s, t in pairs
    )
    mapping = {"a1": "a", "a2": "a", "a3": "a", "b1": "b", "b2": "b", "b3": "b"}
    window = WindowSpec("all", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    labels, rows = _labelled_graph(log, window, ("retweet",), mapping)
    assert labels == ("a1", "a2", "a3", "b1", "b2", "b3")
    assert (rows[2], rows[5], sum(map(len, rows)) // 2) == ((), (), 3)
    config = AnalysisConfig(min_community_size=1)
    (report,) = run_structural_analysis(log, [window], config=config, membership=mapping)
    by_label = {c.label: c for c in report.communities}
    # a3 and b3 count in their community's size and need their own authority
    assert (by_label["a"].size, by_label["b"].size) == (3, 3)
    assert (by_label["a"].pds_sizes[1.0], by_label["b"].pds_sizes[1.0]) == (2, 2)


window_users = st.sampled_from([f"u{i}" for i in range(6)])


@given(
    st.lists(st.tuples(window_users, window_users, st.sampled_from(EVENT_KINDS)), max_size=25),
    st.sets(window_users),
    st.sets(st.sampled_from(EVENT_KINDS), min_size=1),
)
def test_window_graph_equals_membership_first_oracle(interactions, known, kinds):
    stamp = "2022-09-20T00:00:00Z"
    lines = [json.dumps({"author": "u0", "text": "ordem", "timestamp": stamp, "kind": "retweet"})]
    lines += [json.dumps({"source": s, "target": t, "timestamp": stamp, "kind": k}) for s, t, k in interactions]
    log = ingest_events(lines)
    membership = dict.fromkeys(known, "g")
    window = WindowSpec("w", parse_timestamp(stamp), parse_timestamp("2022-09-21"))
    matching = [(s, t) for s, t, k in interactions if k in kinds]
    if not matching or all(s == t for s, t in matching):
        with pytest.raises(NoEventsError):
            _labelled_graph(log, window, kinds, membership)
        config = AnalysisConfig(kinds=tuple(kinds), min_community_size=1)
        with pytest.raises(NoEventsError, match="^window w: "):
            run_structural_analysis(log, [window], membership, config)
        return
    labels, rows = _labelled_graph(log, window, kinds, membership)
    assert (labels, rows) == membership_first_graph(interactions, kinds, known)
    # the same graph as inducing the detection graph, every user kept, on the known users
    raw = Graph(*_labelled_graph(log, None, kinds))
    inside = [v for v, u in enumerate(raw.labels) if u in membership]
    assert (labels, rows) == (tuple(raw.labels[v] for v in inside), sorted_induced_rows(raw, inside))


@given(
    st.lists(st.tuples(window_users, window_users, st.sampled_from(EVENT_KINDS)), min_size=1, max_size=25),
    st.sets(st.sampled_from(EVENT_KINDS), min_size=1),
)
def test_detection_graph_equals_build_graph_of_the_labelled_pairs(interactions, kinds):
    stamp = "2022-09-20T00:00:00Z"
    log = ingest_events(json.dumps({"source": s, "target": t, "timestamp": stamp, "kind": k}) for s, t, k in interactions)
    matching = [(s, t) for s, t, k in interactions if k in kinds]
    if all(s == t for s, t in matching):
        with pytest.raises(NoEventsError):
            _labelled_graph(log, None, kinds)
        return
    # users who only interact with themselves are vertices too, numbered where first seen
    built = _labelled_graph(log, None, kinds)
    graph = build_graph(matching)
    assert built == (graph.labels, graph.adjacency)
    assert built == membership_first_graph(interactions, kinds, {u for pair in matching for u in pair})


stream_users = st.sampled_from([f"u{i}" for i in range(8)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(stream_users, stream_users, st.sampled_from(EVENT_KINDS), st.booleans()), min_size=4, max_size=40),
    st.dictionaries(stream_users, st.sampled_from(["a", "b", "c", "other"])),
    st.sets(st.sampled_from(EVENT_KINDS), min_size=1),
    st.sampled_from([1, 2, 3, "auto"]),
    st.lists(st.sampled_from([0.3, 0.5, 0.75, 1.0]), min_size=1, max_size=4),
)
@example(  # a kept group named other beside the residual 'other', a self-loop, an unknown user, a reply
    [("u0", "u1", "retweet", True), ("u1", "u2", "retweet", True), ("u3", "u4", "retweet", True),
     ("u4", "u5", "retweet", True), ("u6", "u0", "retweet", True), ("u6", "u6", "retweet", True),
     ("u7", "u3", "retweet", True), ("u2", "u5", "reply", True), ("u0", "u3", "retweet", False)],
    {"u0": "other", "u1": "other", "u2": "other", "u3": "a", "u4": "a", "u5": "a", "u6": "c"},
    {"retweet"}, 2, [0.5, 1.0, 0.5],
)
@example(  # one group holds every vertex: Q = 0, so its d_i is undefined
    [("u0", "u1", "retweet", True), ("u1", "u2", "retweet", True), ("u2", "u3", "mention", True)],
    {"u0": "a", "u1": "a", "u2": "a", "u3": "a"}, {"retweet", "mention"}, 1, [0.75],
)
def test_window_report_equals_the_partition_path(caplog, records, membership, kinds, min_size, rhos):
    inside = [(s, t, k) for s, t, k, in_window in records if in_window]
    lines = [json.dumps({"author": "u0", "text": "ordem", "timestamp": "2022-09-20T00:00:00Z", "kind": "other"})]
    lines += [
        json.dumps({"source": s, "target": t, "kind": k, "timestamp": "2022-09-20T00:00:00Z" if in_window else "2022-10-01"})
        for s, t, k, in_window in records
    ]
    log = ingest_events(lines)
    window = WindowSpec("w", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    config = AnalysisConfig(rhos=tuple(rhos), primary_rho=rhos[0], min_community_size=min_size, kinds=tuple(kinds))
    caplog.clear()
    try:
        expected, folded_groups, undefined = partition_path_window(inside, kinds, membership, min_size, rhos, rhos[0])
    except (NoEventsError, EmptyGraphError) as exc:
        with pytest.raises(type(exc), match="^window w: "):
            run_structural_analysis(log, [window], config=config, membership=membership)
        return
    with caplog.at_level(logging.WARNING, logger="radscales.pipeline"):
        (report,) = run_structural_analysis(log, [window], config=config, membership=membership)
    got = [(c.label, c.size, c.d_modularity, c.pds_sizes, c.on_frontier) for c in report.communities]
    assert got == expected
    assert report.frontier == tuple(sorted(c[0] for c in expected if c[4]))
    assert report.degenerate == (len(expected) < 2)
    messages = [r.getMessage() for r in caplog.records]
    folds = [m for m in messages if "fold into 'other'" in m]
    if folded_groups is None:
        assert folds == []
    else:
        assert len(folds) == 1 and folds[0].startswith(f"window w: none of its {folded_groups} groups")
    assert [m for m in messages if "undefined relative modularity" in m] == [
        f"window w: community {label} has undefined relative modularity; excluded from the frontier"
        for label in undefined
    ]


def test_min_community_size_is_an_int_or_auto():
    with pytest.raises(ValueError, match="min_community_size"):
        AnalysisConfig(min_community_size="big")
    for size in (1.7, True):
        with pytest.raises(ConfigError, match="min_community_size"):
            AnalysisConfig(min_community_size=size)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"rhos": ()}, "rhos must list at least one coverage fraction"),
        ({"rhos": (0.5, 1.5)}, "rhos: coverage fraction 1.5"),
        ({"rhos": (0.5, 1.0), "primary_rho": 0.75}, r"primaryRho 0.75 is not among the rhos \[0.5, 1.0\]"),
        ({"kinds": ()}, "kinds must list event kinds"),
        ({"kinds": ("retweet", "quote")}, "kinds must list event kinds"),
    ],
)
def test_analysis_config_checks_its_settings(settings, message):
    with pytest.raises(ConfigError, match=message):
        AnalysisConfig(**settings)


def test_analysis_config_primary_rho_fallback():
    assert AnalysisConfig().primary_rho == 0.75
    assert AnalysisConfig(rhos=(0.5, 1.0)).primary_rho == 1.0
    assert AnalysisConfig(rhos=(0.2, 0.4, 0.6)).primary_rho == 0.4
    assert AnalysisConfig(rhos=(0.5, 1.0), primary_rho=0.5).primary_rho == 0.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.3, 0.5, 0.75, 1.0, 1]), min_size=1, max_size=5))
def test_library_and_config_file_take_one_primary_rho(rhos):
    from_library = AnalysisConfig(rhos=tuple(rhos)).primary_rho
    from_file = RunConfig.from_json(_run_json(rhos=rhos), Path(".")).analysis.primary_rho
    assert from_library == from_file
    assert type(from_library) is type(from_file)


def test_kept_community_named_other_is_not_the_residual(stream, analysis_config):
    log, windows = stream
    plain = _planted_membership()
    # fold community c (3 known users) into the residual group "other"
    plain = {u: c for u, c in plain.items() if not (c == "c" and u not in {"c00", "c01", "c02"})}
    renamed = {u: "other" if c == "a" else c for u, c in plain.items()}
    (expected,) = run_structural_analysis(log, windows[:1], config=analysis_config, membership=plain)
    (report,) = run_structural_analysis(log, windows[:1], config=analysis_config, membership=renamed)
    by_label = {c.label: c for c in report.communities}
    a = {c.label: c for c in expected.communities}["a"]
    assert by_label["other"].size == a.size
    assert by_label["other"].d_modularity == a.d_modularity
    assert by_label["other"].pds_sizes == a.pds_sizes


def test_single_surviving_community_is_the_frontier(stream, analysis_config):
    log, windows = stream
    full = _planted_membership()
    mapping = {
        u: c
        for u, c in full.items()
        if c == "a" or u in {"b00", "b01", "b02", "c00", "c01", "c02"}
    }
    reports = run_structural_analysis(
        log, windows[:1], config=analysis_config, membership=mapping
    )
    report = reports[0]
    assert report.degenerate
    assert report.frontier == ("a",)
    assert [c.label for c in report.communities] == ["a"]


def test_single_community_degenerate_report():
    lines = [
        json.dumps(
            {
                "source": f"u{i}",
                "target": f"u{i + 1}",
                "timestamp": "2022-09-20T00:00:00Z",
                "kind": "retweet",
            }
        )
        for i in range(5)
    ]
    log = ingest_events(lines)
    mapping = {f"u{i}": "only" for i in range(6)}
    window = WindowSpec("w", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    config = AnalysisConfig(min_community_size=1)
    (report,) = run_structural_analysis(log, [window], config=config, membership=mapping)
    assert report.degenerate
    # single group: Q is zero, the cohesion axis is undefined, nothing to rank
    assert report.frontier == ()
    assert report.communities[0].d_modularity is None


def test_speech_reports(stream, membership):
    log, windows = stream
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    mapping = _planted_membership()
    reports = run_speech_analysis(
        log, windows, mapping, lexicon, FoundationMap.default()
    )
    assert len(reports) == 4
    for report in reports:
        assert report.axes == ("Fairness", "IngroupLoyalty", "Authority", "Purity")
        by_label = {c.scores.community_label: c.scores for c in report.communities}
        assert set(by_label) == {"a", "b", "c"}
        # community a's posts are authority-heavy by construction
        assert by_label["a"].per_foundation["Authority"] > by_label["b"].per_foundation["Authority"]
        assert "a" in report.frontier


def test_speech_empty_corpus_dropped_with_warning(stream, caplog):
    log, windows = stream
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    mapping = _planted_membership()
    mapping["ghost_user"] = "ghost"
    with caplog.at_level(logging.WARNING):
        reports = run_speech_analysis(
            log, windows[:1], mapping, lexicon, FoundationMap.default()
        )
    assert "ghost" in caplog.text
    assert {c.scores.community_label for c in reports[0].communities} == {"a", "b", "c"}


def test_speech_identical_corpora_all_on_frontier(stream):
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    lines = [
        json.dumps(
            {
                "author": f"{name}1",
                "text": "ordem justo puro hoje",
                "timestamp": "2022-09-20T00:00:00Z",
                "kind": "other",
            }
        )
        for name in ("x", "y", "z")
    ]
    log = ingest_events(lines)
    mapping = {f"{name}1": name for name in ("x", "y", "z")}
    window = WindowSpec("w", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    reports = run_speech_analysis(log, [window], mapping, lexicon, FoundationMap.default())
    assert set(reports[0].frontier) == {"x", "y", "z"}


def test_include_shares_adds_retweet_text():
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    lines = [
        json.dumps(
            {
                "author": "u1",
                "text": "tema neutro hoje",
                "timestamp": "2022-09-20T00:00:00Z",
                "kind": "other",
            }
        ),
        json.dumps(
            {
                "source": "u1",
                "target": "u2",
                "text": "ordem autoridade obedecer",
                "timestamp": "2022-09-20T01:00:00Z",
                "kind": "retweet",
            }
        ),
    ]
    log = ingest_events(lines)
    mapping = {"u1": "g", "u2": "g"}
    window = WindowSpec("w", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-21"))
    fmap = FoundationMap.default()
    without = run_speech_analysis(log, [window], mapping, lexicon, fmap)
    with_shares = run_speech_analysis(
        log, [window], mapping, lexicon, fmap, include_shares=True
    )
    freq_without = without[0].communities[0].scores.per_foundation["Authority"]
    freq_with = with_shares[0].communities[0].scores.per_foundation["Authority"]
    assert freq_without == 0.0
    assert freq_with == 0.5


def _speech_sha256(tmp_path, include_shares):
    """sha256 of the speech reports, as run writes them, of the tests/streams
    events with every post author-less (its poster is the source) and every
    retweet carrying the post text of its target's community; users whose id
    ends in 7 have no membership."""
    write_stream(tmp_path / "events.jsonl")
    lines = []
    for line in (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        if "author" in event:
            event["source"] = event.pop("author")
        else:
            event["text"] = POST_TEMPLATES[event["target"][0]]
        lines.append(json.dumps(event))
    log = ingest_events(lines)
    mapping = {user: user[0] for user in log.users if not user.endswith("7")}
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    reports = run_speech_analysis(
        log, stream_windows(), mapping, lexicon, FoundationMap.default(), include_shares=include_shares
    )
    payload = json.dumps([r.to_dict() for r in reports], indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Taken before speech corpora were counted with one split and speakers'
# labels looked up through one list per run.
SHARES_SPEECH_SHA256 = {
    False: "38fd54a52998cb2bdf4e4c54ebb54b0947d20613b778c15e4516983b45596d28",
    True: "9dde0a0952bbbbfe658d6c304ea567d2e6e2889ce826383d8bb258b7a10251f3",
}


@pytest.mark.parametrize("include_shares", [False, True])
def test_speech_of_author_less_posts_and_shares_matches_golden_hashes(tmp_path, include_shares):
    assert _speech_sha256(tmp_path, include_shares) == SHARES_SPEECH_SHA256[include_shares]


def test_emit_plot_data_structural(tmp_path, stream, analysis_config, membership):
    log, windows = stream
    mapping, _ = membership
    report = run_structural_analysis(
        log, windows[:1], config=analysis_config, membership=mapping
    )[0]
    path = emit_plot_data(report, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "community,d_modularity,pds_size,on_frontier"
    assert len(lines) == 1 + len(report.communities)


def test_emit_plot_data_speech(tmp_path, stream):
    log, windows = stream
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    report = run_speech_analysis(
        log, windows[:1], _planted_membership(), lexicon, FoundationMap.default()
    )[0]
    path = emit_plot_data(report, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "community,Fairness,IngroupLoyalty,Authority,Purity,on_frontier"
    assert len(lines) == 4


def test_read_membership():
    mapping = read_membership(io.StringIO("u1\tleft\nu2\tright\n#c\nu3 left\n"))
    assert mapping == {"u1": "left", "u2": "right", "u3": "left"}
    with pytest.raises(DuplicateAssignmentError):
        read_membership(io.StringIO("u1\tx\nu1\ty\n"))


def _run_json(**changes):
    raw = {"events": "events.jsonl", "windows": [{"label": "w", "start": "2022-09-19", "end": "2022-10-03"}]}
    raw.update(changes)
    return raw


def test_run_config_flags_beat_keys(tmp_path):
    raw = _run_json(seed=3, rhos=[0.5], primaryRho=0.5, minCommunitySize=4, includeShares=False)
    overrides = {
        "seed": 5,
        "rhos": [0.75, 1.0],
        "minCommunitySize": "auto",
        "windows": [WindowSpec.from_strings("flag", "2022-10-03", "2022-10-17")],
        "includeShares": True,
    }
    with pytest.raises(ConfigError, match="primaryRho 0.5 is not among the rhos"):
        RunConfig.from_json(raw, tmp_path, overrides)
    del raw["primaryRho"]
    config = RunConfig.from_json(raw, tmp_path, overrides)
    assert config.analysis.detection.seed == 5
    assert config.analysis.rhos == (0.75, 1.0)
    assert config.analysis.min_community_size == "auto"
    assert [w.label for w in config.windows] == ["flag"]
    assert config.include_shares is True
    assert RunConfig.from_json(raw, tmp_path, {"seed": None}).analysis.detection.seed == 3


def test_run_config_null_means_absent(tmp_path):
    nulls = {key: None for key in RUN_KEYS if key not in ("events", "windows")}
    config = RunConfig.from_json(_run_json(**nulls), tmp_path)
    assert config == RunConfig.from_json(_run_json(), tmp_path)
    assert config.analysis == AnalysisConfig()
    assert config.out_dir == tmp_path / "out"
    assert (config.membership, config.lexicon, config.foundation_map, config.keywords) == (None,) * 4
    assert (config.detection_range, config.include_shares) == (None, False)
    with pytest.raises(ConfigError, match="events is required"):
        RunConfig.from_json(_run_json(events=None), tmp_path)


def test_run_config_paths(tmp_path):
    raw = _run_json(outDir="reports", lexicon="mfd.dic", foundationMap="map.json", membership="m.tsv")
    config = RunConfig.from_json(raw, tmp_path)
    assert config.out_dir == tmp_path / "reports"
    assert config.events == tmp_path / "events.jsonl"
    assert (config.lexicon, config.foundation_map, config.membership) == (
        tmp_path / "mfd.dic", tmp_path / "map.json", tmp_path / "m.tsv"
    )
    # --out-dir is relative to the working directory, not to the config file
    assert RunConfig.from_json(raw, tmp_path, {"outDir": "alt"}).out_dir == Path("alt")


@pytest.mark.parametrize(
    "rhos, primary",
    [([0.5, 0.75, 1.0], 0.75), ([0.25, 0.75], 0.75), ([0.5, 1.0], 1.0), ([0.2, 0.4, 0.6], 0.4), ([0.5, 1], 1)],
)
def test_run_config_primary_rho_fallback(tmp_path, rhos, primary):
    analysis = RunConfig.from_json(_run_json(rhos=rhos), tmp_path).analysis
    assert analysis.primary_rho == primary
    # the rho is kept as written: an integer 1 is reported as 1, not 1.0
    assert type(analysis.primary_rho) is type(primary)


def test_run_config_explicit_primary_rho_is_a_float(tmp_path):
    analysis = RunConfig.from_json(_run_json(rhos=[0.5, 1], primaryRho=1), tmp_path).analysis
    assert analysis.primary_rho == 1.0 and type(analysis.primary_rho) is float


def test_run_config_window_bounds_stay_data_errors(tmp_path):
    bad = [{"label": "w", "start": "2022-13-01", "end": "2022-10-03"}]
    with pytest.raises(ValueError, match=r"windows\[0\]") as exc:
        RunConfig.from_json(_run_json(windows=bad), tmp_path)
    assert not isinstance(exc.value, ConfigError)


@pytest.mark.parametrize("labels", [("a", "a"), ("a b", "a_b"), ("x/y", "x_y")])
def test_run_config_rejects_colliding_windows(tmp_path, labels):
    windows = [
        WindowSpec.from_strings(label, start, end)
        for label, (start, end) in zip(labels, [("2022-09-19", "2022-10-03"), ("2022-10-03", "2022-10-17")])
    ]
    with pytest.raises(ConfigError, match=f"{labels[0]!r} and {labels[1]!r}"):
        RunConfig(events=tmp_path / "e.jsonl", windows=tuple(windows), out_dir=tmp_path)
    with pytest.raises(ConfigError, match="at least one window"):
        RunConfig(events=tmp_path / "e.jsonl", windows=(), out_dir=tmp_path)


def test_pipeline_run_writes_what_the_cli_writes(tmp_path):
    config_path = write_run_dir(tmp_path)
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    run(RunConfig.from_json(raw, tmp_path, {"outDir": str(tmp_path / "library")}))
    assert cli_main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "cli")]) == 0
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "library").iterdir())
    assert "speech.json" in written and "detection_log.json" in written
    for name in written:
        assert (tmp_path / "library" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name


def _readme_run_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Full pipeline", 1)[1].split("\n## ", 1)[0]


def test_readme_run_keys_match_run_config():
    section = _readme_run_section()
    table_keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(table_keys) == sorted(RUN_KEYS)
    assert len(table_keys) == len(set(table_keys))
    example = json.loads(re.search(r"```json\n(.*?)```", section, flags=re.DOTALL).group(1))
    assert set(example) <= set(RUN_KEYS)
    RunConfig.from_json(example, Path("."))


# Each key's value in effect, as JSON, read from the config that from_json builds.
EFFECTIVE_VALUES = {
    "kinds": lambda c: list(c.analysis.kinds),
    "seed": lambda c: c.analysis.detection.seed,
    "maxPasses": lambda c: c.analysis.detection.max_passes,
    "minGainEpsilon": lambda c: c.analysis.detection.min_gain_epsilon,
    "rhos": lambda c: list(c.analysis.rhos),
    "minCommunitySize": lambda c: c.analysis.min_community_size,
    "includeShares": lambda c: c.include_shares,
    "outDir": lambda c: str(c.out_dir),
}


def test_readme_run_key_defaults_are_in_effect():
    """Every default cell of the README key table that holds a JSON literal is
    the value a config without that key runs with."""
    rows = re.findall(r"^\| `(\w+)` \| [^|]* \| `([^`]*)` \|", _readme_run_section(), flags=re.MULTILINE)
    assert sorted(key for key, _ in rows) == sorted(EFFECTIVE_VALUES)
    config = RunConfig.from_json(_run_json(), Path("."))
    for key, literal in rows:
        assert EFFECTIVE_VALUES[key](config) == json.loads(literal), key


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=3), st.text(min_size=1, max_size=3)), max_size=8))
def test_detected_membership_file_round_trips(pairs):
    """Any user ids ingest accepts survive membership.tsv: a run that reads
    back the membership another run detected writes the same report."""
    records = [
        {"source": a, "target": b, "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"}
        for a, b in [("u0", "u1"), *pairs]
    ]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "events.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        raw = _run_json(minCommunitySize=1)
        run(RunConfig.from_json(raw, base, {"outDir": str(base / "first")}))
        run(RunConfig.from_json({**raw, "membership": "first/membership.tsv"}, base, {"outDir": str(base / "second")}))
        first = (base / "first" / "structural.json").read_bytes()
        assert (base / "second" / "structural.json").read_bytes() == first


def test_run_builds_no_graph(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run path built a Graph")

    monkeypatch.setattr(Graph, "_trusted", classmethod(refuse))
    monkeypatch.setattr(Graph, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built a Graph"):
        build_graph([("a", "b")])
    config = write_run_dir(tmp_path)
    run(RunConfig.from_json(json.loads(config.read_text(encoding="utf-8")), tmp_path))
    assert written_sha256(tmp_path / "out") == RUN_DIR_SHA256


# Words of TEST_DIC and others, and whitespace that str.split() splits on,
# beside characters that a UTF-8 round trip could get wrong: lone surrogates
# (JSON escapes, in both orders around an astral character) and astral ones.
SPEECH_PIECES = ["ordem", "justo", "leal", "impuro", "hoje", "www.x.com/ordem", "@ordem", " ", "\xa0", "\u3000", "\n",
                 "\ud800", "\ude00\ud83d", "\U0001f600", "ção"]
speech_texts = st.lists(st.sampled_from(SPEECH_PIECES), max_size=8).map("".join)  # empty and whitespace-only too
speech_records = st.fixed_dictionaries(
    {
        "timestamp": st.sampled_from(["2022-09-20T00:00:00Z", "2022-09-21T00:00:00Z", "2022-09-22T00:00:00Z"]),
        "kind": st.sampled_from(EVENT_KINDS),
        "source": st.sampled_from(["u0", "u1", "u2", "u3"]),
    },
    optional={"author": st.sampled_from(["u0", "u1", "u4", ""]), "target": st.sampled_from(["u1", "u2"]), "text": speech_texts},
)
SPEECH_WINDOWS = [WindowSpec.from_strings("w1", "2022-09-20", "2022-09-22"), WindowSpec.from_strings("w2", "2022-09-19", "2022-09-23")]
SPEECH_MEMBERSHIP = {"u0": "a", "u1": "a", "u2": "b", "u4": "c"}


def _speech_equals_reference(lines, **options):
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    events, _ = naive_events(lines)
    log = ingest_events(lines)
    got = run_speech_analysis(log, SPEECH_WINDOWS, SPEECH_MEMBERSHIP, lexicon, FoundationMap.default(), **options)
    assert got == reference_speech_analysis(events, SPEECH_WINDOWS, SPEECH_MEMBERSHIP, lexicon, FoundationMap.default(), **options)


@settings(max_examples=150, deadline=None)
@given(st.lists(speech_records.map(json.dumps), min_size=1, max_size=25), st.booleans())
def test_speech_equals_scoring_per_text_strings(lines, include_shares):
    # The corpora are decoded from the event log's text buffer in batches of
    # space-joined texts; the scores must equal those of the texts as strings.
    lines = [*lines, json.dumps({"source": "u0", "target": "u1", "timestamp": "2022-09-20T00:00:00Z", "kind": "reply"})]
    _speech_equals_reference(lines, include_shares=include_shares)


def test_speech_of_corpora_longer_than_one_batch_equals_scoring_per_text_strings():
    rng = random.Random(25)
    lines = [
        json.dumps({
            "author": rng.choice(["u0", "u1", "u2", "u4"]),
            "text": "".join(rng.choice(SPEECH_PIECES) for _ in range(rng.randrange(12))),
            "timestamp": f"2022-09-2{rng.randrange(3)}T00:00:00Z",
            "kind": rng.choice(EVENT_KINDS),
        })
        for _ in range(2_000)
    ]
    _speech_equals_reference(lines)
