"""Acceptance suite: every release-gating check with its tolerance and
runtime budget pinned. One summary line per criterion is printed at the end
of the pytest run (see conftest)."""

import json
import math
import random
import time

import pytest

from radscales import (
    DetectionConfig,
    FoundationMap,
    WindowSpec,
    d_modularity_report,
    detect,
    greedy_partial_dominating_set,
    hub_hierarchy_graph,
    ingest_events,
    parse_mfd_dic,
    run_structural_analysis,
    three_group_graph,
)
from radscales.cli import main as cli_main
from radscales.pareto import CriterionSpec, Direction, ParetoPoint, pareto_frontier
from radscales.pipeline import AnalysisConfig, detect_membership
import io

from .conftest import random_graph, random_partition
from .oracles import (
    all_pairs_frontier,
    exhaustive_best_partition,
    min_partial_dominating_set,
    pair_sum_modularity,
)
from .streams import TEST_DIC, write_run_dir, write_stream
from .test_community import DEMO_GRAPH_OPTIMAL_Q, DEMO_GRAPH_SEED, two_cliques


def test_criterion_1_cohesion_scale_golden_values():
    graph, partition = three_group_graph()
    d_modularity_report(graph, partition)  # warm path before timing
    start = time.perf_counter()
    report = d_modularity_report(graph, partition)
    elapsed = time.perf_counter() - start
    by_label = {g.label: g for g in report.per_group}
    assert report.q == pytest.approx(0.402, abs=1e-3)
    assert by_label["black"].qi == pytest.approx(0.180, abs=1e-3)
    assert by_label["red"].qi == pytest.approx(0.111, abs=1e-3)
    assert by_label["blue"].qi == pytest.approx(0.111, abs=1e-3)
    assert by_label["black"].di == pytest.approx(0.448, abs=2e-3)
    assert by_label["red"].di == pytest.approx(0.276, abs=2e-3)
    assert by_label["blue"].di == pytest.approx(0.276, abs=2e-3)
    assert elapsed < 1e-3


def test_criterion_2_authority_scale_golden_values():
    graph = hub_hierarchy_graph()
    greedy_partial_dominating_set(graph, 1.0)  # warm path before timing
    start = time.perf_counter()
    greedy = greedy_partial_dominating_set(graph, 1.0)
    exact, _ = min_partial_dominating_set(graph, 1.0)
    elapsed = time.perf_counter() - start
    assert greedy.size == 3
    assert len(exact) == 3
    assert greedy.covered_count == graph.n
    assert elapsed < 10e-3


def test_criterion_3_conservation_and_pair_sum_oracle():
    rng = random.Random(1234)
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 200)
        graph = random_graph(rng, n, rng.uniform(0.02, 0.3))
        partition = random_partition(rng, graph.n)
        report = d_modularity_report(graph, partition)
        total = sum(g.qi for g in report.per_group)
        assert math.isclose(total, report.q, rel_tol=1e-9, abs_tol=1e-12)
        oracle = pair_sum_modularity(graph, partition)
        assert math.isclose(report.q, oracle, rel_tol=1e-9, abs_tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_criterion_4_greedy_vs_exact_domination():
    rng = random.Random(77)
    rhos = (0.5, 0.75, 1.0)
    start = time.perf_counter()
    for _ in range(100):
        graph = random_graph(rng, rng.randint(4, 18), rng.uniform(0.2, 0.65))
        max_degree = max(graph.degree(v) for v in range(graph.n))
        bound = math.log(max_degree + 2) + 1
        results = []
        for rho in rhos:
            greedy = greedy_partial_dominating_set(graph, rho)
            exact, _ = min_partial_dominating_set(graph, rho)
            assert greedy.size <= bound * len(exact)
            results.append(greedy)
        for prev, nxt in zip(results, results[1:]):
            assert nxt.authorities[: prev.size] == prev.authorities
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_5_detection_recovers_fixture_optima():
    cliques = two_cliques(5)
    best_q, _ = exhaustive_best_partition(cliques)
    result = detect(cliques, DetectionConfig(seed=0))
    assert abs(result.pass_modularity[-1] - best_q) < 1e-9

    demo, _ = three_group_graph()
    result = detect(demo, DetectionConfig(seed=DEMO_GRAPH_SEED))
    assert abs(result.pass_modularity[-1] - DEMO_GRAPH_OPTIMAL_Q) < 1e-9

    rng = random.Random(5)
    for seed in range(20):
        graph = random_graph(rng, rng.randint(5, 60), rng.uniform(0.05, 0.4))
        log = detect(graph, DetectionConfig(seed=seed)).pass_modularity
        assert all(b >= a for a, b in zip(log, log[1:]))


def test_criterion_6_frontier_matches_all_pairs_oracle():
    rng = random.Random(4321)
    start = time.perf_counter()
    for case in range(1000):
        dims = rng.randint(2, 4)
        criteria = [
            CriterionSpec(f"c{d}", rng.choice(list(Direction))) for d in range(dims)
        ]
        count = rng.randint(1, 50)
        if case % 10 == 0:
            # all-tied set
            values = tuple(float(rng.randint(0, 3)) for _ in range(dims))
            points = [ParetoPoint(f"p{i}", values) for i in range(count)]
        else:
            # integer grids make ties and exact duplicates common
            points = [
                ParetoPoint(
                    f"p{i}",
                    tuple(float(rng.randint(0, 4)) for _ in range(dims)),
                )
                for i in range(count)
            ]
        frontier = pareto_frontier(points, criteria)
        assert frontier == all_pairs_frontier(points, criteria)
        survivors = [p for p in points if p.label in frontier]
        assert pareto_frontier(survivors, criteria) == frontier
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_7_lexicon_exactness():
    lexicon = parse_mfd_dic(io.StringIO(TEST_DIC))
    fmap = FoundationMap.default()
    from radscales import score_corpus

    scores = score_corpus(lexicon, fmap, ["lealdade firme do leal amigo"], "x")
    # hand count: leal* matches "lealdade" and "leal" -> 2 of 5 tokens
    assert abs(scores.per_foundation["IngroupLoyalty"] - 2 / 5) < 1e-12
    assert scores.per_foundation["Authority"] == 0.0

    docs = ["ordem e autoridade", "tema livre hoje sem nada"]
    once = score_corpus(lexicon, fmap, docs, "x")
    twice = score_corpus(lexicon, fmap, docs + docs, "x")
    assert once.per_foundation == twice.per_foundation
    # hand count: "ordem" and "autoridade" of 8 tokens, dyadic-exact
    assert abs(once.per_foundation["Authority"] - 2 / 8) < 1e-12
    assert once.per_foundation["Purity"] == 0.0

    mixed = score_corpus(lexicon, fmap, ["puro impuro justo dia"], "x")
    # hand count over 4 tokens: 2 purity, 1 fairness, dyadic-exact
    assert abs(mixed.per_foundation["Purity"] - 2 / 4) < 1e-12
    assert abs(mixed.per_foundation["Fairness"] - 1 / 4) < 1e-12


def test_criterion_8_planted_radicalization_is_unique_late_optimum(tmp_path):
    start = time.perf_counter()
    events_path = tmp_path / "events.jsonl"
    windows = write_stream(events_path)
    with events_path.open(encoding="utf-8") as fh:
        log = ingest_events(fh)
    config = AnalysisConfig(min_community_size=10, detection=DetectionConfig(seed=0))
    detection_window = WindowSpec("det", windows[0].start, windows[2].end)

    def analyze():
        membership, _ = detect_membership(log, config, detection_window)
        return run_structural_analysis(log, windows, membership, config)

    reports = analyze()
    for report in reports[-2:]:
        assert len(report.frontier) == 1
    # map the winning community back to the planted group
    repeat = analyze()
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in repeat]
    winner = reports[-1].frontier[0]
    winner_members = [
        c for c in reports[-1].communities if c.label == winner
    ]
    assert winner_members[0].size == 30
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_8_winner_is_the_planted_group(tmp_path):
    events_path = tmp_path / "events.jsonl"
    windows = write_stream(events_path)
    with events_path.open(encoding="utf-8") as fh:
        log = ingest_events(fh)
    config = AnalysisConfig(min_community_size=10, detection=DetectionConfig(seed=0))
    detection_window = WindowSpec("det", windows[0].start, windows[2].end)
    membership, _ = detect_membership(log, config, detection_window)
    reports = run_structural_analysis(log, windows, config=config, membership=membership)
    for report in reports[-2:]:
        assert len(report.frontier) == 1
        winner = report.frontier[0]
        winner_users = {u for u, c in membership.items() if c == winner}
        assert winner_users == {f"a{i:02d}" for i in range(30)}


def test_criterion_9_pipeline_reports_byte_identical(tmp_path):
    config_a = write_run_dir(tmp_path / "a")
    config_b = write_run_dir(tmp_path / "b")
    assert cli_main(["run", "--config", str(config_a)]) == 0
    assert cli_main(["run", "--config", str(config_b)]) == 0
    compared = 0
    for name in ("structural.json", "speech.json", "detection_log.json"):
        first = (tmp_path / "a" / "out" / name).read_bytes()
        second = (tmp_path / "b" / "out" / name).read_bytes()
        assert first == second, name
        json.loads(first.decode("utf-8"))  # reports stay valid JSON
        compared += 1
    assert compared == 3
