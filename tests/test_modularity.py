import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from radscales import Partition, build_graph, d_modularity_report, modularity
from radscales.errors import EmptyGraphError

from .conftest import random_graph, random_partition
from .oracles import pair_sum_group_contribution, pair_sum_modularity


def single_group(n):
    return Partition(group_of=(0,) * n, group_count=1)


def test_demo_graph_golden_values(demo_graph):
    g, p = demo_graph
    assert modularity(g, p) == pytest.approx(0.402, abs=1e-3)
    black, red, blue = d_modularity_report(g, p).per_group
    assert black.qi == pytest.approx(0.180, abs=1e-3)
    assert red.qi == pytest.approx(0.111, abs=1e-3)
    assert blue.qi == pytest.approx(0.111, abs=1e-3)
    assert black.di == pytest.approx(0.448, abs=2e-3)
    assert red.di == pytest.approx(0.276, abs=2e-3)
    assert blue.di == pytest.approx(0.276, abs=2e-3)


def test_single_group_modularity_is_zero(demo_graph):
    g, _ = demo_graph
    p = single_group(g.n)
    assert modularity(g, p) == 0.0
    assert d_modularity_report(g, p).per_group[0].qi == 0.0


def test_two_triangles():
    g = build_graph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")]
    )
    p = Partition(
        group_of=tuple(0 if lbl in "abc" else 1 for lbl in g.labels), group_count=2
    )
    assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)
    first, second = d_modularity_report(g, p).per_group
    assert first.di == pytest.approx(0.5, abs=1e-12)
    assert second.di == pytest.approx(0.5, abs=1e-12)


def test_empty_graph_rejected():
    g = build_graph([("a", "a")])
    with pytest.raises(EmptyGraphError):
        modularity(g, single_group(g.n))


def test_d_modularity_undefined_at_zero_q():
    g = build_graph([("a", "b")])
    (only,) = d_modularity_report(g, single_group(2)).per_group
    assert only.qi == 0.0
    assert only.di is None


def test_report_matches_scalar_ops(demo_graph):
    g, p = demo_graph
    report = d_modularity_report(g, p)
    assert report.q == modularity(g, p)
    for grp in report.per_group:
        assert grp.qi == pytest.approx(
            pair_sum_group_contribution(g, p, grp.group_index), rel=1e-12
        )
        assert grp.di == grp.qi / report.q
    assert [grp.label for grp in report.per_group] == ["black", "red", "blue"]


def test_report_undefined_di_for_single_group(demo_graph):
    g, _ = demo_graph
    report = d_modularity_report(g, single_group(g.n))
    assert report.q == 0.0
    assert all(grp.di is None for grp in report.per_group)


def test_report_json_shape(demo_graph):
    g, p = demo_graph
    payload = d_modularity_report(g, p).to_dict()
    assert set(payload) == {"Q", "groups"}
    assert [grp["label"] for grp in payload["groups"]] == ["black", "red", "blue"]
    assert all(set(grp) == {"label", "Qi", "di"} for grp in payload["groups"])


def test_relative_contributions_sum_to_one():
    rng = random.Random(8)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 40), rng.uniform(0.1, 0.5))
        p = random_partition(rng, g.n)
        report = d_modularity_report(g, p)
        if report.per_group[0].di is None:
            continue
        assert math.isclose(
            sum(grp.di for grp in report.per_group), 1.0, rel_tol=1e-9
        )


def test_negative_contribution_reported_as_is():
    # high-degree group with zero internal edges: below-chance cohesion
    g = build_graph(
        [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2"), ("y1", "y2")]
    )
    p = Partition(
        group_of=tuple(0 if lbl.startswith("x") else 1 for lbl in g.labels),
        group_count=2,
    )
    report = d_modularity_report(g, p)
    by_index = {grp.group_index: grp for grp in report.per_group}
    assert by_index[0].qi < 0
    if abs(report.q) >= 1e-12:
        assert by_index[0].di == by_index[0].qi / report.q


def test_conservation_and_pair_sum_oracle_random():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        p = random_partition(rng, g.n)
        report = d_modularity_report(g, p)
        assert sum(grp.qi for grp in report.per_group) == report.q
        oracle = pair_sum_modularity(g, p)
        assert math.isclose(report.q, oracle, rel_tol=1e-9, abs_tol=1e-12)
        for grp in report.per_group:
            assert math.isclose(
                grp.qi,
                pair_sum_group_contribution(g, p, grp.group_index),
                rel_tol=1e-9,
                abs_tol=1e-12,
            )


def test_label_permutation_invariance(demo_graph):
    g, p = demo_graph
    rng = random.Random(7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    # perm[i] is the new position of old vertex i
    new_labels = [""] * g.n
    new_adj = [()] * g.n
    for old, new in enumerate(perm):
        new_labels[new] = g.labels[old]
        new_adj[new] = tuple(sorted(perm[u] for u in g.neighbors(old)))
    shuffled = build_graph(
        [
            (new_labels[u], new_labels[v])
            for u in range(g.n)
            for v in new_adj[u]
            if u < v
        ]
    )
    new_group_of = [0] * g.n
    for old, new in enumerate(perm):
        new_group_of[shuffled.index_of(g.labels[old])] = p.group_of[old]
    shuffled_p = Partition(
        group_of=tuple(new_group_of), group_count=3, group_labels=p.group_labels
    )
    assert modularity(shuffled, shuffled_p) == pytest.approx(
        modularity(g, p), rel=1e-12
    )
    shuffled_report = d_modularity_report(shuffled, shuffled_p)
    for grp, shuffled_grp in zip(d_modularity_report(g, p).per_group, shuffled_report.per_group):
        assert shuffled_grp.di == pytest.approx(grp.di, rel=1e-12)


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 80), rng.uniform(0.02, 0.4))
        p = random_partition(rng, g.n, max_groups=10)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edges())
        groups = [{v for v in range(g.n) if p.group_of[v] == i} for i in range(p.group_count)]
        expected = nx.community.modularity(nx_graph, groups)
        assert math.isclose(modularity(g, p), expected, rel_tol=1e-9, abs_tol=1e-12)


@st.composite
def graph_and_partition(draw):
    n = draw(st.integers(2, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=30))
    g = build_graph(
        [(f"v{i}", f"v{i}") for i in range(n)]
        + [(f"v{u}", f"v{v}") for u, v in chosen]
    )
    k = draw(st.integers(1, n))
    assignment = list(range(k)) + [
        draw(st.integers(0, k - 1)) for _ in range(n - k)
    ]
    return g, Partition(group_of=tuple(assignment), group_count=k)


@settings(max_examples=60, deadline=None)
@given(graph_and_partition())
def test_grouped_equals_pair_sum(case):
    g, p = case
    assert math.isclose(
        modularity(g, p), pair_sum_modularity(g, p), rel_tol=1e-9, abs_tol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(graph_and_partition())
def test_q_at_most_one_and_in_group_fraction_bounds(case):
    g, p = case
    assert modularity(g, p) <= 1.0 + 1e-12
    report = d_modularity_report(g, p)
    assert sum(grp.qi for grp in report.per_group) == report.q
