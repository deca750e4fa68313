import pytest

from radscales import (
    PlantedPartitionParams,
    d_modularity_report,
    greedy_partial_dominating_set,
    hub_hierarchy_graph,
    modularity,
    planted_partition,
    three_group_graph,
)

from .oracles import min_partial_dominating_set, pair_sum_modularity


def test_three_group_graph_reproduces_published_scale_values():
    g, p = three_group_graph()
    report = d_modularity_report(g, p)
    assert report.q == pytest.approx(0.402, abs=1e-3)
    by_label = {grp.label: grp for grp in report.per_group}
    assert by_label["black"].di == pytest.approx(0.448, abs=2e-3)
    assert by_label["red"].di == pytest.approx(0.276, abs=2e-3)
    assert by_label["blue"].di == pytest.approx(0.276, abs=2e-3)


def test_three_group_graph_bit_identical():
    g1, p1 = three_group_graph()
    g2, p2 = three_group_graph()
    assert g1 == g2
    assert p1 == p2


def test_three_group_graph_local_structure():
    g, p = three_group_graph()
    for v in range(g.n):
        in_group = sum(1 for u in g.neighbors(v) if p.group_of[u] == p.group_of[v])
        cross = g.degree(v) - in_group
        if p.group_of[v] == 0:
            assert in_group == 3
            assert cross <= 1
        else:
            assert in_group == 2
            assert cross == 1


def test_hub_graph_domination_sizes():
    g = hub_hierarchy_graph()
    assert g.n == 15
    assert g.m == 14
    assert greedy_partial_dominating_set(g, 1.0).size == 3
    assert len(min_partial_dominating_set(g, 1.0)[0]) == 3


def test_hub_graph_bit_identical():
    assert hub_hierarchy_graph() == hub_hierarchy_graph()


def test_planted_full_cliques():
    g, p = planted_partition(
        PlantedPartitionParams(group_count=3, group_size=4, p_in=1.0, p_out=0.0, seed=0)
    )
    assert g.n == 12
    assert g.m == 18
    assert modularity(g, p) == pytest.approx(2 / 3, abs=1e-12)


def test_planted_deterministic_per_seed():
    params = PlantedPartitionParams(group_count=2, group_size=8, p_in=0.6, p_out=0.1, seed=42)
    assert planted_partition(params) == planted_partition(params)
    other = PlantedPartitionParams(group_count=2, group_size=8, p_in=0.6, p_out=0.1, seed=43)
    assert planted_partition(other)[0] != planted_partition(params)[0]


def test_planted_rejects_bad_params():
    with pytest.raises(ValueError):
        PlantedPartitionParams(group_count=3, group_size=0, p_in=0.5, p_out=0.1, seed=0)
    with pytest.raises(ValueError):
        PlantedPartitionParams(group_count=0, group_size=3, p_in=0.5, p_out=0.1, seed=0)
    with pytest.raises(ValueError):
        PlantedPartitionParams(group_count=2, group_size=3, p_in=1.5, p_out=0.1, seed=0)


def test_planted_uniform_mixing_gives_near_equal_shares():
    # With p_in == p_out no group should stand out. Q hovers near zero in
    # this regime, so the d_i ratio itself is unstable; the stable form of
    # the property is that absolute contributions balance: averaged over
    # seeds, every group's Q_i stays within noise of the equal share Q/k.
    k = 4
    balance = [[] for _ in range(k)]
    for seed in range(20):
        g, p = planted_partition(
            PlantedPartitionParams(group_count=k, group_size=12, p_in=0.3, p_out=0.3, seed=seed)
        )
        report = d_modularity_report(g, p)
        assert abs(report.q) < 0.15
        for i, grp in enumerate(report.per_group):
            balance[i].append(grp.qi - report.q / k)
    for residuals in balance:
        assert abs(sum(residuals) / len(residuals)) < 0.01


def test_planted_assortative_group_stands_out():
    g, p = planted_partition(
        PlantedPartitionParams(group_count=3, group_size=15, p_in=0.7, p_out=0.08, seed=5)
    )
    report = d_modularity_report(g, p)
    assert pair_sum_modularity(g, p) == pytest.approx(report.q, rel=1e-9)
    for grp in report.per_group:
        assert grp.di > 1 / 6  # well above the uniform-mixing share


def test_planted_isolated_vertices_survive():
    g, p = planted_partition(
        PlantedPartitionParams(group_count=2, group_size=3, p_in=0.0, p_out=0.0, seed=0)
    )
    assert g.n == 6
    assert g.m == 0
    assert len(p.group_of) == 6
