import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from radscales import build_graph, greedy_partial_dominating_set
from radscales.domination import _greedy_sweep
from radscales.errors import EmptyGraphError, InvalidRhoError

from .conftest import random_graph
from .oracles import closed_coverage, greedy_pick_order, min_partial_dominating_set


def star(leaves: int):
    return build_graph([("hub", f"s{i}") for i in range(leaves)])


def path(labels):
    return build_graph(list(zip(labels, labels[1:])))


def cycle(n: int):
    return build_graph([(f"c{i}", f"c{(i + 1) % n}") for i in range(n)])


def edgeless(n: int):
    return build_graph([(f"e{i}", f"e{i}") for i in range(n)])


def test_hub_graph_full_domination(hub_graph):
    greedy = greedy_partial_dominating_set(hub_graph, 1.0)
    assert greedy.size == 3
    assert greedy.covered_count == 15
    assert {hub_graph.labels[v] for v in greedy.authorities} == {"h1", "h2", "h3"}
    exact, _ = min_partial_dominating_set(hub_graph, 1.0)
    assert len(exact) == 3


def test_hub_graph_half_domination(hub_graph):
    result = greedy_partial_dominating_set(hub_graph, 0.5)
    assert result.target_count == 8
    assert result.size == 2
    assert result.covered_count == 11
    cross, _ = min_partial_dominating_set(hub_graph, 0.5)
    assert len(cross) == 2


def test_hub_coverage(hub_graph):
    h1 = hub_graph.index_of("h1")
    assert closed_coverage(hub_graph, {h1}) == 6
    assert closed_coverage(hub_graph, set()) == 0
    assert closed_coverage(hub_graph, range(hub_graph.n)) == hub_graph.n


def test_star_center_dominates():
    g = star(9)
    result = greedy_partial_dominating_set(g, 1.0)
    assert result.size == 1
    assert g.labels[result.authorities[0]] == "hub"


def test_full_degree_vertex_for_any_rho():
    g = star(6)
    for rho in (0.1, 0.4, 0.75, 1.0):
        assert greedy_partial_dominating_set(g, rho).size == 1


def test_edgeless_graph_needs_everyone():
    result = greedy_partial_dominating_set(edgeless(6), 1.0)
    assert result.size == 6
    assert result.authorities == tuple(range(6))


def test_path_middle_vertex():
    g = path(["a", "b", "c"])
    authorities, covered = min_partial_dominating_set(g, 1.0)
    assert authorities == (1,)
    assert covered == 3
    assert greedy_partial_dominating_set(g, 1.0).authorities == (1,)


def test_cycle_six():
    authorities, _ = min_partial_dominating_set(cycle(6), 1.0)
    assert len(authorities) == 2
    assert greedy_partial_dominating_set(cycle(6), 1.0).size == 2


def test_invalid_rho(hub_graph):
    for rho in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidRhoError):
            greedy_partial_dominating_set(hub_graph, rho)


def test_empty_graph():
    g = build_graph([])
    with pytest.raises(EmptyGraphError):
        greedy_partial_dominating_set(g, 1.0)


def test_coverage_index_out_of_range(hub_graph):
    with pytest.raises(IndexError):
        closed_coverage(hub_graph, {99})


def test_result_json(hub_graph):
    payload = greedy_partial_dominating_set(hub_graph, 1.0).to_dict(hub_graph.labels)
    assert payload["rho"] == 1.0
    assert payload["size"] == 3
    assert payload["covered"] == 15
    assert payload["n"] == 15
    assert payload["authorities"] == ["h2", "h1", "h3"]


def test_no_redundant_prefix(hub_graph):
    result = greedy_partial_dominating_set(hub_graph, 1.0)
    for cut in range(result.size):
        assert closed_coverage(hub_graph, result.authorities[:cut]) < result.target_count


def test_prefix_monotonicity_random():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.7))
        results = [
            greedy_partial_dominating_set(g, rho) for rho in (0.25, 0.5, 0.75, 1.0)
        ]
        for prev, nxt in zip(results, results[1:]):
            assert nxt.authorities[: prev.size] == prev.authorities


def test_greedy_within_log_factor_of_exact():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 14), rng.uniform(0.2, 0.7))
        max_degree = max(g.degree(v) for v in range(g.n))
        bound = math.log(max_degree + 2) + 1
        for rho in (0.5, 1.0):
            greedy = greedy_partial_dominating_set(g, rho)
            exact, exact_covered = min_partial_dominating_set(g, rho)
            assert greedy.covered_count >= greedy.target_count
            assert exact_covered >= greedy.target_count
            assert greedy.size <= bound * len(exact)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=24)) if possible else []
    return build_graph(
        [(f"v{i}", f"v{i}") for i in range(n)]
        + [(f"v{u}", f"v{v}") for u, v in chosen]
    )


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.floats(0.05, 1.0))
def test_coverage_contract_and_determinism(graph, rho):
    first = greedy_partial_dominating_set(graph, rho)
    second = greedy_partial_dominating_set(graph, rho)
    assert first == second
    assert first.authorities == greedy_pick_order(graph, rho)
    assert first.covered_count == closed_coverage(graph, first.authorities)
    assert first.covered_count >= first.target_count
    assert first.target_count == math.ceil(rho * graph.n - 1e-9)


sweep_rhos = st.lists(
    st.one_of(st.sampled_from([0.3, 0.1 * 3, 0.5, 0.75, 1.0]), st.floats(0.01, 1.0)), min_size=1, max_size=5
)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), sweep_rhos)
@example(edgeless(10), [1.0, 0.1 * 3, 0.3, 0.3, 0.5])  # (0.1 * 3) * 10 snaps to 3
@example(edgeless(1), [0.5, 1.0, 0.5])
@example(star(9), [0.75, 0.1 * 3, 0.2])
def test_one_run_sizes_equal_separate_runs(graph, rhos):
    results = _greedy_sweep(graph.adjacency, rhos)
    assert [r.rho for r in results] == rhos
    for result in results:
        alone = greedy_partial_dominating_set(graph, result.rho)
        assert result == alone
        assert result.authorities == greedy_pick_order(graph, result.rho)
        assert result.covered_count == closed_coverage(graph, result.authorities)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 30), st.floats(0.05, 0.6), sweep_rhos)
def test_sweep_ignores_the_order_within_rows(rng, n, p, rhos):
    # Community rows are built in edge order, not sorted: the lazy heap's pick
    # (largest current gain, smallest index) must not depend on that order.
    graph = random_graph(rng, n, p)
    shuffled = [rng.sample(row, len(row)) for row in graph.adjacency]
    assert _greedy_sweep(shuffled, rhos) == _greedy_sweep(graph.adjacency, rhos)


@pytest.mark.parametrize("rho, n, target", [(0.1 * 3, 10, 3), (0.28, 25, 7)])
def test_one_run_sizes_snap_the_target(rho, n, target):
    assert rho * n > target
    small, large = _greedy_sweep(edgeless(n).adjacency, [rho, 1.0])
    assert (small.target_count, small.size, small.covered_count) == (target, target, target)
    assert large.authorities[:target] == small.authorities
