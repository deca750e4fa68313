import random

import pytest
from hypothesis import given, settings, strategies as st

from radscales import CriterionSpec, Direction, ParetoPoint, pareto_frontier
from radscales.errors import DuplicateLabelError, EmptyInputError, SchemaMismatchError

from .oracles import all_pairs_frontier, dominates

TWO_D = (
    CriterionSpec("cohesion", Direction.HIGHER_IS_MORE_RADICAL),
    CriterionSpec("authorities", Direction.LOWER_IS_MORE_RADICAL),
)


def point(label, *values):
    return ParetoPoint(label=label, values=tuple(float(v) for v in values))


def test_dominates_both_axes():
    assert dominates(point("b", 0.5, 10), point("a", 0.4, 12), TWO_D)


def test_dominates_trade_off_is_false():
    assert not dominates(point("b", 0.5, 12), point("a", 0.4, 10), TWO_D)


def test_equal_points_do_not_dominate():
    a = point("a", 0.5, 10)
    b = point("b", 0.5, 10)
    assert not dominates(a, b, TWO_D)
    assert not dominates(b, a, TWO_D)


def test_dominates_requires_strict_improvement_somewhere():
    assert dominates(point("b", 0.5, 10), point("a", 0.5, 11), TWO_D)
    assert not dominates(point("b", 0.5, 10), point("a", 0.5, 10), TWO_D)


def test_schema_mismatch():
    with pytest.raises(SchemaMismatchError):
        pareto_frontier([point("b", 0.5), point("a", 0.4, 10)], TWO_D)
    with pytest.raises(SchemaMismatchError):
        pareto_frontier([point("a", 1, 2, 3)], TWO_D)


def test_non_finite_values_rejected():
    with pytest.raises(ValueError):
        point("a", float("nan"), 1)


def test_singleton_frontier():
    assert pareto_frontier([point("only", 0.3, 7)], TWO_D) == {"only"}


def test_three_point_example():
    points = [point("a", 0.6, 5), point("b", 0.4, 3), point("c", 0.5, 9)]
    assert pareto_frontier(points, TWO_D) == {"a", "b"}


def test_total_dominance_gives_singleton():
    points = [point("best", 0.9, 2), point("x", 0.5, 5), point("y", 0.4, 9)]
    assert pareto_frontier(points, TWO_D) == {"best"}


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        pareto_frontier([], TWO_D)


def test_duplicate_valued_points_all_retained():
    points = [point("a", 0.5, 5), point("b", 0.5, 5), point("c", 0.1, 9)]
    assert pareto_frontier(points, TWO_D) == {"a", "b"}


def test_all_tied_points_all_retained():
    points = [point(f"p{i}", 0.5, 5) for i in range(4)]
    assert pareto_frontier(points, TWO_D) == {f"p{i}" for i in range(4)}


def random_case(rng: random.Random):
    dims = rng.randint(2, 4)
    criteria = [
        CriterionSpec(f"c{d}", rng.choice(list(Direction))) for d in range(dims)
    ]
    count = rng.randint(1, 50)
    # small integer grids make ties and duplicates common
    points = [
        ParetoPoint(
            label=f"p{i}",
            values=tuple(float(rng.randint(0, 4)) for _ in range(dims)),
        )
        for i in range(count)
    ]
    return points, criteria


def test_matches_all_pairs_oracle_randomized():
    rng = random.Random(99)
    for _ in range(300):
        points, criteria = random_case(rng)
        assert pareto_frontier(points, criteria) == all_pairs_frontier(points, criteria)


def test_idempotence_randomized():
    rng = random.Random(7)
    for _ in range(100):
        points, criteria = random_case(rng)
        frontier = pareto_frontier(points, criteria)
        survivors = [p for p in points if p.label in frontier]
        assert pareto_frontier(survivors, criteria) == frontier


def test_every_excluded_point_is_dominated_by_a_frontier_point():
    rng = random.Random(13)
    for _ in range(50):
        points, criteria = random_case(rng)
        frontier = pareto_frontier(points, criteria)
        survivors = [p for p in points if p.label in frontier]
        for candidate in points:
            if candidate.label in frontier:
                continue
            assert any(dominates(s, candidate, criteria) for s in survivors)


def test_direction_flip_swaps_extremes():
    points = [point("lo", 0.1, 9), point("hi", 0.9, 1), point("mid", 0.5, 5)]
    most = pareto_frontier(points, TWO_D)
    flipped = (
        CriterionSpec("cohesion", Direction.LOWER_IS_MORE_RADICAL),
        CriterionSpec("authorities", Direction.HIGHER_IS_MORE_RADICAL),
    )
    least = pareto_frontier(points, flipped)
    assert most == {"hi"}
    assert least == {"lo"}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=30,
    )
)
def test_monotone_transform_invariance(raw):
    points = [point(f"p{i}", a, b) for i, (a, b) in enumerate(raw)]
    stretched = [
        point(f"p{i}", a * a * 3 + 1, b) for i, (a, b) in enumerate(raw)
    ]  # x -> 3x^2+1 is strictly increasing on these non-negative grids
    assert pareto_frontier(points, TWO_D) == pareto_frontier(stretched, TWO_D)


def test_duplicate_labels_rejected():
    points = [
        ParetoPoint("x", (1.0,)),
        ParetoPoint("x", (2.0,)),
        ParetoPoint("y", (0.0,)),
    ]
    criteria = [CriterionSpec("c", Direction.HIGHER_IS_MORE_RADICAL)]
    with pytest.raises(DuplicateLabelError, match="'x'") as exc:
        pareto_frontier(points, criteria)
    assert isinstance(exc.value, ValueError)
    assert exc.value.label == "x"
