"""Dominance between scored communities and Pareto-frontier selection.

Each criterion carries its own "more radical" direction, so criteria on
incomparable scales combine without weights. Dominance is strict: as-or-more
radical everywhere and strictly more radical somewhere, so exactly tied
points never dominate each other and are all retained on the frontier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DuplicateLabelError, EmptyInputError, SchemaMismatchError
from .graph import utf8_encodable


class Direction(Enum):
    HIGHER_IS_MORE_RADICAL = "HIGHER_IS_MORE_RADICAL"
    LOWER_IS_MORE_RADICAL = "LOWER_IS_MORE_RADICAL"


@dataclass(frozen=True)
class CriterionSpec:
    name: str
    direction: Direction


@dataclass(frozen=True)
class ParetoPoint:
    """A community's position on the multidimensional relevance scale."""

    label: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"point {self.label!r} has non-finite values")


def _check_schema(point: ParetoPoint, criteria: Sequence[CriterionSpec]) -> None:
    if len(point.values) != len(criteria):
        raise SchemaMismatchError(
            f"point {point.label!r} has {len(point.values)} values "
            f"for {len(criteria)} criteria"
        )


def _adjusted(point: ParetoPoint, criteria: Sequence[CriterionSpec]) -> tuple[float, ...]:
    """Values flipped so that greater always means more radical."""
    return tuple(
        v if c.direction is Direction.HIGHER_IS_MORE_RADICAL else -v
        for v, c in zip(point.values, criteria)
    )


def _dominates_adjusted(b: tuple[float, ...], a: tuple[float, ...]) -> bool:
    return all(x >= y for x, y in zip(b, a)) and any(x > y for x, y in zip(b, a))


def pareto_frontier(
    points: Sequence[ParetoPoint],
    criteria: Sequence[CriterionSpec],
) -> set[str]:
    """Labels of the points not dominated by any other point.

    Sorted-sweep implementation: in descending lexicographic order of the
    direction-adjusted values, any dominator precedes its victims and is
    itself non-dominated once kept, so each point only needs checking
    against the frontier built so far. Duplicate-valued points are all
    retained; two points with one label raise DuplicateLabelError, since the
    label set could not tell them apart.
    """
    if not points:
        raise EmptyInputError("frontier of an empty point set is undefined")
    adjusted = []
    seen: set[str] = set()
    for point in points:
        if point.label in seen:
            raise DuplicateLabelError(point.label)
        seen.add(point.label)
        _check_schema(point, criteria)
        adjusted.append(_adjusted(point, criteria))
    order = sorted(range(len(points)), key=lambda i: adjusted[i], reverse=True)
    frontier: list[int] = []
    labels: set[str] = set()
    for i in order:
        if not any(_dominates_adjusted(adjusted[j], adjusted[i]) for j in frontier):
            frontier.append(i)
            labels.add(points[i].label)
    return labels


def _is_number(value: object) -> bool:
    """A number, not a bool, of finite magnitude, so float() cannot overflow."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def read_points(payload: object) -> tuple[tuple[CriterionSpec, ...], list[ParetoPoint]]:
    """Criteria and points of a ``{criteria, points}`` JSON object.

    Raises SchemaMismatchError naming the offending criterion or point index
    when the shape is wrong: each criterion needs a string ``name`` and a
    ``direction`` that names a Direction, each point a string ``label`` and a
    list of finite numbers as ``values``. Names and labels must be strings
    UTF-8 can encode, since the frontier writes them back.
    """
    if not isinstance(payload, dict) or not all(
        isinstance(payload.get(key), list) for key in ("criteria", "points")
    ):
        raise SchemaMismatchError("expected an object with 'criteria' and 'points' lists")
    directions = [d.value for d in Direction]
    criteria = []
    for i, c in enumerate(payload["criteria"]):
        if not (isinstance(c, dict) and isinstance(c.get("name"), str) and c.get("direction") in directions):
            raise SchemaMismatchError(f"criterion {i}: expected a string name and a direction in {directions}")
        if not utf8_encodable(c["name"]):
            raise SchemaMismatchError(f"criterion {i}: name {c['name']!r} cannot be written: UTF-8 cannot encode it")
        criteria.append(CriterionSpec(name=c["name"], direction=Direction(c["direction"])))
    points = []
    for i, p in enumerate(payload["points"]):
        values = p.get("values") if isinstance(p, dict) else None
        if not (isinstance(values, list) and all(map(_is_number, values)) and isinstance(p.get("label"), str)):
            raise SchemaMismatchError(f"point {i}: expected a string label and a list of finite numbers as values")
        if not utf8_encodable(p["label"]):
            raise SchemaMismatchError(f"point {i}: label {p['label']!r} cannot be written: UTF-8 cannot encode it")
        points.append(ParetoPoint(label=p["label"], values=tuple(float(v) for v in values)))
    return tuple(criteria), points
