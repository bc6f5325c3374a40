"""Breadth-first search of the wall-surgery graph for a projective model.

Nodes are fans on the start fan's ray list, which wall exchanges never
change, so a sorted cone tuple identifies a fan as its canonical key does.
It is looked up before a fan is built, so each distinct fan is built once,
from its two-cone edit by `surgery._exchange`, which builds only the fan.
Edges are `SurgeryStep`s, each made once, after that lookup.
`projectivize` stops at the first projective fan, so the returned sequence
has minimum length over the explored edge relation, with ties broken by
wall order and then discovery order. Failure at the depth bound proves
nothing: the search is a semi-decision procedure. The ray list is fixed, so
a component is finite, and the search ends with its frontier: a level that
adds no new fan ends it before `max_depth`, a non-negative int.

Each wall circuit is computed where it is used, by `is_projective` and
again when the fan's walls are classified; one circuit is two cross
products. `projectivize` returns its input fan or a fan `_exchange`
built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FanError, NotCompleteError
from .fan import Fan, canonical_key, is_complete, is_smooth, walls
from .projectivity import is_projective
from .surgery import (
    MODIFIABLE,
    SurgeryStep,
    WallKind,
    _exchange,
    classify_wall,
    exchanged_cones,
)


@dataclass(frozen=True)
class SearchResult:
    found: bool
    steps: tuple[SurgeryStep, ...]
    final_fan: Fan
    final_smooth: bool
    visited: int
    depth_reached: int


@dataclass(frozen=True)
class GraphNode:
    key: tuple
    smooth: bool
    projective: bool


@dataclass(frozen=True)
class SurgeryGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[SurgeryStep, ...]


def _explore(fan: Fan, max_depth: int, flops_only: bool):
    """Breadth-first over the wall exchanges from `fan`, to `max_depth` steps.

    Yields ``(route, child)`` for every edge in deterministic order: `route`
    is the steps from `fan` ending with this edge, `child` the fan it reaches,
    or None when that fan was reached before. Every route in a level has the
    same length, and the search ends with the first level that adds no fan.
    """
    kinds = (WallKind.FLOP,) if flops_only else MODIFIABLE
    seen = {fan.max_cones: canonical_key(fan)}
    level: list[tuple[Fan, tuple[SurgeryStep, ...]]] = [(fan, ())]
    while level and len(level[0][1]) < max_depth:
        next_level = []
        for node, route in level:
            node_key = seen[node.max_cones]
            for wall in walls(node):
                cls = classify_wall(node, wall)
                if cls.kind not in kinds:
                    continue
                cones = exchanged_cones(node, wall)
                child = None
                if cones not in seen:
                    child = _exchange(node, wall, cones)
                    seen[cones] = canonical_key(child)
                step = SurgeryStep(wall.rays, cls.kind, cls.degree, node_key, seen[cones])
                if child is not None:
                    next_level.append((child, route + (step,)))
                yield route + (step,), child
        level = next_level


def _check_search(fan: Fan, max_depth: int, flops_only: bool, query: str) -> None:
    """Raise unless `fan` is complete, `max_depth` an int >= 0 (not a bool)
    and `flops_only` a bool."""
    if type(max_depth) is not int or max_depth < 0:
        raise FanError(f"{query} needs max_depth to be an int >= 0, got {max_depth!r}")
    if type(flops_only) is not bool:
        raise FanError(f"{query} needs flops_only to be a bool, got {flops_only!r}")
    if not is_complete(fan):
        raise NotCompleteError(f"{query} needs a complete fan")


def projectivize(fan: Fan, max_depth: int = 4, flops_only: bool = False) -> SearchResult:
    """Search for a projective fan within `max_depth` wall exchanges."""
    _check_search(fan, max_depth, flops_only, "projectivize")
    if is_projective(fan)[0]:
        return SearchResult(True, (), fan, is_smooth(fan), 1, 0)
    visited, depth_reached = 1, 0
    for route, child in _explore(fan, max_depth, flops_only):
        if child is None:
            continue
        visited += 1
        depth_reached = len(route)
        if is_projective(child)[0]:
            return SearchResult(True, route, child, is_smooth(child), visited, depth_reached)
    return SearchResult(False, (), fan, is_smooth(fan), visited, depth_reached)


def surgery_graph(fan: Fan, max_depth: int, flops_only: bool = False) -> SurgeryGraph:
    """The surgery graph out to a fixed depth, in deterministic BFS order."""
    _check_search(fan, max_depth, flops_only, "surgery_graph")
    nodes = [GraphNode(canonical_key(fan), is_smooth(fan), is_projective(fan)[0])]
    edges: list[SurgeryStep] = []
    for route, child in _explore(fan, max_depth, flops_only):
        step = route[-1]
        edges.append(step)
        if child is not None:
            nodes.append(GraphNode(step.after_key, is_smooth(child), is_projective(child)[0]))
    return SurgeryGraph(tuple(nodes), tuple(edges))
