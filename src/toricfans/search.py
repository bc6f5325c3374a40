"""Breadth-first search of the wall-surgery graph for a projective model.

Nodes are fans on the start fan's ray list, which wall exchanges never
change, so a sorted cone tuple identifies a fan as its canonical key does.
It is looked up before a fan is built, so each distinct fan is built and
validated once. Edges are `SurgeryStep`s. `projectivize` stops at the first
projective fan, so the returned sequence has minimum length over the
explored edge relation, with ties broken by wall order and then discovery
order. Failure at the depth bound proves nothing: the search is a
semi-decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCompleteError
from .fan import Fan, canonical_key, is_complete, is_smooth, walls
from .projectivity import is_projective
from .surgery import (
    MODIFIABLE,
    SurgeryStep,
    WallKind,
    classify_wall,
    exchanged_cones,
    perform_surgery,
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
    or None when that fan was reached before.
    """
    kinds = (WallKind.FLOP,) if flops_only else MODIFIABLE
    seen = {fan.max_cones: canonical_key(fan)}
    level: list[tuple[Fan, tuple[SurgeryStep, ...]]] = [(fan, ())]
    for _ in range(max_depth):
        next_level = []
        for node, route in level:
            node_key = seen[node.max_cones]
            for wall in walls(node):
                cls = classify_wall(node, wall)
                if cls.kind not in kinds:
                    continue
                cones = exchanged_cones(node, wall)
                if cones in seen:
                    child = None
                    step = SurgeryStep(wall.rays, cls.kind, cls.degree, node_key, seen[cones])
                else:
                    child, step = perform_surgery(node, wall)
                    seen[cones] = step.after_key
                    next_level.append((child, route + (step,)))
                yield route + (step,), child
        level = next_level


def projectivize(fan: Fan, max_depth: int = 4, flops_only: bool = False) -> SearchResult:
    """Search for a projective fan within `max_depth` wall exchanges."""
    if not is_complete(fan):
        raise NotCompleteError("projectivize needs a complete fan")
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
    if not is_complete(fan):
        raise NotCompleteError("surgery_graph needs a complete fan")
    nodes = [GraphNode(canonical_key(fan), is_smooth(fan), is_projective(fan)[0])]
    edges: list[SurgeryStep] = []
    for route, child in _explore(fan, max_depth, flops_only):
        step = route[-1]
        edges.append(step)
        if child is not None:
            nodes.append(GraphNode(step.after_key, is_smooth(child), is_projective(child)[0]))
    return SurgeryGraph(tuple(nodes), tuple(edges))
