import time

import pytest

from conftest import CATALOG_GRID, blowup_chain
from toricfans import (
    build,
    canonical_key,
    classify_wall,
    expected_projectivity,
    find_wall,
    is_projective,
    is_smooth,
    perform_surgery,
    projectivize,
    surgery_graph,
    validate_fan,
    walls,
)
from toricfans import fan as fan_module
from toricfans import search, surgery
from toricfans.errors import FanError, NotCompleteError
from toricfans.fan import Fan
from toricfans.search import GraphNode, SearchResult, SurgeryGraph
from toricfans.surgery import MODIFIABLE, WallKind


def replay(fan, steps):
    current = fan
    for step in steps:
        assert canonical_key(current) == step.before_key
        current, done = perform_surgery(current, find_wall(current, step.wall_rays))
        assert done.after_key == step.after_key
    return current


class TestProjectivize:
    def test_already_projective_needs_no_steps(self, p3):
        result = projectivize(p3, 0)
        assert result.found
        assert result.steps == ()
        assert result.depth_reached == 0
        assert canonical_key(result.final_fan) == canonical_key(p3)

    def test_w75_one_flop(self):
        result = projectivize(build("W7_5"), 1)
        assert result.found
        assert len(result.steps) == 1
        assert result.steps[0].kind is WallKind.FLOP
        assert result.final_smooth
        assert is_projective(result.final_fan)[0]

    def test_z13pp_2742_reaches_singular_projective_model(self):
        z = build("Z13pp", (2, 7, 4, 2))
        result = projectivize(z, 2)
        assert result.found
        assert [s.wall_rays for s in result.steps] == [(0, 3)]
        assert all(s.kind is WallKind.ANTI_FLIP for s in result.steps)
        assert not result.final_smooth
        assert is_projective(result.final_fan)[0]

    def test_steps_replay(self):
        for fan in (build("W7_5"), build("Z13pp", (2, 7, 4, 2)), build("Z5pp")):
            result = projectivize(fan, 2)
            assert result.found
            final = replay(fan, result.steps)
            assert canonical_key(final) == canonical_key(result.final_fan)

    def test_ray_set_preserved_along_steps(self):
        z = build("Z14pp", (1, 1))
        result = projectivize(z, 2)
        assert result.found
        assert result.final_fan.rays == z.rays

    def test_minimality_no_projective_node_above(self):
        # every node strictly closer than the found depth is non-projective
        for fan in (build("W7_5"), build("Z13pp", (2, 7, 4, 2))):
            result = projectivize(fan, 2)
            graph = surgery_graph(fan, max_depth=len(result.steps) - 1)
            assert all(not node.projective for node in graph.nodes)

    def test_depth_bound_reports_failure(self):
        w = build("W7_5")
        result = projectivize(w, 0)
        assert not result.found
        assert result.steps == ()
        assert result.visited == 1
        assert canonical_key(result.final_fan) == canonical_key(w)

    def test_flops_only_restriction(self):
        z = build("Z13pp", (2, 7, 4, 2))  # has no flop walls
        result = projectivize(z, 3, flops_only=True)
        assert not result.found
        assert result.visited == 1

    def test_incomplete_rejected(self):
        fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
        with pytest.raises(NotCompleteError):
            projectivize(fan, 1)


@pytest.mark.parametrize("max_depth", [-1, True, 2.5, "1"])
@pytest.mark.parametrize("query", [projectivize, surgery_graph])
def test_max_depth_must_be_a_non_negative_int(p3, query, max_depth):
    # checked before `projectivize` returns early on a projective start
    with pytest.raises(FanError, match="max_depth"):
        query(p3, max_depth)


@pytest.mark.parametrize("flops_only", ["no", 0.0, 1, None])
@pytest.mark.parametrize("query", [projectivize, surgery_graph])
def test_flops_only_must_be_a_bool(p3, query, flops_only):
    # "no" would run flops only and 0.0 every kind if taken by truthiness
    with pytest.raises(FanError, match="flops_only"):
        query(p3, 1, flops_only)


def test_search_ends_when_its_component_is_exhausted():
    # the component's 56 fans lie within 8 exchanges of the start, and the
    # ninth level adds only edges back to them; there is no flop wall at all
    z = build("Z13pp", (2, 7, 4, 2))
    began = time.perf_counter()
    graph = surgery_graph(z, 10**8)
    result = projectivize(z, 10**8, flops_only=True)
    assert time.perf_counter() - began < 2
    assert graph == surgery_graph(z, 9) != surgery_graph(z, 8)
    assert len(graph.nodes) == 56
    assert result == projectivize(z, 0, flops_only=True)


class TestSurgeryGraph:
    def test_w75_depth_one(self):
        graph = surgery_graph(build("W7_5"), 1)
        assert len(graph.nodes) == 4  # start plus the three flops
        assert len(graph.edges) == 3
        assert not graph.nodes[0].projective
        assert all(node.projective for node in graph.nodes[1:])
        assert all(node.smooth for node in graph.nodes)
        assert all(edge.kind is WallKind.FLOP for edge in graph.edges)

    def test_projective_space_is_isolated(self, p3):
        graph = surgery_graph(p3, 3)
        assert len(graph.nodes) == 1
        assert graph.edges == ()

    def test_z13pp_depth_one_edges_are_anti_flips(self):
        graph = surgery_graph(build("Z13pp", (2, 7, 4, 2)), 1)
        assert graph.edges
        assert {e.kind for e in graph.edges} == {WallKind.ANTI_FLIP}

    def test_edges_reference_known_nodes_at_depth_two(self):
        graph = surgery_graph(build("W7_5"), 2)
        keys = {node.key for node in graph.nodes}
        assert all(e.before_key in keys and e.after_key in keys for e in graph.edges)


# The search as first written: every modifiable wall is exchanged with
# `perform_surgery`, and fans are deduplicated by their canonical key.
def _reference_children(fan, flops_only):
    for wall in walls(fan):
        kind = classify_wall(fan, wall).kind
        if kind in MODIFIABLE and not (flops_only and kind is not WallKind.FLOP):
            yield perform_surgery(fan, wall)


def reference_projectivize(fan, max_depth, flops_only):
    if is_projective(fan)[0]:
        return SearchResult(True, (), fan, is_smooth(fan), 1, 0)
    start_key = canonical_key(fan)
    seen = {start_key}
    trail = {}
    level = [fan]
    visited = 1
    depth_reached = 0
    for depth in range(1, max_depth + 1):
        next_level = []
        for node in level:
            for child, step in _reference_children(node, flops_only):
                if step.after_key in seen:
                    continue
                seen.add(step.after_key)
                trail[step.after_key] = step
                visited += 1
                depth_reached = depth
                if is_projective(child)[0]:
                    steps = [step]
                    while steps[-1].before_key != start_key:
                        steps.append(trail[steps[-1].before_key])
                    return SearchResult(
                        True, tuple(reversed(steps)), child, is_smooth(child), visited, depth
                    )
                next_level.append(child)
        level = next_level
    return SearchResult(False, (), fan, is_smooth(fan), visited, depth_reached)


def reference_surgery_graph(fan, max_depth, flops_only):
    nodes = [GraphNode(canonical_key(fan), is_smooth(fan), is_projective(fan)[0])]
    keys = {nodes[0].key}
    edges = []
    level = [fan]
    for _ in range(max_depth):
        next_level = []
        for node in level:
            for child, step in _reference_children(node, flops_only):
                edges.append(step)
                if step.after_key not in keys:
                    keys.add(step.after_key)
                    projective = is_projective(child)[0]
                    nodes.append(GraphNode(step.after_key, is_smooth(child), projective))
                    next_level.append(child)
        level = next_level
    return SurgeryGraph(tuple(nodes), tuple(edges))


_NON_PROJECTIVE = [(f, p) for f, p in CATALOG_GRID if not expected_projectivity(f, p)]
REFERENCE_FANS = [("W7_5", ()), ("Z13pp", (2, 7, 4, 2)), ("Z5pp", ())] + _NON_PROJECTIVE[5::40]


@pytest.mark.parametrize("fid,params", REFERENCE_FANS)
def test_search_and_graph_match_reference_bfs(fid, params):
    fan = build(fid, params)
    for depth in (1, 2, 3):
        for flops_only in (False, True):
            assert surgery_graph(fan, depth, flops_only) == reference_surgery_graph(
                fan, depth, flops_only
            )
            assert projectivize(fan, depth, flops_only) == reference_projectivize(
                fan, depth, flops_only
            )


def test_graph_builds_each_new_fan_once_without_validation(monkeypatch):
    start = build("Z13pp", (2, 7, 4, 2))
    built, validated = [], []

    def counting_fan(*args):
        built.append(args)
        return Fan(*args)

    def counting_validate_fan(*args):
        validated.append(args)
        return validate_fan(*args)

    monkeypatch.setattr(surgery, "Fan", counting_fan)
    monkeypatch.setattr(fan_module, "validate_fan", counting_validate_fan)
    assert not hasattr(search, "validate_fan") and not hasattr(surgery, "validate_fan")
    graph = surgery_graph(start, 3)
    assert len(graph.edges) > len(graph.nodes) - 1  # some edges reach a seen fan
    assert len(built) == len(graph.nodes) - 1
    assert validated == []


def test_graph_classifies_each_wall_and_keys_each_fan_once(monkeypatch):
    classified, keyed = [], []

    def counting_classify_wall(fan, wall):
        classified.append((fan.max_cones, wall.rays))
        return classify_wall(fan, wall)

    def counting_canonical_key(fan):
        keyed.append(fan.max_cones)
        return canonical_key(fan)

    for module in (search, surgery):
        monkeypatch.setattr(module, "classify_wall", counting_classify_wall)
        monkeypatch.setattr(module, "canonical_key", counting_canonical_key)
    graph = surgery_graph(build("Z13pp", (2, 7, 4, 2)), 3)
    assert len(graph.nodes) > 1
    assert len(classified) == len(set(classified))
    # the start fan is keyed for its graph node and for the search
    assert len(keyed) == len(graph.nodes) + 1


EXPLORED = [
    ("Z13pp(2,7,4,2)", lambda: build("Z13pp", (2, 7, 4, 2)), 3),
    ("W7_5", lambda: build("W7_5"), 3),
    ("W7_5 rung 11", lambda: blowup_chain("W7_5", (), 11), 2),
]


@pytest.mark.parametrize("flops_only", [False, True], ids=["all-kinds", "flops-only"])
@pytest.mark.parametrize("name, make, depth", EXPLORED, ids=[s[0] for s in EXPLORED])
def test_explored_steps_match_classify_wall_and_the_graph(name, make, depth, flops_only):
    # each step is checked on its before-fan revalidated from its rays and cones
    start = make()
    fans = {canonical_key(start): start}
    edges = []
    for route, child in search._explore(start, depth, flops_only):
        edges.append(route[-1])
        if child is not None:
            fans[canonical_key(child)] = validate_fan(3, child.rays, child.max_cones)
    assert edges or flops_only  # Z13pp(2,7,4,2) has no flop wall
    assert tuple(edges) == surgery_graph(make(), depth, flops_only).edges
    for step in edges:
        before = fans[step.before_key]
        cls = classify_wall(before, find_wall(before, step.wall_rays))
        assert (step.kind, step.degree) == (cls.kind, cls.degree)
