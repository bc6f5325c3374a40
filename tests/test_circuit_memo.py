"""One surgery search shares one `Fan.circuits` memo among all its fans.

The oracle for every memo read is `wall_circuit` on a memo-free `Fan` with
the same rays and cones, which computes the circuit from its determinants."""

from dataclasses import replace

import pytest

from conftest import blowup_chain
from toricfans import (
    build,
    canonical_key,
    classify_wall,
    fanio,
    find_wall,
    rational,
    surgery_graph,
    validate_fan,
    wall_circuit,
    walls,
)
from toricfans.fan import Fan
from toricfans.search import _explore, projectivize

SEARCHES = [
    ("Z13pp(2,7,4,2)", lambda: build("Z13pp", (2, 7, 4, 2)), 3),
    ("W7_5", lambda: build("W7_5"), 3),
    ("W7_5 rung 11", lambda: blowup_chain("W7_5", (), 11), 2),
]


def _memo_free(fan):
    return Fan(fan.rays, fan.max_cones)


@pytest.mark.parametrize("flops_only", [False, True], ids=["all-kinds", "flops-only"])
@pytest.mark.parametrize("name, make, depth", SEARCHES, ids=[s[0] for s in SEARCHES])
def test_memo_reads_match_memo_free_circuits_on_every_edge(name, make, depth, flops_only):
    start = replace(make(), circuits={})
    plain = {canonical_key(start): _memo_free(start)}
    nodes = [start]
    edges = []
    for route, child in _explore(start, depth, flops_only):
        edges.append(route[-1])
        if child is not None:
            assert child.circuits is start.circuits
            plain[canonical_key(child)] = _memo_free(child)
            nodes.append(child)
    assert edges or flops_only  # Z13pp(2,7,4,2) has no flop wall
    assert tuple(edges) == surgery_graph(make(), depth, flops_only).edges
    read = set()
    for node in nodes:
        oracle = plain[canonical_key(node)]
        assert oracle.circuits is None
        for wall in walls(node):
            read.add(wall.rays + wall.off_rays)
            assert wall_circuit(node, wall) == wall_circuit(oracle, wall)
            assert classify_wall(node, wall) == classify_wall(oracle, wall)
    assert read == set(start.circuits)
    for step in edges:
        before = plain[step.before_key]
        cls = classify_wall(before, find_wall(before, step.wall_rays))
        assert (step.kind, step.degree) == (cls.kind, cls.degree)


def test_fans_from_input_and_results_carry_no_memo(tmp_path):
    w = build("W7_5")
    path = tmp_path / "w75.fan"
    fanio.save_fan(w, path)
    assert w.circuits is None
    assert validate_fan(3, w.rays, w.max_cones).circuits is None
    assert fanio.load_fan(path).circuits is None
    result = projectivize(w, 1)
    assert result.found and result.final_fan.circuits is None
    assert w.circuits is None  # the search worked on a copy


def test_memo_is_no_part_of_equality_hash_or_repr():
    w = build("W7_5")
    memo = replace(w, circuits={})
    for wall in walls(memo):
        wall_circuit(memo, wall)
    assert memo.circuits
    assert memo == w and hash(memo) == hash(w) and repr(memo) == repr(w)


def test_graph_computes_each_circuit_once_per_distinct_key(monkeypatch):
    z = build("Z13pp", (2, 7, 4, 2))
    start = replace(z, circuits={})
    fans = [start] + [child for _, child in _explore(start, 3, False) if child is not None]
    keys = {wall.rays + wall.off_rays for f in fans for wall in walls(f)}
    reads = sum(len(walls(f)) for f in fans)

    # `wall_circuit` calls `vec_gcd` once per circuit it computes, and
    # nothing else in a search calls it
    computed = []
    vec_gcd = rational.vec_gcd
    monkeypatch.setattr(rational, "vec_gcd", lambda v: computed.append(v) or vec_gcd(v))
    graph = surgery_graph(z, 3)
    assert len(graph.nodes) == len(fans)
    assert len(computed) == len(keys) < reads
