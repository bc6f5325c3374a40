"""No fan memoizes its wall circuits: `wall_circuit` computes each one on
use from the fan's rays, so every read, in a search or outside one, is
memo-free.

The oracle for every circuit is `fraction_cramer`: the off ray d in the
basis (wall rays a, b, off ray c), made a primitive integer vector."""

from dataclasses import fields

import pytest

from conftest import blowup_chain
from oracles import fraction_cramer
from toricfans import build, classify_wall, fanio, rational, validate_fan, wall_circuit, walls
from toricfans.fan import Fan
from toricfans.search import _explore, projectivize

SEARCHES = [
    ("Z13pp(2,7,4,2)", lambda: build("Z13pp", (2, 7, 4, 2)), 3),
    ("W7_5", lambda: build("W7_5"), 3),
    ("W7_5 rung 11", lambda: blowup_chain("W7_5", (), 11), 2),
]

# what a fan may hold besides its fields: the lazily built face tables
FACE_TABLES = {"face_census", "faces"}


def _circuit_by_fraction_cramer(fan, wall):
    a, b, c, d = wall.rays + wall.off_rays
    coords = fraction_cramer([fan.rays[a], fan.rays[b], fan.rays[c]], fan.rays[d])
    lam = [0] * len(fan.rays)
    for i, x in zip((a, b, c), coords):
        lam[i] = -x
    lam[d] = 1
    return rational.integerize(lam)


def _held(fan):
    return set(vars(fan)) - {f.name for f in fields(Fan)}


@pytest.mark.parametrize("flops_only", [False, True], ids=["all-kinds", "flops-only"])
@pytest.mark.parametrize("name, make, depth", SEARCHES, ids=[s[0] for s in SEARCHES])
def test_memo_reads_match_memo_free_circuits_on_every_edge(name, make, depth, flops_only):
    # every fan a search reaches, on either end of an edge, against the
    # same rays and cones revalidated from scratch
    start = make()
    nodes = [start] + [child for _, child in _explore(start, depth, flops_only) if child is not None]
    assert len(nodes) > 1 or flops_only  # Z13pp(2,7,4,2) has no flop wall
    for node in nodes:
        oracle = validate_fan(3, node.rays, node.max_cones)
        for wall in walls(node):
            circuit = wall_circuit(node, wall)
            assert circuit == wall_circuit(oracle, wall) == _circuit_by_fraction_cramer(oracle, wall)
            assert classify_wall(node, wall) == classify_wall(oracle, wall)
        assert _held(node) <= FACE_TABLES


def test_fans_from_input_and_results_carry_no_memo(tmp_path):
    assert [f.name for f in fields(Fan)] == ["rays", "max_cones"]
    w = build("W7_5")
    path = tmp_path / "w75.fan"
    fanio.save_fan(w, path)
    result = projectivize(w, 1)
    assert result.found
    fans = [w, validate_fan(3, w.rays, w.max_cones), fanio.load_fan(path), result.final_fan]
    for fan in fans:
        for wall in walls(fan):
            wall_circuit(fan, wall)
        assert _held(fan) <= FACE_TABLES


def test_memo_is_no_part_of_equality_hash_or_repr():
    # the face tables are the only memo a fan holds
    w = build("W7_5")
    fresh = Fan(w.rays, w.max_cones)
    for wall in walls(w):
        wall_circuit(w, wall)
    assert w.faces
    assert _held(w) == FACE_TABLES and _held(fresh) == set()
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
