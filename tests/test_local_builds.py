"""Wall exchanges, star subdivisions and blow-downs build their fans from a
local edit; `validate_fan` on the same rays and independently derived
cones is the oracle for all three."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_GRID, blowup_chain
from oracles import (
    contract_by_link_geometry,
    contract_by_round_trip,
    star_cones_by_fraction_cramer,
)
from toricfans import (
    build,
    canonical_key,
    classify_wall,
    contract_ray,
    is_projective,
    perform_surgery,
    star_subdivide,
    surgery_graph,
    validate_fan,
    walls,
)
from toricfans.surgery import MODIFIABLE, _exchange, exchanged_cones

SEEDS = [("W7_5", ()), ("Z2", (1,))] + CATALOG_GRID[1::12]


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _ray_sum(fan, face, weights=None):
    weights = weights or [1] * len(face)
    return _primitive([sum(w * fan.rays[i][k] for w, i in zip(weights, face)) for k in range(3)])


def _check_exchanges(fan):
    """Every modifiable wall's exchange against `validate_fan` on the side
    cones swapped by hand."""
    key = canonical_key(fan)
    for wall in walls(fan):
        cls = classify_wall(fan, wall)
        if cls.kind not in MODIFIABLE:
            continue
        c, d = wall.off_rays
        cones = set(fan.max_cones) - set(wall.side_cones)
        cones |= {tuple(sorted((c, d, keep))) for keep in wall.rays}
        out = _exchange(fan, wall, exchanged_cones(fan, wall))
        assert out == validate_fan(3, fan.rays, sorted(cones))
        result, step = perform_surgery(fan, wall)
        assert result == out
        assert (step.before_key, step.after_key) == (key, canonical_key(out))


def _check_subdivision(fan, v):
    """The subdivision at v against `validate_fan`, and the blow-down of v
    against both contraction oracles; subdividing that blow-down at v gives
    back the subdivision. The blow-down need not be ``fan``: when v is
    interior to both diagonals of its link, the first in index order wins."""
    out = star_subdivide(fan, v)
    assert out == validate_fan(3, fan.rays + (v,), star_cones_by_fraction_cramer(fan, v))
    down = contract_ray(out, len(fan.rays))
    assert down == contract_by_round_trip(out, len(fan.rays))
    assert down == contract_by_link_geometry(out, len(fan.rays))
    assert star_subdivide(down, v) == out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SEEDS),
    st.integers(0, 5),
    st.integers(0, 2**16),
    st.data(),
)
def test_local_builds_match_validate_fan(seed_fan, extra, seed, data):
    fid, params = seed_fan
    fan = blowup_chain(fid, params, len(build(fid, params).rays) + extra, seed)
    assert validate_fan(3, fan.rays, fan.max_cones) == fan
    _check_exchanges(fan)
    sums = [_ray_sum(fan, cone) for cone in fan.max_cones]
    sums += [_ray_sum(fan, wall.rays) for wall in walls(fan)]
    for v in data.draw(st.lists(st.sampled_from(sums), min_size=1, max_size=4, unique=True)):
        _check_subdivision(fan, v)
    cone = data.draw(st.sampled_from(fan.max_cones))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=3, max_size=3))
    _check_subdivision(fan, _ray_sum(fan, cone, weights))


def test_graph_children_pass_validate_fan():
    # each BFS child is the local build of one exchange; its canonical key
    # holds the rays and cones that validate_fan must accept unchanged
    w = build("W7_5")
    centres = list(w.max_cones) + [wall.rays for wall in walls(w)]
    blowups = [star_subdivide(w, _ray_sum(w, c)) for c in centres]
    starts = [(b, 1) for b in blowups if not is_projective(b)[0]]
    assert len(starts) == 22
    starts.append((build("Z13pp", (2, 7, 4, 2)), 3))
    kinds = set()
    for start, depth in starts:
        graph = surgery_graph(start, depth)
        assert len(graph.nodes) > 1
        for node in graph.nodes[1:]:
            _, rays, cones = node.key
            assert canonical_key(validate_fan(3, rays, cones)) == node.key
        kinds |= {edge.kind for edge in graph.edges}
    assert kinds == set(MODIFIABLE)
