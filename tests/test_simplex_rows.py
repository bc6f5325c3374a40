"""The check path's two kernels against what they replaced.

`lp.solve_system` keeps each tableau row as a primitive integer vector
known up to a positive scale, and `oracles.solve_system_bareiss` keeps every
entry over one common denominator. Bland's rule reads only signs and ratios
within a row, so both take the same pivots and return equal outcomes,
certificate values included. `solve_system` solves each distinct (row, rhs)
pair once, which must change nothing either. `_effective_system` and
`relations` take every primitive relation from `primitive_relations`, which
locates them all through one table of `fan._cone_inverses` and must give
`primitive_relation`.
"""

import pytest

from conftest import CATALOG_GRID, blowup_rungs
from oracles import solve_system_bareiss
from toricfans import (
    build,
    contract_ray,
    is_smooth,
    primitive_collections,
    primitive_relation,
    primitive_relations,
    projectivity,
    validate_fan,
)
from toricfans.errors import NotCompleteError, NotSmoothError

CHAINS = [("W7_5", ()), ("Z2", (1,))]


def _chain(fid, params):
    """The rungs of 9 to 50 rays of the seeded blow-up chain."""
    return [fan for fan in blowup_rungs(fid, params, 50) if len(fan.rays) >= 9]


def _solved_systems(monkeypatch, fans, check_path_only):
    """``(rows, rhs, outcome)`` for each system `projectivity` hands to
    `solve_system` on ``fans``, with the outcome it returned. Every fan
    gets the ample, the nef and, when smooth, the effective-ample system;
    with ``check_path_only`` a projective fan gets only the ample one, as in
    `check --certificate --nef`."""
    solved = []
    solve = projectivity.solve_system

    def record(rows, rhs):
        outcome = solve(rows, rhs)
        solved.append((rows, rhs, outcome))
        return outcome

    monkeypatch.setattr(projectivity, "solve_system", record)
    for fan in fans:
        projective, _ = projectivity.is_projective(fan)
        if check_path_only and projective:
            continue
        projectivity.nontrivial_nef_exists(fan)
        if is_smooth(fan):
            projectivity.effective_ample_obstruction(fan)
    return solved


def test_grid_systems_match_the_common_denominator_kernel(monkeypatch):
    fans = [build(fid, params) for fid, params in CATALOG_GRID]
    solved = _solved_systems(monkeypatch, fans, check_path_only=False)
    assert len(solved) > 2 * len(fans)
    repeats = 0
    for rows, rhs, outcome in solved:
        assert outcome == solve_system_bareiss(rows, rhs)
        repeats += len(set(zip(rows, rhs))) < len(rows)
    assert repeats > 100  # the distinct-row solve drops rows on many systems


@pytest.mark.parametrize("fid, params", CHAINS, ids=["W7_5", "Z2(1)"])
def test_chain_systems_match_the_common_denominator_kernel(monkeypatch, fid, params):
    # the systems `check --certificate --nef` solves on each rung of 9 to 50
    # rays: the distinct-row solve of the new kernel against the full solve
    # of the old one, so the printed certificates cannot change
    solved = _solved_systems(monkeypatch, _chain(fid, params), check_path_only=True)
    assert len(solved) >= 42
    for rows, rhs, outcome in solved:
        assert outcome == solve_system_bareiss(rows, rhs)


def test_relations_from_the_cone_table_equal_primitive_relation():
    fans = [build(fid, params) for fid, params in CATALOG_GRID]
    fans = [fan for fan in fans if is_smooth(fan)]
    fans += [fan for chain in CHAINS for fan in _chain(*chain) if len(fan.rays) <= 30]
    count = 0
    for fan in fans:
        relations = primitive_relations(fan)
        collections = primitive_collections(fan)
        assert len(relations) == len(collections)
        for rel, col in zip(relations, collections):
            assert rel == primitive_relation(fan, col)
            count += 1
    assert count > 10_000


@pytest.mark.parametrize("fid, params", CHAINS, ids=["W7_5", "Z2(1)"])
def test_relations_from_the_cone_table_hold_up_to_50_rays(fid, params):
    # past 30 rays each relation is checked directly: its ray sum equals its
    # positive combination of target rays, and the targets span a cone of
    # the fan, so they are the face whose relative interior holds the sum
    for fan in _chain(fid, params):
        relations = primitive_relations(fan)
        collections = primitive_collections(fan)
        assert len(relations) == len(collections)
        for rel, col in zip(relations, collections):
            assert rel.collection == col
            assert all(c > 0 for c in rel.coefficients)
            assert not rel.target_rays or rel.target_rays in fan.faces
            lhs = [sum(fan.rays[i][k] for i in col) for k in range(3)]
            rhs = [
                sum(c * fan.rays[i][k] for i, c in zip(rel.target_rays, rel.coefficients))
                for k in range(3)
            ]
            assert lhs == rhs


@pytest.mark.parametrize("third", [(0, 0, 1), (1, 1, 2)], ids=["smooth", "singular"])
def test_a_fan_without_collections_has_no_relations(third):
    fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), third], [(0, 1, 2)])
    assert primitive_collections(fan) == ()
    assert primitive_relations(fan) == ()


def test_primitive_relations_need_a_smooth_fan():
    # the effective-ample test and its check read their rows from
    # `primitive_relations`, so they raise its error
    fan = contract_ray(build("Z2", (0,)), 1)
    for call in (
        primitive_relations,
        projectivity.effective_ample_obstruction,
        lambda f: projectivity.verify_obstruction(f, projectivity.ObstructionWitness({}, {})),
    ):
        with pytest.raises(NotSmoothError, match="^primitive relations need integer coefficients"):
            call(fan)


def test_primitive_relations_need_every_ray_sum_in_the_fan():
    fan = validate_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3)]
    )
    with pytest.raises(NotCompleteError, match=r"^the ray sum \(-1, -1, 0\) lies in no cone"):
        primitive_relations(fan)
