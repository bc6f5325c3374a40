import itertools

import pytest

from conftest import P3_CONES, P3_RAYS
from toricfans import (
    build,
    canonical_key,
    enumerate_smooth_complete_fans,
    flopping_walls,
    is_complete,
    is_smooth,
    perform_surgery,
    unique_fan_condition,
    validate_fan,
)
from toricfans.errors import DegenerateRaysError, FanValidationError
from toricfans import rational


def naive_smooth_complete_fans(rays):
    """Unpruned oracle: try every candidate subset of the right size.

    Any complete simplicial 3-fan has exactly 2#rays - 4 maximal cones
    (Euler count on the induced sphere triangulation), so only subsets of
    that size are tried; each survivor is validated from scratch.
    """
    rays = [tuple(v) for v in rays]
    n = len(rays)
    candidates = [
        t
        for t in itertools.combinations(range(n), 3)
        if abs(rational.determinant([rays[i] for i in t])) == 1
    ]
    out = {}
    for subset in itertools.combinations(candidates, 2 * n - 4):
        if {i for c in subset for i in c} != set(range(n)):
            continue
        faces = {}
        for cone in subset:
            for f in itertools.combinations(cone, 2):
                faces[f] = faces.get(f, 0) + 1
        if any(v != 2 for v in faces.values()):
            continue
        try:
            fan = validate_fan(3, rays, subset)
        except FanValidationError:
            continue
        if is_complete(fan) and is_smooth(fan):
            out[canonical_key(fan)] = fan
    return out


class TestExamples:
    def test_projective_space_rays(self):
        report = enumerate_smooth_complete_fans(P3_RAYS)
        assert len(report.fans) == 1
        assert canonical_key(report.fans[0]) == canonical_key(
            validate_fan(3, P3_RAYS, P3_CONES)
        )

    def test_z13pp_2742_unique(self):
        z = build("Z13pp", (2, 7, 4, 2))
        report = enumerate_smooth_complete_fans(z.rays)
        assert len(report.fans) == 1
        assert canonical_key(report.fans[0]) == canonical_key(z)
        assert report.candidate_cone_count > 12
        assert report.search_nodes > 0

    def test_z13pp_2357_unique(self):
        z = build("Z13pp", (2, 3, 5, 7))
        report = enumerate_smooth_complete_fans(z.rays)
        assert len(report.fans) == 1
        assert canonical_key(report.fans[0]) == canonical_key(z)

    def test_outputs_are_smooth_complete_and_use_all_rays(self):
        w = build("W7_5")
        report = enumerate_smooth_complete_fans(w.rays)
        assert len(report.fans) == 8
        for fan in report.fans:
            assert fan.rays == w.rays
            assert is_smooth(fan) and is_complete(fan)
            assert {i for c in fan.max_cones for i in c} == set(range(7))

    def test_w75_output_closed_under_flops(self):
        report = enumerate_smooth_complete_fans(build("W7_5").rays)
        keys = {canonical_key(f) for f in report.fans}
        for fan in report.fans:
            for wall in flopping_walls(fan):
                out, _ = perform_surgery(fan, wall)
                assert canonical_key(out) in keys


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "rays",
        [
            P3_RAYS,
            # octahedron: the six signed unit vectors
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
            # projective space plus an interior blow-up ray
            P3_RAYS + [(1, 1, 1)],
            # plus a wall blow-up ray
            P3_RAYS + [(1, 1, 0), (0, 1, 1)],
        ],
    )
    def test_matches_naive_subset_scan(self, rays):
        report = enumerate_smooth_complete_fans(rays)
        expected = naive_smooth_complete_fans(rays)
        assert {canonical_key(f) for f in report.fans} == set(expected)

    def test_octahedron_count(self):
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        assert len(enumerate_smooth_complete_fans(rays).fans) == 1


class TestUniqueFanCondition:
    def test_known_values(self):
        assert unique_fan_condition(2, 7, 4, 2)
        assert not unique_fan_condition(2, 3, 5, 7)  # b too small
        assert not unique_fan_condition(0, 100, 5, 5)  # a excluded
        assert not unique_fan_condition(2, 7, 3, 2)  # needs c > a + 1
        assert not unique_fan_condition(2, 7, 4, -1)  # d excluded

    @pytest.mark.parametrize(
        "params", [(2, 7, 4, 2), (2, 9, 4, 2), (-4, 23, 2, 3), (3, 10, 5, 2)]
    )
    def test_condition_implies_unique_enumeration(self, params):
        assert unique_fan_condition(*params)
        z = build("Z13pp", params)
        report = enumerate_smooth_complete_fans(z.rays)
        assert len(report.fans) == 1
        assert canonical_key(report.fans[0]) == canonical_key(z)


class TestInputValidation:
    def test_degenerate_rays(self):
        with pytest.raises(DegenerateRaysError):
            enumerate_smooth_complete_fans([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        with pytest.raises(DegenerateRaysError):
            enumerate_smooth_complete_fans(
                [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0), (0, -1, 0)]
            )
        with pytest.raises(DegenerateRaysError):
            enumerate_smooth_complete_fans([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(DegenerateRaysError):
            enumerate_smooth_complete_fans([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
