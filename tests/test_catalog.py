import pytest

import collections

from conftest import CATALOG_GRID, CATALOG_INSTANCES, ray_index
from toricfans import (
    build,
    canonical_key,
    change_basis,
    contract_ray,
    expected_projectivity,
    family_ids,
    find_wall,
    is_complete,
    is_projective,
    is_smooth,
    perform_surgery,
    picard_number,
    star_subdivide,
    validate_fan,
)
from toricfans.errors import ArityMismatchError, UnknownFamilyError, UnsupportedStarPatternError


def test_family_ids():
    assert family_ids() == (
        "W7_5", "Z2", "Z5p", "Z5pp", "Z8", "Z10", "Z11", "Z12",
        "Z13p", "Z13pp", "Z14p", "Z14pp",
    )


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        build("Z99")
    with pytest.raises(UnknownFamilyError):
        expected_projectivity("Z99")


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        build("Z2")
    with pytest.raises(ArityMismatchError):
        build("W7_5", (1,))
    with pytest.raises(ArityMismatchError):
        expected_projectivity("Z13pp", (1, 2))


@pytest.mark.parametrize("fid,params", CATALOG_INSTANCES)
def test_builders_produce_smooth_complete_fans(fid, params):
    fan = build(fid, params)
    assert is_smooth(fan)
    assert is_complete(fan)
    assert picard_number(fan) == (4 if fid == "W7_5" else 5)
    assert len(fan.max_cones) == 2 * len(fan.rays) - 4


def _has_smooth_blow_down(fan):
    for i in range(len(fan.rays)):
        try:
            if is_smooth(contract_ray(fan, i)):
                return True
        except UnsupportedStarPatternError:
            pass
    return False


def test_grid_fans_with_a_smooth_blow_down():
    # the families are minimal only for some parameter values; the grid
    # fans of the others contract a ray to a smooth fan
    found = [(fid, p) for fid, p in CATALOG_GRID if _has_smooth_blow_down(build(fid, p))]
    counts = collections.Counter(fid for fid, _ in found)
    assert counts == {"Z13pp": 112, "Z13p": 9, "Z11": 5, "Z2": 2, "Z5p": 2, "Z14p": 2}
    # the values the catalog docstring names
    assert [params for fid, params in found if fid == "Z5p"] == [(-1,), (0,)]
    assert [params for fid, params in found if fid == "Z11"] == [(a, a) for a in range(-2, 3)]


def test_parameter_instantiation():
    z = build("Z13pp", (2, 7, 4, 2))
    assert (-1, 2, 2) in z.rays  # v5 = (-1, a, d)
    assert (-1, 4, 3) in z.rays  # v8 = (-1, c, d+1)
    assert (0, 1, 0) in build("Z2", (0,)).rays  # v5 = (0, 1, a)


def test_expected_projectivity_spot_values():
    assert not expected_projectivity("W7_5")
    assert expected_projectivity("Z5p", (0,))
    assert not expected_projectivity("Z5p", (-1,))
    assert expected_projectivity("Z10")
    assert not expected_projectivity("Z13pp", (2, 7, 4, 2))
    assert expected_projectivity("Z13pp", (2, 0, 4, 2))
    assert expected_projectivity("Z13pp", (3, 5, 3, 2))
    assert expected_projectivity("Z13p", (0, 5))
    assert not expected_projectivity("Z13p", (1, 1))


@pytest.mark.parametrize("a,b", [(1, 1), (2, -1), (-2, 2), (0, 1), (1, 0)])
def test_z13p_flop_is_sheared_z13pp(a, b):
    zp = build("Z13p", (a, b))
    flopped, _ = perform_surgery(zp, find_wall(zp, (2, 3)))
    sheared = change_basis(flopped, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    assert canonical_key(sheared) == canonical_key(build("Z13pp", (-1, a, b - 1, -1)))


def _contract_at(fan, vector):
    return contract_ray(fan, ray_index(fan, vector))


class TestContractionChains:
    """Replay the blow-down chains that certify projectivity family by family."""

    def test_z2_chain_to_picard_two(self):
        for a in (-2, 0, 3):
            z = build("Z2", (a,))
            y1 = _contract_at(z, (0, -2, -1))   # v2
            y2 = _contract_at(y1, (0, -1, 0))   # v3
            y3 = _contract_at(y2, (0, -1, -1))  # v7
            assert [picard_number(f) for f in (z, y1, y2, y3)] == [5, 4, 3, 2]
            assert canonical_key(star_subdivide(y1, (0, -2, -1))) == canonical_key(z)

    def test_z10_chain(self):
        z = build("Z10")
        y1 = _contract_at(z, (0, -1, -2))   # v3
        y2 = _contract_at(y1, (0, 0, -1))   # v4
        y3 = _contract_at(y2, (1, 0, -1))   # v6
        assert picard_number(y3) == 2

    def test_z11_chain(self):
        z = build("Z11", (-1, 2))
        y1 = _contract_at(z, (0, -1, 0))    # v2
        y2 = _contract_at(y1, (0, -1, -1))  # v6
        assert picard_number(y2) == 3

    @pytest.mark.parametrize(
        "fid,params,flop,first,second",
        [
            ("Z5p", (2,), (0, 5), (-1, 1, -1), (-1, 0, -1)),    # v6 then v7
            ("Z5pp", (), (3, 4), (-1, 0, -1), (-1, -2, -2)),    # v5 then v6
            ("Z8", (), (3, 4), (-1, -2, -1), (-1, -2, -2)),     # v4 then v7
            ("Z12", (), (1, 3), (0, -1, -1), (-1, -1, -1)),     # v4 then v7
            ("Z14p", (-1,), (1, 7), (0, 1, 1), (1, 0, 0)),      # v8 then v2
            ("Z14pp", (1, -2), (2, 4), (1, 0, 1), (1, 1, 0)),   # v5 then v6
        ],
    )
    def test_flop_then_two_contractions(self, fid, params, flop, first, second):
        fan = build(fid, params)
        flopped, step = perform_surgery(fan, find_wall(fan, flop))
        assert is_smooth(flopped)
        y1 = _contract_at(flopped, first)
        y2 = _contract_at(y1, second)
        assert picard_number(y2) == 3
        assert is_smooth(y2)
        assert is_projective(flopped)[0]
        assert is_projective(y1)[0] and is_projective(y2)[0]


def test_z5pp_alternate_flop_blows_down_to_w75():
    # flopping the other small curve of Z5pp (across v2 + v5 = v1 + v6) and
    # contracting v6 = v2 + v7 lands on W7_5 after swapping x and z
    z = build("Z5pp")
    flopped, _ = perform_surgery(z, find_wall(z, (0, 5)))
    assert not is_projective(flopped)[0]
    w_prime = contract_ray(flopped, ray_index(flopped, (-1, -2, -2)))
    swapped = change_basis(w_prime, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert canonical_key(swapped) == canonical_key(build("W7_5"))


def test_z5p_curve_blowup_splits_two_cones_into_four():
    # in the flopped model, v6 = v2 + v7 lies on the wall (v2, v7); blowing
    # it back up splits the two cones through that wall into four
    z = build("Z5p", (0,))
    flopped, _ = perform_surgery(z, find_wall(z, (0, 5)))
    y1 = contract_ray(flopped, ray_index(flopped, (-1, 1, -1)))
    wall_members = [c for c in y1.max_cones
                    if {ray_index(y1, (0, 1, 0)), ray_index(y1, (-1, 0, -1))} <= set(c)]
    assert len(wall_members) == 2
    back = star_subdivide(y1, (-1, 1, -1))
    assert canonical_key(back) == canonical_key(flopped)
    new = ray_index(back, (-1, 1, -1))
    assert sum(new in c for c in back.max_cones) == 4


def test_w75_is_the_example_fan():
    # rebuilt by hand from the 1-based cone listing
    explicit = validate_fan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
         (-1, -1, 0), (0, -1, -1), (-1, 0, -1)],
        [tuple(i - 1 for i in c) for c in
         [(1, 2, 3), (1, 2, 7), (1, 3, 6), (1, 6, 7), (2, 3, 5),
          (2, 5, 7), (3, 5, 6), (4, 5, 6), (4, 5, 7), (4, 6, 7)]],
    )
    assert canonical_key(explicit) == canonical_key(build("W7_5"))
