import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CATALOG_GRID,
    P3_CONES,
    P3_RAYS,
    blowup_chain,
    ray_index,
    random_unimodular,
)
from toricfans import (
    build,
    canonical_key,
    change_basis,
    contract_ray,
    enumerate_smooth_complete_fans,
    find_wall,
    is_complete,
    is_smooth,
    picard_number,
    primitive_collections,
    primitive_relation,
    rational,
    star_subdivide,
    validate_fan,
    wall_circuit,
    walls,
)
from toricfans.errors import (
    ArityMismatchError,
    ConeSizeError,
    DegenerateRaysError,
    DependentConeError,
    DuplicateConeError,
    DuplicateRayError,
    FanValidationError,
    NonPrimitiveRayError,
    NotCompleteError,
    NotSmoothError,
    NotInSupportError,
    OverlapError,
    RayExistsError,
    UnmatchedWallError,
    UnsupportedStarPatternError,
    UnusedRayError,
)
from toricfans.fan import _in_open_2cone, _properly_glued, interiors_overlap
from toricfans.lp import FeasiblePoint, feasible_by_basis_enumeration, solve_system


class TestValidation:
    def test_projective_space_fan(self, p3):
        assert p3.dim == 3
        assert len(p3.max_cones) == 4
        assert p3.max_cones == tuple(sorted(tuple(sorted(c)) for c in P3_CONES))

    def test_w75_fan(self):
        w = build("W7_5")
        assert len(w.rays) == 7
        assert len(w.max_cones) == 10

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRayError):
            validate_fan(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
        with pytest.raises(NonPrimitiveRayError):
            validate_fan(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])

    def test_duplicate_ray(self):
        with pytest.raises(DuplicateRayError):
            validate_fan(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])

    def test_dependent_cone(self):
        with pytest.raises(DependentConeError):
            validate_fan(
                3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2)]
            )

    def test_cone_size(self):
        with pytest.raises(ConeSizeError):
            validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1)])
        with pytest.raises(ConeSizeError):
            validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 1)])

    def test_unused_ray(self):
        with pytest.raises(UnusedRayError):
            validate_fan(
                3,
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                [(0, 1, 2)],
            )

    def test_duplicate_cone(self):
        with pytest.raises(DuplicateConeError):
            validate_fan(
                3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (2, 1, 0)]
            )

    def test_overlap_reported_with_pair(self):
        # adding the cone (v1, v2, v4) to W makes it run through the
        # interiors of the neighbors of (v1, v2, v3)
        w = build("W7_5")
        cones = list(w.max_cones) + [(0, 1, 3)]
        with pytest.raises(OverlapError) as err:
            validate_fan(3, w.rays, cones)
        assert (0, 1, 3) in (err.value.cone_a, err.value.cone_b)

    def test_the_two_added_cones_alone_are_fine(self):
        # (v1, v2, v3) and (v1, v2, v4) themselves glue properly along (v1, v2)
        w = build("W7_5")
        rays = [w.rays[i] for i in (0, 1, 2, 3)]
        fan = validate_fan(3, rays, [(0, 1, 2), (0, 1, 3)])
        assert not is_complete(fan)

    def test_interiors_overlap(self):
        w = build("W7_5")
        assert interiors_overlap(w.rays, (0, 1, 3), (0, 1, 6))
        assert not interiors_overlap(w.rays, (0, 1, 2), (0, 1, 3))

    def test_interiors_overlap_rejects_degenerate_cones(self):
        rays = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        for pair in [((0, 1, 2), (0, 1, 3)), ((0, 1, 3), (0, 1, 2))]:
            with pytest.raises(ValueError):
                interiors_overlap(rays, *pair)

    @pytest.mark.parametrize("dim", [2, 4, 0, "3", 3.0, True, None])
    def test_dimension_must_be_three(self, dim):
        with pytest.raises(FanValidationError, match="dimension must be 3"):
            validate_fan(dim, P3_RAYS, P3_CONES)

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: star_subdivide(build("W7_5"), [1.9, True, 1]), FanValidationError),
            (lambda: star_subdivide(build("W7_5"), (1, 1, "1")), FanValidationError),
            (
                lambda: enumerate_smooth_complete_fans(
                    [[1.5, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
                ),
                DegenerateRaysError,
            ),
            (lambda: enumerate_smooth_complete_fans(iter(P3_RAYS)), DegenerateRaysError),
            (lambda: find_wall(build("Z13pp", (2, 7, 4, 2)), (0.5, 3)), FanValidationError),
            (lambda: build("Z2", (1.9,)), ArityMismatchError),
            (lambda: build("Z2", ("1",)), ArityMismatchError),
            (lambda: build("Z2", (True,)), ArityMismatchError),
            (lambda: primitive_relation(build("W7_5"), ("1", 5)), FanValidationError),
            (lambda: primitive_relation(build("W7_5"), (1.0, 5)), FanValidationError),
        ],
        ids=[
            "subdivide-float-bool", "subdivide-str", "enumerate-float", "enumerate-iterator",
            "find_wall-float", "build-float", "build-str", "build-bool",
            "relation-str", "relation-float",
        ],
    )
    def test_library_inputs_are_rejected_not_converted(self, call, error):
        with pytest.raises(error):
            call()


# Independent oracles for the two cone predicates: the Fourier-Motzkin
# formulations they replaced, decided by the certified solver and by
# basic-solution enumeration, which must agree.


def _glued_rows(rays, cone_a, cone_b):
    # h @ shared == 0, h @ a >= 1, -h @ b >= 1
    shared = sorted(set(cone_a) & set(cone_b))
    rows = []
    for i in shared:
        rows += [rays[i], tuple(-x for x in rays[i])]
    rows += [rays[i] for i in cone_a if i not in shared]
    rows += [tuple(-x for x in rays[i]) for i in cone_b if i not in shared]
    rhs = [0] * (2 * len(shared)) + [1] * (len(rows) - 2 * len(shared))
    return rows, rhs


def _overlap_rows(rays, cone_a, cone_b):
    # x = sum(l_k * a_k) with l >= 1 and its coordinates in cone_b >= 1
    coords = [rational.solve_columns([rays[i] for i in cone_b], rays[i]) for i in cone_a]
    rows = [tuple(1 if k == j else 0 for k in range(3)) for j in range(3)]
    rows += [rational.integerize([coords[k][j] for k in range(3)]) for j in range(3)]
    return rows, [1] * len(rows)


def _both_oracles(rows, rhs):
    certified = isinstance(solve_system(rows, rhs), FeasiblePoint)
    assert feasible_by_basis_enumeration(rows, rhs) == certified
    return certified


def _oracle_verdicts(rays, cone_a, cone_b, decide=_both_oracles):
    return (
        decide(*_glued_rows(rays, cone_a, cone_b)),
        decide(*_overlap_rows(rays, cone_a, cone_b)),
    )


def _check_against_oracle(rays, cone_a, cone_b, verdicts):
    glued, overlap = verdicts
    assert _properly_glued(rays, cone_a, cone_b) == glued
    assert interiors_overlap(rays, cone_a, cone_b) == overlap
    return overlap


_coordinate = st.integers(-3, 3)
_vector = st.tuples(_coordinate, _coordinate, _coordinate)


@st.composite
def _cone_pairs(draw):
    shared = draw(st.integers(0, 2))
    rays = draw(st.lists(_vector, min_size=6 - shared, max_size=6 - shared))
    cone_a = (0, 1, 2)
    cone_b = tuple(range(3 - shared, 6 - shared))
    for cone in (cone_a, cone_b):
        if rational.determinant([rays[i] for i in cone]) == 0:
            # redraw instead of rejecting: keeps degenerate draws from
            # exhausting the health checks
            rays[cone[-1]] = draw(_vector.filter(lambda v: v != (0, 0, 0)))
    return rays, cone_a, cone_b


@settings(max_examples=400, deadline=None)
@given(_cone_pairs())
def test_cone_predicates_match_lp_oracles(pair):
    rays, cone_a, cone_b = pair
    assume(all(rational.determinant([rays[i] for i in c]) for c in (cone_a, cone_b)))
    for x, y in [(cone_a, cone_b), (cone_b, cone_a)]:
        _check_against_oracle(rays, x, y, _oracle_verdicts(rays, x, y))


def test_cone_predicates_match_lp_oracle_on_catalog_grid():
    # Every pair of maximal cones, plus each wall's side cones against the
    # two cones that exchanging the wall would put in their place. The
    # certified solver decides alone here, once per distinct pair of ray
    # triples: the grid's families share most of their cones.
    cache = {}

    def check(rays, cone_a, cone_b):
        key = tuple(rays[i] for i in cone_a + cone_b)
        if key not in cache:
            cache[key] = _oracle_verdicts(
                rays, cone_a, cone_b,
                lambda rows, rhs: isinstance(solve_system(rows, rhs), FeasiblePoint),
            )
        return _check_against_oracle(rays, cone_a, cone_b, cache[key])

    pairs = 0
    overlaps = 0
    for fid, params in CATALOG_GRID:
        fan = build(fid, params)
        for cone_a, cone_b in itertools.combinations(fan.max_cones, 2):
            assert not check(fan.rays, cone_a, cone_b)
            pairs += 1
        for wall in walls(fan):
            c, d = wall.off_rays
            for keep in wall.rays:
                swapped = tuple(sorted((c, d, keep)))
                if rational.determinant([fan.rays[i] for i in swapped]) == 0:
                    continue
                for side in wall.side_cones:
                    overlaps += check(fan.rays, side, swapped)
                    pairs += 1
    assert 0 < overlaps < pairs


class TestPredicates:
    def test_smooth(self, p3):
        assert is_smooth(p3)
        assert is_smooth(build("W7_5"))
        singular = validate_fan(
            3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)]
        )
        assert not is_smooth(singular)

    def test_complete(self, p3):
        assert is_complete(p3)
        w = build("W7_5")
        assert is_complete(w)
        punctured = validate_fan(
            3, w.rays, [c for c in w.max_cones if c != (3, 5, 6)]
        )
        assert not is_complete(punctured)

    def test_walls_counts(self, p3):
        assert len(walls(p3)) == 6
        assert len(walls(build("W7_5"))) == 15
        assert len(walls(build("Z12"))) == 18

    def test_unmatched_walls(self):
        w = build("W7_5")
        punctured = validate_fan(
            3, w.rays, [c for c in w.max_cones if c != (3, 5, 6)]
        )
        with pytest.raises(UnmatchedWallError) as err:
            walls(punctured)
        assert err.value.faces == ((3, 5), (3, 6), (5, 6))

    def test_picard_number(self, p3):
        assert picard_number(p3) == 1
        assert picard_number(build("W7_5")) == 4
        assert picard_number(build("Z13pp", (2, 7, 4, 2))) == 5
        incomplete = validate_fan(3, P3_RAYS[:3], [(0, 1, 2)])
        with pytest.raises(NotCompleteError):
            picard_number(incomplete)

    def test_euler_relation_on_catalog(self):
        from conftest import CATALOG_INSTANCES

        for fid, params in CATALOG_INSTANCES:
            fan = build(fid, params)
            assert len(fan.max_cones) == 2 * len(fan.rays) - 4
            assert len(walls(fan)) == 3 * len(fan.max_cones) // 2

    def test_every_wall_in_exactly_two_cones(self):
        w = build("W7_5")
        for wall in walls(w):
            members = [c for c in w.max_cones if set(wall.rays) <= set(c)]
            assert len(members) == 2
            assert tuple(sorted(members)) == wall.side_cones


class TestPrimitiveCollections:
    def test_projective_space(self, p3):
        assert primitive_collections(p3) == ((0, 1, 2, 3),)

    def test_w75(self):
        collections = primitive_collections(build("W7_5"))
        # the three collections carrying the flopping curves
        for pair in [(1, 5), (2, 6), (0, 4)]:
            assert pair in collections

    def test_z13pp(self):
        collections = primitive_collections(build("Z13pp", (2, 7, 4, 2)))
        for pair in [(0, 2), (1, 5), (3, 7), (4, 6)]:
            assert pair in collections

    def test_matches_uncapped_scan(self):
        def brute_force(fan):
            n = len(fan.rays)

            def is_face(s):
                return any(s <= cs for cs in fan.cone_sets)

            return tuple(
                combo
                for size in range(2, n + 1)
                for combo in itertools.combinations(range(n), size)
                if not is_face(frozenset(combo))
                and all(is_face(frozenset(combo) - {i}) for i in combo)
            )

        fans = [build(fid, params) for fid, params in CATALOG_GRID]
        fans += [blowup_chain("W7_5", (), 15), blowup_chain("Z2", (1,), 15)]
        for fan in fans:
            assert primitive_collections(fan) == brute_force(fan)

    def test_relations_on_w75(self):
        w = build("W7_5")
        rel = primitive_relation(w, (1, 5))  # v2 + v6 = v1 + v7
        assert rel.target_rays == (0, 6)
        assert rel.coefficients == (1, 1)
        rel = primitive_relation(w, (2, 6))  # v3 + v7 = v2 + v5
        assert rel.target_rays == (1, 4)
        rel = primitive_relation(w, (0, 4))  # v1 + v5 = v3 + v6
        assert rel.target_rays == (2, 5)

    def test_relation_with_single_target_ray(self):
        z = build("Z5p", (0,))
        rel = primitive_relation(z, (0, 7))  # v1 + v8 = v4
        assert rel.target_rays == (3,)
        assert rel.coefficients == (1,)

    def test_relation_with_coefficient_two(self):
        z = build("Z13pp", (2, 7, 4, 2))
        rel = primitive_relation(z, (3, 7))  # v4 + v8 = v5 + 2 v6
        assert rel.target_rays == (4, 5)
        assert rel.coefficients == (1, 2)

    def test_fiber_type_relations(self):
        z = build("Z13pp", (2, 7, 4, 2))
        rel = primitive_relation(z, (2, 5))  # v3 + v6 = 0
        assert rel.is_fiber_type
        assert rel.target_rays == () and rel.coefficients == ()
        assert primitive_relation(z, (3, 6)).is_fiber_type  # v4 + v7 = 0
        z11 = build("Z11", (1, -2))
        assert primitive_relation(z11, (2, 4)).is_fiber_type  # v3 + v5 = 0

    def test_known_relation_tables(self):
        # the displayed relations of the catalog families, spot-checked
        def rel(fan, pair):
            r = primitive_relation(fan, pair)
            return r.target_rays, r.coefficients

        z = build("Z5p", (-1,))
        assert rel(z, (0, 7)) == ((3, 4), (1, 1))  # v1+v8 = v4+v5
        assert rel(z, (3, 5)) == ((1, 7), (1, 1))  # v4+v6 = v2+v8
        assert rel(z, (1, 4)) == ((0, 5), (1, 1))  # v2+v5 = v1+v6

        z = build("Z5pp")
        assert rel(z, (0, 7)) == ((3, 4), (1, 1))  # v1+v8 = v4+v5
        assert rel(z, (1, 3)) == ((2, 7), (1, 1))  # v2+v4 = v3+v8
        assert rel(z, (2, 4)) == ((0, 1), (1, 1))  # v3+v5 = v1+v2

        z = build("Z8")
        assert rel(z, (0, 7)) == ((3, 4), (1, 1))  # v1+v8 = v4+v5
        assert rel(z, (1, 3)) == ((0, 2), (1, 2))  # v2+v4 = v1+2v3
        assert rel(z, (2, 4)) == ((5,), (1,))      # v3+v5 = v6
        assert rel(z, (2, 5)) == ((1, 7), (1, 1))  # v3+v6 = v2+v8

        for fid, params in [("Z14p", (1,)), ("Z14pp", (2, -1))]:
            z = build(fid, params)
            assert rel(z, (1, 4)) == ((3, 5), (1, 1))  # v2+v5 = v4+v6
            assert rel(z, (2, 5)) == ((1, 7), (1, 1))  # v3+v6 = v2+v8
            assert rel(z, (3, 7)) == ((2, 4), (1, 1))  # v4+v8 = v3+v5

        z = build("Z13pp", (1, 2, 1, 3))  # b > 0
        assert rel(z, (0, 2)) == ((1, 6), (1, 2))  # v1+v3 = v2+b v7
        assert rel(z, (1, 5)) == ((0, 3), (1, 2))  # v2+v6 = v1+b v4
        z = build("Z13pp", (1, -2, 1, 3))  # b < 0
        assert rel(z, (0, 2)) == ((1, 3), (1, 2))  # v1+v3 = v2+(-b) v4
        assert rel(z, (1, 5)) == ((0, 6), (1, 2))  # v2+v6 = v1+(-b) v7
        z = build("Z13pp", (3, 1, 1, 2))  # a > c
        assert rel(z, (3, 7)) == ((2, 4), (2, 1))  # v4+v8 = v5+(a-c) v3
        assert rel(z, (4, 6)) == ((5, 7), (2, 1))  # v5+v7 = v8+(a-c) v6

        z = build("Z13p", (2, 3))  # a > 0, b > 0
        assert rel(z, (1, 7)) == ((2, 6), (1, 2))  # v2+v8 = v3+a v7
        assert rel(z, (2, 5)) == ((4, 7), (2, 1))  # v3+v6 = a v5+v8
        assert rel(z, (0, 4)) == ((3, 5), (1, 3))  # v1+v5 = v4+b v6
        assert rel(z, (3, 6)) == ((0, 1), (1, 3))  # v4+v7 = v1+b v2

    def test_sum_outside_incomplete_fan(self):
        fan = validate_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [(0, 1, 2), (1, 2, 3)],
        )
        assert is_smooth(fan) and not is_complete(fan)
        with pytest.raises(NotCompleteError):
            primitive_relation(fan, (0, 3))  # e1 + v4 lies in no cone

    def test_not_a_collection(self, p3):
        with pytest.raises(ValueError):
            primitive_relation(p3, (0, 1))

    def test_needs_smooth(self):
        z2 = build("Z2", (0,))
        y1 = contract_ray(z2, 1)
        assert not is_smooth(y1)
        cols = primitive_collections(y1)
        with pytest.raises(NotSmoothError):
            primitive_relation(y1, cols[0])


class TestStarSubdivision:
    def test_point_blowup_of_simplex_cone(self, p3):
        out = star_subdivide(p3, (1, 1, 1))
        assert len(out.max_cones) == 6
        assert len(out.rays) == 5
        assert is_smooth(out) and is_complete(out)

    def test_wall_blowup_splits_two_cones_into_four(self, p3):
        out = star_subdivide(p3, (1, 1, 0))
        assert len(out.max_cones) == 6
        new = len(out.rays) - 1
        assert sum(new in c for c in out.max_cones) == 4

    def test_existing_ray_rejected(self, p3):
        with pytest.raises(RayExistsError):
            star_subdivide(p3, (1, 0, 0))

    def test_non_primitive_rejected(self, p3):
        with pytest.raises(NonPrimitiveRayError):
            star_subdivide(p3, (2, 2, 2))

    def test_outside_support_rejected(self):
        fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
        with pytest.raises(NotInSupportError):
            star_subdivide(fan, (-1, -1, -1))


class TestContraction:
    def test_undoes_point_blowup(self, p3):
        blown = star_subdivide(p3, (1, 1, 1))
        back = contract_ray(blown, 4)
        assert canonical_key(back) == canonical_key(p3)

    def test_pattern_p2(self):
        # v4 = v1 + v8 sits inside a wall; its link is a 4-cycle
        z = build("Z5p", (0,))
        out = contract_ray(z, ray_index(z, (0, -1, 0)))
        assert picard_number(out) == 4
        assert is_smooth(out)
        assert canonical_key(out) != canonical_key(build("W7_5"))
        assert canonical_key(star_subdivide(out, (0, -1, 0))) == canonical_key(z)

    def test_pattern_p1_with_singular_target(self):
        # contracting v3 = (v1 + 2 v4 + v8)/3 in Y1 gives a simplicial,
        # non-smooth fan
        z2 = build("Z2", (1,))
        y1 = contract_ray(z2, ray_index(z2, (0, -2, -1)))
        y2 = contract_ray(y1, ray_index(y1, (0, -1, 0)))
        assert not is_smooth(y2)
        assert picard_number(y2) == 3

    def test_unsupported_star(self, p3):
        with pytest.raises(UnsupportedStarPatternError):
            contract_ray(p3, 0)


class TestCanonicalKey:
    def test_relabeling_invariance(self, p3):
        reversed_fan = validate_fan(
            3,
            list(reversed(p3.rays)),
            [tuple(3 - i for i in cone) for cone in p3.max_cones],
        )
        assert canonical_key(reversed_fan) == canonical_key(p3)

    def test_flop_changes_key(self):
        from toricfans import flopping_walls, perform_surgery

        w = build("W7_5")
        flopped, _ = perform_surgery(w, flopping_walls(w)[0])
        assert canonical_key(flopped) != canonical_key(w)

    def test_parameters_change_key(self):
        a = build("Z13pp", (2, 7, 4, 2))
        b = build("Z13pp", (2, 7, 4, 3))
        assert canonical_key(a) != canonical_key(b)


class TestChangeOfBasis:
    def test_predicates_invariant_under_unimodular_maps(self):
        rng = random.Random(2024)
        w = build("W7_5")
        z = build("Z13pp", (2, 7, 4, 2))
        for fan in (w, z):
            for _ in range(5):
                m = random_unimodular(rng)
                moved = change_basis(fan, m)
                assert is_smooth(moved) == is_smooth(fan)
                assert is_complete(moved) == is_complete(fan)
                assert picard_number(moved) == picard_number(fan)
                assert primitive_collections(moved) == primitive_collections(fan)


def _circuit_by_solve(fan, wall):
    # the general route: coordinates of the second off ray in the basis
    # (wall rays, first off ray), made a primitive integer vector
    basis = [fan.rays[i] for i in wall.rays] + [fan.rays[wall.off_rays[0]]]
    coords = rational.solve_columns(basis, fan.rays[wall.off_rays[1]])
    lam = {i: -c for i, c in zip(wall.rays + wall.off_rays[:1], coords)}
    lam[wall.off_rays[1]] = 1
    return rational.integerize([lam.get(i, 0) for i in range(len(fan.rays))])


def test_wall_circuit_against_solve_and_direct_evaluation():
    fans = [build(fid, params) for fid, params in CATALOG_GRID]
    fans += [blowup_chain("W7_5", (), 15), blowup_chain("Z2", (1,), 15)]
    # images under a determinant-2 map whose rays stay primitive: their rays
    # span an index-2 sublattice, so every 3x3 minor is even before the gcd
    m = [(1, 1, 0), (1, -1, 0), (0, 0, 1)]
    fans += [
        change_basis(fan, m)
        for fan in fans
        if all(rational.is_primitive(rational.mat_vec(m, v)) for v in fan.rays)
    ]
    for fan in fans:
        for wall in walls(fan):
            lam = wall_circuit(fan, wall)
            assert lam == _circuit_by_solve(fan, wall)
            involved = wall.rays + wall.off_rays
            assert all(
                sum(x * v[k] for x, v in zip(lam, fan.rays)) == 0 for k in range(3)
            )
            assert math.gcd(*lam) == 1
            assert all(lam[i] > 0 for i in wall.off_rays)
            assert all(x == 0 for i, x in enumerate(lam) if i not in involved)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=9, max_size=9),
    st.sampled_from(["free", "coplanar", "dependent"]),
)
def test_in_open_2cone_matches_fraction_solve(coords, shape):
    a, b, r = (tuple(coords[k : k + 3]) for k in (0, 3, 6))
    if shape == "coplanar":
        r = tuple(coords[6] * x + coords[7] * y for x, y in zip(a, b))
    elif shape == "dependent":
        b = tuple(coords[3] * x for x in a)
    # s a + t b = r in exact fractions: a 2x2 system in two independent
    # coordinate rows, then the third row as a consistency check; dependent
    # a, b (all 2x2 minors zero) never qualify
    want = False
    for i, j in itertools.combinations(range(3), 2):
        det = a[i] * b[j] - a[j] * b[i]
        if det:
            s = Fraction(r[i] * b[j] - r[j] * b[i], det)
            t = Fraction(a[i] * r[j] - a[j] * r[i], det)
            want = all(s * a[k] + t * b[k] == r[k] for k in range(3)) and s > 0 and t > 0
            break
    assert _in_open_2cone(r, a, b) == want
