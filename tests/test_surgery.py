import pytest

from conftest import CATALOG_INSTANCES
from toricfans import (
    build,
    canonical_key,
    classify_wall,
    find_wall,
    flopping_walls,
    is_projective,
    is_smooth,
    perform_surgery,
    star_subdivide,
    wall_circuit,
    walls,
)
from toricfans.errors import FanValidationError, NotModifiableWallError
from toricfans.surgery import MODIFIABLE, WallKind


class TestClassification:
    def test_w75_flop_walls(self):
        w = build("W7_5")
        flops = flopping_walls(w)
        assert [x.rays for x in flops] == [(0, 6), (1, 4), (2, 5)]
        for wall in flops:
            c = classify_wall(w, wall)
            assert c.kind is WallKind.FLOP and c.degree == 0

    def test_projective_space_not_modifiable(self, p3):
        for wall in walls(p3):
            assert classify_wall(p3, wall).kind is WallKind.NOT_MODIFIABLE
        assert flopping_walls(p3) == ()

    def test_z13pp_anti_flip_degree(self):
        z = build("Z13pp", (2, 7, 4, 2))
        c = classify_wall(z, find_wall(z, (0, 3)))
        assert c.kind is WallKind.ANTI_FLIP
        assert c.degree == -6  # 1 - b at b = 7
        assert flopping_walls(z) == ()

    def test_no_flip_on_smooth_catalog_fans(self):
        for fid, params in CATALOG_INSTANCES:
            fan = build(fid, params)
            for wall in walls(fan):
                assert classify_wall(fan, wall).kind is not WallKind.FLIP

    def test_degree_is_anticanonical_evaluation(self):
        for fid, params in [("W7_5", ()), ("Z13pp", (2, 7, 4, 2)), ("Z12", ())]:
            fan = build(fid, params)
            for wall in walls(fan):
                lam = wall_circuit(fan, wall)
                assert classify_wall(fan, wall).degree == sum(lam)


class TestSurgery:
    def test_w75_flops_are_smooth_and_projective(self):
        w = build("W7_5")
        for wall in flopping_walls(w):
            out, step = perform_surgery(w, wall)
            assert is_smooth(out)
            assert is_projective(out)[0]
            assert step.kind is WallKind.FLOP

    def test_involution(self):
        w = build("W7_5")
        for wall in flopping_walls(w):
            once, _ = perform_surgery(w, wall)
            again = find_wall(once, wall.off_rays)
            twice, _ = perform_surgery(once, again)
            assert canonical_key(twice) == canonical_key(w)

    def test_reverse_wall_has_negated_degree(self):
        z = build("Z13pp", (2, 7, 4, 2))
        wall = find_wall(z, (0, 3))
        degree = classify_wall(z, wall).degree
        out, _ = perform_surgery(z, wall)
        back = find_wall(out, wall.off_rays)
        c = classify_wall(out, back)
        assert c.degree == -degree
        assert c.kind is WallKind.FLIP  # an anti-flip reverses to a flip

    def test_rays_and_cone_count_preserved(self):
        z = build("Z12")
        wall = flopping_walls(z)[0]
        out, _ = perform_surgery(z, wall)
        assert out.rays == z.rays
        assert len(out.max_cones) == len(z.max_cones)
        changed = set(z.max_cones) ^ set(out.max_cones)
        assert len(changed) == 4  # two cones out, two in

    def test_not_modifiable_raises(self, p3):
        with pytest.raises(NotModifiableWallError):
            perform_surgery(p3, walls(p3)[0])

    def test_wall_of_another_fan_is_rejected(self):
        # modifiable walls of catalog fans applied to other fans with the
        # same ray count; without the membership check some of them gave
        # invalid fans
        fans = [build(fid, params) for fid, params in CATALOG_INSTANCES]
        foreign = 0
        for fan in fans:
            own = set(walls(fan))
            for other in fans:
                if other is fan or len(other.rays) != len(fan.rays):
                    continue
                for wall in walls(other):
                    if wall in own or classify_wall(other, wall).kind not in MODIFIABLE:
                        continue
                    with pytest.raises(FanValidationError, match="not a wall"):
                        perform_surgery(fan, wall)
                    foreign += 1
        assert foreign > 100

    def test_z12_flop_to_projective(self):
        # the exchange across the wall carrying v1 + v5 = v2 + v4
        z = build("Z12")
        wall = find_wall(z, (1, 3))
        assert classify_wall(z, wall).kind is WallKind.FLOP
        out, _ = perform_surgery(z, wall)
        assert is_projective(out)[0]
        assert (0, 2, 4) not in set(z.max_cones)
        assert (0, 3, 4) in set(out.max_cones) or (0, 4, 3) in set(out.max_cones)

    def test_flops_preserve_smoothness_across_catalog(self):
        for fid, params in CATALOG_INSTANCES:
            fan = build(fid, params)
            if not is_smooth(fan):
                continue
            for wall in flopping_walls(fan):
                out, _ = perform_surgery(fan, wall)
                assert is_smooth(out), (fid, params, wall.rays)


class TestAntiFlipChain:
    def test_both_anti_flips_enable_divisorial_contractions(self):
        # after exchanging the walls (v1,v4) and (v3,v8), both v1 and v8
        # sit inside the cone on their link and can be contracted away
        from toricfans import canonical_key, contract_ray, star_subdivide

        z = build("Z13pp", (2, 7, 4, 2))
        x1, s1 = perform_surgery(z, find_wall(z, (0, 3)))
        assert s1.kind is WallKind.ANTI_FLIP
        x2, s2 = perform_surgery(x1, find_wall(x1, (2, 7)))
        assert s2.kind is WallKind.ANTI_FLIP
        assert not is_smooth(x2)
        y = contract_ray(x2, 0)  # v1 = v2 + v6 + 7 v7
        y_rays = y.rays
        assert (-1, 4, 3) in y_rays
        y2 = contract_ray(y, y_rays.index((-1, 4, 3)))  # v8 = v5 + 2 v6 + v7
        assert len(y2.rays) == 6
        back = star_subdivide(y, (1, 1, 7))
        assert canonical_key(back) == canonical_key(x2)


class TestBlowupsOfW75:
    def test_flopping_a_surviving_wall_projectivizes(self):
        w = build("W7_5")
        flop_pairs = {x.rays for x in flopping_walls(w)}
        centers = [
            tuple(sum(w.rays[i][k] for i in wall.rays) for k in range(3))
            for wall in walls(w)
        ] + [
            tuple(sum(w.rays[i][k] for i in cone) for k in range(3))
            for cone in w.max_cones
        ]
        tested = 0
        for center in centers:
            blown = star_subdivide(w, center)
            surviving = [
                wall for wall in flopping_walls(blown) if wall.rays in flop_pairs
            ]
            assert surviving, center  # at least one flopping curve survives
            for wall in surviving:
                out, _ = perform_surgery(blown, wall)
                assert is_projective(out)[0], (center, wall.rays)
                tested += 1
        assert tested >= len(centers)
