"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear. Every check is exact (integer/rational arithmetic, no tolerances).
"""

import itertools
import random

from conftest import (
    CATALOG_INSTANCES,
    MIXED_GRID,
    PROJECTIVE_GRID,
    gauge_fixed_wall_rows,
    ray_index,
    random_unimodular,
)
from oracles import feasible_by_basis_enumeration
from toricfans import (
    build,
    canonical_key,
    change_basis,
    classify_wall,
    contract_ray,
    effective_ample_obstruction,
    enumerate_smooth_complete_fans,
    expected_projectivity,
    find_wall,
    flopping_walls,
    is_ample,
    is_complete,
    is_projective,
    is_smooth,
    nontrivial_nef_exists,
    perform_surgery,
    picard_number,
    projectivize,
    star_subdivide,
    verify_certificate,
    verify_obstruction,
    walls,
)
from toricfans.surgery import MODIFIABLE, WallKind


def _report(number: int, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status}{suffix}")
    assert not failures, failures


def _oracle_projective(fan) -> bool:
    """Projectivity by the basic-solution oracle on the gauge-fixed wall rows."""
    rows = gauge_fixed_wall_rows(fan)
    return feasible_by_basis_enumeration(rows, [1] * len(rows))


def test_criterion_1_the_picard_four_example():
    failures = []
    w = build("W7_5")
    if not (is_smooth(w) and is_complete(w)):
        failures.append("W must be smooth and complete")
    if picard_number(w) != 4:
        failures.append(f"rho = {picard_number(w)} != 4")
    flops = flopping_walls(w)
    if [x.rays for x in flops] != [(0, 6), (1, 4), (2, 5)]:
        failures.append(f"flopping walls {[x.rays for x in flops]}")
    projective, cert = is_projective(w)
    if projective:
        failures.append("W must be non-projective")
    if cert.farkas is None or not verify_certificate(w, cert):
        failures.append("Farkas certificate missing or not verifiable")
    for wall in flops:
        out, _ = perform_surgery(w, wall)
        if not is_smooth(out) or not is_projective(out)[0]:
            failures.append(f"flop at {wall.rays} not smooth projective")
    _report(1, failures)


def test_criterion_2_projective_family_and_z2_chain():
    failures = []
    for fid, params in PROJECTIVE_GRID:
        if not is_projective(build(fid, params))[0]:
            failures.append(f"{fid}{params} should be projective")
        if not expected_projectivity(fid, params):
            failures.append(f"expected_projectivity({fid}, {params}) inconsistent")
    for a in range(-3, 4):
        z = build("Z2", (a,))
        y1 = contract_ray(z, ray_index(z, (0, -2, -1)))
        y2 = contract_ray(y1, ray_index(y1, (0, -1, 0)))
        y3 = contract_ray(y2, ray_index(y2, (0, -1, -1)))
        if [picard_number(f) for f in (z, y1, y2, y3)] != [5, 4, 3, 2]:
            failures.append(f"Z2({a}) chain Picard numbers wrong")
    _report(2, failures, f"{len(PROJECTIVE_GRID)} instances + 7 chains")


def test_criterion_3_verdict_grids():
    failures = []
    for fid, params in MIXED_GRID:
        got = is_projective(build(fid, params))[0]
        want = expected_projectivity(fid, params)
        if got != want:
            failures.append(f"{fid}{params}: got {got}, expected {want}")
    _report(3, failures, f"{len(MIXED_GRID)} instances")


def test_criterion_4_no_nontrivial_nef_on_z12():
    failures = []
    if nontrivial_nef_exists(build("Z12")):
        failures.append("Z12 must have no nontrivial nef class")
    _report(4, failures)


def test_criterion_5_projectivize_within_depth_two():
    failures = []
    targets = [("W7_5", ())] + [
        (fid, params)
        for fid, params in MIXED_GRID
        if not expected_projectivity(fid, params)
    ]
    for fid, params in targets:
        result = projectivize(build(fid, params), 2)
        if not result.found:
            failures.append(f"{fid}{params}: no projective model within depth 2")
            continue
        kinds = {s.kind for s in result.steps}
        if WallKind.FLIP in kinds:
            failures.append(f"{fid}{params}: sequence contains a flip")
        if not kinds <= {WallKind.FLOP, WallKind.ANTI_FLIP}:
            failures.append(f"{fid}{params}: unexpected kinds {kinds}")
    _report(5, failures, f"{len(targets)} non-projective instances")


def test_criterion_6_rigid_rays_and_singular_projectivization():
    failures = []
    z = build("Z13pp", (2, 7, 4, 2))
    report = enumerate_smooth_complete_fans(z.rays)
    if len(report.fans) != 1:
        failures.append(f"enumeration found {len(report.fans)} fans, expected 1")
    elif canonical_key(report.fans[0]) != canonical_key(z):
        failures.append("the unique fan differs from the catalog fan")
    z2357 = build("Z13pp", (2, 3, 5, 7))
    report2 = enumerate_smooth_complete_fans(z2357.rays)
    if len(report2.fans) != 1 or canonical_key(report2.fans[0]) != canonical_key(z2357):
        failures.append("(2,3,5,7) enumeration must return exactly the catalog fan")

    result = projectivize(z, 2)
    if not result.found:
        failures.append("projectivize must find a projective model")
    else:
        if not is_projective(result.final_fan)[0]:
            failures.append("final fan must be projective")
        if result.final_smooth or is_smooth(result.final_fan):
            failures.append("final fan must be singular")
        if not all(s.kind is WallKind.ANTI_FLIP for s in result.steps):
            failures.append(f"steps must be anti-flips, got {[s.kind.value for s in result.steps]}")
        # Z13pp(2,7,4,2) is non-projective, so one step is the minimum; the
        # anti-flip at (v1,v4), first in wall order, already reaches a
        # projective fan
        route = [s.wall_rays for s in result.steps]
        if route != [(0, 3)]:
            failures.append(f"expected one anti-flip at (0, 3), got {route}")
        if not _oracle_projective(result.final_fan):
            failures.append("the basis-enumeration oracle finds the final fan non-projective")
    projective, cert = is_projective(z)
    if projective or not verify_certificate(z, cert):
        failures.append("Z13pp(2,7,4,2) must be non-projective with a verified certificate")

    # a two-step anti-flip route exists too: (v6,v7) keeps the fan
    # non-projective, then (v1,v4) makes it projective and singular
    middle, first = perform_surgery(z, find_wall(z, (5, 6)))
    projective, cert = is_projective(middle)
    if first.kind is not WallKind.ANTI_FLIP or projective or not verify_certificate(middle, cert):
        failures.append("the anti-flip at (5, 6) must give a non-projective fan")
    end, second = perform_surgery(middle, find_wall(middle, (0, 3)))
    if (
        second.kind is not WallKind.ANTI_FLIP
        or not is_projective(end)[0]
        or not _oracle_projective(end)
        or is_smooth(end)
    ):
        failures.append("the anti-flip at (0, 3) after (5, 6) must give a singular projective fan")

    if flopping_walls(z) != ():
        failures.append("Z13pp(2,7,4,2) must have no flopping walls")
    if any(classify_wall(z, wall).kind is WallKind.FLIP for wall in walls(z)):
        failures.append("Z13pp(2,7,4,2) must have no flip walls")
    _report(6, failures)


def test_criterion_7_property_suites():
    failures = []

    # (a) Euler counts on all catalog fans
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        if len(fan.max_cones) != 2 * len(fan.rays) - 4:
            failures.append(f"(a) Euler count fails for {fid}{params}")
        if len(walls(fan)) != 3 * len(fan.max_cones) // 2:
            failures.append(f"(a) wall count fails for {fid}{params}")

    # (b) star_subdivide undoes contract_ray
    contraction_cases = [
        ("Z2", (0,), (0, -2, -1)),
        ("Z2", (-3,), (0, -2, -1)),
        ("Z10", (), (0, -1, -2)),
        ("Z5p", (0,), (0, -1, 0)),
        ("Z11", (1, -1), (0, -1, 0)),
    ]
    for fid, params, vector in contraction_cases:
        fan = build(fid, params)
        down = contract_ray(fan, ray_index(fan, vector))
        up = star_subdivide(down, vector)
        if canonical_key(up) != canonical_key(fan):
            failures.append(f"(b) subdivide after contract differs for {fid}{params}")
    for center in ((1, 1, 1), (1, 1, 0), (0, 1, 1)):
        w = build("W7_5")
        blown = star_subdivide(w, center)
        down = contract_ray(blown, len(blown.rays) - 1)
        if canonical_key(down) != canonical_key(w):
            failures.append(f"(b) contract after subdivide differs at {center}")

    # (c) surgery involution over every modifiable wall
    for fid, params in [("W7_5", ()), ("Z12", ()), ("Z13pp", (2, 7, 4, 2)), ("Z14pp", (0, 0))]:
        fan = build(fid, params)
        for wall in walls(fan):
            if classify_wall(fan, wall).kind not in MODIFIABLE:
                continue
            once, _ = perform_surgery(fan, wall)
            twice, _ = perform_surgery(once, find_wall(once, wall.off_rays))
            if canonical_key(twice) != canonical_key(fan):
                failures.append(f"(c) involution fails at {fid}{params} {wall.rays}")

    # (d) GL(3, Z)-invariance of the predicates, 100 random basis changes
    rng = random.Random(20240809)
    instance_cycle = itertools.cycle(CATALOG_INSTANCES)
    for _ in range(100):
        fid, params = next(instance_cycle)
        fan = build(fid, params)
        moved = change_basis(fan, random_unimodular(rng))
        if is_smooth(moved) != is_smooth(fan) or is_complete(moved) != is_complete(fan):
            failures.append(f"(d) smooth/complete not invariant for {fid}{params}")
        if picard_number(moved) != picard_number(fan):
            failures.append(f"(d) Picard number not invariant for {fid}{params}")
        if primitive_collections_differ(fan, moved):
            failures.append(f"(d) primitive collections not invariant for {fid}{params}")
        if primitive_relations_differ(fan, moved):
            failures.append(f"(d) primitive relations not invariant for {fid}{params}")
        if is_projective(moved)[0] != is_projective(fan)[0]:
            failures.append(f"(d) projectivity not invariant for {fid}{params}")
        kinds = sorted(classify_wall(fan, w).kind.value for w in walls(fan))
        moved_kinds = sorted(classify_wall(moved, w).kind.value for w in walls(moved))
        if kinds != moved_kinds:
            failures.append(f"(d) wall kinds not invariant for {fid}{params}")

    # (e) eliminator agrees with the basic-solution oracle
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        if _oracle_projective(fan) != is_projective(fan)[0]:
            failures.append(f"(e) oracle disagrees on {fid}{params}")

    # (f) an effective-ample obstruction implies non-projectivity
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        witness = effective_ample_obstruction(fan)
        if witness is not None and is_projective(fan)[0]:
            failures.append(f"(f) obstruction on projective {fid}{params}")

    # (g) certificates re-verify by direct evaluation, and ample witnesses
    # are ample
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        projective, cert = is_projective(fan)
        if not verify_certificate(fan, cert):
            failures.append(f"(g) certificate fails to verify for {fid}{params}")
        if projective and not is_ample(fan, cert.feasible_d):
            failures.append(f"(g) feasible_d not ample for {fid}{params}")
        witness = effective_ample_obstruction(fan)
        if witness is not None and not verify_obstruction(fan, witness):
            failures.append(f"(g) obstruction witness fails for {fid}{params}")

    _report(7, failures, "suites a-g")


def primitive_collections_differ(fan, moved):
    from toricfans import primitive_collections

    return primitive_collections(fan) != primitive_collections(moved)


def primitive_relations_differ(fan, moved):
    from toricfans import primitive_collections, primitive_relation

    return any(
        primitive_relation(fan, col) != primitive_relation(moved, col)
        for col in primitive_collections(fan)
    )
