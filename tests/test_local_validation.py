"""`validate_fan`'s local test of closed fans, and its overlap pass with ray
location for every other fan, against the pairwise scan they replace: every
verdict, exception type and message must equal those of
`oracles.validate_by_pairwise_scan`."""

import collections
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CATALOG_GRID, blowup_chain
from oracles import _seed_point, cones_containing_by_fraction_cramer, validate_by_pairwise_scan
from perfbench.workloads import instance_name
from toricfans import build, rational, validate_fan
from toricfans.errors import FanValidationError, OverlapError
from toricfans.fan import Fan, _tiles, interiors_overlap

GRID_FANS = {instance_name(fid, params): build(fid, params) for fid, params in CATALOG_GRID}
CHAIN_FANS = {
    f"{instance_name(fid, params)}-{top}": blowup_chain(fid, params, top)
    for fid, params in [("W7_5", ()), ("Z2", (1,))]
    for top in range(len(build(fid, params).rays), 31)
}
COMPLETE_FANS = {**GRID_FANS, **CHAIN_FANS}


def _verdict(validate, rays, cones):
    """The `Fan`, or the type and message of the `FanValidationError`."""
    try:
        return validate(3, rays, cones)
    except FanValidationError as err:
        return type(err), str(err)


def _assert_matches_pairwise_scan(rays, cones):
    got = _verdict(validate_fan, rays, cones)
    assert got == _verdict(validate_by_pairwise_scan, rays, cones)
    return got


def _off_rays(cones):
    """``{2-face: [the ray opposite it in each cone holding it]}``."""
    census = collections.defaultdict(list)
    for cone in cones:
        for face in itertools.combinations(sorted(cone), 2):
            census[face].append(next(i for i in cone if i not in face))
    return census


def _failing_clauses(rays, cones):
    """Which clauses of the local test fail, decided here without `fan`:
    (a) a 2-face not in exactly two cones, (b) a wall whose off rays lie on
    one side of it, (c) a point on no plane through two rays in a number of
    cones other than one."""
    census = _off_rays(cones)
    failing = set()
    if any(len(offs) != 2 for offs in census.values()):
        failing.add("a")
    if any(
        rational.determinant([rays[a], rays[b], rays[c]])
        * rational.determinant([rays[a], rays[b], rays[d]])
        > 0
        for (a, b), offs in census.items()
        if len(offs) == 2
        for c, d in [offs]
    ):
        failing.add("b")
    holders = cones_containing_by_fraction_cramer(Fan(tuple(rays), tuple(cones)), _seed_point(rays))
    if len(holders) != 1:
        failing.add("c")
    return failing


@pytest.mark.parametrize("name", COMPLETE_FANS)
def test_complete_fans_pass_the_local_test_and_the_scan(name):
    fan = COMPLETE_FANS[name]
    assert _tiles(fan)
    assert _assert_matches_pairwise_scan(fan.rays, fan.max_cones) == fan


def test_the_fans_cover_the_grid_and_both_chains_to_30_rays():
    assert len(GRID_FANS) == len(CATALOG_GRID) == 355
    assert sorted(len(f.rays) for f in CHAIN_FANS.values()) == sorted([*range(7, 31), *range(8, 31)])


# Closed inputs that each clause of the local test rejects. Every one is a
# surface with no boundary face, so only the local test could have accepted
# it; the pairwise scan then names the first pair that does not glue.
THETA = (
    # three disks on one equator triangle: its edges lie in three cones
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 1)],
    [(a, b, apex) for a, b in [(0, 1), (1, 2), (0, 2)] for apex in (3, 4, 5)],
)
FOLD = (
    # the blow-up of P3 at (1, 1, 1) with that ray moved to (-1, 1, 1), which
    # turns cone (1, 2, 4) over: every wall of it is folded. No surface folds
    # across one wall alone, since around each ray the cones' determinant
    # signs change an even number of times.
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 1, 1)],
    [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)],
)
_STAR = [0, 2, 4, 1, 3]
PENTAGRAM = (
    # the suspension of a pentagram: closed, every wall opposite, but it
    # wraps the sphere twice
    [(1, 0, 0), (1, 3, 0), (-4, 3, 0), (-4, -3, 0), (1, -3, 0), (0, 0, 1), (0, 0, -1)],
    [(_STAR[i], _STAR[(i + 1) % 5], pole) for i in range(5) for pole in (5, 6)],
)


@pytest.mark.parametrize(
    "surface,failing,pair",
    [
        (THETA, {"a", "c"}, ((0, 1, 3), (0, 1, 5))),
        (FOLD, {"b"}, ((0, 1, 4), (1, 2, 3))),
        (PENTAGRAM, {"c"}, ((0, 2, 5), (1, 3, 5))),
    ],
    ids=["face-in-three-cones", "folded", "pentagram-double-cover"],
)
def test_each_clause_rejects_a_closed_surface(surface, failing, pair):
    rays, cones = surface
    assert all(len(offs) >= 2 for offs in _off_rays(cones).values())
    assert _failing_clauses(rays, cones) == failing
    sorted_cones = tuple(sorted(tuple(sorted(c)) for c in cones))
    assert not _tiles(Fan(tuple(rays), sorted_cones))
    message = f"cones {pair[0]} and {pair[1]} violate the fan property"
    assert _assert_matches_pairwise_scan(rays, cones) == (OverlapError, message)


# Open fans, which the local test rejects and the overlap pass with the
# location of every ray decides: cones fail when their interiors meet, or
# when one holds a ray of the other that is not its own.
DISJOINT_WITH_FOREIGN_RAY = (
    # (0, 3, 4) lies below the plane z = 0 and (0, 1, 2) above it, but ray 3
    # of the one lies on the 2-face (0, 1) of the other
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, -1)],
    [(0, 1, 2), (0, 3, 4)],
)
CROSSED = (
    # two triangles on the plane z = 1 that cross as a six-pointed star: no
    # ray of one lies in the other, but both hold (0, 0, 1)
    [(0, 2, 1), (-2, -1, 1), (2, -1, 1), (0, -2, 1), (-2, 1, 1), (2, 1, 1)],
    [(0, 1, 2), (3, 4, 5)],
)
HALF_SPACE = (
    # four cones on the closed half-space x >= 0, glued around ray 0
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1)],
    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)],
)


@pytest.mark.parametrize(
    "fan,interiors_meet,foreign,pair",
    [
        (DISJOINT_WITH_FOREIGN_RAY, False, {((0, 1, 2), 3)}, ((0, 1, 2), (0, 3, 4))),
        (CROSSED, True, set(), ((0, 1, 2), (3, 4, 5))),
        (HALF_SPACE, False, set(), None),
    ],
    ids=["disjoint-with-foreign-ray", "crossed-interiors", "valid-half-space"],
)
def test_each_clause_decides_an_open_fan(fan, interiors_meet, foreign, pair):
    rays, cones = fan
    sorted_cones = tuple(sorted(tuple(sorted(c)) for c in cones))
    whole = Fan(tuple(rays), sorted_cones)
    assert not _tiles(whole)
    pairs = itertools.combinations(sorted_cones, 2)
    assert any(interiors_overlap(rays, a, b) for a, b in pairs) == interiors_meet
    held = {
        (cone, i)
        for i, v in enumerate(rays)
        for cone, _ in cones_containing_by_fraction_cramer(whole, v)
        if i not in cone
    }
    assert held == foreign
    got = _assert_matches_pairwise_scan(rays, cones)
    if pair is None:
        assert got == whole
    else:
        assert got == (OverlapError, f"cones {pair[0]} and {pair[1]} violate the fan property")


# Mutations of the complete fans above. A changed coordinate keeps every
# 2-face in two cones, while a dropped cone leaves three faces in one and a
# proper subset of the cones, its unused rays dropped and the rest
# renumbered, is open too, so both closed and open surfaces reach the
# comparison; open subsets of the chains give valid open fans of up to 30
# rays.
_W75 = build("W7_5")
_W75_MOVED = [list(v) for v in _W75.rays]
_W75_MOVED[6][2] = 1


def _open_subset(fan, picks):
    """The cones at positions ``picks``, with the rays they use renumbered
    in order."""
    cones = [fan.max_cones[p] for p in sorted(picks)]
    used = sorted({i for cone in cones for i in cone})
    new = {old: k for k, old in enumerate(used)}
    return [list(fan.rays[i]) for i in used], [[new[i] for i in cone] for cone in cones]


_CHAIN_30 = CHAIN_FANS["Z2(1)-30"]


@st.composite
def _mutants(draw):
    fan = draw(st.sampled_from(list(COMPLETE_FANS.values())))
    rays = [list(v) for v in fan.rays]
    cones = [list(c) for c in fan.max_cones]
    kind = draw(st.sampled_from(["coordinate", "swap", "drop", "duplicate", "open subset"]))
    if kind == "coordinate":
        ray = rays[draw(st.integers(0, len(rays) - 1))]
        k = draw(st.integers(0, 2))
        ray[k] = draw(st.integers(-4, 4).filter(lambda x: x != ray[k]))
    elif kind == "swap":
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        k = draw(st.integers(0, 2))
        cone[k] = draw(st.integers(0, len(rays) - 1).filter(lambda i: i != cone[k]))
    elif kind == "drop":
        del cones[draw(st.integers(0, len(cones) - 1))]
    elif kind == "open subset":
        picks = st.sets(st.integers(0, len(cones) - 1), min_size=1, max_size=len(cones) - 1)
        rays, cones = _open_subset(fan, draw(picks))
    else:
        cones.append(list(cones[draw(st.integers(0, len(cones) - 1))]))
    return kind, rays, cones


@settings(max_examples=300, deadline=None)
@given(_mutants())
@example(("coordinate", _W75_MOVED, _W75.max_cones))
@example(("drop", _W75.rays, _W75.max_cones[1:]))
@example(("open subset", *_open_subset(_CHAIN_30, range(0, len(_CHAIN_30.max_cones), 2))))
def test_mutated_fans_get_the_pairwise_verdict(mutant):
    kind, rays, cones = mutant
    if kind in ("coordinate", "drop", "open subset"):
        closed = all(len(offs) == 2 for offs in _off_rays(cones).values())
        assert closed == (kind == "coordinate")
    got = _assert_matches_pairwise_scan(rays, cones)
    # any set of cones of a fan is a fan
    assert isinstance(got, Fan) or kind != "open subset"
