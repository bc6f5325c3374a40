import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CATALOG_INSTANCES, P3_CONES, P3_RAYS, blowup_chain, random_unimodular
from oracles import (
    _seed_point,
    enumerate_by_lists,
    fraction_cramer,
    interiors_overlap_by_separation,
)
from perfbench.workloads import FAMILY_REPRESENTATIVES, instance_name
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
from toricfans.fan import _planes, interiors_overlap
from toricfans import enumeration, fanio, rational


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


SMALL_SETS = [
    P3_RAYS,
    # octahedron: the six signed unit vectors
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    # projective space plus an interior blow-up ray
    P3_RAYS + [(1, 1, 1)],
    # plus a wall blow-up ray
    P3_RAYS + [(1, 1, 0), (0, 1, 1)],
]


class TestOracleAgreement:
    @pytest.mark.parametrize("rays", SMALL_SETS)
    def test_matches_naive_subset_scan(self, rays):
        report = enumerate_smooth_complete_fans(rays)
        expected = naive_smooth_complete_fans(rays)
        assert {canonical_key(f) for f in report.fans} == set(expected)

    def test_octahedron_count(self):
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        assert len(enumerate_smooth_complete_fans(rays).fans) == 1


# The enumerate workload's family representatives and the lower rungs of
# its two blow-up ladders.
RAY_SETS = [
    pytest.param(build(fid, params).rays, id=instance_name(fid, params))
    for fid, params in FAMILY_REPRESENTATIVES
] + [
    pytest.param(blowup_chain(fid, params, n).rays, id=f"{instance_name(fid, params)}-{n}")
    for fid, params in (("W7_5", ()), ("Z2", (1,)))
    for n in range(9, 14)
]


def _unimodular_images(fid, params, seeds):
    rays = build(fid, params).rays
    for seed in seeds:
        m = random_unimodular(random.Random(seed))
        yield pytest.param([rational.mat_vec(m, v) for v in rays], id=f"{fid}-gl{seed}")


# Every ray set the reports are compared on: the ones above, sets with
# opposite rays (the octahedron pairs every ray with its opposite) and
# unimodular images of two catalog fans.
REPORT_SETS = (
    RAY_SETS
    + SMALL_SETS
    + list(_unimodular_images("W7_5", (), range(3)))
    + list(_unimodular_images("Z13pp", (2, 7, 4, 2), range(3)))
)


def _planes_of(rays, candidates):
    masks = [sum(1 << i for i in cand) for cand in candidates]
    return _planes(rays, masks)


def _rows_against_separation(rays, candidates):
    rows, _ = _planes_of(rays, candidates)
    for x, cx in enumerate(candidates):
        expected = sum(
            1 << y
            for y, cy in enumerate(candidates)
            if y != x and not interiors_overlap_by_separation(rays, cx, cy)
        )
        assert rows[x] == expected, cx


def _roots_against_fraction_cramer(rays, candidates):
    _, roots = _planes_of(rays, candidates)
    seed = _seed_point(rays)
    expected = sum(
        1 << x
        for x, cand in enumerate(candidates)
        if all(c > 0 for c in fraction_cramer([rays[i] for i in cand], seed))
    )
    assert roots == expected


def _unimodular_triples(rays):
    return [
        t
        for t in itertools.combinations(range(len(rays)), 3)
        if abs(rational.determinant([rays[i] for i in t])) == 1
    ]


_small_rays = st.lists(
    st.tuples(*[st.integers(-2, 2)] * 3).filter(rational.is_primitive),
    min_size=4,
    max_size=7,
    unique=True,
)


class TestBitsetBacktracker:
    """The bitset search against the list-based one it replaced
    (`oracles.enumerate_by_lists`), its overlap matrix and
    `fan.interiors_overlap` against `oracles.interiors_overlap_by_separation`
    on every candidate pair, and its roots against the Fraction coordinates
    of the seed point in every candidate."""

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_compatibility_rows_match_interiors_overlap(self, rays):
        _rows_against_separation(rays, _unimodular_triples(rays))

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_interiors_overlap_matches_the_separation_oracle(self, rays):
        for cx, cy in itertools.combinations(_unimodular_triples(rays), 2):
            assert interiors_overlap(rays, cx, cy) == interiors_overlap_by_separation(
                rays, cx, cy
            ), (cx, cy)

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_roots_are_the_candidates_holding_the_seed(self, rays):
        _roots_against_fraction_cramer(rays, _unimodular_triples(rays))

    @settings(max_examples=200, deadline=None)
    @given(_small_rays)
    def test_compatibility_matches_interiors_overlap_on_random_rays(self, rays):
        # every nondegenerate triple, not only the unimodular ones, over ray
        # sets with coplanar and opposite rays; the roots are checked too
        candidates = [
            t
            for t in itertools.combinations(range(len(rays)), 3)
            if rational.determinant([rays[i] for i in t])
        ]
        _rows_against_separation(rays, candidates)
        _roots_against_fraction_cramer(rays, candidates)

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_report_matches_the_list_backtracker(self, rays):
        doc = fanio.enumeration_report_to_doc(enumerate_smooth_complete_fans(rays))
        assert doc == fanio.enumeration_report_to_doc(enumerate_by_lists(rays))

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_each_fan_is_reached_exactly_once(self, rays, monkeypatch):
        # one root per fan and forced wall matching: every closed surface
        # that uses all rays is a distinct fan, keyed once
        calls = []

        def spy(fan):
            calls.append(fan)
            return canonical_key(fan)

        monkeypatch.setattr(enumeration, "canonical_key", spy)
        report = enumerate_smooth_complete_fans(rays)
        assert len(calls) == len(report.fans)

    @pytest.mark.parametrize(
        "n, fans, candidates, nodes", [(15, 26, 145, 34_059), (17, 6, 182, 130_273)]
    )
    def test_heavy_w75_rungs(self, n, fans, candidates, nodes):
        rays = blowup_chain("W7_5", (), n).rays
        report = enumerate_smooth_complete_fans(rays)
        assert (len(report.fans), report.candidate_cone_count, report.search_nodes) == (
            fans, candidates, nodes
        )
        for fan in report.fans:
            # validate_fan runs the pairwise gluing test the enumerator omits
            assert fan == validate_fan(3, rays, fan.max_cones)
            assert is_complete(fan) and is_smooth(fan)


def _open_face_walk(rays, candidates):
    """Walk the unmemoized bitset search tree over ``candidates``, failing on
    an open-face mask met with two different allowed masks; returns the
    number of nodes."""
    n = len(rays)
    compatible, roots = _planes(rays, [sum(1 << i for i in c) for c in candidates])
    cone_faces = [
        sum(1 << a * n + b for a, b in itertools.combinations(c, 2)) for c in candidates
    ]
    by_face: dict[int, int] = {}
    for idx, faces in enumerate(cone_faces):
        for face in range(n * n):
            if faces >> face & 1:
                by_face[face] = by_face.get(face, 0) | 1 << idx
    seen: dict[int, int] = {}
    nodes = 0

    def walk(allowed, open_faces):
        nonlocal nodes
        nodes += 1
        assert seen.setdefault(open_faces, allowed) == allowed, bin(open_faces)
        if not open_faces:
            return
        face = (open_faces & -open_faces).bit_length() - 1
        options = by_face.get(face, 0) & allowed
        for cand in range(len(candidates)):
            if options >> cand & 1:
                walk(allowed & compatible[cand], open_faces ^ cone_faces[cand])

    for root in range(len(candidates)):
        if roots >> root & 1:
            walk(compatible[root], cone_faces[root])
    return nodes


@st.composite
def _blowup_chains(draw):
    fid, params = draw(st.sampled_from(CATALOG_INSTANCES))
    return blowup_chain(fid, params, draw(st.integers(9, 12)), draw(st.integers(0, 999))).rays


def _extend_calls(rays):
    """`search_nodes` and the number of calls of the enumerator's inner
    recursive function ``extend``, counted by its code object."""
    code = next(
        c
        for c in enumerate_smooth_complete_fans.__code__.co_consts
        if getattr(c, "co_name", None) == "extend"
    )
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = enumerate_smooth_complete_fans(rays)
    finally:
        sys.setprofile(previous)
    return report.search_nodes, calls


class TestSubtreeMemo:
    """The enumerator stores each branching node's subtree under its open-face
    mask alone; these tests check that the mask fixes the allowed candidates,
    that the memo skips most of the tree, and that no fan is lost."""

    @pytest.mark.parametrize("rays", REPORT_SETS)
    def test_open_faces_determine_the_allowed_candidates(self, rays):
        nodes = _open_face_walk(rays, _unimodular_triples(rays))
        assert nodes == enumerate_smooth_complete_fans(rays).search_nodes

    @settings(max_examples=200, deadline=None)
    @given(_small_rays)
    def test_open_faces_determine_the_allowed_candidates_on_random_rays(self, rays):
        # every nondegenerate triple as a candidate, so the complete
        # simplicial fans are searched too, over coplanar and opposite rays
        _open_face_walk(
            rays,
            [
                t
                for t in itertools.combinations(range(len(rays)), 3)
                if rational.determinant([rays[i] for i in t])
            ],
        )

    def test_memo_skips_most_of_the_tree(self):
        nodes, calls = _extend_calls(blowup_chain("W7_5", (), 17).rays)
        assert nodes == 130_273
        assert calls < nodes // 4

    @settings(max_examples=100, deadline=None)
    @given(_small_rays)
    def test_report_matches_the_list_backtracker_on_random_rays(self, rays):
        assume(any(rational.determinant(t) for t in itertools.combinations(rays, 3)))
        doc = fanio.enumeration_report_to_doc(enumerate_smooth_complete_fans(rays))
        assert doc == fanio.enumeration_report_to_doc(enumerate_by_lists(rays))

    @settings(max_examples=20, deadline=None)
    @given(_blowup_chains())
    def test_report_matches_the_list_backtracker_on_blowup_chains(self, rays):
        # most of these sets revisit a stored subtree that can still finish a
        # fan, so the subtree is walked again
        doc = fanio.enumeration_report_to_doc(enumerate_smooth_complete_fans(rays))
        assert doc == fanio.enumeration_report_to_doc(enumerate_by_lists(rays))


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
