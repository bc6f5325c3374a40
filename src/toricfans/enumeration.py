"""Exhaustive enumeration of smooth complete fans on a fixed ray set.

Candidate cones are the unimodular triples of the given rays. Backtracking
extends a partial fan at its lexicographically smallest unmatched wall,
trying every candidate on the opposite side whose interior avoids all chosen
cones; a partial fan with no unmatched wall is a closed surface and is kept
when it uses every ray and validates. Every complete smooth fan on the rays
is reached exactly once: it contains a unique cone holding the (generic)
seed point, and each wall-matching step is forced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import rational
from .errors import DegenerateRaysError, FanValidationError
from .fan import (
    Fan,
    _is_int_list,
    canonical_key,
    interiors_overlap,
    is_complete,
    is_smooth,
    validate_fan,
)


@dataclass(frozen=True)
class EnumerationReport:
    rays: tuple[tuple[int, ...], ...]
    fans: tuple[Fan, ...]
    candidate_cone_count: int
    search_nodes: int


def unique_fan_condition(a: int, b: int, c: int, d: int) -> bool:
    """Sufficient condition for the Z13pp(a,b,c,d) ray set to carry exactly
    one smooth complete fan (the catalog fan itself).

    Requires a, c, d outside {-2,-1,0,1}, c > a+1, and b beyond an explicit
    bound under which the only unimodular triples through v1 are the ones
    already in the catalog fan.
    """
    if any(x in (-2, -1, 0, 1) for x in (a, c, d)):
        return False
    if not c > a + 1:
        return False
    bound = max(
        2,
        abs(a), abs(a + 2),
        abs(c), abs(c + 2),
        abs(d - 1), abs(d + 2),
        abs(a * d + a - c * d), abs(a * d + a - c * d + 2),
    )
    return b > bound


def _seed_point(rays) -> tuple[int, int, int]:
    # A point on no plane spanned by two independent rays, so it is interior
    # to exactly one maximal cone of any complete fan on these rays.
    # Dependent pairs (opposite rays) span no plane and impose nothing.
    normals = [
        c
        for i, j in itertools.combinations(range(len(rays)), 2)
        if any(c := rational.cross3(rays[i], rays[j]))
    ]
    for t in itertools.count(1):
        p = (1, t, t * t)
        if all(rational.dot(nrm, p) != 0 for nrm in normals):
            return p
    raise AssertionError("unreachable")


def enumerate_smooth_complete_fans(raw_rays) -> EnumerationReport:
    """All smooth complete fans whose rays are exactly the given vectors."""
    if not isinstance(raw_rays, (list, tuple)) or not all(map(_is_int_list, raw_rays)):
        raise DegenerateRaysError("enumeration expects a list of integer ray vectors")
    rays = tuple(map(tuple, raw_rays))
    if not rays or any(len(v) != 3 for v in rays):
        raise DegenerateRaysError("enumeration expects rays in dimension 3")
    if len(set(rays)) != len(rays):
        raise DegenerateRaysError("rays must be pairwise distinct")
    if not all(rational.is_primitive(v) for v in rays):
        raise DegenerateRaysError("rays must be primitive")
    if not any(rational.determinant(t) for t in itertools.combinations(rays, 3)):
        raise DegenerateRaysError("rays do not span R^3")

    n = len(rays)
    candidates = [
        t
        for t in itertools.combinations(range(n), 3)
        if abs(rational.determinant([rays[i] for i in t])) == 1
    ]
    k = len(candidates)
    compatible = [[True] * k for _ in range(k)]
    for x, y in itertools.combinations(range(k), 2):
        ok = not interiors_overlap(rays, candidates[x], candidates[y])
        compatible[x][y] = compatible[y][x] = ok

    seed = _seed_point(rays)
    containing_seed = []
    for idx, cand in enumerate(candidates):
        d, numerators = rational.cramer_numerators([rays[i] for i in cand], seed)
        if all(n * d > 0 for n in numerators):
            containing_seed.append(idx)

    by_face: dict[tuple[int, int], list[int]] = {}
    for idx, cand in enumerate(candidates):
        for face in itertools.combinations(cand, 2):
            by_face.setdefault(face, []).append(idx)

    found: dict[tuple, Fan] = {}
    nodes = 0

    def record(chosen: list[int]) -> None:
        if {i for c in chosen for i in candidates[c]} != set(range(n)):
            return
        try:
            fan = validate_fan(3, rays, [candidates[c] for c in chosen])
        except FanValidationError:
            return
        if is_complete(fan):
            if not is_smooth(fan):
                raise AssertionError("a fan of unimodular cones is not smooth")
            found.setdefault(canonical_key(fan), fan)

    def extend(chosen: list[int], face_count: dict[tuple[int, int], int]) -> None:
        nonlocal nodes
        nodes += 1
        open_faces = sorted(f for f, c in face_count.items() if c == 1)
        if not open_faces:
            record(chosen)
            return
        face = open_faces[0]
        for cand in by_face.get(face, ()):
            if cand in chosen:
                continue
            if not all(compatible[cand][c] for c in chosen):
                continue
            for f in itertools.combinations(candidates[cand], 2):
                face_count[f] = face_count.get(f, 0) + 1
            chosen.append(cand)
            extend(chosen, face_count)
            chosen.pop()
            for f in itertools.combinations(candidates[cand], 2):
                face_count[f] -= 1
                if face_count[f] == 0:
                    del face_count[f]

    for root in containing_seed:
        counts = {f: 1 for f in itertools.combinations(candidates[root], 2)}
        extend([root], counts)

    fans = tuple(found[key] for key in sorted(found))
    return EnumerationReport(
        rays=rays,
        fans=fans,
        candidate_cone_count=k,
        search_nodes=nodes,
    )
