"""Exhaustive enumeration of smooth complete fans on a fixed ray set.

Candidate cones are the unimodular triples of the given rays, numbered in
lexicographic order. Backtracking extends a partial fan at its
lexicographically smallest unmatched wall, trying every candidate on the
opposite side whose interior avoids all chosen cones; a partial fan with no
unmatched wall is a closed surface and is kept when it uses every ray.
Every complete smooth fan on the rays is reached exactly once: it has one
root, its cone holding the (generic) seed point, and each wall-matching
step is forced.

The search runs on bitsets (Python ints). A candidate's row of the
compatibility matrix is the mask of the candidates whose interiors avoid
its own, so the candidates still allowed are the AND of the chosen rows.
One pass over the planes through two rays (`fan._planes`, which also
finds the seed) builds the rows and finds the roots: two candidates are
compatible iff such a plane has them on opposite closed sides, and the
roots are the candidates that no plane puts on the side away from the
seed. The unmatched walls are the XOR of the chosen cones' face masks, in
which face (a, b) is bit ``a * n + b``: two compatible cones never lie on
the same side of a shared face, so no face is in three chosen cones and
odd parity means exactly one.

A closed surface of pairwise compatible cones has disjoint interiors, so it
glues face to face (the `fan` module docstring proves it) and
`validate_fan` is not run on it; its other checks hold for every candidate
by construction.

Different triangulations of one region of the sphere leave the search in
the same state, so `extend` returns two facts about each subtree, its
node count and ``reach``: the OR of the rays its closed surfaces add, plus
bit n when it holds a closed surface at all. A node with two or more
options stores both under its open-face mask alone; a forced chain is not
stored, and a revisit walks it down to the next branching node. That key
is exact. The chosen cones have disjoint interiors, so mod 2 their sum is
the indicator of their union R, and the open faces' arcs sum to R's
boundary. On the sphere a 2-chain is fixed by its boundary up to adding
the whole sphere, and R holds the seed, so the open faces fix R; a
candidate is allowed iff its interior misses R, so they fix the allowed
mask and with it the subtree. A revisit returns the stored pair unless the
rays chosen so far OR ``reach`` is every ray plus bit n: then a fan on
every ray may lie below this prefix, and the subtree is walked again (its
branching nodes hit the memo). ``reach`` over-approximates each fan's
rays, so every fan's leaf is still reached, once, and ``search_nodes``
counts the same tree as an unmemoized walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import rational
from .errors import DegenerateRaysError
from .fan import Fan, _is_int_list, _planes, canonical_key


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
    cone_rays = [(1 << a) | (1 << b) | (1 << c) for a, b, c in candidates]
    compatible, roots = _planes(rays, cone_rays)
    cone_faces = [0] * k
    by_face = [0] * (n * n)
    for idx, (a, b, c) in enumerate(candidates):
        for face in (a * n + b, a * n + c, b * n + c):
            cone_faces[idx] |= 1 << face
            by_face[face] |= 1 << idx

    found: dict[tuple, Fan] = {}
    memo: dict[int, int] = {}
    every = (1 << n + 1) - 1  # bits below n: every ray; bit n: "holds a closed surface"

    def extend(chosen: list[int], covered: int, allowed: int, open_faces: int) -> tuple[int, int]:
        # (nodes in this subtree, its reach: see the module docstring)
        if not open_faces:
            # Candidates are distinct unimodular triples and a closed surface
            # glues properly (module docstring), so only ray coverage is left.
            if covered == every >> 1:
                fan = Fan(rays, tuple(candidates[c] for c in sorted(chosen)))
                found.setdefault(canonical_key(fan), fan)
            return 1, 1 << n
        face = (open_faces & -open_faces).bit_length() - 1
        options = by_face[face] & allowed
        branching = options & options - 1
        if branching and (stored := memo.get(open_faces)) and covered | stored & every != every:
            return stored >> n + 1, stored & every
        count, reach = 1, 0
        while options:
            low = options & -options
            options ^= low
            cand = low.bit_length() - 1
            chosen.append(cand)
            sub, sub_reach = extend(
                chosen,
                covered | cone_rays[cand],
                allowed & compatible[cand],
                open_faces ^ cone_faces[cand],
            )
            chosen.pop()
            count += sub
            if sub_reach:
                reach |= sub_reach | cone_rays[cand]
        if branching:
            memo[open_faces] = count << n + 1 | reach
        return count, reach

    nodes = 0
    for root in (x for x in range(k) if roots >> x & 1):
        nodes += extend([root], cone_rays[root], compatible[root], cone_faces[root])[0]

    fans = tuple(found[key] for key in sorted(found))
    return EnumerationReport(
        rays=rays,
        fans=fans,
        candidate_cone_count=k,
        search_nodes=nodes,
    )
