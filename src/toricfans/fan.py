"""Simplicial lattice fans in R^3 in exact integer/rational arithmetic.

A fan is stored as its list of primitive ray generators together with the
maximal cones, each a sorted tuple of three ray indices; ``dim`` is always 3.
Fans are immutable after validation; every operation is a pure function
returning new values, so fans are safe to share between threads. A `Fan`
only adds lazily built lookup tables (`cone_sets`, `ray_index`,
`face_census`), which are the same whichever thread builds them and are
never mutated; wall circuits are recomputed on each call from four 3x3
determinants (`wall_circuit`).

Only simplicial fans are representable: a maximal cone with linearly
dependent generators is rejected at validation rather than supported.
Whether two cones glue properly or share interior points is decided by one
exact integer test that looks for a separating plane among the cross
products of their rays (`_separated`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import rational
from .errors import (
    ConeSizeError,
    DependentConeError,
    DuplicateConeError,
    DuplicateRayError,
    FanValidationError,
    NonPrimitiveRayError,
    NotCompleteError,
    NotInSupportError,
    NotSmoothError,
    OverlapError,
    RayExistsError,
    UnmatchedWallError,
    UnsupportedStarPatternError,
    UnusedRayError,
)

IntVec = tuple[int, ...]
ConeTuple = tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """A simplicial fan given by primitive rays and full-dimensional cones.

    Construct instances through `validate_fan`; the other operations in this
    package validate their own results.
    """

    dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[ConeTuple, ...]

    @cached_property
    def cone_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c) for c in self.max_cones)

    @cached_property
    def ray_index(self) -> dict[IntVec, int]:
        return {v: i for i, v in enumerate(self.rays)}

    @cached_property
    def face_census(self) -> dict[ConeTuple, tuple[int, ...]]:
        """Positions of the maximal cones containing each (dim-1)-face."""
        census: dict[ConeTuple, list[int]] = {}
        for pos, cone in enumerate(self.max_cones):
            for face in itertools.combinations(cone, self.dim - 1):
                census.setdefault(face, []).append(pos)
        return {f: tuple(ps) for f, ps in census.items()}


@dataclass(frozen=True)
class Wall:
    """A (dim-1)-face shared by exactly two maximal cones."""

    rays: ConeTuple
    side_cones: tuple[ConeTuple, ConeTuple]
    off_rays: tuple[int, int]


@dataclass(frozen=True)
class PrimitiveRelation:
    """The generator sum of a primitive collection written in the unique cone
    containing it in its relative interior.

    ``target_rays`` is empty exactly when the generators sum to zero (a
    fiber-type collection); otherwise the coefficients are positive integers,
    one per target ray.
    """

    collection: ConeTuple
    target_rays: ConeTuple
    coefficients: tuple[int, ...]

    @property
    def is_fiber_type(self) -> bool:
        return not self.target_rays


def validate_fan(dim: int, raw_rays, raw_cones) -> Fan:
    """Check raw ray/cone data and return the canonical `Fan`.

    Only ``dim == 3`` is accepted. ``raw_rays``, ``raw_cones`` and each ray
    and cone must be lists or tuples, and every coordinate and ray index an
    ``int``: bools, floats and strings are rejected, not converted. All
    geometric checks (independence, pairwise proper gluing) run in exact
    integer arithmetic. Cones are stored sorted, the cone list sorted
    lexicographically.
    """
    if not isinstance(dim, int) or dim != 3:
        raise FanValidationError(f"dimension must be 3, got {dim!r}")
    for name, raw in (("rays", raw_rays), ("max_cones", raw_cones)):
        if not isinstance(raw, (list, tuple)):
            raise FanValidationError(f"{name} must be a list, got {raw!r}")

    rays: list[IntVec] = []
    for raw in raw_rays:
        if not _is_int_list(raw) or len(raw) != dim:
            raise FanValidationError(f"ray {raw!r} is not an integer {dim}-vector")
        v = tuple(raw)
        if not rational.is_primitive(v):
            raise NonPrimitiveRayError(f"ray {v} is zero or not primitive")
        rays.append(v)
    seen: dict[IntVec, int] = {}
    for i, v in enumerate(rays):
        if v in seen:
            raise DuplicateRayError(f"rays {seen[v]} and {i} are both {v}")
        seen[v] = i

    cones: list[ConeTuple] = []
    for raw in raw_cones:
        if not _is_int_list(raw):
            raise FanValidationError(f"maximal cone {raw!r} is not a list of ray indices")
        cone = tuple(sorted(raw))
        if len(set(cone)) != len(cone) or len(cone) != dim:
            raise ConeSizeError(
                f"maximal cone {tuple(raw)} must have exactly {dim} distinct rays"
            )
        if cone[0] < 0 or cone[-1] >= len(rays):
            raise FanValidationError(f"cone {cone} references a missing ray")
        if rational.determinant([rays[i] for i in cone]) == 0:
            raise DependentConeError(f"cone {cone} has dependent generators")
        cones.append(cone)
    cones.sort()
    for a, b in zip(cones, cones[1:]):
        if a == b:
            raise DuplicateConeError(f"cone {a} is listed twice")

    used = {i for cone in cones for i in cone}
    missing = sorted(set(range(len(rays))) - used)
    if missing:
        raise UnusedRayError(f"rays {missing} appear in no maximal cone")

    for ca, cb in itertools.combinations(cones, 2):
        if not _properly_glued(rays, ca, cb):
            raise OverlapError(ca, cb)

    return Fan(dim, tuple(rays), tuple(cones))


def _is_int_list(raw) -> bool:
    """A list or tuple of ints; ``type`` is exact so that bools are rejected."""
    return isinstance(raw, (list, tuple)) and all(type(x) is int for x in raw)


def _properly_glued(rays: Sequence[IntVec], cone_a: ConeTuple, cone_b: ConeTuple) -> bool:
    """Whether two simplicial cones intersect exactly in their common face.

    Equivalent, by the separation lemma for convex polyhedral cones, to the
    existence of a linear functional vanishing on the shared rays, strictly
    positive on the other rays of one cone and strictly negative on those of
    the other.
    """
    return _separated(rays, cone_a, cone_b, strict=True)


def interiors_overlap(rays: Sequence[IntVec], cone_a: ConeTuple, cone_b: ConeTuple) -> bool:
    """Whether two full-dimensional simplicial cones share an interior point.

    Two full-dimensional convex cones have disjoint interiors exactly when a
    nonzero linear functional is >= 0 on one and <= 0 on the other.
    """
    for cone in (cone_a, cone_b):
        if rational.determinant([rays[i] for i in cone]) == 0:
            raise ValueError("cones must be full-dimensional")
    return not _separated(rays, cone_a, cone_b, strict=False)


def _separated(
    rays: Sequence[IntVec], cone_a: ConeTuple, cone_b: ConeTuple, strict: bool
) -> bool:
    """Whether a normal h vanishing on the shared rays has h @ w >= 0 on every
    off ray w (those of ``cone_b`` negated): a nonzero one, or with
    ``strict`` one with every h @ w > 0.

    Such normals form a pointed cone (inside the dual of ``cone_a``) whose
    extreme rays are +- cross products of two rays, one of them the first
    shared ray if any; a strict normal exists iff their sum is strict.
    """
    shared = [rays[i] for i in cone_a if i in cone_b]
    off = [rays[i] for i in cone_a if i not in cone_b]
    off += [(-x, -y, -z) for x, y, z in (rays[i] for i in cone_b if i not in cone_a)]
    if shared:
        pairs = [(shared[0], w) for w in shared[1:] + off]
    else:
        pairs = itertools.combinations(off, 2)
    # running sum of the passing candidates, as its values on the off rays
    total = [0] * len(off)
    for (u0, u1, u2), (v0, v1, v2) in pairs:
        h0 = u1 * v2 - u2 * v1
        h1 = u2 * v0 - u0 * v2
        h2 = u0 * v1 - u1 * v0
        if not (h0 or h1 or h2):
            continue
        if any(h0 * f0 + h1 * f1 + h2 * f2 for f0, f1, f2 in shared[1:]):
            continue
        values = [h0 * w0 + h1 * w1 + h2 * w2 for w0, w1, w2 in off]
        if any(v < 0 for v in values):
            if any(v > 0 for v in values):
                continue
            values = [-v for v in values]  # -h passes
        if not strict:
            return True
        total = [t + v for t, v in zip(total, values)]
        if all(t > 0 for t in total):
            return True
    return strict and not off  # with no off rays strictness is vacuous


def is_smooth(fan: Fan) -> bool:
    """True when every maximal cone is unimodular (ray determinant +-1)."""
    return all(
        abs(rational.determinant([fan.rays[i] for i in cone])) == 1
        for cone in fan.max_cones
    )


def is_complete(fan: Fan) -> bool:
    """True when the support of the fan is all of R^dim.

    Criterion: the cone list is nonempty and every (dim-1)-face of a maximal
    cone is shared by exactly two maximal cones. The support is closed and its
    topological boundary is contained in the faces belonging to a single cone;
    with no such faces the support is clopen and nonempty, hence everything.
    """
    if not fan.max_cones:
        return False
    return all(len(ps) == 2 for ps in fan.face_census.values())


def walls(fan: Fan) -> tuple[Wall, ...]:
    """All walls of a complete fan, ordered by their ray index tuples."""
    unmatched = sorted(f for f, ps in fan.face_census.items() if len(ps) != 2)
    if unmatched or not fan.max_cones:
        raise UnmatchedWallError(unmatched)
    out = []
    for face in sorted(fan.face_census):
        pa, pb = fan.face_census[face]
        ca, cb = sorted((fan.max_cones[pa], fan.max_cones[pb]))
        off_a = next(i for i in ca if i not in face)
        off_b = next(i for i in cb if i not in face)
        out.append(Wall(face, (ca, cb), (off_a, off_b)))
    return tuple(out)


def picard_number(fan: Fan) -> int:
    """Rank of the divisor class lattice: #rays - dim for complete simplicial fans."""
    if not is_complete(fan):
        raise NotCompleteError("Picard number is only defined here for complete fans")
    return len(fan.rays) - fan.dim


def wall_circuit(fan: Fan, wall: Wall) -> tuple[int, ...]:
    """The circuit relation of a wall as a dense integer vector over all rays.

    This is the unique (up to scale) linear dependence among the dim+1 rays of
    the wall's two side cones, normalized primitive integral with strictly
    positive entries on both off-wall rays. For smooth fans both off entries
    are 1. For wall rays a, b and off rays c, d, det(b,c,d) a - det(a,c,d) b
    + det(a,b,d) c - det(a,b,c) d = 0, which fixes it up to sign and gcd.
    """
    a, b, c, d = (fan.rays[i] for i in wall.rays + wall.off_rays)
    det = rational.determinant
    lam = [det((b, c, d)), -det((a, c, d)), det((a, b, d)), -det((a, b, c))]
    if lam[2] < 0:
        lam = [-x for x in lam]
    if not (lam[2] > 0 and lam[3] > 0):
        raise AssertionError(f"circuit of wall {wall.rays} is not positive on its off rays")
    g = rational.vec_gcd(lam)
    dense = [0] * len(fan.rays)
    for i, x in zip(wall.rays + wall.off_rays, lam):
        dense[i] = x // g
    return tuple(dense)


def primitive_collections(fan: Fan) -> tuple[ConeTuple, ...]:
    """All inclusion-minimal sets of rays spanning no cone of the fan.

    Ordered by (size, lexicographic). Every proper subset of a minimal
    non-face is a face, and a face of a simplicial 3-fan has at most 3 rays,
    so only subsets of 2 to 4 rays are scanned.
    """
    n = len(fan.rays)
    cone_sets = fan.cone_sets

    def is_face(s: frozenset[int]) -> bool:
        return any(s <= cs for cs in cone_sets)

    out = []
    for size in range(2, min(n, 4) + 1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if is_face(s):
                continue
            if all(is_face(s - {i}) for i in combo):
                out.append(combo)
    return tuple(out)


def primitive_relation(fan: Fan, collection) -> PrimitiveRelation:
    """Express the generator sum of a primitive collection in its containing cone.

    The sum of the collection's rays lies in the relative interior of a unique
    cone; on smooth fans the resulting coefficients are positive integers. A
    zero sum is reported as a fiber-type relation with empty target.
    """
    if not _is_int_list(collection):
        raise FanValidationError(f"collection {collection!r} is not a list of ray indices")
    col = tuple(sorted(collection))
    if not is_smooth(fan):
        raise NotSmoothError("primitive relations need integer coefficients, so a smooth fan")
    s = frozenset(col)
    if any(s <= cs for cs in fan.cone_sets) or not all(
        any(s - {i} <= cs for cs in fan.cone_sets) for i in col
    ):
        raise ValueError(f"{col} is not a primitive collection of this fan")
    total = tuple(sum(fan.rays[i][k] for i in col) for k in range(fan.dim))
    if all(x == 0 for x in total):
        return PrimitiveRelation(col, (), ())
    for cone in fan.max_cones:
        coords = rational.solve_columns([fan.rays[i] for i in cone], total)
        if all(c >= 0 for c in coords):
            target = [(i, c) for i, c in zip(cone, coords) if c > 0]
            if not all(c.denominator == 1 for _, c in target):
                raise AssertionError(f"relation of {col} has non-integral coefficients")
            return PrimitiveRelation(
                col,
                tuple(i for i, _ in target),
                tuple(int(c) for _, c in target),
            )
    raise NotCompleteError(f"the ray sum {total} lies in no cone of the fan")


def star_subdivide(fan: Fan, new_ray) -> Fan:
    """Refine the fan along a new primitive ray (the toric blow-up).

    Every maximal cone containing the ray is replaced by the joins of the ray
    with the facets not containing it; all other cones are untouched.
    """
    if not _is_int_list(new_ray) or len(new_ray) != fan.dim:
        raise FanValidationError(f"subdivision ray {new_ray!r} is not an integer 3-vector")
    v = tuple(new_ray)
    if not rational.is_primitive(v):
        raise NonPrimitiveRayError(f"subdivision ray {v} is zero or not primitive")
    if v in fan.ray_index:
        raise RayExistsError(f"{v} is already a ray of the fan")
    new_index = len(fan.rays)
    touched = False
    cones_out: list[ConeTuple] = []
    for cone in fan.max_cones:
        coords = rational.solve_columns([fan.rays[i] for i in cone], v)
        if all(c >= 0 for c in coords):
            touched = True
            for i, c in zip(cone, coords):
                if c > 0:
                    cones_out.append(tuple(sorted((set(cone) - {i}) | {new_index})))
        else:
            cones_out.append(cone)
    if not touched:
        raise NotInSupportError(f"{v} lies in no cone of the fan")
    return validate_fan(fan.dim, list(fan.rays) + [v], cones_out)


def contract_ray(fan: Fan, ray_index: int) -> Fan:
    """Remove a ray whose star has one of the two supported blow-down shapes.

    Pattern P1: the link is a triangle whose cone contains the ray in its
    relative interior; the three star cones collapse to the cone on the link.
    Pattern P2: the link is a 4-cycle (x, a, y, b) with the ray interior to
    the 2-cone on a diagonal (a, b); the four star cones collapse to
    (a, b, x) and (a, b, y). Star subdivision along the removed ray undoes
    the contraction exactly.
    """
    if ray_index < 0 or ray_index >= len(fan.rays):
        raise FanValidationError(f"no ray with index {ray_index}")
    star = [cone for cone in fan.max_cones if ray_index in cone]
    keep = [cone for cone in fan.max_cones if ray_index not in cone]
    link_edges = [tuple(i for i in cone if i != ray_index) for cone in star]
    vertices = sorted({i for e in link_edges for i in e})
    degrees = {i: sum(i in e for e in link_edges) for i in vertices}
    simple = len(set(link_edges)) == len(link_edges) and all(
        d == 2 for d in degrees.values()
    )
    r = fan.rays[ray_index]

    replacement: list[ConeTuple]
    if simple and len(star) == 3 and len(vertices) == 3:
        try:
            coords = rational.solve_columns([fan.rays[i] for i in vertices], r)
        except ValueError:  # the link rays are coplanar
            coords = (0,)
        if not all(c > 0 for c in coords):
            raise UnsupportedStarPatternError(
                f"ray {ray_index} is not interior to the cone on its link"
            )
        replacement = [tuple(vertices)]
    elif simple and len(star) == 4 and len(vertices) == 4:
        edge_set = {tuple(sorted(e)) for e in link_edges}
        diagonals = [
            p for p in itertools.combinations(vertices, 2) if p not in edge_set
        ]
        for a, b in diagonals:
            if _in_open_2cone(r, fan.rays[a], fan.rays[b]):
                others = [i for i in vertices if i not in (a, b)]
                replacement = [
                    tuple(sorted((a, b, others[0]))),
                    tuple(sorted((a, b, others[1]))),
                ]
                break
        else:
            raise UnsupportedStarPatternError(
                f"ray {ray_index} is not interior to a diagonal of its link"
            )
    else:
        raise UnsupportedStarPatternError(
            f"the star of ray {ray_index} is neither a triangle nor a 4-cycle"
        )

    remap = {old: old - (old > ray_index) for old in range(len(fan.rays))}
    new_rays = [v for i, v in enumerate(fan.rays) if i != ray_index]
    new_cones = [tuple(sorted(remap[i] for i in cone)) for cone in keep + replacement]
    return validate_fan(fan.dim, new_rays, new_cones)


def _in_open_2cone(r: IntVec, a: IntVec, b: IntVec) -> bool:
    """Whether a, b are independent and r = s a + t b with s, t > 0: for
    n = a x b, r is in their span iff n @ r == 0 (n != 0), and then
    (r x b) @ n = s |n|^2 and (a x r) @ n = t |n|^2, both 0 if n == 0."""
    n = rational.cross3(a, b)
    return (
        rational.dot(n, r) == 0
        and rational.dot(rational.cross3(r, b), n) > 0
        and rational.dot(rational.cross3(a, r), n) > 0
    )


def canonical_key(fan: Fan):
    """A comparable key identifying the fan up to ray relabeling.

    Keys are equal exactly for fans with identical ray sets and identical
    maximal-cone sets after sorting the rays lexicographically and
    renumbering. No quotient by lattice automorphisms is taken.
    """
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    rank = {old: new for new, old in enumerate(order)}
    rays_sorted = tuple(fan.rays[i] for i in order)
    cones = tuple(
        sorted(tuple(sorted(rank[i] for i in cone)) for cone in fan.max_cones)
    )
    return (fan.dim, rays_sorted, cones)


def change_basis(fan: Fan, matrix) -> Fan:
    """Apply an invertible integer coordinate change to every ray."""
    new_rays = [rational.mat_vec(matrix, v) for v in fan.rays]
    return validate_fan(fan.dim, new_rays, fan.max_cones)
