"""Simplicial lattice fans in R^3 in exact integer/rational arithmetic.

A fan is stored as its list of primitive ray generators together with the
maximal cones, each a sorted tuple of three ray indices; ``Fan.dim`` is 3.
Fans are immutable; every operation is a pure function returning new
values, so fans are safe to share between threads. A `Fan` only adds lazily
built lookup tables (`faces`, `face_census`), which are the same whichever
thread builds them and are never mutated. A wall circuit comes from four
3x3 determinants, read off two cross products (`wall_circuit`), and is
computed on each call; no `Fan` stores circuits.

Only simplicial fans are representable: a maximal cone with linearly
dependent generators is rejected at validation rather than supported. Only
input, fan files and catalog builds, goes through `validate_fan`; every
other fan is built directly, by a construction known to keep it valid.

`validate_fan` decides a closed fan locally (`_tiles`). The fan is valid
when (a) every 2-face lies in exactly two cones, (b) across every wall the
two off rays lie on opposite sides of the wall's plane and (c) exactly one
cone holds the seed, a point on no face plane (`_seed`); every complete fan
meets all three. Why that suffices: orient each cone so that its
determinant is positive. By (b) the two cones on a wall induce opposite
orientations on it, so the cones form a closed, consistently oriented
surface whose radial map to the sphere has a degree. A point that moves
off the rays across walls leaves one cone of each wall it crosses and
enters the other, so every point on no face plane lies in the same number
of cones, and by (c) that number is 1. So the interiors are disjoint and
cover R^3. A closed surface of cones with disjoint interiors glues face to
face (De Loera, Rambau & Santos, *Triangulations*, 2010): if cones A and B
met in more than a common face, a ray r of one, say B, would lie in the
relative interior of A or of a 2-face G of A; G lies in exactly one other
cone A', on the far side of G, so A and A' cover a neighbourhood of r, B
is neither, and its interior near r meets the interior of A or of A'.
Whether cone interiors overlap is decided by one pass over the planes
through two rays (`_planes`), which the enumerator runs on its whole ray
set and `interiors_overlap` on two cones' own rays. `validate_fan` decides
any other fan, such as one with a boundary face, from that pass and the
location of every ray (`_cones_containing`): cones A and B glue face to
face iff their interiors are disjoint and neither holds a ray of the other
that is not its own. Why: with disjoint interiors some plane H has them
on opposite closed sides, so A and B meet where their faces on H meet, and
two cones of dimension at most 2 in one plane meet in more than a common
face only if one holds an extreme ray of the other that is not its own.
The first failing pair in cone order is named.
Which maximal cones hold a point is decided in integers too, by the signs
of its numerators against each cone's dual normals, the rows of its
adjugate (`_cone_inverses`), stopping at the first of opposite sign to the
determinant (`_cones_containing`); primitive relations (`_relation`),
`star_subdivide` and that test of open fans use it. Callers that locate
many points (every primitive relation, every ray) build that table once,
as a list; one point reads it lazily, and no `Fan` stores it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

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

    Input enters through `validate_fan`; `star_subdivide`, `contract_ray`,
    `change_basis` and `surgery`'s wall exchanges build their fans directly.
    """

    dim: ClassVar[int] = 3
    rays: tuple[IntVec, ...]
    max_cones: tuple[ConeTuple, ...]

    @cached_property
    def face_census(self) -> dict[ConeTuple, tuple[int, ...]]:
        """Positions of the maximal cones containing each (dim-1)-face."""
        census: dict[ConeTuple, list[int]] = {}
        for pos, cone in enumerate(self.max_cones):
            for face in itertools.combinations(cone, self.dim - 1):
                census.setdefault(face, []).append(pos)
        return {f: tuple(ps) for f, ps in census.items()}

    @cached_property
    def faces(self) -> frozenset[ConeTuple]:
        """Every nonempty cone of the fan as a sorted index tuple: the rays
        ``(i,)``, the (dim-1)-faces of `face_census` and the maximal cones."""
        singletons = ((i,) for i in range(len(self.rays)))
        return frozenset(itertools.chain(singletons, self.face_census, self.max_cones))


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
    geometric checks run in exact integer arithmetic. Cones are stored
    sorted, the cone list sorted lexicographically.

    After the input checks the local test `_tiles` accepts a closed fan
    whose walls each have their off rays on opposite sides and whose seed
    lies in one cone; the module docstring proves such a fan valid. Any
    other fan is decided by `_planes` and `_cones_containing`, as that
    docstring says, and `OverlapError` names the first pair of cones, in
    cone order, that does not glue. The `Fan` returned is the one `_tiles`
    checked, so its `face_census` is already built.
    """
    fan = Fan(*_checked_input(dim, raw_rays, raw_cones))
    if not _tiles(fan):
        cones = fan.max_cones
        masks = [sum(1 << i for i in cone) for cone in cones]
        disjoint, _ = _planes(fan.rays, masks)
        inverses = list(_cone_inverses(fan))
        foreign = dict.fromkeys(cones, 0)  # rays each cone holds, not its own
        for i, v in enumerate(fan.rays):
            for cone, _, _ in _cones_containing(fan, v, inverses):
                if i not in cone:
                    foreign[cone] |= 1 << i
        for (x, ca), (y, cb) in itertools.combinations(enumerate(cones), 2):
            if not disjoint[x] >> y & 1 or foreign[ca] & masks[y] or foreign[cb] & masks[x]:
                raise OverlapError(ca, cb)
    return fan


def _checked_input(dim: int, raw_rays, raw_cones):
    """Every check of `validate_fan` that comes before gluing; returns the
    rays and the sorted cones as tuples."""
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

    return tuple(rays), tuple(cones)


def _is_int_list(raw) -> bool:
    """A list or tuple of ints; ``type`` is exact so that bools are rejected."""
    return isinstance(raw, (list, tuple)) and all(type(x) is int for x in raw)


def _tiles(fan: Fan) -> bool:
    """The local test of `validate_fan` on cones with nonzero determinants:
    (a) every 2-face of `face_census` lies in exactly two cones, (b) the two
    off rays of every wall, each a cone's index sum minus the face's, have
    opposite signs against the cross product of its rays, and (c) exactly
    one cone holds the `_seed` of the face planes. True means the cones tile
    R^3 face to face (module docstring); False decides nothing."""
    rays, cones = fan.rays, fan.max_cones
    normals = []
    for (a, b), positions in fan.face_census.items():
        if len(positions) != 2:
            return False
        pa, pb = positions
        h = rational.cross3(rays[a], rays[b])
        c, d = sum(cones[pa]) - a - b, sum(cones[pb]) - a - b
        if rational.dot(h, rays[c]) * rational.dot(h, rays[d]) > 0:
            return False
        normals.append(h)
    return len(list(_cones_containing(fan, _seed(normals)))) == 1


def _seed(normals: Sequence[IntVec]) -> IntVec:
    """The point (1, t, t^2) for the least t >= 1 on none of the planes with
    these nonzero normals; a plane holds at most two such points."""
    return next(
        p
        for p in ((1, t, t * t) for t in itertools.count(1))
        if all(rational.dot(h, p) for h in normals)
    )


def interiors_overlap(rays: Sequence[IntVec], cone_a: ConeTuple, cone_b: ConeTuple) -> bool:
    """Whether two full-dimensional simplicial cones share an interior point,
    decided by `_planes` on the six rays of the two cones."""
    for cone in (cone_a, cone_b):
        if rational.determinant([rays[i] for i in cone]) == 0:
            raise ValueError("cones must be full-dimensional")
    rows, _ = _planes([rays[i] for i in (*cone_a, *cone_b)], (0b111, 0b111000))
    return not rows[0] & 0b10


def _planes(rays: Sequence[IntVec], masks: Sequence[int]) -> tuple[list[int], int]:
    """The compatibility rows and the root mask of the cones with ray masks
    ``masks`` (bit i for ``rays[i]``), from one pass over the planes through
    two non-opposite rays.

    On each plane, ``above`` is the cones with no ray strictly below it and
    ``below`` those with no ray strictly above; each of ``above`` ORs the
    mask of ``below`` into its row, and the reverse. So bit y of row x says
    that some plane has cones x and y on opposite closed sides, and that is
    exact: two full-dimensional cones have disjoint interiors iff such a
    plane exists. The normals of those planes form a pointed cone whose
    extreme rays are the facet normals of both cones and the normals of the
    planes through one ray of each, so each extreme one is the normal of a
    plane through two rays. Opposite rays span no plane and give no normal.

    The seed is the `_seed` of these planes. Each plane drops from the
    roots the side that does not hold the seed. A cone that misses the seed
    has a negative coordinate against some ray c, and the facet plane
    opposite c has the cone on its closed far side, so the roots are the
    cones holding the seed, and each complete fan on ``rays`` has exactly
    one of them.
    """
    normals = [
        h
        for i, j in itertools.combinations(range(len(rays)), 2)
        if any(h := rational.cross3(rays[i], rays[j]))
    ]
    seed = _seed(normals)
    rows = [0] * len(masks)
    roots = (1 << len(masks)) - 1
    for h0, h1, h2 in normals:
        signs = [h0 * w0 + h1 * w1 + h2 * w2 for w0, w1, w2 in rays]
        up = sum(1 << w for w, s in enumerate(signs) if s > 0)
        down = sum(1 << w for w, s in enumerate(signs) if s < 0)
        above = [x for x, m in enumerate(masks) if not m & down]
        below = [x for x, m in enumerate(masks) if not m & up]
        above_mask = sum(1 << x for x in above)
        below_mask = sum(1 << x for x in below)
        for x in above:
            rows[x] |= below_mask
        for x in below:
            rows[x] |= above_mask
        seed_above = h0 * seed[0] + h1 * seed[1] + h2 * seed[2] > 0
        roots &= ~(below_mask if seed_above else above_mask)
    return rows, roots


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
    census, cones = fan.face_census, fan.max_cones
    unmatched = sorted(f for f, ps in census.items() if len(ps) != 2)
    if unmatched or not cones:
        raise UnmatchedWallError(unmatched)
    out = []
    for a, b in sorted(census):
        pa, pb = census[a, b]
        ca, cb = sorted((cones[pa], cones[pb]))
        # an off ray is its cone's index sum minus the face's
        out.append(Wall((a, b), (ca, cb), (sum(ca) - a - b, sum(cb) - a - b)))
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
    + det(a,b,d) c - det(a,b,c) d = 0, which fixes it up to sign and gcd;
    the four determinants are dot products with a x b and c x d. Each call
    computes the circuit and checks it positive on the off rays.
    """
    (p, q), (r, s) = wall.rays, wall.off_rays
    rays = fan.rays
    a, b, c, d = rays[p], rays[q], rays[r], rays[s]
    (h0, h1, h2), (k0, k1, k2) = rational.cross3(a, b), rational.cross3(c, d)
    lam = [
        b[0] * k0 + b[1] * k1 + b[2] * k2,
        -(a[0] * k0 + a[1] * k1 + a[2] * k2),
        h0 * d[0] + h1 * d[1] + h2 * d[2],
        -(h0 * c[0] + h1 * c[1] + h2 * c[2]),
    ]
    if lam[2] < 0:
        lam = [-x for x in lam]
    if not (lam[2] > 0 and lam[3] > 0):
        raise AssertionError(f"circuit of wall {wall.rays} is not positive on its off rays")
    g = math.gcd(*lam)
    dense = [0] * len(rays)
    dense[p], dense[q], dense[r], dense[s] = (x // g for x in lam)
    return tuple(dense)


def primitive_collections(fan: Fan) -> tuple[ConeTuple, ...]:
    """All inclusion-minimal sets of rays spanning no cone of the fan.

    Ordered by (size, lexicographic). Every proper subset of a minimal
    non-face is a face, and a face of a simplicial 3-fan has at most 3 rays,
    so the collections are read off the edge graph (the 2-faces, the keys of
    `face_census`): the pairs of rays that are not an edge, the triangles of
    the graph that are not maximal cones, and the 4-sets whose four triples
    are all maximal cones. Those four cones form a closed surface, which no
    further cone can meet without overlapping them, so only the fan of P3
    has such a set; each is found from its least three rays' cone.
    """
    edges = fan.face_census
    near: list[set[int]] = [set() for _ in fan.rays]
    for a, b in edges:
        near[a].add(b)
        near[b].add(a)
    cones = set(fan.max_cones)
    pairs = [e for e in itertools.combinations(range(len(fan.rays)), 2) if e not in edges]
    triangles = [
        (a, b, c)
        for a, b in sorted(edges)
        for c in sorted(near[a] & near[b])
        if c > b and (a, b, c) not in cones
    ]
    quads = sorted(
        (a, b, c, d)
        for a, b, c in fan.max_cones
        for d in near[a] & near[b] & near[c]
        if d > c and {(a, b, d), (a, c, d), (b, c, d)} <= cones
    )
    return (*pairs, *triangles, *quads)


def _is_primitive(fan: Fan, col: ConeTuple) -> bool:
    """Whether the sorted indices ``col`` are a primitive collection: at least
    two distinct rays that span no face while every subset one ray smaller does."""
    faces = fan.faces
    return (
        len(set(col)) == len(col) >= 2
        and col not in faces
        and all(sub in faces for sub in itertools.combinations(col, len(col) - 1))
    )


def primitive_relation(fan: Fan, collection) -> PrimitiveRelation:
    """Express the generator sum of a primitive collection in its containing cone.

    The sum of the collection's rays lies in the relative interior of a unique
    cone; on smooth fans the resulting coefficients are positive integers. A
    zero sum is reported as a fiber-type relation with empty target. The
    argument, the fan's smoothness and the collection are checked here;
    `_relation` does the rest.
    """
    if not _is_int_list(collection):
        raise FanValidationError(f"collection {collection!r} is not a list of ray indices")
    col = tuple(sorted(collection))
    _require_smooth(fan)
    if not _is_primitive(fan, col):
        raise ValueError(f"{col} is not a primitive collection of this fan")
    return _relation(fan, col)


def _require_smooth(fan: Fan) -> None:
    """Raise `NotSmoothError` unless the fan is smooth, as primitive
    relations need."""
    if not is_smooth(fan):
        raise NotSmoothError("primitive relations need integer coefficients, so a smooth fan")


def _relation(fan: Fan, col: ConeTuple, inverses=None) -> PrimitiveRelation:
    """`primitive_relation` of a sorted primitive collection ``col`` of a
    smooth fan, neither of which is checked: callers that have checked the
    fan once call this for each collection, with one list of the fan's
    `_cone_inverses` for all of them."""
    total = tuple(map(sum, zip(*(fan.rays[i] for i in col))))
    if not any(total):
        return PrimitiveRelation(col, (), ())
    for cone, d, numerators in _cones_containing(fan, total, inverses):
        target = [(i, n) for i, n in zip(cone, numerators) if n > 0]
        if any(n % d for _, n in target):
            raise AssertionError(f"relation of {col} has non-integral coefficients")
        return PrimitiveRelation(
            col,
            tuple(i for i, _ in target),
            tuple(n // d for _, n in target),
        )
    raise NotCompleteError(f"the ray sum {total} lies in no cone of the fan")


def _cone_inverses(fan: Fan):
    """Yield ``(cone, d, p, q, r)`` per maximal cone, in cone order: d is
    the determinant of its rays a, b, c and p, q, r are the adjugate rows
    b x c, c x a, a x b, so a point's numerators in the cone, over d, are its
    dot products with them (`rational.dual_normals`, which raises ValueError
    for dependent rays). Lazy for one point; a caller locating many makes it
    a list once."""
    rays = fan.rays
    for cone in fan.max_cones:
        d, p, q, r = rational.dual_normals([rays[i] for i in cone])
        yield cone, d, p, q, r


def _cones_containing(fan: Fan, v: IntVec, inverses=None):
    """Yield ``(cone, d, numerators)`` for each maximal cone holding v, in
    cone order: d > 0 is the cone's determinant up to sign and v is
    sum(n_j / d * rays[cone[j]]) with every n_j >= 0, positive exactly on the
    rays of the face whose relative interior holds v. Integer arithmetic
    only: each cone of ``inverses`` (by default the lazy `_cone_inverses`)
    costs at most three dot products, and the first of opposite sign to the
    determinant rules it out."""
    x, y, z = v
    for cone, d, (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) in (
        _cone_inverses(fan) if inverses is None else inverses
    ):
        n0 = p0 * x + p1 * y + p2 * z
        if n0 * d < 0:
            continue
        n1 = q0 * x + q1 * y + q2 * z
        if n1 * d < 0:
            continue
        n2 = r0 * x + r1 * y + r2 * z
        if n2 * d < 0:
            continue
        if d < 0:
            d, n0, n1, n2 = -d, -n0, -n1, -n2
        yield cone, d, (n0, n1, n2)


def star_subdivide(fan: Fan, new_ray) -> Fan:
    """Refine the fan along a new primitive ray (the toric blow-up).

    Every maximal cone containing the ray is replaced by the joins of the ray
    with the facets not containing it; all other cones are untouched. That
    stellar edit keeps a fan valid, and swapping ray i for the new ray scales
    a cone's determinant by n_i / d > 0, so the result is not revalidated.
    """
    if not _is_int_list(new_ray) or len(new_ray) != fan.dim:
        raise FanValidationError(f"subdivision ray {new_ray!r} is not an integer 3-vector")
    v = tuple(new_ray)
    if not rational.is_primitive(v):
        raise NonPrimitiveRayError(f"subdivision ray {v} is zero or not primitive")
    if v in fan.rays:
        raise RayExistsError(f"{v} is already a ray of the fan")
    new_index = len(fan.rays)
    touched = {cone: numerators for cone, _, numerators in _cones_containing(fan, v)}
    if not touched:
        raise NotInSupportError(f"{v} lies in no cone of the fan")
    cones_out = [cone for cone in fan.max_cones if cone not in touched]
    for cone, numerators in touched.items():
        for i, n in zip(cone, numerators):
            if n > 0:
                cones_out.append(tuple(j for j in cone if j != i) + (new_index,))
    return Fan(fan.rays + (v,), tuple(sorted(cones_out)))


def contract_ray(fan: Fan, ray_index: int) -> Fan:
    """Remove a ray whose star has one of the two supported blow-down shapes.

    P1: the link is a triangle, and the star collapses to the cone on it.
    P2: the link is a 4-cycle (x, a, y, b), and the star collapses to
    (a, b, x) and (a, b, y) for the first diagonal (a, b) in index order.
    The ray's Cramer numerators in the first new cone decide: all positive
    for P1, positive on a and b and zero on x for P2; a zero determinant
    refuses. (A 2-face of a valid fan lies in at most two cones, so three
    link edges on three rays are a triangle and four on four a 4-cycle.)
    This is exact: subdividing the new cones at the ray gives exactly the
    star's cones, so they cover the same region, and no kept cone contains
    the ray. So the result is a valid fan whose subdivision is the input.
    """
    if type(ray_index) is not int or not 0 <= ray_index < len(fan.rays):
        raise FanValidationError(f"no ray with index {ray_index!r}")
    star = [cone for cone in fan.max_cones if ray_index in cone]
    link_edges = [tuple(i for i in cone if i != ray_index) for cone in star]
    vertices = sorted({i for e in link_edges for i in e})
    if len(star) == len(vertices) == 3:
        candidates = [(vertices, [tuple(vertices)])]
        refusal = f"ray {ray_index} is not interior to the cone on its link"
    elif len(star) == len(vertices) == 4:
        candidates = [
            ((a, b), [tuple(sorted((a, b, x))) for x in vertices if x not in (a, b)])
            for a, b in itertools.combinations(vertices, 2)
            if (a, b) not in link_edges
        ]
        refusal = f"ray {ray_index} is not interior to a diagonal of its link"
    else:
        raise UnsupportedStarPatternError(
            f"the star of ray {ray_index} is neither a triangle nor a 4-cycle"
        )
    for inside, new in candidates:  # the rays to be interior to, the new cones
        first = [fan.rays[i] for i in new[0]]
        if rational.determinant(first) == 0:  # as on a coplanar link
            continue
        d, nums = rational.cramer_numerators(first, fan.rays[ray_index])
        if all(d * n > 0 if i in inside else n == 0 for i, n in zip(new[0], nums)):
            cones = [c for c in fan.max_cones if ray_index not in c] + new
            cones = sorted(tuple(i - (i > ray_index) for i in c) for c in cones)
            return Fan(fan.rays[:ray_index] + fan.rays[ray_index + 1 :], tuple(cones))
    raise UnsupportedStarPatternError(refusal)


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
    """Apply an invertible integer coordinate change, three lists or tuples
    of three ints each, to every ray. An invertible linear map keeps the rays
    distinct, the cones independent and the gluing proper, so primitivity is
    the only check it can fail."""
    if not isinstance(matrix, (list, tuple)) or len(matrix) != 3 or not all(
        _is_int_list(row) and len(row) == 3 for row in matrix
    ):
        raise FanValidationError(f"change_basis needs a 3x3 integer matrix, got {matrix!r}")
    if rational.determinant(matrix) == 0:
        raise FanValidationError(f"change_basis needs an invertible matrix, got {matrix!r}")
    new_rays = tuple(rational.mat_vec(matrix, v) for v in fan.rays)
    for v in new_rays:
        if not rational.is_primitive(v):
            raise NonPrimitiveRayError(f"ray {v} is zero or not primitive")
    return Fan(new_rays, fan.max_cones)
