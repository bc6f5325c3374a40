"""Independent exact oracles that the tests check the package against.

`feasible_by_basis_enumeration` decides ``A x >= b`` by scanning basic
solutions of row subsets, with no code in common with `lp.solve_system`.
`int_det` (a Bareiss determinant of any size) and `rref` serve it.
`solve_system_bareiss` is `lp.solve_system` as it was with one common
denominator: the same pivots, so the same outcome and certificate values.
`contract_by_link_geometry` decides a blow-down by where the ray sits in
its link, with no round trip through `star_subdivide`;
`contract_by_round_trip` is `contract_ray` as it was before it built its
fan directly: `validate_fan` on each candidate, then a star subdivision
that must give back the input. `change_basis_by_validate_fan` runs the
image rays and the same cones through `validate_fan`.
`fraction_cramer` and `cones_containing_by_fraction_cramer` locate a point
in the cones of a fan by Fraction coordinates from Cramer's rule, with no
dual normals; `relation_by_fraction_cramer` and
`star_cones_by_fraction_cramer` build a primitive relation and a star
subdivision from that location.
`interiors_overlap_by_separation` is `fan.interiors_overlap` as it was
before it ran `fan._planes`: it looks for a separating plane among the
cross products of the two cones' rays, one of them a shared ray if any.
`enumerate_by_lists` is the enumeration backtracker as it was before it
moved to bitsets, with its own `_seed_point`, and its overlap matrix comes
from `interiors_overlap_by_separation`.
`_properly_glued` is the pairwise gluing test `validate_fan` ran before
it decided closed fans locally and open ones from `fan._planes` and ray
location: it looks for a strictly separating plane among the cross
products of two cones' rays. `validate_by_pairwise_scan` runs it on every
pair of cones after `validate_fan`'s input checks, so it decides every fan
with no code in common with `validate_fan`'s gluing rules.
`primitive_collections_by_scan` is `primitive_collections` as it was before
it read the edge graph: every set of 2 to 4 rays (or of any size) is tested
against the subsets of the maximal cones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from toricfans import rational, star_subdivide, validate_fan
from toricfans.enumeration import EnumerationReport
from toricfans.errors import (
    FanValidationError,
    NotInSupportError,
    OverlapError,
    UnsupportedStarPatternError,
)
from toricfans.fan import (
    ConeTuple,
    Fan,
    IntVec,
    _checked_input,
    canonical_key,
    is_complete,
    is_smooth,
)
from toricfans.lp import FarkasCertificate, FeasiblePoint


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return a, pivots


def feasible_by_basis_enumeration(
    rows: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]
) -> bool:
    """Independent feasibility oracle: scan basic solutions of row subsets.

    The system is first restricted to the pivot columns of its coefficient
    matrix, which removes the lineality space, so a nonempty feasible region
    has a vertex and every vertex is the unique solution of some k linearly
    independent tight rows. Rational right-hand sides are scaled by the lcm
    of their denominators, which keeps the feasible region's shape. Exact
    integer arithmetic throughout (Cramer with fraction-free determinants;
    comparisons cleared of denominators).
    """
    m = len(rows)
    if m == 0:
        return True
    _, pivots = rref(rows)
    if not pivots:
        return all(Fraction(r) <= 0 for r in rhs)
    a = [[int(row[c]) for c in pivots] for row in rows]
    common = lcm(*(Fraction(r).denominator for r in rhs))
    b = [int(Fraction(r) * common) for r in rhs]
    k = len(pivots)

    for subset in itertools.combinations(range(m), k):
        d = int_det([a[i] for i in subset])
        if d == 0:
            continue
        # Cramer numerators: x_j = num[j] / d
        num = [
            int_det(
                [
                    [b[i] if c == j else a[i][c] for c in range(k)]
                    for i in subset
                ]
            )
            for j in range(k)
        ]
        sign = 1 if d > 0 else -1
        scale = abs(d)
        if all(
            sign * sum(a[i][c] * num[c] for c in range(k)) >= b[i] * scale
            for i in range(m)
        ):
            return True
    return False


def solve_system_bareiss(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> FeasiblePoint | FarkasCertificate:
    """`lp.solve_system` as it was before its rows became primitive vectors
    each known up to a positive scale: the same Phase I simplex on the
    Farkas dual with Bland's rule, but every tableau entry is an integer over
    one common denominator, so each fraction-free (Edmonds/Bareiss) pivot
    rewrites every row. Both follow the same pivots, so their outcomes,
    certificate values included, must be equal. Expects a valid system."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Constraint k < n is column k of `rows` (y @ rows == 0); constraint n is
    # y @ rhs == 1. Columns: y_0..y_{m-1}, then one artificial per constraint,
    # then the right-hand side. Every entry is an integer over the common
    # denominator `denom`, and the last row holds the reduced costs of the
    # Phase I objective (the sum of the artificials).
    tableau = [
        [row[k] for row in rows] + [int(k == j) for j in range(n + 1)] + [0]
        for k in range(n)
    ]
    tableau.append(list(rhs) + [int(j == n) for j in range(n + 1)] + [1])
    tableau.append([-sum(t[j] for t in tableau) for j in range(m)] + [0] * (n + 1) + [-1])
    cost = tableau[-1]
    basis = list(range(m, m + n + 1))
    denom = 1
    while cost[-1] != 0:
        # Bland: the first y column with negative reduced cost enters. An
        # artificial that has left never re-enters, so only y columns compete.
        enter = next((j for j in range(m) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: minimum ratio, ties to the smallest basic index, compared
        # by cross-multiplication. The Phase I objective is bounded below
        # by 0, so an improving column has a positive entry.
        out = None
        for i in range(n + 1):
            a = tableau[i][enter]
            if a > 0 and (
                out is None
                or (d := tableau[i][-1] * tableau[out][enter] - tableau[out][-1] * a) < 0
                or (d == 0 and basis[i] < basis[out])
            ):
                out = i
        pivot_row = tableau[out]
        pivot = pivot_row[enter]
        for i, row in enumerate(tableau):
            f = row[enter]
            # A row with f == 0 only scales by pivot / denom: often by 1.
            if i != out and (f or pivot != denom):
                tableau[i] = [(v * pivot - f * u) // denom for v, u in zip(row, pivot_row)]
        cost = tableau[-1]
        basis[out] = enter
        denom = pivot

    if cost[-1] == 0:
        y = [Fraction(0)] * m
        for i, j in enumerate(basis):
            if j < m:
                y[j] = Fraction(tableau[i][-1], denom)
        return FarkasCertificate(tuple(y))
    # Simplex multipliers w_k = 1 - (reduced cost of artificial k), here
    # times denom. The y columns' reduced costs are >= 0, so row by row
    # rows @ w[:n] + w[n] * rhs <= 0, and the positive objective is w[n];
    # hence x = -w[:n] / w[n] is feasible.
    w = [denom - c for c in cost[m : m + n + 1]]
    return FeasiblePoint(tuple(Fraction(-w[k], w[n]) for k in range(n)))


def _det3(a, b, c):
    """The 3x3 determinant by the rule of Sarrus; `int_det` would make the
    catalog-grid sweep of the cone location several times slower."""
    return (
        a[0] * b[1] * c[2] + b[0] * c[1] * a[2] + c[0] * a[1] * b[2]
        - c[0] * b[1] * a[2] - a[0] * c[1] * b[2] - b[0] * a[1] * c[2]
    )


def fraction_cramer(vectors, target) -> tuple[Fraction, ...]:
    """Coordinates of ``target`` in the basis ``vectors`` by Cramer's rule,
    as Fractions; ValueError for a singular basis or a shape other than
    three 3-vectors and a 3-vector target."""
    if len(vectors) != 3 or any(len(v) != 3 for v in [*vectors, target]):
        raise ValueError("needs three 3-vectors and a 3-vector target")
    a, b, c = vectors
    d = _det3(a, b, c)
    if d == 0:
        raise ValueError("singular basis")
    return (
        Fraction(_det3(target, b, c), d),
        Fraction(_det3(a, target, c), d),
        Fraction(_det3(a, b, target), d),
    )


def cones_containing_by_fraction_cramer(fan, v) -> list:
    """``[(cone, coordinates)]`` for every maximal cone, in cone order, in
    which the Fraction coordinates of v are all >= 0."""
    out = []
    for cone in fan.max_cones:
        coords = fraction_cramer([fan.rays[i] for i in cone], v)
        if all(c >= 0 for c in coords):
            out.append((cone, coords))
    return out


def relation_by_fraction_cramer(fan, col) -> tuple[tuple, tuple]:
    """``(target_rays, coefficients)`` of the primitive relation of ``col``:
    the positive coordinates of its ray sum in the first cone holding it."""
    total = [sum(fan.rays[i][k] for i in col) for k in range(3)]
    if not any(total):
        return (), ()
    cone, coords = cones_containing_by_fraction_cramer(fan, total)[0]
    target = [(i, c) for i, c in zip(cone, coords) if c > 0]
    return tuple(i for i, _ in target), tuple(c for _, c in target)


def star_cones_by_fraction_cramer(fan, v):
    """The sorted maximal cones of the star subdivision at a new ray v, which
    gets the next index, or None when v lies in no cone."""
    new_index = len(fan.rays)
    hits = dict(cones_containing_by_fraction_cramer(fan, v))
    if not hits:
        return None
    cones = [cone for cone in fan.max_cones if cone not in hits]
    for cone, coords in hits.items():
        cones += [
            tuple(sorted((set(cone) - {i}) | {new_index}))
            for i, c in zip(cone, coords)
            if c > 0
        ]
    return sorted(cones)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _in_open_2cone(r, a, b) -> bool:
    """Whether a, b are independent and r = s a + t b with s, t > 0: for
    n = a x b, r is in their span iff n @ r == 0 (n != 0), and then
    (r x b) @ n = s |n|^2 and (a x r) @ n = t |n|^2, both 0 if n == 0."""
    n = _cross(a, b)
    return _dot(n, r) == 0 and _dot(_cross(r, b), n) > 0 and _dot(_cross(a, r), n) > 0


def contract_by_link_geometry(fan, ray_index):
    """Blow down ray ``ray_index`` by the position of the ray in its link.

    A triangle link (a, b, c) is accepted when Cramer's rule puts the ray
    strictly inside cone(a, b, c); a 4-cycle link when the ray lies in the
    open 2-cone on one of its diagonals, the first in index order. Raises
    `UnsupportedStarPatternError` with `contract_ray`'s messages otherwise.
    """
    star = [cone for cone in fan.max_cones if ray_index in cone]
    keep = [cone for cone in fan.max_cones if ray_index not in cone]
    link_edges = [tuple(i for i in cone if i != ray_index) for cone in star]
    vertices = sorted({i for e in link_edges for i in e})
    simple = len(set(link_edges)) == len(link_edges) and all(
        sum(i in e for e in link_edges) == 2 for i in vertices
    )
    r = fan.rays[ray_index]
    if simple and len(star) == 3 and len(vertices) == 3:
        basis = [fan.rays[i] for i in vertices]
        d = int_det(basis)
        nums = [int_det(basis[:j] + [r] + basis[j + 1 :]) for j in range(3)]
        if d == 0 or not all(num * d > 0 for num in nums):
            raise UnsupportedStarPatternError(
                f"ray {ray_index} is not interior to the cone on its link"
            )
        replacement = [tuple(vertices)]
    elif simple and len(star) == 4 and len(vertices) == 4:
        diagonals = [
            (a, b)
            for a, b in itertools.combinations(vertices, 2)
            if (a, b) not in link_edges and _in_open_2cone(r, fan.rays[a], fan.rays[b])
        ]
        if not diagonals:
            raise UnsupportedStarPatternError(
                f"ray {ray_index} is not interior to a diagonal of its link"
            )
        a, b = diagonals[0]
        replacement = [tuple(sorted((a, b, x))) for x in vertices if x not in (a, b)]
    else:
        raise UnsupportedStarPatternError(
            f"the star of ray {ray_index} is neither a triangle nor a 4-cycle"
        )
    new_rays = [v for i, v in enumerate(fan.rays) if i != ray_index]
    new_cones = [
        [i - (i > ray_index) for i in cone] for cone in keep + replacement
    ]
    return validate_fan(3, new_rays, new_cones)


def contract_by_round_trip(fan: Fan, ray_index: int) -> Fan:
    """Remove a ray whose star has one of the two supported blow-down shapes.

    Pattern P1: the link is a triangle; the three star cones collapse to the
    cone on the link. Pattern P2: the link is a 4-cycle (x, a, y, b); the
    four star cones collapse to (a, b, x) and (a, b, y) for a diagonal
    (a, b), tried in index order. A candidate is returned only when it is a
    valid fan and star subdivision along the removed ray gives back the
    input exactly, which holds iff the ray is interior to the cone on the
    triangle or to the 2-cone on the diagonal.
    """
    if type(ray_index) is not int or not 0 <= ray_index < len(fan.rays):
        raise FanValidationError(f"no ray with index {ray_index!r}")
    star = [cone for cone in fan.max_cones if ray_index in cone]
    keep = [cone for cone in fan.max_cones if ray_index not in cone]
    link_edges = [tuple(i for i in cone if i != ray_index) for cone in star]
    vertices = sorted({i for e in link_edges for i in e})
    degrees = {i: sum(i in e for e in link_edges) for i in vertices}
    simple = len(set(link_edges)) == len(link_edges) and all(
        d == 2 for d in degrees.values()
    )

    candidates: list[list[ConeTuple]]
    if simple and len(star) == 3 and len(vertices) == 3:
        candidates = [[tuple(vertices)]]
        refusal = f"ray {ray_index} is not interior to the cone on its link"
    elif simple and len(star) == 4 and len(vertices) == 4:
        candidates = [
            [tuple(sorted((a, b, x))) for x in vertices if x not in (a, b)]
            for a, b in itertools.combinations(vertices, 2)
            if (a, b) not in link_edges
        ]
        refusal = f"ray {ray_index} is not interior to a diagonal of its link"
    else:
        raise UnsupportedStarPatternError(
            f"the star of ray {ray_index} is neither a triangle nor a 4-cycle"
        )

    removed = fan.rays[ray_index]
    remap = {old: old - (old > ray_index) for old in range(len(fan.rays))}
    new_rays = [v for i, v in enumerate(fan.rays) if i != ray_index]
    for replacement in candidates:
        new_cones = [tuple(remap[i] for i in cone) for cone in keep + replacement]
        try:
            out = validate_fan(fan.dim, new_rays, new_cones)
            if canonical_key(star_subdivide(out, removed)) == canonical_key(fan):
                return out
        except (FanValidationError, NotInSupportError):
            continue
    raise UnsupportedStarPatternError(refusal)


def change_basis_by_validate_fan(fan: Fan, matrix) -> Fan:
    """The image of every ray under ``matrix``, with the same cones, through
    the whole-fan `validate_fan`."""
    return validate_fan(fan.dim, [rational.mat_vec(matrix, v) for v in fan.rays], fan.max_cones)


def _properly_glued(rays: Sequence[IntVec], cone_a: ConeTuple, cone_b: ConeTuple) -> bool:
    """Whether two simplicial cones intersect exactly in their common face.

    Equivalent, by the separation lemma for convex polyhedral cones, to the
    existence of a normal h vanishing on the shared rays with h @ w > 0 on
    every off ray w (those of ``cone_b`` negated). The normals with every
    h @ w >= 0 form a pointed cone (inside the dual of ``cone_a``) whose
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
        total = [t + v for t, v in zip(total, values)]
        if all(t > 0 for t in total):
            return True
    return not off  # with no off rays strictness is vacuous


def validate_by_pairwise_scan(dim, raw_rays, raw_cones) -> Fan:
    """`validate_fan`'s input checks, then `_properly_glued` on every pair of
    cones, raising `OverlapError` for the first pair in cone order that does
    not glue. The gluing test itself is checked against two LP oracles in
    `test_fan`; this scan shares no code with `validate_fan`'s gluing rules
    (`fan._tiles`, `fan._planes`, `fan._cones_containing`)."""
    rays, cones = _checked_input(dim, raw_rays, raw_cones)
    for ca, cb in itertools.combinations(cones, 2):
        if not _properly_glued(rays, ca, cb):
            raise OverlapError(ca, cb)
    return Fan(rays, cones)


def interiors_overlap_by_separation(
    rays: Sequence[tuple[int, ...]], cone_a: ConeTuple, cone_b: ConeTuple
) -> bool:
    """Whether two full-dimensional simplicial cones share an interior point.

    Their interiors are disjoint iff a nonzero normal h vanishing on the
    shared rays has h @ w >= 0 on every off ray w (those of ``cone_b``
    negated). Such normals form a pointed cone whose extreme rays are +-
    cross products of two rays, one of them the first shared ray if any.
    """
    shared = [rays[i] for i in cone_a if i in cone_b]
    off = [rays[i] for i in cone_a if i not in cone_b]
    off += [(-x, -y, -z) for x, y, z in (rays[i] for i in cone_b if i not in cone_a)]
    if shared:
        pairs = [(shared[0], w) for w in shared[1:] + off]
    else:
        pairs = itertools.combinations(off, 2)
    for (u0, u1, u2), (v0, v1, v2) in pairs:
        h0 = u1 * v2 - u2 * v1
        h1 = u2 * v0 - u0 * v2
        h2 = u0 * v1 - u1 * v0
        if not (h0 or h1 or h2):
            continue
        if any(h0 * f0 + h1 * f1 + h2 * f2 for f0, f1, f2 in shared[1:]):
            continue
        values = [h0 * w0 + h1 * w1 + h2 * w2 for w0, w1, w2 in off]
        if any(v < 0 for v in values) and any(v > 0 for v in values):
            continue
        return False
    return True


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


def enumerate_by_lists(raw_rays) -> EnumerationReport:
    """The list-based backtracker that `enumerate_smooth_complete_fans`
    replaced, kept as it was: a boolean compatibility matrix filled by
    `interiors_overlap_by_separation`, a face-count dict and `validate_fan`
    on every closed surface. Both walk the same search tree, so their reports,
    `search_nodes` included, must be equal. Expects valid input."""
    rays = tuple(map(tuple, raw_rays))
    n = len(rays)
    candidates = [
        t
        for t in itertools.combinations(range(n), 3)
        if abs(rational.determinant([rays[i] for i in t])) == 1
    ]
    k = len(candidates)
    compatible = [[True] * k for _ in range(k)]
    for x, y in itertools.combinations(range(k), 2):
        ok = not interiors_overlap_by_separation(rays, candidates[x], candidates[y])
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


def primitive_collections_by_scan(fan: Fan, max_size: int | None = 4) -> tuple[ConeTuple, ...]:
    """Every set of 2 to ``max_size`` rays (any size when None), in (size,
    lexicographic) order, that lies in no maximal cone while every subset
    one ray smaller lies in one or is a single ray."""
    n = len(fan.rays)
    faces = {(i,) for i in range(n)}
    faces.update(
        sub for cone in fan.max_cones for k in (2, 3) for sub in itertools.combinations(cone, k)
    )
    top = n if max_size is None else min(n, max_size)
    return tuple(
        combo
        for size in range(2, top + 1)
        for combo in itertools.combinations(range(n), size)
        if combo[:-1] in faces  # one of the subsets, tested first for speed
        and combo not in faces
        and all(sub in faces for sub in itertools.combinations(combo, size - 1))
    )
