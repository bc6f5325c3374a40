"""Exact linear algebra over the rationals for small dense matrices.

Everything works on plain tuples/lists of ``int`` or ``fractions.Fraction``;
no floating point is used anywhere. Matrices are given as sequences of rows.

The fan code needs only 3-D closed forms: `cross3`, the 3x3 `determinant`,
`dual_normals` (a basis determinant and its adjugate rows) and
`cramer_numerators`, which writes a point in a 3x3 basis as integer
numerators over the basis determinant, so locating a lattice point in a
cone never builds a `Fraction`. `solve_columns` (the same solve as
`Fraction`s) and `integerize` have no caller in the package; tests use them
as references and perfbench's tracer looks the names up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def is_primitive(v: Sequence[int]) -> bool:
    """True for a nonzero integer vector with coprime coordinates."""
    return vec_gcd(v) == 1


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vector:
    return tuple(dot(row, v) for row in m)


def cross3(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def determinant(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact 3x3 determinant; stays in `int` for integer input."""
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("determinant needs a 3x3 matrix")
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def dual_normals(
    vectors: Sequence[Sequence[Scalar]],
) -> tuple[Scalar, Vector, Vector, Vector]:
    """``(d, p, q, r)`` for vectors a, b, c: d is det(a, b, c) and p, q, r
    are the dual normals b x c, c x a and a x b, the rows of the adjugate,
    so a target's Cramer numerators are its dot products with them. Needs
    three linearly independent 3-vectors; any other shape, or dependent
    vectors, raise ValueError."""
    try:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = vectors
    except ValueError:
        raise ValueError("dual_normals needs three 3-vectors") from None
    p = (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
    d = a0 * p[0] + a1 * p[1] + a2 * p[2]
    if d == 0:
        raise ValueError("dual_normals requires linearly independent vectors")
    q = (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0)
    r = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    return d, p, q, r


def cramer_numerators(
    vectors: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> tuple[Scalar, Vector]:
    """``(d, (n0, n1, n2))`` with ``target == sum(n_j / d * vectors[j])``.

    d and the numerators' normals come from `dual_normals`, so integer input
    stays in `int`. Needs three linearly independent 3-vectors and a
    3-vector target; any other shape, or dependent vectors, raise
    ValueError.
    """
    try:
        v0, v1, v2 = target
    except ValueError:
        raise ValueError("cramer_numerators needs a 3-vector target") from None
    d, (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = dual_normals(vectors)
    return d, (
        v0 * p0 + v1 * p1 + v2 * p2,
        v0 * q0 + v1 * q1 + v2 * q2,
        v0 * r0 + v1 * r1 + v2 * r2,
    )


def solve_columns(vectors: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> Vector:
    """Coefficients c with sum(c_i * vectors[i]) == target, as `Fraction`s.

    A thin wrapper over `cramer_numerators`, with its shape rules.
    """
    d, numerators = cramer_numerators(vectors, target)
    return tuple(Fraction(n, d) for n in numerators)


def integerize(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = vec_gcd(ints)
    return tuple(x // g for x in ints)
