"""Exact linear algebra over the rationals for small dense matrices.

Everything works on plain tuples/lists of ``int`` or ``fractions.Fraction``;
no floating point is used anywhere. Matrices are given as sequences of rows.

The fan code needs only 3-D closed forms: `cross3`, the 3x3 `determinant`
and the 3x3 Cramer solve `solve_columns`.
`integerize` has no caller in the package; tests use it as a reference and
perfbench's tracer looks the name up.
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


def solve_columns(vectors: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> Vector:
    """Coefficients c with sum(c_i * vectors[i]) == target, by Cramer's rule.

    Needs three linearly independent 3-vectors and a 3-vector target; any
    other shape, or dependent vectors, raise ValueError.
    """
    d = determinant(vectors)
    if d == 0:
        raise ValueError("solve_columns requires linearly independent vectors")
    return tuple(
        Fraction(determinant([target if m == j else v for m, v in enumerate(vectors)]), d)
        for j in range(3)
    )


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
