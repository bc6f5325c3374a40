"""Independent exact oracles that the tests check the package against.

`feasible_by_basis_enumeration` decides ``A x >= b`` by scanning basic
solutions of row subsets, with no code in common with `lp.solve_system`.
`int_det` (a Bareiss determinant of any size) and `rref` serve it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence


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
