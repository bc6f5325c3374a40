"""Exact feasibility of integer linear-inequality systems, with certificates.

Systems have the form ``A x >= b`` with an integer matrix ``A`` and an
integer ``b``. The one decision procedure, `solve_system`, runs Phase I of
the simplex method on the Farkas dual ``{y >= 0 : y @ A == 0, y @ b == 1}``.
Each tableau row is a primitive integer vector, a positive multiple of its
true row whose factor is not kept, so no `Fraction` is built in the loop: a
pivot rewrites only the rows with a nonzero in the entering column, each as
``row * pivot - f * pivot_row`` over its gcd, and leaves the others as they
are. Only the row of reduced costs keeps its exact scale, because the
feasible point is read from it. Bland's smallest-index rule picks the
entering and the leaving variable, so degenerate pivots cannot cycle, and it
reads only signs and ratios within one row, which no positive factor
changes; a basic column's entry in its own row is that row's factor, so the
multipliers are read exactly too. An infeasible system yields the
basic ``y``: nonnegative Farkas multipliers with ``y @ A == 0`` and
``y @ b > 0``. A feasible one yields a rational point read off the simplex
multipliers of the positive Phase I optimum. `verify_feasible` and
`verify_farkas`, the package's only certificate checks, re-verify both by
direct evaluation, independently of the solver, and also accept a rational
``b``; a witness entry that is not an ``int`` or a ``Fraction`` fails the
check, and a witness of the wrong length raises ValueError.
Both put the witness over one common denominator and compare integer
sums: `verify_feasible` row by row, `verify_farkas` on the combined row.
`fm_feasible` is the same decision without the witness. No LP decides cone
gluing or overlap in `fan`: `validate_fan` decides a closed fan by a local
test of its walls and one seed point, and any other by the overlap pass
`_planes` and the cones `_cones_containing` finds for each ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence


@dataclass(frozen=True)
class FeasiblePoint:
    x: tuple[Fraction, ...]


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative multipliers over the input rows combining them into 0 >= positive."""

    multipliers: tuple[Fraction, ...]


def solve_system(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> FeasiblePoint | FarkasCertificate:
    """Decide feasibility of {x : rows[i] @ x >= rhs[i] for all i}.

    Every coefficient and every right-hand side must be an ``int`` (not a
    bool) and every row must have the same length; anything else raises
    ValueError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError("solve_system needs equally long rows and one right-hand side per row")
    if any(type(c) is not int for row in rows for c in row):
        raise ValueError("solve_system needs int coefficients")
    if any(type(r) is not int for r in rhs):
        raise ValueError("solve_system needs int right-hand sides")
    # Constraint k < n is column k of `rows` (y @ rows == 0); constraint n is
    # y @ rhs == 1. Columns: y_0..y_{m-1}, then one artificial per constraint,
    # then the right-hand side. Each row is a primitive integer vector, a
    # positive multiple of its true row; `cost` holds the reduced costs of
    # the Phase I objective (the sum of the artificials) times `scale`.
    tableau = [
        [row[k] for row in rows] + [int(k == j) for j in range(n + 1)] + [0]
        for k in range(n)
    ]
    tableau.append(list(rhs) + [int(j == n) for j in range(n + 1)] + [1])
    cost = [-sum(col) for col in zip(*tableau)][:m] + [0] * (n + 1) + [-1]
    scale = 1
    basis = list(range(m, m + n + 1))
    while cost[-1] != 0:
        # Bland: the first y column with negative reduced cost enters. An
        # artificial that has left never re-enters, so only y columns compete.
        enter = next((j for j in range(m) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: minimum ratio, ties to the smallest basic index, compared
        # by cross-multiplication; a ratio is read within one row, so its
        # scale drops out. The Phase I objective is bounded below by 0, so
        # an improving column has a positive entry.
        out = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0 and (
                out is None
                or (d := row[-1] * tableau[out][enter] - tableau[out][-1] * a) < 0
                or (d == 0 and basis[i] < basis[out])
            ):
                out = i
        pivot_row = tableau[out]
        pivot = pivot_row[enter]
        # A row with a zero in the entering column keeps its true values;
        # every other one becomes row * pivot - f * pivot_row over its gcd,
        # with no product by a unit pivot, the common case.
        for i, row in enumerate(tableau):
            f = row[enter]
            if f and i != out:
                if pivot == 1:
                    new = [v - f * u for v, u in zip(row, pivot_row)]
                else:
                    new = [v * pivot - f * u for v, u in zip(row, pivot_row)]
                g = gcd(*new)
                tableau[i] = [v // g for v in new] if g > 1 else new
        f = cost[enter]
        new = [v * pivot - f * u for v, u in zip(cost, pivot_row)]
        g = gcd(scale * pivot, *new)
        cost = [v // g for v in new]
        scale = scale * pivot // g
        basis[out] = enter

    if cost[-1] == 0:
        # a basic column holds 1 in its true row, so its entry is the scale
        y = [Fraction(0)] * m
        for row, j in zip(tableau, basis):
            if j < m:
                y[j] = Fraction(row[-1], row[j])
        return FarkasCertificate(tuple(y))
    # Simplex multipliers w_k = 1 - (reduced cost of artificial k), here
    # times scale. The y columns' reduced costs are >= 0, so row by row
    # rows @ w[:n] + w[n] * rhs <= 0, and the positive objective is w[n];
    # hence x = -w[:n] / w[n] is feasible.
    w = [scale - c for c in cost[m : m + n + 1]]
    return FeasiblePoint(tuple(Fraction(-w[k], w[n]) for k in range(n)))


def fm_feasible(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Feasibility alone: whether `solve_system` finds a point."""
    return isinstance(solve_system(rows, rhs), FeasiblePoint)


def _exact(values) -> bool:
    """Whether every entry is an ``int`` or a ``Fraction``; a bool, float or
    string fails a certificate check instead of being evaluated."""
    return all(type(v) is int or isinstance(v, Fraction) for v in values)


def verify_feasible(rows, rhs, x) -> bool:
    """Whether ``row @ x >= r`` for every row, evaluated in integers: x is
    put over one common denominator ``den``, so each row compares
    ``row @ nums`` with ``r * den``."""
    if not _exact(x):
        return False
    den = lcm(*(v.denominator for v in x))
    nums = [v.numerator * (den // v.denominator) for v in x]
    for row, r in zip(rows, rhs, strict=True):
        if len(row) != len(nums):
            raise ValueError("verify_feasible needs one witness entry per column")
        if sum(map(mul, row, nums)) < r * den:
            return False
    return True


def verify_farkas(rows, rhs, multipliers) -> bool:
    """Whether the nonnegative multipliers combine the rows into ``0 >=
    positive``, evaluated in integers: they are put over one common
    denominator ``den``, so the combination is ``sum(num * row)`` and the
    right-hand side ``sum(num * r)``."""
    if not _exact(multipliers) or any(m < 0 for m in multipliers):
        return False
    den = lcm(*(m.denominator for m in multipliers))
    nums = [m.numerator * (den // m.denominator) for m in multipliers]
    combo = [0] * (len(rows[0]) if rows else 0)
    for num, row in zip(nums, rows, strict=True):
        if num:
            combo = [c + num * a for c, a in zip(combo, row, strict=True)]
    total = sum(num * r for num, r in zip(nums, rhs, strict=True))
    return not any(combo) and total > 0
