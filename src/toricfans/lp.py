"""Exact feasibility of rational linear-inequality systems, with certificates.

Systems have the form ``A x >= b``. The one decision procedure is
Fourier-Motzkin elimination over the rationals with multiplier bookkeeping
(`solve_system`): a feasible system yields an explicit rational point, an
infeasible one yields nonnegative Farkas multipliers ``mu`` with
``mu @ A == 0`` and ``mu @ b > 0``. `verify_feasible` and `verify_farkas`,
the package's only certificate checks, re-verify them by direct evaluation,
independently of the elimination; a witness of the wrong length raises
ValueError. `fm_feasible` is the same decision without the witness. Cone
gluing and overlap in `fan` are decided by an exact 3-D separation test.

`feasible_by_basis_enumeration` is a deliberately separate oracle (basic
solutions of row subsets) used to cross-check the eliminator in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rational import int_det, rref, vec_gcd


@dataclass(frozen=True)
class FeasiblePoint:
    x: tuple[Fraction, ...]


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative multipliers over the input rows combining them into 0 >= positive."""

    multipliers: tuple[Fraction, ...]


class _Row:
    """One inequality coeffs @ x >= rhs, with its provenance multipliers."""

    __slots__ = ("coeffs", "rhs", "mult")

    def __init__(self, coeffs, rhs, mult):
        self.coeffs = coeffs
        self.rhs = rhs
        self.mult = mult


def _normalized(coeffs, rhs, mult):
    g = vec_gcd(coeffs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs = rhs / g
        mult = tuple(m / g for m in mult)
    return _Row(coeffs, rhs, mult)


def solve_system(
    rows: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]
) -> FeasiblePoint | FarkasCertificate:
    """Decide feasibility of {x : rows[i] @ x >= rhs[i] for all i}."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    active: list[_Row] = []
    for i in range(m):
        unit = tuple(Fraction(1 if j == i else 0) for j in range(m))
        row = _normalized(tuple(int(c) for c in rows[i]), Fraction(rhs[i]), unit)
        active.append(row)

    def sift(candidates: list[_Row]):
        # Drop satisfied 0 >= rhs rows, catch contradictions, keep the
        # strongest representative of each coefficient pattern.
        best: dict[tuple[int, ...], _Row] = {}
        for row in candidates:
            if all(c == 0 for c in row.coeffs):
                if row.rhs > 0:
                    return None, row
                continue
            seen = best.get(row.coeffs)
            if seen is None or row.rhs > seen.rhs:
                best[row.coeffs] = row
        return list(best.values()), None

    active, bad = sift(active)
    if bad is not None:
        return FarkasCertificate(bad.mult)

    steps: list[tuple[int, list[_Row], list[_Row]]] = []
    for j in range(n):
        pos = [r for r in active if r.coeffs[j] > 0]
        neg = [r for r in active if r.coeffs[j] < 0]
        rest = [r for r in active if r.coeffs[j] == 0]
        steps.append((j, pos, neg))
        combined = list(rest)
        for p in pos:
            a = p.coeffs[j]
            for q in neg:
                c = -q.coeffs[j]
                coeffs = tuple(c * x + a * y for x, y in zip(p.coeffs, q.coeffs))
                combined.append(
                    _normalized(
                        coeffs,
                        c * p.rhs + a * q.rhs,
                        tuple(c * x + a * y for x, y in zip(p.mult, q.mult)),
                    )
                )
        active, bad = sift(combined)
        if bad is not None:
            return FarkasCertificate(bad.mult)

    # Feasible: back-substitute in reverse elimination order.
    x = [Fraction(0)] * n
    for j, pos, neg in reversed(steps):
        lows = []
        highs = []
        for r in pos:
            rest = sum(r.coeffs[k] * x[k] for k in range(j + 1, n))
            lows.append(Fraction(r.rhs - rest, r.coeffs[j]))
        for r in neg:
            rest = sum(r.coeffs[k] * x[k] for k in range(j + 1, n))
            highs.append(Fraction(r.rhs - rest, r.coeffs[j]))
        if lows and highs:
            lo, hi = max(lows), min(highs)
            if lo > hi:
                raise AssertionError("Fourier-Motzkin back-substitution out of order")
            x[j] = (lo + hi) / 2
        elif lows:
            x[j] = max(lows)
        elif highs:
            x[j] = min(highs)
    return FeasiblePoint(tuple(x))


def fm_feasible(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Feasibility alone: whether `solve_system` finds a point."""
    return isinstance(solve_system(rows, rhs), FeasiblePoint)


def verify_feasible(rows, rhs, x) -> bool:
    return all(
        sum(c * v for c, v in zip(row, x, strict=True)) >= r
        for row, r in zip(rows, rhs, strict=True)
    )


def verify_farkas(rows, rhs, multipliers) -> bool:
    if any(m < 0 for m in multipliers):
        return False
    n = len(rows[0]) if rows else 0
    combo = [sum(m * row[j] for m, row in zip(multipliers, rows, strict=True)) for j in range(n)]
    total = sum(m * r for m, r in zip(multipliers, rhs, strict=True))
    return all(c == 0 for c in combo) and total > 0


def feasible_by_basis_enumeration(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> bool:
    """Independent feasibility oracle: scan basic solutions of row subsets.

    The system is first restricted to the pivot columns of its coefficient
    matrix, which removes the lineality space, so a nonempty feasible region
    has a vertex and every vertex is the unique solution of some k linearly
    independent tight rows. Exact integer arithmetic throughout (Cramer with
    fraction-free determinants; comparisons cleared of denominators).
    """
    m = len(rows)
    if m == 0:
        return True
    _, pivots = rref(rows)
    if not pivots:
        return all(Fraction(r) <= 0 for r in rhs)
    a = [[int(row[c]) for c in pivots] for row in rows]
    b = [int(r) for r in rhs]
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
