"""Projectivity, ampleness and nefness of complete simplicial fans.

A torus-invariant divisor D = sum(d_i * D_i) is encoded by its coefficient
vector ``d``. D is ample exactly when d is strictly positive against the
circuit of every wall, and the fan is projective exactly when some such d
exists (existence of a strictly convex support function). Feasibility is
decided by exact Fourier-Motzkin elimination; the answer always comes with a
certificate that re-verifies by direct evaluation: an explicit ample d, or
Farkas multipliers over the walls combining the inequalities into a
contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotCompleteError, NotSmoothError
from .fan import (
    Fan,
    Wall,
    is_complete,
    is_smooth,
    primitive_collections,
    primitive_relation,
    wall_circuit,
    walls,
)
from .lp import FeasiblePoint, solve_system


@dataclass(frozen=True)
class WallInequality:
    """The circuit of a wall, viewed as the linear form d -> coeffs @ d."""

    wall: Wall
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class ProjectivityCertificate:
    """Witness for a projectivity verdict.

    Exactly one field is set: ``feasible_d`` is a divisor with value >= 1 on
    every wall circuit (ample witness); ``farkas`` maps wall indices to
    nonnegative multipliers whose weighted circuit sum vanishes identically
    while the weights do not (infeasibility witness).
    """

    feasible_d: Optional[tuple[Fraction, ...]] = None
    farkas: Optional[dict[int, Fraction]] = None


@dataclass(frozen=True)
class ObstructionWitness:
    """Infeasibility witness for the effective-ample inequality system.

    Multipliers are indexed by position in `primitive_collections(fan)` for
    the relation rows and by ray index for the d_i >= 0 rows.
    """

    relation_multipliers: dict[int, Fraction]
    nonneg_multipliers: dict[int, Fraction]


def wall_inequalities(fan: Fan) -> tuple[WallInequality, ...]:
    """One inequality per wall, in wall order; positivity of all of them on a
    divisor d says the support function of -d is strictly convex."""
    _require_complete(fan)
    return tuple(WallInequality(w, wall_circuit(fan, w)) for w in walls(fan))


def _require_complete(fan: Fan) -> None:
    if not is_complete(fan):
        raise NotCompleteError("this query needs a complete fan")


def _gauge_columns(fan: Fan) -> list[int]:
    # Pin d = 0 on the rays of the first maximal cone: subtracting the linear
    # function agreeing with d there removes the lineality space without
    # changing existence of a strictly convex support function.
    fixed = set(fan.max_cones[0])
    return [i for i in range(len(fan.rays)) if i not in fixed]


def is_projective(fan: Fan) -> tuple[bool, ProjectivityCertificate]:
    """Decide existence of an ample divisor, with certificate.

    Solves {d : circuit @ d >= 1 for every wall}; the strictness-to-1
    normalization is harmless because the system is homogeneous in d.
    """
    _require_complete(fan)
    ineqs = wall_inequalities(fan)
    free = _gauge_columns(fan)
    rows = [tuple(q.coeffs[i] for i in free) for q in ineqs]
    rhs = [1] * len(rows)
    outcome = solve_system(rows, rhs)
    if isinstance(outcome, FeasiblePoint):
        d = [Fraction(0)] * len(fan.rays)
        for i, value in zip(free, outcome.x):
            d[i] = value
        cert = ProjectivityCertificate(feasible_d=tuple(d))
        if not verify_certificate(fan, cert):
            raise AssertionError("the ample divisor found does not re-verify")
        return True, cert
    mult = {
        i: m for i, m in enumerate(outcome.multipliers) if m != 0
    }
    cert = ProjectivityCertificate(farkas=mult)
    if not verify_certificate(fan, cert):
        raise AssertionError("the Farkas certificate found does not re-verify")
    return False, cert


def verify_certificate(fan: Fan, cert: ProjectivityCertificate) -> bool:
    """Re-check a certificate by direct evaluation, independent of the solver."""
    ineqs = wall_inequalities(fan)
    if cert.feasible_d is not None:
        d = cert.feasible_d
        return all(_evaluate(q.coeffs, d) >= 1 for q in ineqs)
    if cert.farkas is None:
        return False
    if not cert.farkas or any(m < 0 for m in cert.farkas.values()):
        return False
    n = len(fan.rays)
    combo = [Fraction(0)] * n
    for idx, m in cert.farkas.items():
        for j, c in enumerate(ineqs[idx].coeffs):
            combo[j] += m * c
    return all(c == 0 for c in combo) and any(m > 0 for m in cert.farkas.values())


def _evaluate(coeffs: Sequence[int], d: Sequence) -> Fraction:
    return sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, d, strict=True))


def is_ample(fan: Fan, d) -> bool:
    """True when the divisor d is strictly positive on every wall circuit."""
    _require_complete(fan)
    return all(_evaluate(q.coeffs, d) > 0 for q in wall_inequalities(fan))


def is_nef(fan: Fan, d) -> bool:
    """Non-strict variant of `is_ample`."""
    _require_complete(fan)
    return all(_evaluate(q.coeffs, d) >= 0 for q in wall_inequalities(fan))


def nontrivial_nef_exists(fan: Fan) -> bool:
    """Whether some nef divisor is positive on at least one wall curve.

    False means every nef divisor is numerically trivial. One small exact LP
    per wall: {d nef, circuit_w @ d >= 1} for each wall w in turn.
    """
    _require_complete(fan)
    ineqs = wall_inequalities(fan)
    free = _gauge_columns(fan)
    base_rows = [tuple(q.coeffs[i] for i in free) for q in ineqs]
    for k in range(len(ineqs)):
        rhs = [1 if j == k else 0 for j in range(len(ineqs))]
        if isinstance(solve_system(base_rows, rhs), FeasiblePoint):
            return True
    return False


def effective_ample_obstruction(fan: Fan) -> Optional[ObstructionWitness]:
    """Fast necessary test: can an *effective* divisor be ample?

    Builds {d_i >= 0 for all rays; degree >= 1 on every primitive relation}
    and returns a Farkas witness when that system is infeasible, which proves
    the fan non-projective. Feasibility proves nothing (the test is one-way).
    """
    _require_complete(fan)
    if not is_smooth(fan):
        raise NotSmoothError("the effective-ample test uses primitive relations of a smooth fan")
    n = len(fan.rays)
    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    for i in range(n):
        rows.append(tuple(1 if j == i else 0 for j in range(n)))
        rhs.append(0)
    collections = primitive_collections(fan)
    for col in collections:
        rel = primitive_relation(fan, col)
        coeffs = [0] * n
        for i in rel.collection:
            coeffs[i] += 1
        for i, a in zip(rel.target_rays, rel.coefficients):
            coeffs[i] -= a
        rows.append(tuple(coeffs))
        rhs.append(1)
    outcome = solve_system(rows, rhs)
    if isinstance(outcome, FeasiblePoint):
        return None
    mult = outcome.multipliers
    witness = ObstructionWitness(
        relation_multipliers={
            k: m for k, m in enumerate(mult[n:]) if m != 0
        },
        nonneg_multipliers={i: m for i, m in enumerate(mult[:n]) if m != 0},
    )
    if not verify_obstruction(fan, witness):
        raise AssertionError("the effective-ample obstruction found does not re-verify")
    return witness


def verify_obstruction(fan: Fan, witness: ObstructionWitness) -> bool:
    """Re-check an obstruction witness by direct summation."""
    if any(m < 0 for m in witness.relation_multipliers.values()):
        return False
    if any(m < 0 for m in witness.nonneg_multipliers.values()):
        return False
    if not any(m > 0 for m in witness.relation_multipliers.values()):
        return False
    n = len(fan.rays)
    combo = [Fraction(0)] * n
    for i, m in witness.nonneg_multipliers.items():
        combo[i] += m
    collections = primitive_collections(fan)
    for k, m in witness.relation_multipliers.items():
        rel = primitive_relation(fan, collections[k])
        for i in rel.collection:
            combo[i] += m
        for i, a in zip(rel.target_rays, rel.coefficients):
            combo[i] -= m * a
    return all(c == 0 for c in combo)
