"""Projectivity, ampleness and nefness of complete simplicial fans.

A torus-invariant divisor D = sum(d_i * D_i) is encoded by its coefficient
vector ``d``. D is ample exactly when d is strictly positive against the
circuit of every wall, and the fan is projective exactly when some such d
exists (existence of a strictly convex support function). Feasibility is
decided by the exact simplex of `lp.solve_system`, which solves each
system's distinct rows; the answer always comes with a certificate: an
explicit ample d, or Farkas multipliers over the walls combining the
inequalities into a contradiction. The certificate's values depend on the
solver; the verdict does not. Each system is built by one function
(`_ample_system`, `_effective_system`, whose relations come from
`fan.primitive_relations`), and every certificate is re-verified against
its rows by `lp.verify_feasible` or `lp.verify_farkas`; a certificate of
the wrong shape fails verification. On a fan that is not smooth the
effective-ample test raises the NotSmoothError of primitive relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import rational
from .errors import FanValidationError, NotCompleteError
from .fan import Fan, is_complete, primitive_relations, wall_circuit, walls
from .lp import FeasiblePoint, solve_system, verify_farkas, verify_feasible


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


def _ample_system(fan: Fan) -> tuple[list, list[int]]:
    """Rows ``circuit @ d >= 1``, one per wall in wall order; d is ample iff
    some positive multiple of d satisfies them."""
    if not is_complete(fan):
        raise NotCompleteError("this query needs a complete fan")
    rows = [wall_circuit(fan, w) for w in walls(fan)]
    return rows, [1] * len(rows)


def _effective_system(fan: Fan) -> tuple[list, list[int]]:
    """Rows ``d_i >= 0`` for every ray, then degree >= 1 on every primitive
    relation in `primitive_collections` order; `fan.primitive_relations`
    raises NotSmoothError on a fan that is not smooth."""
    if not is_complete(fan):
        raise NotCompleteError("this query needs a complete fan")
    n = len(fan.rays)
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rhs = [0] * n
    for rel in primitive_relations(fan):
        coeffs = [0] * n
        for i in rel.collection:
            coeffs[i] += 1
        for i, a in zip(rel.target_rays, rel.coefficients):
            coeffs[i] -= a
        rows.append(tuple(coeffs))
        rhs.append(1)
    return rows, rhs


def _gauge_columns(fan: Fan) -> list[int]:
    # Pin d = 0 on the rays of the first maximal cone: subtracting the linear
    # function agreeing with d there removes the lineality space without
    # changing existence of a strictly convex support function.
    fixed = set(fan.max_cones[0])
    return [i for i in range(len(fan.rays)) if i not in fixed]


def _is_divisor(d, n: int) -> bool:
    """A list or tuple of n ints or Fractions; bools and strings are not."""
    return isinstance(d, (list, tuple)) and len(d) == n and all(
        type(x) is int or isinstance(x, Fraction) for x in d
    )


def _dense(multipliers: dict, length: int) -> Optional[list]:
    """The multiplier vector of a sparse {row index: multiplier} dict, or
    None when it is not a dict or a key is not an int in range(length)."""
    if not isinstance(multipliers, dict):
        return None
    dense = [0] * length
    for k, m in multipliers.items():
        if type(k) is not int or not 0 <= k < length:
            return None
        dense[k] = m
    return dense


def _certificate_holds(rows: list, rhs: list[int], cert: ProjectivityCertificate) -> bool:
    """Evaluate a certificate against the rows of `_ample_system`."""
    d = cert.feasible_d
    if d is not None:
        return _is_divisor(d, len(rows[0])) and verify_feasible(rows, rhs, d)
    mult = None if cert.farkas is None else _dense(cert.farkas, len(rows))
    return mult is not None and verify_farkas(rows, rhs, mult)


def _obstruction_holds(rows: list, rhs: list[int], witness: ObstructionWitness) -> bool:
    """Evaluate a witness against the rows of `_effective_system`."""
    n = len(rows[0])
    nonneg = _dense(witness.nonneg_multipliers, n)
    relation = _dense(witness.relation_multipliers, len(rows) - n)
    if nonneg is None or relation is None:
        return False
    return verify_farkas(rows, rhs, nonneg + relation)


def is_projective(fan: Fan) -> tuple[bool, ProjectivityCertificate]:
    """Decide existence of an ample divisor, with certificate."""
    rows, rhs = _ample_system(fan)
    free = _gauge_columns(fan)
    outcome = solve_system([tuple(row[i] for i in free) for row in rows], rhs)
    if isinstance(outcome, FeasiblePoint):
        d = [Fraction(0)] * len(fan.rays)
        for i, value in zip(free, outcome.x):
            d[i] = value
        cert = ProjectivityCertificate(feasible_d=tuple(d))
    else:
        mult = {i: m for i, m in enumerate(outcome.multipliers) if m != 0}
        cert = ProjectivityCertificate(farkas=mult)
    if not _certificate_holds(rows, rhs, cert):
        raise AssertionError("the projectivity certificate found does not re-verify")
    return cert.feasible_d is not None, cert


def verify_certificate(fan: Fan, cert: ProjectivityCertificate) -> bool:
    """Re-check a certificate by direct evaluation, independent of the solver."""
    return _certificate_holds(*_ample_system(fan), cert)


def _circuit_values(fan: Fan, d) -> list:
    rows, _ = _ample_system(fan)
    if not _is_divisor(d, len(fan.rays)):
        raise FanValidationError(
            f"divisor {d!r} is not a list of {len(fan.rays)} ints or Fractions"
        )
    return [rational.dot(row, d) for row in rows]


def is_ample(fan: Fan, d) -> bool:
    """True when the divisor d is strictly positive on every wall circuit."""
    return all(v > 0 for v in _circuit_values(fan, d))


def is_nef(fan: Fan, d) -> bool:
    """Non-strict variant of `is_ample`."""
    return all(v >= 0 for v in _circuit_values(fan, d))


def nontrivial_nef_exists(fan: Fan) -> bool:
    """Whether some nef divisor is positive on at least one wall curve.

    False means every nef divisor is numerically trivial. One exact LP:
    {d nef, (sum of all wall circuits) @ d >= 1}. On a nef d every circuit
    term is >= 0, so the sum is positive exactly when some term is. The
    point or the Farkas multipliers found are re-verified on those rows.
    """
    rows, _ = _ample_system(fan)
    free = _gauge_columns(fan)
    nef_rows = [tuple(row[i] for i in free) for row in rows]
    nef_rows.append(tuple(sum(col) for col in zip(*nef_rows)))
    rhs = [0] * len(rows) + [1]
    outcome = solve_system(nef_rows, rhs)
    exists = isinstance(outcome, FeasiblePoint)
    if exists:
        holds = verify_feasible(nef_rows, rhs, outcome.x)
    else:
        holds = verify_farkas(nef_rows, rhs, outcome.multipliers)
    if not holds:
        raise AssertionError("the nontrivial nef outcome found does not re-verify")
    return exists


def effective_ample_obstruction(fan: Fan) -> Optional[ObstructionWitness]:
    """Necessary test: can an *effective* divisor be ample?

    Builds {d_i >= 0 for all rays; degree >= 1 on every primitive relation}
    and returns a Farkas witness when that system is infeasible, which proves
    the fan non-projective. Feasibility proves nothing (the test is one-way).
    On a projective fan the answer is always None: an ample class is linearly
    equivalent to a strictly effective one, and it is positive on every
    primitive relation, so `check --certificate` prints null there unsolved.
    This function still solves the whole feasible system on a projective
    fan, which took 0.4-2.5 s at 35-50 rays on the Z2(1) blow-up chain.
    """
    rows, rhs = _effective_system(fan)
    outcome = solve_system(rows, rhs)
    if isinstance(outcome, FeasiblePoint):
        return None
    n = len(fan.rays)
    mult = outcome.multipliers
    witness = ObstructionWitness(
        relation_multipliers={k: m for k, m in enumerate(mult[n:]) if m != 0},
        nonneg_multipliers={i: m for i, m in enumerate(mult[:n]) if m != 0},
    )
    if not _obstruction_holds(rows, rhs, witness):
        raise AssertionError("the effective-ample obstruction found does not re-verify")
    return witness


def verify_obstruction(fan: Fan, witness: ObstructionWitness) -> bool:
    """Re-check an obstruction witness by direct summation."""
    return _obstruction_holds(*_effective_system(fan), witness)
