"""Elementary wall exchanges: flips, flops and anti-flips.

A wall of a complete simplicial 3-fan carries the circuit relation of the
four rays of its two side cones. When both wall-ray coefficients of the
circuit are strictly negative, the two side cones (a,b,c), (a,b,d) can be
exchanged for (c,d,a), (c,d,b) on the same rays; the sign of the
anticanonical degree (the coefficient sum of the circuit) sorts the exchange
into flip (positive), flop (zero) or anti-flip (negative). Walls whose
circuit has a nonnegative wall-ray coefficient contract a divisor or a fiber
and admit no such exchange.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotModifiableWallError, SurgeryInvalidError, FanValidationError
from .fan import Fan, Wall, _is_int_list, canonical_key, validate_fan, wall_circuit, walls


class WallKind(enum.Enum):
    FLIP = "flip"
    FLOP = "flop"
    ANTI_FLIP = "anti-flip"
    NOT_MODIFIABLE = "not-modifiable"


MODIFIABLE = (WallKind.FLIP, WallKind.FLOP, WallKind.ANTI_FLIP)


@dataclass(frozen=True)
class WallClassification:
    kind: WallKind
    degree: int


@dataclass(frozen=True)
class SurgeryStep:
    """One wall exchange, replayable on the before-fan; the surgery graph's edge."""

    wall_rays: tuple[int, ...]
    kind: WallKind
    degree: int
    before_key: tuple
    after_key: tuple


def classify_wall(fan: Fan, wall: Wall) -> WallClassification:
    """Sort a wall by its circuit: degree sign and wall-ray coefficient signs."""
    lam = wall_circuit(fan, wall)
    degree = sum(lam)
    if any(lam[i] >= 0 for i in wall.rays):
        return WallClassification(WallKind.NOT_MODIFIABLE, degree)
    if degree > 0:
        kind = WallKind.FLIP
    elif degree == 0:
        kind = WallKind.FLOP
    else:
        kind = WallKind.ANTI_FLIP
    return WallClassification(kind, degree)


def exchanged_cones(fan: Fan, wall: Wall) -> tuple[tuple[int, ...], ...]:
    """The maximal cones after exchanging the side cones (a,b,c), (a,b,d) of
    a wall for (c,d,a), (c,d,b), sorted as `validate_fan` stores them."""
    c, d = wall.off_rays
    cones = [cone for cone in fan.max_cones if cone not in wall.side_cones]
    cones += [tuple(sorted((c, d, keep_ray))) for keep_ray in wall.rays]
    return tuple(sorted(cones))


def perform_surgery(fan: Fan, wall: Wall) -> tuple[Fan, SurgeryStep]:
    """Exchange the two side cones of a modifiable wall.

    The ray set and the number of maximal cones are unchanged; only the two
    cones through the wall are replaced, so the result is isomorphic to the
    input in codimension one. Anti-flips may produce non-smooth fans, which
    are first-class values here.
    """
    classification = classify_wall(fan, wall)
    if classification.kind not in MODIFIABLE:
        raise NotModifiableWallError(
            f"wall {wall.rays} has a divisorial or fiber-type circuit"
        )
    try:
        result = validate_fan(fan.dim, fan.rays, exchanged_cones(fan, wall))
    except FanValidationError as exc:  # pragma: no cover - assertion-grade
        raise SurgeryInvalidError(f"wall exchange produced an invalid fan: {exc}")
    step = SurgeryStep(
        wall_rays=wall.rays,
        kind=classification.kind,
        degree=classification.degree,
        before_key=canonical_key(fan),
        after_key=canonical_key(result),
    )
    return result, step


def find_wall(fan: Fan, ray_pair) -> Wall:
    """The wall spanned by the given ray indices, if present."""
    if not _is_int_list(ray_pair):
        raise FanValidationError(f"wall {ray_pair!r} is not a list of ray indices")
    target = tuple(sorted(ray_pair))
    for wall in walls(fan):
        if wall.rays == target:
            return wall
    raise FanValidationError(f"{target} is not a wall of the fan")


def flopping_walls(fan: Fan) -> tuple[Wall, ...]:
    """All walls classified as flops, in wall order."""
    return tuple(
        w for w in walls(fan) if classify_wall(fan, w).kind is WallKind.FLOP
    )
