"""Builders for the classical catalog of smooth complete threefold fans.

Twelve parameterized families: the unique non-projective smooth complete
fan of Picard number four (``W7_5``) and eleven Picard-number-five types,
under their customary labels. Not every parameter value gives a minimal
fan: 132 of the 355 fans of the test suite's parameter grid contract a ray
to a smooth fan, among them ``Z5p`` at a = -1 and 0 and ``Z11`` at a = b
(``tests/test_catalog.py`` pins the count of each family). Ray coordinates
and cone lists are transcribed verbatim from the classification;
``expected_projectivity`` records the known verdict for each family as a
predicate on the parameters, for use as a regression oracle.

Rays are numbered v1..vN in the notes below (1-based, as in the literature)
but stored 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ArityMismatchError, UnknownFamilyError
from .fan import Fan, _is_int_list, validate_fan


def _cones(*triples):
    return tuple(tuple(i - 1 for i in t) for t in triples)


@dataclass(frozen=True)
class CatalogFamily:
    family_id: str
    param_names: tuple[str, ...]
    rays: Callable[..., tuple]
    cones: tuple[tuple[int, ...], ...]
    projective: Callable[..., bool]


_FAMILIES: dict[str, CatalogFamily] = {}


def _family(family_id, param_names, rays, cones, projective):
    _FAMILIES[family_id] = CatalogFamily(
        family_id, tuple(param_names), rays, cones, projective
    )


# The unique non-projective smooth complete fan with 7 rays; it has exactly
# three flopping walls, any one of which flops to a projective fan.
_family(
    "W7_5",
    (),
    lambda: (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
        (-1, -1, 0), (0, -1, -1), (-1, 0, -1),
    ),
    _cones(
        (1, 2, 3), (1, 2, 7), (1, 3, 6), (1, 6, 7), (2, 3, 5),
        (2, 5, 7), (3, 5, 6), (4, 5, 6), (4, 5, 7), (4, 6, 7),
    ),
    lambda: False,
)

_family(
    "Z2",
    ("a",),
    lambda a: (
        (1, 0, 0), (0, -2, -1), (0, -1, 0), (0, 0, 1),
        (0, 1, a), (0, 0, -1), (0, -1, -1), (-1, -3, -2),
    ),
    _cones(
        (1, 2, 3), (1, 2, 8), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 7),
        (1, 7, 8), (2, 3, 8), (3, 4, 8), (4, 5, 8), (5, 6, 8), (6, 7, 8),
    ),
    lambda a: True,
)

_family(
    "Z5p",
    ("a",),
    lambda a: (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -a),
        (0, 0, -1), (-1, 1, -1), (-1, 0, -1), (-1, -1, 0),
    ),
    _cones(
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6), (2, 3, 8),
        (3, 4, 8), (4, 5, 8), (5, 6, 7), (5, 7, 8), (6, 7, 8), (2, 6, 8),
    ),
    lambda a: a == 0,
)

_family(
    "Z5pp",
    (),
    lambda: (
        (0, 1, 0), (0, -1, -1), (1, 0, 0), (0, 0, 1),
        (-1, 0, -1), (-1, -2, -2), (-1, -1, -1), (-1, -1, 0),
    ),
    _cones(
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6), (2, 3, 8),
        (3, 4, 8), (4, 5, 8), (5, 6, 7), (5, 7, 8), (6, 7, 8), (2, 6, 8),
    ),
    lambda: False,
)

_family(
    "Z8",
    (),
    lambda: (
        (0, 0, 1), (1, 0, 0), (0, -1, -1), (-1, -2, -1),
        (0, 1, 0), (0, 0, -1), (-1, -2, -2), (-1, -1, -2),
    ),
    _cones(
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5), (2, 5, 6), (3, 4, 7),
        (2, 3, 8), (3, 7, 8), (4, 7, 8), (4, 5, 8), (5, 6, 8), (2, 6, 8),
    ),
    lambda: False,
)

_family(
    "Z10",
    (),
    lambda: (
        (0, 0, 1), (-1, -1, -1), (0, -1, -2), (0, 0, -1),
        (0, 1, 0), (1, 0, -1), (1, 0, 0), (1, -1, -2),
    ),
    _cones(
        (1, 2, 5), (1, 2, 7), (1, 5, 7), (2, 3, 4), (2, 3, 8), (2, 4, 5),
        (2, 7, 8), (3, 4, 8), (4, 5, 8), (5, 6, 7), (5, 6, 8), (6, 7, 8),
    ),
    lambda: True,
)

_family(
    "Z11",
    ("a", "b"),
    lambda a, b: (
        (1, 0, 0), (0, -1, 0), (0, 0, 1), (1, 1, a),
        (0, 0, -1), (0, -1, -1), (-1, -2, -1), (0, 1, b),
    ),
    _cones(
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 7), (1, 2, 7),
        (2, 3, 7), (5, 6, 7), (3, 4, 8), (4, 5, 8), (5, 7, 8), (3, 7, 8),
    ),
    lambda a, b: True,
)

_family(
    "Z12",
    (),
    lambda: (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1),
        (-1, 0, -1), (-2, -1, 0), (-1, -1, -1), (-2, -1, -1),
    ),
    _cones(
        (1, 2, 3), (1, 2, 4), (1, 3, 6), (1, 4, 6), (2, 3, 5), (2, 4, 5),
        (3, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8),
    ),
    lambda: False,
)

# Z13p and Z13pp share one cone combinatorics; Z13p(a, b) flopped along
# (v3, v4) is Z13pp(-1, a, b-1, -1) after the shear (x, y, z) -> (x, x+y, z).
_Z13_CONES = _cones(
    (1, 2, 4), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 4, 6), (1, 6, 7),
    (1, 2, 7), (2, 3, 7), (3, 5, 8), (5, 6, 8), (3, 7, 8), (6, 7, 8),
)

_family(
    "Z13p",
    ("a", "b"),
    lambda a, b: (
        (-1, b, 0), (0, -1, 0), (1, -1, 0), (-1, 0, -1),
        (0, 0, -1), (0, 1, 0), (0, 0, 1), (1, 0, a),
    ),
    _Z13_CONES,
    lambda a, b: a * b == 0,
)

_family(
    "Z13pp",
    ("a", "b", "c", "d"),
    lambda a, b, c, d: (
        (1, 1, b), (1, 0, 0), (0, -1, 0), (0, 0, -1),
        (-1, a, d), (0, 1, 0), (0, 0, 1), (-1, c, d + 1),
    ),
    _Z13_CONES,
    lambda a, b, c, d: b == 0 or a == c,
)

_Z14_CONES = _cones(
    (1, 2, 3), (1, 3, 4), (1, 2, 4), (3, 4, 5), (4, 5, 6), (2, 4, 6),
    (5, 6, 7), (2, 3, 8), (3, 5, 8), (5, 7, 8), (6, 7, 8), (2, 6, 8),
)

_family(
    "Z14p",
    ("a",),
    lambda a: (
        (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, a),
        (-1, -1, a + 1), (1, 0, 1), (0, 0, 1), (0, 1, 1),
    ),
    _Z14_CONES,
    lambda a: False,
)

_family(
    "Z14pp",
    ("a", "b"),
    lambda a, b: (
        (-1, a, b), (0, 1, 0), (0, -1, -1), (0, 0, 1),
        (1, 0, 1), (1, 1, 0), (1, 0, 0), (1, -1, -1),
    ),
    _Z14_CONES,
    lambda a, b: False,
)


def family_ids() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def family(family_id: str) -> CatalogFamily:
    try:
        return _FAMILIES[family_id]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown catalog id {family_id!r}; known: {', '.join(_FAMILIES)}"
        ) from None


def _check_arity(fam: CatalogFamily, params) -> tuple[int, ...]:
    if not _is_int_list(params) or len(params) != len(fam.param_names):
        raise ArityMismatchError(
            f"{fam.family_id} takes integer parameters ({', '.join(fam.param_names)}), "
            f"got {params!r}"
        )
    return tuple(params)


def build(family_id: str, params=()) -> Fan:
    """The catalog fan with the family's verbatim rays and cones."""
    fam = family(family_id)
    params = _check_arity(fam, params)
    return validate_fan(3, fam.rays(*params), fam.cones)


def expected_projectivity(family_id: str, params=()) -> bool:
    """The known projectivity verdict for the family at these parameters."""
    fam = family(family_id)
    params = _check_arity(fam, params)
    return fam.projective(*params)
