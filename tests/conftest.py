import itertools
import random

import pytest

from toricfans import build, star_subdivide, validate_fan, wall_circuit, walls
from toricfans.projectivity import _gauge_columns

P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
P3_CONES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# One or two representative parameter choices per catalog family; the full
# verdict grids run in the acceptance suite.
CATALOG_INSTANCES = [
    ("W7_5", ()),
    ("Z2", (0,)),
    ("Z2", (-2,)),
    ("Z5p", (0,)),
    ("Z5p", (-1,)),
    ("Z5p", (2,)),
    ("Z5pp", ()),
    ("Z8", ()),
    ("Z10", ()),
    ("Z11", (0, 0)),
    ("Z11", (-1, 2)),
    ("Z12", ()),
    ("Z13p", (0, 0)),
    ("Z13p", (1, 1)),
    ("Z13p", (-2, 1)),
    ("Z13pp", (2, 7, 4, 2)),
    ("Z13pp", (0, 0, 0, 0)),
    ("Z13pp", (1, 1, 1, 1)),
    ("Z13pp", (-1, 2, 1, 2)),
    ("Z14p", (0,)),
    ("Z14p", (-2,)),
    ("Z14pp", (0, 0)),
    ("Z14pp", (2, -1)),
]

# The parameter grids of acceptance criteria 2 and 3; with W7_5 they make up
# the catalog grid.
PROJECTIVE_GRID = (
    [("Z2", (a,)) for a in range(-3, 4)]
    + [("Z10", ())]
    + [("Z11", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
)
MIXED_GRID = (
    [("Z5p", (a,)) for a in range(-3, 4)]
    + [("Z5pp", ()), ("Z8", ()), ("Z12", ())]
    + [("Z14p", (a,)) for a in range(-2, 3)]
    + [("Z14pp", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    + [("Z13p", (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    + [("Z13pp", t) for t in itertools.product((-1, 0, 1, 2), repeat=4)]
)
CATALOG_GRID = [("W7_5", ())] + PROJECTIVE_GRID + MIXED_GRID


def blowup_chain(fid, params, top, seed=0):
    """Blow up a seeded random maximal cone at its ray sum until the fan has
    ``top`` rays; the result stays smooth and complete."""
    return list(blowup_rungs(fid, params, top, seed))[-1]


def blowup_rungs(fid, params, top, seed=0):
    """Every fan of `blowup_chain`'s chain, from the catalog fan up to
    ``top`` rays: the fan with k rays is ``blowup_chain(fid, params, k, seed)``."""
    rng = random.Random(seed)
    fan = build(fid, params)
    yield fan
    while len(fan.rays) < top:
        cone = rng.choice(fan.max_cones)
        fan = star_subdivide(fan, [sum(fan.rays[i][k] for i in cone) for k in range(3)])
        yield fan


def gauge_fixed_wall_rows(fan):
    """The wall circuits on the columns `is_projective` leaves free, in wall
    order: the fan is projective iff these rows @ x >= 1 is feasible."""
    free = _gauge_columns(fan)
    return [tuple(wall_circuit(fan, w)[i] for i in free) for w in walls(fan)]


@pytest.fixture
def p3():
    return validate_fan(3, P3_RAYS, P3_CONES)


def ray_index(fan, vector):
    return fan.rays.index(tuple(vector))


def random_unimodular(rng: random.Random, steps: int = 6):
    """A random element of GL(3, Z) built from elementary operations."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5:
        i = rng.randrange(3)
        m[i] = [-a for a in m[i]]
    return [tuple(row) for row in m]
