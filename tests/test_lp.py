import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feasible_by_basis_enumeration
from toricfans.lp import (
    FarkasCertificate,
    FeasiblePoint,
    fm_feasible,
    solve_system,
    verify_farkas,
    verify_feasible,
)


def _random_system(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 8)
    rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
    rhs = [rng.randint(-2, 2) for _ in range(m)]
    return rows, rhs


def test_simple_feasible():
    out = solve_system([(1, 0), (0, 1)], [1, 2])
    assert isinstance(out, FeasiblePoint)
    assert out.x[0] >= 1 and out.x[1] >= 2


def test_simple_infeasible_with_farkas():
    # x >= 1 and -x >= 0 cannot hold
    out = solve_system([(1,), (-1,)], [1, 0])
    assert isinstance(out, FarkasCertificate)
    assert verify_farkas([(1,), (-1,)], [1, 0], out.multipliers)


def test_witnesses_verify_on_random_systems():
    rng = random.Random(42)
    for _ in range(300):
        rows, rhs = _random_system(rng)
        out = solve_system(rows, rhs)
        if isinstance(out, FeasiblePoint):
            assert verify_feasible(rows, rhs, out.x)
        else:
            assert verify_farkas(rows, rhs, out.multipliers)


def test_agreement_with_basis_enumeration():
    rng = random.Random(43)
    for _ in range(300):
        rows, rhs = _random_system(rng)
        got = isinstance(solve_system(rows, rhs), FeasiblePoint)
        assert got == feasible_by_basis_enumeration(rows, rhs)


def test_fm_feasible_agrees_with_certified_solver():
    rng = random.Random(44)
    for _ in range(300):
        rows, rhs = _random_system(rng)
        assert fm_feasible(rows, rhs) == isinstance(
            solve_system(rows, rhs), FeasiblePoint
        )


def test_homogeneous_scaling():
    # a homogeneous strict system is feasible with >= 1 iff with >= eps
    rows = [(1, -1), (0, 1)]
    out = solve_system(rows, [1, 1])
    assert isinstance(out, FeasiblePoint)
    scaled = [x * Fraction(1, 7) for x in out.x]
    assert verify_feasible(rows, [Fraction(1, 7)] * 2, scaled)


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([[Fraction(1, 2)]], [1]),  # x = 2 is feasible, but not an int row
        ([[True, 0]], [1]),
        ([[1.0, 0]], [1]),
        ([[1, 0], [0]], [1, 1]),  # ragged
        ([[1], [0, 1]], [1, 1]),
        ([[1, 0]], [1, 1]),  # rhs longer than the rows
        ([[1, 0], [0, 1]], [1]),  # rhs shorter
        ([[1, 0]], [0.5]),
        ([[1, 0]], [True]),
    ],
    ids=[
        "fraction-coefficient", "bool-coefficient", "float-coefficient",
        "short-second-row", "long-second-row", "rhs-too-long", "rhs-too-short",
        "float-rhs", "bool-rhs",
    ],
)
def test_malformed_systems_are_rejected(rows, rhs):
    with pytest.raises(ValueError):
        solve_system(rows, rhs)


@st.composite
def _systems(draw):
    """Integer systems with m <= 9 rows in n <= 4 unknowns, with zero rows,
    repeated rows and int, Fraction or unit-vector right-hand sides."""
    n = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"] if rows else ["random", "zero"]))
        if kind == "random":
            rows.append(tuple(draw(st.integers(-3, 3)) for _ in range(n)))
        elif kind == "zero":
            rows.append((0,) * n)
        else:
            rows.append(draw(st.sampled_from(rows)))
    m = len(rows)
    kind = draw(st.sampled_from(["int", "fraction", "unit"]))
    if kind == "int":
        rhs = [draw(st.integers(-2, 2)) for _ in range(m)]
    elif kind == "fraction":
        rhs = [draw(st.fractions(-2, 2, max_denominator=6)) for _ in range(m)]
    else:
        k = draw(st.integers(0, m)) if m else 0
        rhs = [int(i == k) for i in range(m)]
    return rows, rhs


@settings(max_examples=500, deadline=None)
@given(_systems())
def test_solver_matches_basis_enumeration_with_verified_witnesses(system):
    rows, rhs = system
    out = solve_system(rows, rhs)
    assert isinstance(out, FeasiblePoint) == feasible_by_basis_enumeration(rows, rhs)
    if isinstance(out, FeasiblePoint):
        assert verify_feasible(rows, rhs, out.x)
    else:
        assert verify_farkas(rows, rhs, out.multipliers)


# Every nonzero vector of {-1, 0, 1}^4, almost all with rhs 0: each of the 80
# rows is tight at x = 0, so nearly every pivot is degenerate. Forcing
# x_0 >= 1 next to -x_0 >= 0 makes the system infeasible.
_CUBE = [v for v in itertools.product((-1, 0, 1), repeat=4) if any(v)]
# An infeasible system (basis enumeration finds no vertex) on which a Phase I
# that lets the largest-index improving column enter returns to an earlier
# basis and pivots forever.
_CYCLES_WITHOUT_BLAND = [
    (2, 2, -1), (-1, -1, -2), (-1, 0, 1), (0, 1, 1), (1, -2, 2), (-2, -2, 2), (-2, 0, -1)
]


@pytest.mark.parametrize(
    "rows, rhs, feasible",
    [
        (_CUBE, [0] * len(_CUBE), True),
        (_CUBE, [int(v == (1, 0, 0, 0)) for v in _CUBE], False),
        (_CYCLES_WITHOUT_BLAND, [0, 0, 1, 0, 0, 0, 0], False),
    ],
    ids=["cube-feasible", "cube-infeasible", "cycles-without-bland"],
)
def test_degenerate_systems_terminate(rows, rhs, feasible):
    out = solve_system(rows, rhs)
    assert isinstance(out, FeasiblePoint) == feasible
    if feasible:
        assert verify_feasible(rows, rhs, out.x)
    else:
        assert verify_farkas(rows, rhs, out.multipliers)
