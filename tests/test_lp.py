import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_INSTANCES
from oracles import feasible_by_basis_enumeration, solve_system_bareiss
from toricfans import build, is_smooth
from toricfans.lp import (
    FarkasCertificate,
    FeasiblePoint,
    fm_feasible,
    solve_system,
    verify_farkas,
    verify_feasible,
)
from toricfans.projectivity import _ample_system, _effective_system, _solve_distinct


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
        ([[1, 0]], [Fraction(1, 2)]),
    ],
    ids=[
        "fraction-coefficient", "bool-coefficient", "float-coefficient",
        "short-second-row", "long-second-row", "rhs-too-long", "rhs-too-short",
        "float-rhs", "bool-rhs", "fraction-rhs",
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


def _scaled(rows, rhs):
    """``q * rows @ x >= q * rhs``, q the lcm of the rhs denominators: an
    integer system with the same feasible points and the same Farkas
    multipliers, so its witness also certifies the rational one."""
    q = math.lcm(*(Fraction(r).denominator for r in rhs))
    return [tuple(q * c for c in row) for row in rows], [int(q * r) for r in rhs]


def _solve_scaled(rows, rhs):
    """`solve_system` on the `_scaled` system."""
    return solve_system(*_scaled(rows, rhs))


@settings(max_examples=500, deadline=None)
@given(_systems())
def test_solver_matches_basis_enumeration_with_verified_witnesses(system):
    rows, rhs = system
    out = _solve_scaled(rows, rhs)
    assert isinstance(out, FeasiblePoint) == feasible_by_basis_enumeration(rows, rhs)
    if isinstance(out, FeasiblePoint):
        assert verify_feasible(rows, rhs, out.x)
    else:
        assert verify_farkas(rows, rhs, out.multipliers)


@settings(max_examples=500, deadline=None)
@given(_systems())
def test_kernel_matches_the_common_denominator_kernel(system):
    # the same pivots, so the same outcome, certificate values included;
    # solving only the distinct rows, as `projectivity` does, changes neither
    rows, rhs = _scaled(*system)
    out = solve_system(rows, rhs)
    assert out == solve_system_bareiss(rows, rhs)
    assert _solve_distinct(rows, rhs) == out


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


def _reference_verify(rows, rhs, witness, farkas):
    """The verifiers' contract evaluated entry by entry in Fraction
    arithmetic: an entry that is not an int or a Fraction fails, and a
    witness of the wrong length raises ValueError."""
    if any(type(v) is not int and not isinstance(v, Fraction) for v in witness):
        return False
    if not farkas:
        return all(
            sum(Fraction(c) * v for c, v in zip(row, witness, strict=True)) >= r
            for row, r in zip(rows, rhs, strict=True)
        )
    if any(m < 0 for m in witness):
        return False
    n = len(rows[0]) if rows else 0
    combo = [
        sum(Fraction(m) * row[j] for m, row in zip(witness, rows, strict=True))
        for j in range(n)
    ]
    total = sum(Fraction(m) * r for m, r in zip(witness, rhs, strict=True))
    return all(c == 0 for c in combo) and total > 0


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError:
        return ValueError


_MUTATIONS = {
    "none": lambda w, k: w,
    "plus-seventh": lambda w, k: w[:k] + [w[k] + Fraction(1, 7)] + w[k + 1 :],
    "minus-seventh": lambda w, k: w[:k] + [w[k] - Fraction(1, 7)] + w[k + 1 :],
    "sign-flip": lambda w, k: w[:k] + [-w[k]] + w[k + 1 :],
    "dropped": lambda w, k: w[:k] + w[k + 1 :],
    "float": lambda w, k: w[:k] + [float(w[k])] + w[k + 1 :],
    "bool": lambda w, k: w[:k] + [w[k] != 0] + w[k + 1 :],
    "str": lambda w, k: w[:k] + [str(w[k])] + w[k + 1 :],
}


def _check_mutation(rows, rhs, out, kind, k):
    farkas = isinstance(out, FarkasCertificate)
    witness = _MUTATIONS[kind](list(out.multipliers if farkas else out.x), k)
    verify = verify_farkas if farkas else verify_feasible
    got = _outcome(verify, rows, rhs, witness)
    assert got == _outcome(_reference_verify, rows, rhs, witness, farkas)
    if kind == "none":
        assert got is True
    elif kind in ("float", "bool", "str"):
        assert got is False
    elif kind == "dropped" and rows:
        assert got is ValueError


@settings(max_examples=400, deadline=None)
@given(_systems(), st.sampled_from(sorted(_MUTATIONS)), st.data())
def test_verifiers_match_fraction_reference_on_mutated_witnesses(system, kind, data):
    rows, rhs = system
    out = _solve_scaled(rows, rhs)
    size = len(out.multipliers if isinstance(out, FarkasCertificate) else out.x)
    if size == 0:
        kind, k = "none", 0
    else:
        k = data.draw(st.integers(0, size - 1))
    _check_mutation(rows, rhs, out, kind, k)


def test_verifiers_match_fraction_reference_on_projectivity_systems():
    # the solver's witnesses for catalog wall and effective-ample systems,
    # and every mutation of their first and last entries
    kinds = collections.Counter()
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        systems = [_ample_system(fan)] + ([_effective_system(fan)] if is_smooth(fan) else [])
        for rows, rhs in systems:
            out = solve_system(rows, rhs)
            size = len(out.multipliers if isinstance(out, FarkasCertificate) else out.x)
            for kind in _MUTATIONS:
                for k in (0, size - 1):
                    _check_mutation(rows, rhs, out, kind, k)
            kinds[type(out).__name__] += 1
    assert kinds["FeasiblePoint"] and kinds["FarkasCertificate"]


@pytest.mark.parametrize(
    "x, y", [(2.0, 1.0), (True, True), ("2", "1")], ids=["float", "bool", "str"]
)
def test_verifiers_reject_entries_that_are_not_int_or_fraction(x, y):
    # each witness passes with the int its entry stands for, and fails as is
    assert verify_feasible([(1,)], [1], [2])
    assert verify_feasible([(1,)], [1], [x]) is False
    assert verify_farkas([(1,), (-1,)], [1, 0], [1, 1])
    assert verify_farkas([(1,), (-1,)], [1, 0], [1, y]) is False


# A Mersenne prime above every witness denominator drawn below (at most
# 10**12), so a shift by 1/_P is a gap that no rounding of the row sums keeps.
_P = 2**61 - 1
_ENTRIES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)


@st.composite
def _tight_witnesses(draw):
    """A witness, rows, and right-hand sides that are each row's exact value
    at the witness, moved by 0, +1/_P or -1/_P, or rounded to an int; then
    the witness itself is moved by 0 or +-1/_P in one entry."""
    n = draw(st.integers(1, 4))
    rows = [
        tuple(draw(st.integers(-5, 5)) for _ in range(n)) for _ in range(draw(st.integers(1, 6)))
    ]
    x = [draw(_ENTRIES) for _ in range(n)]
    rhs, shifts = [], []
    for row in rows:
        value = sum(Fraction(c) * v for c, v in zip(row, x))
        kind = draw(st.sampled_from(["tight", "above", "below", "floor", "ceil"]))
        rhs.append({
            "tight": value,
            "above": value + Fraction(1, _P),
            "below": value - Fraction(1, _P),
            "floor": math.floor(value),
            "ceil": math.ceil(value),
        }[kind])
        shifts.append(kind)
    k = draw(st.integers(0, n - 1))
    move = draw(st.sampled_from([0, Fraction(1, _P), Fraction(-1, _P)]))
    moved = x[:k] + [x[k] + move] + x[k + 1 :]
    return rows, rhs, x, moved, shifts


@settings(max_examples=400, deadline=None)
@given(_tight_witnesses())
def test_integer_verify_feasible_matches_fraction_reference_at_the_boundary(case):
    rows, rhs, x, moved, shifts = case
    for witness in (x, moved):
        assert verify_feasible(rows, rhs, witness) == _reference_verify(rows, rhs, witness, False)
    # at the unmoved witness each row's value is exactly its tight value
    if "above" in shifts:
        assert verify_feasible(rows, rhs, x) is False
    elif "ceil" not in shifts:
        assert verify_feasible(rows, rhs, x) is True


@pytest.mark.parametrize(
    "x, outcome",
    [
        ([1], ValueError),
        ([1, 2, 3], ValueError),
        ([Fraction(1, 2), 1.0], False),
        ([True, 1], False),
        ([1, "1"], False),
        ([Fraction(1, 10**12), 1], True),
        ([2, -1], False),
    ],
    ids=["short", "long", "float", "bool", "str", "large-denominator", "infeasible"],
)
def test_verify_feasible_explicit_cases(x, outcome):
    rows, rhs = [(1, 2), (0, 1)], [Fraction(2, 3), 1]
    assert _outcome(verify_feasible, rows, rhs, x) is outcome
    assert _outcome(_reference_verify, rows, rhs, x, False) is outcome


@pytest.mark.parametrize(
    "y, outcome",
    [
        ([3, 1, 0], True),
        ([6, 2, Fraction(1, 7)], True),
        ([Fraction(3, 2), Fraction(1, 2), 0], True),
        ([0, 0, 0], False),
        ([Fraction(0), 0, 0], False),
        ([3, 1, Fraction(3, 2)], False),
        ([3, 1, Fraction(7, 5)], True),
        ([3, True, 0], False),
        ([3, 1, -1], False),
        ([1, 1, 0], False),
        ([3, 1], ValueError),
        ([3, 1, 0, 0], ValueError),
    ],
    ids=[
        "int", "mixed-int-fraction", "fractions", "all-zero", "all-zero-fraction",
        "fraction-rhs-cancels", "fraction-rhs-positive", "bool", "negative",
        "combination-not-zero", "short", "long",
    ],
)
def test_verify_farkas_explicit_cases(y, outcome):
    # 3 * (x0 - 2 x1 >= 1/2) + (-3 x0 + 6 x1 >= 0) gives 0 >= 3/2, and each
    # unit of the last row, 0 >= -1, takes 1 from the right-hand side
    rows, rhs = [(1, -2), (-3, 6), (0, 0)], [Fraction(1, 2), 0, -1]
    assert _outcome(verify_farkas, rows, rhs, y) is outcome
    assert _outcome(_reference_verify, rows, rhs, y, True) is outcome
