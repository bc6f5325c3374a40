import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_unimodular
from oracles import fraction_cramer, int_det
from toricfans import rational


def test_primitive():
    assert rational.is_primitive((1, 0, 0))
    assert rational.is_primitive((2, 3, 5))
    assert not rational.is_primitive((0, 0, 0))
    assert not rational.is_primitive((2, 4, 6))


def test_determinant_small():
    assert rational.determinant([(1, 0, 0), (0, 1, 0), (1, 1, 2)]) == 2
    assert rational.determinant([(1, 2, 3), (2, 4, 6), (0, 1, 0)]) == 0
    with pytest.raises(ValueError):
        rational.determinant([(1, 0), (0, 1)])


def _leibniz_det(m):
    # sum over permutations of sign(p) * prod m[i][p(i)], sign by inversions
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_int_det_matches_generic(n):
    rng = random.Random(1000 + n)
    for _ in range(50):
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_det(m) == _leibniz_det(m)
        if n == 3:
            assert rational.determinant(m) == _leibniz_det(m)


def test_solve_columns_square():
    coeffs = rational.solve_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (3, -2, 5))
    assert coeffs == (3, -2, 5)
    coeffs = rational.solve_columns([(2, 0, 0), (0, 1, 1), (0, 0, 1)], (1, 1, 1))
    assert coeffs == (Fraction(1, 2), 1, 0)


def test_solve_columns_rejects_non_square_and_singular():
    for vectors, target in [
        ([(1, 0, 0), (0, 1, 0)], (2, 3, 0)),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (2, 3, 0)),
        ([(1, 0), (0, 1), (1, 1)], (2, 3)),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 3)),
        # singular, with the target inside and outside the span
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2, 3, 0)),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2, 3, 1)),
        ([(1, 2, 3), (2, 4, 6), (0, 0, 1)], (1, 2, 3)),
    ]:
        with pytest.raises(ValueError):
            rational.solve_columns(vectors, target)


def test_solve_columns_random_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        vecs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if rational.determinant(vecs) == 0:
            continue
        want = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        target = [
            sum(w * v[k] for w, v in zip(want, vecs)) for k in range(3)
        ]
        assert rational.solve_columns(vecs, target) == tuple(want)


@st.composite
def _column_sets(draw):
    """A kind and three integer 3-vectors of that kind, plus a target:
    determinant +-1, determinant > 1, determinant < -1, or singular."""
    kind = draw(st.sampled_from(["unimodular", "positive", "negative", "singular"]))
    entries = st.integers(-6, 6)
    if kind == "unimodular":
        vectors = random_unimodular(draw(st.randoms(use_true_random=False)))
    elif kind == "singular":
        a, b = ([draw(entries) for _ in range(3)] for _ in range(2))
        p, q = draw(entries), draw(entries)
        vectors = draw(st.permutations([a, b, [p * x + q * y for x, y in zip(a, b)]]))
    else:
        vectors = [[draw(entries) for _ in range(3)] for _ in range(3)]
        d = int_det(vectors)
        assume(abs(d) > 1)
        if (d < 0) != (kind == "negative"):
            vectors[0], vectors[1] = vectors[1], vectors[0]
    return kind, vectors, [draw(st.integers(-20, 20)) for _ in range(3)]


@settings(max_examples=400, deadline=None)
@given(_column_sets())
def test_cramer_numerators_and_solve_columns_match_fraction_cramer(case):
    kind, vectors, target = case
    if kind == "singular":
        for solve in (rational.cramer_numerators, rational.solve_columns, fraction_cramer):
            with pytest.raises(ValueError):
                solve(vectors, target)
        return
    want = fraction_cramer(vectors, target)
    d, numerators = rational.cramer_numerators(vectors, target)
    assert all(type(x) is int for x in (d, *numerators))
    assert d == int_det(vectors)
    assert {"unimodular": abs(d) == 1, "positive": d > 1, "negative": d < -1}[kind]
    assert tuple(Fraction(n, d) for n in numerators) == want
    assert rational.solve_columns(vectors, target) == want


def test_cross3_is_orthogonal_kernel():
    rng = random.Random(11)
    for _ in range(50):
        u = tuple(rng.randint(-5, 5) for _ in range(3))
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        c = rational.cross3(u, v)
        assert rational.dot(c, u) == 0
        assert rational.dot(c, v) == 0


def test_integerize():
    assert rational.integerize([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert rational.integerize([2, 4, 6]) == (1, 2, 3)
    assert rational.integerize([Fraction(-2, 3), Fraction(4, 3)]) == (-1, 2)
