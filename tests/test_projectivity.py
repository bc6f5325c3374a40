import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CATALOG_INSTANCES
import toricfans
from toricfans import (
    build,
    effective_ample_obstruction,
    is_ample,
    is_nef,
    is_projective,
    is_smooth,
    nontrivial_nef_exists,
    primitive_collections,
    primitive_relation,
    validate_fan,
    verify_certificate,
    verify_obstruction,
    wall_inequalities,
)
from toricfans.errors import NotCompleteError
from toricfans.lp import feasible_by_basis_enumeration
from toricfans.projectivity import _gauge_columns


class TestWallInequalities:
    def test_projective_space_all_ones(self, p3):
        for q in wall_inequalities(p3):
            assert q.coeffs == (1, 1, 1, 1)

    def test_w75_flopping_circuit(self):
        w = build("W7_5")
        q = next(
            q for q in wall_inequalities(w) if q.wall.rays == (0, 6)
        )
        # v2 + v6 - v1 - v7 = 0
        assert q.coeffs == (-1, 1, 0, 0, 0, 1, -1)

    def test_z13pp_parameter_circuit(self):
        z = build("Z13pp", (1, 2, 1, 3))
        q = next(q for q in wall_inequalities(z) if q.wall.rays == (0, 3))
        # v2 + v6 - v1 - b v4 = 0 at b = 2
        assert q.coeffs == (-1, 1, 0, -2, 0, 1, 0, 0)

    def test_not_complete(self):
        fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
        with pytest.raises(NotCompleteError):
            wall_inequalities(fan)


class TestProjectivity:
    def test_w75_infeasible_with_reverifiable_farkas(self):
        w = build("W7_5")
        projective, cert = is_projective(w)
        assert not projective
        assert cert.farkas is not None and cert.feasible_d is None
        assert verify_certificate(w, cert)

    def test_w75_farkas_combination_is_zero(self):
        w = build("W7_5")
        _, cert = is_projective(w)
        qs = wall_inequalities(w)
        total = [Fraction(0)] * 7
        for idx, m in cert.farkas.items():
            for j, c in enumerate(qs[idx].coeffs):
                total[j] += m * c
        assert all(x == 0 for x in total)

    def test_z10_projective_with_ample_witness(self):
        z = build("Z10")
        projective, cert = is_projective(z)
        assert projective
        assert cert.feasible_d is not None
        assert verify_certificate(z, cert)
        assert is_ample(z, cert.feasible_d)

    def test_z5p_verdicts(self):
        assert not is_projective(build("Z5p", (-1,)))[0]
        assert is_projective(build("Z5p", (0,)))[0]

    def test_projective_space(self, p3):
        assert is_projective(p3)[0]


class TestAmpleNef:
    def test_hyperplane_class(self, p3):
        assert is_ample(p3, [0, 0, 0, 1])
        assert not is_ample(p3, [0, 0, 0, -1])
        assert is_nef(p3, [0, 0, 0, 1])

    def test_nothing_effective_is_ample_on_w75(self):
        w = build("W7_5")
        assert not is_ample(w, [1] * 7)
        assert not is_ample(w, [2, 1, 3, 1, 5, 1, 1])
        assert not is_ample(w, [0] * 7)

    def test_zero_divisor_is_nef(self, p3):
        assert is_nef(p3, [0, 0, 0, 0])
        assert is_nef(build("W7_5"), [0] * 7)

    def test_w75_indicator_divisor_not_nef(self):
        # the circuit of wall (v4, v5) evaluates to -2 on the v4 indicator
        w = build("W7_5")
        d = [0] * 7
        d[3] = 1
        assert not is_nef(w, d)

    def test_homogeneity(self, p3):
        z = build("Z10")
        _, cert = is_projective(z)
        d = cert.feasible_d
        for q in (Fraction(1, 7), 2, Fraction(5, 3)):
            assert is_ample(z, [q * x for x in d])


class TestNontrivialNef:
    def test_z12_has_none(self):
        assert not nontrivial_nef_exists(build("Z12"))

    def test_projective_space_has_ample(self, p3):
        assert nontrivial_nef_exists(p3)

    def test_w75_has_semiample(self):
        assert nontrivial_nef_exists(build("W7_5"))


class TestEffectiveAmpleObstruction:
    def test_w75_witness(self):
        w = build("W7_5")
        witness = effective_ample_obstruction(w)
        assert witness is not None
        assert verify_obstruction(w, witness)
        assert any(m > 0 for m in witness.relation_multipliers.values())

    def test_z14pp_witness_for_all_parameters(self):
        for a in (-2, 0, 1):
            for b in (-1, 0, 2):
                z = build("Z14pp", (a, b))
                witness = effective_ample_obstruction(z)
                assert witness is not None
                assert verify_obstruction(z, witness)

    def test_projective_space_has_no_witness(self, p3):
        assert effective_ample_obstruction(p3) is None

    def test_witness_implies_non_projective(self):
        for fid, params in CATALOG_INSTANCES:
            fan = build(fid, params)
            if effective_ample_obstruction(fan) is not None:
                assert not is_projective(fan)[0], (fid, params)


def test_wall_inequality_matches_primitive_relation_rows():
    # on a smooth fan, a wall whose off-ray pair is a primitive collection
    # with target inside the wall reproduces the relation-degree inequality
    matched = 0
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        if not is_smooth(fan):
            continue
        collections = set(primitive_collections(fan))
        for q in wall_inequalities(fan):
            pair = tuple(sorted(q.wall.off_rays))
            if pair not in collections:
                continue
            rel = primitive_relation(fan, pair)
            if not set(rel.target_rays) <= set(q.wall.rays):
                continue
            row = [0] * len(fan.rays)
            for i in rel.collection:
                row[i] += 1
            for i, a in zip(rel.target_rays, rel.coefficients):
                row[i] -= a
            assert tuple(row) == q.coeffs, (fid, params, q.wall.rays)
            matched += 1
    assert matched > 20  # the comparison must actually bite


def test_solver_against_basis_enumeration_oracle():
    for fid, params in [("W7_5", ()), ("Z10", ()), ("Z5p", (-1,)), ("Z5p", (0,))]:
        fan = build(fid, params)
        qs = wall_inequalities(fan)
        free = _gauge_columns(fan)
        rows = [tuple(q.coeffs[i] for i in free) for q in qs]
        assert feasible_by_basis_enumeration(rows, [1] * len(rows)) == is_projective(fan)[0]


_BROKEN_VERIFIER_SCRIPT = """
import toricfans.projectivity as p
from toricfans import build

if __debug__:
    raise SystemExit("not running under python -O")
p._certificate_holds = lambda ineqs, n, cert: False
p.verify_obstruction = lambda fan, witness: False
for call in (
    lambda: p.is_projective(build("W7_5")),
    lambda: p.is_projective(build("Z10")),
    lambda: p.effective_ample_obstruction(build("W7_5")),
):
    try:
        call()
    except AssertionError:
        print("raised")
    else:
        print("silent")
"""


def test_reverification_survives_python_O():
    # a certificate or obstruction that fails re-verification must raise even
    # with assert statements compiled out
    src = str(Path(toricfans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_VERIFIER_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised"] * 3
