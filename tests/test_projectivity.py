import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CATALOG_GRID, CATALOG_INSTANCES, blowup_chain, gauge_fixed_wall_rows
from oracles import feasible_by_basis_enumeration
import toricfans
from toricfans import cli, fanio, rational
from toricfans import (
    ObstructionWitness,
    ProjectivityCertificate,
    build,
    effective_ample_obstruction,
    find_wall,
    is_ample,
    is_nef,
    is_projective,
    is_smooth,
    nontrivial_nef_exists,
    primitive_collections,
    primitive_relation,
    projectivity,
    validate_fan,
    verify_certificate,
    verify_obstruction,
    wall_circuit,
    walls,
)
from toricfans.errors import NotCompleteError
from toricfans.lp import FeasiblePoint, solve_system


class TestWallInequalities:
    def test_projective_space_all_ones(self, p3):
        for wall in walls(p3):
            assert wall_circuit(p3, wall) == (1, 1, 1, 1)

    def test_w75_flopping_circuit(self):
        w = build("W7_5")
        # v2 + v6 - v1 - v7 = 0
        assert wall_circuit(w, find_wall(w, (0, 6))) == (-1, 1, 0, 0, 0, 1, -1)

    def test_z13pp_parameter_circuit(self):
        z = build("Z13pp", (1, 2, 1, 3))
        # v2 + v6 - v1 - b v4 = 0 at b = 2
        assert wall_circuit(z, find_wall(z, (0, 3))) == (-1, 1, 0, -2, 0, 1, 0, 0)

    def test_not_complete(self):
        fan = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
        for call in (
            is_projective,
            nontrivial_nef_exists,
            effective_ample_obstruction,
            lambda f: is_ample(f, [1, 1, 1]),
            lambda f: is_nef(f, [1, 1, 1]),
            lambda f: verify_certificate(f, ProjectivityCertificate(feasible_d=(1, 1, 1))),
            lambda f: verify_obstruction(f, ObstructionWitness({0: 1}, {})),
        ):
            with pytest.raises(NotCompleteError):
                call(fan)


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
        circuits = [wall_circuit(w, wall) for wall in walls(w)]
        total = [Fraction(0)] * 7
        for idx, m in cert.farkas.items():
            for j, c in enumerate(circuits[idx]):
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

    def test_projective_implies_nontrivial_nef_on_catalog_grid(self):
        # an ample class is nef and positive on every wall curve, so
        # `check --nef` may answer True without the LP on a projective fan
        projective = 0
        for fid, params in CATALOG_GRID:
            fan = build(fid, params)
            if is_projective(fan)[0]:
                assert nontrivial_nef_exists(fan)
                projective += 1
        assert projective == 155

    def test_one_lp_matches_one_lp_per_wall(self):
        # Reference: {d nef, circuit_w @ d >= 1} for each wall w in turn.
        fans = [build(fid, params) for fid, params in CATALOG_GRID]
        fans += [blowup_chain("W7_5", (), 15), blowup_chain("Z2", (1,), 15)]
        verdicts = []
        for fan in fans:
            rows = gauge_fixed_wall_rows(fan)
            unit = [[int(j == k) for j in range(len(rows))] for k in range(len(rows))]
            per_wall = any(isinstance(solve_system(rows, e), FeasiblePoint) for e in unit)
            assert nontrivial_nef_exists(fan) == per_wall
            verdicts.append(per_wall)
        assert True in verdicts and False in verdicts


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
        for wall in walls(fan):
            pair = tuple(sorted(wall.off_rays))
            if pair not in collections:
                continue
            rel = primitive_relation(fan, pair)
            if not set(rel.target_rays) <= set(wall.rays):
                continue
            row = [0] * len(fan.rays)
            for i in rel.collection:
                row[i] += 1
            for i, a in zip(rel.target_rays, rel.coefficients):
                row[i] -= a
            assert tuple(row) == wall_circuit(fan, wall), (fid, params, wall.rays)
            matched += 1
    assert matched > 20  # the comparison must actually bite


def test_solver_against_basis_enumeration_oracle():
    for fid, params in [("W7_5", ()), ("Z10", ()), ("Z5p", (-1,)), ("Z5p", (0,))]:
        fan = build(fid, params)
        rows = gauge_fixed_wall_rows(fan)
        assert feasible_by_basis_enumeration(rows, [1] * len(rows)) == is_projective(fan)[0]


_BROKEN_VERIFIER_SCRIPT = """
import toricfans.projectivity as p
from toricfans import build

if __debug__:
    raise SystemExit("not running under python -O")
p._certificate_holds = lambda rows, rhs, cert: False
p._obstruction_holds = lambda rows, rhs, witness: False
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


def _reference_certificate_holds(fan, cert):
    # the direct evaluation loops of the original verifier; a certificate
    # that does not fit the fan fails instead of raising or wrapping around
    circuits = [wall_circuit(fan, wall) for wall in walls(fan)]
    n = len(fan.rays)
    if cert.feasible_d is not None:
        d = cert.feasible_d
        if len(d) != n:
            return False
        return all(sum(Fraction(c) * x for c, x in zip(q, d)) >= 1 for q in circuits)
    if not cert.farkas or any(m < 0 for m in cert.farkas.values()):
        return False
    if any(k not in range(len(circuits)) for k in cert.farkas):
        return False
    combo = [Fraction(0)] * n
    for idx, m in cert.farkas.items():
        for j, c in enumerate(circuits[idx]):
            combo[j] += m * c
    return all(c == 0 for c in combo) and any(m > 0 for m in cert.farkas.values())


def _reference_obstruction_holds(fan, witness):
    collections = primitive_collections(fan)
    n = len(fan.rays)
    relation, nonneg = witness.relation_multipliers, witness.nonneg_multipliers
    if any(k not in range(len(collections)) for k in relation):
        return False
    if any(i not in range(n) for i in nonneg):
        return False
    if any(m < 0 for m in relation.values()) or any(m < 0 for m in nonneg.values()):
        return False
    if not any(m > 0 for m in relation.values()):
        return False
    combo = [Fraction(0)] * n
    for i, m in nonneg.items():
        combo[i] += m
    for k, m in relation.items():
        rel = primitive_relation(fan, collections[k])
        for i in rel.collection:
            combo[i] += m
        for i, a in zip(rel.target_rays, rel.coefficients):
            combo[i] -= m * a
    return all(c == 0 for c in combo)


def _entry_mutations(values):
    """Copies of a tuple with one entry dropped, negated or changed by one."""
    for i in range(len(values)):
        yield values[:i] + values[i + 1:]
        yield values[:i] + (-values[i],) + values[i + 1:]
        yield values[:i] + (values[i] + 1,) + values[i + 1:]


def _dict_mutations(mult, size):
    """Copies of a {row index: multiplier} dict with one entry dropped,
    negated or changed by one, or one key shifted, negative or out of range."""
    for k, m in mult.items():
        rest = {j: x for j, x in mult.items() if j != k}
        yield rest
        for changed in (-m, m + 1):
            yield {**rest, k: changed}
        for key in (k + 1, -1 - k, size + k):
            yield {**rest, key: m}


def test_verifiers_match_reference_on_solver_and_mutated_certificates():
    checked = 0
    for fid, params in CATALOG_INSTANCES:
        fan = build(fid, params)
        _, cert = is_projective(fan)
        if cert.feasible_d is not None:
            d = cert.feasible_d
            mutants = [ProjectivityCertificate(feasible_d=m) for m in _entry_mutations(d)]
            mutants.append(ProjectivityCertificate(feasible_d=d[: len(d) // 2]))
        else:
            mutants = [
                ProjectivityCertificate(farkas=m)
                for m in _dict_mutations(cert.farkas, len(walls(fan)))
            ]
        for c in [cert] + mutants:
            assert verify_certificate(fan, c) == _reference_certificate_holds(fan, c), (fid, c)
            checked += 1
        assert verify_certificate(fan, cert)

        witness = effective_ample_obstruction(fan)
        if witness is None:
            continue
        relation, nonneg = witness.relation_multipliers, witness.nonneg_multipliers
        mutants = [
            ObstructionWitness(m, nonneg)
            for m in _dict_mutations(relation, len(primitive_collections(fan)))
        ] + [ObstructionWitness(relation, m) for m in _dict_mutations(nonneg, len(fan.rays))]
        for w in [witness] + mutants:
            assert verify_obstruction(fan, w) == _reference_obstruction_holds(fan, w), (fid, w)
            checked += 1
        assert verify_obstruction(fan, witness)
    assert checked > 500


@pytest.mark.parametrize("shape", [list, tuple, str])
def test_multipliers_that_are_not_a_dict_fail_verification(shape):
    # the dense form of a valid witness, which the verifiers do not read
    w = build("W7_5")
    _, cert = is_projective(w)
    witness = effective_ample_obstruction(w)
    relation, nonneg = witness.relation_multipliers, witness.nonneg_multipliers

    def dense(mult, size):
        return "1" if shape is str else shape(mult.get(k, 0) for k in range(size))

    farkas = dense(cert.farkas, len(walls(w)))
    assert verify_certificate(w, ProjectivityCertificate(farkas=farkas)) is False
    relation_dense = dense(relation, len(primitive_collections(w)))
    assert verify_obstruction(w, ObstructionWitness(relation_dense, nonneg)) is False
    nonneg_dense = dense(nonneg, len(w.rays))
    assert verify_obstruction(w, ObstructionWitness(relation, nonneg_dense)) is False


def test_effective_obstruction_scans_primitive_collections_once(monkeypatch):
    scans = []

    def counting_primitive_collections(fan):
        scans.append(fan)
        return primitive_collections(fan)

    monkeypatch.setattr(projectivity, "primitive_collections", counting_primitive_collections)
    witnesses = 0
    for fid, params in CATALOG_GRID:
        witnesses += effective_ample_obstruction(build(fid, params)) is not None
    assert witnesses > 0
    assert len(scans) == len(CATALOG_GRID) == 355


def test_effective_ample_system_is_feasible_on_projective_fans():
    # `check --certificate` prints null unsolved on a fan with an ample
    # certificate; here the LP really runs on each such fan and agrees
    fans = [build(fid, params) for fid, params in CATALOG_INSTANCES]
    fans += [blowup_chain("Z2", (1,), top) for top in range(9, 16)]
    checked = 0
    for fan in fans:
        if is_smooth(fan) and is_projective(fan)[0]:
            assert effective_ample_obstruction(fan) is None, fan
            checked += 1
    assert checked == 16  # 9 catalog instances and 7 rungs


@pytest.mark.parametrize("fid, params", [("W7_5", ()), ("Z2", (1,))])
def test_every_ladder_rung_is_decided_with_certificates(fid, params):
    # Rungs of 9 to 21 rays of the seeded blow-up chain; Z2(1) stays projective.
    for top in range(9, 22):
        fan = blowup_chain(fid, params, top)
        projective, cert = is_projective(fan)
        assert verify_certificate(fan, cert), (fid, top)
        if fid == "Z2":
            assert projective, top
        witness = effective_ample_obstruction(fan)
        if witness is not None:
            assert verify_obstruction(fan, witness), (fid, top)
            assert not projective, (fid, top)


def test_ladder_certificate_stays_in_integers(tmp_path, monkeypatch, capsys):
    # `check --certificate` on the 21-ray W7_5 rung locates every relation by
    # integer dual normals, never by a Fraction solve
    path = tmp_path / "rung.fan"
    fanio.save_fan(blowup_chain("W7_5", (), 21), path)
    calls = []
    real = rational.solve_columns
    monkeypatch.setattr(rational, "solve_columns", lambda *args: calls.append(args) or real(*args))
    assert cli.main(["check", str(path), "--certificate"]) == 0
    assert '"effective_ample_obstruction"' in capsys.readouterr().out
    assert calls == []
