"""Tests of the benchmark itself: its inputs, its output checks and its
timeout path."""

import json
from pathlib import Path

import pytest

from perfbench import harness, workloads
from perfbench.checks import check_output, output_digest
from toricfans import canonical_key, is_complete, is_smooth

RECORDED = json.loads((Path(__file__).parent / "expected.json").read_text())["digests"]


@pytest.fixture(scope="module")
def ladder_ops(tmp_path_factory):
    return {op.key: op for op in workloads.build_ops("blowup-ladder", 0, tmp_path_factory.mktemp("ladder"))}


@pytest.fixture(scope="module")
def catalog_ops(tmp_path_factory):
    return {op.key: op for op in workloads.build_ops("catalog-check", 0, tmp_path_factory.mktemp("catalog"))}


def _stdout(op):
    capture = {}
    result = harness.run_op(op, 30.0, RECORDED, capture=capture)
    assert result.decided, result
    return capture["stdout"]


@pytest.mark.parametrize("base", workloads.LADDER_BASES)
def test_ladder_chain_is_deterministic_smooth_and_complete(base):
    first = workloads.blowup_chain(*base)
    again = workloads.blowup_chain(*base)
    assert [canonical_key(f) for f in first] == [canonical_key(f) for f in again]
    assert [len(f.rays) for f in first] == list(range(9, workloads.LADDER_TOP + 1))
    assert all(is_smooth(f) and is_complete(f) for f in first)


def test_op_order_follows_the_seed(tmp_path):
    def keys(seed):
        return [op.key for op in workloads.build_ops("surgery-search", seed, tmp_path)]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)
    assert sorted(keys(3)) == sorted(keys(4))


@pytest.mark.parametrize("key", ["check:W7_5", "check:Z2(0)"])
def test_tampered_certificate_is_a_failure(catalog_ops, key):
    op = catalog_ops[key]
    stdout = _stdout(op)
    assert check_output(op, 0, stdout, RECORDED) == []
    doc = json.loads(stdout)
    cert = doc["certificate"]
    field = "farkas" if "farkas" in cert else "feasible_d"
    if field == "farkas":
        first = sorted(cert[field])[0]
        cert[field][first] = "7/3"
    else:
        cert[field][-1] = "-100"
    assert check_output(op, 0, json.dumps(doc), RECORDED)


def test_tampered_digest_is_a_failure(tmp_path):
    op = next(op for op in workloads.build_ops("surgery-search", 0, tmp_path) if op.key == "search:W7_5")
    stdout = _stdout(op)
    assert output_digest(op, stdout) == RECORDED[op.key]
    assert check_output(op, 0, stdout.replace('"visited": ', '"visited": 1'), RECORDED)
    assert check_output(op, 0, stdout, {**RECORDED, op.key: "0" * 64})
    assert check_output(op, 0, stdout, {})


def test_wrong_verdict_is_a_failure(catalog_ops):
    op = catalog_ops["check:Z2(0)"]
    doc = json.loads(_stdout(op))
    doc["projective"] = False
    assert check_output(op, 0, json.dumps(doc), RECORDED)


def test_forced_timeout_is_recorded_and_the_next_op_runs(ladder_ops):
    slow = harness.run_op(ladder_ops["ladder:W7_5:seed0:21"], 0.05, RECORDED)
    fast = harness.run_op(ladder_ops["ladder:W7_5:seed0:9"], 30.0, RECORDED)
    assert slow.timed_out and slow.rung == 21 and not slow.problems
    assert slow.elapsed_s >= 0.05
    assert fast.decided
    metrics, notes = harness.end_to_end([[slow, fast]], [0.1], 1.0)
    assert notes["timeouts"] == 1 and notes["latency_samples"] == 2
    assert metrics["decided_frac"]["value"] == 0.5
    assert metrics["run_s"]["value"] == slow.elapsed_s + fast.elapsed_s


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = [float(i) for i in range(100)]
    percentile, value = harness.tail(samples)
    assert value == 89.0 and percentile == 90.0
    assert sum(s > value for s in samples) == 10
