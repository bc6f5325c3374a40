"""Checks of every op's output.

A ``check`` document is checked three ways: its verdict against the known
answer, its certificate and obstruction by re-verification against the input
fan, and its solver-independent decisions against the digest recorded at the
seed commit. ``search``, ``graph`` and ``enumerate`` output does not depend on
how the LP is solved, so their whole stdout must match the recorded digest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from toricfans import (
    ObstructionWitness,
    ProjectivityCertificate,
    verify_certificate,
    verify_obstruction,
)

from .workloads import Op

NO_DIGEST = "no digest recorded for this op"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def decision_view(doc: dict) -> dict:
    """The part of a ``check`` document that every correct solver prints the
    same: verdicts and which kind of witness exists, not the witness."""
    view = {k: v for k, v in doc.items() if k not in ("certificate", "effective_ample_obstruction")}
    if "certificate" in doc:
        view["certificate"] = sorted(doc["certificate"])
    if "effective_ample_obstruction" in doc:
        view["effective_ample_obstruction"] = doc["effective_ample_obstruction"] is not None
    return view


def output_digest(op: Op, stdout: str) -> str:
    """The digest recorded for an op: of the decision view for ``check``,
    of the whole stdout otherwise."""
    if op.argv[0] == "check":
        return sha256(json.dumps(decision_view(json.loads(stdout)), sort_keys=True))
    return sha256(stdout)


def _certificate(doc: dict) -> ProjectivityCertificate:
    if set(doc) == {"feasible_d"}:
        return ProjectivityCertificate(feasible_d=tuple(Fraction(x) for x in doc["feasible_d"]))
    if set(doc) == {"farkas"}:
        return ProjectivityCertificate(farkas={int(k): Fraction(v) for k, v in doc["farkas"].items()})
    raise ValueError(f"unknown certificate fields {sorted(doc)}")


def _obstruction(doc: dict) -> ObstructionWitness:
    return ObstructionWitness(
        relation_multipliers={int(k): Fraction(v) for k, v in doc["relation_multipliers"].items()},
        nonneg_multipliers={int(k): Fraction(v) for k, v in doc["nonneg_multipliers"].items()},
    )


def _check_doc_problems(op: Op, doc: dict) -> list[str]:
    problems = []
    if not (doc.get("valid") and doc.get("complete")):
        problems.append("fan reported invalid or incomplete")
        return problems
    projective = doc["projective"]
    if op.expect_projective is not None and projective != op.expect_projective:
        problems.append(f"verdict {projective}, expected {op.expect_projective}")
    cert = _certificate(doc["certificate"])
    if (cert.feasible_d is not None) != projective:
        problems.append("certificate kind does not match the verdict")
    elif not verify_certificate(op.fan, cert):
        problems.append("certificate does not re-verify")
    if doc["smooth"]:
        witness = doc["effective_ample_obstruction"]
        if witness is not None:
            if projective:
                problems.append("obstruction reported for a projective fan")
            elif not verify_obstruction(op.fan, _obstruction(witness)):
                problems.append("obstruction does not re-verify")
    return problems


def check_output(op: Op, rc: int, stdout: str, recorded: dict[str, str]) -> list[str]:
    """Problems found in one op's exit code and stdout; empty when correct.

    ``recorded`` maps op keys to the digests recorded at the seed commit; an
    op of a solver-independent command without a recorded digest is a problem.
    """
    command = op.argv[0]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"exit {rc}, stdout is not JSON"]
    if command == "search":
        # exit 1 is the verdict "no projective model within depth"
        if rc != (0 if doc.get("found") else 1):
            return [f"exit {rc} does not match found={doc.get('found')}"]
    elif rc != 0:
        return [f"exit {rc}"]
    problems = []
    if command == "check":
        try:
            problems += _check_doc_problems(op, doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"malformed check document: {exc!r}")
    want = recorded.get(op.key)
    if want is None:
        if command != "check":
            problems.append(NO_DIGEST)
    elif output_digest(op, stdout) != want:
        problems.append("output digest differs from the seed commit")
    return problems
