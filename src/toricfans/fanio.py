"""The fan file format and JSON documents for certificates and reports.

A fan file is one JSON document with fields ``dim`` (the int 3), ``rays``
(list of integer vectors) and ``max_cones`` (list of lists of 0-based ray
indices). Every coordinate and index must be a JSON integer: ``true``,
``2.0`` and ``"2"`` are rejected, not converted. Serialization is
canonical: each cone ascending, cone list lexicographic, fixed key order,
two-space indent, trailing newline; re-reading and re-writing a file
reproduces it byte for byte. Rationals appear as exact strings like ``"3"``
or ``"-5/2"``.

Ray indices inside documents are 0-based; human-readable ``label`` fields use
the 1-based v1..vN names.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .enumeration import EnumerationReport
from .errors import FanValidationError
from .fan import Fan, Wall, canonical_key, validate_fan
from .projectivity import ObstructionWitness, ProjectivityCertificate
from .search import SearchResult, SurgeryGraph
from .surgery import SurgeryStep

INDEXING_NOTE = "ray indices are 0-based; labels v1..vN are 1-based"


def ray_label(index: int) -> str:
    return f"v{index + 1}"


def cone_label(indices) -> str:
    return ",".join(ray_label(i) for i in indices)


def fraction_str(x) -> str:
    return str(Fraction(x))


def fan_to_doc(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(v) for v in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_doc(doc: dict) -> Fan:
    if not isinstance(doc, dict):
        raise FanValidationError(
            f"a fan document must be a JSON object, not {type(doc).__name__}"
        )
    try:
        dim = doc["dim"]
        rays = doc["rays"]
        cones = doc["max_cones"]
    except KeyError as exc:
        raise FanValidationError(f"fan document is missing field {exc}") from None
    return validate_fan(dim, rays, cones)


def dumps(doc) -> str:
    """Canonical JSON rendering: leaf lists inline, structures indented."""
    return _render(doc, 0) + "\n"


def _render(obj, depth: int) -> str:
    pad = "  " * depth
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, depth + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(not isinstance(x, (dict, list)) for x in obj):
            return json.dumps(obj)
        lines = [f"{pad}  {_render(v, depth + 1)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    return json.dumps(obj)


def load_fan(path) -> Fan:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FanValidationError(f"cannot read fan file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanValidationError(f"not a JSON fan file: {exc}") from None
    return fan_from_doc(doc)


def save_fan(fan: Fan, path) -> None:
    Path(path).write_text(dumps(fan_to_doc(fan)), encoding="utf-8")


def key_digest(key) -> str:
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:12]


def fan_digest(fan: Fan) -> str:
    return key_digest(canonical_key(fan))


def wall_to_doc(wall: Wall) -> dict:
    return {
        "rays": list(wall.rays),
        "label": cone_label(wall.rays),
        "side_cones": [list(c) for c in wall.side_cones],
        "off_rays": list(wall.off_rays),
    }


def certificate_to_doc(cert: ProjectivityCertificate) -> dict:
    if cert.feasible_d is not None:
        return {"feasible_d": [fraction_str(x) for x in cert.feasible_d]}
    return {
        "farkas": {str(i): fraction_str(m) for i, m in sorted(cert.farkas.items())}
    }


def obstruction_to_doc(witness: ObstructionWitness) -> dict:
    return {
        "relation_multipliers": {
            str(i): fraction_str(m)
            for i, m in sorted(witness.relation_multipliers.items())
        },
        "nonneg_multipliers": {
            str(i): fraction_str(m)
            for i, m in sorted(witness.nonneg_multipliers.items())
        },
    }


def step_to_doc(step: SurgeryStep) -> dict:
    return {
        "wall": list(step.wall_rays),
        "kind": step.kind.value,
        "degree": step.degree,
        "before": key_digest(step.before_key),
        "after": key_digest(step.after_key),
    }


def search_result_to_doc(result: SearchResult) -> dict:
    return {
        "indexing": INDEXING_NOTE,
        "found": result.found,
        "steps": [step_to_doc(s) for s in result.steps],
        "final_fan": fan_to_doc(result.final_fan),
        "final_smooth": result.final_smooth,
        "visited": result.visited,
        "depth_reached": result.depth_reached,
    }


def graph_to_doc(graph: SurgeryGraph) -> dict:
    return {
        "indexing": INDEXING_NOTE,
        "nodes": [
            {
                "key": key_digest(n.key),
                "smooth": n.smooth,
                "projective": n.projective,
            }
            for n in graph.nodes
        ],
        "edges": [
            {
                "source": key_digest(e.before_key),
                "target": key_digest(e.after_key),
                "wall": list(e.wall_rays),
                "kind": e.kind.value,
                "degree": e.degree,
            }
            for e in graph.edges
        ],
    }


def graph_to_dot(graph: SurgeryGraph) -> str:
    lines = ["digraph surgeries {"]
    for n in graph.nodes:
        digest = key_digest(n.key)
        flags = ("S" if n.smooth else "-") + ("P" if n.projective else "-")
        lines.append(f'  "{digest}" [label="{digest} {flags}"];')
    for e in graph.edges:
        label = f"{cone_label(e.wall_rays)} {e.kind.value} {e.degree}"
        lines.append(
            f'  "{key_digest(e.before_key)}" -> "{key_digest(e.after_key)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumeration_report_to_doc(report: EnumerationReport) -> dict:
    return {
        "indexing": INDEXING_NOTE,
        "rays": [list(v) for v in report.rays],
        "fan_count": len(report.fans),
        "fans": [
            {"key": fan_digest(fan), "fan": fan_to_doc(fan)} for fan in report.fans
        ],
        "candidate_cone_count": report.candidate_cone_count,
        "search_nodes": report.search_nodes,
    }
