"""Exact-arithmetic toolkit for simplicial lattice fans in dimension 3.

Validation, smoothness/completeness/projectivity predicates with
re-checkable certificates, star subdivisions and ray contractions,
flip/flop/anti-flip wall surgeries, exhaustive enumeration of smooth
complete fans on a fixed ray set, and breadth-first search for projective
models. All arithmetic is arbitrary-precision integer/rational.
"""

from .catalog import build, expected_projectivity, family_ids
from .enumeration import (
    EnumerationReport,
    enumerate_smooth_complete_fans,
    unique_fan_condition,
)
from .errors import FanError, FanValidationError
from .fan import (
    Fan,
    PrimitiveRelation,
    Wall,
    canonical_key,
    change_basis,
    contract_ray,
    is_complete,
    is_smooth,
    picard_number,
    primitive_collections,
    primitive_relation,
    star_subdivide,
    validate_fan,
    wall_circuit,
    walls,
)
from .projectivity import (
    ObstructionWitness,
    ProjectivityCertificate,
    effective_ample_obstruction,
    is_ample,
    is_nef,
    is_projective,
    nontrivial_nef_exists,
    verify_certificate,
    verify_obstruction,
)
from .search import SearchResult, SurgeryGraph, projectivize, surgery_graph
from .surgery import (
    SurgeryStep,
    WallClassification,
    WallKind,
    classify_wall,
    find_wall,
    flopping_walls,
    perform_surgery,
)

__all__ = [
    "EnumerationReport",
    "Fan",
    "FanError",
    "FanValidationError",
    "ObstructionWitness",
    "PrimitiveRelation",
    "ProjectivityCertificate",
    "SearchResult",
    "SurgeryGraph",
    "SurgeryStep",
    "Wall",
    "WallClassification",
    "WallKind",
    "build",
    "canonical_key",
    "change_basis",
    "classify_wall",
    "contract_ray",
    "effective_ample_obstruction",
    "enumerate_smooth_complete_fans",
    "expected_projectivity",
    "family_ids",
    "find_wall",
    "flopping_walls",
    "is_ample",
    "is_complete",
    "is_nef",
    "is_projective",
    "is_smooth",
    "nontrivial_nef_exists",
    "perform_surgery",
    "picard_number",
    "primitive_collections",
    "primitive_relation",
    "projectivize",
    "star_subdivide",
    "surgery_graph",
    "unique_fan_condition",
    "validate_fan",
    "verify_certificate",
    "verify_obstruction",
    "wall_circuit",
    "walls",
]

__version__ = "0.1.0"
