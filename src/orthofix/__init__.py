"""orthofix: exact verification and certified fixed point iteration for
metric spaces equipped with an orthogonality relation.

Everything is computed in exact arithmetic (rationals, or a single
quadratic extension for analytic samples): metric validation, orthogonality
classification, contraction-constant estimation, Picard iteration with
runtime-enforced error certificates, a brute-force oracle with a randomized
theorem audit, and a corpus of desk-checkable worked examples.

Metric validation and the one contraction scan loop read a rational
metric's integer form, built once per space, and exact scalars otherwise.
"""

from .contraction import (
    Analysis,
    ContractionKind,
    ContractionReport,
    HierarchyVerdict,
    check_contraction,
    hierarchy_check,
    m_value,
    scan_value_pairs,
)
from .corpus import CaseReport, list_cases, run_case
from .errors import CertificateError, InputError, OrthofixError
from .oracle import (
    AuditSummary,
    GenParams,
    brute_force_fixed_points,
    generate_map,
    generate_space,
    theorem_audit,
)
from .quadext import QuadExt, qext_compare, qext_is_rational
from .rational import parse_rational
from .relational import (
    OrbitInfo,
    OrthoClassification,
    PreservationReport,
    classify_orthogonality,
    is_ow_preserving,
    is_ow_sequence,
    orbit,
    strong_orthogonal_elements,
    weak_orthogonal_elements,
)
from .solver import (
    HypothesisReport,
    PicardTrace,
    certify_fixed_point,
    hypothesis_check,
    picard_solve,
    required_iterations,
)
from .space import FiniteSpace, SelfMap, ValidationReport, validate_metric
from .spacefile import load_space_file, parse_space_data, space_to_dict

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AuditSummary",
    "CaseReport",
    "CertificateError",
    "ContractionKind",
    "ContractionReport",
    "FiniteSpace",
    "GenParams",
    "HierarchyVerdict",
    "HypothesisReport",
    "InputError",
    "OrbitInfo",
    "OrthoClassification",
    "OrthofixError",
    "PicardTrace",
    "PreservationReport",
    "QuadExt",
    "SelfMap",
    "ValidationReport",
    "brute_force_fixed_points",
    "certify_fixed_point",
    "check_contraction",
    "classify_orthogonality",
    "generate_map",
    "generate_space",
    "hierarchy_check",
    "hypothesis_check",
    "is_ow_preserving",
    "is_ow_sequence",
    "list_cases",
    "load_space_file",
    "m_value",
    "orbit",
    "parse_rational",
    "parse_space_data",
    "picard_solve",
    "qext_compare",
    "qext_is_rational",
    "required_iterations",
    "run_case",
    "scan_value_pairs",
    "space_to_dict",
    "strong_orthogonal_elements",
    "theorem_audit",
    "validate_metric",
    "weak_orthogonal_elements",
]
