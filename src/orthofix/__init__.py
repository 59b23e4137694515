"""orthofix: exact verification and certified fixed point iteration for
metric spaces equipped with an orthogonality relation.

Everything is computed in exact arithmetic (rationals, or a single
quadratic extension for analytic samples): metric validation, orthogonality
classification, contraction-constant estimation, Picard iteration with
runtime-enforced error certificates, a brute-force oracle with a randomized
theorem audit, and a corpus of desk-checkable worked examples.

The relation facts (labels, the relation, its closure, the weak elements)
live on a `PointRelation`; a `FiniteSpace` is one with an exact rational
metric.  Metric validation and the one contraction scan loop read that
metric's integer form, built once per space; only the analytic samples'
value-domain scans read exact scalars.  Every result record but the
Picard trace gets its JSON form from one function, `records.to_dict`.

`import orthofix` loads no submodule.  A public name is resolved on first
use (PEP 562) through `_EXPORTS`, which imports only the name's home
module, so a command or a script compiles only the code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> home submodule
_EXPORTS = {
    "AuditSummary": "oracle",
    "CaseReport": "corpus",
    "CertificateError": "errors",
    "ContractionKind": "kinds",
    "ContractionReport": "contraction",
    "FiniteSpace": "space",
    "GenParams": "oracle",
    "HierarchyVerdict": "contraction",
    "HypothesisReport": "solver",
    "InputError": "errors",
    "OrbitInfo": "relational",
    "OrthoClassification": "relational",
    "OrthofixError": "errors",
    "PicardTrace": "solver",
    "PointRelation": "space",
    "PreservationReport": "relational",
    "QuadExt": "quadext",
    "SelfMap": "space",
    "ValidationReport": "space",
    "brute_force_fixed_points": "relational",
    "check_contraction": "contraction",
    "classify_orthogonality": "relational",
    "generate_map": "oracle",
    "generate_space": "oracle",
    "hierarchy_check": "contraction",
    "hypothesis_check": "solver",
    "is_ow_preserving": "relational",
    "is_ow_sequence": "relational",
    "list_cases": "kinds",
    "load_space_file": "spacefile",
    "m_value": "contraction",
    "orbit": "relational",
    "parse_rational": "rational",
    "parse_space_data": "spacefile",
    "picard_solve": "solver",
    "run_case": "corpus",
    "scan_value_pairs": "contraction",
    "space_to_dict": "spacefile",
    "strong_orthogonal_elements": "relational",
    "theorem_audit": "oracle",
    "validate_metric": "space",
    "weak_orthogonal_elements": "relational",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
