"""Chart-level tensor calculus for almost contact metric structures,
homothety-type metric deformations, and soliton equation verification."""

__version__ = "0.1.0"

from .config import (
    ALL_SUITES,
    ConfigError,
    VerificationConfig,
    builtin_config,
    builtin_names,
    load_config,
    load_config_text,
)
from .deformation import (
    DeformedStructure,
    NotKenmotsuError,
    deform,
)
from .expr import EvalError, ParseError, diff, evaluate, parse_expr
from .geometry import (
    AcmStructure,
    ChartManifold,
    ScalarField,
    VectorField,
)
from .solitons import SolitonCandidate, classify
from .suites import (
    REPORT_VERSION,
    CheckResult,
    build_report,
    report_json,
    run_suites,
)
from .tensor import StructureError, TensorValue, hs_inner, kulkarni_nomizu

__all__ = [
    "__version__",
    "ALL_SUITES",
    "AcmStructure",
    "ChartManifold",
    "CheckResult",
    "ConfigError",
    "DeformedStructure",
    "EvalError",
    "NotKenmotsuError",
    "ParseError",
    "REPORT_VERSION",
    "ScalarField",
    "SolitonCandidate",
    "StructureError",
    "TensorValue",
    "VectorField",
    "VerificationConfig",
    "build_report",
    "builtin_config",
    "builtin_names",
    "classify",
    "deform",
    "diff",
    "evaluate",
    "hs_inner",
    "kulkarni_nomizu",
    "load_config",
    "load_config_text",
    "parse_expr",
    "report_json",
    "run_suites",
]
