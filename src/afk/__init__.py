"""Exact nonstable K-theory computations for AF-algebras given by Bratteli diagrams."""

from .colimit import ColimitResult, colimit_dimension, fm_dimension, fm_profile, k0_rational_dimension
from .diagram import (
    AffineTail,
    BratteliDiagram,
    DiagramError,
    EmptyLevel,
    LevelOutOfRange,
    ShapeMismatch,
    SizeOverflowAtEdge,
    ValidationReport,
    ensure_valid,
    materialize,
    validate,
)
from .io import DiagramDocument, ParseError, export_dot, from_diagram, input_digest, parse, serialize, to_diagram
from .kstability import (
    INCONCLUSIVE,
    InfiniteChainError,
    InjectivityRequired,
    KChainWitness,
    KStabilityVerdict,
    classify,
    find_infinite_k_chain,
    replay_witness,
    telescope,
)
from .linalg import DimensionMismatch, IntMatrix, NotSquare, multiply, rank
from .truncation import EvenDegree, TruncatedSystem, build_system, d, truncate_map

__version__ = "0.1.0"

__all__ = [
    "AffineTail",
    "BratteliDiagram",
    "ColimitResult",
    "DiagramDocument",
    "DiagramError",
    "DimensionMismatch",
    "EmptyLevel",
    "EvenDegree",
    "INCONCLUSIVE",
    "InfiniteChainError",
    "InjectivityRequired",
    "IntMatrix",
    "KChainWitness",
    "KStabilityVerdict",
    "LevelOutOfRange",
    "NotSquare",
    "ParseError",
    "ShapeMismatch",
    "SizeOverflowAtEdge",
    "TruncatedSystem",
    "ValidationReport",
    "build_system",
    "classify",
    "colimit_dimension",
    "d",
    "ensure_valid",
    "export_dot",
    "find_infinite_k_chain",
    "fm_dimension",
    "fm_profile",
    "from_diagram",
    "input_digest",
    "k0_rational_dimension",
    "materialize",
    "multiply",
    "parse",
    "rank",
    "replay_witness",
    "serialize",
    "telescope",
    "to_diagram",
    "truncate_map",
    "validate",
]
