"""Exact nonstable K-theory computations for AF-algebras given by Bratteli diagrams.

The exported names are resolved on first use (PEP 562): `_EXPORTS` maps each
name to the module that defines it, and that module is imported only when
the name is first read.  So `import afk` loads no engine module, and a
command-line call loads only the modules its command runs.

The modules a command loads on demand (`truncation`, `colimit`, `kstability`)
call the functions of other afk modules through their module instead of
binding them by name.  A wrapper set on a module attribute (as
`bench/tracer.py` sets them) is then met once per call and gone once
removed, even when the on-demand module was first imported while it was set.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "AffineTail": "diagram",
    "BratteliDiagram": "diagram",
    "ColimitResult": "colimit",
    "DiagramError": "diagram",
    "DimensionMismatch": "linalg",
    "EmptyLevel": "diagram",
    "InjectivityRequired": "diagram",
    "IntMatrix": "linalg",
    "KChainWitness": "kstability",
    "KStabilityVerdict": "kstability",
    "LevelOutOfRange": "diagram",
    "NotSquare": "linalg",
    "ParseError": "io",
    "ShapeMismatch": "diagram",
    "SizeOverflowAtEdge": "diagram",
    "TruncatedSystem": "truncation",
    "ValidationReport": "diagram",
    "classify": "kstability",
    "colimit_dimension": "colimit",
    "d": "truncation",
    "ensure_valid": "diagram",
    "export_dot": "io",
    "fm_dimension": "colimit",
    "fm_profile": "colimit",
    "from_diagram": "io",
    "input_digest": "io",
    "materialize": "diagram",
    "multiply": "linalg",
    "parse": "io",
    "rank": "linalg",
    "serialize": "io",
    "telescope": "kstability",
    "to_diagram": "io",
    "validate": "diagram",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
