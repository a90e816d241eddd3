"""Diagram documents: JSON input format, canonical serialization, DOT export.

The canonical on-disk form is a JSON object

    {"levels":   [[1, 2, 3], [1, 3, 5, 8]],
     "matrices": [[[1,0,0],[1,1,0],[2,0,1],[0,1,2]]],
     "tail":     {"matrix": [[...]], "slack": [...]},   # optional
     "metadata": {"name": "..."}}                        # optional

with matrices stored target-major: row i, column j is the multiplicity of
the edge from source summand j into target summand i.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, NamedTuple, Optional

from .diagram import DEFAULT_BUDGET, AffineTail, BratteliDiagram, DiagramError, materialize
from .linalg import IntMatrix


class ParseError(ValueError):
    """Input rejected, with a JSON-path or line/column locus."""

    def __init__(self, locus: str, message: str):
        super().__init__(f"{locus}: {message}")
        self.locus = locus
        self.reason = message


class TailDocument(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    slack: tuple[int, ...]


class DiagramDocument(NamedTuple):
    levels: tuple[tuple[int, ...], ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    tail: Optional[TailDocument] = None
    metadata: Optional[dict] = None


def _expect_int_list(value: Any, locus: str, positive: bool) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ParseError(locus, "expected a non-empty list of integers")
    low = 1 if positive else 0
    for idx, x in enumerate(value):
        if type(x) is not int:  # json.loads makes no int subclass but bool
            raise ParseError(f"{locus}[{idx}]", "expected an integer")
        if x < low:
            raise ParseError(
                f"{locus}[{idx}]", f"expected a positive size, got {x}" if positive else f"expected a non-negative integer, got {x}"
            )
    return tuple(value)


def _expect_matrix(value: Any, locus: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ParseError(locus, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        r = _expect_int_list(row, f"{locus}[{i}]", positive=False)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ParseError(f"{locus}[{i}]", f"row has {len(r)} entries, previous rows have {width}")
        rows.append(r)
    return tuple(rows)


def parse(text: str) -> DiagramDocument:
    """Parse UTF-8 JSON into a structurally checked document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except RecursionError:
        raise ParseError("$", "nesting is too deep") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError("$", str(exc).split(";")[0]) from None
    if not isinstance(raw, dict):
        raise ParseError("$", "expected a JSON object")
    unknown = set(raw) - {"levels", "matrices", "tail", "metadata"}
    if unknown:
        raise ParseError("$", f"unknown fields: {', '.join(sorted(unknown))}")
    if "levels" not in raw:
        raise ParseError("$", "missing required field 'levels'")
    if not isinstance(raw["levels"], list) or not raw["levels"]:
        raise ParseError("levels", "expected a non-empty list of levels")
    levels = tuple(
        _expect_int_list(lvl, f"levels[{i}]", positive=True) for i, lvl in enumerate(raw["levels"])
    )
    raw_matrices = raw.get("matrices", [])
    if not isinstance(raw_matrices, list):
        raise ParseError("matrices", "expected a list of matrices")
    if len(raw_matrices) != len(levels) - 1:
        raise ParseError(
            "matrices",
            f"{len(levels)} levels need {len(levels) - 1} matrices, got {len(raw_matrices)}",
        )
    matrices = tuple(
        _expect_matrix(m, f"matrices[{k}]") for k, m in enumerate(raw_matrices)
    )
    for k, m in enumerate(matrices):
        want = (len(levels[k + 1]), len(levels[k]))
        if (len(m), len(m[0])) != want:
            raise ParseError(
                f"matrices[{k}]",
                f"shape {(len(m), len(m[0]))} does not join levels of sizes "
                f"{len(levels[k])} -> {len(levels[k + 1])} (expected {want})",
            )
    tail = None
    if raw.get("tail") is not None:
        t = raw["tail"]
        if not isinstance(t, dict):
            raise ParseError("tail", "expected an object with 'matrix' and 'slack'")
        if set(t) - {"matrix", "slack"}:
            raise ParseError("tail", "only 'matrix' and 'slack' are allowed")
        if "matrix" not in t:
            raise ParseError("tail", "missing 'matrix'")
        tmat = _expect_matrix(t["matrix"], "tail.matrix")
        n = len(levels[-1])
        if len(tmat) != n or len(tmat[0]) != n:
            raise ParseError(
                "tail.matrix", f"must be {n}x{n} to repeat after the last level, got {len(tmat)}x{len(tmat[0])}"
            )
        slack = _expect_int_list(t.get("slack", [0] * n), "tail.slack", positive=False)
        if len(slack) != n:
            raise ParseError("tail.slack", f"expected {n} entries, got {len(slack)}")
        tail = TailDocument(matrix=tmat, slack=slack)
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata", "expected an object")
    return DiagramDocument(levels=levels, matrices=matrices, tail=tail, metadata=metadata)


def document_to_json(doc: DiagramDocument) -> dict:
    out: dict[str, Any] = {
        "levels": [list(lvl) for lvl in doc.levels],
        "matrices": [[list(row) for row in m] for m in doc.matrices],
    }
    if doc.tail is not None:
        out["tail"] = {
            "matrix": [list(row) for row in doc.tail.matrix],
            "slack": list(doc.tail.slack),
        }
    if doc.metadata is not None:
        out["metadata"] = doc.metadata
    return out


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one per call


def serialize(doc: DiagramDocument) -> str:
    """Canonical one-line JSON; parse(serialize(doc)) == doc."""
    return _CANONICAL.encode(document_to_json(doc))


def input_digest(doc: DiagramDocument) -> str:
    return "sha256:" + hashlib.sha256(serialize(doc).encode("utf-8")).hexdigest()


def to_diagram(doc: DiagramDocument) -> BratteliDiagram:
    """Build the validated-shape diagram object; loci attached to failures."""
    try:
        matrices = tuple(IntMatrix.from_rows(m) for m in doc.matrices)
        tail = None
        if doc.tail is not None:
            tail = AffineTail(matrix=IntMatrix.from_rows(doc.tail.matrix), slack=doc.tail.slack)
        return BratteliDiagram(prefix_levels=doc.levels, prefix_matrices=matrices, tail=tail)
    except DiagramError as exc:
        raise ParseError("$", str(exc)) from None


def from_diagram(d: BratteliDiagram, metadata: Optional[dict] = None) -> DiagramDocument:
    return DiagramDocument(
        levels=d.prefix_levels,
        matrices=tuple(tuple(tuple(m.row(i)) for i in range(m.rows)) for m in d.prefix_matrices),
        tail=None
        if d.tail is None
        else TailDocument(
            matrix=tuple(tuple(d.tail.matrix.row(i)) for i in range(d.tail.matrix.rows)),
            slack=d.tail.slack,
        ),
        metadata=metadata,
    )


def dot_levels(d: BratteliDiagram, budget: int) -> int:
    """Levels `export_dot` draws: the prefix, continued by a tail to `budget` levels."""
    return d.prefix_len if d.tail is None else max(budget, d.prefix_len)


def export_dot(d: BratteliDiagram, degree: Optional[int] = None, budget: int = DEFAULT_BUDGET) -> str:
    """Render the diagram (or its degree-m shadow) as deterministic DOT text.

    One node per (level, summand), labeled with the summand size, or with the
    0/1 survival indicator when a degree is given; edges carry multiplicities.
    A size too long for `str` (the interpreter's int-to-str digit limit) is
    refused with a ParseError at `--budget` naming its level: only the levels
    a tail adds beyond the parsed prefix can grow that long.
    """
    if degree is not None:  # only a degree's labels need the survival rule
        from .truncation import d as degree_indicator

    profiles, matrices = materialize(d, dot_levels(d, budget))
    parts = ["digraph bratteli {\n  rankdir=TB;\n  node [shape=circle];\n"]
    # each level is drawn as it is stepped, so a size too long to print is met
    # without unrolling the levels after it
    for lvl, profile in enumerate(profiles, start=1):
        labels = profile if degree is None else [degree_indicator(degree, p) for p in profile]
        names = [f'"L{lvl}S{i}"' for i in range(1, len(profile) + 1)]
        try:
            parts.append("".join(f"  {n} [label=\"{x}\"];\n" for n, x in zip(names, labels)))
        except ValueError:
            raise ParseError("--budget", f"level {lvl} has a summand size too long to print; draw fewer levels") from None
        parts.append(f"  {{ rank=same; {'; '.join(names)}; }}\n")
    # a tail repeats one matrix object: its edge lines are built once, with
    # the source and target level numbers left as fields {0} and {1}
    templates: dict[int, str] = {}
    for lvl, m in enumerate(matrices, start=1):
        if id(m) not in templates:
            templates[id(m)] = "".join(
                f'  "L{{0}}S{j + 1}" -> "L{{1}}S{i + 1}" [label="{mult}"];\n'
                for i in range(m.rows)
                for j, mult in enumerate(m.row(i))
                if mult > 0
            )
        parts.append(templates[id(m)].format(lvl, lvl + 1))
    parts.append("}\n")
    return "".join(parts)
