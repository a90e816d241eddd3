"""Diagram documents: JSON input format, canonical serialization, DOT export.

The canonical on-disk form is a JSON object

    {"levels":   [[1, 2, 3], [1, 3, 5, 8]],
     "matrices": [[[1,0,0],[1,1,0],[2,0,1],[0,1,2]]],
     "tail":     {"matrix": [[...]], "slack": [...]},   # optional
     "metadata": {"name": "..."}}                        # optional

with matrices stored target-major: row i, column j is the multiplicity of
the edge from source summand j into target summand i.

A document is that JSON object itself, as `parse` checked it, with its
defaults filled in: `matrices` is `[]` when absent, a tail's `slack` is
zeros when absent, and a `null` `tail` or `metadata` is dropped.  So every
spelling of one diagram serializes, and digests, alike.  `to_diagram` builds
the engine's `BratteliDiagram` from it and `from_diagram` the way back.
"""

from __future__ import annotations

import hashlib
import json
from itertools import count, islice
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .diagram import DEFAULT_BUDGET, AffineTail, BratteliDiagram, DiagramError, materialize
from .linalg import IntMatrix


class ParseError(ValueError):
    """Input rejected, with a JSON-path or line/column locus."""

    def __init__(self, locus: str, message: str):
        super().__init__(f"{locus}: {message}")
        self.locus = locus
        self.reason = message


def _expect_int_list(value: Any, locus: str, positive: bool) -> None:
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


def _expect_matrix(value: Any, locus: str) -> None:
    if not isinstance(value, list) or not value:
        raise ParseError(locus, "expected a non-empty list of rows")
    for i, row in enumerate(value):
        _expect_int_list(row, f"{locus}[{i}]", positive=False)
        if len(row) != len(value[0]):
            raise ParseError(f"{locus}[{i}]", f"row has {len(row)} entries, previous rows have {len(value[0])}")


def parse(text: str) -> dict:
    """Parse UTF-8 JSON into a structurally checked document, its defaults filled in."""
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
    levels = raw["levels"]
    if not isinstance(levels, list) or not levels:
        raise ParseError("levels", "expected a non-empty list of levels")
    for i, lvl in enumerate(levels):
        _expect_int_list(lvl, f"levels[{i}]", positive=True)
    matrices = raw.setdefault("matrices", [])
    if not isinstance(matrices, list):
        raise ParseError("matrices", "expected a list of matrices")
    if len(matrices) != len(levels) - 1:
        raise ParseError("matrices", f"{len(levels)} levels need {len(levels) - 1} matrices, got {len(matrices)}")
    for k, m in enumerate(matrices):
        _expect_matrix(m, f"matrices[{k}]")
    for k, m in enumerate(matrices):
        want = (len(levels[k + 1]), len(levels[k]))
        if (len(m), len(m[0])) != want:
            raise ParseError(
                f"matrices[{k}]",
                f"shape {(len(m), len(m[0]))} does not join levels of sizes "
                f"{len(levels[k])} -> {len(levels[k + 1])} (expected {want})",
            )
    t = raw.get("tail")
    if t is None:
        raw.pop("tail", None)
    else:
        if not isinstance(t, dict):
            raise ParseError("tail", "expected an object with 'matrix' and 'slack'")
        if set(t) - {"matrix", "slack"}:
            raise ParseError("tail", "only 'matrix' and 'slack' are allowed")
        if "matrix" not in t:
            raise ParseError("tail", "missing 'matrix'")
        tmat = t["matrix"]
        _expect_matrix(tmat, "tail.matrix")
        n = len(levels[-1])
        if len(tmat) != n or len(tmat[0]) != n:
            raise ParseError(
                "tail.matrix", f"must be {n}x{n} to repeat after the last level, got {len(tmat)}x{len(tmat[0])}"
            )
        slack = t.setdefault("slack", [0] * n)
        _expect_int_list(slack, "tail.slack", positive=False)
        if len(slack) != n:
            raise ParseError("tail.slack", f"expected {n} entries, got {len(slack)}")
    if raw.get("metadata") is None:
        raw.pop("metadata", None)
    elif not isinstance(raw["metadata"], dict):
        raise ParseError("metadata", "expected an object")
    return raw


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one per call


def serialize(doc: dict) -> str:
    """Canonical one-line JSON; parse(serialize(doc)) == doc."""
    return _CANONICAL.encode(doc)


def input_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(serialize(doc).encode("utf-8")).hexdigest()


def to_diagram(doc: dict) -> BratteliDiagram:
    """Build the validated-shape diagram object; loci attached to failures.

    The diagram holds tuples only, so it shares no list with `doc`.
    """
    try:
        tail = doc.get("tail")
        if tail is not None:
            tail = AffineTail(matrix=IntMatrix.from_rows(tail["matrix"]), slack=tuple(tail["slack"]))
        return BratteliDiagram(
            prefix_levels=tuple(map(tuple, doc["levels"])),
            prefix_matrices=tuple(map(IntMatrix.from_rows, doc["matrices"])),
            tail=tail,
        )
    except DiagramError as exc:
        raise ParseError("$", str(exc)) from None


def from_diagram(d: BratteliDiagram) -> dict:
    """The document of `d`, as `parse` returns it: to_diagram(from_diagram(d)) == d."""
    doc: dict[str, Any] = {"levels": list(map(list, d.prefix_levels)), "matrices": [m.to_rows() for m in d.prefix_matrices]}
    if d.tail is not None:
        doc["tail"] = {"matrix": d.tail.matrix.to_rows(), "slack": list(d.tail.slack)}
    return doc


class JSONText(str):
    """A str that is already a JSON string literal, quotes included; `cli` writes it into a report as it is."""

    __slots__ = ()


_LEVEL, _SOURCE, _TARGET = "\0", "\1", "\2"  # level numbers' places in the templates


def _level_template(width: int) -> str:
    """A level's node lines and its `rank=same` line: label i is format field {i}, the level number `_LEVEL`."""
    names = [f'"L{_LEVEL}S{i}"' for i in range(1, width + 1)]
    nodes = "".join(f'  {n} [label="{{{i}}}"];\n' for i, n in enumerate(names))
    return nodes + f"  {{{{ rank=same; {'; '.join(names)}; }}}}\n"


def _edge_template(m: IntMatrix) -> str:
    """The edge lines of `m`, the source and target level numbers left as `_SOURCE` and `_TARGET`."""
    return "".join(
        f'  "L{_SOURCE}S{j + 1}" -> "L{_TARGET}S{i + 1}" [label="{mult}"];\n'
        for i in range(m.rows)
        for j, mult in enumerate(m.row(i))
        if mult > 0
    )


def _quote(template: str) -> str:
    """`template` as it reads inside a JSON string literal, its fields and level placeholders kept.

    Labels and level numbers are integers, which JSON writes as they are, so
    quoting a template before it is filled equals quoting the filled text.
    """
    text = encode_basestring_ascii(template)[1:-1]
    return text.replace("\\u0000", _LEVEL).replace("\\u0001", _SOURCE).replace("\\u0002", _TARGET)


def export_dot(d: BratteliDiagram, degree: Optional[int] = None, budget: int = DEFAULT_BUDGET, quoted: bool = False) -> str:
    """Render the diagram (or its degree-m shadow) as deterministic DOT text.

    One node per (level, summand), labeled with the summand size, or with the
    0/1 survival indicator when a degree is given; edges carry multiplicities.
    All node lines come first, level by level, then all edge lines.

    The text is drawn from templates built once per call: one per level
    width (`_level_template`) and one per matrix (`_edge_template`; a tail
    repeats one matrix object).  Each level number is made into a str once,
    as the level is drawn.  A level is one `str.format` of its labels and
    one `str.replace` of its number; an edge block is two `str.replace`s,
    of its source and its target number.

    With `quoted`, the result is the JSON string literal of that text, as
    `json.encoder.encode_basestring_ascii` writes it, in a `JSONText`: the
    templates are quoted once instead of the text, so the JSON report never
    holds an escaped copy of a large DOT.

    A size too long for `str` (the interpreter's int-to-str digit limit) is
    refused with a ValueError naming its level: only the levels a tail adds
    beyond the parsed prefix can grow that long.
    """
    if degree is not None:  # only a degree's labels need the survival rule
        from .truncation import d as degree_indicator

    quote = _quote if quoted else str  # str of a str is the same str
    profiles, matrices = materialize(d, d.horizon(budget))
    parts = ['"'] if quoted else []
    parts.append(quote("digraph bratteli {\n  rankdir=TB;\n  node [shape=circle];\n"))
    level_templates: dict[int, str] = {}  # by width
    names: list[str] = []  # each level's number, made once as it is drawn, for its nodes and its edges
    # each level is drawn as it is stepped, so a size too long to print is met
    # without unrolling the levels after it
    for profile, name in zip(profiles, map(str, count(1))):
        labels = profile if degree is None else [degree_indicator(degree, p) for p in profile]
        template = level_templates.get(len(profile))
        if template is None:
            template = level_templates[len(profile)] = quote(_level_template(len(profile)))
        try:
            text = template.format(*labels)
        except ValueError:
            raise ValueError(f"level {name} has a summand size too long to print") from None
        parts.append(text.replace(_LEVEL, name))
        names.append(name)
    edge_templates: dict[int, str] = {}  # by matrix object
    for source, target, m in zip(names, islice(names, 1, None), matrices):
        block = edge_templates.get(id(m))
        if block is None:
            block = edge_templates[id(m)] = quote(_edge_template(m))
        parts.append(block.replace(_SOURCE, source).replace(_TARGET, target))
    parts.append(quote("}\n"))
    if not quoted:
        return "".join(parts)
    parts.append('"')
    text = "".join(parts)
    parts.clear()  # the subclass copies the text; the parts need not live through that copy too
    return JSONText(text)
