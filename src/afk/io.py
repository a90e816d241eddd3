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

import json
from functools import partial
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Optional

try:  # CPython's own SHA-256, as `random` takes its SHA-512: `import hashlib` loads and probes OpenSSL
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
    return "sha256:" + sha256(serialize(doc).encode("utf-8")).hexdigest()


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


_CHUNK = 256  # levels unrolled and drawn at a time: a size too long to print is met at most this far past
_SLOT = "\0"  # where a template's text is cut into its constant pieces; DOT text holds no NUL


def _level_template(width: int, quote) -> tuple[list[str], list[int]]:
    """A level's node lines and `rank=same` line as (pieces, slots): slot 0 is the level number, slot i summand i's label."""
    names = [f'"L{_SLOT}S{i}"' for i in range(1, width + 1)]
    text = "".join(f'  {n} [label="{_SLOT}"];\n' for n in names) + f"  {{ rank=same; {'; '.join(names)}; }}\n"
    slots = [*chain.from_iterable((0, i) for i in range(1, width + 1)), *repeat(0, width)]
    return [quote(piece) for piece in text.split(_SLOT)], slots


def _edge_template(m: IntMatrix, quote) -> tuple[list[str], list[int]]:
    """The edge lines of `m` as (pieces, slots): slot 0 is the source level number, slot 1 the target's."""
    lines = [
        f'  "L{_SLOT}S{j + 1}" -> "L{_SLOT}S{i + 1}" [label="{mult}"];\n'
        for i in range(m.rows)
        for j, mult in enumerate(m.row(i))
        if mult > 0
    ]
    return [quote(piece) for piece in "".join(lines).split(_SLOT)], [0, 1] * len(lines)


def _fill(template: tuple[list[str], list[int]], columns: list, rows: int) -> Iterator[str]:
    """The strs of `template` filled `rows` times, in order: in row r, its k-th slot reads row r of `columns[slots[k]]`."""
    pieces, slots = template
    fields = [repeat(pieces[0], rows)]
    for slot, piece in zip(slots, pieces[1:]):
        fields += (columns[slot], repeat(piece, rows))
    return chain.from_iterable(zip(*fields))


def _quote(text: str) -> str:
    """`text` as it reads inside a JSON string literal.

    Labels and level numbers are integers, which JSON writes as they are, so
    quoting a template's pieces equals quoting the filled text.
    """
    return encode_basestring_ascii(text)[1:-1]


def export_dot(d: BratteliDiagram, degree: Optional[int] = None, budget: int = DEFAULT_BUDGET, quoted: bool = False) -> str:
    """Render the diagram (or its degree-m shadow) as deterministic DOT text.

    One node per (level, summand), labeled with the summand size, or with the
    0/1 survival indicator when a degree is given; edges carry multiplicities.
    All node lines come first, level by level, then all edge lines.

    The text is drawn from templates, each a list of constant pieces and the
    index of the column each slot between them reads: one per run of
    consecutive levels of one width (`_level_template`), whose columns are
    the level numbers, each made into a str once, and each summand's
    labels; and one per run of one matrix object (`_edge_template`; a tail
    repeats one matrix object), whose columns are the source and target
    level numbers.  `_fill` pairs the pieces (`itertools.repeat`) with the
    columns, `_CHUNK` levels of a run at a time, and the whole text is one
    `str.join` of what it yields: no level is drawn on its own.

    With `quoted`, the result is the JSON string literal of that text, as
    `json.encoder.encode_basestring_ascii` writes it, in a `JSONText`: the
    pieces are quoted once instead of the text, so the JSON report never
    holds an escaped copy of a large DOT.

    A size too long for `str` (the interpreter's int-to-str digit limit) is
    refused with a ValueError naming its level: only the levels a tail adds
    beyond the parsed prefix can grow that long.
    """
    quote = _quote if quoted else str  # str of a str is the same str
    profiles, matrices = materialize(d, d.horizon(budget))
    if degree is not None:  # only a degree's labels need the survival rule
        from .truncation import d as degree_indicator

        indicator = partial(degree_indicator, degree)
        profiles = (tuple(map(indicator, profile)) for profile in profiles)
    parts = ['"'] if quoted else []
    parts.append(quote("digraph bratteli {\n  rankdir=TB;\n  node [shape=circle];\n"))
    names: list[str] = []  # each level's number, made once as its chunk is drawn, for its nodes and its edges
    # a run is unrolled one chunk at a time, so a size too long to print is met
    # without unrolling the levels after its chunk
    for width, run in groupby(profiles, len):
        template = _level_template(width, quote)
        while chunk := list(islice(run, _CHUNK)):
            numbers = list(map(str, range(len(names) + 1, len(names) + len(chunk) + 1)))
            try:
                parts.extend(_fill(template, [numbers, *map(partial(map, str), zip(*chunk))], len(chunk)))
            except ValueError:  # a size past the int-to-str digit limit, in one of the chunk's levels
                for name, profile in zip(numbers, chunk):
                    try:
                        str(max(profile))  # its longest size, the first str refuses
                    except ValueError:
                        raise ValueError(f"level {name} has a summand size too long to print") from None
                raise
            names += numbers
    at = 0  # the index of a run's first source level in `names`
    for _, run in groupby(matrices, id):
        run = list(run)
        columns = [names[at : at + len(run)], names[at + 1 : at + len(run) + 1]]
        parts.extend(_fill(_edge_template(run[0], quote), columns, len(run)))
        at += len(run)
    parts.append(quote("}\n"))
    if not quoted:
        return "".join(parts)
    parts.append('"')
    text = "".join(parts)
    parts.clear()  # the subclass copies the text; the parts need not live through that copy too
    return JSONText(text)
