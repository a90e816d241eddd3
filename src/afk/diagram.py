"""Bratteli diagram data model: levels, multiplicity matrices, affine tails.

A diagram is an explicit prefix of levels (each level a tuple of positive
summand sizes) joined by integer multiplicity matrices, optionally followed
by an affine-periodic tail: the same square matrix applied forever, with
level sizes evolving by q' = phi.q + slack.  Levels and summands are 1-based
everywhere a human sees them.

Records here and in the other modules are `typing.NamedTuple`s: immutable,
iterable, and equal to any tuple with the same values.  Nothing compares a
record with a tuple of another kind, so that equality never shows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .linalg import IntMatrix, matvec

# levels an analysis may unroll when its caller names no budget
DEFAULT_BUDGET = 64


class DiagramError(ValueError):
    """Base class for structural and semantic diagram failures."""


class ShapeMismatch(DiagramError):
    pass


class EmptyLevel(DiagramError):
    pass


class SizeOverflowAtEdge(DiagramError):
    def __init__(self, level: int, summand: int, message: str):
        super().__init__(message)
        self.level = level
        self.summand = summand


class LevelOutOfRange(DiagramError):
    pass


class InjectivityRequired(ValueError):
    """An analysis refuses diagrams with a zero column somewhere."""


class _AffineTailFields(NamedTuple):
    matrix: IntMatrix
    slack: tuple[int, ...]


class AffineTail(_AffineTailFields):
    """Repeats `matrix` forever; sizes follow q' = matrix.q + slack.

    It keeps an instance dict (no `__slots__`) for the cached `matrix_rows`.
    """

    def __new__(cls, matrix: IntMatrix, slack: tuple[int, ...]):
        if not matrix.is_square():
            raise ShapeMismatch(f"tail matrix must be square, got {matrix.shape}")
        if len(slack) != matrix.rows:
            raise ShapeMismatch(
                f"tail slack has length {len(slack)}, matrix is {matrix.rows}x{matrix.rows}"
            )
        if min(slack, default=0) < 0:
            raise ShapeMismatch("tail slack entries must be non-negative")
        if min(matrix.entries, default=0) < 0:
            raise ShapeMismatch("tail matrix entries must be non-negative")
        return tuple.__new__(cls, (matrix, slack))

    @cached_property
    def matrix_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows of `matrix`, sliced once for every later `tail_step`."""
        return tuple(self.matrix.row(i) for i in range(self.matrix.rows))


class ValidationProblem(NamedTuple):
    kind: str
    level: Optional[int]
    summand: Optional[int]
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    injective: bool
    edge_unital: tuple[bool, ...]
    problems: tuple[ValidationProblem, ...] = ()


class _BratteliDiagramFields(NamedTuple):
    prefix_levels: tuple[tuple[int, ...], ...]
    prefix_matrices: tuple[IntMatrix, ...]
    tail: Optional[AffineTail] = None


class BratteliDiagram(_BratteliDiagramFields):
    """Prefix levels + matrices, with an optional affine tail after the prefix.

    A NamedTuple that keeps an instance dict (no `__slots__`) for the cached
    `validation`; it compares like the tuple of its three fields.
    """

    def __new__(cls, prefix_levels, prefix_matrices, tail=None):
        if not prefix_levels:
            raise EmptyLevel("a diagram needs at least one level")
        for idx, lvl in enumerate(prefix_levels, start=1):
            if len(lvl) == 0:
                raise EmptyLevel(f"level {idx} has no summands")
            if min(lvl) < 1:
                raise EmptyLevel(f"level {idx} has a non-positive summand size")
        if len(prefix_matrices) != len(prefix_levels) - 1:
            raise ShapeMismatch(
                f"{len(prefix_levels)} levels need {len(prefix_levels) - 1} "
                f"matrices, got {len(prefix_matrices)}"
            )
        for k, m in enumerate(prefix_matrices, start=1):
            want = (len(prefix_levels[k]), len(prefix_levels[k - 1]))
            if m.shape != want:
                raise ShapeMismatch(f"matrix {k} has shape {m.shape}, expected {want}")
            if min(m.entries, default=0) < 0:
                raise ShapeMismatch(f"matrix {k} has a negative multiplicity")
        if tail is not None and tail.matrix.rows != len(prefix_levels[-1]):
            raise ShapeMismatch(
                f"tail matrix is {tail.matrix.shape} but the last prefix level has "
                f"{len(prefix_levels[-1])} summands"
            )
        return tuple.__new__(cls, (prefix_levels, prefix_matrices, tail))

    @cached_property
    def validation(self) -> ValidationReport:
        """`validate(self)`, computed once: an immutable diagram's report cannot change."""
        return validate(self)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix_levels)

    def horizon(self, budget: int) -> int:
        """The last level an analysis at `budget` may hold: the prefix, continued by a tail to `budget`."""
        return self.prefix_len if self.tail is None else max(budget, self.prefix_len)

    def matrix_after(self, level: int) -> IntMatrix:
        """The matrix joining `level` (1-based) to the next: a prefix one, or the tail's past the prefix."""
        return self.prefix_matrices[level - 1] if level < self.prefix_len else self.tail.matrix


def validate(d: BratteliDiagram) -> ValidationReport:
    """Check the size inequality phi.p <= q at every edge; report unitality and injectivity.

    The tail only needs no zero rows: its own size law makes the edge
    inequality hold by construction at every unrolled level, and it keeps
    every size positive.  A tail size is q'_i = (row i).q + slack_i, with q
    positive and the row and slack non-negative, so it is below 1 exactly
    when row i is zero and slack_i is 0; a zero row is reported for its
    summand whatever its slack.  Injective: no connecting matrix, prefix or
    tail, has a zero column.
    """
    problems: list[ValidationProblem] = []
    unital: list[bool] = []
    for k, m in enumerate(d.prefix_matrices):
        src = d.prefix_levels[k]
        dst = d.prefix_levels[k + 1]
        mapped = matvec(m, src)
        edge_ok = True
        for i, (got, cap) in enumerate(zip(mapped, dst)):
            if got > cap:
                edge_ok = False
                problems.append(
                    ValidationProblem(
                        "size-overflow",
                        k + 1,
                        i + 1,
                        f"edge {k + 1}->{k + 2}: summand {i + 1} receives {got} > size {cap}",
                    )
                )
        unital.append(edge_ok and mapped == tuple(dst))
    if d.tail is not None:
        tm = d.tail.matrix
        for i in range(tm.rows):
            if all(x == 0 for x in tm.row(i)):
                problems.append(
                    ValidationProblem(
                        "tail-zero-row",
                        None,
                        i + 1,
                        f"tail summand {i + 1} receives no edges (zero row)",
                    )
                )
    mats = d.prefix_matrices if d.tail is None else (*d.prefix_matrices, d.tail.matrix)
    return ValidationReport(
        ok=not problems,
        injective=all(any(m.entries[j :: m.cols]) for m in mats for j in range(m.cols)),
        edge_unital=tuple(unital),
        problems=tuple(problems),
    )


def ensure_valid(d: BratteliDiagram) -> None:
    """Raise the first validation problem as an exception; no-op when valid."""
    report = d.validation
    if report.ok:
        return
    p = report.problems[0]
    if p.kind == "size-overflow":
        raise SizeOverflowAtEdge(p.level or 0, p.summand or 0, p.message)
    raise ShapeMismatch(p.message)


def tail_step(tail: AffineTail, q: Sequence[int]) -> tuple[int, ...]:
    """The tail level after q: q' = phi.q + slack."""
    return tuple([sum(map(mul, row, q), s) for row, s in zip(tail.matrix_rows, tail.slack)])


def materialize(
    d: BratteliDiagram, levels: int
) -> tuple[Iterator[tuple[int, ...]], Iterator[IntMatrix]]:
    """First `levels` level profiles and the matrices connecting them, both lazy.

    Tail levels are unrolled through q' = phi.q + slack only as the profiles
    are read, so a caller that reads them in order holds one level at a
    time.  Requesting more levels than a tail-less diagram has raises
    LevelOutOfRange at once.
    """
    if levels < 1:
        raise LevelOutOfRange("need at least one level")
    if d.tail is None and levels > d.prefix_len:
        raise LevelOutOfRange(
            f"diagram has {d.prefix_len} levels and no tail; {levels} requested"
        )
    return unroll(d, levels), map(d.matrix_after, range(1, levels))


def unroll(d: BratteliDiagram, levels: int) -> Iterator[tuple[int, ...]]:
    """The first `levels` level profiles, lazily: the one loop that steps a tail."""
    yield from d.prefix_levels[:levels]
    q = d.prefix_levels[-1]
    for _ in range(levels - d.prefix_len):
        q = tail_step(d.tail, q)
        yield q


def first_repeat(keys: Iterable[Hashable], first_level: int) -> Optional[tuple[int, int]]:
    """(start, period) of the first key equal to an earlier one, or None.

    `keys` are the keys of consecutive levels from `first_level` on; the
    first key that was seen before, at level L, was first seen at `start`,
    and period = L - start.  `keys` is read no further than that.
    """
    seen: dict[Hashable, int] = {}
    for level, state in enumerate(keys, start=first_level):
        if state in seen:
            return seen[state], level - seen[state]
        seen[state] = level
    return None


def unroll_to_repeat(
    d: BratteliDiagram, key: Callable[[tuple[int, ...]], Hashable], budget: int
) -> tuple[list[tuple[int, ...]], Optional[tuple[int, int]]]:
    """Unroll the tail up to the first level whose key(profile) was seen before.

    The scan starts at the last prefix level and never passes the horizon,
    `d.horizon(budget)`.  Returns (profiles, cycle): at the first level L
    whose key equals that of an earlier level `start`, the profiles of
    levels 1..L and cycle = (start, L - start).  When no key repeats by the
    horizon, cycle is None and the profiles run to it, so a coarser key can
    still be scanned on them.  A diagram without a tail yields its prefix
    and cycle None.

    Stopping there is sound whenever key(q) determines key(q') for the next
    level q' (the truncation uses clamped sizes): the keys then evolve on
    their own, so their first repeat repeats forever.
    """
    levels = unroll(d, d.horizon(budget))
    profiles = list(islice(levels, d.prefix_len - 1))

    def keys():
        for q in levels:
            profiles.append(q)
            yield key(q)

    return profiles, first_repeat(keys(), d.prefix_len)
