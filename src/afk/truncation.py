"""Degree-m truncation of a multiplicity-matrix system.

In odd degree m a size-p summand contributes a Q coordinate iff m <= 2p - 1;
smaller summands vanish and their rows/columns are deleted outright.  The
induced maps are then plain submatrices of the multiplicity matrices, and a
whole diagram becomes a chain of Q-vector spaces ready for the colimit
engine.

For affine tails the kept mask is driven by the clamped size vector
min(q_i, h) with h = (m+1)/2: that clamped vector evolves autonomously
(a clamped coordinate only feeds values that clamp again), takes finitely
many values, and therefore repeats.  Its first repeat repeats forever, so
masks and truncated matrices cycle from there on, which is what the colimit
engine needs; the system ends at the repeat level.  A diagram without a tail
is read as the finite-dimensional algebra of its last level: the system is
all of its given levels.

Many degrees are cut from one unroll, clamped at the largest cap H.  For
h <= H, min(q_a, H) = min(q_b, H) implies min(q_a, h) = min(q_b, h), so the
level where min(q, H) first repeats is a repeat of min(q, h) as well, and
min(q, h) first repeats no later.  Each smaller degree's first repeat is
therefore a rescan of the stored profiles, from the last prefix level on,
and its system is a prefix of the unroll.  When min(q, H) never repeats
within the budget, the unroll keeps every level it scanned, and a smaller
degree may still repeat within them.  Because the rescan reads the same
levels, from the same start, as an unroll with its own cap would, each
degree's system is exactly the one it gets alone.

Caps with no stored size between them share one system: when no stored
size p has h <= p < h', the caps h and h' keep the same summands on every
stored level, and min(q_a, h) = min(q_b, h) iff min(q_a, h') = min(q_b, h')
there (two sizes that differ and are both >= h are both >= h'), so they see
the same first repeat.  A cap is therefore keyed by its position among the
sorted distinct stored sizes, and each position is cut once, into one
system object that all its degrees share.

A system's map out of level k is a submatrix of
`BratteliDiagram.matrix_after(k)`, sliced once per (matrix, kept rows, kept
columns) within one call: equal triples give equal submatrices.
`build_systems` is the module's one entry point; a single degree is a
one-element list of degrees.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import diagram as _diagram
from .diagram import DEFAULT_BUDGET, BratteliDiagram
from .linalg import IntMatrix


class EvenDegree(ValueError):
    """Raised when an odd-degree-only operation receives an even degree."""


def d(m: int, p: int) -> int:
    """1 iff the size-p summand survives in degree m: m odd and m <= 2p - 1."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    return 1 if (m % 2 == 1 and m <= 2 * p - 1) else 0


class TruncatedSystem(NamedTuple):
    """The degree-m chain of vector spaces extracted from a diagram.

    With a tail, `cycle_start` / `period` (1-based level, length) certify
    that the clamped sizes repeat from `cycle_start` on, and the system ends
    at level cycle_start + period; `budget_exceeded` is set instead when no
    repeat showed within the level budget, and the system then holds only
    the prefix.  Without a tail the system is every given level.
    """

    dims: tuple[int, ...]
    maps: tuple[IntMatrix, ...]
    cycle_start: Optional[int] = None
    period: Optional[int] = None
    budget_exceeded: bool = False

    @property
    def levels(self) -> int:
        return len(self.dims)


def build_systems(
    diagram: BratteliDiagram, degrees: Iterable[int], budget: int = DEFAULT_BUDGET
) -> list[TruncatedSystem]:
    """The truncated system of each odd degree, in order, cut from one tail unroll.

    A single degree takes the same path: its own cap is the largest one.
    """
    degrees = tuple(degrees)
    for m in degrees:
        if m < 1:
            raise ValueError(f"degree must be >= 1, got {m}")
        if m % 2 == 0:
            raise EvenDegree(f"degree {m} is even; F_even vanishes, build the system for odd m")
    if not degrees:
        return []
    _diagram.ensure_valid(diagram)
    top = (max(degrees) + 1) // 2
    profiles, cycle = _diagram.unroll_to_repeat(diagram, lambda q: tuple(min(x, top) for x in q), budget)
    first = diagram.prefix_len
    sizes = sorted({p for q in profiles for p in q})
    top_pos = bisect_left(sizes, top)
    # keyed by id: every matrix stays alive in the diagram meanwhile
    submatrices: dict[tuple[int, tuple[int, ...], tuple[int, ...]], IntMatrix] = {}
    by_pos: dict[int, TruncatedSystem] = {}  # position of a cap among the stored sizes -> its system
    for m in degrees:
        h = (m + 1) // 2
        pos = bisect_left(sizes, h)
        if pos in by_pos:
            continue
        if pos == top_pos:
            repeat = cycle
        else:  # min(q, top) repeating forces min(q, h) to repeat: rescan what is stored
            repeat = _diagram.first_repeat(
                (tuple(min(x, h) for x in q) for q in profiles[first - 1 :]), first
            )
        # no tail, or one whose clamped sizes never repeated: the system is the prefix
        end = sum(repeat) if repeat else first
        kept = [tuple(j for j, p in enumerate(q) if p >= h) for q in profiles[:end]]  # d(m, p) = 1 iff p >= h
        maps = []
        for k in range(end - 1):
            phi = diagram.matrix_after(k + 1)
            cut = (id(phi), kept[k + 1], kept[k])
            sub = submatrices.get(cut)
            if sub is None:
                sub = submatrices[cut] = phi.submatrix(kept[k + 1], kept[k])
            maps.append(sub)
        cycle_start, period = repeat or (None, None)
        by_pos[pos] = TruncatedSystem(
            dims=tuple(map(len, kept)),
            maps=tuple(maps),
            cycle_start=cycle_start,
            period=period,
            budget_exceeded=diagram.tail is not None and repeat is None,
        )
    return [by_pos[bisect_left(sizes, (m + 1) // 2)] for m in degrees]
