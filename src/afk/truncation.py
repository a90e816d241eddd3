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

A system's map out of level k is the submatrix of
`BratteliDiagram.matrix_after(k)` on the kept rows and columns, or that
matrix itself when every summand is kept.  `colimit.profile_systems` calls
`cut`, the module's one entry point, once per cap class.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagram import BratteliDiagram
from .linalg import IntMatrix


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


def cut(diagram: BratteliDiagram, profiles: list, h: int, repeat: Optional[tuple[int, int]]) -> TruncatedSystem:
    """The system keeping the sizes >= h of `profiles`, to the end of `repeat`, the prefix without one.

    `repeat` is the first repeat of min(q, h) over `profiles`.  A map that
    keeps every row and column is the diagram's matrix itself.
    """
    end = sum(repeat) if repeat else diagram.prefix_len
    kept = [tuple(j for j, p in enumerate(q) if p >= h) for q in profiles[:end]]  # d(m, p) = 1 iff p >= h
    maps = []
    for k in range(end - 1):
        phi = diagram.matrix_after(k + 1)
        rows, cols = kept[k + 1], kept[k]
        maps.append(phi if (len(rows), len(cols)) == phi.shape else phi.submatrix(rows, cols))
    cycle_start, period = repeat or (None, None)
    return TruncatedSystem(
        dims=tuple(map(len, kept)),
        maps=tuple(maps),
        cycle_start=cycle_start,
        period=period,
        budget_exceeded=diagram.tail is not None and repeat is None,
    )
