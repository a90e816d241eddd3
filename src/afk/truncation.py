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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import DEFAULT_BUDGET, BratteliDiagram, ensure_valid, unroll_to_repeat
from .linalg import IntMatrix


class EvenDegree(ValueError):
    """Raised when an odd-degree-only operation receives an even degree."""


def d(m: int, p: int) -> int:
    """1 iff the size-p summand survives in degree m: m odd and m <= 2p - 1."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    return 1 if (m % 2 == 1 and m <= 2 * p - 1) else 0


def kept_indices(profile: Sequence[int], m: int) -> tuple[int, ...]:
    """0-based indices of the summands surviving in degree m."""
    return tuple(j for j, p in enumerate(profile) if d(m, p))


def truncate_map(
    phi: IntMatrix, src: Sequence[int], dst: Sequence[int], m: int
) -> IntMatrix:
    """Submatrix of phi on surviving rows/columns, order preserved."""
    if m % 2 == 0:
        raise EvenDegree(f"degree {m} is even; truncation is defined for odd degrees")
    if phi.shape != (len(dst), len(src)):
        raise ValueError(f"matrix {phi.shape} does not join {len(src)} -> {len(dst)} summands")
    return phi.submatrix(kept_indices(dst, m), kept_indices(src, m))


@dataclass(frozen=True)
class TruncatedSystem:
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


def build_system(diagram: BratteliDiagram, m: int, budget: int = DEFAULT_BUDGET) -> TruncatedSystem:
    """The degree-m truncated system, up to the first repeat of the clamped sizes."""
    if m % 2 == 0:
        raise EvenDegree(f"degree {m} is even; F_even vanishes, build the system for odd m")
    ensure_valid(diagram)
    h = (m + 1) // 2
    found = unroll_to_repeat(diagram, lambda q: tuple(min(x, h) for x in q), budget)
    profiles, matrices, cycle_start, period = found or (
        diagram.prefix_levels, diagram.prefix_matrices, None, None
    )
    kept = tuple(kept_indices(p, m) for p in profiles)
    dims = tuple(len(k) for k in kept)
    maps = tuple(
        matrices[k].submatrix(kept[k + 1], kept[k]) for k in range(len(matrices))
    )
    return TruncatedSystem(
        dims=dims,
        maps=maps,
        cycle_start=cycle_start,
        period=period,
        budget_exceeded=diagram.tail is not None and found is None,
    )
