"""Degree-m truncation of a multiplicity-matrix system.

In odd degree m a size-p summand contributes a Q coordinate iff m <= 2p - 1;
smaller summands vanish and their rows/columns are deleted outright.  The
induced maps are then plain submatrices of the multiplicity matrices, and a
whole diagram becomes a chain of Q-vector spaces ready for the colimit
engine.

For affine tails the kept mask is driven by the clamped size vector
min(q_i, h) with h = (m+1)/2: that clamped vector evolves autonomously
(a clamped coordinate only feeds values that clamp again), takes finitely
many values, and therefore repeats.  A repeat certifies that masks and
truncated matrices cycle forever, which is what the colimit engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import BratteliDiagram, ensure_valid, materialize
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

    `cycle_start` / `period` (1-based level, length) are set when the diagram
    has a tail and the kept-mask/truncated-matrix state was observed to
    repeat; `budget_exceeded` is set when a tail ran out of budget first.
    """

    m: int
    dims: tuple[int, ...]
    maps: tuple[IntMatrix, ...]
    kept: tuple[tuple[int, ...], ...]
    has_tail: bool
    cycle_start: Optional[int] = None
    period: Optional[int] = None
    budget_exceeded: bool = False

    @property
    def levels(self) -> int:
        return len(self.dims)


def build_system(diagram: BratteliDiagram, m: int, budget: int = 64) -> TruncatedSystem:
    """Materialize the degree-m truncated system over at most `budget` levels."""
    if m % 2 == 0:
        raise EvenDegree(f"degree {m} is even; F_even vanishes, build the system for odd m")
    ensure_valid(diagram)
    h = (m + 1) // 2
    if diagram.tail is None:
        levels = min(budget, diagram.prefix_len)
        profiles, matrices = materialize(diagram, levels)
        cycle_start = None
        period = None
        budget_exceeded = False
    else:
        levels = budget
        profiles, matrices = materialize(diagram, levels)
        cycle_start = None
        period = None
        seen: dict[tuple[int, ...], int] = {}
        for lvl in range(diagram.prefix_len, levels + 1):
            state = tuple(min(q, h) for q in profiles[lvl - 1])
            if state in seen:
                cycle_start = seen[state]
                period = lvl - cycle_start
                break
            seen[state] = lvl
        budget_exceeded = cycle_start is None
    kept = tuple(kept_indices(p, m) for p in profiles)
    dims = tuple(len(k) for k in kept)
    maps = tuple(
        matrices[k].submatrix(kept[k + 1], kept[k]) for k in range(len(matrices))
    )
    return TruncatedSystem(
        m=m,
        dims=dims,
        maps=maps,
        kept=kept,
        has_tail=diagram.tail is not None,
        cycle_start=cycle_start,
        period=period,
        budget_exceeded=budget_exceeded,
    )

