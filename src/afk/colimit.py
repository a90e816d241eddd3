"""Dimension of the inductive limit of a chain of Q-vector spaces.

The image of level k inside the limit has dimension
lim_N rank(composite k -> N), and the limit itself is the nested union of
those images, so its dimension is the supremum of the per-level limit ranks.

With a detected tail cycle the supremum is attained, and integer ranks
certify it.  The composite C over one full period is square (n x n), and
after the cycle start every further period multiplies by C again.
rank(C^j) does not increase with j, and the kernel chain ker C ⊆ ker C² ⊆ …
freezes at the first j with rank(C^j) = rank(C^(j+1)), so j <= n.  Let
P = C^j.  Beyond that point C is invertible on im P, so no later period
lowers rank(P · X) for any X: rank(P · composite(k -> cycle start)) is
level k's eventual contribution, and rank(P) is the dimension.

The plateau must be found on the powers of C alone.  A plateau found
separately for each level is not enough: with C = [[0,0],[1,0]] and X the
first unit vector, rank(X) = rank(C·X) = 1 but C²·X = 0.

Without a tail law a finite unrolling can only certify a lower bound, and
that is all we report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import BratteliDiagram
from .linalg import IntMatrix, multiply, rank, stable_power
from .truncation import TruncatedSystem, build_system


@dataclass(frozen=True)
class ColimitResult:
    """Outcome of a colimit computation.

    `exact` distinguishes certified dimensions from lower bounds;
    `budget_exceeded` marks tails whose mask state never repeated within the
    level budget.  `per_level_ranks` pairs each level with the rank of its
    contribution to the limit (probed at the final level when not exact).
    """

    dimension: int
    exact: bool
    stabilized_at: Optional[int]
    per_level_ranks: tuple[tuple[int, int], ...]
    budget_exceeded: bool = False
    note: Optional[str] = None


def _composites_to(sys: TruncatedSystem, target: int, seed: IntMatrix) -> list[IntMatrix]:
    """seed · composite(k -> target) for k = 1..target, built in one backward sweep."""
    out = [seed]
    for k in range(target - 1, 0, -1):
        out.append(multiply(out[-1], sys.maps[k - 1]))
    out.reverse()
    return out


def colimit_dimension(sys: TruncatedSystem) -> ColimitResult:
    if sys.cycle_start is not None:
        cs = sys.cycle_start
        cycle = IntMatrix.identity(sys.dims[cs - 1])
        for k in range(cs - 1, cs - 1 + (sys.period or 1)):
            cycle = multiply(sys.maps[k], cycle)
        images = _composites_to(sys, cs, stable_power(cycle))
        ranks = [(k, rank(img)) for k, img in enumerate(images, start=1)]
        dim = ranks[-1][1]  # the cycle start's own image is im P
        stabilized = next(k for k, r in ranks if r == dim)
        return ColimitResult(
            dimension=dim,
            exact=True,
            stabilized_at=stabilized,
            per_level_ranks=tuple(ranks),
        )
    # no certified cycle: probe every level at the last materialized one
    last = sys.levels
    comps = _composites_to(sys, last, IntMatrix.identity(sys.dims[last - 1]))
    ranks = [(k, rank(comp)) for k, comp in enumerate(comps, start=1)]
    first_live = next((k for k in range(1, last + 1) if sys.dims[k - 1] > 0), None)
    dim = ranks[first_live - 1][1] if first_live is not None else 0
    return ColimitResult(
        dimension=dim,
        exact=False,
        stabilized_at=None,
        per_level_ranks=tuple(ranks),
        budget_exceeded=sys.budget_exceeded,
    )


def fm_dimension(d: BratteliDiagram, m: int, budget: int = 64) -> ColimitResult:
    """Dimension of the degree-m group; even degrees vanish with no work."""
    if m % 2 == 0:
        return ColimitResult(
            dimension=0,
            exact=True,
            stabilized_at=None,
            per_level_ranks=(),
            note="even degree vanishes identically",
        )
    return colimit_dimension(build_system(d, m, budget))


def k0_rational_dimension(d: BratteliDiagram, budget: int = 64) -> ColimitResult:
    """Rank of rational K0: the colimit of the untruncated multiplicity system."""
    return colimit_dimension(build_system(d, 1, budget))


def fm_profile(
    d: BratteliDiagram, max_m: int, budget: int = 64
) -> list[tuple[int, ColimitResult]]:
    """Results for every degree 1..max_m; even rows are the zero shortcut."""
    return [(m, fm_dimension(d, m, budget)) for m in range(1, max_m + 1)]
