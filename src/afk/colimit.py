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

Without a tail the diagram is the finite-dimensional algebra of its last
level, so the sweep is seeded with the identity there: the dimension is the
last level's dimension (in degree m, the number of last-level summands with
m <= 2p - 1).  A tail whose clamped sizes never repeated within the level
budget gets no number at all: a finite unrolling neither bounds nor
certifies the limit.

`profile_systems` holds the rule for every degree: an even degree vanishes,
and an odd one is the colimit of its truncated system.  All the odd
degrees' systems come from one tail unroll (see `truncation`).  The colimit
is a pure function of the system, so degrees whose systems are equal (their
summand masks agree on every level) share one result, and a whole profile
has few distinct systems.  The stable power is a pure function of the cycle
composite, so distinct systems whose composites are equal share one
`stable_power`; this is sound because P = C^j depends on C alone, and the
rest of the sweep uses each system's own maps.  Both memos live for one
call and are keyed by value, so a hit can only return what the computation
would.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import linalg as _linalg
from . import truncation as _truncation
from .diagram import DEFAULT_BUDGET, BratteliDiagram
from .linalg import IntMatrix
from .truncation import TruncatedSystem


class ColimitResult(NamedTuple):
    """Outcome of a colimit computation.

    `exact` marks a certified dimension; otherwise `budget_exceeded` is set,
    the tail's clamped sizes never repeated within the level budget, and
    `dimension` is None.  `per_level_ranks` pairs each level with the rank
    of its contribution to the limit (empty when there is no dimension).
    """

    dimension: Optional[int]
    exact: bool
    stabilized_at: Optional[int]
    per_level_ranks: tuple[tuple[int, int], ...]
    budget_exceeded: bool = False
    note: Optional[str] = None


def _composites_to(sys: TruncatedSystem, target: int, seed: IntMatrix) -> list[IntMatrix]:
    """seed · composite(k -> target) for k = 1..target, built in one backward sweep."""
    out = [seed]
    for k in range(target - 1, 0, -1):
        out.append(_linalg.multiply(out[-1], sys.maps[k - 1]))
    out.reverse()
    return out


def colimit_dimension(sys: TruncatedSystem) -> ColimitResult:
    return _colimit(sys, {})


def _colimit(sys: TruncatedSystem, powers: dict[IntMatrix, IntMatrix]) -> ColimitResult:
    """`colimit_dimension`, reading and filling `powers` (cycle composite -> stable power)."""
    if sys.budget_exceeded:
        return ColimitResult(
            dimension=None,
            exact=False,
            stabilized_at=None,
            per_level_ranks=(),
            budget_exceeded=True,
        )
    if sys.cycle_start is None:  # no tail: the last level is the algebra
        target, seed = sys.levels, IntMatrix.identity(sys.dims[-1])
    else:
        target = sys.cycle_start
        cycle = IntMatrix.identity(sys.dims[target - 1])
        for k in range(target - 1, target - 1 + sys.period):
            cycle = _linalg.multiply(sys.maps[k], cycle)
        seed = powers.get(cycle)
        if seed is None:
            seed = powers[cycle] = _linalg.stable_power(cycle)
    images = _composites_to(sys, target, seed)
    ranks = [(k, _linalg.rank(img)) for k, img in enumerate(images, start=1)]
    dim = ranks[-1][1]  # the target's own image: im P, or the whole last level
    stabilized = next(k for k, r in ranks if r == dim)
    return ColimitResult(
        dimension=dim,
        exact=True,
        stabilized_at=stabilized,
        per_level_ranks=tuple(ranks),
    )


_EVEN_DEGREE = ColimitResult(
    dimension=0,
    exact=True,
    stabilized_at=None,
    per_level_ranks=(),
    note="even degree vanishes identically",
)


def profile_systems(
    d: BratteliDiagram, degrees: Iterable[int], budget: int = DEFAULT_BUDGET
) -> list[tuple[int, Optional[TruncatedSystem], ColimitResult]]:
    """(m, degree-m system, its colimit) for each m; even degrees have no system.

    The odd degrees' systems come from one tail unroll (`build_systems`).
    Equal systems share one result and equal cycle composites one stable
    power (see the module docstring); both memos live for this call only.
    Every degree must be at least 1, the even ones included.
    """
    degrees = tuple(degrees)
    if any(m < 1 for m in degrees):
        raise ValueError(f"degree must be >= 1, got {min(degrees)}")
    odd = [m for m in degrees if m % 2]
    systems = dict(zip(odd, _truncation.build_systems(d, odd, budget)))
    results: dict[TruncatedSystem, ColimitResult] = {}
    powers: dict[IntMatrix, IntMatrix] = {}
    rows = []
    for m in degrees:
        if m % 2 == 0:
            rows.append((m, None, _EVEN_DEGREE))
            continue
        system = systems[m]
        res = results.get(system)
        if res is None:
            res = results[system] = _colimit(system, powers)
        rows.append((m, system, res))
    return rows


def fm_dimension(d: BratteliDiagram, m: int, budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Dimension of the degree-m group; even degrees vanish with no work."""
    return profile_systems(d, (m,), budget)[0][2]


def k0_rational_dimension(d: BratteliDiagram, budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Rank of rational K0: the colimit of the untruncated (degree-1) system."""
    return fm_dimension(d, 1, budget)


def fm_profile(
    d: BratteliDiagram, max_m: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ColimitResult]]:
    """Results for every degree 1..max_m."""
    return [(m, res) for m, _, res in profile_systems(d, range(1, max_m + 1), budget)]
