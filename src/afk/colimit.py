"""Dimension of the inductive limit of a chain of Q-vector spaces.

The limit is the nested union of the levels' images in it, so some level's
image has the limit's whole dimension.  With a detected tail cycle that
dimension is certified by integer ranks.  The composite C over one full
period is square (n x n), and after the cycle start every further period
multiplies by C again.  rank(C^j) does not increase with j, and the kernel
chain ker C ⊆ ker C² ⊆ … freezes at the first j with
rank(C^j) = rank(C^(j+1)), so j <= n.  Let P = C^j.  Beyond that point C is
invertible on im P, so no later period lowers rank(P · X) for any X:
rank(P · C(k -> cycle start)) is the dimension of level k's image in the
limit, and rank(P) is the dimension of the limit.

The plateau must be found on the powers of C alone.  A plateau found
separately for each level is not enough: with C = [[0,0],[1,0]] and X the
first unit vector, rank(X) = rank(C·X) = 1 but C²·X = 0.

`stabilized_at` is the first level whose image already has the limit's
dimension.  It is found by walking back from the cycle start one map at a
time and stopping at the first level whose image rank falls below
dim = rank(P), which `stable_power` returns with P.  Since
P·C(k -> t) = P·C(k+1 -> t)·M_k, the rank never grows as k falls, so every
level below that one falls short too, and the walk reads no level it does
not need.  A dimension of 0 is reached at level 1.  No identity is ever
built: C starts from the cycle's first map, P = C^0 is None, and the walk's
first product with a None power is the map itself.

Without a tail the diagram is the finite-dimensional algebra of its last
level, so the walk starts from P = None there: the dimension is the last
level's dimension (in degree m, the number of last-level summands with
m <= 2p - 1).  A tail whose clamped sizes never repeated within the level
budget gets no number at all: a finite unrolling neither bounds nor
certifies the limit.

`profile_systems` holds the rule for every degree: an even degree vanishes,
and an odd one is the colimit of its truncated system (see `truncation`).

Many degrees are cut from one unroll, clamped at the largest cap H.  For
h <= H, min(q_a, H) = min(q_b, H) implies min(q_a, h) = min(q_b, h), so the
level where min(q, H) first repeats is a repeat of min(q, h) as well, and
min(q, h) first repeats no later.  Each degree's first repeat is
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
sorted distinct stored sizes (its cap class), and each class is cut and
swept once, into one system object and one result that all its degrees
share.  The stable power is a pure function of the cycle composite, so
distinct systems whose composites are equal share one `stable_power`; this
is sound because P = C^j depends on C alone, and the walk uses each
system's own maps.  The memos live for one call, so a hit can only return
what the computation would.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import diagram as _diagram
from . import linalg as _linalg
from . import truncation as _truncation
from .diagram import DEFAULT_BUDGET, BratteliDiagram
from .linalg import IntMatrix
from .truncation import TruncatedSystem


class ColimitResult(NamedTuple):
    """Outcome of a colimit computation.

    `exact` marks a certified dimension.  Otherwise the tail's clamped sizes
    never repeated within the level budget, and `dimension` is None.
    `stabilized_at` is the first level whose image in the limit has the
    limit's whole dimension (None when there is no dimension, and for an
    even degree).
    """

    dimension: Optional[int]
    exact: bool
    stabilized_at: Optional[int]
    note: Optional[str] = None


def colimit_dimension(sys: TruncatedSystem) -> ColimitResult:
    return _colimit(sys, {})


def _colimit(sys: TruncatedSystem, powers: dict[IntMatrix, tuple[Optional[IntMatrix], int]]) -> ColimitResult:
    """`colimit_dimension`, reading and filling `powers` (cycle composite -> stable power and its rank)."""
    if sys.budget_exceeded:
        return ColimitResult(dimension=None, exact=False, stabilized_at=None)
    if sys.cycle_start is None:  # no tail: the last level is the algebra
        target, image, dim = sys.levels, None, sys.dims[-1]
    else:
        target = sys.cycle_start
        cycle = sys.maps[target - 1]
        for k in range(target, target - 1 + sys.period):
            cycle = _linalg.multiply(sys.maps[k], cycle)
        image, dim = powers.get(cycle) or powers.setdefault(cycle, _linalg.stable_power(cycle))
    level = target if dim else 1
    while level > 1:  # image = P · C(level -> target), of rank dim
        image = sys.maps[level - 2] if image is None else _linalg.multiply(image, sys.maps[level - 2])
        if _linalg.rank(image) < dim:
            break
        level -= 1
    return ColimitResult(dimension=dim, exact=True, stabilized_at=level)


_EVEN_DEGREE = ColimitResult(
    dimension=0,
    exact=True,
    stabilized_at=None,
    note="even degree vanishes identically",
)


def profile_systems(
    d: BratteliDiagram, degrees: Iterable[int], budget: int = DEFAULT_BUDGET
) -> list[tuple[int, Optional[TruncatedSystem], ColimitResult]]:
    """(m, degree-m system, its colimit) for each m; even degrees have no system.

    Each cap class is cut from one tail unroll and swept at once (see the
    module docstring).  Every degree must be at least 1, the even ones
    included.
    """
    degrees = tuple(degrees)
    if any(m < 1 for m in degrees):
        raise ValueError(f"degree must be >= 1, got {min(degrees)}")
    caps = [(m + 1) // 2 for m in degrees if m % 2]
    if caps:
        _diagram.ensure_valid(d)
        top = max(caps)
        profiles, _ = _diagram.unroll_to_repeat(d, lambda q: tuple(min(x, top) for x in q), budget)
        sizes = sorted({p for q in profiles for p in q})
    first = d.prefix_len
    classes: dict[int, tuple[TruncatedSystem, ColimitResult]] = {}  # cap class -> its system and colimit
    powers: dict[IntMatrix, IntMatrix] = {}
    rows = []
    for m in degrees:
        if m % 2 == 0:
            rows.append((m, None, _EVEN_DEGREE))
            continue
        h = (m + 1) // 2
        cap_class = bisect_left(sizes, h)
        swept = classes.get(cap_class)
        if swept is None:  # min(q, top) repeating forces min(q, h) to repeat: rescan what is stored
            repeat = _diagram.first_repeat((tuple(min(x, h) for x in q) for q in profiles[first - 1 :]), first)
            system = _truncation.cut(d, profiles, h, repeat)
            swept = classes[cap_class] = (system, _colimit(system, powers))
        rows.append((m, *swept))
    return rows


def fm_dimension(d: BratteliDiagram, m: int, budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Dimension of the degree-m group; even degrees vanish with no work."""
    return profile_systems(d, (m,), budget)[0][2]


def fm_profile(
    d: BratteliDiagram, max_m: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ColimitResult]]:
    """Results for every degree 1..max_m."""
    return [(m, res) for m, _, res in profile_systems(d, range(1, max_m + 1), budget)]
