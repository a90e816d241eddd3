"""K-stability analysis of a Bratteli diagram.

An infinite K-chain (a forever-alive path of size-K summands in which every
non-initial node has the previous node as its only predecessor) certifies a
finite-dimensional quotient, hence failure of K-stability.  Conversely, a
diagram whose tail provably carries no infinite chain can be telescoped, for
every target m, into a presentation whose summands all have size >= m, which
certifies K-stability.  Telescoping is one walk and one cut: the walk unrolls
until no summand is < m, and the cut drops every level up to the last one
holding a summand < m.

Tail analysis is exact and rests on one static relation of the tail matrix
Φ.  Row i copies coordinate j when it is the unit vector e_j and slack_i is
0: then q'_i = q_j at every tail level.  On a cycle of that relation, a copy
cycle, the sizes rotate and never grow.  In a valid tail every size is
positive, and so:

  * a same-size sole-predecessor edge is a copy: q'_i = Φ_ij.q_j + (the
    rest of row i).q + slack_i with Φ_ij >= 1 equals q_j only if Φ_ij = 1
    and nothing else is added;
  * a chain that runs forever over finitely many coordinates steps along
    copies once it is in the tail, and some coordinate recurs on it; that
    coordinate copies itself through the steps in between, so the chain
    closes a copy cycle.  Conversely a copy cycle carries a chain forever;
  * a cycle that is not a copy cycle gains >= 1 per turn, since one of its
    rows adds a multiplicity >= 2, a second positive term or slack to what
    it passes on, and so does everything it feeds, as q'_i >= q_j whenever
    Φ_ij >= 1;
  * a coordinate fed only by bounded coordinates is bounded: its next size
    is a fixed affine function of theirs.

So the bounded coordinates are the copy-cycle ones, closed under the last
rule, and every other one diverges: walking back through predecessors
outside that set (a valid tail has no zero row) closes a cycle that is not
a copy cycle upstream of it.  The bounded coordinates off the copy cycles
form no cycle, as each joins after all its predecessors.

From the last prefix level on, each copy-cycle coordinate carries a strand:
its size rotates around the cycle unchanged.  So a witness needs no
unrolling: k is the smallest strand size at the last prefix level, and the
chain rides that strand's cycle, with period the cycle's length, then walks
back through the prefix.  The smallest strand size is also the persistent
minimum of the sizes: a bounded coordinate off the copy cycles is at
least each of its feeders a level earlier, and following feeders back
inside the bounded set reaches a copy cycle within n steps, so it is >= k
from n levels past the prefix on; the divergent ones grow past any bound.  So
`telescope` knows at once whether m is reachable.  Walking back from a
divergent coordinate through divergent feeders reaches a cycle of length L
at distance d, with d + L <= n; the cycle gains >= 1 every L levels, so for
m >= 2 the coordinate is >= m from d + L.(m - 1) <= n.(m - 1) levels past
the prefix on, a bound that a single n-cycle with one unit of slack and all
sizes 1 meets exactly.  So without a copy cycle `classify` walks at most
prefix + n.(M_MAX - 1) levels, whatever the budget.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import diagram as _diagram
from .diagram import DEFAULT_BUDGET, BratteliDiagram, InjectivityRequired
from .linalg import IntMatrix


class InfiniteChainError(Exception):
    """Telescoping hit an infinite chain; the witness rides along."""

    def __init__(self, witness: "KChainWitness"):
        super().__init__(f"infinite {witness.k}-chain starting at level {witness.start_level}")
        self.witness = witness


NOT_K_STABLE = "not-k-stable"
K_STABLE = "k-stable"

# a K-stable verdict certifies the telescoping cuts for targets m = 1..M_MAX
M_MAX = 8


class KChainWitness(NamedTuple):
    """A replayable description of an infinite constant-size chain.

    The chain occupies one summand per level from `start_level` on: first the
    explicit `node_path`, then `cycle_summands` repeated forever (summand
    indices are 1-based).  `kind` is "tail-cycle" for a copy cycle of the
    tail and "identity-completion" for a tail-less diagram read as a
    finite-dimensional algebra extended by identity maps.
    """

    k: int
    start_level: int
    node_path: tuple[int, ...]
    cycle_period: int
    cycle_summands: tuple[int, ...]
    kind: str = "tail-cycle"


class KStabilityVerdict(NamedTuple):
    status: str
    levels: int  # levels of the input the analysis held
    witness: Optional[KChainWitness] = None
    certificate: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None


def _copy_cycles(tm: IntMatrix, slack: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of the copy relation: row i copies j when it is e_j and slack[i] == 0.

    Each cycle is listed in forward copy order (j, then the coordinate that
    copies j, ...) from its smallest coordinate.
    """
    # entries are non-negative, so a row summing to 1 is a unit vector
    source = [tm.row(i).index(1) if s == 0 and sum(tm.row(i)) == 1 else None for i, s in enumerate(slack)]
    cycles: list[tuple[int, ...]] = []
    for i in range(tm.rows):
        back = [i]  # i, source[i], source[source[i]], ... until it stops or returns to i
        while len(back) <= tm.rows and source[back[-1]] not in (None, i):
            back.append(source[back[-1]])
        if source[back[-1]] == i == min(back):
            cycles.append((i, *reversed(back[1:])))
    return cycles


def find_infinite_k_chain(d: BratteliDiagram) -> Optional[KChainWitness]:
    """Read an infinite constant-size chain of a valid diagram off its copy cycles.

    The diagram is not validated here: `classify` and `telescope` validate
    first.  A chain exists iff a copy cycle does, so None is a certificate
    of absence; a tail-less diagram is read as the identity tail, on which
    every coordinate copies itself.  k is the smallest size on a copy cycle
    at the last prefix level, and the chain rides the cycle through the
    smallest coordinate of that size from there, so its period is the
    cycle's length.  Its explicit path walks the sole-predecessor relation
    back through the prefix while it stays a k-chain.
    """
    q = d.prefix_levels[-1]
    cycles = _copy_cycles(d.tail.matrix, d.tail.slack) if d.tail is not None else [(i,) for i in range(len(q))]
    if not cycles:
        return None
    k, first = min((q[i], i) for cycle in cycles for i in cycle)
    cycle = next(cycle for cycle in cycles if first in cycle)
    turn = cycle.index(first)
    path: list[int] = []
    current, level = first, d.prefix_len
    while level > 1:
        row = d.matrix_after(level - 1).row(current)
        # entries are non-negative, so a row summing to 1 is a sole simple predecessor
        if sum(row) != 1 or d.prefix_levels[level - 2][row.index(1)] != k:
            break
        current = row.index(1)
        level -= 1
        path.append(current)
    return KChainWitness(
        k=k,
        start_level=level,
        node_path=tuple(j + 1 for j in reversed(path)),
        cycle_period=len(cycle),
        cycle_summands=tuple(i + 1 for i in cycle[turn:] + cycle[:turn]),
        kind="tail-cycle" if d.tail is not None else "identity-completion",
    )


def _drop_before(d: BratteliDiagram, profiles: Sequence[tuple[int, ...]], cut: int) -> BratteliDiagram:
    if cut == 1:
        return d
    if cut <= d.prefix_len:
        return BratteliDiagram(d.prefix_levels[cut - 1 :], d.prefix_matrices[cut - 1 :], d.tail)
    return BratteliDiagram((profiles[cut - 1],), (), d.tail)


def _walk(d: BratteliDiagram, m: int, levels: int) -> list[tuple[int, ...]]:
    """The profiles up to the first level, from the last prefix level on, with no summand < m.

    The walk stops after `levels` levels if none shows by then, and the
    caller reads min(last profile) < m as inconclusive.  It runs only when
    no copy cycle carries a size < m.  A valid tail has no zero rows, so
    each summand of a tail level is at least the smallest summand of the
    level before: from the last prefix level on the minimum never drops,
    and once no summand is < m none ever is again.
    """
    profiles = []
    for q in _diagram.unroll(d, levels):
        profiles.append(q)
        if len(profiles) >= d.prefix_len and min(q) >= m:
            break
    return profiles


def _cut(profiles: Sequence[tuple[int, ...]], m: int) -> int:
    """1 + the last level that holds a summand < m: the first level kept."""
    return next((lvl + 1 for lvl in range(len(profiles), 0, -1) if min(profiles[lvl - 1]) < m), 1)


class Telescoped(NamedTuple):
    """A telescoped presentation and the levels of the input its walk held."""

    diagram: BratteliDiagram
    levels: int


def telescope(d: BratteliDiagram, m: int, budget: int = DEFAULT_BUDGET) -> Optional[Telescoped]:
    """Telescope to an equal-colimit presentation with min summand size >= m, or None.

    Raises InfiniteChainError (with its witness) when a copy cycle carries a
    size < m, which then persists, and InjectivityRequired when some
    connecting map has a zero column.  Otherwise every summand reaches m,
    and one cut (dropping levels never changes the limit) before the first
    level kept does what raising the minimum past 1, 2, ..., m-1 in turn
    would.  No unroll passes the horizon, `d.horizon(budget)`, so the work
    is bounded by the budget and the input, not by m.  Returns None when a
    summand is still < m at the horizon: the budget cannot decide.
    """
    _diagram.ensure_valid(d)
    if not d.injective:
        raise InjectivityRequired("telescoping assumes injective connecting maps")
    chain = find_infinite_k_chain(d)
    if chain is not None and chain.k < m:
        raise InfiniteChainError(chain)
    profiles = _walk(d, m, d.horizon(budget))
    if min(profiles[-1]) < m:
        return None
    return Telescoped(_drop_before(d, profiles, _cut(profiles, m)), len(profiles))


def classify(d: BratteliDiagram) -> KStabilityVerdict:
    """Decide K-stability (equivalently, rational K-stability), with no level budget.

    A copy cycle carries a chain, so the algebra has a nonzero
    finite-dimensional representation: not K-stable.  A tail-less diagram
    presents a finite-dimensional algebra, its own such representation, and
    its witness is the identity-completion chain through a smallest summand.
    Without a chain every summand is >= M_MAX within prefix + n.(M_MAX - 1)
    levels (module docstring), and one walk that long certifies the cuts
    for every m <= M_MAX.
    """
    _diagram.ensure_valid(d)
    if not d.injective:
        raise InjectivityRequired("classification requires injective connecting maps")
    chain = find_infinite_k_chain(d)
    if chain is not None:
        return KStabilityVerdict(NOT_K_STABLE, d.prefix_len, witness=chain)
    profiles = _walk(d, M_MAX, d.prefix_len + d.tail.matrix.rows * (M_MAX - 1))
    assert min(profiles[-1]) >= M_MAX, "the walk bound in the module docstring"
    cuts = tuple(_cut(profiles, m) for m in range(2, M_MAX + 1))
    certificate = tuple((m, cuts[: m - 1]) for m in range(1, M_MAX + 1))
    return KStabilityVerdict(K_STABLE, len(profiles), certificate=certificate)
