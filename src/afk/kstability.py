"""K-stability analysis of a Bratteli diagram.

An infinite K-chain (a forever-alive path of size-K summands in which every
non-initial node has the previous node as its only predecessor) certifies a
finite-dimensional quotient, hence failure of K-stability.  Conversely, a
diagram whose tail provably carries no infinite chain can be telescoped, for
every target m, into a presentation whose summands all have size >= m, which
certifies K-stability.  Telescoping is one walk and one cut: the walk unrolls
until no summand is < m, or until one provably stays < m forever, and the cut
drops every level up to the last one holding a summand < m.  The walk is
`diagram.unroll_to_repeat` with a key that is None, ending the scan, once no
summand is < m; the tail-orbit search uses the same unroll.

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
form no cycle, as each joins after all its predecessors, so the bounded
sub-vector is periodic from at most n levels past the prefix, with a period
dividing the lcm of the copy-cycle lengths; `tail_orbit` finds that repeat.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Optional, Sequence, Union

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import diagram as _diagram
from .diagram import DEFAULT_BUDGET, BratteliDiagram, InjectivityRequired
from .linalg import IntMatrix


class InfiniteChainError(Exception):
    """Telescoping hit an infinite chain; the witness rides along."""

    def __init__(self, witness: "KChainWitness"):
        super().__init__(f"infinite {witness.k}-chain starting at level {witness.start_level}")
        self.witness = witness


class _Inconclusive:
    __slots__ = ()

    def __repr__(self):
        return "INCONCLUSIVE"


INCONCLUSIVE = _Inconclusive()

NOT_K_STABLE = "not-k-stable"
K_STABLE = "k-stable"
INCONCLUSIVE_AT_BUDGET = "inconclusive-at-budget"

# a K-stable verdict certifies the telescoping cuts for targets m = 1..M_MAX
M_MAX = 8


class KChainWitness(NamedTuple):
    """A replayable description of an infinite constant-size chain.

    The chain occupies one summand per level from `start_level` on: first the
    explicit `node_path`, then `cycle_summands` repeated forever (summand
    indices are 1-based).  `kind` is "tail-cycle" for a periodic tail segment
    and "identity-completion" for a tail-less diagram read as a
    finite-dimensional algebra extended by identity maps.
    """

    k: int
    start_level: int
    node_path: tuple[int, ...]
    cycle_period: int
    cycle_summands: tuple[int, ...]
    kind: str = "tail-cycle"

    def summand_at(self, offset: int) -> int:
        if offset < len(self.node_path):
            return self.node_path[offset]
        return self.cycle_summands[(offset - len(self.node_path)) % self.cycle_period]


class KStabilityVerdict(NamedTuple):
    status: str
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


def coordinate_classes(tm: IntMatrix, slack: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bounded, divergent) coordinate indices of the affine recurrence q' = tm.q + slack.

    The bounded ones are the copy-cycle coordinates and, to a fixpoint, every
    coordinate fed only by bounded ones; the rest diverge (module docstring).
    """
    bounded = {i for cycle in _copy_cycles(tm, slack) for i in cycle}
    feeders = [{j for j, x in enumerate(tm.row(i)) if x} for i in range(tm.rows)]
    grown = True
    while grown:
        grown = False
        for i, fed_by in enumerate(feeders):
            if i not in bounded and fed_by <= bounded:
                bounded.add(i)
                grown = True
    return tuple(sorted(bounded)), tuple(i for i in range(tm.rows) if i not in bounded)


class TailOrbit(NamedTuple):
    """Certified eventual periodicity of the bounded tail coordinates.

    `profiles` run up to level start + period, where the bounded sub-vector
    first repeats.
    """

    profiles: tuple[tuple[int, ...], ...]
    bounded: tuple[int, ...]
    start: int  # first level of the periodic window (1-based)
    period: int


def tail_orbit(d: BratteliDiagram, budget: int = DEFAULT_BUDGET) -> Union[TailOrbit, _Inconclusive]:
    if d.tail is None:
        return INCONCLUSIVE
    bounded, _ = coordinate_classes(d.tail.matrix, d.tail.slack)
    profiles, cycle = _diagram.unroll_to_repeat(d, lambda q: tuple(q[i] for i in bounded), budget)
    if cycle is None:
        return INCONCLUSIVE
    return TailOrbit(tuple(profiles), bounded, *cycle)


def _chain_witness(
    d: BratteliDiagram,
    profiles: Sequence[tuple[int, ...]],
    k: int,
    level: int,
    cycle: Sequence[int],
    kind: str,
) -> KChainWitness:
    """The witness whose `cycle` (0-based summands) runs from `level` on.

    Its explicit path walks the sole-predecessor relation down from the
    cycle's first summand while it stays a k-chain.
    """
    path: list[int] = []
    current = cycle[0]
    while level > 1:
        m = d.matrix_after(level - 1)
        row = [(j, m.at(current, j)) for j in range(m.cols) if m.at(current, j) > 0]
        if len(row) != 1:
            break
        j, mult = row[0]
        if mult != 1 or profiles[level - 2][j] != k:
            break
        current = j
        level -= 1
        path.append(j)
    return KChainWitness(
        k=k,
        start_level=level,
        node_path=tuple(j + 1 for j in reversed(path)),
        cycle_period=len(cycle),
        cycle_summands=tuple(i + 1 for i in cycle),
        kind=kind,
    )


def find_infinite_k_chain(
    d: BratteliDiagram, budget: int = DEFAULT_BUDGET
) -> Union[KChainWitness, None, _Inconclusive]:
    """Search a valid diagram for an infinite constant-size chain.

    The diagram is not validated here: `classify` and `telescope` validate
    first, and `telescope` searches a cut of a valid diagram, which is valid.
    Tail-less diagrams are never conclusive here: a finite unrolling cannot
    exclude chains starting beyond it.  With a tail, a chain exists iff a
    copy cycle does, so None is a genuine certificate of absence.  The
    witness is read at the first level of the bounded orbit's window: k is
    the smallest size on a copy cycle there, and the chain starts at the
    smallest coordinate of size k on one, following the copies until it is
    back there after a multiple of the orbit's period.
    """
    orbit = tail_orbit(d, budget)
    if orbit is INCONCLUSIVE:
        return INCONCLUSIVE
    cycles = _copy_cycles(d.tail.matrix, d.tail.slack)
    if not cycles:
        return None
    q = orbit.profiles[orbit.start - 1]
    k, first = min((q[i], i) for cycle in cycles for i in cycle)
    cycle = next(cycle for cycle in cycles if first in cycle)
    turn = cycle.index(first)
    chain = [cycle[(turn + t) % len(cycle)] for t in range(lcm(orbit.period, len(cycle)))]
    return _chain_witness(d, orbit.profiles, k, orbit.start, chain, "tail-cycle")


def replay_witness(d: BratteliDiagram, w: KChainWitness, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Re-verify every chain condition against the materialized diagram.

    Returns human-readable violations; an empty list means the witness checks
    out edge by edge over the available levels.
    """
    if d.tail is None:
        levels = d.prefix_len
    else:
        levels = budget
    profiles = list(_diagram.materialize(d, levels)[0])
    violations = []
    if w.start_level > levels:
        return [f"start level {w.start_level} beyond the {levels} materialized levels"]
    for t in range(w.start_level, levels + 1):
        i = w.summand_at(t - w.start_level) - 1
        if i >= len(profiles[t - 1]):
            violations.append(f"level {t}: summand {i + 1} does not exist")
            continue
        if profiles[t - 1][i] != w.k:
            violations.append(
                f"level {t}: summand {i + 1} has size {profiles[t - 1][i]}, expected {w.k}"
            )
    for t in range(w.start_level, levels):
        i = w.summand_at(t - w.start_level) - 1
        nxt = w.summand_at(t + 1 - w.start_level) - 1
        m = d.matrix_after(t)
        if m.at(nxt, i) != 1:
            violations.append(
                f"edge {t}->{t + 1}: multiplicity {m.at(nxt, i)} between chain nodes, expected 1"
            )
        for j in range(m.cols):
            if j != i and m.at(nxt, j) != 0:
                violations.append(
                    f"edge {t}->{t + 1}: chain node has an extra predecessor (summand {j + 1})"
                )
    if w.kind == "identity-completion" and d.tail is not None:
        violations.append("identity-completion witness on a diagram with a tail")
    return violations


def _drop_before(d: BratteliDiagram, profiles: Sequence[tuple[int, ...]], cut: int) -> BratteliDiagram:
    if cut == 1:
        return d
    if cut <= d.prefix_len:
        return BratteliDiagram(d.prefix_levels[cut - 1 :], d.prefix_matrices[cut - 1 :], d.tail)
    return BratteliDiagram((profiles[cut - 1],), (), d.tail)


def _identity_completion_witness(d: BratteliDiagram) -> KChainWitness:
    last = d.prefix_levels[-1]
    k = min(last)
    return _chain_witness(d, d.prefix_levels, k, d.prefix_len, [last.index(k)], "identity-completion")


def _walk(
    d: BratteliDiagram, m: int, budget: int
) -> tuple[list[tuple[int, ...]], Union[int, None, _Inconclusive]]:
    """Unroll until the smallest summand k reaches m or provably stays below it.

    Returns (profiles, k): k is None when the last profile has no summand
    < m, the smallest summand when it stays < m forever, and INCONCLUSIVE
    when neither shows by level max(budget, prefix length).  The walk is
    `unroll_to_repeat` with a key that is None once min(q) >= m, which ends
    the scan there, and otherwise the sizes clamped at min(q) + 1.

    A valid tail has no zero rows, so each summand of a tail level is at
    least the smallest summand of the level before: from the last prefix
    level on, k never drops.  Once no summand is < m, none ever is again, so
    one cut (dropping levels never changes the limit) before the first level
    kept does what raising the minimum past 1, 2, ..., m-1 in turn would.
    While k stays put, the sizes clamped at k+1 evolve on their own, so
    their first repeat repeats forever and a summand of size k persists.
    Rows are never zero, so it has, level after level, a same-size sole
    predecessor, and the pigeonhole closes that walk into a cycle: an
    infinite k-chain.  A tail-less diagram is its last level forever, so
    a small summand there persists at once.
    """
    def key(q):
        k = min(q)
        # min(clamped) is k, so equal keys have equal k
        return None if k >= m else tuple(min(x, k + 1) for x in q)

    profiles, repeat = _diagram.unroll_to_repeat(d, key, budget)
    k = min(profiles[-1])
    if k >= m:
        return profiles, None
    return profiles, k if repeat is not None or d.tail is None else INCONCLUSIVE


def _cut(profiles: Sequence[tuple[int, ...]], m: int) -> int:
    """1 + the last level that holds a summand < m: the first level kept."""
    return next((lvl + 1 for lvl in range(len(profiles), 0, -1) if min(profiles[lvl - 1]) < m), 1)


def telescope(
    d: BratteliDiagram, m: int, budget: int = DEFAULT_BUDGET
) -> Union[BratteliDiagram, _Inconclusive]:
    """Telescope to an equal-colimit presentation with min summand size >= m.

    Raises InfiniteChainError (with its witness) when a persistent small
    summand makes that impossible, and InjectivityRequired when some
    connecting map has a zero column.  No unroll passes level `budget` or
    the given prefix, whichever is later, so the work is bounded by the
    budget and the input, not by m.
    """
    _diagram.ensure_valid(d)
    if not d.injective:
        raise InjectivityRequired("telescoping assumes injective connecting maps")
    profiles, k = _walk(d, m, budget)
    if k is None:
        return _drop_before(d, profiles, _cut(profiles, m))
    if k is INCONCLUSIVE:
        return INCONCLUSIVE
    # k persists: the chain lives in the diagram cut below k, on the levels left of the budget
    cut = _cut(profiles, k)
    below = _drop_before(d, profiles, cut)
    chain = find_infinite_k_chain(below, budget - cut + 1) if d.tail else _identity_completion_witness(below)
    if isinstance(chain, KChainWitness):
        raise InfiniteChainError(chain._replace(start_level=chain.start_level + cut - 1))
    return INCONCLUSIVE


def classify(d: BratteliDiagram, budget: int = DEFAULT_BUDGET) -> KStabilityVerdict:
    """Decide K-stability (equivalently, rational K-stability).

    A tail-less diagram presents a finite-dimensional algebra, which is its
    own nonzero finite-dimensional representation: never K-stable, and the
    witness records the identity-completion chain through a smallest summand.
    """
    _diagram.ensure_valid(d)
    if not d.injective:
        raise InjectivityRequired("classification requires injective connecting maps")
    if d.tail is None:
        return KStabilityVerdict(NOT_K_STABLE, witness=_identity_completion_witness(d))
    found = find_infinite_k_chain(d, budget)
    if found is INCONCLUSIVE:
        return KStabilityVerdict(INCONCLUSIVE_AT_BUDGET)
    if isinstance(found, KChainWitness):
        return KStabilityVerdict(NOT_K_STABLE, witness=found)
    # no chain, so no summand < M_MAX persists: one walk certifies every m <= M_MAX
    profiles, k = _walk(d, M_MAX, budget)
    if k is not None:
        return KStabilityVerdict(INCONCLUSIVE_AT_BUDGET)
    schedule = tuple(_cut(profiles, s + 1) for s in range(1, M_MAX))
    return KStabilityVerdict(
        K_STABLE, certificate=tuple((m, schedule[: m - 1]) for m in range(1, M_MAX + 1))
    )
