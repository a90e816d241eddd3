"""K-stability analysis of a Bratteli diagram.

An infinite K-chain (a forever-alive path of size-K summands in which every
non-initial node has the previous node as its only predecessor) certifies a
finite-dimensional quotient, hence failure of K-stability.  Conversely, a
diagram whose tail provably carries no infinite chain can be telescoped, for
every target m, into a presentation whose summands all have size >= m, which
certifies K-stability.  Telescoping is one search and one cut: the search
finds the first level with no summand < m by doubling powers of the tail,
and the cut drops every level up to the last one holding a summand < m.

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
sizes 1 meets exactly, and that no search for target m passes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

# loaded on demand: other modules' functions are called through their module (see afk/__init__.py)
from . import diagram as _diagram
from . import linalg as _linalg
from .diagram import AffineTail, BratteliDiagram, InjectivityRequired


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
    witness: Optional[KChainWitness] = None
    certificate: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None


def _copy_cycles(tm: _linalg.IntMatrix, slack: Sequence[int]) -> list[tuple[int, ...]]:
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


def _reach(d: BratteliDiagram, m: int, squares: list, level: int, q: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(cut, level, q) at the first level from `level` (profile q) on with no summand < m.

    `level` is the last prefix level or follows one with a summand < m, no copy
    cycle carries a size < m, and the minimum never drops (no tail row is 0).
    Through `squares[i]`, the tail applied 2^i times and squared on demand, the
    search gallops (level += 2^i while the jump lands on a summand < m), then
    descends: within n.(m - 1) tail levels, at most 2.log2(n.m) + 2 steps and
    log2(n.m) squares, all held, square i's entries no larger than the sizes
    2^i levels on.  The cut, 1 + the last level with a summand < m, is the
    level reached in the tail, else a scan of the prefix finds it.
    """
    if min(q) < m:
        bound, i = d.prefix_len + len(q) * (m - 1), 0
        while min(ahead := _diagram.tail_step(squares[i], q)) < m:
            level, q, i = level + 2**i, ahead, i + 1
            assert level < bound, "the tail-level bound in the module docstring"
            if i == len(squares):
                power, shift = squares[-1]
                squares.append(AffineTail(_linalg.multiply(power, power), _diagram.tail_step(squares[-1], shift)))
        for j in range(i - 1, -1, -1):  # q at level holds a summand < m, the level 2^(j+1) past it none
            if min(mid := _diagram.tail_step(squares[j], q)) < m:
                level, q = level + 2**j, mid
        level, q = level + 1, _diagram.tail_step(squares[0], q)
    if level > d.prefix_len:
        return level, level, q
    return next((lvl + 1 for lvl in range(level, 0, -1) if min(d.prefix_levels[lvl - 1]) < m), 1), level, q


def telescope(d: BratteliDiagram, m: int) -> BratteliDiagram | KChainWitness:
    """Telescope to an equal-colimit presentation with min summand size >= m.

    Returns the chain's witness when a copy cycle carries a size < m, which
    then persists, and raises InjectivityRequired when some connecting map
    has a zero column.  Otherwise every summand reaches m, and one cut
    (dropping levels never changes the limit) before the first level kept,
    or d itself when that is level 1, does what raising the minimum past 1,
    2, ..., m-1 in turn would.  The searches for 2, 5, 26, ..., t.t + 1,
    ..., m each start where the last stopped, and str() of the largest
    summand reached stops them with ValueError past the int-to-str digit
    limit: in an injective tail it never drops, so the first level kept
    could not print either.
    """
    _diagram.ensure_valid(d)
    if not d.validation.injective:
        raise InjectivityRequired("telescoping assumes injective connecting maps")
    chain = find_infinite_k_chain(d)
    if chain is not None and chain.k < m:
        return chain
    cut, level, q, squares, target = 1, d.prefix_len, d.prefix_levels[-1], [d.tail], 1
    while target < m:
        target = min(m, target * target + 1)
        cut, level, q = _reach(d, target, squares, level, q)
        str(max(q))  # the digit limit: see above
    kept = ((q,), ()) if cut > d.prefix_len else (d.prefix_levels[cut - 1 :], d.prefix_matrices[cut - 1 :])
    return d if cut == 1 else BratteliDiagram(*kept, d.tail)


def classify(d: BratteliDiagram) -> KStabilityVerdict:
    """Decide K-stability (equivalently, rational K-stability), with no level budget.

    A copy cycle carries a chain, so the algebra has a nonzero
    finite-dimensional representation: not K-stable.  A tail-less diagram
    presents a finite-dimensional algebra, its own such representation, and
    its witness is the identity-completion chain through a smallest summand.
    Without a chain, chained searches for m = 2..M_MAX certify every cut.
    """
    _diagram.ensure_valid(d)
    if not d.validation.injective:
        raise InjectivityRequired("classification requires injective connecting maps")
    chain = find_infinite_k_chain(d)
    if chain is not None:
        return KStabilityVerdict(NOT_K_STABLE, witness=chain)
    squares, level, q, certificate = [d.tail], d.prefix_len, d.prefix_levels[-1], [(1, ())]
    for m in range(2, M_MAX + 1):  # the cuts for m are those for m - 1 and m's own
        cut, level, q = _reach(d, m, squares, level, q)
        certificate.append((m, (*certificate[-1][1], cut)))
    return KStabilityVerdict(K_STABLE, certificate=tuple(certificate))
