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

Tail analysis is exact.  Coordinates of an affine tail split into

  * divergent ones, whose sizes grow beyond every bound (certified from the
    support graph of the tail matrix: a cycle pumped by slack, by another
    cycle upstream, or by a multiplicity >= 2 forces unbounded growth, and
    everything such a cycle reaches grows with it), and
  * bounded ones, which evolve autonomously and must therefore repeat.

An exact repeat of the bounded sub-vector certifies eventual periodicity of
everything a chain can use, reducing infinite-chain existence to cycle
detection in a finite phase graph.
"""

from __future__ import annotations

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


def _support_reach(tm: IntMatrix) -> list[list[bool]]:
    """reach[u][v]: a path of length >= 1 from coordinate u to v (u feeds v)."""
    n = tm.rows
    reach = [[tm.at(v, u) >= 1 for v in range(n)] for u in range(n)]
    for mid in range(n):
        for a in range(n):
            if reach[a][mid]:
                row_mid = reach[mid]
                row_a = reach[a]
                for b in range(n):
                    if row_mid[b]:
                        row_a[b] = True
    return reach


def coordinate_classes(tm: IntMatrix, slack: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bounded, divergent) coordinate indices of the affine recurrence q' = tm.q + slack."""
    n = tm.rows
    reach = _support_reach(tm)
    cyclic = [v for v in range(n) if reach[v][v]]
    sccs: list[frozenset[int]] = []
    placed: set[int] = set()
    for v in cyclic:
        if v in placed:
            continue
        group = frozenset(
            u for u in cyclic if u == v or (reach[v][u] and reach[u][v])
        )
        sccs.append(group)
        placed.update(group)
    pumped: list[frozenset[int]] = []
    for scc in sccs:
        internal = [
            (u, v) for u in scc for v in scc if tm.at(v, u) >= 1
        ]
        expanding = len(internal) > len(scc) or any(tm.at(v, u) >= 2 for u, v in internal)
        slack_fed = any(
            slack[u] > 0 and (u in scc or any(reach[u][v] for v in scc))
            for u in range(n)
        )
        upstream = any(
            other is not scc and any(reach[x][v] for x in other for v in scc)
            for other in sccs
        )
        if expanding or slack_fed or upstream:
            pumped.append(scc)
    divergent = set()
    for scc in pumped:
        divergent.update(scc)
        for i in range(n):
            if any(reach[v][i] for v in scc):
                divergent.add(i)
    bounded = tuple(i for i in range(n) if i not in divergent)
    return bounded, tuple(sorted(divergent))


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
    start, period = cycle
    return TailOrbit(
        profiles=tuple(profiles),
        bounded=bounded,
        start=start,
        period=period,
    )


def _phase_graph_cycle(
    orbit: TailOrbit, tm: IntMatrix, k: int
) -> Optional[list[tuple[int, int]]]:
    """A directed cycle through (phase, coord) vertices of constant size k, or None.

    Vertices use bounded coordinates only: divergent ones outgrow k and
    cannot recur, so no infinite chain threads them.
    """
    period = orbit.period
    # coords[phase]: the bounded coordinates of size k at that phase, ascending
    coords = [
        [i for i in orbit.bounded if orbit.profiles[orbit.start + phase - 1][i] == k]
        for phase in range(period)
    ]
    verts = [(phase, i) for phase in range(period) for i in coords[phase]]
    if not verts:
        return None
    # an edge only joins consecutive phases, so successors come from the next one
    adjacency = {
        (phase, i): [
            ((phase + 1) % period, j) for j in coords[(phase + 1) % period] if tm.at(j, i) >= 1
        ]
        for phase, i in verts
    }
    color: dict[tuple[int, int], int] = {}
    for root in verts:
        if color.get(root):
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = 1
        path = [root]
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    return path[path.index(nxt):]
                if not color.get(nxt):
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = 2
                path.pop()
                stack.pop()
    return None


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


def _witness_from_cycle(
    d: BratteliDiagram, orbit: TailOrbit, k: int, cycle: list[tuple[int, int]]
) -> KChainWitness:
    rotation = cycle.index(min(cycle))
    cycle = cycle[rotation:] + cycle[:rotation]
    return _chain_witness(
        d, orbit.profiles, k, orbit.start + cycle[0][0], [i for _, i in cycle], "tail-cycle"
    )


def find_infinite_k_chain(
    d: BratteliDiagram, budget: int = DEFAULT_BUDGET
) -> Union[KChainWitness, None, _Inconclusive]:
    """Search a valid diagram for an infinite constant-size chain.

    The diagram is not validated here: `classify` and `telescope` validate
    first, and `telescope` searches a cut of a valid diagram, which is valid.
    Tail-less diagrams are never conclusive here: a finite unrolling cannot
    exclude chains starting beyond it.  With a tail, the phase-graph analysis
    is complete, so None is a genuine certificate of absence.
    """
    orbit = tail_orbit(d, budget)
    if orbit is INCONCLUSIVE:
        return INCONCLUSIVE
    tm = d.tail.matrix
    window = range(orbit.start, orbit.start + orbit.period)
    # each candidate k has at most one witness, so the smallest k with a cycle wins
    for k in sorted({orbit.profiles[lvl - 1][i] for lvl in window for i in orbit.bounded}):
        cycle = _phase_graph_cycle(orbit, tm, k)
        if cycle is not None:
            return _witness_from_cycle(d, orbit, k, cycle)
    return None


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
