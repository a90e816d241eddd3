"""Independent brute-force oracles used by the test suite.

Deliberately naive: plain Gaussian elimination over `fractions.Fraction`,
list-of-lists matrices, no sharing with the package's fraction-free code.
"""

from fractions import Fraction
from functools import lru_cache


def naive_rank(rows):
    """Rank of a matrix (list of int/Fraction rows) by textbook elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / pv
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def naive_matmul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def naive_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_truncated_colimit(d, m, probe_from, probe_to):
    """Brute-force colimit dimension of the degree-m system of diagram `d`.

    Unrolls the sizes with plain Python, keeps summands with m <= 2p - 1,
    composes the truncated matrices with Fractions, and reads off the rank of
    the composite out of `probe_from` once it has visibly plateaued by
    `probe_to`.  Raises if the probe window was too small to certify one.
    """
    sizes = [list(lvl) for lvl in d.prefix_levels]
    mats = [mat.to_rows() for mat in d.prefix_matrices]
    while len(sizes) < probe_to:
        q = sizes[-1]
        t = d.tail.matrix.to_rows()
        sizes.append(
            [sum(t[i][j] * q[j] for j in range(len(q))) + d.tail.slack[i] for i in range(len(t))]
        )
        mats.append(t)
    keep = [[j for j, p in enumerate(lvl) if m % 2 == 1 and m <= 2 * p - 1] for lvl in sizes]
    tmats = [
        [[mats[k][i][j] for j in keep[k]] for i in keep[k + 1]] for k in range(probe_to - 1)
    ]
    comp = naive_identity(len(keep[probe_from - 1]))
    ranks = []
    for k in range(probe_from - 1, probe_to - 1):
        comp = naive_matmul(tmats[k], comp)
        ranks.append(naive_rank(comp))
    if len(ranks) < 2 or ranks[-1] != ranks[-2]:
        raise AssertionError("oracle probe window too small to certify a plateau")
    return ranks[-1]


def check_coordinate_classes(rows, slack, start, bounded, divergent):
    """What is wrong with a (bounded, divergent) split of the tail q' = rows.q + slack.

    Plain simulation from `start`, the last prefix level; sizes are assumed
    positive.  The bounded sub-vector must repeat within 1000 levels and
    stay periodic from its first repeat on.  With B its largest size and
    n the width, every divergent coordinate must be above B from n(B + 2)
    levels past `start` on: it gains >= 1 every n levels after at most n
    levels of delay.  Returns the failures; an empty list means none.
    """
    n = len(rows)
    if sorted([*bounded, *divergent]) != list(range(n)):
        return [f"{bounded} and {divergent} do not split {n} coordinates"]

    def step(q):
        return [sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack)]

    sizes, seen = [list(start)], {}
    while (key := tuple(sizes[-1][i] for i in bounded)) not in seen:
        if len(sizes) > 1000:
            return ["the bounded sub-vector does not repeat within 1000 levels"]
        seen[key] = len(sizes) - 1
        sizes.append(step(sizes[-1]))
    first = seen[key]
    period = len(sizes) - 1 - first
    big = max((q[i] for q in sizes for i in bounded), default=0)
    grown = n * (big + 2)
    while len(sizes) <= 2 * grown + period:
        sizes.append(step(sizes[-1]))
    failures = []
    for t in range(first, len(sizes) - period):
        broken = [i for i in bounded if sizes[t][i] != sizes[t + period][i]]
        if broken:
            failures.append(f"bounded coordinate {broken[0]} breaks the period {period} at level {t}")
            break
    for i in divergent:
        low = min(q[i] for q in sizes[grown:])
        if low <= big:
            failures.append(f"divergent coordinate {i} has size {low} <= {big} after level {grown}")
    return failures


def copy_cycle_coordinates(rows, slack):
    """The coordinates on cycles of copies: row i copies j when it is the unit vector e_j and slack[i] == 0."""
    source = {i: row.index(1) for i, row in enumerate(rows) if slack[i] == 0 and sum(row) == 1}  # entries >= 0
    on_cycle = set()
    for i in source:
        j = source[i]
        for _ in range(len(rows)):
            if j == i:
                on_cycle.add(i)
                break
            if j not in source:
                break
            j = source[j]
    return on_cycle


def coordinate_classes(rows, slack):
    """(bounded, divergent) coordinate indices of the tail q' = rows.q + slack, sorted.

    The bounded ones are the copy-cycle coordinates and, to a fixpoint,
    every coordinate fed only by bounded ones; the rest diverge.
    """
    bounded = copy_cycle_coordinates(rows, slack)
    while True:
        fed = {i for i, row in enumerate(rows) if all(j in bounded for j, x in enumerate(row) if x)}
        if fed <= bounded:
            break
        bounded |= fed
    return tuple(sorted(bounded)), tuple(i for i in range(len(rows)) if i not in bounded)


def oracle_closed_form_fm(d, m):
    """F_m of diagram `d` in closed form, without unrolling a tail level.

    For odd m it is F_inf = rank(D^n), with D the tail matrix on its n
    divergent coordinates, plus the number of copy-cycle coordinates whose
    size at the last prefix level is >= (m + 1) / 2: each carries a strand
    of that size forever.  Even m gives 0, and a diagram without a tail is
    read as the identity tail.
    """
    if m % 2 == 0:
        return 0
    f_inf, strands = _closed_form_parts(d.prefix_levels[-1], d.tail)
    return f_inf + sum(1 for size in strands if size >= (m + 1) // 2)


@lru_cache(maxsize=64)
def _closed_form_parts(last, tail):
    """(F_inf, the strand sizes) of a tail read from the last prefix level `last`."""
    n = len(last)
    if tail is None:
        rows, slack = naive_identity(n), [0] * n
    else:
        rows, slack = tail.matrix.to_rows(), list(tail.slack)
    strands = copy_cycle_coordinates(rows, slack)
    _, divergent = coordinate_classes(rows, slack)
    block = [[rows[i][j] for j in divergent] for i in divergent]
    power = naive_identity(len(divergent))
    for _ in divergent:
        power = naive_matmul(block, power)
    return naive_rank(power), tuple(last[i] for i in strands)


def oracle_cut(d, m):
    """(cut, reached, first): where telescoping diagram `d` to target m cuts, by a plain unroll.

    `reached` is the first level from the last prefix level on with no
    summand < m, `cut` is 1 + the last level holding a summand < m, and
    `first` is the profile at the cut.  The sizes are unrolled with Python
    lists to 40 levels past `reached`, and the cut is read over all of
    them, so a level there that fell back below m would move it.  The
    caller rules out a copy cycle carrying a size < m; the unroll gives up
    after 10^6 levels.
    """
    sizes = [list(lvl) for lvl in d.prefix_levels]
    if d.tail is not None:
        rows, slack = d.tail.matrix.to_rows(), list(d.tail.slack)

    def step(q):
        return [sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack)]

    while min(sizes[-1]) < m:
        assert d.tail is not None and len(sizes) < 10**6, "no level without a summand < m"
        sizes.append(step(sizes[-1]))
    reached = len(sizes)
    while d.tail is not None and len(sizes) < reached + 40:
        sizes.append(step(sizes[-1]))
    cut = 1 + max((t for t, q in enumerate(sizes, start=1) if min(q) < m), default=0)
    return cut, reached, tuple(sizes[cut - 1])


def oracle_replay_chain(d, w):
    """What is wrong with chain witness `w` over a window of levels from its start.

    Plain simulation: the sizes are unrolled with Python lists (a diagram
    without a tail continues its last level through identity maps), and at
    every level the chain's summand must have size w.k and, after the
    first, the previous chain summand as its only predecessor, with
    multiplicity 1.  Returns the failures; an empty list means none.

    The window is the witness's path, two cycle periods and 32 more levels,
    as `bench/checks.replay` reads it.  That covers every cycle edge in the
    tail, and an edge there between summands of the same size, the earlier
    one the only predecessor, is a copy (the `kstability` module
    docstring), so a chain that holds over the window holds forever.
    """
    levels = len(w.node_path) + 2 * w.cycle_period + 32
    sizes = [list(lvl) for lvl in d.prefix_levels]
    mats = [mat.to_rows() for mat in d.prefix_matrices]
    n = len(sizes[-1])
    if d.tail is None:
        rows, slack = naive_identity(n), [0] * n
    else:
        rows, slack = d.tail.matrix.to_rows(), list(d.tail.slack)
    last = w.start_level + levels
    while len(sizes) < last:
        q = sizes[-1]
        sizes.append([sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack)])
        mats.append(rows)
    chain = list(w.node_path)
    while len(chain) <= levels:
        chain += list(w.cycle_summands)
    failures = []
    for t in range(w.start_level, last + 1):
        i = chain[t - w.start_level] - 1
        if not 0 <= i < len(sizes[t - 1]) or sizes[t - 1][i] != w.k:
            failures.append(f"level {t}: summand {i + 1} is not of size {w.k}")
            continue
        if t > w.start_level:
            prev = chain[t - 1 - w.start_level] - 1
            row = mats[t - 2][i]
            if [j for j, x in enumerate(row) if x] != [prev] or row[prev] != 1:
                failures.append(f"level {t}: summand {i + 1} is not fed by summand {prev + 1} alone, once")
    return failures


def oracle_dot(d, degree, levels):
    """The DOT text of the first `levels` levels of diagram `d`, one line at a time.

    Plain simulation of the sizes: a tail continues the last prefix level
    through q' = rows.q + slack.  A node is labeled with its size, or, when
    `degree` is given, with 1 if that degree keeps it (degree odd and
    degree <= 2p - 1) and 0 if not.  All node lines come first, each level
    closed by its `rank=same` line, then the edge lines of every matrix,
    one per positive multiplicity.
    """
    sizes = [list(lvl) for lvl in d.prefix_levels[:levels]]
    mats = [mat.to_rows() for mat in d.prefix_matrices[: levels - 1]]
    if len(sizes) < levels:
        rows, slack = d.tail.matrix.to_rows(), list(d.tail.slack)
    while len(sizes) < levels:
        q = sizes[-1]
        sizes.append([sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack)])
        mats.append(rows)
    lines = ["digraph bratteli {", "  rankdir=TB;", "  node [shape=circle];"]
    for lvl, q in enumerate(sizes, start=1):
        names = [f'"L{lvl}S{i}"' for i in range(1, len(q) + 1)]
        for name, p in zip(names, q):
            label = p if degree is None else int(degree % 2 == 1 and degree <= 2 * p - 1)
            lines.append(f'  {name} [label="{label}"];')
        lines.append(f"  {{ rank=same; {'; '.join(names)}; }}")
    for lvl, rows in enumerate(mats, start=1):
        for i, row in enumerate(rows, start=1):
            for j, mult in enumerate(row, start=1):
                if mult > 0:
                    lines.append(f'  "L{lvl}S{j}" -> "L{lvl + 1}S{i}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
