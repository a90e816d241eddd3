"""Moves of a Bratteli diagram that keep its AF-algebra, for metamorphic tests.

Each move takes a valid diagram and a random source and returns a valid
diagram with the same colimit, or None where the move does not apply.  The
sizes and matrices are rebuilt with plain lists; a tail-less diagram is
continued by identity maps.
"""

from math import lcm

from afk.diagram import AffineTail, BratteliDiagram
from afk.linalg import IntMatrix


def _tail_rows(d):
    n = len(d.prefix_levels[-1])
    if d.tail is None:
        return [[int(i == j) for j in range(n)] for i in range(n)], [0] * n
    return d.tail.matrix.to_rows(), list(d.tail.slack)


def _step(rows, slack, q):
    return tuple(sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack))


def _product(left, right):
    """The matrix product left.right of two lists of rows."""
    columns = list(zip(*right))
    return IntMatrix.from_rows([[sum(a * b for a, b in zip(row, col)) for col in columns] for row in left])


def _relabeled(rows, source, target):
    """rows with column j moved to source[j] and row i to target[i]."""
    out = [[0] * len(source) for _ in target]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[target[i]][source[j]] = x
    return IntMatrix.from_rows(out)


def relabel(d, rng):
    """Permute the summands of every level, the tail's with the last prefix level's permutation."""
    perms = [rng.sample(range(len(q)), len(q)) for q in d.prefix_levels]
    levels = []
    for q, perm in zip(d.prefix_levels, perms):
        moved = [0] * len(q)
        for i, size in enumerate(q):
            moved[perm[i]] = size
        levels.append(tuple(moved))
    matrices = tuple(
        _relabeled(m.to_rows(), perms[t], perms[t + 1]) for t, m in enumerate(d.prefix_matrices)
    )
    tail = None
    if d.tail is not None:
        perm, slack = perms[-1], [0] * len(perms[-1])
        for i, s in enumerate(d.tail.slack):
            slack[perm[i]] = s
        tail = AffineTail(_relabeled(d.tail.matrix.to_rows(), perm, perm), tuple(slack))
    return BratteliDiagram(tuple(levels), matrices, tail)


def append_tail_step(d, rng):
    """Make the first tail level (the identity's, without a tail) the last prefix level."""
    rows, slack = _tail_rows(d)
    level = _step(rows, slack, d.prefix_levels[-1])
    return BratteliDiagram((*d.prefix_levels, level), (*d.prefix_matrices, IntMatrix.from_rows(rows)), d.tail)


def drop_first_level(d, rng):
    """Start one level later; a one-level prefix is replaced by the first tail level."""
    if d.prefix_len > 1:
        return BratteliDiagram(d.prefix_levels[1:], d.prefix_matrices[1:], d.tail)
    if d.tail is None:
        return None
    return BratteliDiagram((_step(*_tail_rows(d), d.prefix_levels[-1]),), (), d.tail)


def square_tail(d, rng):
    """Replace the tail (Φ, s) by two of its steps at once, (Φ², Φ.s + s)."""
    if d.tail is None:
        return None
    rows, slack = _tail_rows(d)
    return BratteliDiagram(d.prefix_levels, d.prefix_matrices, AffineTail(_product(rows, rows), _step(rows, slack, slack)))


def _copy_cycle_lcm(rows, slack):
    """The lcm of the lengths of the cycles of copies: row i copies j when it is e_j and slack[i] == 0."""
    source = {i: row.index(1) for i, row in enumerate(rows) if slack[i] == 0 and sum(row) == 1}  # entries >= 0
    period = 1
    for i in source:
        j, length = source[i], 1
        while j != i and j in source and length <= len(rows):
            j, length = source[j], length + 1
        if j == i:
            period = lcm(period, length)
    return period


def power_tail(d, rng):
    """Replace the tail (Φ, s) by L of its steps at once, (Φ^L, Σ_{i<L} Φ^i.s).

    L is the lcm of the copy-cycle lengths, so every copy cycle becomes
    fixed points.  None when L is 1 (or there is no tail) or above 12.
    """
    if d.tail is None:
        return None
    rows, slack = _tail_rows(d)
    period = _copy_cycle_lcm(rows, slack)
    if not 1 < period <= 12:
        return None
    power, shift = rows, slack
    for _ in range(period - 1):
        power, shift = _product(rows, power).to_rows(), _step(rows, slack, shift)
    return BratteliDiagram(d.prefix_levels, d.prefix_matrices, AffineTail(IntMatrix.from_rows(power), tuple(shift)))


def compose_prefix_maps(d, rng):
    """Drop one inner prefix level and join its neighbours by the composite of its two maps."""
    if d.prefix_len < 3:
        return None
    k = rng.randrange(1, d.prefix_len - 1)  # 0-based: level k is dropped, maps k-1 and k compose
    composite = _product(d.prefix_matrices[k].to_rows(), d.prefix_matrices[k - 1].to_rows())
    return BratteliDiagram(
        d.prefix_levels[:k] + d.prefix_levels[k + 1 :],
        (*d.prefix_matrices[: k - 1], composite, *d.prefix_matrices[k + 1 :]),
        d.tail,
    )


MOVES = (relabel, append_tail_step, drop_first_level, square_tail, power_tail, compose_prefix_maps)
