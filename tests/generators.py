"""Random diagram and document generators shared by the test modules."""

from afk.diagram import AffineTail, BratteliDiagram
from afk.linalg import IntMatrix


def random_valid_triple(rng, max_summands=4, max_mult=2):
    """Two composable multiplicity matrices with size-compatible profiles."""
    n1 = rng.randint(1, max_summands)
    src = tuple(rng.randint(1, 5) for _ in range(n1))
    n2 = rng.randint(1, max_summands)
    phi1 = [[rng.randint(0, max_mult) for _ in range(n1)] for _ in range(n2)]
    mid = tuple(
        max(1, sum(phi1[i][j] * src[j] for j in range(n1)) + rng.randint(0, 2))
        for i in range(n2)
    )
    n3 = rng.randint(1, max_summands)
    phi2 = [[rng.randint(0, max_mult) for _ in range(n2)] for _ in range(n3)]
    dst = tuple(
        max(1, sum(phi2[i][j] * mid[j] for j in range(n2)) + rng.randint(0, 2))
        for i in range(n3)
    )
    return src, IntMatrix.from_rows(phi1), mid, IntMatrix.from_rows(phi2), dst


def _no_zero_rows(rows, rng):
    for row in rows:
        if all(x == 0 for x in row):
            row[rng.randrange(len(row))] = 1
    return rows


def _no_zero_cols(rows, rng):
    width = len(rows[0])
    for j in range(width):
        if all(rows[i][j] == 0 for i in range(len(rows))):
            rows[rng.randrange(len(rows))][j] = 1
    return rows


def random_growing_tail_diagram(rng, max_width=3):
    """Slack of ones pumps every loop, so all coordinates grow: K-stable."""
    width = rng.randint(1, max_width)
    rows = _no_zero_cols(
        _no_zero_rows([[rng.randint(0, 2) for _ in range(width)] for _ in range(width)], rng),
        rng,
    )
    start = tuple(rng.randint(1, 3) for _ in range(width))
    return BratteliDiagram(
        prefix_levels=(start,),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=(1,) * width),
    )


def random_pinned_tail_diagram(rng, max_width=3):
    """Coordinate 1 is pinned (identity row, zero slack): an eternal chain."""
    width = rng.randint(2, max_width)
    rows = [[1] + [0] * (width - 1)]
    for _ in range(width - 1):
        rows.append([rng.randint(0, 2) for _ in range(width)])
    rows = _no_zero_cols(_no_zero_rows(rows, rng), rng)
    rows[0] = [1] + [0] * (width - 1)
    slack = (0,) + tuple(rng.randint(0, 2) for _ in range(width - 1))
    start = tuple(rng.randint(1, 3) for _ in range(width))
    return BratteliDiagram(
        prefix_levels=(start,),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=slack),
    )


def random_prefix(rng, max_levels=5, max_summands=4, max_mult=2):
    """A random valid prefix: levels sized to absorb what the matrices send."""
    nlevels = rng.randint(1, max_levels)
    levels = [tuple(rng.randint(1, 4) for _ in range(rng.randint(1, max_summands)))]
    matrices = []
    for _ in range(nlevels - 1):
        src = levels[-1]
        width = rng.randint(1, max_summands)
        mat = [[rng.randint(0, max_mult) for _ in range(len(src))] for _ in range(width)]
        dst = tuple(
            max(1, sum(mat[i][j] * src[j] for j in range(len(src))) + rng.randint(0, 2))
            for i in range(width)
        )
        levels.append(dst)
        matrices.append(IntMatrix.from_rows(mat))
    return levels, matrices


def random_stationary_tail_diagram(rng, max_summands=4, max_levels=5, max_entry=3):
    """Random prefix plus a constant-matrix, zero-slack tail."""
    levels, matrices = random_prefix(rng, max_levels, max_summands)
    width = len(levels[-1])
    rows = _no_zero_rows(
        [[rng.randint(0, max_entry) for _ in range(width)] for _ in range(width)], rng
    )
    return BratteliDiagram(
        prefix_levels=tuple(levels),
        prefix_matrices=tuple(matrices),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=(0,) * width),
    )


def random_permutation_tail_diagram(rng, max_cycle=5, max_cycles=3):
    """A tail permuting its coordinates in cycles, then pumped here and there.

    Zero or more extra edges and a unit of slack pump some cycles, and
    half the draws put a random prefix in front.
    """
    lengths = [rng.randint(1, max_cycle) for _ in range(rng.randint(1, max_cycles))]
    width = sum(lengths)
    order = rng.sample(range(width), width)  # cycle positions -> coordinates
    rows = [[0] * width for _ in range(width)]
    offset = 0
    for length in lengths:
        for i in range(length):
            rows[order[offset + i]][order[offset + (i - 1) % length]] = 1
        offset += length
    for _ in range(rng.choice((0, 0, 1, 2))):
        rows[rng.randrange(width)][rng.randrange(width)] += 1
    slack = [0] * width
    if rng.random() < 0.3:
        slack[rng.randrange(width)] = 1
    top = tuple(rng.randint(1, 4) for _ in range(width))
    levels, matrices = [top], []
    if rng.random() < 0.5:
        levels, matrices = random_prefix(rng, max_levels=2, max_summands=3)
        src = levels[-1]
        mat = [[rng.randint(0, 1) for _ in src] for _ in range(width)]
        levels.append(tuple(sum(m * p for m, p in zip(row, src)) + t for row, t in zip(mat, top)))
        matrices.append(IntMatrix.from_rows(mat))
    return BratteliDiagram(
        prefix_levels=tuple(levels),
        prefix_matrices=tuple(matrices),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=tuple(slack)),
    )


def random_functional_graph_tail_diagram(rng, max_width=7):
    """A tail of copies along a function f that misses a coordinate: row i is e_f(i), no slack.

    f is drawn until it has a cycle of length >= 2 and is not onto.  The
    sizes then rotate with a period >= 2, and each degree's composite over
    that period is singular, its rank depending on the order of its maps
    and on the level it starts from.
    """
    width = rng.randint(3, max_width)
    while True:
        f = [rng.randrange(width) for _ in range(width)]
        on_cycles = {i for i in range(width) if _returns(f, i)}
        if len(set(f)) < width and any(f[i] != i for i in on_cycles):
            break
    rows = [[int(j == f[i]) for j in range(width)] for i in range(width)]
    return BratteliDiagram(
        prefix_levels=(tuple(rng.randint(1, 6) for _ in range(width)),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=(0,) * width),
    )


def _returns(f, i):
    """Whether iterating f from i comes back to i."""
    j = f[i]
    for _ in range(len(f)):
        if j == i:
            return True
        j = f[j]
    return False


def random_document(rng) -> dict:
    """A document as `parse` returns it."""
    levels, matrices = random_prefix(rng, max_levels=4)
    doc = {"levels": [list(lvl) for lvl in levels], "matrices": [m.to_rows() for m in matrices]}
    if rng.random() < 0.6:
        n = len(levels[-1])
        rows = _no_zero_rows([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)], rng)
        doc["tail"] = {"matrix": rows, "slack": [rng.randint(0, 2) for _ in range(n)]}
    if rng.random() < 0.4:
        doc["metadata"] = {"name": f"case-{rng.randint(0, 999)}"}
    return doc


def stationary_tail_of_width(rng, width, **kwargs):
    """`random_stationary_tail_diagram` drawn until its tail has `width` summands."""
    while True:
        d = random_stationary_tail_diagram(rng, max_summands=width, **kwargs)
        if len(d.prefix_levels[-1]) == width:
            return d
