"""Shared example diagrams used across the test modules."""

from afk.colimit import profile_systems
from afk.diagram import DEFAULT_BUDGET, AffineTail, BratteliDiagram
from afk.linalg import IntMatrix


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def build_systems(d: BratteliDiagram, degrees, budget: int = DEFAULT_BUDGET) -> list:
    """The truncated system of each degree, as `profile_systems` rows hold it (None for an even one)."""
    return [system for _, system, _ in profile_systems(d, degrees, budget)]


def worked_example() -> BratteliDiagram:
    """Two levels (1,2,3) -> (1,3,5,8) joined by the 4x3 connecting matrix."""
    return BratteliDiagram(
        prefix_levels=((1, 2, 3), (1, 3, 5, 8)),
        prefix_matrices=(IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 2]]),),
    )


def two_column() -> BratteliDiagram:
    """Two columns growing 1,2,3,... and 1,2,4,7,...; constant map [[1,0],[1,1]]."""
    phi = IntMatrix.from_rows([[1, 0], [1, 1]])
    return BratteliDiagram(
        prefix_levels=((1, 1), (2, 2), (3, 4)),
        prefix_matrices=(phi, phi),
        tail=AffineTail(matrix=phi, slack=(1, 0)),
    )


def constant_column() -> BratteliDiagram:
    """Left column pinned at size 1 forever; right column grows. Not K-stable."""
    return BratteliDiagram(
        prefix_levels=((1, 1),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[1, 0], [1, 2]]), slack=(0, 0)),
    )


def single_level(n: int) -> BratteliDiagram:
    """One level, one summand of size n, no tail: the algebra of n x n matrices."""
    return BratteliDiagram(prefix_levels=((n,),), prefix_matrices=())


def doubling() -> BratteliDiagram:
    """Single summand doubling forever: sizes 1, 2, 4, 8, ..."""
    return BratteliDiagram(
        prefix_levels=((1,),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[2]]), slack=(0,)),
    )


def stationary_identity(n: int) -> BratteliDiagram:
    """A single size-n summand repeated forever through identity maps."""
    return BratteliDiagram(
        prefix_levels=((n,),),
        prefix_matrices=(),
        tail=AffineTail(matrix=identity(1), slack=(0,)),
    )


def permutation_tail(cycles) -> BratteliDiagram:
    """Zero-slack tail permuting sizes 1..L around each cycle of length L: one prefix level."""
    sizes, rows, offset = [], [], 0
    width = sum(cycles)
    for length in cycles:
        for i in range(length):
            sizes.append(i + 1)
            row = [0] * width
            row[offset + (i - 1) % length] = 1  # summand i takes the size of summand i-1
            rows.append(row)
        offset += length
    return BratteliDiagram(
        prefix_levels=(tuple(sizes),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows(rows), slack=(0,) * width),
    )


def fibonacci() -> BratteliDiagram:
    """Sizes (1,1), (2,1), (3,2), (5,3), ...: no copy cycle, minimum 8 first at level 6."""
    return BratteliDiagram(
        prefix_levels=((1, 1),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[1, 1], [1, 0]]), slack=(0, 0)),
    )
