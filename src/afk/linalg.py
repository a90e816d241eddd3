"""Exact integer linear algebra.

Matrices hold Python's arbitrary-precision ints, and rank over Q is computed
by fraction-free (Bareiss) elimination, so no intermediate value is ever
rounded and no rational arithmetic is needed.  A subspace is never stored:
it is the column space of an integer matrix, and its dimension is that
matrix's rank.  All values are immutable after construction and safe to share.

`stable_power` finds where the powers of a square matrix C stop losing rank.
rank(C^j) does not increase with j, and the kernel chain ker C ⊆ ker C² ⊆ …
freezes at the first j with rank(C^j) = rank(C^(j+1)), so j <= n for an
n x n matrix.  From there on C is invertible on im C^j, so
rank(C^(j+t) · X) = rank(C^j · X) for every t and every X.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import NamedTuple, Optional, Sequence


class DimensionMismatch(ValueError):
    """Shapes are not conformable for the requested operation."""


class NotSquare(ValueError):
    """A square matrix was required."""


class _IntMatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[int, ...]


class IntMatrix(_IntMatrixFields):
    """An immutable integer matrix stored row-major.

    A NamedTuple, so it hashes and compares by value like a tuple of its
    fields: it even equals the plain tuple (rows, cols, entries).  Matrices
    are only ever compared with matrices.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative dimensions {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("ragged rows")
        return cls(nrows, ncols, tuple(map(int, chain.from_iterable(rows))))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        e = self.entries
        starts = [i * self.cols for i in row_idx]
        ents = tuple(e[s + j] for s in starts for j in col_idx)
        return IntMatrix(len(row_idx), len(col_idx), ents)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):  # pragma: no cover
        return f"IntMatrix({self.to_rows()!r})"


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact integer matrix product a.b."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    arows = [a.row(i) for i in range(a.rows)]
    bcols = [b.entries[j :: b.cols] for j in range(b.cols)]
    out = tuple(sum(map(mul, row, col)) for row in arows for col in bcols)
    return IntMatrix(a.rows, b.cols, out)


def matvec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if a.cols != len(v):
        raise DimensionMismatch(f"cannot apply {a.shape} to vector of length {len(v)}")
    return tuple(sum(map(mul, a.row(i), v)) for i in range(a.rows))


def rank(m: IntMatrix) -> int:
    """Rank over Q via fraction-free (Bareiss) elimination.

    The single-step Bareiss update keeps every intermediate entry an integer
    (each is a minor of the original matrix), so the division below is exact
    and there is no coefficient blow-up beyond minor size.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    piv_row = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(piv_row, nrows):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != piv_row:
            a[piv_row], a[pivot] = a[pivot], a[piv_row]
        p = a[piv_row][col]
        for i in range(piv_row + 1, nrows):
            ai = a[i]
            f = ai[col]
            for j in range(col + 1, ncols):
                ai[j] = (p * ai[j] - f * a[piv_row][j]) // prev
            ai[col] = 0
        prev = p
        piv_row += 1
        if piv_row == nrows:
            break
    return piv_row


def stable_power(m: IntMatrix) -> tuple[Optional[IntMatrix], int]:
    """(m^j, rank(m^j)) for the first j >= 0 at which rank(m^j) = rank(m^(j+1)); j <= n.

    m^0 = I_n is returned as None: it is never built, and its rank n needs no
    elimination.  The first candidate is m itself, and each rank is computed once.
    """
    if not m.is_square():
        raise NotSquare(f"stable_power needs a square matrix, got {m.shape}")
    p, r, nxt = None, m.rows, m
    while True:
        r_next = rank(nxt)
        if r_next == r:
            return p, r
        p, r, nxt = nxt, r_next, multiply(m, nxt)
