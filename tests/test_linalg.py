import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afk.linalg import DimensionMismatch, IntMatrix, NotSquare, multiply, rank, stable_power
from cases import identity
from oracles import naive_rank


def M(rows):
    return IntMatrix.from_rows(rows)


def columns(vectors):
    """The matrix whose column space is span(vectors)."""
    return M([list(col) for col in zip(*vectors)])


def within(a, b):
    """Column space of a inside column space of b: appending a keeps the rank."""
    return rank(M([ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())])) == rank(b)


def eventual_rank(m):
    return stable_power(m)[1]


def test_rank_invertible_triangular():
    assert rank(M([[1, 0], [1, 1]])) == 2


def test_rank_equal_rows():
    assert rank(M([[1, 1], [1, 1]])) == 1


def test_rank_worked_connecting_matrix():
    # expected value 3 frozen from the naive elimination oracle below
    mat = [[1, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 2]]
    assert naive_rank(mat) == 3
    assert rank(M(mat)) == 3


def test_rank_degenerate_shapes():
    assert rank(IntMatrix(0, 0, (0,) * 0)) == 0
    assert rank(IntMatrix(3, 0, (0,) * 0)) == 0
    assert rank(IntMatrix(0, 3, (0,) * 0)) == 0
    assert rank(IntMatrix(2, 5, (0,) * 10)) == 0


def test_multiply_identity():
    phi = M([[1, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 2]])
    assert multiply(identity(4), phi) == phi
    assert multiply(phi, identity(3)) == phi


def test_multiply_hand_example():
    a = M([[1, 0], [1, 1]])
    assert multiply(a, a) == M([[1, 0], [2, 1]])


def test_multiply_shape_error():
    with pytest.raises(DimensionMismatch):
        multiply(M([[1, 2]]), M([[1, 2]]))


def test_eventual_rank_nilpotent():
    assert eventual_rank(M([[0, 1], [0, 0]])) == 0


def test_eventual_rank_invertible():
    assert eventual_rank(M([[1, 0], [1, 1]])) == 2
    assert stable_power(M([[1, 0], [1, 1]])) == (None, 2)  # m^0 = I_2, never built


def test_eventual_rank_idempotent_like():
    # rank([[1,1],[1,1]]^2) = 1, computed by hand
    assert eventual_rank(M([[1, 1], [1, 1]])) == 1


def test_eventual_rank_rejects_rectangular():
    with pytest.raises(NotSquare):
        stable_power(IntMatrix(2, 3, (0,) * 6))


def test_eventual_rank_empty():
    assert eventual_rank(IntMatrix(0, 0, (0,) * 0)) == 0


def test_eventual_rank_equals_rank_of_nth_power():
    # the colimit needs more than rank(P) = rank(m^n): P.x must also have
    # the rank of m^n.x for every x.  A power of None is m^0 = I_n.
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        powers = [identity(n)]
        for _ in range(n + 1):
            powers.append(multiply(m, powers[-1]))
        power, r = stable_power(m)
        plain = identity(n) if power is None else power
        j = powers.index(plain)  # P = m^j
        assert j <= n and (power is None) == (j == 0)
        assert j == min(i for i in range(n + 1) if rank(powers[i]) == rank(powers[i + 1]))
        if power is not None:
            assert r == rank(power)
        width = rng.randint(1, 3)
        x = M([[rng.randint(-2, 2) for _ in range(width)] for _ in range(n)])
        assert r == rank(powers[n])
        assert rank(multiply(plain, x)) == rank(multiply(powers[n], x))


def test_image_through_identity_and_zero():
    s = columns([[1, 0], [0, 1]])
    assert multiply(identity(2), s) == s
    assert rank(multiply(IntMatrix(3, 2, (0,) * 6), s)) == 0


def test_image_through_shear():
    out = multiply(M([[1, 0], [1, 1]]), columns([[1, 0]]))
    assert out == columns([[1, 1]])


def test_subspace_canonical_equality():
    a = columns([[2, 4, 0], [0, 0, 5]])
    b = columns([[1, 2, 5], [0, 0, 1]])
    assert within(a, b) and within(b, a)
    assert rank(a) == 2


def test_subspace_contains():
    s = columns([[1, 0, 1], [0, 1, 1]])
    assert within(columns([[1, 1, 2]]), s)
    assert not within(columns([[1, 1, 0]]), s)
    assert within(columns([[0, 0, 0]]), s)


def test_rank_is_exact_beyond_float_precision():
    # both rows agree to 64 bits; the first determinant is -1
    big = 2**64
    assert rank(M([[big + 1, big], [big, big - 1]])) == 2
    assert rank(M([[big, big + 1], [2 * big, 2 * big + 2]])) == 1


def test_rank_agrees_with_naive_oracle_on_1000_random_matrices():
    rng = random.Random(20240517)
    for _ in range(1000):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(M(rows)) == naive_rank(rows)


def _matrix_strategy(rows, cols):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@settings(max_examples=200)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda dims: st.tuples(
            _matrix_strategy(dims[0], dims[1]), _matrix_strategy(dims[1], dims[2])
        )
    )
)
def test_rank_of_product_bounded_by_factors(ab):
    a = M(ab[0])
    b = M(ab[1])
    assert rank(multiply(a, b)) <= min(rank(a), rank(b))


@settings(max_examples=200)
@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=2, max_size=4),
)
def test_image_through_monotone(small, extra, mat_rows):
    s = columns(small)
    t = columns(small + extra)
    assert within(s, t)
    m = M(mat_rows)
    assert within(multiply(m, s), multiply(m, t))


def test_operations_are_pure():
    rows = [[3, -1, 2], [0, 4, 4], [3, 3, 6]]
    m = M(rows)
    r1 = rank(m)
    r2 = rank(m)
    assert r1 == r2
    assert m == M(rows)


def _random_entry(rng):
    """Small entries mostly, some beyond 2**64 (either sign)."""
    if rng.random() < 0.3:
        return rng.choice((-1, 1)) * (2**64 + rng.randrange(2**70))
    return rng.randint(-3, 3)


def test_multiply_matches_naive_loops():
    rng = random.Random(4423)
    shapes = set()
    for _ in range(400):
        n, k, p = (rng.randint(0, 4) for _ in range(3))
        shapes.add((n, k, p))
        a = [[_random_entry(rng) for _ in range(k)] for _ in range(n)]
        b = [[_random_entry(rng) for _ in range(p)] for _ in range(k)]
        got = multiply(IntMatrix(n, k, tuple(x for r in a for x in r)), IntMatrix(k, p, tuple(x for r in b for x in r)))
        assert got.shape == (n, p)
        assert got.entries == tuple(
            sum(a[i][t] * b[t][j] for t in range(k)) for i in range(n) for j in range(p)
        )
    assert any(0 in s for s in shapes) and any(0 not in s for s in shapes)


def test_submatrix_matches_naive_loops():
    rng = random.Random(2005)
    for _ in range(400):
        n, k = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[_random_entry(rng) for _ in range(k)] for _ in range(n)]
        m = IntMatrix(n, k, tuple(x for r in rows for x in r))
        row_idx = sorted(rng.sample(range(n), rng.randint(0, n)))
        col_idx = sorted(rng.sample(range(k), rng.randint(0, k)))
        sub = m.submatrix(row_idx, col_idx)
        assert sub.shape == (len(row_idx), len(col_idx))
        assert sub.entries == tuple(rows[i][j] for i in row_idx for j in col_idx)
