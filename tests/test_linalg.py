import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonkoszul import linalg
from nonkoszul.linalg import MatrixFp, _echelon, kernel_witness, rank
from nonkoszul.oracle import mult_map

P31 = 2**31 - 1   # the largest prime the package accepts


def from_rows(rows, p):
    return MatrixFp(np.array(rows, dtype=np.int64) % p, p)


def random_matrix(rng, rows, cols, p, target_rank=None):
    if target_rank is None:
        data = rng.integers(0, p, size=(rows, cols))
    else:
        left = rng.integers(0, p, size=(rows, target_rank))
        right = rng.integers(0, p, size=(target_rank, cols))
        if target_rank * (p - 1) ** 2 >= 2**63:
            # the int64 product would overflow; Python ints stay exact
            left, right = left.astype(object), right.astype(object)
        data = (left @ right) % p
    return MatrixFp(np.asarray(data, dtype=np.int64), p)


def assert_kernel_vector(m, v):
    """v is a nonzero reduced kernel vector of m, checked in Python ints
    because m.data @ v can overflow int64 for p near 2^31."""
    assert v is not None
    vec = np.asarray(v, dtype=object)
    assert vec.shape == (m.cols,)
    assert any(x != 0 for x in vec)
    assert all(0 <= x < m.p for x in vec)
    assert not np.any((m.data.astype(object) @ vec) % m.p)


def rank_by_rref_over_rationals(data, p):
    # slow but independent: Gaussian elimination with exact Fractions on
    # lifted residues, pivoting mod p at every step
    from fractions import Fraction
    a = [[Fraction(int(x) % p) for x in row] for row in data]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] % p != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(int(a[r][c]) % p, -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] % p != 0:
                f = a[i][c] % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixFp(np.zeros((2, 2), dtype=np.int64), 4)
    with pytest.raises(ValueError):
        MatrixFp(np.zeros(3, dtype=np.int64), 5)
    with pytest.raises(ValueError):
        MatrixFp(np.full((2, 2), 7, dtype=np.int64), 5)
    with pytest.raises(ValueError):
        MatrixFp(np.zeros((2, 2), dtype=np.float64), 5)


def test_matrix_shape_and_prime():
    m = from_rows([[1, 2], [3, 4]], 5)
    assert m.rows == 2 and m.cols == 2
    assert m.p == 5
    empty = MatrixFp(np.zeros((0, 4), dtype=np.int64), 3)
    assert empty.rows == 0 and empty.cols == 4


def test_rank_small_known():
    m = from_rows([[1, 2], [2, 4]], 5)
    assert rank(m) == 1
    assert m.cols - rank(m) == 1
    m = from_rows([[1, 0], [0, 1]], 5)
    assert rank(m) == 2


def test_rank_zero_and_empty():
    assert rank(from_rows([[0, 0], [0, 0]], 3)) == 0
    empty = MatrixFp(np.zeros((0, 4), dtype=np.int64), 3)
    assert rank(empty) == 0
    assert kernel_witness(empty) == (0, (0, 0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.sampled_from([2, 3, 5, 13]),
       st.integers(0, 2**31 - 1))
def test_rank_agrees_with_rational_elimination(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, rows, cols, p)
    assert rank(m) == rank_by_rref_over_rationals(m.data, p)


def test_rank_across_shapes():
    # row rank equals column rank, and a product through tr columns has
    # rank at most tr
    rng = np.random.default_rng(20240517)
    for p in (2, 3, 5, 101, P31):
        for rows, cols in [(1, 200), (200, 1), (130, 260), (300, 140),
                           (257, 257)]:
            tr = int(rng.integers(0, min(rows, cols) + 1))
            m = random_matrix(rng, rows, cols, p, target_rank=tr)
            r = rank(m)
            assert r == rank(MatrixFp(np.ascontiguousarray(m.data.T), p))
            assert r <= tr


def test_kernel_witness_at_large_prime():
    # residues near 2^31 make every product of two entries close to 2^62, so
    # back-substitution must reduce each product before it sums them
    rng = np.random.default_rng(7)
    mats = [random_matrix(rng, rows, cols, P31, target_rank=tr)
            for rows, cols, tr in [(5, 9, 3), (12, 12, 7), (40, 40, 17),
                                   (20, 30, 15), (30, 20, 20)]]
    mats += [mult_map((3, 3, 3, 3), deg, 3, P31) for deg in range(9)]
    for m in mats:
        r, v = kernel_witness(m)
        assert r == rank(m)
        if r == m.cols:
            assert v is None
        else:
            assert_kernel_vector(m, v)


def test_kernel_witness_none_for_full_column_rank():
    m = from_rows([[1, 0], [0, 1], [1, 1]], 3)
    assert kernel_witness(m) == (2, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([2, 3, 7, P31]),
       st.integers(0, 2**31 - 1))
def test_kernel_witness_is_a_kernel_vector(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, rows, cols, p)
    r, v = kernel_witness(m)
    # the rank comes from the witness's own elimination
    assert r == rank(m) == rank_by_rref_over_rationals(m.data, p)
    if m.cols - r == 0:
        assert v is None
    else:
        assert_kernel_vector(m, v)


def test_kernel_witness_on_wide_blocked_sizes():
    rng = np.random.default_rng(99)
    for p in (2, 5):
        m = random_matrix(rng, 150, 300, p, target_rank=140)
        r, v = kernel_witness(m)
        assert r == rank(m)
        assert_kernel_vector(m, v)


def echelon_reducing_every_step(a, p):
    """Reference elimination: the same pivot rule with `% p` on every update.
    Returns the pivot columns and how many updates had at least
    `linalg._DEFER_CELLS` cells, the ones `_echelon` leaves unreduced."""
    m, n = a.shape
    pivots, deferred = [], 0
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        below = a[r + 1:, c]
        live = np.nonzero(below)[0]
        if live.size:
            rows = r + 1 + live
            a[rows, c:] = (a[rows, c:] - np.outer(below[live], a[r, c:])) % p
            deferred += live.size * (n - c) >= linalg._DEFER_CELLS
        pivots.append(c)
    return pivots, deferred


def test_echelon_matches_reducing_every_step():
    # pivots and pivot rows equal the reference's byte for byte, on dense,
    # sparse and low-rank matrices; at 1073741789 and 2^31 - 1 at most 8 and
    # 2 unreduced updates fit in int64, so the dense matrices there force
    # the trailing rows to be reduced mid-elimination
    rng = np.random.default_rng(20261019)
    cases = []
    for p in (2, 3, 8191, 8388617, 1073741789, P31):
        for rows, cols in [(150, 150), (140, 90), (70, 150)]:
            cases.append((rng.integers(0, p, size=(rows, cols)), p, True))
            mask = rng.random((rows, cols)) < 0.04
            cases.append((np.where(mask, rng.integers(1, p, size=mask.shape),
                                   0), p, False))
            tr = int(rng.integers(1, min(rows, cols)))
            cases.append((random_matrix(rng, rows, cols, p, tr).data, p,
                          False))
    for caps, src, power, p in [((4,) * 6, 7, 4, 8388617),
                                ((5,) * 5, 8, 5, 8191),
                                ((5,) * 5, 5, 8, 8191)]:
        cases.append((mult_map(caps, src, power, p).data, p, False))
    for data, p, dense in cases:
        ref = data.astype(np.int64)
        pivots, deferred = echelon_reducing_every_step(ref, p)
        if dense:
            assert deferred > 8
        a = data.astype(np.int64)
        assert _echelon(a, p) == pivots
        assert np.array_equal(a[:len(pivots)], ref[:len(pivots)])


def test_rank_and_witness_leave_the_matrix_untouched():
    # elimination holds unreduced values mid-way, but only in its own copy
    rng = np.random.default_rng(3)
    for p in (8191, P31):
        m = random_matrix(rng, 120, 100, p)
        before = m.data.copy()
        assert rank(m) == kernel_witness(m)[0] == 100
        assert np.array_equal(m.data, before)
