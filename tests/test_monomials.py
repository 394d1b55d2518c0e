import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonkoszul.monomials import _hilbert_cached, slice_array


def brute_count(caps, degree):
    return sum(1 for expo in itertools.product(*(range(c) for c in caps))
               if sum(expo) == degree)


def top_degree(caps):
    return len(_hilbert_cached(caps)) - 1


def test_top_degree():
    assert top_degree((3, 3)) == 4
    assert top_degree((1,)) == 0
    assert top_degree((4, 4, 4, 4, 5)) == 16


def test_hilbert_matches_enumeration():
    for caps in [(2, 2), (3, 4), (2, 3, 4), (5, 5, 5)]:
        values = _hilbert_cached(caps)
        assert len(values) == sum(c - 1 for c in caps) + 1
        for j, v in enumerate(values):
            assert v == brute_count(caps, j)


def test_hilbert_of_large_square_box():
    values = _hilbert_cached((100000, 100000))
    assert len(values) == 199999
    assert all(v == min(j + 1, 199999 - j) for j, v in enumerate(values))


@settings(max_examples=200)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_hilbert_matches_convolution(caps):
    values = np.ones(1, dtype=np.int64)
    for c in caps:
        values = np.convolve(values, np.ones(c, dtype=np.int64))
    assert _hilbert_cached(tuple(caps)) == tuple(int(v) for v in values)


def test_hilbert_is_exact_past_int64():
    # pieces of (100,) * 12 reach 3.9e21 monomials and those of (20,) * 30
    # pass 2^63 too; each degree matches inclusion-exclusion over the
    # coordinates at or above the cap, in Python ints
    for c, m in ((100, 12), (20, 30)):
        values = _hilbert_cached((c,) * m)
        assert max(values) > 2 ** 63
        assert values == tuple(
            sum((-1) ** k * comb(m, k) * comb(j - k * c + m - 1, m - 1)
                for k in range(j // c + 1))
            for j in range(m * (c - 1) + 1))


def test_hilbert_symmetric_in_caps():
    assert _hilbert_cached((3, 4, 5)) == _hilbert_cached((5, 3, 4))


def test_hilbert_palindromic():
    values = _hilbert_cached((4, 6, 3))
    assert values == values[::-1]


def test_hilbert_known_peak():
    # box with caps (4,4,4,4,5): the value at degree 8 exceeds the one at 9
    values = _hilbert_cached((4, 4, 4, 4, 5))
    assert values[8] == 186
    assert values[9] == 175


def test_slice_is_descending_lex():
    arr = slice_array((3, 3, 3), 3)
    rows = [tuple(row) for row in arr]
    assert rows == sorted(rows, reverse=True)
    assert len(rows) == brute_count((3, 3, 3), 3)


def test_slice_rows_respect_caps():
    arr = slice_array((2, 4), 3)
    for row in arr:
        assert all(0 <= e < c for e, c in zip(row, (2, 4)))
        assert sum(row) == 3


def test_slice_empty_outside_range():
    assert len(slice_array((2, 2), 5)) == 0
    assert len(slice_array((2, 2), -1)) == 0


@settings(max_examples=60)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 12))
def test_slice_count_equals_hilbert(caps, degree):
    caps = tuple(caps)
    values = _hilbert_cached(caps)
    expected = values[degree] if degree < len(values) else 0
    assert len(slice_array(caps, degree)) == expected


def test_slice_array_is_readonly():
    arr = slice_array((3, 3), 2)
    with pytest.raises(ValueError):
        arr[0, 0] = 9
