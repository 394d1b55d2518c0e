"""Graded monomial bases of monomial complete intersections and their Hilbert functions.

A "box" (d_1, ..., d_m) stands for the quotient k[x_1..x_m]/(x_1^{d_1}, ..., x_m^{d_m});
its degree-j basis is the set of exponent vectors a with 0 <= a_i <= d_i - 1 and
sum(a) = j.  The basis order is fixed globally (descending lexicographic, x_1 major)
so every matrix and witness built on top is reproducible.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .modp import _as_int


def check_box(caps: Sequence[int]) -> tuple[int, ...]:
    """Validate exponent caps or degrees (all >= 1) and return them as a tuple."""
    caps = tuple(map(_as_int, caps))
    if not caps:
        raise ValueError("need at least one exponent")
    if any(c < 1 for c in caps):
        raise ValueError(f"exponents must be positive, got {caps}")
    return caps


@lru_cache(maxsize=4096)
def _hilbert_cached(caps: tuple[int, ...]) -> tuple[int, ...]:
    # times 1 + x + ... + x^{c-1}: running sums over a window of width c, in
    # Python ints, so no piece wraps however large
    values = [1]
    for c in caps:
        values = list(accumulate(values + [0] * (c - 1)))
        values[c:] = map(operator.sub, values[c:], values)
    return tuple(values)


def _extend(prefix: list[int], caps: tuple[int, ...], pos: int, left: int,
            tails: tuple[int, ...], out: list[tuple[int, ...]]) -> None:
    if pos == len(caps) - 1:
        if left <= caps[pos] - 1:
            out.append(tuple(prefix + [left]))
        return
    hi = min(caps[pos] - 1, left)
    lo = max(0, left - tails[pos + 1])
    for a in range(hi, lo - 1, -1):
        prefix.append(a)
        _extend(prefix, caps, pos + 1, left - a, tails, out)
        prefix.pop()


@lru_cache(maxsize=4096)
def _slice_cached(caps: tuple[int, ...], degree: int) -> np.ndarray:
    m = len(caps)
    if degree < 0 or degree > sum(c - 1 for c in caps):
        return np.zeros((0, m), dtype=np.int64)
    # tails[i] = top degree available from position i on
    tails = tuple(sum(c - 1 for c in caps[i:]) for i in range(m)) + (0,)
    out: list[tuple[int, ...]] = []
    _extend([], caps, 0, degree, tails, out)
    arr = np.array(out, dtype=np.int64) if out else np.zeros((0, m), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def slice_array(caps: Sequence[int], degree: int) -> np.ndarray:
    """Degree slice as a read-only (count, m) int64 array, rows in descending lex order."""
    return _slice_cached(check_box(caps), _as_int(degree))
