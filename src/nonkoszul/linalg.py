"""Exact dense linear algebra over prime fields.

Matrices carry int64 residues in [0, p) with p < 2^31, so the product of two
residues stays below 2^62 and every step of elimination is exact in int64.
One routine, `_echelon`, does all elimination: it scans columns left to
right, takes the first nonzero entry at or below the current row as pivot,
scales the pivot row to 1, and clears the column only in the rows below that
have a nonzero there.  The oracles build structured multiplication maps, and
updating only the live rows keeps them sparse; on them this beats panelled
float64 elimination with BLAS products.  BLAS would win on unstructured dense
random matrices, which no oracle builds.

`rank` counts the pivots.  `kernel_witness` back-substitutes on the same
echelon form, reducing each product mod p before summing, and returns the
pivot count of that one elimination as the rank: a caller that wants both
the rank and a witness of one matrix eliminates it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modp import check_prime


@dataclass(frozen=True)
class MatrixFp:
    """Dense matrix over F_p, entries stored row-major as int64 residues."""

    data: np.ndarray
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", int(self.p))
        check_prime(self.p)
        a = self.data
        if a.ndim != 2 or a.dtype != np.int64:
            raise ValueError("MatrixFp wants a 2-d int64 array")
        if a.size and (a.min() < 0 or a.max() >= self.p):
            raise ValueError("entries must be reduced residues in [0, p)")

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Reduce `a` in place to row echelon form; return the pivot columns.

    Row i of the result has a 1 in column pivots[i] and zeros to its left.
    """
    m, n = a.shape
    pivots: list[int] = []
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
        pivots.append(c)
    return pivots


def rank(mat: MatrixFp) -> int:
    """Rank of the matrix over F_p."""
    return len(_echelon(mat.data.copy(), mat.p))


def kernel_witness(mat: MatrixFp) -> tuple[int, tuple[int, ...] | None]:
    """Rank and one nonzero kernel vector (None if the matrix is injective),
    both from a single elimination.

    Deterministic choice: eliminate to echelon form, set the last non-pivot
    column to 1 and every other free column to 0, then back-substitute.
    """
    p = mat.p
    a = mat.data.copy()
    pivots = _echelon(a, p)
    pivot_cols = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_cols]
    if not free:
        return len(pivots), None
    v = np.zeros(mat.cols, dtype=np.int64)
    v[free[-1]] = 1
    for row, c in reversed(list(enumerate(pivots))):
        # each product is reduced below p first, so the sum fits in int64
        s = int((a[row, c + 1:] * v[c + 1:] % p).sum())
        v[c] = (-s) % p
    return len(pivots), tuple(int(x) for x in v)
