"""Exact dense linear algebra over prime fields.

Matrices carry int64 residues in [0, p) with p < 2^31, so the product of two
residues is below (p - 1)^2 < 2^62.  One routine, `_echelon`, does all
elimination: it scans columns left to right, takes the first nonzero entry at
or below the current row as pivot, scales the pivot row to 1, and clears the
column only in the rows below that have a nonzero there.  Updating only the
live rows is what keeps the sparse maps, such as the socle-degree probes
(under 1% nonzero), cheap.  Not every oracle map is sparse: multiplication by
f^30 on the box (20, 20, 20, 20) from degree 23 is 2,520 x 2,520, 51% nonzero.

Large updates are not reduced mod p when they are made (delayed reduction, as
in Dumas-Giorgi-Pernet's FFLAS-FFPACK).  Each update subtracts a product of
two residues, at most (p - 1)^2, so after k updates since the last full
reduction every entry lies in [-k (p - 1)^2, p), and it is exact in int64
while p + k (p - 1)^2 < 2^63.  The entries that decide anything (the pivot
column at and below the current row, and the pivot row) are reduced before
they are read, so pivots and pivot rows are those of reducing every step.

`rank` counts the pivots.  `kernel_witness` back-substitutes on the same
echelon form, reducing each product mod p before summing, and returns the
pivot count of that one elimination as the rank: a caller that wants both
the rank and a witness of one matrix eliminates it once.  Both eliminate a
copy, so the caller's matrix never holds unreduced values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modp import check_prime

# An update block of at least this many cells is left unreduced.  Deferring
# costs two extra `%` calls per later column (the pivot column and the pivot
# row); below this size one `%` over the block is cheaper than that.  Timed
# on every matrix the perfbench workloads eliminate at seed 0: at 1024 the
# 0.6%-dense socle matrices begin to defer and slow down, and at 4096 the
# dense witness matrices lose about a third of the gain.
_DEFER_CELLS = 2048


@dataclass(frozen=True)
class MatrixFp:
    """Dense matrix over F_p, entries stored row-major as int64 residues."""

    data: np.ndarray
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_prime(self.p))
        a = self.data
        if a.ndim != 2 or a.dtype != np.int64:
            raise ValueError("MatrixFp wants a 2-d int64 array")
        if a.size and (a.min() < 0 or a.max() >= self.p):
            raise ValueError("entries must be reduced residues in [0, p)")

    @classmethod
    def _trusted(cls, data: np.ndarray, p: int) -> "MatrixFp":
        """Wrap a 2-d int64 array of residues in [0, p) for a prime int p
        the caller has checked, without checking either again."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "data", data)
        object.__setattr__(mat, "p", p)
        return mat

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Reduce `a` in place to row echelon form; return the pivot columns.

    Row i of the result has a 1 in column pivots[i] and zeros to its left;
    rows from len(pivots) on are zero, and every entry is a residue in [0, p).

    An update of at least `_DEFER_CELLS` cells is stored without `% p`, and
    `pending` counts those updates since the trailing rows were last reduced.
    Each subtracts reduced column entries times the reduced pivot row, at most
    (p - 1)^2 per entry, so every entry stays in [-pending (p - 1)^2, p).
    Before an update that would make pending exceed
    (2^63 - 1 - p) // (p - 1)^2, the trailing rows are reduced, so
    p + pending (p - 1)^2 < 2^63 and no int64 step overflows.

    Every entry is congruent mod p to the one reduce-every-step elimination
    holds at the same point.  While updates are pending, the pivot column at
    and below the current row is reduced before the pivot is chosen, and the
    pivot row before it is scaled.  So the pivot, the rows updated and the
    pivot row are exactly those of reduce-every-step elimination, and the
    other rows end exactly zero, as each column below its row is reduced (or
    cleared) to 0 before the scan moves on.

    Smaller updates are reduced when made: while anything is pending, each
    later column pays the two extra `%` calls, which on small or very sparse
    blocks cost more than one `%` over the block saves.
    """
    m, n = a.shape
    limit = (2**63 - 1 - p) // (p - 1) ** 2
    pending = 0
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        if pending:
            a[r:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if pending:
            a[r, c:] %= p
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        # after the swap the nonzeros below the pivot are the rest of nz
        if nz.size > 1:
            if pending == limit:
                a[r + 1:, c:] %= p
                pending = 0
            rows = r + nz[1:]
            update = np.outer(a[rows, c], a[r, c:])
            if update.size >= _DEFER_CELLS:
                a[rows, c:] -= update
                pending += 1
            else:
                a[rows, c:] = (a[rows, c:] - update) % p
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
