"""Rank oracles on monomial complete intersections.

Everything here is computed directly from multiplication matrices between
graded slices, with no closed formulas involved, so these routines serve as
the independent yardstick for the formula layer.  The central quantity is the
minimal degree of a non-Koszul relation on x_1^{d_1}, ..., x_n^{d_n}, f^{d_{n+1}}
with f = x_1 + ... + x_n: equivalently the least j such that multiplication by
f^{d_{n+1}} from degree j - d_{n+1} to degree j in the box quotient has a
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import MatrixFp, kernel_witness, rank
from .modp import check_prime, multinomial_mod
from .monomials import _hilbert_cached, _slice_cached, check_box


def _strides(caps: tuple[int, ...]) -> np.ndarray:
    m = len(caps)
    s = np.ones(m, dtype=np.int64)
    for i in range(m - 2, -1, -1):
        s[i] = s[i + 1] * caps[i + 1]
    return s


@lru_cache(maxsize=4096)
def _power_terms(caps: tuple[int, ...], power: int, p: int):
    """Monomials of f^power that survive both mod p and the box, with their
    multinomial coefficients.  Shared across all source degrees of a box."""
    comps = _slice_cached(caps, power)
    keep: list[int] = []
    coeffs: list[int] = []
    for idx, row in enumerate(comps):
        c = multinomial_mod(power, tuple(int(x) for x in row), p)
        if c:
            keep.append(idx)
            coeffs.append(c)
    return comps[keep], tuple(coeffs)


def _shift_matrix(caps: tuple[int, ...], src_degree: int, degree: int,
                  comps, coeffs, p: int) -> MatrixFp:
    """Matrix of multiplication by sum(coeff * x^comp), every comp of total
    degree `degree`, from the degree src_degree slice of the box to the degree
    src_degree + degree slice.  Terms that leave the box contribute nothing."""
    src = _slice_cached(caps, src_degree)
    tgt = _slice_cached(caps, src_degree + degree)
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    if len(src) and len(tgt):
        caps_arr = np.array(caps, dtype=np.int64)
        strides = _strides(caps)
        code_to_row = np.full(int(np.prod(caps_arr)), -1, dtype=np.int64)
        code_to_row[tgt @ strides] = np.arange(len(tgt), dtype=np.int64)
        src_codes = src @ strides
        # room[i, k]: how far source monomial k may grow in variable i
        room = np.ascontiguousarray((caps_arr - src).T)
        for comp, coeff in zip(comps, coeffs):
            ok = np.nonzero((room > comp[:, None]).all(axis=0))[0]
            if ok.size:
                mat[code_to_row[src_codes[ok] + comp @ strides], ok] = coeff
    return MatrixFp(mat, p)


def mult_map(caps, src_degree: int, power: int, p: int) -> MatrixFp:
    """Matrix of multiplication by (x_1 + ... + x_m)^power from the degree
    src_degree slice to the degree src_degree + power slice of the box.

    Rows follow the target basis, columns the source basis, both in the fixed
    descending lex order.  A negative src_degree gives an empty source.
    """
    caps = check_box(caps)
    check_prime(p)
    if power < 0:
        raise ValueError("power must be nonnegative")
    return _shift_matrix(caps, src_degree, power,
                         *_power_terms(caps, power, p), p)


@dataclass(frozen=True)
class KernelWitness:
    """Kernel vector of the decisive multiplication map, in basis coordinates."""

    box: tuple[int, ...]
    degree: int
    coefficients: tuple[int, ...]

    def terms(self) -> list[str]:
        """Nonzero terms as strings like '2*x1^3*x2', in basis order."""
        basis = _slice_cached(self.box, self.degree)
        out = []
        for coeff, expo in zip(self.coefficients, basis):
            if coeff == 0:
                continue
            factors = [str(int(coeff))]
            factors += [f"x{i + 1}^{int(e)}" if e > 1 else f"x{i + 1}"
                        for i, e in enumerate(expo) if e > 0]
            out.append("*".join(factors))
        return out


@dataclass(frozen=True)
class EResult:
    """Minimal non-Koszul relation degree plus how it was obtained."""

    value: int
    method: str           # one of: char0, base, main, han, oracle
    degenerate: bool      # last power exceeds the box top degree
    witness: KernelWitness | None = None

    def to_dict(self) -> dict:
        doc = {"value": self.value, "method": self.method,
               "degenerate": self.degenerate, "witness": None}
        if self.witness is not None:
            doc["witness"] = {"degree": self.witness.degree,
                              "terms": self.witness.terms()}
        return doc


def _degenerate(d: tuple[int, ...]) -> bool:
    """d_last exceeds the top degree of the box d[:-1], so f^{d_last} is 0."""
    return d[-1] > sum(x - 1 for x in d[:-1])


def _dimension_bound(H: tuple[int, ...], t: int) -> int:
    """Least source degree i where a map of degree t on a box with Hilbert
    function H must have a kernel: H[i] > H[i + t], with H zero past its top
    degree len(H) - 1.  At most that top degree, where H is 1."""
    return next(i for i, h in enumerate(H) if i + t >= len(H) or h > H[i + t])


def e_degree_oracle(p: int, d, want_witness: bool = True) -> EResult:
    """Least degree of a kernel element of x f^{d_last} on the box d[:-1].

    Let power = d_last, H the Hilbert function of the box and `top` its top
    degree.  U = `_dimension_bound(H, power)` is the least source degree i
    with H[i] > H[i + power] (H zero above top), so U <= top and the map from
    source degree U has a kernel by dimension count.  Kernels persist upward:
    a nonzero g of degree s < top with f^power g = 0 is not in the socle,
    which is spanned by the single monomial x^{c-1} in degree top, so
    x_i g != 0 for some i, and f^power x_i g = 0 in degree s + 1.  Hence the
    scan runs down from source degree U - 1, one rank per degree, while the
    map has a kernel.  With i the lowest source degree found to have a
    kernel (0 if all do, as source degree -1 is empty), the answer is
    d_last + i.  The witness (when requested) comes from one exact
    elimination on the map from source degree i.
    """
    check_prime(p)
    d = check_box(d)
    if len(d) == 1:
        # no box variables at all: f = 0 and f^{d_1} = 0 is itself a relation
        return EResult(value=d[0], method="oracle", degenerate=True, witness=None)
    caps, power = d[:-1], d[-1]
    H = _hilbert_cached(caps)
    i = _dimension_bound(H, power)
    while i > 0 and rank(mult_map(caps, i - 1, power, p)) < H[i - 1]:
        i -= 1
    wit = None
    if want_witness:
        vec = kernel_witness(mult_map(caps, i, power, p))
        wit = KernelWitness(box=caps, degree=i, coefficients=vec)
    return EResult(value=power + i, method="oracle",
                   degenerate=_degenerate(d), witness=wit)


@dataclass(frozen=True)
class WlpRecord:
    degree: int
    dim_source: int
    dim_target: int
    rank: int

    @property
    def maximal(self) -> bool:
        return self.rank == min(self.dim_source, self.dim_target)


@dataclass(frozen=True)
class WlpReport:
    p: int
    box: tuple[int, ...]
    records: tuple[WlpRecord, ...]
    verdict: bool

    def to_dict(self) -> dict:
        return {"p": self.p, "d": list(self.box), "verdict": self.verdict,
                "profile": [{"degree": r.degree, "dim_source": r.dim_source,
                             "dim_target": r.dim_target, "rank": r.rank,
                             "maximal": r.maximal} for r in self.records]}


def wlp_rank_profile(p: int, d) -> WlpReport:
    """Ranks of multiplication by x_1 + ... + x_m in every degree of the box d.

    The verdict is True when every map has maximal rank, i.e. the quotient has
    the weak Lefschetz property in characteristic p.
    """
    caps = check_box(d)
    check_prime(p)
    H = _hilbert_cached(caps)
    top = len(H) - 1
    records = []
    ok = True
    for i in range(top):
        r = rank(mult_map(caps, i, 1, p))
        rec = WlpRecord(degree=i, dim_source=H[i], dim_target=H[i + 1], rank=r)
        ok = ok and rec.maximal
        records.append(rec)
    return WlpReport(p=p, box=caps, records=tuple(records), verdict=ok)


def socle_degree_oracle(p: int, K, a: int) -> int:
    """Top nonzero degree of the box quotient A on caps K cut further by the
    diagonal form g = x_1^a + ... + x_m^a.

    Let H be the Hilbert function of A (zero above its top degree `top`) and
    U = `_dimension_bound(H, a)`, the least i with H[i] > H[i + a]; U <= top,
    as H[top] = 1.  Then x g : A_U -> A_{U+a} has a kernel by dimension
    count.  A is Gorenstein with socle x^{c-1} in degree top, so
    A_i x A_{top-i} -> A_top is a perfect pairing, under which x g from
    A_{j-a} to A_j is the transpose of x g from A_{top-j} to A_{top-j+a}.
    So A/(g) is nonzero in degree top - U, and the top degree lies in
    [top - U, top].  Vanishing of a graded piece of A/(g) propagates upward,
    so binary search finds it, one rank per probe.  Every probe degree is at
    least a: if a <= top, then i = top + 1 - a qualifies, so
    U <= top + 1 - a and each probe exceeds top - U >= a - 1; otherwise
    U = 0 and nothing is probed.
    """
    caps = check_box(K)
    check_prime(p)
    a = int(a)
    if a < 1:
        raise ValueError("exponent a must be positive")
    H = _hilbert_cached(caps)
    top = len(H) - 1
    # x_1^a + ... + x_m^a: one unit-coefficient shift per variable
    comps = a * np.eye(len(caps), dtype=np.int64)
    coeffs = (1,) * len(caps)
    U = _dimension_bound(H, a)
    lo, hi = top - U, top + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rank(_shift_matrix(caps, mid - a, a, comps, coeffs, p)) < H[mid]:
            lo = mid
        else:
            hi = mid
    return lo

