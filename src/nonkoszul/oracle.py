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
from .monomials import check_box, hilbert_function, slice_array, top_degree


class IndependenceError(RuntimeError):
    """Raised if the ascending degree scan finds no kernel (should not happen
    for valid inputs; kept as a guard against silent wrong answers)."""


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
    comps = slice_array(caps, power)
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
    src = slice_array(caps, src_degree)
    tgt = slice_array(caps, src_degree + degree)
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
        basis = slice_array(self.box, self.degree)
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


def e_degree_oracle(p: int, d, want_witness: bool = True) -> EResult:
    """Least degree of a kernel element of x f^{d_last} on the box d[:-1].

    Scans degrees upward from d_last with early exit.  The kernel test is a
    rank computation; the witness (when requested) comes from one exact
    elimination on the decisive matrix.
    """
    check_prime(p)
    d = tuple(int(x) for x in d)
    if not d:
        raise ValueError("need at least one degree")
    if any(x < 1 for x in d):
        raise ValueError(f"degrees must be positive, got {d}")
    if len(d) == 1:
        # no box variables at all: f = 0 and f^{d_1} = 0 is itself a relation
        return EResult(value=d[0], method="oracle", degenerate=True, witness=None)
    caps = d[:-1]
    power = d[-1]
    H = hilbert_function(caps)
    top = top_degree(caps)
    for j in range(power, top + power + 1):
        src_dim = H[j - power]
        tgt_dim = H[j] if j <= top else 0
        mat = None
        if tgt_dim >= src_dim:
            mat = mult_map(caps, j - power, power, p)
            if rank(mat) == src_dim:
                continue
        # more columns than rank: kernel exists at this degree
        wit = None
        if want_witness:
            if mat is None:
                mat = mult_map(caps, j - power, power, p)
            vec = kernel_witness(mat)
            wit = KernelWitness(box=caps, degree=j - power, coefficients=vec)
        return EResult(value=j, method="oracle",
                       degenerate=power > top, witness=wit)
    raise IndependenceError(f"no relation found for p={p}, d={d}")


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
    H = hilbert_function(caps)
    top = top_degree(caps)
    records = []
    ok = True
    for i in range(top):
        r = rank(mult_map(caps, i, 1, p))
        rec = WlpRecord(degree=i, dim_source=H[i], dim_target=H[i + 1], rank=r)
        ok = ok and rec.maximal
        records.append(rec)
    return WlpReport(p=p, box=caps, records=tuple(records), verdict=ok)


def socle_degree_oracle(p: int, K, a: int) -> int:
    """Top nonzero degree of the box quotient on caps K cut further by the
    diagonal form x_1^a + ... + x_m^a.

    Vanishing of a graded piece propagates upward here, so the top degree is
    found by binary search on the degree; each probe is one rank.
    """
    caps = check_box(K)
    check_prime(p)
    a = int(a)
    if a < 1:
        raise ValueError("exponent a must be positive")
    H = hilbert_function(caps)
    top = top_degree(caps)
    # x_1^a + ... + x_m^a: one unit-coefficient shift per variable
    comps = a * np.eye(len(caps), dtype=np.int64)
    coeffs = (1,) * len(caps)

    def alive(j: int) -> bool:
        if j > top:
            return False
        if j < a:
            return True
        return rank(_shift_matrix(caps, j - a, a, comps, coeffs, p)) < H[j]

    lo, hi = 0, top + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if alive(mid):
            lo = mid
        else:
            hi = mid
    return lo


def nu_value(p: int, e: int, a: int, n: int) -> int:
    """Top degree of the diagonal-form quotient with all n+1 caps equal to p^e."""
    check_prime(p)
    if e < 0:
        raise ValueError("exponent e must be nonnegative")
    if n < 1:
        raise ValueError("need n >= 1")
    if a < 1 or a % p == 0:
        raise ValueError("a must be positive and prime to p")
    q = p ** e
    return socle_degree_oracle(p, (q,) * (n + 1), a)
