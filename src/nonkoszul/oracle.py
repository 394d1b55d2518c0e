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

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .linalg import MatrixFp, kernel_witness, rank
from .modp import _as_int, _at_least, check_prime
from .monomials import _hilbert_cached, _slice_cached, check_box

MATRIX_CAP = 5000    # bound on each side of a dense multiplication matrix
_TOP_CAP = 8 * MATRIX_CAP ** 2 // 52     # bound on the top degree of a box


def _check_pieces(caps: tuple[int, ...], *degrees: int) -> None:
    """Raise ValueError for a box whose Hilbert function H would not fit in
    the 200 MB of one int64 matrix of side MATRIX_CAP, before H is built, or
    for a degree slice of the box above MATRIX_CAP monomials, read off H;
    degrees outside [0, top] have empty slices.  An entry of H is at most
    prod(caps) < 2^b, b the sum of c.bit_length(), so with a tuple slot and
    a working list slot it costs at most 40 + 4*ceil(b/30) bytes (an int has
    30-bit digits).  While b <= 90 that is 52 bytes, and the top-degree bound
    _TOP_CAP = 3,846,153 keeps H within budget; above, the bit count does.
    The build also holds the list of the step before, at most doubling it."""
    top = sum(caps) - len(caps)
    if top > _TOP_CAP:
        raise ValueError(f"box {caps} has top degree {top}, above {_TOP_CAP}, "
                         f"the Hilbert-function cap")
    bits = sum(c.bit_length() for c in caps)
    if top * (40 + 4 * -(-bits // 30)) > 8 * MATRIX_CAP ** 2:
        raise ValueError(f"box {caps} has {top + 1} degrees of up to {bits} "
                         f"bits, above the Hilbert-function cap")
    H = _hilbert_cached(caps)
    if any(0 <= j < len(H) and H[j] > MATRIX_CAP for j in degrees):
        raise ValueError(f"box {caps} has a graded piece larger than "
                         f"{MATRIX_CAP}, the dense-matrix cap")


@lru_cache(maxsize=4096)
def _power_terms(caps: tuple[int, ...], power: int, p: int):
    """Monomials of f^power that survive both mod p and the box, with their
    multinomial coefficients.  Shared across all source degrees of a box.

    The coefficient of x^a is power!/prod(a_i!) = prod_i C(a_1+...+a_i, a_i),
    taken as an exact integer and reduced once.  It has up to power*log2(m)
    bits, so large powers cost more: (3000, 3000) at power 2999 takes 0.5 s.
    The terms, the degree `power` slice, are held to MATRIX_CAP.
    """
    _check_pieces(caps, power)
    comps = _slice_cached(caps, power)
    coeffs = [math.prod(map(math.comb, accumulate(row), row)) % p
              for row in comps.tolist()]
    keep = [i for i, c in enumerate(coeffs) if c]
    return comps[keep], tuple(coeffs[i] for i in keep)


def _shift_matrix(caps: tuple[int, ...], src_degree: int, degree: int,
                  comps, coeffs, p: int) -> MatrixFp:
    """Matrix of multiplication by sum(coeff * x^comp), every comp of total
    degree `degree`, from the degree src_degree slice of the box to the degree
    src_degree + degree slice.  Terms that leave the box contribute nothing.

    Term k times source monomial s stays in the box when it does in every
    variable; one boolean mask over (term, source), one comparison per
    variable, marks those pairs, and one scatter writes them.  Distinct
    terms send a source to distinct targets, so no entry is written twice.
    Each pair's target row is found by binary search among the codes of the
    target slice, so nothing is allocated by the size of the box.  A box of
    2^63 or more monomials has codes that int64 cannot hold, so it raises
    ValueError.  The mask holds terms x sources bytes.  The terms are at most
    the degree `degree` slice, so the mask is smaller than the int64 matrix
    whenever that slice has fewer than 8 x the target slice's monomials.

    `_check_pieces` holds each side, and `_power_terms` its terms, to
    MATRIX_CAP before any is listed: the int64 matrix is at most 200 MB,
    `rank`'s working copy doubles that, and the mask is at most 25 MB.

    The caller has checked that p is prime and every coefficient is a
    residue in [1, p), so the matrix is wrapped without a second check.
    """
    _check_pieces(caps, src_degree, src_degree + degree)
    src = _slice_cached(caps, src_degree)
    tgt = _slice_cached(caps, src_degree + degree)
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    if len(src) and len(tgt):
        if math.prod(caps) >= 2**63:
            raise ValueError(f"box {caps} has too many monomials to number "
                             f"in int64")
        caps_arr = np.array(caps, dtype=np.int64)
        # the code of x^a is a @ strides, mixed radix in the caps; codes
        # order monomials as lex does, so the target codes descend
        strides = np.array([math.prod(caps[i + 1:]) for i in range(len(caps))],
                           dtype=np.int64)
        # room[s, i]: how far source monomial s may grow in variable i
        room = caps_arr - src
        fits = comps[:, :1] < room[:, 0]
        for i in range(1, len(caps)):
            fits &= comps[:, i:i + 1] < room[:, i]
        term, col = np.nonzero(fits)
        codes = (src @ strides)[col] + (comps @ strides)[term]
        rows = np.searchsorted(-(tgt @ strides), -codes)
        mat[rows, col] = np.array(coeffs, dtype=np.int64)[term]
    return MatrixFp._trusted(mat, p)


def mult_map(caps, src_degree: int, power: int, p: int) -> MatrixFp:
    """Matrix of multiplication by (x_1 + ... + x_m)^power from the degree
    src_degree slice to the degree src_degree + power slice of the box.

    Rows follow the target basis, columns the source basis, both in the fixed
    descending lex order.  A negative src_degree gives an empty source.
    """
    caps = check_box(caps)
    p = check_prime(p)
    src_degree = _as_int(src_degree)
    power = _at_least(power, 0, "power must be nonnegative")
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


def _scan(caps: tuple[int, ...], power: int, p: int,
          want_witness: bool) -> tuple[int, dict[int, int], tuple | None]:
    """Downward kernel scan of x f^power, f the sum of the variables, on the
    box `caps`, with Hilbert function H and top degree `top`.  Returns
    (i, ranks, witness): i the least source degree where the map has a
    kernel, `ranks` the rank of each map ranked or mirrored, keyed by source
    degree, and `witness` the canonical kernel vector of the map from i
    (`linalg.kernel_witness`) when one is wanted.

    U = `_dimension_bound(H, power)` is the least source degree with
    H[U] > H[U + power] (H zero above top), so U <= top and the map from U
    has a kernel by dimension count.  Kernels persist upward: a nonzero g of
    degree s < top with f^power g = 0 is not in the socle, which is spanned
    by x^{c-1} in degree top (c the caps), so x_k g != 0 for some k, and
    f^power x_k g = 0 in degree s + 1.  For power 1: injectivity passes down
    (Migliore, Miro-Roig and Nagel (2011), Prop. 2.1, for level algebras).
    So the scan ranks down from U - 1 while the map has a kernel; i is the
    lowest degree found to have one (0 if all do: source degree -1 is empty).

    Degree 0.  The map from 0 has one column, sending 1 to f^power: the
    terms of f^power that survive the box mod p (`_power_terms`).  Its rank
    is 1 when there is one and 0 otherwise, with kernel vector (1,); no
    matrix is built.

    Duality.  Let M_j be the map from source degree j by a form h of degree
    t.  The complement x^a -> x^{c-1-a} sends the degree j basis onto the
    degree top - j basis, reversing the descending lex order, and the entry
    of M_j at (target x^b, source x^a) and that of M_{top-t-j} at
    (x^{c-1-a}, x^{c-1-b}) are both the coefficient of x^{b-a} in h.  So
    M_{top-t-j} is M_j transposed with rows and columns reversed (the
    Gorenstein pairing A_j x A_{top-j} -> A_top makes them adjoint), of one
    rank, and each rank found is recorded for the dual degree too.  When
    2U = top - power + 1, M_{U-1} is the dual of M_U: with a witness wanted,
    one elimination of M_U decides U - 1 and gives the witness should i be
    U.  A scan step that finds a kernel keeps its witness, so the witness
    costs a further elimination only at a degree ranked through its dual.

    Unranked degrees, for power 1.  H is symmetric and unimodal, so
    H[j] <= H[j + 1] for j < top/2 and U >= top/2: each degree j in
    [U, top - 1] mirrors top - 1 - j <= U - 1.  So a degree j < top that
    `ranks` lacks lies below i, where the map is injective, of rank
    H[j] <= H[j + 1], or mirrors one that does, of rank
    H[top - 1 - j] = H[j + 1] <= H[j]: either way min(H[j], H[j + 1]).
    """
    terms = _power_terms(caps, power, p)
    H = _hilbert_cached(caps)
    mirror = len(H) - 1 - power      # M_j and M_{mirror - j} share a rank
    ranks: dict[int, int] = {}
    witnesses: dict[int, tuple[int, ...] | None] = {}

    def eliminate(j: int) -> None:
        if j == 0:
            r = min(1, len(terms[1]))
            witnesses[0] = None if r else (1,)
        else:
            mat = _shift_matrix(caps, j, power, *terms, p)
            if want_witness:
                r, witnesses[j] = kernel_witness(mat)
            else:
                r = rank(mat)
        ranks[j] = ranks[mirror - j] = r

    i = _dimension_bound(H, power)
    if want_witness and 2 * i == mirror + 1:
        eliminate(i)
    while i > 0:
        if i - 1 not in ranks:
            eliminate(i - 1)
        if ranks[i - 1] == H[i - 1]:
            break
        i -= 1
    if want_witness and i not in witnesses:
        eliminate(i)
    return i, ranks, witnesses.get(i)


def e_degree_oracle(p: int, d, want_witness: bool = True) -> EResult:
    """Least degree of a kernel element of x f^{d_last} on the box d[:-1]:
    d_last + i, with i from `_scan` (its docstring holds the proofs).

    Unit caps.  A cap of 1 makes its variable 0 in the box, so the scan runs
    on the live box of the caps above 1.  Each degree slice of the full box
    is a slice of the live box with a zero coordinate inserted at each unit
    cap, in the same descending lex order, and f restricted to the live box
    is the sum of its variables, so every matrix, rank and witness is the
    same on either box.  The witness keeps the full box, so its terms keep
    their variable indices.  This uses no symmetry of E: d_last stays the
    power, and only caps of the box are dropped.

    At most one live variable, caps c (all caps 1 counts as c = 1): the live
    box is k[x]/(x^c) with f = x, one monomial in each degree 0..c-1, and
    H = (1,)*c is never built.  Then U = max(0, c - t) for t = d_last.  The
    map from U - 1 (when U > 0) sends x^{U-1} to x^{c-1}, the 1 x 1 matrix
    (1), so it is injective, and the map from U has no target.  So the
    answer is t + U = max(c, t), and the canonical kernel vector of the map
    from U is its one source coordinate, 1.
    """
    p = check_prime(p)
    d = check_box(d)
    if len(d) == 1:
        # no box variables at all: f = 0 and f^{d_1} = 0 is itself a relation
        return EResult(value=d[0], method="oracle", degenerate=True, witness=None)
    box, power = d[:-1], d[-1]
    caps = tuple(c for c in box if c > 1)
    if len(caps) <= 1:
        i, coeffs = max(max(box) - power, 0), (1,)
    else:
        i, _, coeffs = _scan(caps, power, p, want_witness)
    wit = KernelWitness(box=box, degree=i,
                        coefficients=coeffs) if want_witness else None
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

    The ranks come from `_scan` with power 1 on the whole box, unit caps
    included, so a refusal names the box as given; each degree it leaves
    unranked has rank min(H[j], H[j + 1]), as its docstring proves.  A box
    with WLP costs at most one elimination.
    """
    caps = check_box(d)
    p = check_prime(p)
    _, ranks, _ = _scan(caps, 1, p, False)
    H = _hilbert_cached(caps)
    records = tuple(WlpRecord(degree=j, dim_source=H[j], dim_target=H[j + 1],
                              rank=ranks.get(j, min(H[j], H[j + 1])))
                    for j in range(len(H) - 1))
    return WlpReport(p=p, box=caps, records=records,
                     verdict=all(rec.maximal for rec in records))


def socle_degree_oracle(p: int, K, a: int) -> int:
    """Top nonzero degree of the box quotient A on caps K cut further by the
    diagonal form g = x_1^a + ... + x_m^a.

    Let H be the Hilbert function of A (zero above its top degree `top`) and
    U = `_dimension_bound(H, a)`, the least i with H[i] > H[i + a]; U <= top,
    as H[top] = 1.  Then x g : A_U -> A_{U+a} has a kernel by dimension
    count.  By the duality in `_scan`'s docstring, x g from A_{j-a} to A_j
    is the reversed transpose of x g from A_{top-j} to A_{top-j+a}.  So
    A/(g) is nonzero in degree top - U, and the top degree lies in
    [top - U, top].  Vanishing of a graded piece of A/(g) propagates upward,
    so binary search finds it, one rank per probe.  Every probe degree is at
    least a: if a <= top, then i = top + 1 - a qualifies, so
    U <= top + 1 - a and each probe exceeds top - U >= a - 1; otherwise
    U = 0 and nothing is probed.
    """
    caps = check_box(K)
    p = check_prime(p)
    a = _at_least(a, 1, "exponent a must be positive")
    _check_pieces(caps)
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

