"""Residual checks for every recurrence and convolution identity in scope.

Each theorem or corollary is wired as a residual: (left side) minus
(claimed right side) at index n, so "the identity holds at n" is exactly
"residual == 0".  Failures therefore carry a magnitude, which makes broken
tables easy to diagnose.

Every suite but LEBESGUE is a record in `_SUITES`: terms, each a coefficient
times coefficient m*n + r of (a partition function times a sparse theta
kernel), or times an indicator at m*n + r.  One engine, `_residuals`,
evaluates every record over exact integer kernel exponents; the half-index
cases read their function at (index - exponent) / div, zero off the integers.

All residuals read partition-function values through a `values` callable
(defaulting to the memoized `function_value`), so a test can swap in a
corrupted source and watch the suites catch it.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import partial
from itertools import chain
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .functions import PartitionFunctionId as F
from .functions import function_value, gf_series, lebesgue_partial
from .report import Failure, VerificationReport
from .series import THETA_FAMILIES, ThetaFamily, ceil_half, neg_one_pow

__all__ = [
    "TheoremId",
    "triangular_indicator",
    "square_rhs",
    "gen_pentagonal_signed",
    "oblong_indicator",
    "origin_indicator",
    "residual",
    "fast_po_odd_table",
    "verify",
    "verify_all",
    "Values",
]

Values = Callable[[F, int], int]


class TheoremId(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"
    T7_DISSECT_ODD = "T7_DISSECT_ODD"
    T8_DISSECT_EVEN = "T8_DISSECT_EVEN"
    T9_P2 = "T9_P2"
    T_QBAR = "T_QBAR"
    T_PDO_IDENT = "T_PDO_IDENT"
    T_PD_IDENT = "T_PD_IDENT"
    COR_PDO = "COR_PDO"
    COR_PD = "COR_PD"
    COR_POOD_PARITY = "COR_POOD_PARITY"
    COR_P_PARITY = "COR_P_PARITY"
    COR_P2_PARITY = "COR_P2_PARITY"
    CLASSICAL_EULER = "CLASSICAL_EULER"
    CLASSICAL_EWELL = "CLASSICAL_EWELL"
    CLASSICAL_CKS_SQ = "CLASSICAL_CKS_SQ"
    CLASSICAL_CKS_SIGNED = "CLASSICAL_CKS_SIGNED"
    CLASSICAL_MERCA_GK = "CLASSICAL_MERCA_GK"
    CLASSICAL_MERCA_PEED_TRI = "CLASSICAL_MERCA_PEED_TRI"
    CLASSICAL_MERCA_PEED_2SQ = "CLASSICAL_MERCA_PEED_2SQ"
    LEBESGUE = "LEBESGUE"


def triangular_indicator(n: int) -> int:
    """1 if n = m(m+1)/2 for some m >= 0, else 0."""
    s = isqrt(8 * n + 1)
    return 1 if s * s == 8 * n + 1 else 0


def square_rhs(n: int) -> int:
    """2 if n is a positive perfect square, 1 if n = 0, else 0."""
    if n == 0:
        return 1
    s = isqrt(n)
    return 2 if s * s == n else 0


def gen_pentagonal_signed(n: int) -> int:
    """(-1)^ceil(m/2) if n = m(3m+1)/2 for the (unique) m in Z, else 0.

    24n+1 must be an odd square (6m+1)^2; both candidate roots are checked
    back against the exponent, so no parity-of-root case analysis is
    trusted on its own.
    """
    s = isqrt(24 * n + 1)
    if s * s != 24 * n + 1:
        return 0
    candidates = []
    if (s - 1) % 6 == 0:
        candidates.append((s - 1) // 6)
    if (s + 1) % 6 == 0:
        candidates.append(-(s + 1) // 6)
    for m in candidates:
        if m * (3 * m + 1) // 2 == n:
            return neg_one_pow(ceil_half(m))
    return 0


def oblong_indicator(n: int) -> int:
    """1 if n = k(k+1) for some k >= 0, else 0."""
    s = isqrt(4 * n + 1)
    return 1 if s * s == 4 * n + 1 else 0


def origin_indicator(n: int) -> int:
    return 1 if n == 0 else 0


class _Term(NamedTuple):
    """coeff * [q^(m*n + r)] of f(q^div) * kernel(q), or coeff * f(m*n + r)
    when f is an indicator; the term counts only at n = parity (mod 2)."""

    coeff: int
    f: Union[F, Callable[[int], int]]
    kernel: Optional[ThetaFamily] = None  # None: the unit series 1
    scale: int = 1  # kernel exponents are multiplied by this
    m: int = 1
    r: int = 0
    div: int = 1
    parity: Optional[int] = None


_T = THETA_FAMILIES
# (-1)^j q^(j^2) over j in Z (phi(-q)), and over j >= 0 only
_SIGNED_SQ = ThetaFamily("SIGNED_SQ", lambda j: j * j, neg_one_pow, two_sided=True)
_SIGNED_SQ_POS = ThetaFamily("SIGNED_SQ_POS", lambda j: j * j, neg_one_pow, two_sided=False)

_SUITES: dict[TheoremId, tuple[_Term, ...]] = {
    # sum_k (-1)^k po_bar(n - k(3k+1)/2) = (-1)^ceil(m/2) at n = m(3m+1)/2, else 0
    TheoremId.T1: (_Term(1, F.PO_ODD, _T["PENT"]), _Term(-1, gen_pentagonal_signed)),
    # sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) = [n triangular]
    TheoremId.T2: (_Term(1, F.PO_ODD, _T["TRI_CEIL"]), _Term(-1, triangular_indicator)),
    # po_bar(n) + 2 sum_{k>=1} (-1)^k po_bar(n - 2k^2) = 2 at squares n > 0, 1 at n = 0
    TheoremId.T3: (_Term(1, F.PO_ODD, _T["TWOSQ"]), _Term(-1, square_rhs)),
    # po_bar(n) = sum_{k>=0} pood(n - T_k)
    TheoremId.T4: (_Term(1, F.PO_ODD), _Term(-1, F.POOD, _T["TRI"])),
    # po_bar(n) = sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2)
    TheoremId.T5: (_Term(1, F.PO_ODD), _Term(-1, F.P, _T["PENT_CEIL"])),
    # po_bar(n) = sum_k (-1)^k op(n - 2k^2)
    TheoremId.T6: (_Term(1, F.PO_ODD), _Term(-1, F.OP, _T["TWOSQ"])),
    # po_bar(2n+1) = 2 sum_{k>=0} op(n - 2k(k+1))
    TheoremId.T7_DISSECT_ODD: (_Term(1, F.PO_ODD, m=2, r=1), _Term(-2, F.OP, _T["TWO_TRI4"])),
    # po_bar(2n) = op(n) + 2 sum_{k>=1} op(n - 2k^2), i.e. op times theta(SQ) at q^2
    TheoremId.T8_DISSECT_EVEN: (_Term(1, F.PO_ODD, m=2), _Term(-1, F.OP, _T["SQ"], scale=2)),
    # po_bar(n) = sum_{k>=0} p2(n - T_k)
    TheoremId.T9_P2: (_Term(1, F.PO_ODD), _Term(-1, F.P2MOD4, _T["TRI"])),
    # qbar(n) = sum_{k>=0} p(n - T_k)
    TheoremId.T_QBAR: (_Term(1, F.QBAR), _Term(-1, F.P, _T["TRI"])),
    # sum_k (-1)^k po_bar(n - k(3k+1)/2) = sum_k (-1)^k pdo(n - k(3k+1))
    TheoremId.T_PDO_IDENT: (_Term(1, F.PO_ODD, _T["PENT"]), _Term(-1, F.PDO, _T["PENT2"])),
    # sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) = sum_k (-1)^k pd(n - k(3k+1)); one-sided,
    # as T_k = T_(-k-1): a two-sided sum counts each exponent twice and fails at n = 0
    TheoremId.T_PD_IDENT: (_Term(1, F.PO_ODD, _T["TRI_CEIL"]), _Term(-1, F.PD, _T["PENT2"])),
    # sum_k (-1)^k pdo(n - k(3k+1)) = the signed pentagonal indicator
    TheoremId.COR_PDO: (_Term(1, F.PDO, _T["PENT2"]), _Term(-1, gen_pentagonal_signed)),
    # sum_k (-1)^k pd(n - k(3k+1)) = [n triangular]
    TheoremId.COR_PD: (_Term(1, F.PD, _T["PENT2"]), _Term(-1, triangular_indicator)),
    # sum_{k>=0} pood(n - T_k) is even for n >= 1 (mod 2, vacuous at n = 0)
    TheoremId.COR_POOD_PARITY: (_Term(1, F.POOD, _T["TRI"]),),
    # sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2) is even for n >= 1
    TheoremId.COR_P_PARITY: (_Term(1, F.P, _T["PENT_CEIL"]),),
    # sum_{k>=0} p2(n - T_k) is even for n >= 1
    TheoremId.COR_P2_PARITY: (_Term(1, F.P2MOD4, _T["TRI"]),),
    # Euler: sum_k (-1)^k p(n - k(3k+1)/2) = [n == 0]
    TheoremId.CLASSICAL_EULER: (_Term(1, F.P, _T["PENT"]), _Term(-1, origin_indicator)),
    # Ewell: sum_{k>=0} (-1)^ceil(k/2) p(n - T_k) = pd(n/2) at even n, 0 at odd n
    TheoremId.CLASSICAL_EWELL: (_Term(1, F.P, _T["TRI_CEIL"]), _Term(-1, F.PD, div=2)),
    # sum_{j>=0} (-1)^j p(n - j^2) + sum_{j>=1} (-1)^j p(n - 2j^2) = pdo(n) at even n,
    # 0 at odd n; the j = 0 term appears once, so the doubled sum drops its own
    TheoremId.CLASSICAL_CKS_SQ: (_Term(1, F.P, _SIGNED_SQ_POS), _Term(1, F.P, _SIGNED_SQ_POS, scale=2),
                                 _Term(-1, F.P), _Term(-1, F.PDO, parity=0)),
    # p(n) + 2 sum_{j>=1} (-1)^j p(n - j^2) = (-1)^n pdo(n)
    TheoremId.CLASSICAL_CKS_SIGNED: (_Term(1, F.P, _SIGNED_SQ), _Term(-1, F.PDO, parity=0),
                                     _Term(1, F.PDO, parity=1)),
    # Merca: sum_{k>=0} (-1)^ceil(k/2) p(n - G_k/2) = sum_{k>=0} p(n/2 - k(k+1)/8), with G_k
    # = 0, 1, 2, 5, 7, ... and p zero off Z>=0.  On the doubled index both sides are integral:
    # [q^(2n)] p(q^2) q^(G_k) = p(n - G_k/2), so the left side is [q^(2n)] of p(q^2) times
    # theta(GPENT_HALF) with exponents x2; [q^(2n)] p(q^4) q^(T_k) = p(n/2 - k(k+1)/8), so
    # the right side is [q^(2n)] of p(q^4) * theta(TRI).
    TheoremId.CLASSICAL_MERCA_GK: (_Term(1, F.P, _T["GPENT_HALF"], scale=2, m=2, div=2),
                                   _Term(-1, F.P, _T["TRI"], m=2, div=4)),
    # sum_{j>=0} (-1)^ceil(j/2) peed(n - T_j) = [n = k(k+1)]
    TheoremId.CLASSICAL_MERCA_PEED_TRI: (_Term(1, F.PEED, _T["TRI_CEIL"]), _Term(-1, oblong_indicator)),
    # sum_{j in Z} (-1)^j peed(n - 2j^2) = [n triangular]
    TheoremId.CLASSICAL_MERCA_PEED_2SQ: (_Term(1, F.PEED, _T["TWOSQ"]), _Term(-1, triangular_indicator)),
}
_MOD2 = frozenset({TheoremId.COR_POOD_PARITY, TheoremId.COR_P_PARITY, TheoremId.COR_P2_PARITY})


def _kernel(term: _Term, bound: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) of the term's kernel up to bound, ascending."""
    if term.kernel is None:
        return [(0, 1)]
    coeffs: dict[int, int] = {}
    for k in term.kernel.indices_up_to(bound):
        e = int(term.kernel.exponent(k) * term.scale)
        if e <= bound:
            coeffs[e] = coeffs.get(e, 0) + term.kernel.sign(k)
    return sorted((e, c) for e, c in coeffs.items() if c)


def _warm(terms: Iterable[_Term], n_max: int) -> None:
    """Grow the memo once per function, to the largest argument the terms
    read for n <= n_max, so the scan never grows it piecemeal."""
    largest: dict[F, int] = {}
    for t in terms:
        if isinstance(t.f, F):
            largest[t.f] = max(largest.get(t.f, 0), (t.m * n_max + t.r) // t.div)
    for f, n in largest.items():
        function_value(f, n)


def _residuals(tid: TheoremId, n_max: int, values: Values, start: int = 0) -> Iterator[int]:
    """Residuals of the suite at start..n_max, computed as they are consumed."""
    if tid is TheoremId.LEBESGUE:
        # coefficients of the partial sums minus the product; j_max is the
        # least j with j(j+1)/2 > n_max, past which every term vanishes
        j_max = (isqrt(8 * n_max + 1) + 1) // 2
        pairs = zip(lebesgue_partial(j_max, n_max), gf_series(F.PO_ODD, n_max))
        yield from [a - b for a, b in pairs][start:]
        return
    try:
        terms = _SUITES[tid]
    except KeyError:
        raise ValueError(f"unknown theorem id {tid!r}") from None
    kernels = [_kernel(t, t.m * n_max + t.r) for t in terms]
    if values is function_value:
        _warm(terms, n_max)
    for n in range(start, n_max + 1):
        total = 0
        for t, kernel in zip(terms, kernels):
            if t.parity is not None and n % 2 != t.parity:
                continue
            a, f, div = t.m * n + t.r, t.f, t.div
            if not isinstance(f, F):
                total += t.coeff * f(a)
                continue
            s = 0
            for e, c in kernel:
                if e > a:
                    break
                if (a - e) % div == 0:
                    s += c * values(f, (a - e) // div)
            total += t.coeff * s
        if tid in _MOD2:
            total = total % 2 if n else 0
        yield total


def residual(tid: TheoremId, n: int, values: Values = function_value) -> int:
    """Residual of the named identity at n (0 means the identity holds)."""
    return next(_residuals(tid, n, values, start=n))


residual_t1 = partial(residual, TheoremId.T1)
residual_t2 = partial(residual, TheoremId.T2)
residual_t3 = partial(residual, TheoremId.T3)
residual_t4 = partial(residual, TheoremId.T4)
residual_t5 = partial(residual, TheoremId.T5)
residual_t6 = partial(residual, TheoremId.T6)
residual_dissect_odd = partial(residual, TheoremId.T7_DISSECT_ODD)
residual_dissect_even = partial(residual, TheoremId.T8_DISSECT_EVEN)
residual_t9 = partial(residual, TheoremId.T9_P2)
residual_qbar = partial(residual, TheoremId.T_QBAR)
residual_pdo_identity = partial(residual, TheoremId.T_PDO_IDENT)
residual_pd_identity = partial(residual, TheoremId.T_PD_IDENT)
residual_cor_pdo = partial(residual, TheoremId.COR_PDO)
residual_cor_pd = partial(residual, TheoremId.COR_PD)
parity_residual_pood = partial(residual, TheoremId.COR_POOD_PARITY)
parity_residual_p = partial(residual, TheoremId.COR_P_PARITY)
parity_residual_p2 = partial(residual, TheoremId.COR_P2_PARITY)
residual_euler = partial(residual, TheoremId.CLASSICAL_EULER)
residual_ewell = partial(residual, TheoremId.CLASSICAL_EWELL)
residual_cks_square = partial(residual, TheoremId.CLASSICAL_CKS_SQ)
residual_cks_signed = partial(residual, TheoremId.CLASSICAL_CKS_SIGNED)
residual_merca_gk = partial(residual, TheoremId.CLASSICAL_MERCA_GK)
residual_merca_peed_tri = partial(residual, TheoremId.CLASSICAL_MERCA_PEED_TRI)
residual_merca_peed_2sq = partial(residual, TheoremId.CLASSICAL_MERCA_PEED_2SQ)


def fast_po_odd_table(n_max: int) -> list[int]:
    """po_bar(0..n_max) via the sparse square-number recurrence.

    Solving T3 for po_bar(n) needs only the ~sqrt(n/2) earlier entries at
    n - 2k^2, so the whole table costs O(n_max^(3/2)) big-integer additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    kernel = _kernel(_Term(1, F.PO_ODD, _T["TWOSQ"]), n_max)[1:]  # theta(TWOSQ) less its 1
    table: list[int] = []
    for n in range(n_max + 1):
        table.append(square_rhs(n) - sum(c * table[n - e] for e, c in kernel if e <= n))
    return table


def verify(tid: TheoremId, n_max: int, values: Values = function_value) -> VerificationReport:
    """Scan the residual for all 0 <= n <= n_max and report the outcome."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    start = time.perf_counter()
    residuals = enumerate(_residuals(tid, n_max, values))
    first = next((Failure(n, r) for n, r in residuals if r), None)
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(tid.value, n_max, first is None, first, millis)


def verify_all(n_max: int, values: Values = function_value) -> list[VerificationReport]:
    """Run every theorem suite; reports come back in declaration order.

    With the memoized source, each function is first grown once, to its
    largest argument over every suite.
    """
    if values is function_value:
        _warm(chain.from_iterable(_SUITES.values()), n_max)
    return [verify(tid, n_max, values) for tid in TheoremId]
