"""Residual checks for every recurrence and convolution identity in scope.

Each theorem or corollary is wired as a residual: (left side) minus
(claimed right side) at index n, so "the identity holds at n" is exactly
"residual == 0".  Failures therefore carry a magnitude, which makes broken
tables easy to diagnose.

Every suite but LEBESGUE is a record in `_SUITES`: a sum of terms, each a
coefficient times coefficient m*n + r of a series product f(q^div) *
kernel(q^scale), where f is a partition function or the series 1 and the
kernel a sparse theta series or 1.  So each suite is a product identity
between generating functions and theta series; the closed-form right sides
(signed pentagonal, triangular, square and oblong numbers, the origin) are
theta series on the unit function.  One engine, `_add_term`, adds a window
lo..hi of any term to the residuals as one scaled slice add over the dense
table per kernel exponent: `verify` takes the whole range 0..n_max,
`residual` the single index n, with the same code.

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
from typing import Callable, NamedTuple, Optional, Sequence

from .functions import PartitionFunctionId as F
from .functions import function_value, gf_series, lebesgue_partial
from .report import Failure, VerificationReport
from .series import THETA_FAMILIES, ThetaFamily, _add_scaled, neg_one_pow, theta_series

__all__ = [
    "TheoremId",
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


class _Term(NamedTuple):
    """coeff * [q^(m*n + r)] of f(q^div) * kernel(q^scale); the term counts
    only at n = parity (mod 2)."""

    coeff: int
    f: Optional[F]  # None: the unit series 1
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
    TheoremId.T1: (_Term(1, F.PO_ODD, _T["PENT"]), _Term(-1, None, _T["PENT_CEIL"])),
    # sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) = [n triangular]
    TheoremId.T2: (_Term(1, F.PO_ODD, _T["TRI_CEIL"]), _Term(-1, None, _T["TRI"])),
    # po_bar(n) + 2 sum_{k>=1} (-1)^k po_bar(n - 2k^2) = 2 at squares n > 0, 1 at n = 0
    TheoremId.T3: (_Term(1, F.PO_ODD, _T["TWOSQ"]), _Term(-1, None, _T["SQ"])),
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
    # sum_k (-1)^k pdo(n - k(3k+1)) = (-1)^ceil(m/2) at n = m(3m+1)/2, else 0
    TheoremId.COR_PDO: (_Term(1, F.PDO, _T["PENT2"]), _Term(-1, None, _T["PENT_CEIL"])),
    # sum_k (-1)^k pd(n - k(3k+1)) = [n triangular]
    TheoremId.COR_PD: (_Term(1, F.PD, _T["PENT2"]), _Term(-1, None, _T["TRI"])),
    # sum_{k>=0} pood(n - T_k) is even for n >= 1 (mod 2, vacuous at n = 0)
    TheoremId.COR_POOD_PARITY: (_Term(1, F.POOD, _T["TRI"]),),
    # sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2) is even for n >= 1
    TheoremId.COR_P_PARITY: (_Term(1, F.P, _T["PENT_CEIL"]),),
    # sum_{k>=0} p2(n - T_k) is even for n >= 1
    TheoremId.COR_P2_PARITY: (_Term(1, F.P2MOD4, _T["TRI"]),),
    # Euler: sum_k (-1)^k p(n - k(3k+1)/2) = [n == 0]
    TheoremId.CLASSICAL_EULER: (_Term(1, F.P, _T["PENT"]), _Term(-1, None)),
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
    TheoremId.CLASSICAL_MERCA_PEED_TRI: (_Term(1, F.PEED, _T["TRI_CEIL"]),
                                         _Term(-1, None, _T["TRI"], scale=2)),
    # sum_{j in Z} (-1)^j peed(n - 2j^2) = [n triangular]
    TheoremId.CLASSICAL_MERCA_PEED_2SQ: (_Term(1, F.PEED, _T["TWOSQ"]), _Term(-1, None, _T["TRI"])),
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


def _add_term(out: list[int], t: _Term, lo: int, values: Values) -> None:
    """out[n - lo] += coeff * [q^(m*n + r)] of f(q^div) * kernel(q^scale) for
    n = lo..lo + len(out) - 1, at n = parity (mod 2) only if the term is gated.

    f(q^div) is spread densely up to q^(m*hi + r); each kernel exponent e then
    adds c * spread[m*n + r - e] for every n in the window at once, one C-level
    slice pass (stride 2 when gated), so a whole scan costs one pass per kernel
    term and a single n O(kernel terms) plus the table copy.
    """
    hi = lo + len(out) - 1
    top = t.m * hi + t.r
    k = top // t.div
    if t.f is None:
        table: Sequence[int] = [1] + [0] * k
    elif values is function_value:
        table = gf_series(t.f, k).coeffs  # the memo, grown as needed
    else:
        table = [values(t.f, i) for i in range(k + 1)]
    spread = table
    if t.div != 1:
        spread = [0] * (top + 1)
        spread[:: t.div] = table
    step = 1 if t.parity is None else 2
    for e, c in _kernel(t, top):
        b = max(lo, -((t.r - e) // t.m))  # the least n with m*n + r >= e
        if t.parity is not None:
            b += (b - t.parity) % 2  # ... and n = parity (mod 2)
        if b <= hi:
            src = spread[t.m * b + t.r - e : top - e + 1 : t.m * step]
            _add_scaled(out, b - lo, src, t.coeff * c, step)


def _residuals(tid: TheoremId, lo: int, hi: int, values: Values) -> list[int]:
    """Residuals of the suite at n = lo..hi."""
    if tid is TheoremId.LEBESGUE:
        # coefficients of the partial sums minus the product; j_max is the
        # least j with j(j+1)/2 > hi, past which every term vanishes
        j_max = (isqrt(8 * hi + 1) + 1) // 2
        pairs = zip(lebesgue_partial(j_max, hi), gf_series(F.PO_ODD, hi))
        return [a - b for a, b in pairs][lo:]
    try:
        terms = _SUITES[tid]
    except KeyError:
        raise ValueError(f"unknown theorem id {tid!r}") from None
    total = [0] * (hi - lo + 1)
    for t in terms:
        _add_term(total, t, lo, values)
    if tid in _MOD2:
        total = [v % 2 if n else 0 for n, v in enumerate(total, lo)]
    return total


def residual(tid: TheoremId, n: int, values: Values = function_value) -> int:
    """Residual of the named identity at n (0 means the identity holds)."""
    return _residuals(tid, n, n, values)[0]


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
    """po_bar(0..n_max) as the theta quotient theta(SQ) / theta(TWOSQ).

    That is T3 solved for po_bar(n) by the sparse division: each entry needs
    only the ~sqrt(n/2) earlier entries at n - 2k^2, so the whole table costs
    O(n_max^(3/2)) big-integer additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(theta_series(_T["SQ"], n_max) / theta_series(_T["TWOSQ"], n_max))


def verify(tid: TheoremId, n_max: int, values: Values = function_value) -> VerificationReport:
    """Scan the residual for all 0 <= n <= n_max and report the outcome."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    start = time.perf_counter()
    residuals = enumerate(_residuals(tid, 0, n_max, values))
    first = next((Failure(n, r) for n, r in residuals if r), None)
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(tid.value, n_max, first is None, first, millis)


def verify_all(n_max: int, values: Values = function_value) -> list[VerificationReport]:
    """Run every theorem suite; reports come back in declaration order.

    With the memoized source, each function is first grown once, to its
    largest argument over every suite, so no suite grows it piecemeal.
    """
    if values is function_value:
        largest: dict[F, int] = {}
        for t in chain.from_iterable(_SUITES.values()):
            if t.f is not None:
                largest[t.f] = max(largest.get(t.f, 0), (t.m * n_max + t.r) // t.div)
        for f, n in largest.items():
            function_value(f, n)
    return [verify(tid, n_max, values) for tid in TheoremId]
