"""Residual checks for every recurrence and convolution identity in scope.

Each theorem or corollary is wired as a residual: (left side) minus
(claimed right side) at index n, so "the identity holds at n" is exactly
"residual == 0".  Failures therefore carry a magnitude, which makes broken
tables easy to diagnose.

All residuals read partition-function values through a `values` callable
(defaulting to the memoized `function_value`), so a test can swap in a
corrupted source and watch the suites catch it.

Summation windows are found by walking |k| upward until the exponent
passes the bound; exponents are exact integers (or Fractions for the
half-pentagonal family), so there is no floating-point edge to get wrong.
"""

from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Optional, Union

from .functions import PartitionFunctionId as F
from .functions import function_value, gf_series, lebesgue_partial
from .report import Failure, VerificationReport
from .series import ceil_half, neg_one_pow

__all__ = [
    "TheoremId",
    "IndicatorKind",
    "indicator_value",
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

Values = Callable[[F, Union[int, Fraction]], int]


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


# ---------------------------------------------------------------------------
# Exponent windows


def _pent(k: int) -> int:
    return k * (3 * k + 1) // 2


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _two_sided(expfn: Callable[[int], int], bound: int) -> Iterator[tuple[int, int]]:
    """(k, expfn(k)) for all k in Z with expfn(k) <= bound, |k| ascending."""
    j = 0
    while True:
        alive = False
        for k in ((0,) if j == 0 else (j, -j)):
            e = expfn(k)
            if e <= bound:
                alive = True
                yield k, e
        if not alive and j > 0:
            return
        j += 1


def _one_sided(expfn: Callable[[int], int], bound) -> Iterator[tuple[int, int]]:
    k = 0
    while True:
        e = expfn(k)
        if e > bound:
            return
        yield k, e
        k += 1


# ---------------------------------------------------------------------------
# Right-hand-side indicators (exact integer arithmetic only)


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
        if _pent(m) == n:
            return neg_one_pow(ceil_half(m))
    return 0


def oblong_indicator(n: int) -> int:
    """1 if n = k(k+1) for some k >= 0, else 0."""
    s = isqrt(4 * n + 1)
    return 1 if s * s == 4 * n + 1 else 0


def origin_indicator(n: int) -> int:
    return 1 if n == 0 else 0


def _zero(n: int) -> int:
    return 0


class IndicatorKind(Enum):
    ZERO = "zero"
    ORIGIN = "origin"
    TRIANGULAR = "triangular"
    SQUARE = "square"
    GEN_PENTAGONAL_SIGNED = "gen-pentagonal-signed"
    OBLONG = "k(k+1)"


_INDICATORS: dict[IndicatorKind, Callable[[int], int]] = {
    IndicatorKind.ZERO: _zero,
    IndicatorKind.ORIGIN: origin_indicator,
    IndicatorKind.TRIANGULAR: triangular_indicator,
    IndicatorKind.SQUARE: square_rhs,
    IndicatorKind.GEN_PENTAGONAL_SIGNED: gen_pentagonal_signed,
    IndicatorKind.OBLONG: oblong_indicator,
}


def indicator_value(kind: IndicatorKind, n: int) -> int:
    return _INDICATORS[kind](n)


# ---------------------------------------------------------------------------
# Residuals.  v is the value source; every sum is LHS - RHS.


def residual_t1(n: int, v: Values = function_value) -> int:
    """sum_k (-1)^k po_bar(n - k(3k+1)/2) minus the signed pentagonal indicator."""
    s = sum(neg_one_pow(k) * v(F.PO_ODD, n - e) for k, e in _two_sided(_pent, n))
    return s - gen_pentagonal_signed(n)


def residual_t2(n: int, v: Values = function_value) -> int:
    """sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) minus [n triangular]."""
    s = sum(neg_one_pow(ceil_half(k)) * v(F.PO_ODD, n - e) for k, e in _one_sided(_tri, n))
    return s - triangular_indicator(n)


def residual_t3(n: int, v: Values = function_value) -> int:
    """po_bar(n) + 2 sum_{k>=1} (-1)^k po_bar(n - 2k^2) minus {2 at squares, 1 at 0}."""
    s = v(F.PO_ODD, n)
    k = 1
    while 2 * k * k <= n:
        s += 2 * neg_one_pow(k) * v(F.PO_ODD, n - 2 * k * k)
        k += 1
    return s - square_rhs(n)


def residual_t4(n: int, v: Values = function_value) -> int:
    """po_bar(n) minus sum_{k>=0} pood(n - T_k)."""
    return v(F.PO_ODD, n) - sum(v(F.POOD, n - e) for _, e in _one_sided(_tri, n))


def residual_t5(n: int, v: Values = function_value) -> int:
    """po_bar(n) minus sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2)."""
    s = sum(neg_one_pow(ceil_half(k)) * v(F.P, n - e) for k, e in _two_sided(_pent, n))
    return v(F.PO_ODD, n) - s


def residual_t6(n: int, v: Values = function_value) -> int:
    """po_bar(n) minus sum_k (-1)^k op(n - 2k^2)."""
    s = sum(neg_one_pow(k) * v(F.OP, n - e) for k, e in _two_sided(lambda k: 2 * k * k, n))
    return v(F.PO_ODD, n) - s


def residual_dissect_odd(n: int, v: Values = function_value) -> int:
    """po_bar(2n+1) minus 2 sum_{k>=0} op(n - 2k(k+1))."""
    s = sum(v(F.OP, n - e) for _, e in _one_sided(lambda k: 2 * k * (k + 1), n))
    return v(F.PO_ODD, 2 * n + 1) - 2 * s


def residual_dissect_even(n: int, v: Values = function_value) -> int:
    """po_bar(2n) minus op(n) minus 2 sum_{k>=1} op(n - 2k^2)."""
    s = 0
    k = 1
    while 2 * k * k <= n:
        s += v(F.OP, n - 2 * k * k)
        k += 1
    return v(F.PO_ODD, 2 * n) - v(F.OP, n) - 2 * s


def residual_t9(n: int, v: Values = function_value) -> int:
    """po_bar(n) minus sum_{k>=0} p2(n - T_k)."""
    return v(F.PO_ODD, n) - sum(v(F.P2MOD4, n - e) for _, e in _one_sided(_tri, n))


def residual_qbar(n: int, v: Values = function_value) -> int:
    """qbar(n) minus sum_{k>=0} p(n - T_k)."""
    return v(F.QBAR, n) - sum(v(F.P, n - e) for _, e in _one_sided(_tri, n))


def residual_pdo_identity(n: int, v: Values = function_value) -> int:
    """Pentagonal alternating sum of po_bar minus the k(3k+1) sum of pdo."""
    lhs = sum(neg_one_pow(k) * v(F.PO_ODD, n - e) for k, e in _two_sided(_pent, n))
    rhs = sum(neg_one_pow(k) * v(F.PDO, n - e) for k, e in _two_sided(lambda k: k * (3 * k + 1), n))
    return lhs - rhs


def residual_pd_identity(n: int, v: Values = function_value) -> int:
    """Triangular alternating sum of po_bar minus the k(3k+1) sum of pd.

    The triangular sum runs over k >= 0 only: T_0 = T_(-1) = 0, so a
    two-sided reading would count every exponent twice and already fails
    at n = 0.  A regression test pins the one-sided reading.
    """
    lhs = sum(neg_one_pow(ceil_half(k)) * v(F.PO_ODD, n - e) for k, e in _one_sided(_tri, n))
    rhs = sum(neg_one_pow(k) * v(F.PD, n - e) for k, e in _two_sided(lambda k: k * (3 * k + 1), n))
    return lhs - rhs


def residual_cor_pdo(n: int, v: Values = function_value) -> int:
    """sum_k (-1)^k pdo(n - k(3k+1)) minus the signed pentagonal indicator."""
    s = sum(neg_one_pow(k) * v(F.PDO, n - e) for k, e in _two_sided(lambda k: k * (3 * k + 1), n))
    return s - gen_pentagonal_signed(n)


def residual_cor_pd(n: int, v: Values = function_value) -> int:
    """sum_k (-1)^k pd(n - k(3k+1)) minus [n triangular]."""
    s = sum(neg_one_pow(k) * v(F.PD, n - e) for k, e in _two_sided(lambda k: k * (3 * k + 1), n))
    return s - triangular_indicator(n)


def parity_residual_pood(n: int, v: Values = function_value) -> int:
    """sum_{k>=0} pood(n - T_k) mod 2; asserted 0 for n >= 1 (vacuous at 0)."""
    if n == 0:
        return 0
    return sum(v(F.POOD, n - e) for _, e in _one_sided(_tri, n)) % 2


def parity_residual_p(n: int, v: Values = function_value) -> int:
    """sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2) mod 2; asserted 0 for n >= 1."""
    if n == 0:
        return 0
    s = sum(neg_one_pow(ceil_half(k)) * v(F.P, n - e) for k, e in _two_sided(_pent, n))
    return s % 2


def parity_residual_p2(n: int, v: Values = function_value) -> int:
    """sum_{k>=0} p2(n - T_k) mod 2; asserted 0 for n >= 1."""
    if n == 0:
        return 0
    return sum(v(F.P2MOD4, n - e) for _, e in _one_sided(_tri, n)) % 2


def residual_euler(n: int, v: Values = function_value) -> int:
    """Euler: sum_k (-1)^k p(n - k(3k+1)/2) minus [n == 0]."""
    s = sum(neg_one_pow(k) * v(F.P, n - e) for k, e in _two_sided(_pent, n))
    return s - origin_indicator(n)


def residual_ewell(n: int, v: Values = function_value) -> int:
    """Ewell: sum_{k>=0} (-1)^ceil(k/2) p(n - T_k) minus pd(n/2) at even n."""
    s = sum(neg_one_pow(ceil_half(k)) * v(F.P, n - e) for k, e in _one_sided(_tri, n))
    rhs = v(F.PD, n // 2) if n % 2 == 0 else 0
    return s - rhs


def residual_cks_square(n: int, v: Values = function_value) -> int:
    """Alternating sums of p over j^2 and 2j^2 minus pdo(n) at even n.

    The j = 0 term appears once (from the j^2 sum only).
    """
    s = sum(neg_one_pow(j) * v(F.P, n - e) for j, e in _one_sided(lambda j: j * j, n))
    j = 1
    while 2 * j * j <= n:
        s += neg_one_pow(j) * v(F.P, n - 2 * j * j)
        j += 1
    rhs = v(F.PDO, n) if n % 2 == 0 else 0
    return s - rhs


def residual_cks_signed(n: int, v: Values = function_value) -> int:
    """p(n) + 2 sum_{j>=1} (-1)^j p(n - j^2) minus (-1)^n pdo(n)."""
    s = v(F.P, n)
    j = 1
    while j * j <= n:
        s += 2 * neg_one_pow(j) * v(F.P, n - j * j)
        j += 1
    return s - neg_one_pow(n) * v(F.PDO, n)


def _merca_g(k: int) -> int:
    c = ceil_half(k)
    return c * (3 * c + neg_one_pow(k)) // 2


def residual_merca_gk(n: int, v: Values = function_value) -> int:
    """Bisected pentagonal relation for p(n); half-integral shifts drop out.

    LHS: sum_{k>=0} (-1)^ceil(k/2) p(n - G_k/2) with G_k the generalized
    pentagonal numbers; RHS: sum_{k>=0} p(n/2 - k(k+1)/8).  Arguments are
    exact rationals and p vanishes off Z>=0.
    """
    lhs = 0
    k = 0
    while True:
        shift = Fraction(_merca_g(k), 2)
        if shift > n:
            break
        lhs += neg_one_pow(ceil_half(k)) * v(F.P, n - shift)
        k += 1
    rhs = 0
    half_n = Fraction(n, 2)
    k = 0
    while True:
        shift = Fraction(k * (k + 1), 8)
        if shift > half_n:
            break
        rhs += v(F.P, half_n - shift)
        k += 1
    return lhs - rhs


def residual_merca_peed_tri(n: int, v: Values = function_value) -> int:
    """sum_{j>=0} (-1)^ceil(j/2) peed(n - T_j) minus [n = k(k+1)]."""
    s = sum(neg_one_pow(ceil_half(j)) * v(F.PEED, n - e) for j, e in _one_sided(_tri, n))
    return s - oblong_indicator(n)


def residual_merca_peed_2sq(n: int, v: Values = function_value) -> int:
    """sum_{j in Z} (-1)^j peed(n - 2j^2) minus [n triangular]."""
    s = sum(neg_one_pow(j) * v(F.PEED, n - e) for j, e in _two_sided(lambda j: 2 * j * j, n))
    return s - triangular_indicator(n)


_RESIDUALS: dict[TheoremId, Callable[[int, Values], int]] = {
    TheoremId.T1: residual_t1,
    TheoremId.T2: residual_t2,
    TheoremId.T3: residual_t3,
    TheoremId.T4: residual_t4,
    TheoremId.T5: residual_t5,
    TheoremId.T6: residual_t6,
    TheoremId.T7_DISSECT_ODD: residual_dissect_odd,
    TheoremId.T8_DISSECT_EVEN: residual_dissect_even,
    TheoremId.T9_P2: residual_t9,
    TheoremId.T_QBAR: residual_qbar,
    TheoremId.T_PDO_IDENT: residual_pdo_identity,
    TheoremId.T_PD_IDENT: residual_pd_identity,
    TheoremId.COR_PDO: residual_cor_pdo,
    TheoremId.COR_PD: residual_cor_pd,
    TheoremId.COR_POOD_PARITY: parity_residual_pood,
    TheoremId.COR_P_PARITY: parity_residual_p,
    TheoremId.COR_P2_PARITY: parity_residual_p2,
    TheoremId.CLASSICAL_EULER: residual_euler,
    TheoremId.CLASSICAL_EWELL: residual_ewell,
    TheoremId.CLASSICAL_CKS_SQ: residual_cks_square,
    TheoremId.CLASSICAL_CKS_SIGNED: residual_cks_signed,
    TheoremId.CLASSICAL_MERCA_GK: residual_merca_gk,
    TheoremId.CLASSICAL_MERCA_PEED_TRI: residual_merca_peed_tri,
    TheoremId.CLASSICAL_MERCA_PEED_2SQ: residual_merca_peed_2sq,
}


def residual(tid: TheoremId, n: int, values: Values = function_value) -> int:
    """Residual of the named identity at n (0 means the identity holds)."""
    if tid is TheoremId.LEBESGUE:
        # pointwise form: coefficient n of (partial sums minus the product)
        j_max = 0
        while j_max * (j_max + 1) // 2 <= n:
            j_max += 1
        return lebesgue_partial(j_max, n)[n] - gf_series(F.PO_ODD, n)[n]
    try:
        fn = _RESIDUALS[tid]
    except KeyError:
        raise ValueError(f"unknown theorem id {tid!r}") from None
    return fn(n, values)


def fast_po_odd_table(n_max: int) -> list[int]:
    """po_bar(0..n_max) via the sparse square-number recurrence.

    Solving the square-indicator relation for po_bar(n) needs only the
    ~sqrt(n/2) earlier entries at n - 2k^2, so the whole table costs
    O(n_max^(3/2)) big-integer additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    table: list[int] = []
    for n in range(n_max + 1):
        acc = square_rhs(n)
        k = 1
        while 2 * k * k <= n:
            acc -= 2 * neg_one_pow(k) * table[n - 2 * k * k]
            k += 1
        table.append(acc)
    return table


def _warm_cache(tid: TheoremId, n_max: int, values: Values) -> None:
    """Pre-touch the largest argument of every function the suite reads, so
    the memo grows once instead of repeatedly inside the scan loop."""
    if values is not function_value:
        return
    top = 2 * n_max + 1 if tid in (TheoremId.T7_DISSECT_ODD, TheoremId.T8_DISSECT_EVEN) else n_max
    needed = {
        TheoremId.T1: (F.PO_ODD,),
        TheoremId.T2: (F.PO_ODD,),
        TheoremId.T3: (F.PO_ODD,),
        TheoremId.T4: (F.PO_ODD, F.POOD),
        TheoremId.T5: (F.PO_ODD, F.P),
        TheoremId.T6: (F.PO_ODD, F.OP),
        TheoremId.T7_DISSECT_ODD: (F.PO_ODD, F.OP),
        TheoremId.T8_DISSECT_EVEN: (F.PO_ODD, F.OP),
        TheoremId.T9_P2: (F.PO_ODD, F.P2MOD4),
        TheoremId.T_QBAR: (F.QBAR, F.P),
        TheoremId.T_PDO_IDENT: (F.PO_ODD, F.PDO),
        TheoremId.T_PD_IDENT: (F.PO_ODD, F.PD),
        TheoremId.COR_PDO: (F.PDO,),
        TheoremId.COR_PD: (F.PD,),
        TheoremId.COR_POOD_PARITY: (F.POOD,),
        TheoremId.COR_P_PARITY: (F.P,),
        TheoremId.COR_P2_PARITY: (F.P2MOD4,),
        TheoremId.CLASSICAL_EULER: (F.P,),
        TheoremId.CLASSICAL_EWELL: (F.P, F.PD),
        TheoremId.CLASSICAL_CKS_SQ: (F.P, F.PDO),
        TheoremId.CLASSICAL_CKS_SIGNED: (F.P, F.PDO),
        TheoremId.CLASSICAL_MERCA_GK: (F.P,),
        TheoremId.CLASSICAL_MERCA_PEED_TRI: (F.PEED,),
        TheoremId.CLASSICAL_MERCA_PEED_2SQ: (F.PEED,),
    }.get(tid, ())
    for fid in needed:
        values(fid, top)


def verify(
    tid: TheoremId,
    n_max: int,
    values: Values = function_value,
) -> VerificationReport:
    """Scan the residual for all 0 <= n <= n_max and report the outcome."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    start = time.perf_counter()
    first: Optional[Failure] = None
    if tid is TheoremId.LEBESGUE:
        j_max = 0
        while j_max * (j_max + 1) // 2 <= n_max:
            j_max += 1
        partial = lebesgue_partial(j_max, n_max)
        product = gf_series(F.PO_ODD, n_max)
        for n in range(n_max + 1):
            diff = partial[n] - product[n]
            if diff:
                first = Failure(n, diff)
                break
    else:
        fn = _RESIDUALS[tid]
        _warm_cache(tid, n_max, values)
        for n in range(n_max + 1):
            r = fn(n, values)
            if r:
                first = Failure(n, r)
                break
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(tid.value, n_max, first is None, first, millis)


def verify_all(
    n_max: int,
    values: Values = function_value,
    threads: int = 1,
) -> list[VerificationReport]:
    """Run every theorem suite; reports come back in declaration order.

    threads > 1 fans the suites out over a thread pool (residuals are pure
    given the shared memo); 0 picks a pool size automatically.
    """
    ids = list(TheoremId)
    if threads == 1:
        return [verify(tid, n_max, values) for tid in ids]
    from concurrent.futures import ThreadPoolExecutor

    workers = threads if threads > 0 else None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: verify(t, n_max, values), ids))
