"""Residual checks for every recurrence and convolution identity in scope.

Each theorem or corollary is wired as a residual: (left side) minus
(claimed right side) at index n, so "the identity holds at n" is exactly
"residual == 0".  Failures therefore carry a magnitude, which makes broken
tables easy to diagnose.

Every suite is one statement of the identity language in `_SUITES`, most
of them a product identity between a generating function and a theta
series, such as T1, `po_bar * theta(PENT) == theta(PENT_CEIL)`.  `verify`
runs it through `dsl.check`, which decides 19 suites on their eta
exponents: the products, the three with a subs of a product, and the
dissections T7 and T8, whose extract of po_bar is op times a progression
of theta(SQ) that is itself a theta row, so they read no table.  Of the
other 6, the `mod 2` parities compare coefficients, and the rest compare
their sides less their common exponent part.
`residual(tid, n)` is lhs - rhs at n by `dsl.residuals`, read
(with the memoized source) from a table that grows like the function store.

All suites read partition-function values through a `values` callable
(defaulting to the memoized `function_value`), so a test can swap in a
corrupted source and watch the suites catch it, coefficient by coefficient.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Optional, Sequence

from .dsl import MAX_ORDER, EvalError, IdentityStatement, check, grow, parse, residuals
from .functions import Values, function_value, grown
from .functions import gf_series, lebesgue_partial  # noqa: F401  (bench/spans.py wraps these names)
from .report import VerificationReport
from .series import THETA_FAMILIES, theta_series

__all__ = [
    "TheoremId",
    "residual",
    "fast_po_odd_table",
    "verify",
    "verify_all",
    "Values",
    "VERIFY_MAX_N",
]

# The largest n_max: past it, T7_DISSECT_ODD's extract would need po_bar to
# 2n+1 > MAX_ORDER, which fails with the extract bound's error, although the
# dissection reads no table.
VERIFY_MAX_N = (MAX_ORDER - 1) // 2


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


# Each suite as one statement of the identity language (`dsl`), checked to
# order n_max.  The comment above each gives its coefficient form at q^n.
_SUITES: dict[TheoremId, str] = {
    # sum_k (-1)^k po_bar(n - k(3k+1)/2) = (-1)^ceil(m/2) at n = m(3m+1)/2, else 0
    TheoremId.T1: "po_bar * theta(PENT) == theta(PENT_CEIL)",
    # sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) = [n triangular]
    TheoremId.T2: "po_bar * theta(TRI_CEIL) == theta(TRI)",
    # po_bar(n) + 2 sum_{k>=1} (-1)^k po_bar(n - 2k^2) = 2 at squares n > 0, 1 at n = 0
    TheoremId.T3: "po_bar * theta(TWOSQ) == theta(SQ)",
    # po_bar(n) = sum_{k>=0} pood(n - T_k)
    TheoremId.T4: "po_bar == pood * theta(TRI)",
    # po_bar(n) = sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2)
    TheoremId.T5: "po_bar == p * theta(PENT_CEIL)",
    # po_bar(n) = sum_k (-1)^k op(n - 2k^2)
    TheoremId.T6: "po_bar == op * theta(TWOSQ)",
    # po_bar(2n+1) = 2 sum_{k>=0} op(n - 2k(k+1))
    TheoremId.T7_DISSECT_ODD: "extract(po_bar, 2, 1) == 2 * op * theta(TWO_TRI4)",
    # po_bar(2n) = op(n) + 2 sum_{k>=1} op(n - 2k^2)
    TheoremId.T8_DISSECT_EVEN: "extract(po_bar, 2, 0) == op * subs(theta(SQ), q^2)",
    # po_bar(n) = sum_{k>=0} p2(n - T_k)
    TheoremId.T9_P2: "po_bar == p2 * theta(TRI)",
    # qbar(n) = sum_{k>=0} p(n - T_k)
    TheoremId.T_QBAR: "qbar == p * theta(TRI)",
    # sum_k (-1)^k po_bar(n - k(3k+1)/2) = sum_k (-1)^k pdo(n - k(3k+1))
    TheoremId.T_PDO_IDENT: "po_bar * theta(PENT) == pdo * theta(PENT2)",
    # sum_{k>=0} (-1)^ceil(k/2) po_bar(n - T_k) = sum_k (-1)^k pd(n - k(3k+1)); one-sided,
    # as T_k = T_(-k-1): a two-sided sum counts each exponent twice and fails at n = 0
    TheoremId.T_PD_IDENT: "po_bar * theta(TRI_CEIL) == pd * theta(PENT2)",
    # sum_k (-1)^k pdo(n - k(3k+1)) = (-1)^ceil(m/2) at n = m(3m+1)/2, else 0
    TheoremId.COR_PDO: "pdo * theta(PENT2) == theta(PENT_CEIL)",
    # sum_k (-1)^k pd(n - k(3k+1)) = [n triangular]
    TheoremId.COR_PD: "pd * theta(PENT2) == theta(TRI)",
    # sum_{k>=0} pood(n - T_k) is even for n >= 1 (vacuous at n = 0)
    TheoremId.COR_POOD_PARITY: "pood * theta(TRI) == 0 mod 2",
    # sum_k (-1)^ceil(k/2) p(n - k(3k+1)/2) is even for n >= 1
    TheoremId.COR_P_PARITY: "p * theta(PENT_CEIL) == 0 mod 2",
    # sum_{k>=0} p2(n - T_k) is even for n >= 1
    TheoremId.COR_P2_PARITY: "p2 * theta(TRI) == 0 mod 2",
    # Euler: sum_k (-1)^k p(n - k(3k+1)/2) = [n == 0]
    TheoremId.CLASSICAL_EULER: "p * theta(PENT) == 1",
    # Ewell: sum_{k>=0} (-1)^ceil(k/2) p(n - T_k) = pd(n/2) at even n, 0 at odd n
    TheoremId.CLASSICAL_EWELL: "p * theta(TRI_CEIL) == subs(pd, q^2)",
    # sum_{j>=0} (-1)^j p(n - j^2) + sum_{j>=1} (-1)^j p(n - 2j^2) = pdo(n) at even n,
    # 0 at odd n; the j = 0 term appears once, so the doubled sum drops its own
    TheoremId.CLASSICAL_CKS_SQ: (
        "p * (theta(SIGNED_SQ_POS) + subs(theta(SIGNED_SQ_POS), q^2) - 1)"
        " == subs(extract(pdo, 2, 0), q^2)"
    ),
    # p(n) + 2 sum_{j>=1} (-1)^j p(n - j^2) = (-1)^n pdo(n)
    TheoremId.CLASSICAL_CKS_SIGNED: "p * theta(SIGNED_SQ) == subs(pdo, -q^1)",
    # Merca: sum_{k>=0} (-1)^ceil(k/2) p(n - G_k/2) = sum_{k>=0} p(n/2 - k(k+1)/8), with G_k
    # = 0, 1, 2, 5, 7, ... and p zero off Z>=0.  On the doubled index both sides are integral:
    # [q^(2n)] p(q^2) q^(G_k) = p(n - G_k/2) and [q^(2n)] p(q^4) q^(T_k) = p(n/2 - T_k/4).
    TheoremId.CLASSICAL_MERCA_GK: (
        "extract(subs(p, q^2) * theta(GPENT), 2, 0) == extract(subs(p, q^4) * theta(TRI), 2, 0)"
    ),
    # sum_{j>=0} (-1)^ceil(j/2) peed(n - T_j) = [n = k(k+1)]
    TheoremId.CLASSICAL_MERCA_PEED_TRI: "peed * theta(TRI_CEIL) == subs(theta(TRI), q^2)",
    # sum_{j in Z} (-1)^j peed(n - 2j^2) = [n triangular]
    TheoremId.CLASSICAL_MERCA_PEED_2SQ: "peed * theta(TWOSQ) == theta(TRI)",
    # the partial sums of the Lebesgue series, exact below q^5151 (the valuation of term 101)
    TheoremId.LEBESGUE: "lebesgue(100) == po_bar",
}


@cache
def _statement(tid: TheoremId) -> IdentityStatement:
    """The suite's statement, parsed on first use; its order is the largest
    n_max it is checked to."""
    return parse(f"{_SUITES[TheoremId(tid)]} within {VERIFY_MAX_N}")[0]


def _bounded(tid: TheoremId, n_max: int, values: Values) -> tuple[IdentityStatement, int, Optional[Values]]:
    """(statement, n_max, source) as `dsl` takes them, once n_max is within the suite's order."""
    stmt = _statement(tid)
    if n_max > stmt.order:
        raise EvalError(f"n_max {n_max} is above the suite's order {stmt.order}", stmt.label())
    return stmt, n_max, None if values is function_value else values


def _residuals(tid: TheoremId, n_max: int, values: Values) -> list[int]:
    """Residuals of the suite at n = 0..n_max."""
    return residuals(*_bounded(tid, n_max, values))


_tables: dict[TheoremId, Sequence[int]] = {}  # residuals of the memoized source


def residual(tid: TheoremId, n: int, values: Values = function_value) -> int:
    """Residual of the named identity at n (0 means the identity holds).

    With the memoized source it is read from the suite's residual table;
    any other source is read afresh, for every index up to n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = _statement(tid).order
    if values is function_value and n <= order:
        return grown(_tables, tid, n, lambda k: _residuals(tid, min(k, order), values))[n]
    return _residuals(tid, n, values)[n]  # above the order this raises EvalError


def fast_po_odd_table(n_max: int) -> list[int]:
    """po_bar(0..n_max) as the theta quotient theta(SQ) / theta(TWOSQ).

    That is T3 solved for po_bar(n) by the sparse division: each entry needs
    only the ~sqrt(n/2) earlier entries at n - 2k^2, so the whole table costs
    O(n_max^(3/2)) big-integer additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return list(theta_series(THETA_FAMILIES["SQ"], n_max) / theta_series(THETA_FAMILIES["TWOSQ"], n_max))


def verify(tid: TheoremId, n_max: int, values: Values = function_value) -> VerificationReport:
    """The suite checked by `dsl.check` for all 0 <= n <= n_max, reported under its id."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    report = check(*_bounded(tid, n_max, values))
    return VerificationReport(tid.value, n_max, report.passed, report.first_failure, report.millis)


def verify_all(n_max: int, values: Values = function_value) -> list[VerificationReport]:
    """Run every theorem suite; reports come back in declaration order.

    With the memoized source, each store table that the suites read is
    first grown once (`dsl.grow`); at n_max = 2000, that is p (MERCA_GK's
    pulled subs) and po_bar (LEBESGUE's product side) to q^2000.
    """
    if values is function_value and n_max <= VERIFY_MAX_N:  # above it, verify raises
        grow(map(_statement, TheoremId), n_max)
    return [verify(tid, n_max, values) for tid in TheoremId]
