"""Named partition-counting functions and the one memoized store of their series.

Nine counting functions are exposed.  Each is an eta quotient in
eta_k = (q^k; q^k)_inf, and each is also an exact infinite product; the
table gives both and what the function counts:

    p       1/eta1                 1/(q;q)             unrestricted partitions
    op      eta2/eta1^2            (-q;q)/(q;q)        overpartitions
    po_bar  eta2^3/(eta1^2 eta4)   (-q;q^2)/(q;q^2)    overpartitions into odd parts
    pd      eta2/eta1              (-q;q)              partitions into distinct parts
    pdo     eta2^2/(eta1 eta4)     (-q;q^2)            partitions into distinct odd parts
    pood    eta2/(eta1 eta4)       (-q;q^2)/(q^2;q^2)  odd parts distinct, even parts free
    p2      eta2/(eta1 eta4)       (q^2;q^4)/(q;q)     parts not congruent to 2 mod 4
    qbar    eta2^2/eta1^2          (-q;q)^2            bipartitions into distinct parts
    peed    eta4/eta1              (q^4;q^4)/(q;q)     even parts distinct, odd parts free

`gf_series` expands the eta quotient (`ETA_QUOTIENTS`) with the sparse
pentagonal kernel and keeps the coefficients in one store, a table per
function, which `function_value` reads too.  The store only grows,
geometrically and under one lock; nothing is expanded at import, and every
caller gets an exact prefix.  The products (`PRODUCTS`, expanded by
`pochhammer_expand`) are the independent reference route that the tests
compare the store against.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from typing import Union

from .series import (
    ProductSpec,
    TruncatedSeries,
    eta_quotient,
    pochhammer_expand,  # noqa: F401  (the reference route; bench/spans.py wraps this name)
    pochhammer_finite,
)

__all__ = [
    "PartitionFunctionId",
    "PRODUCTS",
    "ETA_QUOTIENTS",
    "gf_series",
    "function_value",
    "lebesgue_partial",
]


class PartitionFunctionId(Enum):
    """The nine counting functions; values are the names used by CLI/DSL."""

    P = "p"
    OP = "op"
    PO_ODD = "po_bar"
    PD = "pd"
    PDO = "pdo"
    POOD = "pood"
    P2MOD4 = "p2"
    QBAR = "qbar"
    PEED = "peed"

    @classmethod
    def from_name(cls, name: str) -> "PartitionFunctionId":
        for member in cls:
            if member.value == name:
                return member
        raise KeyError(f"unknown partition function {name!r}")

    @property
    def product(self) -> ProductSpec:
        return PRODUCTS[self]


PRODUCTS: dict[PartitionFunctionId, ProductSpec] = {
    PartitionFunctionId.P: ProductSpec.of((1, 1, 1, -1)),
    PartitionFunctionId.OP: ProductSpec.of((-1, 1, 1, 1), (1, 1, 1, -1)),
    PartitionFunctionId.PO_ODD: ProductSpec.of((-1, 1, 2, 1), (1, 1, 2, -1)),
    PartitionFunctionId.PD: ProductSpec.of((-1, 1, 1, 1)),
    PartitionFunctionId.PDO: ProductSpec.of((-1, 1, 2, 1)),
    PartitionFunctionId.POOD: ProductSpec.of((-1, 1, 2, 1), (1, 2, 2, -1)),
    PartitionFunctionId.P2MOD4: ProductSpec.of((1, 2, 4, 1), (1, 1, 1, -1)),
    PartitionFunctionId.QBAR: ProductSpec.of((-1, 1, 1, 2)),
    PartitionFunctionId.PEED: ProductSpec.of((1, 4, 4, 1), (1, 1, 1, -1)),
}


# {k: e} for prod_k eta_k^e, where eta_k = (q^k; q^k)_inf (Hirschhorn, The
# Power of q, 2017); pood and p2 share one form, so one counting sequence.
ETA_QUOTIENTS: dict[PartitionFunctionId, dict[int, int]] = {
    PartitionFunctionId.P: {1: -1},
    PartitionFunctionId.OP: {2: 1, 1: -2},
    PartitionFunctionId.PO_ODD: {2: 3, 1: -2, 4: -1},
    PartitionFunctionId.PD: {2: 1, 1: -1},
    PartitionFunctionId.PDO: {2: 2, 1: -1, 4: -1},
    PartitionFunctionId.POOD: {2: 1, 1: -1, 4: -1},
    PartitionFunctionId.P2MOD4: {2: 1, 1: -1, 4: -1},
    PartitionFunctionId.QBAR: {2: 2, 1: -2},
    PartitionFunctionId.PEED: {4: 1, 1: -1},
}

_cache: dict[PartitionFunctionId, tuple[int, ...]] = {}
_cache_lock = threading.Lock()
_CACHE_SEED_ORDER = 64


def gf_series(fid: PartitionFunctionId, order: int) -> TruncatedSeries:
    """Exact coefficients of the named function's generating function.

    Read from the store; a request beyond it expands the eta quotient to
    at least twice the stored order, so growing one coefficient at a time
    amortizes to a few expansions.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    table = _cache.get(fid)
    if table is None or order >= len(table):
        with _cache_lock:
            table = _cache.get(fid)
            if table is None or order >= len(table):
                current = len(table) - 1 if table else -1
                grown = max(order, 2 * current, _CACHE_SEED_ORDER)
                table = eta_quotient(ETA_QUOTIENTS[fid], grown).coeffs
                _cache[fid] = table
    return TruncatedSeries(table[: order + 1])


def function_value(fid: PartitionFunctionId, n: Union[int, Fraction]) -> int:
    """Coefficient of q^n, with the out-of-domain convention value 0.

    Negative n and non-integral rational n both return 0, which is what
    every recurrence in this package relies on when its shifted argument
    falls outside Z>=0.
    """
    if isinstance(n, Fraction):
        if n.denominator != 1:
            return 0
        n = int(n)
    if n < 0:
        return 0
    table = _cache.get(fid)
    if table is None or n >= len(table):
        table = gf_series(fid, n).coeffs  # a memo grow: gf_series does the expanding
    return table[n]


def _cache_clear() -> None:
    """Test hook: drop all memoized series."""
    with _cache_lock:
        _cache.clear()


def lebesgue_partial(j_max: int, order: int) -> TruncatedSeries:
    """Partial sums of sum_j (-1;q)_j q^(j(j+1)/2) / (q;q)_j.

    Term j is accumulated incrementally: going from term j-1 to term j
    multiplies by (1+q^(j-1)) * q^j / (1-q^j), which is an O(order) update.
    Terms whose valuation j(j+1)/2 exceeds the order vanish entirely, so
    the partial sums stabilize once j(j+1)/2 > order.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    total = [1] + [0] * order  # j = 0 term
    term = [1] + [0] * order
    for j in range(1, j_max + 1):
        if j * (j + 1) // 2 > order:
            break
        # term *= (1 + q^(j-1)); the j = 1 step doubles (constant 1 + 1)
        if j - 1 == 0:
            term = [2 * c for c in term]
        else:
            for n in range(order, j - 2, -1):
                term[n] += term[n - (j - 1)]
        # term *= q^j
        term = [0] * j + term[: order + 1 - j]
        # term /= (1 - q^j)
        for n in range(j, order + 1):
            term[n] += term[n - j]
        for n in range(order + 1):
            total[n] += term[n]
    return TruncatedSeries(total)


def lebesgue_term(j: int, order: int) -> TruncatedSeries:
    """Term j of the Lebesgue sum, assembled literally from its three parts.

    Used as a cross-check that the incremental accumulation in
    `lebesgue_partial` computes the same thing.
    """
    numerator = pochhammer_finite(-1, 0, 1, j, order)
    shift = TruncatedSeries.monomial(j * (j + 1) // 2, order)
    denominator = pochhammer_finite(1, 1, 1, j, order)
    return numerator * shift * denominator.inverse()
