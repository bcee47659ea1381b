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

One store holds the coefficients of eta quotients, a table per key: the
nonzero exponents {(k, e)} of prod eta_k^e (`eta_key`), which are unique to
the series.  A function name is a key (`KEYS`), so pood and p2 share one
table; `gf_series` and `function_value` read it, and the identity language
stores the eta quotient of any product chain there too (`eta_series`).  A
missing or short key is expanded from the stored table whose exponent
difference takes the fewest kernel passes by its plan (`series.eta_passes`:
sparse theta factors and pentagonal eta_k), or from 1 when none is
cheaper.  Tables only grow, geometrically and under one lock; nothing is
expanded at import, and every caller gets an exact prefix.  Past
MAX_DERIVED_KEYS keys besides the named ones, the least recently used is
dropped.  The products (`PRODUCTS`, expanded by `pochhammer_expand`) are the
independent reference route that the tests compare the store against.
"""

from __future__ import annotations

import threading
from enum import Enum
from operator import add
from typing import Callable, Hashable, Sequence

from .series import (
    EtaKey,
    ProductSpec,
    TruncatedSeries,
    _mul_eta_quotient,
    _mul_sparse,
    eta_key,
    eta_passes,
    eta_quotient,
    pochhammer_expand,  # noqa: F401  (the reference route; bench/spans.py wraps this name)
    pochhammer_finite,
)

__all__ = [
    "PartitionFunctionId",
    "PRODUCTS",
    "ETA_QUOTIENTS",
    "KEYS",
    "eta_key",
    "eta_series",
    "gf_series",
    "function_value",
    "lebesgue_partial",
    "Values",
    "ORACLE_MAX_N",
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


# A source of coefficients, called as values(fid, n) like `function_value`.
Values = Callable[[PartitionFunctionId, int], int]

# The largest n that brute-force enumeration (`oracle`) counts.  It is kept
# here, not in `oracle`, so that the CLI's help text imports no oracle.
ORACLE_MAX_N = 60


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


KEYS: dict[PartitionFunctionId, EtaKey] = {
    fid: eta_key(exponents) for fid, exponents in ETA_QUOTIENTS.items()
}
_NAMED = frozenset(KEYS.values())
# Keys other than the named ones (a product chain's eta quotient) kept at
# once, least recently used first out; the named keys are never dropped.
MAX_DERIVED_KEYS = 32

# eta key -> exact coefficients from q^0; derived keys in order of last use
_cache: dict[EtaKey, Sequence[int]] = {}
# one lock for every store; reentrant, as growing a residual table reads this store
_cache_lock = threading.RLock()
_CACHE_SEED_ORDER = 64


def grown(store: dict, key: Hashable, order: int, expand: Callable[[int], Sequence[int]]) -> Sequence[int]:
    """store[key] once it holds index `order`: a shorter table is replaced,
    under the lock, by `expand(n)` for n at least twice its order, so growing
    one index at a time amortizes to a few expansions.  Tables only grow and
    every expansion is an exact prefix of the next."""
    table = store.get(key)
    if table is None or order >= len(table):
        with _cache_lock:
            table = store.get(key)
            if table is None or order >= len(table):
                current = len(table) - 1 if table else -1
                table = expand(max(order, 2 * current, _CACHE_SEED_ORDER))
                store[key] = table
    return table


def _expand_key(key: EtaKey, order: int) -> Sequence[int]:
    """The eta quotient `key` to q^order, from the stored table holding
    q^order whose exponent difference to `key` takes the fewest kernel
    passes by its plan (`eta_passes`), or from 1 when no stored table is
    cheaper."""
    target = dict(key)
    base, diff, cost = None, target, eta_passes(target, order)
    for stored, table in _cache.items():
        if len(table) > order:
            step = dict(target)
            for k, e in stored:
                step[k] = step.get(k, 0) - e
            step_cost = eta_passes(step, order)
            if step_cost < cost:
                base, diff, cost = table, step, step_cost
    if base is None:
        return eta_quotient(target, order).coeffs
    acc = list(base[: order + 1])
    _mul_eta_quotient(acc, {k: e for k, e in diff.items() if e})
    return acc


def eta_series(key: EtaKey, order: int) -> TruncatedSeries:
    """The eta quotient `key` (see `eta_key`) to q^order, read from the store
    and grown by `_expand_key`.  Past MAX_DERIVED_KEYS derived keys, the least
    recently used one is dropped."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    with _cache_lock:
        table = grown(_cache, key, order, lambda n: _expand_key(key, n))
        if key not in _NAMED:
            _cache[key] = _cache.pop(key)  # now the most recently used
            derived = [k for k in _cache if k not in _NAMED]
            for old in derived[: len(derived) - MAX_DERIVED_KEYS]:
                del _cache[old]
    return TruncatedSeries(table[: order + 1])


def gf_series(fid: PartitionFunctionId, order: int) -> TruncatedSeries:
    """Exact coefficients of the named function's generating function: its
    eta quotient's table in the store."""
    return eta_series(KEYS[fid], order)


def function_value(fid: PartitionFunctionId, n: int) -> int:
    """Coefficient of q^n, and 0 for negative n (an index shifted below zero)."""
    if n < 0:
        return 0
    table = _cache.get(KEYS[fid])
    if table is None or n >= len(table):
        table = gf_series(fid, n).coeffs  # a memo grow: gf_series does the expanding
    return table[n]


def _cache_clear() -> None:
    """Test hook: drop all memoized series."""
    with _cache_lock:
        _cache.clear()


def lebesgue_partial(j_max: int, order: int) -> TruncatedSeries:
    """Partial sums of sum_j (-1;q)_j q^(j(j+1)/2) / (q;q)_j.

    Term j is zero below its valuation j(j+1)/2, so it is kept in a window
    from there on: going from term j-1 to term j moves the window by j (the
    factor q^j), multiplies by 1 + q^(j-1) (by 2 for j = 1) in one slice
    add and divides by 1 - q^j, in place on the window alone, and one
    slice add puts it into the sum at q^(j(j+1)/2).  Terms whose valuation
    exceeds the order vanish entirely, so the partial sums stabilize once
    j(j+1)/2 > order.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    total = [1] + [0] * order  # j = 0 term
    term = total[:]  # term j at q^(start + i), i <= order - start
    start = 0
    for j in range(1, j_max + 1):
        start += j
        if start > order:
            break
        del term[order - start + 1 :]
        if j == 1:
            term[:] = map(add, term, term)
        else:
            term[j - 1 :] = map(add, term[j - 1 :], term)
        _mul_sparse(term, [(j, -1)], divide=True)
        total[start:] = map(add, total[start:], term)
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
