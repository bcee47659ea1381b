"""Exact arithmetic on truncated formal power series in q.

A :class:`TruncatedSeries` holds integer coefficients for q^0 .. q^N and
represents a formal power series mod q^(N+1).  All arithmetic is exact:
coefficients are Python ints (arbitrary precision) and no floating point
is used anywhere in the engine.

The module also expands q-Pochhammer products, (s*q^a; q^b)_inf and their
finite counterparts, quotients of the Dedekind-eta-style products
eta_k = (q^k; q^k)_inf, and generates the sparse theta series that arise
from Jacobi's triple product identity.  Each theta family is one row of
`THETA_FAMILIES`, a quadratic sum of signs times q^((a*k^2 + b*k)/d), and
`theta_series` is its one generator; eta_k takes its pentagonal terms
from the PENT row.  `THETA_ETA` holds the eta-quotient forms of the ten
families that have one.  A `ProductForm` holds a product of Pochhammer factors
as exponents of (1 - q^n), by period and head, and expands the
gcd-periodic part as an eta quotient; `pochhammer_expand`, one binomial
at a time, is the independent reference route.  Every product, quotient
and Pochhammer or eta expansion goes through one in-place kernel,
`_mul_sparse`, which multiplies or divides a coefficient list by
c0 + sum c*q^g in O(N) per nonzero term.  Series values are immutable
after construction, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "TruncatedSeries",
    "ProductSpec",
    "THETA_FAMILIES",
    "THETA_ETA",
    "series_add",
    "series_sub",
    "series_mul",
    "series_inverse",
    "pochhammer_expand",
    "pochhammer_finite",
    "eta_quotient",
    "eta_passes",
    "ProductForm",
    "theta_series",
    "progression_extract",
]


class TruncatedSeries:
    """A power series mod q^(order+1) with exact integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = tuple(coeffs)
        if not c:
            raise ValueError("a truncated series needs at least the q^0 coefficient")
        self._coeffs = c

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        """Inclusive truncation bound N."""
        return len(self._coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        """coeff * q^exponent, truncated (zero if exponent > order)."""
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coeff
        return cls(c)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self):
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-a for a in self._coeffs)

    def __mul__(self, other: Union["TruncatedSeries", int]) -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries(other * a for a in self._coeffs)
        self._require_same_order(other)
        # the sparser factor supplies the terms: one slice pass per nonzero
        dense, sparse = sorted((self._coeffs, other._coeffs), key=lambda c: c.count(0))
        acc = list(dense)
        _mul_sparse(acc, _terms(sparse), sparse[0])
        return TruncatedSeries(acc)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient mod q^(order+1); the divisor's constant term must
        be +1 or -1 (the units of Z[[q]] with integer inverse coefficients)."""
        self._require_same_order(other)
        acc = list(self._coeffs)
        _mul_sparse(acc, _terms(other._coeffs), other._coeffs[0], divide=True)
        return TruncatedSeries(acc)

    def __rmul__(self, other: int) -> "TruncatedSeries":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse mod q^(order+1), i.e. 1 / self.

        The constant term must be +1 or -1.  The cost is O(N) per nonzero
        coefficient, so inverting a sparse series (a theta series, say)
        costs far less than the generic O(N^2).
        """
        return TruncatedSeries.one(self.order) / self

    def extract(self, m: int, r: int) -> "TruncatedSeries":
        """Arithmetic-progression extraction: coefficient n of the result
        is this series' coefficient at m*n + r."""
        if m < 1 or not 0 <= r < m:
            raise ValueError(f"need m >= 1 and 0 <= r < m, got m={m}, r={r}")
        if self.order < r:
            raise ValueError(f"order {self.order} too small to extract residue {r}")
        return TruncatedSeries(self._coeffs[r :: m])

    def truncate(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return TruncatedSeries(self._coeffs[: order + 1])


# Functional aliases matching the operation vocabulary used elsewhere.

def series_add(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return x + y


def series_sub(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return x - y


def series_mul(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return x * y


def series_inverse(x: TruncatedSeries) -> TruncatedSeries:
    return x.inverse()


def progression_extract(x: TruncatedSeries, m: int, r: int) -> TruncatedSeries:
    return x.extract(m, r)


def _terms(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero (g, c) with g >= 1 of a coefficient sequence, ascending."""
    return [(g, c) for g, c in enumerate(coeffs) if c and g]


def _mul_sparse(
    acc: list[int], terms: Sequence[tuple[int, int]], c0: int = 1, divide: bool = False
) -> None:
    """acc *= c0 + sum c*q^g over terms, in place, truncated to len(acc)-1;
    divide=True divides instead.

    terms are the nonzero (g, c) with g >= 1, in ascending g.  Multiplying
    adds a shifted, scaled copy of the old list per term, each one C-level
    slice pass.  Dividing solves acc_new[n] = c0*(acc[n] - sum c*acc_new[n-g])
    for increasing n, which needs c0 = +-1 (then 1/c0 == c0); dividing by
    1 - q^g alone is a running sum, acc[n] += acc[n-g], in about
    min(g, N/g) C-level passes.  Either way the cost is O(N * len(terms)).
    """
    if divide:
        if c0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant term {c0}")
        if c0 == 1 and len(terms) == 1 and terms[0][1] == -1:
            # 1/(1 - q^g) = sum q^(g*i): g residue classes mod g, or N/g blocks of g
            g = terms[0][0]
            if g * g > len(acc):
                for s in range(g, len(acc), g):  # each block adds the block before it, already summed
                    acc[s : s + g] = map(add, acc[s : s + g], acc[s - g : s])
            else:
                for r in range(g):
                    acc[r::g] = accumulate(acc[r::g])
            return
        # unit coefficients (all of an eta factor's) need no multiply
        plus = [g for g, c in terms if c == 1]
        minus = [g for g, c in terms if c == -1]
        other = [(g, c) for g, c in terms if c not in (1, -1)]
        for n in range(len(acc)):
            t = acc[n]
            for g in plus:
                if g > n:
                    break
                t -= acc[n - g]
            for g in minus:
                if g > n:
                    break
                t += acc[n - g]
            for g, c in other:
                if g > n:
                    break
                t -= c * acc[n - g]
            acc[n] = t if c0 == 1 else -t
        return
    old = acc[:]
    if c0 != 1:
        acc[:] = map(mul, repeat(c0), old)
    for g, c in terms:  # each term is one C-level slice pass
        if c == 1:
            acc[g:] = map(add, acc[g:], old)
        elif c == -1:
            acc[g:] = map(sub, acc[g:], old)
        else:
            acc[g:] = map(add, acc[g:], map(mul, repeat(c), old))


@dataclass(frozen=True)
class ProductSpec:
    """A finite product of factors (sign*q^a; q^b)_inf^e.

    Every factor needs a >= 1 and b >= 1 so its expansion has constant
    term 1 and the whole product is invertible; e may be any nonzero
    integer (negative e puts the factor in the denominator).
    """

    factors: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        for sign, a, b, e in self.factors:
            if sign not in (1, -1):
                raise ValueError(f"factor sign must be +-1, got {sign}")
            if a < 1 or b < 1:
                raise ValueError(f"factor needs a >= 1 and b >= 1, got a={a}, b={b}")
            if e == 0:
                raise ValueError("factor exponent must be nonzero")

    @classmethod
    def of(cls, *factors: tuple[int, int, int, int]) -> "ProductSpec":
        return cls(tuple(factors))

    def inverted(self) -> "ProductSpec":
        """The spec with every exponent negated (the reciprocal product)."""
        return ProductSpec(tuple((s, a, b, -e) for s, a, b, e in self.factors))


def pochhammer_expand(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Expand a ProductSpec exactly mod q^(order+1).

    Each factor is a product of sparse binomials (1 - sign*q^(a+jb)) over
    all j with a+jb <= order, multiplied (e > 0) or divided (e < 0) in
    place, |e| times, in increasing exponent order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = [1] + [0] * order
    for sign, a, b, e in spec.factors:
        for _ in range(abs(e)):
            for m in range(a, order + 1, b):
                _mul_sparse(acc, ((m, -sign),), divide=e < 0)
    return TruncatedSeries(acc)


def pochhammer_finite(sign: int, a: int, b: int, n: int, order: int) -> TruncatedSeries:
    """The finite product (sign*q^a; q^b)_n, i.e. the first n binomials.

    n == 0 is the empty product 1.  Unlike ProductSpec, a == 0 is allowed
    here: (-1; q)_n starts with the constant factor (1 + 1) = 2.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    if a < 0 or b < 1 or n < 0:
        raise ValueError(f"need a >= 0, b >= 1, n >= 0, got a={a}, b={b}, n={n}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = [1] + [0] * order
    if a == 0 and n:
        _mul_sparse(acc, (), 1 - sign)  # the constant binomial (1 - sign*q^0)
        a, n = b, n - 1
    # binomials with exponent > order are congruent to 1 and are skipped
    for m in range(a, min(a + n * b, order + 1), b):
        _mul_sparse(acc, ((m, -sign),))
    return TruncatedSeries(acc)


# name: (a, b, d, two_sided, signs), the sparse quadratic sum
#   sum of signs[k % len(signs)] * q^((a*k^2 + b*k)/d)
# over k in Z (two_sided) or k >= 0, skipping the k where d does not divide
# a*k^2 + b*k.  Signs (1, -1, -1, 1) are (-1)^ceil(k/2) for every integer k.
THETA_FAMILIES: dict[str, tuple[int, int, int, bool, tuple[int, ...]]] = {
    "PENT": (3, 1, 2, True, (1, -1)),
    "PENT_CEIL": (3, 1, 2, True, (1, -1, -1, 1)),
    "PENT2": (3, 1, 1, True, (1, -1)),
    "TRI": (1, 1, 2, False, (1,)),
    "TRI_CEIL": (1, 1, 2, False, (1, -1, -1, 1)),
    "SQ": (1, 0, 1, True, (1,)),
    "TWOSQ": (2, 0, 1, True, (1, -1)),
    "TWO_TRI4": (2, 2, 1, False, (1,)),
    # phi(-q) = sum_j (-1)^j q^(j^2) over j in Z, and the same sum over j >= 0 only
    "SIGNED_SQ": (1, 0, 1, True, (1, -1)),
    "SIGNED_SQ_POS": (1, 0, 1, False, (1, -1)),
    # Merca's generalized pentagonal numbers G_k = 0, 1, 2, 5, 7, 12, ... over
    # k >= 0, signed (-1)^ceil(k/2), are PENT's terms in order; GPENT_HALF
    # keeps q^(G_k/2) for the even G_k, that is q^(j(3j+1)/4) with sign (-1)^j
    "GPENT": (3, 1, 2, True, (1, -1)),
    "GPENT_HALF": (3, 1, 4, True, (1, -1)),
}

# The families that are eta quotients, as {k: e} for prod_k eta_k^e;
# SIGNED_SQ_POS (a false theta) and GPENT_HALF are not.  `dsl.check` reads a
# theta through this form when it decides a statement on exponent sequences.
THETA_ETA: dict[str, dict[int, int]] = {
    "PENT": {1: 1},
    "GPENT": {1: 1},
    "PENT2": {2: 1},
    "PENT_CEIL": {2: 3, 1: -1, 4: -1},
    "TRI": {2: 2, 1: -1},
    "TRI_CEIL": {1: 1, 4: 1, 2: -1},
    "TWO_TRI4": {8: 2, 4: -1},
    "SQ": {2: 5, 1: -2, 4: -2},
    "TWOSQ": {2: 2, 4: -1},
    "SIGNED_SQ": {1: 2, 2: -1},
}


def theta_series(row: tuple[int, int, int, bool, tuple[int, ...]], order: int) -> TruncatedSeries:
    """Expand a THETA_FAMILIES row to q^order.

    Every row has 0 <= b <= a, so a*k^2 + b*k is nonnegative and grows with
    |k| on each side of 0: each side's walk stops at the first k past the order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    a, b, d, two_sided, signs = row
    out = [0] * (order + 1)
    for k, step in ((0, 1), (-1, -1)) if two_sided else ((0, 1),):
        while (m := a * k * k + b * k) <= d * order:
            if not m % d:
                out[m // d] += signs[k % len(signs)]
            k += step
    return TruncatedSeries(out)


def _mul_eta(acc: list[int], k: int, e: int) -> None:
    """acc *= eta_k^e in place, truncated to len(acc)-1; e < 0 divides.

    eta_k = (q^k; q^k)_inf = sum_j (-1)^j q^(k*j(3j+1)/2) has only about
    2*sqrt(2N/(3k)) terms up to q^N (Euler's pentagonal number theorem), so
    each factor costs O(N*sqrt(N/k)) instead of the O(N^2) of its binomials.
    """
    pent = theta_series(THETA_FAMILIES["PENT"], (len(acc) - 1) // k)
    terms = [(k * g, c) for g, c in _terms(pent.coeffs)]
    for _ in range(abs(e) if terms else 0):  # eta_k == 1 below q^k
        _mul_sparse(acc, terms, divide=e < 0)


def eta_passes(exponents: Mapping[int, int], order: int) -> int:
    """Kernel passes of expanding prod_k eta_k^e over {k: e} to q^order:
    |e| times the pentagonal terms of eta_k up to q^order.

    j(3j+1)/2 <= m for j >= 1 exactly when 6j+1 <= isqrt(24m+1), and
    j(3j-1)/2 <= m exactly when 6j-1 <= isqrt(24m+1).
    """
    total = 0
    for k, e in exponents.items():
        s = isqrt(24 * (order // k) + 1)
        total += abs(e) * ((s - 1) // 6 + (s + 1) // 6)
    return total


def eta_quotient(exponents: Mapping[int, int], order: int) -> TruncatedSeries:
    """Expand prod_k eta_k^e over {k: e} exactly mod q^(order+1).

    Numerator factors go first, while the coefficients are still small.
    Every eta_k has constant term 1, so any integer exponents are allowed.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if any(k < 1 for k in exponents):
        raise ValueError(f"eta indices must be >= 1, got {sorted(exponents)}")
    acc = [1] + [0] * order
    _mul_eta_quotient(acc, exponents)
    return TruncatedSeries(acc)


def _mul_eta_quotient(acc: list[int], exponents: Mapping[int, int]) -> None:
    """acc *= prod_k eta_k^e over {k: e} in place, numerator factors first."""
    for k, e in sorted(exponents.items(), key=lambda ke: -ke[1]):
        _mul_eta(acc, k, e)


class ProductForm:
    """scalar * prod_{n >= 1} (1 - q^n)^(a_n), truncated at q^order.

    a_n is classes[n % period] + head.get(n, 0): one exponent per residue
    class mod the period, plus a finite head of corrections at n <= order.
    Nothing of length order is stored.  Build one with `of`; `eta_split`
    turns it into the eta factors and one-term binomials that
    `_mul_eta_binomials` expands.
    """

    # a plain class: building a dataclass costs about 1 ms of every CLI run's import
    __slots__ = ("scalar", "order", "period", "classes", "head")

    def __init__(self, scalar: int, order: int, period: int, classes: tuple[int, ...], head: Mapping[int, int]):
        self.scalar = scalar
        self.order = order
        self.period = period
        self.classes = classes
        self.head = head

    @classmethod
    def of(
        cls, scalar: int, factors: Iterable[tuple[int, int, int, int]], order: int
    ) -> "ProductForm":
        """The form of scalar * prod (sign*q^a; q^b)_inf^e over factors.

        (q^a; q^b) adds e on every n = a (mod b), and its missing n < a go
        into the head; (-q^a; q^b) is (q^2a; q^2b) / (q^a; q^b).  A factor
        whose b would take the period's lcm past the order goes into the
        head as its binomials up to the order instead, so the period never
        exceeds the order.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        exps: dict[tuple[int, int], int] = {}
        for sign, a, b, e in factors:
            parts = ((a, b, e),) if sign == 1 else ((2 * a, 2 * b, e), (a, b, -e))
            for a_, b_, e_ in parts:
                if a_ <= order:  # a binomial past the order is 1
                    exps[a_, b_] = exps.get((a_, b_), 0) + e_
        period = 1
        periodic: list[tuple[int, int, int]] = []
        head: dict[int, int] = {}
        for (a, b), e in sorted(exps.items(), key=lambda abe: abe[0][::-1]):
            if not e:
                continue
            wider = lcm(period, b)
            if wider <= order:
                period = wider
                periodic.append((a, b, e))
                ns = range(a % b or b, a, b)  # the class's n below a
                e = -e
            else:
                ns = range(a, order + 1, b)
            for n in ns:
                head[n] = head.get(n, 0) + e
        classes = [0] * period
        for a, b, e in periodic:
            for r in range(a % b, period, b):
                classes[r] += e
        return cls(scalar, order, period, tuple(classes), {n: e for n, e in head.items() if e})

    def eta_split(self) -> tuple[dict[int, int], dict[int, int]]:
        """({k: e}, {n: e}) with the form == scalar * prod eta_k^e *
        prod (1 - q^n)^e up to q^order.

        Each class takes the low median of its gcd(n, period) group as the
        group's level; Moebius inversion over the divisors of the period
        turns the levels into eta exponents.  A class off its level (that
        of a lone (q; q^3), say) joins the head's binomials by the difference.
        """
        period = self.period
        groups: dict[int, list[int]] = {}
        for r, c in enumerate(self.classes):
            groups.setdefault(gcd(r, period), []).append(c)
        level = {g: sorted(cs)[(len(cs) - 1) // 2] for g, cs in groups.items()}
        eta: dict[int, int] = {}
        for k in sorted(level):  # every divisor of the period, ascending
            eta[k] = level[k] - sum(e for d, e in eta.items() if k % d == 0)
        binomials = dict(self.head)
        for r, c in enumerate(self.classes):
            extra = c - level[gcd(r, period)]
            for n in range(r or period, self.order + 1, period) if extra else ():
                binomials[n] = binomials.get(n, 0) + extra
        return {k: e for k, e in eta.items() if e}, {n: e for n, e in binomials.items() if e}


def _mul_eta_binomials(acc: list[int], eta: Mapping[int, int], binomials: Mapping[int, int]) -> None:
    """acc *= prod_k eta_k^e over eta times prod_n (1 - q^n)^e over
    binomials, in place: the eta factors, then the binomials, numerators first."""
    _mul_eta_quotient(acc, eta)
    for n, e in sorted(binomials.items(), key=lambda ne: (ne[1] < 0, ne[0])):
        for _ in range(abs(e)):
            _mul_sparse(acc, ((n, -1),), divide=e < 0)

