"""Exact arithmetic on truncated formal power series in q.

A :class:`TruncatedSeries` holds integer coefficients for q^0 .. q^N and
represents a formal power series mod q^(N+1).  All arithmetic is exact:
coefficients are Python ints (arbitrary precision) and no floating point
is used anywhere in the engine.

The module also expands q-Pochhammer products, (s*q^a; q^b)_inf and their
finite counterparts, quotients of the Dedekind-eta-style products
eta_k = (q^k; q^k)_inf, and generates the sparse theta series that arise
from Jacobi's triple product identity.  Series values are immutable after
construction, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "TruncatedSeries",
    "ProductSpec",
    "ThetaFamily",
    "THETA_FAMILIES",
    "ceil_half",
    "neg_one_pow",
    "series_add",
    "series_sub",
    "series_mul",
    "series_inverse",
    "pochhammer_expand",
    "pochhammer_finite",
    "eta_quotient",
    "theta_series",
    "progression_extract",
]


def ceil_half(k: int) -> int:
    """Ceiling of k/2 for any integer k, fixed as floor((k+1)/2).

    This is the unique convention under which the signed pentagonal theta
    reproduces the triple-product expansion; ceil_half(-1) == 0 and
    ceil_half(-3) == -1.
    """
    return (k + 1) // 2


def neg_one_pow(m: int) -> int:
    """(-1)**m as an exact int, valid for negative m."""
    return 1 - 2 * (m & 1)


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
        n = self.order
        out = [0] * (n + 1)
        y = other._coeffs
        for i, xi in enumerate(self._coeffs):
            if xi:
                for j in range(n + 1 - i):
                    yj = y[j]
                    if yj:
                        out[i + j] += xi * yj
        return TruncatedSeries(out)

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
        """Multiplicative inverse mod q^(order+1).

        The constant term must be +1 or -1 (the units of Z[[q]] with
        integer inverse coefficients in this artifact).  Coefficient n of
        the inverse is obtained from coefficients < n by incremental
        convolution; the inner sum skips zero coefficients, so inverting
        a sparse series (a theta series, say) costs far less than the
        generic O(N^2).
        """
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant term {c0}")
        n = self.order
        nz = [(k, ck) for k, ck in enumerate(self._coeffs) if ck and k > 0]
        inv = [0] * (n + 1)
        inv[0] = c0  # 1/c0 == c0 for c0 = +-1
        for m in range(1, n + 1):
            acc = 0
            for k, ck in nz:
                if k > m:
                    break
                acc += ck * inv[m - k]
            inv[m] = -c0 * acc
        return TruncatedSeries(inv)

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


def _mul_binomial(acc: list[int], sign: int, m: int) -> None:
    """acc *= (1 - sign*q^m) in place, truncated to len(acc)-1.

    m == 0 degenerates to the scalar (1 - sign): zero for sign=+1, two
    for sign=-1 (the finite (-1;q)_n products need this).
    """
    if m == 0:
        c = 1 - sign
        for i in range(len(acc)):
            acc[i] *= c
        return
    if sign == 1:
        for n in range(len(acc) - 1, m - 1, -1):
            acc[n] -= acc[n - m]
    else:
        for n in range(len(acc) - 1, m - 1, -1):
            acc[n] += acc[n - m]


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
    all j with a+jb <= order, multiplied in increasing exponent order.
    Factors with negative exponent are expanded with positive power into a
    common denominator, which is inverted once at the end.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [1] + [0] * order
    den: list[int] | None = None
    for sign, a, b, e in spec.factors:
        if e > 0:
            target, reps = num, e
        else:
            if den is None:
                den = [1] + [0] * order
            target, reps = den, -e
        for _ in range(reps):
            m = a
            while m <= order:
                _mul_binomial(target, sign, m)
                m += b
    result = TruncatedSeries(num)
    if den is not None:
        result = result * TruncatedSeries(den).inverse()
    return result


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
    for k in range(n):
        m = a + k * b
        # binomials with m > order are congruent to 1 and can be skipped
        if m <= order:
            _mul_binomial(acc, sign, m)
    return TruncatedSeries(acc)


Exponent = Union[int, Fraction]


@dataclass(frozen=True)
class ThetaFamily:
    """A named exponent-and-sign rule generating a sparse theta series.

    exponent(k) must be nonnegative and strictly increasing in |k| within
    the family's index range, so the terms below any truncation order form
    a finite, computable set.  Exponents may be Fractions (half-integral);
    non-integral exponents contribute nothing to an integer-power series.
    """

    name: str
    exponent: Callable[[int], Exponent]
    sign: Callable[[int], int]
    two_sided: bool

    def indices_up_to(self, bound: int) -> list[int]:
        """All k in range with exponent(k) <= bound, in |k| order."""
        out: list[int] = []
        j = 0
        while True:
            ks = (0,) if j == 0 else ((j, -j) if self.two_sided else (j,))
            alive = False
            for k in ks:
                if self.exponent(k) <= bound:
                    alive = True
                    out.append(k)
            if not alive and j > 0:
                return out
            j += 1


def _pent(k: int) -> int:
    return k * (3 * k + 1) // 2


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _merca_gpent(k: int) -> int:
    c = ceil_half(k)
    return c * (3 * c + neg_one_pow(k)) // 2


THETA_FAMILIES: dict[str, ThetaFamily] = {
    f.name: f
    for f in (
        ThetaFamily("PENT", _pent, neg_one_pow, two_sided=True),
        ThetaFamily("PENT_CEIL", _pent, lambda k: neg_one_pow(ceil_half(k)), two_sided=True),
        ThetaFamily("PENT2", lambda k: k * (3 * k + 1), neg_one_pow, two_sided=True),
        ThetaFamily("TRI", _tri, lambda k: 1, two_sided=False),
        ThetaFamily("TRI_CEIL", _tri, lambda k: neg_one_pow(ceil_half(k)), two_sided=False),
        ThetaFamily("SQ", lambda k: k * k, lambda k: 1, two_sided=True),
        ThetaFamily("TWOSQ", lambda k: 2 * k * k, neg_one_pow, two_sided=True),
        ThetaFamily("TWO_TRI4", lambda k: 2 * k * (k + 1), lambda k: 1, two_sided=False),
        ThetaFamily(
            "GPENT_HALF",
            lambda k: Fraction(_merca_gpent(k), 2),
            lambda k: neg_one_pow(ceil_half(k)),
            two_sided=False,
        ),
    )
}


def theta_series(family: ThetaFamily, order: int) -> TruncatedSeries:
    """Sum of sign(k)*q^exponent(k) over all in-range k with exponent <= order.

    Half-integral exponents (GPENT_HALF) are skipped: they live at powers
    the integer-exponent series does not have.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (order + 1)
    for k in family.indices_up_to(order):
        e = family.exponent(k)
        if isinstance(e, Fraction):
            if e.denominator != 1:
                continue
            e = int(e)
        out[e] += family.sign(k)
    return TruncatedSeries(out)


def _mul_eta(acc: list[int], k: int, e: int) -> None:
    """acc *= eta_k^e in place, truncated to len(acc)-1; e < 0 divides.

    eta_k = (q^k; q^k)_inf = sum_j (-1)^j q^(k*j(3j+1)/2) has only about
    2*sqrt(2N/(3k)) terms up to q^N (Euler's pentagonal number theorem), so
    each factor costs O(N*sqrt(N/k)) instead of the O(N^2) of its binomials.
    Multiplying adds shifted copies of the old list; dividing solves
    acc_new[n] = acc[n] - sum_g s_g * acc_new[n - g] for increasing n.
    """
    order = len(acc) - 1
    pent = THETA_FAMILIES["PENT"]
    terms = sorted((k * pent.exponent(j), pent.sign(j)) for j in pent.indices_up_to(order // k) if j)
    plus = [g for g, s in terms if s > 0]
    minus = [g for g, s in terms if s < 0]
    for _ in range(abs(e)):
        if e > 0:
            old = acc[:]
            for g in plus:
                acc[g:] = map(add, acc[g:], old)
            for g in minus:
                acc[g:] = map(sub, acc[g:], old)
            continue
        for n in range(k, order + 1):
            t = acc[n]
            for g in minus:
                if g > n:
                    break
                t += acc[n - g]
            for g in plus:
                if g > n:
                    break
                t -= acc[n - g]
            acc[n] = t


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
    for k, e in sorted(exponents.items(), key=lambda ke: -ke[1]):
        _mul_eta(acc, k, e)
    return TruncatedSeries(acc)
