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
`theta_terms` is its one generator, of the whole sum or of one
progression extract(sum, m, r) alone; eta_k takes its pentagonal terms
from the PENT row.  `THETA_ETA` holds the eta-quotient forms of the ten
families that have one.  An eta quotient is expanded by a plan (`_plan`):
up to two of those thetas at q^s, each one sparse factor in place of
several eta_k, and the eta_k left over as pentagonal passes, the
cheapest found by kernel passes (`eta_passes`).  po_bar, which is
eta2^3/(eta1^2 eta4) and also phi(-q^2)/phi(-q), takes 75 passes to q^2000
instead of 330.  A `ProductForm` holds a product of Pochhammer factors
as exponents of (1 - q^n), by period and head, and expands the
gcd-periodic part as an eta quotient; `pochhammer_expand`, one binomial
at a time, is the independent reference route.  Every product, quotient
and Pochhammer or eta expansion goes through one in-place kernel,
`_mul_sparse`, which multiplies or divides a coefficient list by
c0 + sum c*q^g in O(N) per nonzero term.  Series values are immutable
after construction, so they are safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence, Union

from .record import Record

__all__ = [
    "TruncatedSeries",
    "ProductSpec",
    "THETA_FAMILIES",
    "THETA_ETA",
    "pochhammer_expand",
    "pochhammer_finite",
    "EtaKey",
    "eta_key",
    "eta_quotient",
    "eta_passes",
    "ProductForm",
    "theta_series",
    "theta_terms",
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


def _terms(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero (g, c) with g >= 1 of a coefficient sequence, ascending."""
    return [(g, c) for g, c in enumerate(coeffs) if c and g]


def _by_value(terms: Sequence[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """terms as (c, [g, ...]): one group per distinct coefficient, in order of
    first appearance, each group's g ascending."""
    groups: dict[int, list[int]] = {}
    for g, c in terms:
        groups.setdefault(c, []).append(g)
    return list(groups.items())


def _mul_sparse(
    acc: list[int], terms: Sequence[tuple[int, int]], c0: int = 1, divide: bool = False
) -> None:
    """acc *= c0 + sum c*q^g over terms, in place, truncated to len(acc)-1;
    divide=True divides instead.

    terms are the nonzero (g, c) with g >= 1, in ascending g, and the terms
    that share a coefficient are applied as one group.  Multiplying adds a
    shifted copy of the old list per term, each one C-level slice pass, and
    scales the old list once per group.  Dividing solves
    acc_new[n] = c0*(acc[n] - sum c*acc_new[n-g]) for increasing n, which
    needs c0 = +-1 (then 1/c0 == c0), with one multiply per n and group of a
    non-unit coefficient (all of phi(+-q)'s 2s are one); dividing by
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
        groups = _by_value(terms)
        for n in range(len(acc)):
            t = acc[n]
            for c, gs in groups:
                if c == 1:  # unit coefficients (all of an eta factor's) need no multiply
                    for g in gs:
                        if g > n:
                            break
                        t -= acc[n - g]
                elif c == -1:
                    for g in gs:
                        if g > n:
                            break
                        t += acc[n - g]
                else:
                    u = 0
                    for g in gs:
                        if g > n:
                            break
                        u += acc[n - g]
                    t -= c * u
            acc[n] = t if c0 == 1 else -t
        return
    old = acc[:]
    if c0 != 1:
        acc[:] = map(mul, repeat(c0), old)
    for c, gs in _by_value(terms):  # each term is one C-level slice pass
        if c in (1, -1):
            scaled = old
        elif len(gs) == 1:  # read once: no list
            scaled = map(mul, repeat(c), old)
        else:
            scaled = list(map(mul, repeat(c, len(old) - gs[0]), old))
        for g in gs:
            acc[g:] = map(sub if c == -1 else add, acc[g:], scaled)


class ProductSpec(Record):
    """A finite product of factors (sign*q^a; q^b)_inf^e, held as a tuple
    `factors` of (sign, a, b, e).

    Every factor needs a >= 1 and b >= 1 so its expansion has constant
    term 1 and the whole product is invertible; e may be any nonzero
    integer (negative e puts the factor in the denominator).
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int, int, int], ...]) -> None:
        for sign, a, b, e in factors:
            if sign not in (1, -1):
                raise ValueError(f"factor sign must be +-1, got {sign}")
            if a < 1 or b < 1:
                raise ValueError(f"factor needs a >= 1 and b >= 1, got a={a}, b={b}")
            if e == 0:
                raise ValueError("factor exponent must be nonzero")
        super().__init__(factors)

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


_Row = tuple[int, int, int, bool, tuple[int, ...]]


def theta_terms(row: _Row, order: int, m: int = 1, r: int = 0) -> dict[int, int]:
    """{n: c} for the nonzero c*q^n, n <= order, of the progression
    extract(row's sum, m, r): its terms at q^(m*n + r), walked on the row
    alone, about sqrt(m*order) of them.

    Every row has 0 <= b <= a, so a*k^2 + b*k is nonnegative and grows with
    |k| on each side of 0: each side's walk stops at the first k past the
    order.  a*k^2 + b*k = d*(m*n + r) exactly when it is d*r mod d*m.
    """
    a, b, d, two_sided, signs = row
    top, step_mod, want = d * (m * order + r), d * m, d * r
    out: dict[int, int] = {}
    for k, step in ((0, 1), (-1, -1)) if two_sided else ((0, 1),):
        while (x := a * k * k + b * k) <= top:
            if x % step_mod == want:
                n = x // step_mod
                out[n] = out.get(n, 0) + signs[k % len(signs)]
            k += step
    return {n: c for n, c in out.items() if c}


def theta_series(row: _Row, order: int, m: int = 1, r: int = 0) -> TruncatedSeries:
    """Expand a THETA_FAMILIES row to q^order, or its progression
    extract(row's sum, m, r) for m >= 2 (`theta_terms`)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (order + 1)
    for n, c in theta_terms(row, order, m, r).items():
        out[n] = c
    return TruncatedSeries(out)


def _mul_theta(acc: list[int], name: str, s: int, e: int) -> None:
    """acc *= theta_name(q^s)^e in place, truncated to len(acc)-1, for a
    THETA_FAMILIES name; e < 0 divides.  Each power of the factor is one
    kernel call with one pass per term of the sparse sum."""
    theta = theta_terms(THETA_FAMILIES[name], (len(acc) - 1) // s)
    terms = sorted((s * g, c) for g, c in theta.items() if g)
    for _ in range(abs(e) if terms else 0):  # theta(q^s) == 1 below q^s
        _mul_sparse(acc, terms, divide=e < 0)


def _mul_eta(acc: list[int], k: int, e: int) -> None:
    """acc *= eta_k^e in place, truncated to len(acc)-1; e < 0 divides.

    eta_k = (q^k; q^k)_inf = sum_j (-1)^j q^(k*j(3j+1)/2), the PENT row at
    q^k, has only about 2*sqrt(2N/(3k)) terms up to q^N (Euler's pentagonal
    number theorem), so each factor costs O(N*sqrt(N/k)) instead of the
    O(N^2) of its binomials.  A plan applies its leftover eta_k this way;
    composed per (k, e), it is the unplanned route the tests compare with.
    """
    _mul_theta(acc, "PENT", k, e)


def _row_terms(row: tuple[int, int, int, bool, tuple[int, ...]], m: int) -> int:
    """The nonzero terms q^g, 1 <= g <= m, of a THETA_ETA family's row.

    For k >= 1, a*k^2 + b*k <= d*m exactly when 2ak + b <= s, and
    a*k^2 - b*k <= d*m exactly when 2ak - b <= s, where s = isqrt(4adm + b^2).
    In these rows d divides every exponent, and with b = 0 the two sides of
    a two-sided sum land on the same q^g.
    """
    a, b, d, two_sided, _ = row
    s = isqrt(4 * a * d * m + b * b)
    return (s - b) // (2 * a) + ((s + b) // (2 * a) if two_sided and b else 0)


# The families a plan applies in place of several eta_k: the THETA_ETA rows
# of more than one eta_k, each once up to scale (TWOSQ is SIGNED_SQ at q^2
# and TWO_TRI4 is TRI at q^4; PENT and PENT2 are eta_1 and eta_2).
_PLAN_FAMILIES = tuple(name for name, form in THETA_ETA.items() if len(form) > 1 and gcd(*form) == 1)

# (family, s, e): theta_family(q^s)^e, one step of a plan
_Step = tuple[str, int, int]
# (family, s, its eta form at q^s as (position of k in `_near`, e) pairs)
_Atom = tuple[str, int, tuple[tuple[int, int], ...]]


# The nonzero (k, e) of prod_k eta_k^e: a key of the function store and of
# the planner's cache.
EtaKey = frozenset[tuple[int, int]]


def eta_key(exponents: Mapping[int, int]) -> EtaKey:
    """The key of prod_k eta_k^e over {k: e}: its nonzero (k, e).
    Moebius inversion makes an eta quotient's exponents unique, so two
    spellings of one series (pood and p2, say) get one key."""
    return frozenset((k, e) for k, e in exponents.items() if e)


def _near(indices: tuple[int, ...]) -> list[int]:
    """The indices and their doubles, ascending."""
    return sorted({*indices, *(2 * k for k in indices)})


@lru_cache(maxsize=256)
def _plan_atoms(indices: tuple[int, ...]) -> tuple[_Atom, ...]:
    """Every plan family at every scale s whose eta indices at q^s all lie
    among `indices` (ascending) and their doubles, with each index given as
    its position in `_near(indices)`."""
    position = {k: i for i, k in enumerate(_near(indices))}
    atoms = []
    for name in _PLAN_FAMILIES:
        form = THETA_ETA[name]
        least = min(form)
        for s in (j // least for j in position if j % least == 0):
            if all(s * k in position for k in form):
                atoms.append((name, s, tuple((position[s * k], e) for k, e in form.items())))
    return tuple(atoms)


# One-atom plans that `_plan` tries a second atom after, cheapest first
_BEAM = 8


@lru_cache(maxsize=4096)
def _plan(key: EtaKey, order: int) -> tuple[int, tuple[_Step, ...]]:
    """(passes, steps) of the cheapest plan found for prod eta_k^e over the
    key's (k, e) to q^order: at most two theta atoms (`_plan_atoms`), and
    the eta_k left over as PENT at q^k, numerators first.  A step's passes
    are |e| times its row's terms up to q^order (`_row_terms`).

    An atom's power e is tried at the floor and ceiling of y / x for each
    eta_k^x of its form whose exponent y left over is nonzero: its passes
    are convex and piecewise linear in e, with their corners there.  A
    second atom is tried after each of the _BEAM cheapest one-atom plans,
    on the side of e2 = 0 where its passes fall, if they fall on either,
    and only while both atoms' own passes stay below the best plan so far.
    """
    indices = tuple(sorted(k for k, _ in key))
    near = _near(indices)
    pent = [_row_terms(THETA_FAMILIES["PENT"], order // k) for k in near]
    eta = [0] * len(near)
    for k, e in key:
        eta[near.index(k)] = e
    atoms = sorted(
        (t, atom)
        for atom in _plan_atoms(indices)
        if (t := _row_terms(THETA_FAMILIES[atom[0]], order // atom[1]))
    )

    def powers(form: tuple[tuple[int, int], ...], left: list[int]) -> set[int]:
        """The floor and ceiling of left[i] / x for each nonzero left[i], but 0."""
        es = {q for i, x in form if left[i] for q in (left[i] // x, -(-left[i] // x))}
        es.discard(0)
        return es

    best = base = sum(abs(e) * w for e, w in zip(eta, pent))
    best_steps: list[tuple[_Atom, int]] = []
    firsts = []
    for t, atom in atoms:
        for e in powers(atom[2], eta):
            own = abs(e) * t
            left = eta[:]
            cost = base + own
            for i, x in atom[2]:
                y = left[i]
                left[i] = z = y - e * x
                cost += (abs(z) - abs(y)) * pent[i]
            firsts.append((cost, own, atom, e, left))
    firsts.sort(key=lambda first: first[0])
    for cost, own, atom, e, left in firsts[:_BEAM]:
        if cost < best:
            best, best_steps = cost, [(atom, e)]
        for t2, second in atoms:
            if own + t2 >= best:
                break
            if second is atom:
                continue
            # one step of e2 up from 0 changes the passes by t2 + zero + slope,
            # one step down by t2 + zero - slope: a power of the atom saves
            # passes only on a side where that is negative
            slope = zero = 0
            for i, x in second[2]:
                y = left[i]
                if y:
                    slope -= x * pent[i] if y > 0 else -x * pent[i]
                else:
                    zero += abs(x) * pent[i]
            if abs(slope) <= t2 + zero:
                continue
            for e2 in powers(second[2], left):
                if (e2 > 0) != (slope < 0):
                    continue
                cost2 = cost + abs(e2) * t2
                for i, x in second[2]:
                    y = left[i]
                    cost2 += (abs(y - e2 * x) - abs(y)) * pent[i]
                if cost2 < best:
                    best, best_steps = cost2, [(atom, e), (second, e2)]
    for (_, _, form), e in best_steps:
        for i, x in form:
            eta[i] -= e * x
    steps = [(name, s, e) for (name, s, _), e in best_steps]
    steps += [("PENT", k, e) for k, e in zip(near, eta) if e]
    return best, tuple(sorted(steps, key=lambda step: -step[2]))


def eta_passes(exponents: Mapping[int, int], order: int) -> int:
    """Kernel passes of expanding prod_k eta_k^e over {k: e} to q^order: the
    passes of its plan (`_plan`), each theta atom or eta_k taking |e| times
    its sparse terms up to q^order, counted in closed form."""
    return _plan(eta_key(exponents), order)[0]


def eta_quotient(exponents: Mapping[int, int], order: int) -> TruncatedSeries:
    """Expand prod_k eta_k^e over {k: e} exactly mod q^(order+1).

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
    """acc *= prod_k eta_k^e over {k: e} in place, by the steps of its plan
    (`_plan`): sparse theta factors at q^s, and eta_k = PENT at q^k for the
    rest, numerator factors first while the coefficients are still small."""
    for name, s, e in _plan(eta_key(exponents), len(acc) - 1)[1]:
        _mul_theta(acc, name, s, e)


class ProductForm:
    """prod_{n >= 1} (1 - q^n)^(a_n), truncated at q^order.

    a_n is classes[n % period] + head.get(n, 0): one exponent per residue
    class mod the period, plus a finite head of corrections at n <= order.
    Nothing of length order is stored.  Build one with `of`; `eta_split`
    turns it into the eta factors and one-term binomials that
    `_mul_eta_binomials` expands.
    """

    # a plain class, not a `Record`: a form is built for each chain with a
    # Pochhammer atom, and never compared, hashed or printed
    __slots__ = ("order", "period", "classes", "head")

    def __init__(self, order: int, period: int, classes: tuple[int, ...], head: Mapping[int, int]):
        self.order = order
        self.period = period
        self.classes = classes
        self.head = head

    @classmethod
    def of(cls, factors: Iterable[tuple[int, int, int, int]], order: int) -> "ProductForm":
        """The form of prod (sign*q^a; q^b)_inf^e over factors.

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
        return cls(order, period, tuple(classes), {n: e for n, e in head.items() if e})

    def eta_split(self) -> tuple[dict[int, int], dict[int, int]]:
        """({k: e}, {n: e}) with the form == prod eta_k^e *
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

