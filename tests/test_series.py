"""Series-engine tests: exact arithmetic, products, thetas, extraction."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partrec import dsl, series
from partrec.functions import ETA_QUOTIENTS
from partrec.oracle import (
    ConstraintSpec,
    Distinctness,
    Parity,
    generate_partitions,
    oracle_table,
)
from partrec.series import (
    THETA_ETA,
    THETA_FAMILIES,
    ProductForm,
    ProductSpec,
    TruncatedSeries,
    eta_passes,
    eta_quotient,
    pochhammer_expand,
    pochhammer_finite,
    theta_series,
    _mul_eta,
    _mul_eta_binomials,
    _mul_eta_quotient,
    _mul_sparse,
    _row_terms,
)

from conftest import JACOBI_TRIPLE_PRODUCT_CASES, schoolbook_inverse, schoolbook_mul


def S(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(coeffs)


def pentagonal(exponents: dict[int, int], order: int) -> TruncatedSeries:
    """prod eta_k^e with no plan: one pentagonal `_mul_eta` pass per (k, e),
    the route that eta quotients took before the planner."""
    acc = [1] + [0] * order
    for k, e in exponents.items():
        _mul_eta(acc, k, e)
    return TruncatedSeries(acc)


# ---------------------------------------------------------------------------
# add / mul / inverse


def test_add_cancellation():
    assert S(1, 1) + S(1, -1) == S(2, 0)


def test_add_identity():
    x = S(3, -1, 4, 1)
    assert x + TruncatedSeries.zero(3) == x


def test_add_theta_sum():
    # 1 - q - q^2 plus 1 + q - q^2
    pent = theta_series(THETA_FAMILIES["PENT"], 2)
    pent_ceil = theta_series(THETA_FAMILIES["PENT_CEIL"], 2)
    assert pent + pent_ceil == S(2, 0, -2)


def test_add_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        S(1, 2) + S(1, 2, 3)


def test_mul_difference_of_squares():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def test_mul_identity():
    x = S(5, 0, -2, 7)
    assert x * TruncatedSeries.one(3) == x


def test_mul_scalar():
    assert 2 * S(1, -1, 3) == S(2, -2, 6)
    assert S(1, -1, 3) * -1 == -S(1, -1, 3)


def test_mul_pd_times_pdo_gives_po_bar():
    # distinct parts convolved with distinct odd parts
    pd = pochhammer_expand(ProductSpec.of((-1, 1, 1, 1)), 5)
    pdo = pochhammer_expand(ProductSpec.of((-1, 1, 2, 1)), 5)
    assert (pd * pdo).coeffs == (1, 2, 2, 4, 6, 8)


def test_inverse_geometric():
    assert S(1, -1, 0, 0).inverse() == S(1, 1, 1, 1)


def test_inverse_of_one():
    assert TruncatedSeries.one(4).inverse() == TruncatedSeries.one(4)


def test_inverse_of_pentagonal_theta_is_partition_series():
    pent = theta_series(THETA_FAMILIES["PENT"], 5)
    assert pent.inverse().coeffs == (1, 1, 2, 3, 5, 7)


@pytest.mark.parametrize("constant", [0, 2, -3])
def test_inverse_requires_unit_constant(constant):
    with pytest.raises(ValueError, match="constant term"):
        S(constant, 1, 1).inverse()


def test_pow():
    x = S(1, 1, 0, 0)
    assert x**0 == TruncatedSeries.one(3)
    assert x**3 == S(1, 3, 3, 1)
    assert S(1, -1, 0) ** -2 == S(1, 2, 3)


# ---------------------------------------------------------------------------
# Pochhammer products


def test_pochhammer_euler_product():
    got = pochhammer_expand(ProductSpec.of((1, 1, 1, 1)), 7)
    assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pochhammer_distinct_parts_vs_enumeration():
    got = pochhammer_expand(ProductSpec.of((-1, 1, 1, 1)), 5)
    expected = oracle_table(ConstraintSpec(distinctness=Distinctness.ALL), 5)
    assert list(got.coeffs) == expected == [1, 1, 1, 2, 2, 3]


def test_pochhammer_distinct_odd_parts_vs_enumeration():
    got = pochhammer_expand(ProductSpec.of((-1, 1, 2, 1)), 8)
    expected = oracle_table(
        ConstraintSpec(parity=Parity.ODD_ONLY, distinctness=Distinctness.ALL), 8
    )
    assert list(got.coeffs) == expected == [1, 1, 0, 1, 1, 1, 1, 1, 2]


def test_pochhammer_spec_validation():
    with pytest.raises(ValueError):
        ProductSpec.of((1, 0, 1, 1))  # a must be >= 1
    with pytest.raises(ValueError):
        ProductSpec.of((1, 1, 0, 1))  # b must be >= 1
    with pytest.raises(ValueError):
        ProductSpec.of((2, 1, 1, 1))  # sign must be +-1
    with pytest.raises(ValueError):
        ProductSpec.of((1, 1, 1, 0))  # e must be nonzero


def test_pochhammer_finite_empty_product():
    assert pochhammer_finite(1, 1, 1, 0, 5) == TruncatedSeries.one(5)


def test_pochhammer_finite_constant_factor():
    # (-1; q)_2 = (1+1)(1+q)
    assert pochhammer_finite(-1, 0, 1, 2, 3).coeffs == (2, 2, 0, 0)


def test_pochhammer_finite_two_factors():
    # (q; q)_2 = (1-q)(1-q^2)
    assert pochhammer_finite(1, 1, 1, 2, 3).coeffs == (1, -1, -1, 1)


# ---------------------------------------------------------------------------
# Theta families


def test_theta_pent():
    assert theta_series(THETA_FAMILIES["PENT"], 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_theta_sq():
    assert theta_series(THETA_FAMILIES["SQ"], 4).coeffs == (1, 2, 0, 0, 2)


def test_theta_pent_ceil():
    assert theta_series(THETA_FAMILIES["PENT_CEIL"], 7).coeffs == (1, 1, -1, 0, 0, -1, 0, -1)


def test_theta_gpent_half_skips_non_integral_exponents():
    # generalized pentagonal halves: q^(G_k/2) survives only for even G_k
    got = theta_series(THETA_FAMILIES["GPENT_HALF"], 20)
    expected = [0] * 21
    expected[0] = 1    # k=0, G=0
    expected[1] = -1   # k=2, G=2
    expected[6] = -1   # k=5, G=12
    expected[11] = 1   # k=7, G=22
    expected[13] = 1   # k=8, G=26
    expected[20] = -1  # k=10, G=40
    assert list(got.coeffs) == expected


def _sign(m: int) -> int:
    return (-1) ** (m % 2)


def _ceil_sign(k: int) -> int:
    return _sign((k + 1) // 2)  # (-1)^ceil(k/2), negative k included


def _merca_gpent(k: int) -> int:
    # Merca's generalized pentagonal numbers G_k = 0, 1, 2, 5, 7, 12, ...
    c = (k + 1) // 2
    return c * (3 * c + _sign(k)) // 2


# Each family as a rule per index k: (exponent, sign, k over Z or k >= 0).
# Exponents that are not integers contribute nothing.
THETA_RULES = {
    "PENT": (lambda k: k * (3 * k + 1) // 2, _sign, True),
    "PENT_CEIL": (lambda k: k * (3 * k + 1) // 2, _ceil_sign, True),
    "PENT2": (lambda k: k * (3 * k + 1), _sign, True),
    "TRI": (lambda k: k * (k + 1) // 2, lambda k: 1, False),
    "TRI_CEIL": (lambda k: k * (k + 1) // 2, _ceil_sign, False),
    "SQ": (lambda k: k * k, lambda k: 1, True),
    "TWOSQ": (lambda k: 2 * k * k, _sign, True),
    "TWO_TRI4": (lambda k: 2 * k * (k + 1), lambda k: 1, False),
    "SIGNED_SQ": (lambda k: k * k, _sign, True),
    "SIGNED_SQ_POS": (lambda k: k * k, _sign, False),
    "GPENT": (_merca_gpent, _ceil_sign, False),
    "GPENT_HALF": (lambda k: Fraction(_merca_gpent(k), 2), _ceil_sign, False),
}


@pytest.mark.parametrize("order", [0, 1, 2, 7, 50, 400, 2000])
@pytest.mark.parametrize("name", sorted(THETA_FAMILIES))
def test_theta_rows_match_brute_force_rules(name, order):
    exponent, sign, two_sided = THETA_RULES[name]
    expected = [0] * (order + 1)
    # every exponent is at least |k|/2, so |k| <= 2*order + 1 reaches past q^order
    for k in range(-2 * order - 1 if two_sided else 0, 2 * order + 2):
        e = exponent(k)
        if e <= order and e == int(e):
            expected[int(e)] += sign(k)
    assert list(theta_series(THETA_FAMILIES[name], order)) == expected


def test_theta_eta_covers_the_families_that_are_eta_quotients():
    assert sorted(THETA_ETA) == sorted(set(THETA_FAMILIES) - {"SIGNED_SQ_POS", "GPENT_HALF"})


@pytest.mark.parametrize("name", sorted(THETA_ETA))
def test_theta_rows_equal_their_eta_forms(name):
    # `dsl.check` decides statements from THETA_ETA and `eta_quotient` plans
    # with its rows, so the table is checked here against the sparse sums
    # themselves, through pentagonal passes alone, to the engine's largest order
    order = dsl.MAX_ORDER
    assert theta_series(THETA_FAMILIES[name], order) == pentagonal(THETA_ETA[name], order)


@pytest.mark.parametrize("name", sorted(THETA_ETA))
def test_row_terms_counts_each_rows_terms(name):
    row = THETA_FAMILIES[name]
    for m in range(601):
        assert _row_terms(row, m) == len(series._terms(theta_series(row, m).coeffs)), m


@pytest.mark.parametrize("name, spec", JACOBI_TRIPLE_PRODUCT_CASES)
def test_jacobi_triple_product_instantiations(name, spec):
    order = 200
    assert pochhammer_expand(spec, order) == theta_series(THETA_FAMILIES[name], order)


# ---------------------------------------------------------------------------
# Extraction


def test_extract_odd_indices():
    assert S(1, 2, 3, 4).extract(2, 1) == S(2, 4)


def test_extract_identity():
    x = S(1, 2, 3, 4)
    assert x.extract(1, 0) == x


def test_extract_po_bar_odd_part():
    po = pochhammer_expand(ProductSpec.of((-1, 1, 2, 1), (1, 1, 2, -1)), 9)
    assert po.extract(2, 1).coeffs == (2, 4, 8, 16, 30)


def test_extract_validation():
    with pytest.raises(ValueError):
        S(1, 2).extract(0, 0)
    with pytest.raises(ValueError):
        S(1, 2).extract(2, 2)
    with pytest.raises(ValueError):
        S(1).extract(2, 1)  # order too small for residue 1


# ---------------------------------------------------------------------------
# Algebraic properties


small_series = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-50, max_value=50), min_size=n + 1, max_size=n + 1
    ).map(TruncatedSeries)
)


def triple(order: int):
    coeffs = st.lists(
        st.integers(min_value=-20, max_value=20), min_size=order + 1, max_size=order + 1
    ).map(TruncatedSeries)
    return st.tuples(coeffs, coeffs, coeffs)


@given(triple(8))
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


unit_series = st.integers(min_value=0, max_value=64).flatmap(
    lambda n: st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
    ).map(lambda t: TruncatedSeries([t[0], *t[1]]))
)


@settings(max_examples=1000, deadline=None)
@given(unit_series)
def test_inverse_roundtrip(x):
    assert x * x.inverse() == TruncatedSeries.one(x.order)


factor_strategy = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
)


@settings(deadline=None)
@given(st.lists(factor_strategy, min_size=1, max_size=4), st.integers(min_value=0, max_value=48))
def test_pochhammer_times_inverted_spec_is_one(factors, order):
    spec = ProductSpec(tuple(factors))
    left = pochhammer_expand(spec, order)
    right = pochhammer_expand(spec.inverted(), order)
    assert left * right == TruncatedSeries.one(order)


@settings(deadline=None)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=7), st.integers(min_value=-3, max_value=3), max_size=4),
    st.integers(min_value=0, max_value=80),
)
def test_eta_quotient_matches_pochhammer(exponents, order):
    # eta_k = (q^k; q^k)_inf is the factor (1, k, k, e) of a ProductSpec
    spec = ProductSpec(tuple((1, k, k, e) for k, e in exponents.items() if e))
    assert eta_quotient(exponents, order) == pochhammer_expand(spec, order)


def test_eta_quotient_validation():
    assert eta_quotient({1: 1}, 30) == theta_series(THETA_FAMILIES["PENT"], 30)
    with pytest.raises(ValueError):
        eta_quotient({0: 1}, 5)
    with pytest.raises(ValueError):
        eta_quotient({1: 1}, -1)


# The nine named functions' eta quotients and that of paper.qid's `extract`
# chain, P(-q^2; q^4)^2 * P(q^4; q^4) = eta4^5 / (eta2^2 eta8^2)
PLANNED_KEYS = {fid.value: q for fid, q in ETA_QUOTIENTS.items()} | {"extract": {4: 5, 2: -2, 8: -2}}


def test_eta_passes_counts_the_terms_mul_eta_applies(monkeypatch):
    applied = []
    monkeypatch.setattr(series, "_mul_sparse", lambda acc, terms, c0=1, divide=False: applied.append(len(terms)))
    keys = [{k: 1} for k in range(1, 9)] + list(PLANNED_KEYS.values()) + [{1: 3, 2: -3}, {1: -4}, {3: 2, 6: -1, 1: 1}]
    for exponents in keys:
        for order in range(601):
            applied.clear()
            _mul_eta_quotient([1] + [0] * order, exponents)
            assert sum(applied) == eta_passes(exponents, order), (exponents, order)
    # a lone eta_k is its pentagonal pass
    for k in range(1, 9):
        for order in range(601):
            applied.clear()
            _mul_eta([1] + [0] * order, k, 1)
            assert sum(applied) == eta_passes({k: 1}, order), (k, order)


@pytest.mark.parametrize(
    "exponents, pentagonal_passes, passes",
    [
        ({1: -1}, 72, 72),  # p: no theta takes fewer than eta_1's own terms
        ({2: 1, 1: -2}, 194, 44),  # op = 1 / phi(-q)
        ({2: 3, 1: -2, 4: -1}, 330, 75),  # po_bar = phi(-q^2) / phi(-q), as cheap as phi(q) / phi(-q^2)
        ({2: 2, 1: -1, 4: -1}, 208, 98),  # pdo = psi(q) / eta_4
        ({2: 1, 1: -1, 4: -1}, 158, 62),  # pood and p2 = 1 / TRI_CEIL
        ({2: 2, 1: -2}, 244, 94),  # qbar = eta_2 / phi(-q)
        ({4: 5, 2: -2, 8: -2}, 330, 31),  # the `extract` chain = phi(q^2)
    ],
)
def test_plans_at_order_2000(exponents, pentagonal_passes, passes):
    order = 2000
    assert sum(abs(e) * _row_terms(THETA_FAMILIES["PENT"], order // k) for k, e in exponents.items()) == pentagonal_passes
    assert eta_passes(exponents, order) == passes


@settings(deadline=None)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=8), st.integers(min_value=-3, max_value=3), max_size=4),
    st.integers(min_value=0, max_value=300),
)
def test_planned_eta_quotient_matches_pentagonal_passes(exponents, order):
    assert eta_quotient(exponents, order) == pentagonal(exponents, order)


@pytest.mark.parametrize("name", PLANNED_KEYS)
def test_planned_eta_quotient_matches_pentagonal_passes_at_2001(name):
    assert eta_quotient(PLANNED_KEYS[name], 2001) == pentagonal(PLANNED_KEYS[name], 2001)


# ---------------------------------------------------------------------------
# Differential tests against schoolbook convolution and inversion


def coefficients(order: int):
    """order + 1 coefficients made of zero runs and blocks of values up to 3000."""
    block = st.one_of(
        st.integers(min_value=1, max_value=8).map(lambda k: [0] * k),
        st.lists(st.integers(min_value=-3000, max_value=3000), min_size=1, max_size=4),
    )
    return st.lists(block, min_size=1, max_size=10).map(
        lambda blocks: ([c for b in blocks for c in b] + [0] * (order + 1))[: order + 1]
    )


def operands(order: int):
    """Two coefficient lists and a unit (constant term +-1) of one order."""
    unit = st.tuples(st.sampled_from((1, -1)), coefficients(order)).map(lambda t: [t[0], *t[1][1:]])
    return st.tuples(coefficients(order), coefficients(order), unit)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=40).flatmap(operands), st.data())
def test_mul_and_division_match_schoolbook(xyu, data):
    x, y, u = xyu
    assert list((TruncatedSeries(x) * TruncatedSeries(y)).coeffs) == schoolbook_mul(x, y)
    assert list(TruncatedSeries(u).inverse().coeffs) == schoolbook_inverse(u)
    assert list((TruncatedSeries(x) / TruncatedSeries(u)).coeffs) == schoolbook_mul(x, schoolbook_inverse(u))
    # dividing by 1 - q^g alone: running sums for g^2 <= N coefficients, else
    # blocks of g (several, or one short one), and nothing past the order
    n = len(x)
    branches = (
        [g for g in range(1, n + 1) if g * g <= n],
        [g for g in range(1, n + 1) if g * g > n and 2 * g <= n],
        [g for g in range(1, n) if g * g > n and 2 * g > n],
        [n, n + 1],
    )
    for gs in filter(None, branches):
        g = data.draw(st.sampled_from(gs))
        binomial = [1 if k == 0 else -1 if k == g else 0 for k in range(n)]
        quotient = list(x)
        _mul_sparse(quotient, [(g, -1)], divide=True)
        assert quotient == schoolbook_mul(x, schoolbook_inverse(binomial))
        assert list((TruncatedSeries(x) / TruncatedSeries(binomial)).coeffs) == quotient


def per_term(acc: list[int], terms: list[tuple[int, int]], c0: int, divide: bool) -> list[int]:
    """acc times or over c0 + sum c*q^g, one term and one multiply at a time."""
    out = list(acc)
    for n in range(len(acc)):
        if divide:
            t = acc[n]
            for g, c in terms:
                if g <= n:
                    t -= c * out[n - g]
            out[n] = c0 * t  # c0 = +-1 is its own inverse
        else:
            out[n] = c0 * acc[n] + sum(c * acc[n - g] for g, c in terms if g <= n)
    return out


# past the 4300 digits that int <-> str conversion allows; drawn as a code
# (|c| >= 4 stands for c * HUGE) so that Hypothesis never prints it
HUGE = 7**5200


def huge(c: int) -> int:
    return c * HUGE if abs(c) >= 4 else c


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=32), st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4))),
        max_size=3,
        unique_by=lambda term: term[0],
    ),
    st.sampled_from((1, -1)),
)
def test_grouped_kernel_matches_per_term_reference(codes, term_codes, c0):
    # terms sharing a coefficient (a theta's 2s) are grouped, one multiply per group
    acc = [huge(c) for c in codes]
    terms = sorted((g, huge(c)) for g, c in term_codes)
    for divide in (False, True):
        out = list(acc)
        _mul_sparse(out, terms, c0, divide=divide)
        assert out == per_term(acc, terms, c0, divide)


@settings(deadline=None)
@given(
    st.lists(factor_strategy, min_size=1, max_size=3).filter(lambda fs: any(e < 0 for *_, e in fs)),
    st.integers(min_value=0, max_value=40),
)
def test_pochhammer_with_negative_exponents_matches_schoolbook(factors, order):
    expected = [1] + [0] * order
    for sign, a, b, e in factors:
        for m in range(a, order + 1, b):
            binomial = [1] + [0] * order
            binomial[m] -= sign
            factor = binomial if e > 0 else schoolbook_inverse(binomial)
            for _ in range(abs(e)):
                expected = schoolbook_mul(expected, factor)
    assert list(pochhammer_expand(ProductSpec(tuple(factors)), order).coeffs) == expected


# ---------------------------------------------------------------------------
# Product forms against the binomial-by-binomial reference route

form_factor = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=9),  # a > b as often as not
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
)


def expand(form: ProductForm) -> TruncatedSeries:
    acc = [1] + [0] * form.order
    _mul_eta_binomials(acc, *form.eta_split())
    return TruncatedSeries(acc)


@settings(deadline=None)
@given(st.lists(form_factor, max_size=5), st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=40))
def test_product_form_matches_pochhammer(factors, scalar, order):
    # small orders put factors whose b would take the period past the order into the head
    expected = pochhammer_expand(ProductSpec(tuple(factors)), order) * scalar
    assert expand(ProductForm.of(factors, order)) * scalar == expected


def test_product_form_of_po_bar_is_its_eta_quotient():
    form = ProductForm.of([(-1, 1, 2, 1), (1, 1, 2, -1)], 50)
    assert (form.period, form.classes, form.head) == (4, (0, -2, 1, -2), {})
    assert form.eta_split() == ({1: -2, 2: 3, 4: -1}, {})


def test_product_form_head_and_off_gcd_classes():
    # (q^3; q^2) misses n = 1, which the head puts back
    assert ProductForm.of([(1, 3, 2, 1)], 10).eta_split() == ({1: 1, 2: -1}, {1: -1})
    # a lone (q; q^3) is not a function of gcd(n, 3): its class becomes binomials
    assert ProductForm.of([(1, 1, 3, 1)], 10).eta_split() == ({}, {1: 1, 4: 1, 7: 1, 10: 1})


def test_product_form_period_stays_within_the_order():
    form = ProductForm.of([(1, 1, 4999, 1), (1, 1, 4998, 1), (1, 1, 4997, 1)], 5000)
    assert form.period == 4997
    assert form.head == {1: 2, 4999: 1, 5000: 1}
    huge = 10**3999
    form = ProductForm.of([(-1, 1, huge, 1), (1, 7, huge, 2)], 5000)
    assert (form.period, form.classes, form.head) == (1, (0,), {2: 1, 1: -1, 7: 2})
    # a binomial past the order is 1, and so is a factor starting there
    assert expand(ProductForm.of([(1, 11, 1, 1)], 10)) == TruncatedSeries.one(10)


# ---------------------------------------------------------------------------
# Immutability and concurrent use


def test_series_is_immutable_and_hashable():
    x = S(1, 2, 3)
    assert hash(x) == hash(S(1, 2, 3))
    with pytest.raises(TypeError):
        x.coeffs[0] = 5  # type: ignore[index]
    with pytest.raises(AttributeError):
        x.extra = 1  # type: ignore[attr-defined]


def test_concurrent_products_on_shared_inputs():
    pent = theta_series(THETA_FAMILIES["PENT"], 300)
    inv = pent.inverse()
    expected = pent * inv
    results = [None] * 8

    def work(i):
        results[i] = pent * inv

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


def test_oracle_helper_partitions_are_canonical():
    # sanity for the enumeration scheme the comparisons above rely on:
    # strictly decreasing sizes, multiplicities >= 1, correct sum
    for lam in generate_partitions(9, lambda m: True, lambda m: False):
        sizes = [m for m, _ in lam]
        assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
        assert sum(m * c for m, c in lam) == 9
