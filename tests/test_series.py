"""Series-engine tests: exact arithmetic, products, thetas, extraction."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partrec.oracle import (
    ConstraintSpec,
    Distinctness,
    Parity,
    generate_partitions,
    oracle_table,
)
from partrec.series import (
    THETA_FAMILIES,
    ProductSpec,
    TruncatedSeries,
    ceil_half,
    eta_quotient,
    neg_one_pow,
    pochhammer_expand,
    pochhammer_finite,
    progression_extract,
    series_add,
    series_inverse,
    series_mul,
    theta_series,
)

from conftest import JACOBI_TRIPLE_PRODUCT_CASES


def S(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(coeffs)


# ---------------------------------------------------------------------------
# add / mul / inverse


def test_add_cancellation():
    assert S(1, 1) + S(1, -1) == S(2, 0)


def test_add_identity():
    x = S(3, -1, 4, 1)
    assert series_add(x, TruncatedSeries.zero(3)) == x


def test_add_theta_sum():
    # 1 - q - q^2 plus 1 + q - q^2
    pent = theta_series(THETA_FAMILIES["PENT"], 2)
    pent_ceil = theta_series(THETA_FAMILIES["PENT_CEIL"], 2)
    assert pent + pent_ceil == S(2, 0, -2)


def test_add_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        series_add(S(1, 2), S(1, 2, 3))


def test_mul_difference_of_squares():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def test_mul_identity():
    x = S(5, 0, -2, 7)
    assert series_mul(x, TruncatedSeries.one(3)) == x


def test_mul_scalar():
    assert 2 * S(1, -1, 3) == S(2, -2, 6)
    assert S(1, -1, 3) * -1 == -S(1, -1, 3)


def test_mul_pd_times_pdo_gives_po_bar():
    # distinct parts convolved with distinct odd parts
    pd = pochhammer_expand(ProductSpec.of((-1, 1, 1, 1)), 5)
    pdo = pochhammer_expand(ProductSpec.of((-1, 1, 2, 1)), 5)
    assert (pd * pdo).coeffs == (1, 2, 2, 4, 6, 8)


def test_inverse_geometric():
    assert series_inverse(S(1, -1, 0, 0)) == S(1, 1, 1, 1)


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


def test_pent_ceil_signs_match_triangular_parity_formula():
    # (-1)^ceil(k/2) and (-1)^(k(k+1)/2) must produce the same series
    family = THETA_FAMILIES["PENT_CEIL"]
    order = 200
    alt = [0] * (order + 1)
    for k in family.indices_up_to(order):
        alt[k * (3 * k + 1) // 2] += neg_one_pow(k * (k + 1) // 2)
    assert list(theta_series(family, order).coeffs) == alt


def test_ceil_half_convention():
    # pinned: ceil(k/2) == floor((k+1)/2) for all integers
    assert [ceil_half(k) for k in (-4, -3, -2, -1, 0, 1, 2, 3)] == [-2, -1, -1, 0, 0, 1, 1, 2]
    for k in range(-50, 51):
        assert ceil_half(k) == -((-k) // 2)


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


def test_theta_exponents_strictly_increase(theta_families):
    for family in theta_families.values():
        ks = family.indices_up_to(300)
        pos = [family.exponent(k) for k in ks if k >= 0]
        neg = [family.exponent(k) for k in ks if k <= 0]
        assert pos == sorted(pos) and len(set(pos)) == len(pos)
        assert neg == sorted(neg) and len(set(neg)) == len(neg)


def test_theta_two_sided_windows_are_exact(theta_families):
    # every contributing index is found and none beyond the bound
    fam = theta_families["PENT"]
    ks = fam.indices_up_to(100)
    direct = [k for k in range(-20, 21) if k * (3 * k + 1) // 2 <= 100]
    assert sorted(ks) == sorted(direct)


@pytest.mark.parametrize("name, spec", JACOBI_TRIPLE_PRODUCT_CASES)
def test_jacobi_triple_product_instantiations(name, spec):
    order = 200
    assert pochhammer_expand(spec, order) == theta_series(THETA_FAMILIES[name], order)


# ---------------------------------------------------------------------------
# Extraction


def test_extract_odd_indices():
    assert progression_extract(S(1, 2, 3, 4), 2, 1) == S(2, 4)


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
