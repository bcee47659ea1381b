"""Tests for the named counting functions and the Lebesgue partial sums."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction

import pytest

from partrec import functions
from partrec.functions import (
    ETA_QUOTIENTS,
    PartitionFunctionId as F,
    PRODUCTS,
    _cache_clear,
    function_value,
    gf_series,
    lebesgue_partial,
    lebesgue_term,
)
from partrec.series import ProductSpec, TruncatedSeries, eta_quotient, pochhammer_expand


def test_po_bar_small_table():
    assert gf_series(F.PO_ODD, 9).coeffs == (1, 2, 2, 4, 6, 8, 12, 16, 22, 30)


def test_partitions_of_five():
    assert gf_series(F.P, 5)[5] == 7


def test_overpartitions_of_three():
    assert gf_series(F.OP, 3)[3] == 8


def test_po_bar_10_erratum():
    # The value 40, not the 42 that appears in a published table of these
    # numbers: the table's last recurrence step dropped the coefficient 2
    # on the n=2 term (correct step: 2*po_bar(8) - 2*po_bar(2) = 44 - 4).
    # Product expansion here, the square recurrence and brute-force
    # enumeration all give 40; see the acceptance suite for the
    # three-route check.
    assert gf_series(F.PO_ODD, 10)[10] == 40


@pytest.mark.parametrize("fid", list(F))
def test_coefficients_are_nonnegative(fid):
    assert all(c >= 0 for c in gf_series(fid, 200))


def test_po_bar_equals_quotient_of_pochhammers():
    numerator = pochhammer_expand(ProductSpec.of((-1, 1, 2, 1)), 200)
    denominator = pochhammer_expand(ProductSpec.of((1, 1, 2, 1)), 200)
    assert numerator * denominator.inverse() == gf_series(F.PO_ODD, 200)


def test_qbar_is_cauchy_square_of_pd():
    pd = gf_series(F.PD, 200)
    assert pd * pd == gf_series(F.QBAR, 200)


def test_pood_and_p2_series_coincide():
    # (-q;q^2)/(q^2;q^2) == (q^2;q^4)/(q;q): two different counting
    # problems with the same counting sequence.  Both share one eta form, so
    # the check runs on the products.
    assert pochhammer_expand(PRODUCTS[F.POOD], 500) == pochhammer_expand(PRODUCTS[F.P2MOD4], 500)


@pytest.mark.parametrize("order", [0, 1, 63, 64, 65, 500])
@pytest.mark.parametrize("fid", list(F))
def test_eta_quotient_matches_product(fid, order):
    # the seed order of the store is 64, so 63..65 straddle its first growth
    reference = pochhammer_expand(PRODUCTS[fid], order)
    assert eta_quotient(ETA_QUOTIENTS[fid], order) == reference
    _cache_clear()
    assert gf_series(fid, order) == reference


def test_po_bar_values_are_even_beyond_zero(po_odd_2000):
    assert po_odd_2000[0] == 1
    assert all(po_odd_2000[n] % 2 == 0 for n in range(1, 2001))


def test_every_id_has_a_product():
    assert set(PRODUCTS) == set(F) == set(ETA_QUOTIENTS)
    for fid in F:
        assert fid.product is PRODUCTS[fid]


def test_from_name_round_trip():
    for fid in F:
        assert F.from_name(fid.value) is fid
    with pytest.raises(KeyError):
        F.from_name("nosuch")


# ---------------------------------------------------------------------------
# function_value


def test_function_value_out_of_domain():
    assert function_value(F.PO_ODD, -3) == 0
    assert function_value(F.P, Fraction(1, 2)) == 0
    assert function_value(F.P, Fraction(-7, 2)) == 0


def test_function_value_integral_fraction_matches_int():
    assert function_value(F.P, Fraction(10, 2)) == function_value(F.P, 5) == 7


def test_function_value_examples():
    assert function_value(F.PD, 5) == 3  # {5}, {4,1}, {3,2}
    assert function_value(F.QBAR, 3) == 6  # p(3)+p(2)+p(0)


def test_function_value_matches_series():
    series = gf_series(F.PEED, 120)
    for n in range(121):
        assert function_value(F.PEED, n) == series[n]


def test_gf_series_reads_the_store(monkeypatch):
    _cache_clear()
    function_value(F.PO_ODD, 4001)
    full = eta_quotient(ETA_QUOTIENTS[F.PO_ODD], 4001)

    def no_expansion(exponents, order):
        raise AssertionError(f"expanded again to order {order}")

    monkeypatch.setattr(functions, "eta_quotient", no_expansion)
    for order in (0, 64, 2000, 4001):
        assert gf_series(F.PO_ODD, order) == full.truncate(order)
    assert function_value(F.PO_ODD, 4001) == full[4001]


def test_gf_series_negative_order():
    with pytest.raises(ValueError):
        gf_series(F.P, -1)


def test_function_value_concurrent_growth(monkeypatch):
    expand = functions.eta_quotient
    orders = []

    def recording(exponents, order):
        orders.append(order)
        return expand(exponents, order)

    monkeypatch.setattr(functions, "eta_quotient", recording)
    _cache_clear()
    reference = pochhammer_expand(PRODUCTS[F.OP], 400)
    errors = []

    def worker(seed):
        for n in range(seed, 400, 7):
            if function_value(F.OP, n) != reference[n] or gf_series(F.OP, n) != reference.truncate(n):
                errors.append(n)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # every expansion under the lock grows the store: none repeated or lost
    assert orders == sorted(set(orders))


# ---------------------------------------------------------------------------
# Lebesgue partial sums


def test_lebesgue_first_term_only():
    assert lebesgue_partial(0, 6) == TruncatedSeries.one(6)


def test_lebesgue_small_partial():
    assert lebesgue_partial(3, 3).coeffs == (1, 2, 2, 4)


def test_lebesgue_stabilizes_to_po_bar():
    target = gf_series(F.PO_ODD, 100)
    # the first term that vanishes wholly below order 100 is j = 14 (T_14 = 105)
    assert lebesgue_partial(14, 100) == target
    assert lebesgue_partial(20, 100) == target
    assert lebesgue_partial(64, 100) == target
    # one term short: j = 13 contributes first at q^91
    short = lebesgue_partial(12, 100)
    assert short != target
    assert short.coeffs[:91] == target.coeffs[:91]
    assert short[91] == target[91] - 2


def test_lebesgue_partial_matches_literal_term_assembly():
    # the incremental accumulation equals the sum of literally-assembled
    # terms (finite Pochhammer) x (monomial) x (inverse finite Pochhammer)
    order = 40
    for j_max in range(7):
        total = TruncatedSeries.zero(order)
        for j in range(j_max + 1):
            total = total + lebesgue_term(j, order)
        assert lebesgue_partial(j_max, order) == total


def test_lebesgue_validation():
    with pytest.raises(ValueError):
        lebesgue_partial(-1, 10)
    with pytest.raises(ValueError):
        lebesgue_partial(3, -1)
