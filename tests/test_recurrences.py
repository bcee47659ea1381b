"""Residual tests: one section per theorem family, plus the verify machinery."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from partrec import functions
from partrec.functions import ETA_QUOTIENTS, PartitionFunctionId as F, function_value, gf_series
from partrec.recurrences import (
    TheoremId,
    fast_po_odd_table,
    gen_pentagonal_signed,
    oblong_indicator,
    origin_indicator,
    residual,
    residual_cks_signed,
    residual_cor_pd,
    residual_cor_pdo,
    residual_dissect_even,
    residual_dissect_odd,
    residual_euler,
    residual_merca_gk,
    residual_merca_peed_2sq,
    residual_pd_identity,
    residual_pdo_identity,
    residual_qbar,
    residual_t1,
    residual_t2,
    residual_t3,
    residual_t4,
    residual_t5,
    residual_t6,
    residual_t9,
    square_rhs,
    triangular_indicator,
    verify,
    verify_all,
)
from partrec.series import ceil_half, neg_one_pow


# ---------------------------------------------------------------------------
# Indicators


def test_gen_pentagonal_signed_matches_direct_scan():
    # independent route: walk m outward and place the sign directly
    expected = {}
    m = 0
    while True:
        e = m * (3 * m + 1) // 2
        if e <= 10_000:
            expected[e] = neg_one_pow(ceil_half(m))
        e_neg = (-m) * (-3 * m + 1) // 2
        if e_neg <= 10_000:
            expected[e_neg] = neg_one_pow(ceil_half(-m))
        if min(e, e_neg) > 10_000:
            break
        m += 1
    for n in range(10_001):
        assert gen_pentagonal_signed(n) == expected.get(n, 0)


def test_gen_pentagonal_signed_prefix():
    hits = [(n, gen_pentagonal_signed(n)) for n in range(28) if gen_pentagonal_signed(n)]
    assert hits == [
        (0, 1), (1, 1), (2, -1), (5, -1), (7, -1), (12, -1), (15, 1), (22, 1), (26, 1),
    ]


def test_triangular_indicator():
    triangulars = {k * (k + 1) // 2 for k in range(200)}
    for n in range(10_001):
        assert triangular_indicator(n) == (1 if n in triangulars else 0)


def test_oblong_indicator():
    oblongs = {k * (k + 1) for k in range(120)}
    for n in range(10_001):
        assert oblong_indicator(n) == (1 if n in oblongs else 0)


def test_square_rhs():
    assert square_rhs(0) == 1
    squares = {m * m for m in range(1, 101)}
    for n in range(1, 10_001):
        assert square_rhs(n) == (2 if n in squares else 0)
    assert origin_indicator(0) == 1
    assert origin_indicator(3) == 0


# ---------------------------------------------------------------------------
# Spot checks against hand-computed arithmetic (values from the small
# po_bar table 1,2,2,4,6,8,12,16,22,30,40 and friends)


def test_t1_examples():
    # n=1: 2 - 1 = 1, and 1 is pentagonal with positive sign
    # n=2: 2 - 2 - 1 = -1, and 2 is pentagonal with negative sign
    # n=3: 4 - 2 - 2 = 0, and 3 is not pentagonal
    for n in (1, 2, 3):
        assert residual_t1(n) == 0


def test_t2_examples():
    assert residual_t2(0) == 0
    # 40 - 30 - 16 + 6 + 1 = 1 at the triangular number 10
    assert residual_t2(10) == 0
    # 6 - 4 - 2 = 0 and 4 is not triangular
    assert residual_t2(4) == 0


def test_t3_examples():
    assert residual_t3(0) == 0
    assert residual_t3(4) == 0   # 6 - 4 = 2 at the square 4
    assert residual_t3(10) == 0  # 40 - 44 + 4 = 0


def test_t4_examples():
    for n in (0, 3, 5):
        assert residual_t4(n) == 0
    # the n=5 sum is pood(5) + pood(4) + pood(2) = 4 + 3 + 1
    assert function_value(F.POOD, 5) + function_value(F.POOD, 4) + function_value(
        F.POOD, 2
    ) == function_value(F.PO_ODD, 5)


def test_t5_examples():
    for n in (0, 3, 5):
        assert residual_t5(n) == 0
    # n=5: p(5) + p(4) - p(3) - p(0) = 7 + 5 - 3 - 1 = 8
    assert 7 + 5 - 3 - 1 == function_value(F.PO_ODD, 5)


def test_t6_examples():
    for n in (0, 4, 10):
        assert residual_t6(n) == 0
    # n=10 reads 232 - 200 + 8 = 40, another erratum witness
    assert function_value(F.OP, 10) - 2 * function_value(F.OP, 8) + 2 * function_value(
        F.OP, 2
    ) == 40


def test_dissection_examples():
    for n in (0, 2, 4):
        assert residual_dissect_odd(n) == 0
    for n in (0, 2, 5):
        assert residual_dissect_even(n) == 0
    # even dissection at n=5 is po_bar(10) = op(5) + 2*op(3) = 24 + 16 = 40
    assert function_value(F.OP, 5) + 2 * function_value(F.OP, 3) == 40


def test_t9_examples():
    for n in (0, 3, 5):
        assert residual_t9(n) == 0
    # P2(3) + P2(2) + P2(0) = 2 + 1 + 1 = po_bar(3)
    assert function_value(F.P2MOD4, 3) + function_value(F.P2MOD4, 2) + function_value(
        F.P2MOD4, 0
    ) == 4


def test_qbar_examples():
    for n in (0, 2, 3):
        assert residual_qbar(n) == 0
    assert function_value(F.QBAR, 2) == 3
    assert function_value(F.QBAR, 3) == 6


def test_pdo_identity_examples():
    for n in (0, 2, 5):
        assert residual_pdo_identity(n) == 0
    # at n=5 both sides equal -1
    rhs = function_value(F.PDO, 5) - function_value(F.PDO, 3) - function_value(F.PDO, 1)
    assert rhs == -1


def test_pd_identity_examples():
    for n in (0, 2, 3):
        assert residual_pd_identity(n) == 0
    # the k = -1 term of the right side shifts by (-1)(3(-1)+1) = 2
    assert function_value(F.PD, 2) - function_value(F.PD, 0) == 0


def test_pd_identity_must_be_one_sided():
    # a two-sided triangular sum double counts every exponent (T_k = T_{-k-1})
    # and already breaks at n = 0: it would give 2 instead of 1
    doubled = 0
    for k in (0, -1):
        doubled += neg_one_pow(ceil_half(k)) * function_value(F.PO_ODD, 0)
    assert doubled == 2
    assert residual_pd_identity(0) == 0


def test_corollary_examples():
    assert residual_cor_pdo(5) == 0  # sum is -1 and 5 is pentagonal, sign -1
    assert residual_cor_pd(3) == 0   # 2 - 1 = 1 at the triangular number 3
    assert residual_cor_pd(4) == 0   # 2 - 1 - 1 = 0, 4 not triangular
    assert gen_pentagonal_signed(5) == -1


def test_parity_examples():
    assert residual(TheoremId.COR_POOD_PARITY, 5) == 0  # (4+3+1) mod 2
    assert residual(TheoremId.COR_P_PARITY, 3) == 0     # (3+2-1) mod 2
    assert residual(TheoremId.COR_P2_PARITY, 1) == 0    # (1+1) mod 2


def test_euler_example():
    assert residual_euler(5) == 0  # 7 - 5 - 3 + 1 = 0
    assert residual_euler(0) == 0


def test_cks_signed_example():
    # p(4) - 2p(3) + 2p(0) = 5 - 6 + 2 = 1 = (+1) * pdo(4)
    assert residual_cks_signed(4) == 0
    assert function_value(F.PDO, 4) == 1


def test_merca_peed_examples():
    # peed(3) - 2*peed(1) = 3 - 2 = 1 and 3 is triangular
    assert residual_merca_peed_2sq(3) == 0
    assert gf_series(F.PEED, 5).coeffs == (1, 1, 2, 3, 4, 6)


def test_merca_gk_example():
    # n=2: (p(2) - p(1)) - p(1) = 0; half-integral shifts contribute nothing
    assert residual_merca_gk(2) == 0


def test_merca_gk_uses_rational_arguments():
    # route comparison: the left side must equal convolving p with the
    # half-pentagonal theta (whose non-integral exponents drop out)
    from partrec.series import THETA_FAMILIES, theta_series

    order = 60
    p = gf_series(F.P, order)
    kernel = theta_series(THETA_FAMILIES["GPENT_HALF"], order)
    conv = p * kernel
    for n in range(order + 1):
        lhs = 0
        k = 0
        while True:
            c = ceil_half(k)
            shift = Fraction(c * (3 * c + neg_one_pow(k)) // 2, 2)
            if shift > n:
                break
            lhs += neg_one_pow(c) * function_value(F.P, n - shift)
            k += 1
        assert lhs == conv[n]


# ---------------------------------------------------------------------------
# Full scans and the verify machinery


@pytest.mark.parametrize("tid", list(TheoremId))
def test_residuals_vanish_to_150(tid):
    report = verify(tid, 150)
    assert report.passed, report.summary_line()


def test_verify_trivial_scan():
    report = verify(TheoremId.T3, 0)
    assert report.passed and report.n_max == 0


def test_verify_detects_corrupted_table():
    def corrupted(fid, n):
        bump = 1 if (fid is F.PO_ODD and n == 7) else 0
        return function_value(fid, n) + bump

    report = verify(TheoremId.T1, 50, values=corrupted)
    assert not report.passed
    assert report.first_failure is not None and report.first_failure.n == 7


def test_residual_composition():
    # residual algebra: cor_pdo == t1 - pdo_identity, identically in the
    # value source; check with a deliberately wrong source so the relation
    # is seen to be structural, not a consequence of everything vanishing
    rng = random.Random(7)

    def noisy(fid, n):
        if isinstance(n, Fraction):
            if n.denominator != 1:
                return 0
            n = int(n)
        if n < 0:
            return 0
        return function_value(fid, n) + rng.randrange(-2, 3)

    static = {}

    def source(fid, n):
        key = (fid, n)
        if key not in static:
            static[key] = noisy(fid, n)
        return static[key]

    for n in range(0, 120, 7):
        assert residual_cor_pdo(n, source) == residual_t1(n, source) - residual_pdo_identity(
            n, source
        )


# sha256 of the residuals at 0 <= n <= 300, space-separated, under
# `_golden_noisy`; pinned from the hand-written residual functions the
# record engine replaced, so each suite must reproduce them term for term
GOLDEN_RESIDUAL_DIGESTS = {
    "T1": "52e30bc863d73a9edd3ffd1c177dd39ff89ecfb8b3660bc9242d6709b852edef",
    "T2": "df9a8bbdc6c7a43e4e4eeb35214428a1ac48f892fc89a831fe3364286413f789",
    "T3": "79dd7bc584b2890ff39307896d11f695d544ebbc5c2f9e1f0c0fe9481913c5bb",
    "T4": "ff124243fc7b7a6abb6269a0bd551939f5dc743ae6ac1d7fd64975706db6dfdb",
    "T5": "8297718e313a5e9e9d2f1122c08a18c0fa67da3628543e230a8ad3ecf14fa12d",
    "T6": "ebc404aa409e68659e51b7c5dc8ec79519becc2d0991d143939dbf060e7a0eb8",
    "T7_DISSECT_ODD": "d1a49eb21103c0cec97377c707b17dbcb326c94814d609bea6bde2a6e15bcde8",
    "T8_DISSECT_EVEN": "3a6a9c9973099dffb8a8e8c3edc658fc6fffe4f971b9ddea0cd08c74253344ae",
    "T9_P2": "c96662a4c04522007f1356781b925bee643b4e7cd856e0a67135a08a351f77c1",
    "T_QBAR": "defd5fd2e8db14f5d53e48108db271a0e0a3b398794a9fcac0ee46e8a93e0806",
    "T_PDO_IDENT": "dd24fa6e96cf64088aebbbd91030436b30afc35ac90bbf21cfb8f97df1620bd9",
    "T_PD_IDENT": "ef8cd98c1b006d7c973ff4e24fc77e5bb016f93c191abcdf760174e1e3b84c44",
    "COR_PDO": "ed9e075a0120ba6996eb8731757d56da4df7ba9c9c0e8eb8f026dbef11863ccf",
    "COR_PD": "c10d0e1ff5a482505b4e47e111eef0c0314d0d72c99157d64308f43c3df712db",
    "COR_POOD_PARITY": "c305a8c191a8be12284c8499130ac67d84d13db658129ceca7edea164e706238",
    "COR_P_PARITY": "c4bd3da4d3a89909987e8a0b82c336f473aad52ec2f47608e1837053369f3ff9",
    "COR_P2_PARITY": "44e75818430159d84894cc33c36c0a981d06d2f88d69082145fb96cf6fc107a6",
    "CLASSICAL_EULER": "a1b395aca70066d0ca7f7dc0e5517ba9008503550c773276761f3e877e0a28e5",
    "CLASSICAL_EWELL": "5468c37a8b1372f322c7317588ce9db755a4e39f77c51efde9f8a9093107f394",
    "CLASSICAL_CKS_SQ": "42b00d194d352c09ebc7c3b7b2edc4867a080d1e5cb72febd96ac7d16ee37433",
    "CLASSICAL_CKS_SIGNED": "7473df3fb1a93b60146be19b82cbd42c5f10d4f5e9a1aed3f26a47bbaaf99256",
    "CLASSICAL_MERCA_GK": "59418716502163d1f4ddb8495b959f075e0bc741f08ff6110018351859c563f5",
    "CLASSICAL_MERCA_PEED_TRI": "06e44ff38b77f270b63da3d14fbb2e1b83789b0d146d3ffc6426e315deb49511",
    "CLASSICAL_MERCA_PEED_2SQ": "139cd8d43af3fe423eb83cfd457e2582677c95c194ae9f23d12c2b6ffab30ead",
}


def _golden_noisy(fid, n):
    # a pure function of (fid.value, n), so the result does not depend on
    # the order in which the engine reads values; sha256 rather than hash()
    # so PYTHONHASHSEED cannot move it.  Off Z>=0 the value is 0 (the
    # replaced functions passed rationals for the half-index cases).
    if n < 0 or n != int(n):
        return 0
    n = int(n)
    noise = hashlib.sha256(f"{fid.value}:{n}".encode()).digest()[0] % 5 - 2
    return function_value(fid, n) + noise


@pytest.mark.parametrize("tid", [t for t in TheoremId if t is not TheoremId.LEBESGUE])
def test_residuals_match_golden_digests(tid):
    vector = " ".join(str(residual(tid, n, _golden_noisy)) for n in range(301))
    assert hashlib.sha256(vector.encode()).hexdigest() == GOLDEN_RESIDUAL_DIGESTS[tid.value]


def test_mutation_sensitivity():
    rng = random.Random(20240801)
    for _ in range(20):
        fid = rng.choice(list(F))
        n0 = rng.randrange(0, 180)
        delta = rng.choice((1, -1))

        def perturbed(fid_, n, _fid=fid, _n0=n0, _delta=delta):
            base = function_value(fid_, n)
            if fid_ is _fid and n == _n0:
                return base + _delta
            return base

        reports = verify_all(200, values=perturbed)
        failed = [r for r in reports if not r.passed]
        assert failed, f"no suite noticed {fid}({n0}) {delta:+d}"


def test_fast_po_odd_table_small():
    assert fast_po_odd_table(9) == [1, 2, 2, 4, 6, 8, 12, 16, 22, 30]
    assert fast_po_odd_table(10)[10] == 40
    assert fast_po_odd_table(0) == [1]
    with pytest.raises(ValueError):
        fast_po_odd_table(-1)


def test_fast_po_odd_table_matches_product_expansion(po_odd_2000):
    assert fast_po_odd_table(2000) == list(po_odd_2000.coeffs)


def test_lebesgue_theorem_id():
    report = verify(TheoremId.LEBESGUE, 200)
    assert report.passed
    assert residual(TheoremId.LEBESGUE, 37) == 0


def test_report_json_schema():
    report = verify(TheoremId.T2, 30)
    doc = report.to_json()
    assert set(doc) == {"theorem", "n_max", "status", "first_failure", "millis"}
    assert doc["theorem"] == "T2"
    assert doc["status"] == "pass"
    assert doc["first_failure"] is None
    assert isinstance(doc["millis"], int)
    json.dumps(doc)  # must be serializable as-is

    def corrupted(fid, n):
        return function_value(fid, n) + (1 if (fid is F.P and n == 3) else 0)

    failing = verify(TheoremId.CLASSICAL_EULER, 30, values=corrupted)
    doc = failing.to_json()
    assert doc["status"] == "fail"
    assert doc["first_failure"] == {"n": 3, "residual": "1"}


def test_verify_all_order_and_threads():
    sequential = verify_all(60)
    assert [r.theorem for r in sequential] == [t.value for t in TheoremId]
    threaded = verify_all(60, threads=4)
    assert [r.theorem for r in threaded] == [r.theorem for r in sequential]
    assert all(r.passed for r in threaded)


def test_verify_all_expands_each_function_once(monkeypatch):
    expand = functions.eta_quotient
    expanded = []

    def counting(exponents, order):
        expanded.extend(f for f in F if ETA_QUOTIENTS[f] is exponents)
        return expand(exponents, order)

    monkeypatch.setattr(functions, "eta_quotient", counting)
    functions._cache_clear()
    assert all(r.passed for r in verify_all(300))
    assert sorted(expanded, key=list(F).index) == list(F)


def test_residual_unknown_id():
    with pytest.raises(ValueError):
        residual("T99", 5)  # type: ignore[arg-type]
