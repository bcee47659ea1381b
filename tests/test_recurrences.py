"""Residual tests: one section per theorem family, plus the verify machinery."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from partrec import dsl, functions, recurrences
from partrec.functions import PartitionFunctionId as F, function_value, gf_series
from partrec.recurrences import (
    VERIFY_MAX_N,
    TheoremId,
    _residuals,
    fast_po_odd_table,
    residual,
    verify,
    verify_all,
)
from partrec.series import THETA_FAMILIES, theta_series


# ---------------------------------------------------------------------------
# Closed-form right sides (signed pentagonal, triangular, oblong and square
# indicators): theta series on the unit function


def _theta(name, order):
    return theta_series(THETA_FAMILIES[name], order).coeffs


def test_gen_pentagonal_signed_matches_direct_scan():
    # independent route: walk m outward and place the sign directly
    expected = {}
    m = 0
    while True:
        e = m * (3 * m + 1) // 2
        if e <= 10_000:
            expected[e] = (-1) ** ((m + 1) // 2 % 2)
        e_neg = (-m) * (-3 * m + 1) // 2
        if e_neg <= 10_000:
            expected[e_neg] = (-1) ** ((1 - m) // 2 % 2)
        if min(e, e_neg) > 10_000:
            break
        m += 1
    assert list(_theta("PENT_CEIL", 10_000)) == [expected.get(n, 0) for n in range(10_001)]


def test_gen_pentagonal_signed_prefix():
    hits = [(n, c) for n, c in enumerate(_theta("PENT_CEIL", 27)) if c]
    assert hits == [
        (0, 1), (1, 1), (2, -1), (5, -1), (7, -1), (12, -1), (15, 1), (22, 1), (26, 1),
    ]


def test_triangular_indicator():
    triangulars = {k * (k + 1) // 2 for k in range(200)}
    assert list(_theta("TRI", 10_000)) == [1 if n in triangulars else 0 for n in range(10_001)]


def test_oblong_indicator():
    # the MERCA_PEED_TRI right side, theta(TRI) with q replaced by q^2
    oblongs = {k * (k + 1) for k in range(120)}
    series = dsl.evaluate(dsl.Subs(dsl.Theta("TRI"), 1, 2), 10_000)
    assert list(series) == [1 if n in oblongs else 0 for n in range(10_001)]


def test_square_rhs():
    squares = {m * m for m in range(1, 101)}
    assert list(_theta("SQ", 10_000)) == [1] + [
        2 if n in squares else 0 for n in range(1, 10_001)
    ]
    # the CLASSICAL_EULER right side, the series 1, is the origin indicator
    assert list(dsl.evaluate(dsl.IntLiteral(1), 3)) == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# Spot checks against hand-computed arithmetic (values from the small
# po_bar table 1,2,2,4,6,8,12,16,22,30,40 and friends)


def test_t1_examples():
    # n=1: 2 - 1 = 1, and 1 is pentagonal with positive sign
    # n=2: 2 - 2 - 1 = -1, and 2 is pentagonal with negative sign
    # n=3: 4 - 2 - 2 = 0, and 3 is not pentagonal
    for n in (1, 2, 3):
        assert residual(TheoremId.T1, n) == 0


def test_t2_examples():
    assert residual(TheoremId.T2, 0) == 0
    # 40 - 30 - 16 + 6 + 1 = 1 at the triangular number 10
    assert residual(TheoremId.T2, 10) == 0
    # 6 - 4 - 2 = 0 and 4 is not triangular
    assert residual(TheoremId.T2, 4) == 0


def test_t3_examples():
    assert residual(TheoremId.T3, 0) == 0
    assert residual(TheoremId.T3, 4) == 0   # 6 - 4 = 2 at the square 4
    assert residual(TheoremId.T3, 10) == 0  # 40 - 44 + 4 = 0


def test_t4_examples():
    for n in (0, 3, 5):
        assert residual(TheoremId.T4, n) == 0
    # the n=5 sum is pood(5) + pood(4) + pood(2) = 4 + 3 + 1
    assert function_value(F.POOD, 5) + function_value(F.POOD, 4) + function_value(
        F.POOD, 2
    ) == function_value(F.PO_ODD, 5)


def test_t5_examples():
    for n in (0, 3, 5):
        assert residual(TheoremId.T5, n) == 0
    # n=5: p(5) + p(4) - p(3) - p(0) = 7 + 5 - 3 - 1 = 8
    assert 7 + 5 - 3 - 1 == function_value(F.PO_ODD, 5)


def test_t6_examples():
    for n in (0, 4, 10):
        assert residual(TheoremId.T6, n) == 0
    # n=10 reads 232 - 200 + 8 = 40, another erratum witness
    assert function_value(F.OP, 10) - 2 * function_value(F.OP, 8) + 2 * function_value(
        F.OP, 2
    ) == 40


def test_dissection_examples():
    for n in (0, 2, 4):
        assert residual(TheoremId.T7_DISSECT_ODD, n) == 0
    for n in (0, 2, 5):
        assert residual(TheoremId.T8_DISSECT_EVEN, n) == 0
    # even dissection at n=5 is po_bar(10) = op(5) + 2*op(3) = 24 + 16 = 40
    assert function_value(F.OP, 5) + 2 * function_value(F.OP, 3) == 40


def test_t9_examples():
    for n in (0, 3, 5):
        assert residual(TheoremId.T9_P2, n) == 0
    # P2(3) + P2(2) + P2(0) = 2 + 1 + 1 = po_bar(3)
    assert function_value(F.P2MOD4, 3) + function_value(F.P2MOD4, 2) + function_value(
        F.P2MOD4, 0
    ) == 4


def test_qbar_examples():
    for n in (0, 2, 3):
        assert residual(TheoremId.T_QBAR, n) == 0
    assert function_value(F.QBAR, 2) == 3
    assert function_value(F.QBAR, 3) == 6


def test_pdo_identity_examples():
    for n in (0, 2, 5):
        assert residual(TheoremId.T_PDO_IDENT, n) == 0
    # at n=5 both sides equal -1
    rhs = function_value(F.PDO, 5) - function_value(F.PDO, 3) - function_value(F.PDO, 1)
    assert rhs == -1


def test_pd_identity_examples():
    for n in (0, 2, 3):
        assert residual(TheoremId.T_PD_IDENT, n) == 0
    # the k = -1 term of the right side shifts by (-1)(3(-1)+1) = 2
    assert function_value(F.PD, 2) - function_value(F.PD, 0) == 0


def test_pd_identity_must_be_one_sided():
    # a two-sided triangular sum double counts every exponent (T_k = T_{-k-1})
    # and already breaks at n = 0: it would give 2 instead of 1
    doubled = 0
    for k in (0, -1):
        doubled += (-1) ** ((k + 1) // 2 % 2) * function_value(F.PO_ODD, 0)
    assert doubled == 2
    assert residual(TheoremId.T_PD_IDENT, 0) == 0


def test_corollary_examples():
    assert residual(TheoremId.COR_PDO, 5) == 0  # sum is -1 and 5 is pentagonal, sign -1
    assert residual(TheoremId.COR_PD, 3) == 0   # 2 - 1 = 1 at the triangular number 3
    assert residual(TheoremId.COR_PD, 4) == 0   # 2 - 1 - 1 = 0, 4 not triangular
    assert _theta("PENT_CEIL", 5)[5] == -1


def test_parity_examples():
    assert residual(TheoremId.COR_POOD_PARITY, 5) == 0  # (4+3+1) mod 2
    assert residual(TheoremId.COR_P_PARITY, 3) == 0     # (3+2-1) mod 2
    assert residual(TheoremId.COR_P2_PARITY, 1) == 0    # (1+1) mod 2


def test_euler_example():
    assert residual(TheoremId.CLASSICAL_EULER, 5) == 0  # 7 - 5 - 3 + 1 = 0
    assert residual(TheoremId.CLASSICAL_EULER, 0) == 0


def test_cks_signed_example():
    # p(4) - 2p(3) + 2p(0) = 5 - 6 + 2 = 1 = (+1) * pdo(4)
    assert residual(TheoremId.CLASSICAL_CKS_SIGNED, 4) == 0
    assert function_value(F.PDO, 4) == 1


def test_merca_peed_examples():
    # peed(3) - 2*peed(1) = 3 - 2 = 1 and 3 is triangular
    assert residual(TheoremId.CLASSICAL_MERCA_PEED_2SQ, 3) == 0
    assert gf_series(F.PEED, 5).coeffs == (1, 1, 2, 3, 4, 6)


def test_merca_gk_example():
    # n=2: (p(2) - p(1)) - p(1) = 0; half-integral shifts contribute nothing
    assert residual(TheoremId.CLASSICAL_MERCA_GK, 2) == 0


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
            c = (k + 1) // 2
            shift = Fraction(c * (3 * c + (-1) ** (k % 2)) // 2, 2)
            if shift > n:
                break
            if shift.denominator == 1:  # p is zero at half-integers
                lhs += (-1) ** (c % 2) * function_value(F.P, n - int(shift))
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
        cor_pdo = residual(TheoremId.COR_PDO, n, source)
        assert cor_pdo == residual(TheoremId.T1, n, source) - residual(TheoremId.T_PDO_IDENT, n, source)


# sha256 of the residuals at 0 <= n <= 300, space-separated, under
# `_golden_noisy`; pinned from the hand-written residual functions that the
# suite statements replaced, so each must reproduce them term for term
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
    # the pointwise path and the whole-range scan
    pointwise = [residual(tid, n, _golden_noisy) for n in range(301)]
    scanned = _residuals(tid, 300, _golden_noisy)
    for vector in (pointwise, scanned):
        text = " ".join(map(str, vector))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RESIDUAL_DIGESTS[tid.value]


@pytest.mark.parametrize("tid", list(TheoremId))
def test_any_window_is_a_slice_of_the_whole_scan(tid):
    # pointwise residuals at odd and even n, so the mod-2 rule, subs(., q^2)
    # and extract(., 2, r) meet both alignments; the noisy source keeps zero
    # residuals from hiding a misplaced term, and the memoized source reads
    # the suite's residual table
    whole = _residuals(tid, 120, _golden_noisy)
    for n in (0, 1, 7, 40, 41, 119, 120):
        assert residual(tid, n, _golden_noisy) == whole[n]
    assert [residual(tid, n) for n in (0, 1, 64, 65, 120)] == [0] * 5


def test_residual_table_grows_to_the_suite_order():
    # the table doubles past n, but never past VERIFY_MAX_N, where T7 reads po_bar at 4999
    assert residual(TheoremId.T7_DISSECT_ODD, 1500) == 0
    assert residual(TheoremId.T7_DISSECT_ODD, VERIFY_MAX_N) == 0
    with pytest.raises(dsl.EvalError, match=f"above the suite's order {VERIFY_MAX_N}"):
        residual(TheoremId.T1, VERIFY_MAX_N + 1)
    with pytest.raises(dsl.EvalError):
        verify(TheoremId.T1, VERIFY_MAX_N + 1)
    with pytest.raises(dsl.EvalError):
        verify_all(VERIFY_MAX_N + 1)
    with pytest.raises(ValueError):
        residual(TheoremId.T1, -1)


def test_residual_table_concurrent_growth(monkeypatch):
    # growing a residual table reads the function store under the same,
    # reentrant lock; each expansion must grow the table, none repeated or lost
    scan = recurrences._residuals
    orders = []

    def recording(tid, n_max, values):
        orders.append(n_max)
        return scan(tid, n_max, values)

    monkeypatch.setattr(recurrences, "_residuals", recording)
    monkeypatch.setattr(recurrences, "_tables", {})
    functions._cache_clear()
    errors = []

    def worker(seed):
        for n in range(seed, 600, 7):
            if residual(TheoremId.T2, n):
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
    assert orders == sorted(set(orders)) and orders[-1] >= 599


def test_every_suite_reads_the_callers_source():
    # LEBESGUE too: it reads po_bar from `values`, not from the store
    def corrupted(fid, n):
        return function_value(fid, n) + (1 if (fid is F.PO_ODD and n == 9) else 0)

    report = verify(TheoremId.LEBESGUE, 50, values=corrupted)
    assert report.first_failure is not None and report.first_failure.n == 9


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
    # callers on several threads at once, growing one cold store, see the same reports
    functions._cache_clear()
    results = [None] * 4

    def worker(i):
        results[i] = verify_all(60)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for threaded in results:
        assert [r.theorem for r in threaded] == [r.theorem for r in sequential]
        assert all(r.passed for r in threaded)


def test_verify_all_expands_each_function_once(monkeypatch):
    expand = functions._expand_key
    expanded = []

    def counting(key, order):
        expanded.append(key)
        return expand(key, order)

    monkeypatch.setattr(functions, "_expand_key", counting)
    keys = {functions.KEYS[f] for f in (F.P, F.PO_ODD)}
    for n in (300, 2000):
        functions._cache_clear()
        expanded.clear()
        assert all(r.passed for r in verify_all(n))
        # at most one store expansion per key, and only of the tables that
        # the 6 undecided suites read: po_bar (LEBESGUE's product side) and
        # p in MERCA_GK's pulled subs, each at n, never past it.  T7 and T8
        # are decided, CKS_SQ's extract of pdo is p times a theta progression
        # (p's quotient applied in place), pd and peed appear only in decided
        # suites, and the parity suites apply pood's and p's quotients to
        # their thetas in place
        assert len(expanded) == len(set(expanded))
        assert set(expanded) == keys


def test_nineteen_suites_are_decided():
    # the 14 product suites, the three whose subs is of a product, and the
    # two dissections, whose extract of po_bar is op times a theta progression
    # that equals a theta row: subs(theta(SQ), q^2) for r = 0, 2 * theta(TWO_TRI4) for r = 1
    decided = {tid for tid in TheoremId if not dsl.expands(recurrences._statement(tid))}
    assert len(decided) == 19
    assert {TheoremId.CLASSICAL_EWELL, TheoremId.CLASSICAL_CKS_SIGNED, TheoremId.CLASSICAL_MERCA_PEED_TRI} <= decided
    assert {TheoremId.T7_DISSECT_ODD, TheoremId.T8_DISSECT_EVEN} <= decided


@pytest.mark.parametrize("tid", list(TheoremId))
def test_every_suite_holds_on_the_coefficient_route_to_2000(tid):
    # verify decides most suites on eta exponents; the residual scan still
    # runs every table through its recurrence
    assert not any(_residuals(tid, 2000, function_value))


@pytest.mark.parametrize("tid", list(TheoremId))
def test_verify_agrees_with_the_coefficient_route(tid):
    # a caller's source sends every suite to the coefficient path
    for n in (0, 1, 150):
        decided = verify(tid, n)
        scanned = verify(tid, n, values=lambda f, k: function_value(f, k))
        assert (decided.passed, decided.first_failure) == (scanned.passed, scanned.first_failure)


def test_residual_unknown_id():
    with pytest.raises(ValueError):
        residual("T99", 5)  # type: ignore[arg-type]
