"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <k> ...: PASS" line (visible with
pytest -s; on failure pytest shows the captured line plus the assertion).
Every comparison is exact integer equality; the only tolerances anywhere
are the stated wall-clock budgets.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from partrec import dsl
from partrec.functions import PartitionFunctionId as F, function_value, gf_series, lebesgue_partial
from partrec.oracle import constraint_for, oracle_count, oracle_table
from partrec.recurrences import TheoremId, fast_po_odd_table, residual, verify_all
from partrec.series import THETA_FAMILIES, pochhammer_expand, theta_series

from conftest import JACOBI_TRIPLE_PRODUCT_CASES, PAPER_QID, REPO_ROOT

PO_BAR_SMALL = [1, 2, 2, 4, 6, 8, 12, 16, 22, 30]


def announce(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_small_value_table():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "compute", "po_bar", "--n", "9", "--format", "csv"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    elapsed = time.perf_counter() - start
    rows = proc.stdout.splitlines()
    values = [int(r.split(",")[1]) for r in rows[1:]]
    ok = proc.returncode == 0 and values == PO_BAR_SMALL and elapsed < 1.0
    announce(1, "po_bar value table", ok)
    assert proc.returncode == 0
    assert values == PO_BAR_SMALL
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_erratum_three_routes():
    # A published table of these numbers prints po_bar(10) = 42 from the
    # recurrence step 2*po_bar(8) - po_bar(2); the square recurrence
    # actually gives 2*po_bar(8) - 2*po_bar(2) = 40.  Three independent
    # routes must agree on 40.
    start = time.perf_counter()
    from_product = gf_series(F.PO_ODD, 10)[10]
    from_recurrence = fast_po_odd_table(10)[10]
    from_enumeration = oracle_count(constraint_for(F.PO_ODD), 10)
    elapsed = time.perf_counter() - start
    ok = from_product == from_recurrence == from_enumeration == 40 and elapsed < 5.0
    announce(2, "po_bar(10) = 40 by three routes", ok)
    assert from_product == 40
    assert from_recurrence == 40
    assert from_enumeration == 40
    assert 2 * 22 - 2 * 2 == 40  # the corrected recurrence step
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_3_all_theorem_suites_to_500():
    start = time.perf_counter()
    reports = verify_all(500)
    elapsed = time.perf_counter() - start
    failed = [r.summary_line() for r in reports if not r.passed]
    ok = not failed and len(reports) == len(TheoremId) and elapsed < 30.0
    announce(3, "verify all --n 500", ok)
    assert not failed, failed
    assert len(reports) == len(TheoremId)
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_4_oracle_equivalence_to_40():
    start = time.perf_counter()
    mismatches = []
    for fid in F:
        series = gf_series(fid, 40)
        table = oracle_table(constraint_for(fid), 40)
        for n in range(41):
            if series[n] != table[n]:
                mismatches.append((fid.value, n, series[n], table[n]))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    announce(4, "oracle equivalence for nine functions to n=40", ok)
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_5_triple_product_instantiations():
    bad = []
    for name, spec in JACOBI_TRIPLE_PRODUCT_CASES:
        if pochhammer_expand(spec, 200) != theta_series(THETA_FAMILIES[name], 200):
            bad.append(name)
    ok = not bad and len(JACOBI_TRIPLE_PRODUCT_CASES) == 6
    announce(5, "six triple-product instantiations at order 200", ok)
    assert not bad, bad


def test_criterion_6_lebesgue_to_500():
    product = gf_series(F.PO_ODD, 500)
    # terms vanish below order 500 from j = 32 on (32*33/2 = 528)
    stabilized = lebesgue_partial(32, 500)
    later = lebesgue_partial(45, 500)
    one_term_short = lebesgue_partial(30, 500)
    ok = (
        stabilized == product
        and later == product
        and one_term_short != product
        and one_term_short.coeffs[:496] == product.coeffs[:496]
        and one_term_short[496] == product[496] - 2
    )
    announce(6, "Lebesgue partial sums equal the product at order 500", ok)
    assert stabilized == product
    assert later == product
    # the j = 31 term enters at its valuation 496 with coefficient 2
    assert one_term_short.coeffs[:496] == product.coeffs[:496]
    assert one_term_short[496] == product[496] - 2


def test_criterion_7_dissection_products():
    po = gf_series(F.PO_ODD, 401)
    odd_part = po.extract(2, 1)
    even_part = po.truncate(400).extract(2, 0)
    # state both right sides in the identity language and evaluate exactly
    [odd_stmt] = dsl.parse(
        "extract(po_bar, 2, 1) == 2 * P(q^2; q^2) * P(q^8; q^8)^2"
        " / (P(q^1; q^1)^2 * P(q^4; q^4)) within 200"
    )
    [even_stmt] = dsl.parse(
        "extract(po_bar, 2, 0) == P(q^4; q^4)^5"
        " / (P(q^1; q^1)^2 * P(q^2; q^2) * P(q^8; q^8)^2) within 200"
    )
    odd_product = dsl.evaluate(odd_stmt.rhs, 200)
    even_product = dsl.evaluate(even_stmt.rhs, 200)
    ok = odd_part == odd_product and even_part == even_product
    announce(7, "even/odd dissections match their products at order 200", ok)
    assert odd_part == odd_product
    assert even_part == even_product


def test_criterion_8_parity_congruences_to_2000():
    parities = (TheoremId.COR_POOD_PARITY, TheoremId.COR_P_PARITY, TheoremId.COR_P2_PARITY)
    # warm the three tables once; the scans then only index into them
    for fid in (F.POOD, F.P, F.P2MOD4):
        function_value(fid, 2000)
    offenders = []
    for n in range(1, 2001):
        if any(residual(tid, n) for tid in parities):
            offenders.append(n)
    ok = not offenders
    announce(8, "three congruence sums are even for 1 <= n <= 2000", ok)
    assert not offenders, offenders[:5]


def test_criterion_9_mutation_sensitivity():
    rng = random.Random(1105)
    missed = []
    for trial in range(20):
        fid = rng.choice(list(F))
        n0 = rng.randrange(0, 250)
        delta = rng.choice((1, -1))

        def perturbed(fid_, n, _fid=fid, _n0=n0, _delta=delta):
            base = function_value(fid_, n)
            return base + _delta if (fid_ is _fid and n == _n0) else base

        reports = verify_all(300, values=perturbed)
        if all(r.passed for r in reports):
            missed.append((fid.value, n0, delta))
    ok = not missed
    announce(9, "every injected +-1 fault trips a suite (20 trials)", ok)
    assert not missed, missed


def test_criterion_10_dsl_file_checks():
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "check", str(PAPER_QID)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    bad_text = "p == within 7\n"
    bad = REPO_ROOT / "tests" / "_malformed_tmp.qid"
    bad.write_text(bad_text)
    try:
        proc_bad = subprocess.run(
            [sys.executable, "-m", "partrec", "check", str(bad)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
    finally:
        bad.unlink()
    statements = dsl.parse(PAPER_QID.read_text(encoding="utf-8"))
    orders_ok = all(s.order == 200 for s in statements)
    ok = (
        proc.returncode == 0
        and orders_ok
        and proc_bad.returncode == 2
        and "line 1" in proc_bad.stderr
        and "col" in proc_bad.stderr
    )
    announce(10, "bundled identity file passes at order 200; malformed file exits 2", ok)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert orders_ok
    assert proc_bad.returncode == 2
    assert "line 1" in proc_bad.stderr and "col" in proc_bad.stderr


def test_criterion_11_dsl_file_at_order_2000_within_budget():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "partrec", "check", str(PAPER_QID), "--order", "2000"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if ": fail (" in line]
    # lebesgue(20) equals po_bar only below q^231 (21 * 22 / 2), so its two statements fail there
    lebesgue_only = len(failed) == 2 and all(
        line.startswith("lebesgue(20) == ") and "first failure at n=231," in line for line in failed
    )
    ok = proc.returncode == 1 and len(lines) == 40 and lebesgue_only and elapsed < 6.0
    announce(11, "bundled identity file at order 2000 in under 6 s", ok)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert len(lines) == 40
    assert lebesgue_only, failed
    assert elapsed < 6.0, f"took {elapsed:.3f}s"
