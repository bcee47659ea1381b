"""Identity-language tests: lexing, parsing, evaluation, printing, checking."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partrec.dsl import (
    MAX_DEPTH,
    MAX_DIGITS,
    Add,
    Div,
    EvalError,
    Extract,
    IdentityStatement,
    IntLiteral,
    MAX_ORDER,
    LebesguePartial,
    Mul,
    NamedFunction,
    ParseError,
    Pochhammer,
    Pow,
    Sub,
    Subs,
    Theta,
    check,
    evaluate,
    parse,
    print_expr,
    residuals,
    statement_text,
)
from partrec import dsl, functions, recurrences, series
from partrec.functions import PartitionFunctionId as F, function_value, gf_series, lebesgue_partial
from partrec.recurrences import _SUITES, TheoremId, _residuals, residual
from partrec.report import Failure, format_int
from partrec.series import THETA_FAMILIES, ProductSpec, pochhammer_expand, theta_series

from conftest import PAPER_QID, THETA_ETA_QID, schoolbook_inverse, schoolbook_mul


# ---------------------------------------------------------------------------
# Parsing


def test_parse_quotient_statement():
    [stmt] = parse("P(-q^1; q^2) / P(q^1; q^2) == po_bar within 50")
    assert isinstance(stmt.lhs, Div)
    assert stmt.lhs.left == Pochhammer(-1, 1, 2)
    assert stmt.lhs.right == Pochhammer(1, 1, 2)
    assert stmt.rhs == NamedFunction(F.PO_ODD)
    assert stmt.order == 50


def test_parse_theta_product_statement():
    [stmt] = parse("theta(PENT) == P(q^1; q^3) * P(q^2; q^3) * P(q^3; q^3) within 100")
    assert stmt.lhs == Theta("PENT")
    assert isinstance(stmt.rhs, Mul)


def test_parse_power_folds_into_pochhammer():
    [stmt] = parse("P(-q^1; q^1)^2 == qbar within 10")
    assert stmt.lhs == Pochhammer(-1, 1, 1, 2)


def test_parse_power_of_other_atoms():
    [stmt] = parse("theta(TRI)^2 == theta(TRI) * theta(TRI) within 30")
    assert stmt.lhs == Pow(Theta("TRI"), 2)


def test_parse_extract_and_lebesgue():
    [stmt] = parse("extract(po_bar, 2, 1) == lebesgue(5) within 20")
    assert stmt.lhs == Extract(NamedFunction(F.PO_ODD), 2, 1)
    assert stmt.rhs == LebesguePartial(5)


def test_parse_bare_theta_name():
    [stmt] = parse("PENT == theta(PENT) within 20")
    assert stmt.lhs == Theta("PENT")


def test_parse_precedence():
    [stmt] = parse("1 + 2 * pd^2 - 3 == 0 within 5")
    # ((1 + (2 * pd^2)) - 3)
    lhs = stmt.lhs
    assert type(lhs).__name__ == "Sub"
    assert type(lhs.left).__name__ == "Add"
    assert lhs.left.right == Mul(IntLiteral(2), Pow(NamedFunction(F.PD), 2))


def test_parse_unclosed_paren():
    with pytest.raises(ParseError) as info:
        parse("P(q^1; q^2 ==")
    assert info.value.line == 1
    assert info.value.col == 12  # position of the '==' where ')' was expected
    assert "expected ')'" in str(info.value)


def test_parse_unknown_function():
    with pytest.raises(ParseError, match="unknown function name 'nosuch'"):
        parse("nosuch == p within 5")


def test_parse_unknown_theta_family():
    with pytest.raises(ParseError, match="unknown theta family"):
        parse("theta(WRONG) == p within 5")


def test_parse_error_reports_correct_line():
    text = "p == p within 5\n\n# fine so far\npd == within 5\n"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == 4


def test_parse_order_bounds():
    with pytest.raises(ParseError, match="exceeds the engine maximum"):
        parse("p == p within 6000")
    with pytest.raises(ParseError, match="order must be positive"):
        parse("p == p within 0")


def test_parse_trailing_junk():
    with pytest.raises(ParseError, match="trailing input"):
        parse("p == p within 5 5")


def test_parse_extract_validation():
    with pytest.raises(ParseError, match="residue"):
        parse("extract(p, 2, 2) == p within 5")
    with pytest.raises(ParseError, match="modulus"):
        parse("extract(p, 0, 0) == p within 5")


def test_parse_pochhammer_validation():
    with pytest.raises(ParseError, match="a must be >= 1"):
        parse("P(q^0; q^2) == p within 5")


def test_parse_malformed_exponent():
    with pytest.raises(ParseError, match="expected an integer"):
        parse("P(q^x; q^2) == p within 5")
    with pytest.raises(ParseError, match="expected an integer"):
        parse("pd^ == p within 5")


@pytest.mark.parametrize("base, col", [("P(q^1; q^1)", 13), ("theta(TRI)", 12)])
@pytest.mark.parametrize("exponent", [MAX_ORDER, MAX_ORDER + 1])
def test_parse_exponent_budget(base, col, exponent):
    text = f"{base}^{exponent} == p within 5"
    if exponent <= MAX_ORDER:
        [stmt] = parse(text)
        assert len(evaluate(stmt.lhs, stmt.order)) == 6
        return
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (1, col)
    assert f"exponent {exponent} exceeds the engine maximum {MAX_ORDER}" in str(info.value)


@pytest.mark.parametrize("text, col", [("p == p within \u00b2", 15), ("p == p within 1\u0663", 16),
                                       ("\u0663 == 3 within 5", 1), ("P(q^\u00b9; q^1) == p within 5", 5)])
def test_parse_only_ascii_digits_are_integers(text, col):
    # str.isdigit accepts superscripts and Arabic-Indic digits; int() then
    # fails on '\u00b2' and silently reads '1\u0663' as 13
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse(text)
    assert (info.value.line, info.value.col) == (1, col)


def test_parse_integer_literal_length_budget():
    [stmt] = parse(f"{'9' * MAX_DIGITS} == {'9' * MAX_DIGITS} within 1")
    assert stmt.lhs == IntLiteral(int("9" * MAX_DIGITS))
    with pytest.raises(ParseError, match=f"longer than {MAX_DIGITS} digits") as info:
        parse(f"p == {'9' * (MAX_DIGITS + 1)} within 1")
    assert (info.value.line, info.value.col) == (1, 6)


@pytest.mark.parametrize(
    "deep, deeper, col",
    [
        # nesting: the top-level expression is the first level, and the
        # error points at the first token of the one level too deep
        ("(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1),
         "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, MAX_DEPTH + 1),
        # a left-deep operator chain: each operator adds one level
        ("p" + "*p" * (MAX_DEPTH - 1), "p" + "*p" * MAX_DEPTH, 2 * MAX_DEPTH),
        ("extract(" * (MAX_DEPTH - 1) + "p" + ", 1, 0)" * (MAX_DEPTH - 1),
         "extract(" * MAX_DEPTH + "p" + ", 1, 0)" * MAX_DEPTH, 8 * MAX_DEPTH + 1),
    ],
    ids=["parentheses", "chain", "extract"],
)
def test_parse_depth_budget(deep, deeper, col):
    [stmt] = parse(f"{deep} == p within 3")
    assert parse(statement_text(stmt)) == [stmt]  # printing recurses as deep
    assert len(evaluate(stmt.lhs, 3)) == 4
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}") as info:
        parse(f"{deeper} == p within 3")
    assert (info.value.line, info.value.col) == (1, col)


def test_parse_skips_comments_and_blanks():
    text = "# comment only\n\np == p within 5  # trailing comment\n"
    assert len(parse(text)) == 1


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_named_function():
    series = evaluate(NamedFunction(F.PO_ODD), 9)
    assert series.coeffs == (1, 2, 2, 4, 6, 8, 12, 16, 22, 30)


def test_evaluate_extract_keeps_full_order():
    series = evaluate(Extract(NamedFunction(F.PO_ODD), 2, 0), 5)
    assert series.coeffs == (1, 2, 6, 12, 22, 40)


def test_evaluate_lebesgue():
    assert evaluate(LebesguePartial(3), 3).coeffs == (1, 2, 2, 4)


def test_evaluate_literal_and_pow_zero():
    assert evaluate(IntLiteral(7), 3).coeffs == (7, 0, 0, 0)
    assert evaluate(Pow(NamedFunction(F.P), 0), 3).coeffs == (1, 0, 0, 0)
    assert evaluate(Pochhammer(1, 1, 1, 0), 2).coeffs == (1, 0, 0)


def test_evaluate_division_by_non_unit_series():
    [stmt] = parse("p / (pd - pd) == p within 10")
    with pytest.raises(EvalError) as info:
        evaluate(stmt.lhs, 10)
    assert str(info.value) == "cannot invert series with constant term 0 (in: pd - pd)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 / 2", "cannot invert series with constant term 2 (in: 2)"),
        # a folded divisor with a non-unit scalar, and an opaque one in a folded chain
        ("1 / (2 * P(q^1; q^1))", "cannot invert series with constant term 2 (in: 2 * P(q^1; q^1))"),
        ("P(q^1; q^1) / (pd - pd)", "cannot invert series with constant term 0 (in: pd - pd)"),
        ("(P(q^1; q^1) / 0)^0", "cannot invert series with constant term 0 (in: 0)"),
        # the first error in evaluation order wins: the divisor, then the dividend
        (
            "P(q^1; q^2) / extract(po_bar, 2, 1) * extract(p, 3000, 0)",
            "cannot invert series with constant term 2 (in: extract(po_bar, 2, 1))",
        ),
        (
            "extract(p, 3000, 0) * P(q^1; q^2) / extract(po_bar, 2, 1)",
            "extract needs its argument to order 30000, above 5000 (in: extract(p, 3000, 0))",
        ),
    ],
)
def test_division_by_non_unit_keeps_its_message_in_folded_chains(text, message):
    [stmt] = parse(f"{text} == p within 10")
    with pytest.raises(EvalError) as info:
        evaluate(stmt.lhs, 10)
    assert str(info.value) == message


def test_a_non_unit_divisor_is_evaluated_once(monkeypatch):
    calls = []

    def counting(j_max, order):
        calls.append(j_max)
        return lebesgue_partial(j_max, order)

    monkeypatch.setattr(dsl, "lebesgue_partial", counting)
    [stmt] = parse("P(q^1; q^1) / (lebesgue(3) - lebesgue(3)) == p within 10")
    with pytest.raises(EvalError):
        evaluate(stmt.lhs, 10)
    assert calls == [3, 3]


def test_division_by_a_huge_non_unit_names_its_digit_count():
    # 999^5000 has 14998 digits, past CPython's limit on converting an int to text
    [stmt] = parse("p / 999^5000 == p within 3")
    with pytest.raises(EvalError) as info:
        evaluate(stmt.lhs, 3)
    head = "67211119598656178118...(14998 digits)"
    assert str(info.value) == f"cannot invert series with constant term {head} (in: 999^5000)"


@pytest.mark.parametrize(
    "text, where",
    [
        ("(7^5000)^5000", "(7^5000)^5000"),
        ("((7^5000)^5000)^5000", "(7^5000)^5000"),  # the innermost power past the bound
        ("subs(7^5000, q^1)^5000", "subs(7^5000, q^1)^5000"),  # a subs's scalar is its chain's
    ],
)
def test_a_scalar_power_past_the_bound_fails(text, where):
    # 7^5000 has 14037 bits; its 5000th power is refused before it is built
    [stmt] = parse(f"{text} == 0 within 1")
    with pytest.raises(EvalError) as info:
        check(stmt)
    assert str(info.value) == f"scalar power past {dsl.MAX_SCALAR_BITS} bits (in: {where})"


@pytest.mark.parametrize(
    "text, where",
    [
        # 1 + 7^4000 has 11231 bits; its 5000th power is refused once the base has run
        ("(lebesgue(0) + 7^4000)^5000", "(lebesgue(0) + 7^4000)^5000"),
        ("((lebesgue(0) + 7^4000) * P(q^1; q^1))^5000", "((lebesgue(0) + 7^4000) * P(q^1; q^1))^5000"),  # squared
        ("(p - 0)^5000", None),  # constant term 1
        ("(lebesgue(0) + 2)^5000", None),  # 2 bits * 5000
        ("((lebesgue(0) + 7^4000)^5 * (lebesgue(0) + 7^4000)^2)^1", None),  # a first power builds nothing
    ],
)
def test_a_dense_power_is_bounded_by_its_constant_term(text, where):
    [stmt] = parse(f"{text} == 0 within 1")
    if where is None:  # run, and compared at q^0
        assert check(stmt).first_failure.n == 0
        return
    with pytest.raises(EvalError) as info:
        check(stmt)
    assert str(info.value) == f"power's constant term past {dsl.MAX_SCALAR_BITS} bits (in: {where})"


@pytest.mark.parametrize(
    "text, ok",
    [
        ("extract(po_bar, 2, 0) == po_bar within 2500", True),  # child order 5000
        ("extract(po_bar, 2, 1) == po_bar within 2500", False),  # 5001
        ("extract(po_bar, 1000000, 0) == po_bar within 5000", False),
        ("extract(extract(pd, 2, 0), 2, 0) == pd within 1250", True),  # 2500, then 5000
        ("extract(extract(pd, 2, 0), 2, 0) == pd within 1251", False),  # 2502, then 5004
    ],
)
def test_evaluate_extract_budget(text, ok):
    [stmt] = parse(text)
    if ok:
        assert len(evaluate(stmt.lhs, stmt.order)) == stmt.order + 1
        return
    with pytest.raises(EvalError) as info:
        evaluate(stmt.lhs, stmt.order)
    assert f"above {MAX_ORDER}" in str(info.value)


def test_evaluation_is_order_monotone():
    statements = parse(PAPER_QID.read_text(encoding="utf-8"))
    probes = [statements[2].lhs, statements[9].lhs]
    probes += [s.lhs for s in statements if isinstance(s.lhs, Extract)][:2]
    for expr in probes:
        wide = evaluate(expr, 200)
        narrow = evaluate(expr, 50)
        assert wide.truncate(50) == narrow


# ---------------------------------------------------------------------------
# Printing and round trips


def test_print_round_trip_structural():
    statements = parse(PAPER_QID.read_text(encoding="utf-8"))
    assert statements, "bundled identity file must not be empty"
    for stmt in statements:
        text = statement_text(stmt)
        [reparsed] = parse(text)
        assert reparsed == stmt, text


def test_print_parenthesizes_by_precedence():
    [stmt] = parse("(p + pd) * op == p within 5")
    assert print_expr(stmt.lhs) == "(p + pd) * op"
    [stmt] = parse("p - (pd - op) == p within 5")
    assert print_expr(stmt.lhs) == "p - (pd - op)"
    [stmt] = parse("p / (pd * op) == p within 5")
    assert print_expr(stmt.lhs) == "p / (pd * op)"


def test_round_trip_evaluates_identically():
    statements = parse(PAPER_QID.read_text(encoding="utf-8"))
    for stmt in statements[:6]:
        reparsed = parse(statement_text(stmt))[0]
        for order in (0, 1, 13, 40):
            assert evaluate(stmt.lhs, order) == evaluate(reparsed.lhs, order)
            assert evaluate(stmt.rhs, order) == evaluate(reparsed.rhs, order)


# ---------------------------------------------------------------------------
# Checking


def test_check_lebesgue_identity():
    [stmt] = parse("lebesgue(14) == P(-q^1; q^2) / P(q^1; q^2) within 100")
    report = check(stmt)
    assert report.passed, report.summary_line()


def test_check_odd_dissection_product():
    [stmt] = parse(
        "extract(po_bar, 2, 1) == 2 * P(q^2; q^2) * P(q^8; q^8)^2"
        " / (P(q^1; q^1)^2 * P(q^4; q^4)) within 100"
    )
    assert check(stmt).passed


def test_check_reports_first_difference():
    [stmt] = parse("po_bar == pd within 5")
    report = check(stmt)
    assert not report.passed
    assert report.first_failure is not None
    assert report.first_failure.n == 1
    assert report.first_failure.residual == 1  # lhs 2, rhs 1
    assert report.detail == "q^1: lhs=2, rhs=1"


def test_check_order_override():
    [stmt] = parse("po_bar == P(-q^1; q^2) / P(q^1; q^2) within 200")
    report = check(stmt, order=25)
    assert report.passed and report.n_max == 25


def test_check_all_bundled_statements():
    statements = parse(PAPER_QID.read_text(encoding="utf-8"))
    for stmt in statements:
        report = check(stmt, order=60)
        assert report.passed, report.summary_line()


# ---------------------------------------------------------------------------
# Fuzzed front end: any text either parses or raises ParseError

_FRAGMENTS = [
    "p", "po_bar", "theta", "(", ")", "TRI", "P(", "-q^1", "; q^2)", "q^", "extract(", "lebesgue(",
    ", ", "==", "within", "+", "-", "*", "/", "^", "#", "\n", " ", "0", "1", "7", "42",
    "\u00b2", "\u0663", "\u2460", "\uff11", "9" * (MAX_DIGITS + 1), "(" * 120, "*p" * 120,
]
_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=30).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_text)
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# The theorem suites are statements of the language


def test_every_suite_is_a_statement_in_the_language():
    assert set(_SUITES) == set(TheoremId)
    for tid, text in _SUITES.items():
        [stmt] = parse(f"{text} within 300")
        assert statement_text(stmt) == f"{text} within 300"
        report = check(stmt)
        assert report.passed, (tid, report.summary_line())


def test_suite_with_swapped_kernel_fails():
    text = _SUITES[TheoremId.T1].replace("theta(PENT)", "theta(PENT_CEIL)")
    assert text == "po_bar * theta(PENT_CEIL) == theta(PENT_CEIL)"
    assert not check(parse(f"{text} within 300")[0]).passed


# ---------------------------------------------------------------------------
# subs, mod, value sources and read orders


def test_subs_sign_twist():
    pdo = gf_series(F.PDO, 20)
    [stmt] = parse("subs(pdo, -q^1) == subs(pdo, -q^2) within 20")
    assert list(evaluate(stmt.lhs, 20)) == [(-1) ** n * pdo[n] for n in range(21)]
    twisted = [0] * 21
    twisted[::2] = [(-1) ** i * pdo[i] for i in range(11)]
    assert list(evaluate(stmt.rhs, 20)) == twisted


def test_subs_order_not_divisible_by_d():
    # order 10 with d = 3 reads p to order 3 and keeps all 11 coefficients
    series = evaluate(Subs(NamedFunction(F.P), 1, 3), 10)
    assert list(series) == [1, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0]


def test_subs_print_parse_round_trip():
    text = "subs(extract(pdo, 2, 0), -q^2) == subs(p * theta(TRI), q^1) - 1 within 9"
    [stmt] = parse(text)
    assert stmt.lhs == Subs(Extract(NamedFunction(F.PDO), 2, 0), -1, 2)
    assert statement_text(stmt) == text
    with pytest.raises(ParseError, match="subs exponent d must be >= 1") as info:
        parse("subs(p, q^0) == p within 5")
    assert (info.value.line, info.value.col) == (1, 11)  # at the 0


def test_mod_skips_q0():
    # the constant term 3 is odd, but q^0 is not compared
    [stmt] = parse("2 * p + 3 == 0 mod 2 within 40")
    assert stmt.modulus == 2
    assert check(stmt).passed
    assert not check(parse("2 * p + 3 == 0 within 40")[0]).passed


def test_mod_reports_the_residual_mod_m():
    [stmt] = parse("7 * po_bar == 0 mod 4 within 5")
    report = check(stmt)
    assert report.first_failure is not None
    assert (report.first_failure.n, report.first_failure.residual) == (1, 2)  # 14 mod 4
    assert report.detail == "q^1: lhs=14, rhs=0"
    assert residuals(parse("0 == po_bar mod 4 within 5")[0], 5) == [0, 2, 2, 0, 2, 0]


@pytest.mark.parametrize("modulus", ["0", "1"])
def test_mod_below_two_is_a_parse_error(modulus):
    with pytest.raises(ParseError, match="modulus must be at least 2") as info:
        parse(f"\np == p mod {modulus} within 5")
    assert (info.value.line, info.value.col) == (2, 12)


def test_evaluate_reads_a_values_source():
    def doubled(fid, n):
        return 2 * gf_series(fid, n)[n]

    product = Mul(NamedFunction(F.P), NamedFunction(F.PD))
    assert list(evaluate(product, 6, doubled)) == [4 * c for c in evaluate(product, 6)]


def test_grow_reads_each_table_at_its_largest_order(monkeypatch):
    statements = parse(
        # an extract's argument that does not dissect (no theta family fits
        # its eta exponents off the multiples of 3) is read at m*n + r, a
        # subs's at n // d
        "extract(po_bar, 3, 1) + 0 == 1 within 5\n"
        "subs(extract(pdo, 3, 0), q^2) + 0 == 1 within 5\n"
        # an extract past MAX_ORDER raises before it reads anything
        "extract(p, 5000, 0) + op == 1 within 3\n"
        # pood and p2 read one table
        "pood + 0 == 1 within 5\np2 + 0 == 1 within 9\n"
        # a chain reads its eta quotient, here po_bar's, not pd's and pdo's
        "pd * pdo + 0 == 1 within 7\n"
        # a decided statement reads nothing
        "P(-q^1; q^2) / P(q^1; q^2)^2 == P(q^3; q^3) within 7\n"
    )

    def run():
        for stmt in statements:
            try:
                check(stmt)
            except EvalError:
                pass

    reads, expanded = _store_reads(monkeypatch, run)
    expected = {F.PO_ODD: 16, F.PDO: 6, F.POOD: 9}
    # each failure's report evaluates both sides at its index, q^1 here, past
    # which every eta_k (k >= 2) is 1: pood and p2 read eta1^-1 there, and
    # pd * pdo reads eta1^-2
    at_q1 = {series.eta_key({1: -1}): 1, series.eta_key({1: -2}): 1}
    assert reads == {**{functions.KEYS[f]: n for f, n in expected.items()}, **at_q1}
    assert expanded == set(reads)


@pytest.mark.parametrize(
    "text, product",
    [
        ("7", True),
        ("P(-q^1; q^3)", True),
        ("po_bar", True),
        ("theta(PENT)", True),
        ("theta(GPENT_HALF)", False),  # no eta form
        ("(p / P(-q^1; q^3))^2 * 3", True),
        ("subs(p, q^2)", True),
        ("subs(lebesgue(3), -q^2)", False),
        ("extract(p, 2, 1)", False),
        ("lebesgue(3)", False),
        ("p + op", False),
        ("p - op", False),
    ],
)
def test_is_product_per_node_kind(text, product):
    # bare and inside a chain; under `mod 3` a product is decided over F_3
    # too, its scalar being 1 or 0 mod 3, and under `mod 9` it expands
    for side in (text, f"pd * ({text})^2 / op"):
        stmt = parse(f"{side} == 1 within 5")[0]
        assert (dsl._form(dsl._fold(stmt.lhs, 5, None)) is not None) is product
        assert dsl.expands(stmt) is not product
        assert dsl.expands(parse(f"{side} == 1 mod 3 within 5")[0]) is not product
        assert dsl.expands(parse(f"{side} == 1 mod 9 within 5")[0])


# ---------------------------------------------------------------------------
# Round trip of random trees: statement_text, then parse, gives the same tree

_leaves = st.one_of(
    st.integers(0, 30).map(IntLiteral),
    st.builds(Pochhammer, st.sampled_from([1, -1]), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3)),
    st.sampled_from(sorted(THETA_FAMILIES)).map(Theta),
    st.sampled_from(list(F)).map(NamedFunction),
    st.integers(0, 4).map(LebesguePartial),
)


def _extend(children):
    binary = st.sampled_from([Add, Sub, Mul, Div])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, children, children),
        # P(...)^k parses back into the Pochhammer's own power, so Pow never wraps a power-1 atom
        st.builds(Pow, children, st.integers(0, 3)).filter(
            lambda e: not (isinstance(e.base, Pochhammer) and e.base.power == 1)
        ),
        st.integers(1, 3).flatmap(lambda m: st.builds(Extract, children, st.just(m), st.integers(0, m - 1))),
        st.builds(Subs, children, st.sampled_from([1, -1]), st.integers(1, 3)),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=8)


def _value(expr, order):
    try:
        return evaluate(expr, order)
    except EvalError as exc:  # a non-unit divisor
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_trees, _trees, st.one_of(st.none(), st.integers(2, 7)), st.integers(1, 6))
def test_random_statements_survive_print_and_parse(lhs, rhs, modulus, order):
    stmt = IdentityStatement(lhs, rhs, order, modulus=modulus)
    [parsed] = parse(statement_text(stmt))
    # parsed carries its text as its source and stmt has none: neither compares or hashes it
    assert parsed.source and not stmt.source
    assert parsed == stmt and hash(parsed) == hash(stmt)
    assert hash(parsed.lhs) == hash(lhs) and hash(parsed.rhs) == hash(rhs)
    assert _value(parsed.lhs, order) == _value(lhs, order)
    assert _value(parsed.rhs, order) == _value(rhs, order)


# ---------------------------------------------------------------------------
# Product forms: folded chains against the binomial route and schoolbook products


def _reference(expr, order, values):
    """expr as evaluation worked before chains were folded: each Pochhammer
    atom through `pochhammer_expand`, each product and quotient schoolbook."""
    one = [1] + [0] * order
    if isinstance(expr, IntLiteral):
        return [expr.value] + [0] * order
    if isinstance(expr, Pochhammer):
        if not expr.power:
            return one
        return list(pochhammer_expand(ProductSpec.of((expr.sign, expr.a, expr.b, expr.power)), order))
    if isinstance(expr, Mul):
        left = _reference(expr.left, order, values)
        return schoolbook_mul(left, _reference(expr.right, order, values))
    if isinstance(expr, Div):
        divisor = _reference(expr.right, order, values)
        dividend = _reference(expr.left, order, values)
        if divisor[0] not in (1, -1):
            raise EvalError(f"cannot invert series with constant term {divisor[0]}", print_expr(expr.right))
        return schoolbook_mul(dividend, schoolbook_inverse(divisor))
    if isinstance(expr, Pow):
        base, result = _reference(expr.base, order, values), one
        for _ in range(expr.exponent):
            result = schoolbook_mul(result, base)
        return result
    if isinstance(expr, (Add, Sub)):
        left = _reference(expr.left, order, values)
        right = _reference(expr.right, order, values)
        return [x + y if isinstance(expr, Add) else x - y for x, y in zip(left, right)]
    if isinstance(expr, NamedFunction):
        return [function_value(expr.fid, n) if values is None else values(expr.fid, n) for n in range(order + 1)]
    if isinstance(expr, Theta):
        return list(theta_series(THETA_FAMILIES[expr.family], order))
    return list(lebesgue_partial(expr.j_max, order))


def _noisy(fid, n):
    return function_value(fid, n) + (n * (1 + list(F).index(fid))) % 5 - 2


_opaque = st.one_of(
    st.sampled_from(list(F)).map(NamedFunction),
    st.just(Theta("GPENT_HALF")),
    st.integers(0, 4).map(LebesguePartial),
    st.builds(Sub, st.sampled_from(list(F)).map(NamedFunction), st.integers(0, 2).map(IntLiteral)),
)
_foldable = st.one_of(
    st.integers(-3, 3).map(IntLiteral),  # non-unit scalars, and 0
    st.builds(
        Pochhammer, st.sampled_from([1, -1]), st.integers(1, 7), st.integers(1, 4), st.integers(0, 3)
    ),
)
_chains = st.recursive(
    st.one_of(_foldable, _foldable, _opaque),
    lambda children: st.one_of(
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(0, 3)),
    ),
    max_leaves=6,
)


def _outcome(evaluation):
    try:
        return list(evaluation())
    except EvalError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_chains, st.integers(0, 14), st.sampled_from([None, _noisy]))
def test_folded_chains_match_the_binomial_route(expr, order, values):
    expected = _outcome(lambda: _reference(expr, order, values))
    assert _outcome(lambda: evaluate(expr, order, values)) == expected


def test_nested_powers_past_the_budget_are_squared():
    [stmt] = parse("(P(q^1; q^2)^3)^2000 == (P(q^1; q^2)^2000)^3 within 40")
    assert evaluate(stmt.lhs, 40) == evaluate(stmt.rhs, 40)
    assert list(evaluate(stmt.lhs, 40)) == list(pochhammer_expand(ProductSpec.of((1, 1, 2, 6000)), 40))


def test_bundled_statements_never_expand_binomial_by_binomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("pochhammer_expand called")

    monkeypatch.setattr(dsl, "pochhammer_expand", refuse)
    assert all(check(stmt).passed for stmt in parse(PAPER_QID.read_text(encoding="utf-8")))


def test_theta_families_equal_their_eta_forms():
    # ten families are eta quotients; the eleventh statement is GPENT == PENT.
    # `check` would decide these from THETA_ETA itself, so they are compared
    # on coefficients, through the numeric path `verify` uses.
    statements = parse(THETA_ETA_QID.read_text(encoding="utf-8"))
    assert len(statements) == 11
    for stmt in statements:
        assert not any(residuals(stmt, stmt.order)), statement_text(stmt)


def test_theta_eta_qid_spells_the_theta_eta_table():
    # each `theta(X) == <eta chain>` line of the file is the table's form of
    # X, every factor of it an eta_k, the atom P(q^k; q^k)
    statements = parse(THETA_ETA_QID.read_text(encoding="utf-8"))
    assert len(statements) == 11
    forms = {}
    for stmt in statements:
        if isinstance(stmt.rhs, Theta):
            continue
        scalar, factors = dsl._form(dsl._fold(stmt.rhs, 0, None))
        assert scalar == 1 and all(sign == 1 and a == b for sign, a, b in factors)
        forms[stmt.lhs.family] = {k: e for (_, k, _), e in factors.items() if e}
    assert forms == series.THETA_ETA


def test_theorem_suites_never_fold(monkeypatch):
    # the suites have no Pochhammer atom, so their residuals keep the dense
    # route; verify decides the product suites on exponents, which builds forms
    class Refuse:
        @staticmethod
        def of(*args):
            raise AssertionError("a suite built a product form")

    monkeypatch.setattr(dsl, "ProductForm", Refuse)
    monkeypatch.setattr(recurrences, "_tables", {})  # so residual() computes afresh
    for tid in TheoremId:
        assert not any(_residuals(tid, 100, function_value))
        assert residual(tid, 100) == 0


# ---------------------------------------------------------------------------
# The eta store: chains read their eta quotient by key


def test_checking_paper_qid_expands_each_key_once_per_order(monkeypatch):
    expand = functions.eta_quotient
    expanded = []

    def recording(exponents, order):
        expanded.append((series.eta_key(exponents), order))
        return expand(exponents, order)

    monkeypatch.setattr(functions, "eta_quotient", recording)
    functions._cache_clear()
    assert all(check(stmt).passed for stmt in parse(PAPER_QID.read_text(encoding="utf-8")))
    # the statements decided on exponent sequences expand nothing, and each
    # extract is dissected into a product (po_bar = theta(SQ) * subs(op, q^2),
    # and the progressions of theta(SQ) are subs(theta(SQ), q^2) and
    # 2 * theta(TWO_TRI4)), so each dissection is decided too; only lebesgue
    # is left, and its product side reads po_bar at the statement's order
    assert len(expanded) == len({key for key, _ in expanded})
    assert dict(expanded) == {functions.KEYS[F.PO_ODD]: 200}


def _store_reads(monkeypatch, run):
    """Run run() on a cleared store: the keys read from it, each at the
    largest order it is read at, and the keys that the store expanded."""
    reads, expanded = {}, set()
    eta_series, eta_quotient = functions.eta_series, functions.eta_quotient

    def reading(key, order):
        reads[key] = max(reads.get(key, 0), order)
        return eta_series(key, order)

    def expanding(exponents, order):
        expanded.add(series.eta_key(exponents))
        return eta_quotient(exponents, order)

    for module in (functions, dsl):
        monkeypatch.setattr(module, "eta_series", reading)
    monkeypatch.setattr(functions, "eta_quotient", expanding)
    functions._cache_clear()
    run()
    return reads, expanded


@pytest.mark.parametrize("path", [PAPER_QID, THETA_ETA_QID])
def test_grow_expands_the_keys_that_check_reads(monkeypatch, path):
    def run():
        statements = parse(path.read_text(encoding="utf-8"))
        assert all(check(stmt).passed for stmt in statements)

    reads, expanded = _store_reads(monkeypatch, run)
    assert expanded == set(reads)
    # theta_eta.qid is all products: decided, so it reads nothing; paper.qid's
    # lebesgue statement reads po_bar at its order
    assert reads == ({functions.KEYS[F.PO_ODD]: 200} if path == PAPER_QID else {})


def test_grow_expands_the_keys_that_verify_reads(monkeypatch):
    # T7, T8 and the parities are decided; CKS_SQ's extract of pdo is p
    # times a theta progression, which takes its quotient in place;
    # MERCA_GK's subs of p lift out of its extracts into its exponent part,
    # which cancels; LEBESGUE's product side reads po_bar
    reads, expanded = _store_reads(monkeypatch, lambda: recurrences.verify_all(300))
    assert reads == {functions.KEYS[F.PO_ODD]: 300}
    assert expanded == set(reads)


@pytest.mark.parametrize(
    "text, keys",
    [
        # the common exponent part cancels, so neither op nor po_bar is read
        ("po_bar * theta(GPENT_HALF) == op * theta(TWOSQ) * theta(GPENT_HALF) within 1000", []),
        # the product side reads po_bar's table; inside the sum, p2's quotient
        # is applied to theta(TRI) in place
        ("po_bar == p2 * theta(TRI) + 3 within 1000", [F.PO_ODD]),
        # a product under `mod 2` is decided over F_2, and reads nothing
        ("pood * theta(TRI) == 0 mod 2 within 300", []),
        ("op * theta(TWOSQ) == 0 mod 2 within 300", []),
        # the one product side takes the quotient and reads its table, by
        # name or as a chain: two statements read po_bar's, expanded once
        ("lebesgue(45) == po_bar within 200", [F.PO_ODD]),
        ("lebesgue(45) == po_bar within 200\nlebesgue(45) + 1 == P(-q^1; q^2) / P(q^1; q^2) within 200", [F.PO_ODD]),
        # the subs of p lift into the exponent parts, which cancel
        ("extract(subs(p, q^2) * theta(GPENT), 2, 0) == extract(subs(p, q^4) * theta(TRI), 2, 0) within 300", []),
        # any dense part, sparse or not, takes its quotient in place; the
        # failure's report evaluates the left side at q^2, where the extract
        # is a product and the side reads eta2^-1
        ("p * extract(theta(GPENT), 2, 0) == 0 mod 2 within 2000", [{2: -1}]),
        ("p * subs(theta(TRI), q^2) == 0 mod 2 within 2000", []),
        # po_bar, the product side, takes po_bar / p = eta2^3 / (eta1 eta4) as
        # one table; the failure's report reads po_bar at q^1, as eta1^-2
        ("p * extract(theta(GPENT), 2, 0) == po_bar within 2000", [{2: 3, 1: -1, 4: -1}, {1: -2}]),
        # under `mod 4` nothing cancels, and a theta is a dense part: op's
        # quotient is applied to it in place
        ("op * theta(TWOSQ) == 0 mod 4 within 300", []),
        # a subs of a product lifts: the product side reads p(q^2)'s quotient
        ("lebesgue(45) == subs(p, q^2) * theta(GPENT_HALF) within 200", []),
        ("lebesgue(45) == subs(p * theta(TRI), q^2) within 200", [{2: -2, 4: 2}]),
    ],
)
def test_grow_reads_what_check_reads(monkeypatch, text, keys):
    def run():
        [check(stmt) for stmt in parse(text)]

    reads, expanded = _store_reads(monkeypatch, run)
    expected = {functions.KEYS[k] if isinstance(k, F) else series.eta_key(k) for k in keys}
    assert set(reads) == expanded == expected


_PO_BAR = dsl._etas(functions.ETA_QUOTIENTS[F.PO_ODD])


@pytest.mark.parametrize(
    "text, placed, reads",
    [
        # the one product side takes the quotient, on either side, and reads its table
        ("lebesgue(45) == po_bar within 200", ({}, _PO_BAR), True),
        ("po_bar == lebesgue(45) within 200", (_PO_BAR, {}), True),
        # both sides dense: the left takes Q_L/Q_R = 1/po_bar, in place
        ("lebesgue(45) == po_bar * lebesgue(3) within 200", ({key: -e for key, e in _PO_BAR.items()}, {}), False),
    ],
)
def test_the_product_side_takes_the_cancelled_quotient(monkeypatch, text, placed, reads):
    # the placement is fixed by the plan, whatever the store holds when check
    # runs: cold and warm, a product side reads its quotient's table
    [stmt] = parse(text)
    assert tuple(fold.factors for fold in dsl._plan(stmt, 200, None)[1:]) == placed
    read = []
    eta_series = functions.eta_series
    monkeypatch.setattr(dsl, "eta_series", lambda key, n: read.append(key) or eta_series(key, n))
    functions._cache_clear()
    cold = _report(stmt, 200)
    gf_series(F.PO_ODD, 200)
    assert _report(stmt, 200) == cold
    assert read == [functions.KEYS[F.PO_ODD]] * (2 if reads else 0)


def test_a_statement_whose_plan_raises_reads_nothing(monkeypatch):
    [stmt] = parse("p == 1 / (2 * P(q^1; q^1)) within 20")

    def run():
        with pytest.raises(EvalError, match="constant term 2"):
            check(stmt)

    reads, expanded = _store_reads(monkeypatch, run)
    assert not reads and not expanded
    # its plan raises, as check does, before either side is expanded
    assert dsl.expands(stmt) is False


def _parts(text):
    [stmt] = parse(text)
    return stmt.lhs, stmt.rhs, stmt.modulus, stmt.order


def test_a_chain_of_named_functions_reads_one_table(monkeypatch):
    functions._cache_clear()
    po_bar = gf_series(F.PO_ODD, 300)
    monkeypatch.setattr(functions, "eta_quotient", lambda exponents, order: pytest.fail(f"expanded {exponents}"))
    # pd * pdo and the Pochhammer quotient are both po_bar's eta quotient
    assert evaluate(parse("pd * pdo == 1 within 1")[0].lhs, 300) == po_bar
    assert evaluate(parse("P(-q^1; q^2) / P(q^1; q^2) == 1 within 1")[0].lhs, 300) == po_bar


@pytest.mark.parametrize(
    "text, kernel_calls",
    [
        # po_bar's plan, phi(-q^2) / phi(-q) (2 calls), then 15 dense products
        # (9 squarings, 6 multiplies)
        ("po_bar^1000 == 1 within 500", 17),
        # one eta_1 pass, then 17 products; folding the power would take 5000 passes
        ("P(q^1; q^1)^5000 == 1 within 2000", 18),
        # eta_1^3 / eta_2^3 folded costs less than squaring, and its plan is
        # phi(-q) / psi(q) (SIGNED_SQ over TRI): 2 calls
        ("P(q^1; q^2)^3 == 1 within 50", 2),
    ],
)
def test_powers_choose_squaring_by_cost(monkeypatch, text, kernel_calls):
    # a kernel that only counts its calls: the route, not the coefficients, is under test
    calls = []
    monkeypatch.setattr(series, "_mul_sparse", lambda acc, terms, c0=1, divide=False: calls.append(terms))
    monkeypatch.setattr(functions, "_cache", {})
    [stmt] = parse(text)
    evaluate(stmt.lhs, stmt.order)
    assert len(calls) == kernel_calls


# ---------------------------------------------------------------------------
# Deciding product statements on exponent sequences, against the coefficient path


def _spelled(factors):
    """prod P(sign*q^a; q^b)^e over (sign, a, b, e), as a Mul/Div chain."""
    expr = IntLiteral(1)
    for sign, a, b, e in factors:
        expr = (Mul if e > 0 else Div)(expr, Pochhammer(sign, a, b, abs(e)))
    return expr


def _respell(expr):
    """The same product spelled another way: named functions and eta-form
    thetas as their Pochhammer or eta atoms, each atom split, factors swapped
    and powers multiplied out."""
    if isinstance(expr, NamedFunction):
        return _spelled(expr.fid.product.factors)
    if isinstance(expr, Theta) and expr.family in series.THETA_ETA:
        return _spelled((1, k, k, e) for k, e in series.THETA_ETA[expr.family].items())
    if isinstance(expr, Pochhammer):
        if expr.sign == -1:  # (-x; Q) = (x^2; Q^2) / (x; Q)
            return Div(Pochhammer(1, 2 * expr.a, 2 * expr.b, expr.power), Pochhammer(1, expr.a, expr.b, expr.power))
        # (x; Q) = (x; Q^2) (xQ; Q^2)
        return Mul(Pochhammer(1, expr.a, 2 * expr.b, expr.power), Pochhammer(1, expr.a + expr.b, 2 * expr.b, expr.power))
    if isinstance(expr, Mul):
        return Mul(_respell(expr.right), _respell(expr.left))
    if isinstance(expr, Div):
        return Div(_respell(expr.left), _respell(expr.right))
    if isinstance(expr, Pow):
        result = IntLiteral(1)
        for _ in range(expr.exponent):
            result = Mul(result, _respell(expr.base))
        return result
    return expr


_product_atoms = st.one_of(
    st.integers(-4, 4).map(IntLiteral),
    st.builds(Pochhammer, st.sampled_from([1, -1]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 3)),
    st.sampled_from(list(F)).map(NamedFunction),
    st.sampled_from(sorted(series.THETA_ETA)).map(Theta),
)
# opaque factors send a statement to the coefficient path; the extract's
# budget error, raised before a later non-unit divisor, must still come first
_opaque_atoms = st.one_of(
    st.just(Theta("GPENT_HALF")),
    st.just(Theta("SIGNED_SQ_POS")),
    st.just(LebesguePartial(3)),
    st.just(Extract(NamedFunction(F.P), MAX_ORDER + 1, 0)),
    st.builds(Add, st.sampled_from(list(F)).map(NamedFunction), st.integers(0, 2).map(IntLiteral)),
)


def _product_chains(atoms):
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Pow, children, st.integers(0, 3)),
        ),
        max_leaves=6,
    )


_products = _product_chains(_product_atoms)
_mixed = _product_chains(st.one_of(_product_atoms, _product_atoms, _product_atoms, _opaque_atoms))
_sides = st.one_of(
    st.builds(lambda x: (x, _respell(x)), _products),
    st.builds(lambda x, atom: (Mul(x, atom), Mul(_respell(x), atom)), _products, _product_atoms),
    st.builds(lambda x, atom: (x, Mul(_respell(x), atom)), _products, _product_atoms),
    st.tuples(_products, _products),
    st.tuples(_mixed, _mixed),
)


def _report(stmt, order, values=None):
    try:
        r = check(stmt, order, values)
    except EvalError as exc:
        return str(exc)
    return r.theorem, r.n_max, r.passed, r.first_failure, r.detail


@settings(max_examples=400, deadline=None)
@given(_sides, st.integers(0, 30))
def test_deciding_on_exponents_matches_the_coefficient_path(sides, order):
    stmt = IdentityStatement(*sides, order)
    # a `values` source sends every statement to the coefficient path
    assert _report(stmt, order) == _report(stmt, order, function_value)


# The normal-form routes against the coefficient path (a `values` source):
# subs of a product (decided), sides sharing product atoms around an opaque
# rest (cancelled), and an extract of a subs in q^m times another factor
# against the subs in q times the extract of that factor, each also with
# `+ k` on its left side, which makes most of them false
_signs = st.sampled_from([1, -1])
_opaque_rests = st.one_of(
    st.just(Theta("GPENT_HALF")),
    st.integers(0, 4).map(LebesguePartial),
    st.builds(Extract, _products, st.just(2), st.integers(0, 1)),
    st.just(Extract(NamedFunction(F.P), MAX_ORDER + 1, 0)),
)
_subs_sides = st.one_of(
    st.builds(lambda x, s, d: (Subs(x, s, d), Subs(_respell(x), s, d)), _products, _signs, st.integers(1, 3)),
    st.builds(
        lambda x, y, s, d: (Subs(Mul(x, y), s, d), Mul(Subs(x, s, d), Subs(_respell(y), s, d))),
        _products, _products, _signs, st.integers(1, 3),
    ),
    st.builds(lambda x, s, d, y: (Subs(x, s, d), y), _products, _signs, st.integers(1, 3), _products),
)
_shared_sides = st.one_of(
    st.builds(lambda o, x, a: (Mul(Mul(o, x), a), Mul(Mul(o, _respell(x)), a)), _opaque_rests, _products, _product_atoms),
    st.builds(lambda o, x, a: (Div(Mul(x, a), o), Div(Mul(a, _respell(x)), o)), _opaque_rests, _products, _product_atoms),
    st.builds(lambda o, x, y: (x, Mul(o, y)), _opaque_rests, _products, _products),
    st.builds(lambda o, p, x: (Mul(o, x), Mul(p, x)), _opaque_rests, _opaque_rests, _products),
)


def _subs_out(a, b, c, s, k, m, r):
    # extract(subs(a, s*q^(k*m)) * b / c, m, r) == subs(a, s*q^k) * extract(b / c, m, r)
    return Extract(Div(Mul(Subs(a, s, k * m), b), c), m, r), Mul(Subs(a, s, k), Extract(Div(b, c), m, r))


# unit scalars, so that divisors invert and most statements get compared
_unit_atoms = st.one_of(st.sampled_from([IntLiteral(1), IntLiteral(-1)]), _product_atoms.filter(lambda x: not isinstance(x, IntLiteral)))
_units = _product_chains(_unit_atoms)
_unit_mixed = _product_chains(st.one_of(_unit_atoms, _unit_atoms, st.just(Theta("GPENT_HALF")), st.integers(0, 3).map(LebesguePartial)))
_moduli = st.integers(1, 3)
_subs_out_sides = st.one_of(
    st.builds(_subs_out, _units, _unit_mixed, _units, _signs, st.integers(1, 2), _moduli, st.integers(0, 2)),
    st.builds(_subs_out, _mixed, _mixed, _products, _signs, st.integers(1, 2), _moduli, st.integers(0, 2)),
    st.builds(
        lambda a, b, s, k, m: (Extract(Mul(b, Subs(a, s, k * m)), m, 0), Mul(Extract(b, m, 0), Subs(a, s, k))),
        _units, _unit_mixed, _signs, st.integers(1, 2), _moduli,
    ),
    # a subs divisor, whose reciprocal comes out the same way
    st.builds(
        lambda a, b, s, k, m: (Extract(Div(b, Subs(a, s, k * m)), m, 0), Div(Extract(b, m, 0), Subs(a, s, k))),
        _units, _unit_mixed, _signs, st.integers(1, 2), _moduli,
    ),
).filter(lambda sides: sides[0].r < sides[0].m)


def _plus(sides, k):
    lhs, rhs = sides
    return (Add(lhs, IntLiteral(k)) if k else lhs), rhs


@settings(max_examples=300, deadline=None)
@given(st.one_of(_subs_sides, _shared_sides, _subs_out_sides), st.integers(0, 2), st.integers(0, 20))
def test_normal_form_routes_match_the_coefficient_path(sides, k, order):
    stmt = IdentityStatement(*_plus(sides, k), order)
    assert _report(stmt, order) == _report(stmt, order, function_value)


def _evaluated(expr, order):
    try:
        return list(evaluate(expr, order))
    except EvalError as exc:
        return str(exc)


def _parsed_sides(text):
    [stmt] = parse(f"{text} within 1")
    return stmt.lhs, stmt.rhs


@settings(max_examples=300, deadline=None)
@given(_subs_out_sides, st.integers(0, 20))
# a dense subs factor, for m = 2 and m = 4, and a non-unit divisor beside one,
# whose error text test_a_non_unit_divisor_reports_as_the_coefficient_route pins
@example(_parsed_sides("extract(subs(lebesgue(20), q^2) * po_bar, 2, 1) == subs(lebesgue(20), q^1) * extract(po_bar, 2, 1)"), 60)
@example(_parsed_sides("extract(subs(lebesgue(20), -q^4) * po_bar, 4, 3) == subs(lebesgue(20), -q^1) * extract(po_bar, 4, 3)"), 30)
@example(_parsed_sides("extract(subs(lebesgue(3), q^2) / (2 * po_bar), 2, 0) == subs(lebesgue(3), q^1) * extract(1 / (2 * po_bar), 2, 0)"), 20)
def test_an_extract_of_a_subs_in_q_m_is_the_subs_in_q_times_the_extract(sides, order):
    # extract(subs(A, +-q^(k*m)) * B, m, r) == subs(A, +-q^k) * extract(B, m, r),
    # against the argument evaluated whole and sliced
    lhs, rhs = sides
    inner = lhs.m * order + lhs.r
    reference = _evaluated(lhs.child, inner)
    extracted = _evaluated(lhs, order)
    assert extracted == (reference if isinstance(reference, str) else reference[lhs.r :: lhs.m])
    if not isinstance(extracted, str):  # each pair is an identity
        assert extracted == _evaluated(rhs, order)


# Dissected extracts: an argument whose eta exponents off the multiples of m
# are a THETA_ETA family's, times a product in q^m and subs factors in q^m,
# against the argument evaluated whole.  Plain eta quotients, named functions
# and off-gcd atoms cover the arguments that keep their extract node.
_eta_forms = st.sampled_from(sorted(series.THETA_ETA)).flatmap(
    lambda name: st.sampled_from([Theta(name), _spelled((1, k, k, e) for k, e in series.THETA_ETA[name].items())])
)
_dissectable = st.one_of(
    _eta_forms,
    _eta_forms,
    st.sampled_from(list(F)).map(NamedFunction),
    st.dictionaries(st.integers(1, 8), st.integers(-2, 2), max_size=3).map(
        lambda eta: _spelled((1, k, k, e) for k, e in eta.items() if e)
    ),
    st.builds(Pochhammer, _signs, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2)),
    st.sampled_from([Theta("GPENT_HALF"), LebesguePartial(2)]),
)


def _in_q_m(m):
    """A product in q^m: eta_(k*m) powers, and a subs factor in q^m."""
    etas = st.dictionaries(st.integers(1, 3), st.integers(-2, 2), max_size=2).map(
        lambda eta: _spelled((1, k * m, k * m, e) for k, e in eta.items() if e)
    )
    subs = st.builds(
        lambda a, sign, k: Subs(a, sign, k * m),
        st.one_of(st.sampled_from(list(F)).map(NamedFunction), _eta_forms, st.just(LebesguePartial(3))),
        _signs,
        st.integers(1, 2),
    )
    return st.one_of(st.just(IntLiteral(1)), st.just(IntLiteral(-3)), etas, subs, st.builds(Mul, etas, subs))


_dissections = st.integers(2, 5).flatmap(
    lambda m: st.tuples(st.builds(Mul, _dissectable, _in_q_m(m)), st.just(m), st.integers(0, m - 1))
)


@settings(max_examples=300, deadline=None)
@given(_dissections, st.integers(0, 12))
@example((NamedFunction(F.PO_ODD), 2, 1), 12)  # T7: 2 * op * theta(TWO_TRI4)
@example((NamedFunction(F.PO_ODD), 2, 0), 12)  # T8: op * subs(theta(SQ), q^2)
@example((Theta("SQ"), 4, 2), 12)  # no square is 2 mod 4: the extract is 0
@example((Mul(Theta("TRI"), Subs(NamedFunction(F.P), 1, 4)), 2, 0), 12)  # MERCA_GK's right side
def test_a_dissected_extract_matches_its_argument_sliced(case, order):
    # evaluating the argument whole dissects nothing: the reference
    arg, m, r = case
    whole = _evaluated(arg, m * order + r)
    assert _evaluated(Extract(arg, m, r), order) == (whole if isinstance(whole, str) else whole[r::m])


@settings(max_examples=300, deadline=None)
@given(_dissections, st.integers(0, 2), st.integers(0, 12), st.one_of(st.none(), st.integers(1, 12)))
def test_a_dissected_extract_reports_as_the_coefficient_route(case, k, order, j):
    # against the same extract respelled, or times P(q^j; q^13), which makes
    # the sides differ first at q^j, each also with `+ k`; a `values` source
    # keeps the named functions as tables, whose chains keep their extract node
    arg, m, r = case
    rhs = Extract(_respell(arg), m, r) if j is None else Mul(Extract(arg, m, r), Pochhammer(1, j, 13))
    stmt = IdentityStatement(*_plus((Extract(arg, m, r), rhs), k), order)
    assert _report(stmt, order) == _report(stmt, order, function_value)


def test_the_parity_dissections_of_po_bar_are_products():
    # po_bar = theta(SQ) * subs(op, q^2), and theta(SQ)'s progressions are
    # subs(theta(SQ), q^2) and 2 * theta(TWO_TRI4): both extracts are products
    for r, rhs in ((0, "op * subs(theta(SQ), q^2)"), (1, "2 * op * theta(TWO_TRI4)")):
        [stmt] = parse(f"extract(po_bar, 2, {r}) == {rhs} within 2000")
        assert not dsl.expands(stmt)
        assert dsl._form(dsl._fold(stmt.lhs, 2000, None)) == dsl._form(dsl._fold(stmt.rhs, 2000, None))
    # theta(PENT)'s even progression is not a theta row: a dense theta node
    fold = dsl._fold(parse("extract(theta(GPENT), 2, 0) == 1 within 50")[0].lhs, 50, None)
    assert fold.dense == ("theta", "PENT", 2, 0)


@pytest.mark.parametrize(
    "text",
    [
        # po_bar itself, and a product in q^2, over a non-unit divisor
        "extract(po_bar * P(q^2; q^2) / (2 * P(q^2; q^2)), 2, 1) == 2 * op * theta(TWO_TRI4) within 20",
        "extract(subs(p, q^2) * theta(SQ) / (2 * P(q^2; q^2)), 2, 0) == p within 20",
    ],
)
def test_a_non_unit_divisor_in_a_dissected_argument_raises(text):
    [stmt] = parse(text)
    message = "cannot invert series with constant term 2 (in: 2 * P(q^2; q^2))"
    assert _report(stmt, 20) == _report(stmt, 20, function_value) == message


@pytest.mark.parametrize(
    "text, divisor, expands",
    [
        # decided: the product's divisor raises in its plan
        ("p / (2 * pd) == p within 50", "2 * pd", False),
        # cancelled, the product on the left or on the right; a product over
        # the divisor holds it as a dense node, so beside a dense side it is
        # cancelled as one
        ("p == lebesgue(3) / (2 * pd) within 50", "2 * pd", True),
        ("lebesgue(3) / (2 * pd) == p within 50", "2 * pd", True),
        ("lebesgue(3) * pd == p / (2 * pd) within 50", "2 * pd", True),
        # both sides dense
        ("lebesgue(3) / (2 * pd) == lebesgue(4) * p within 50", "2 * pd", True),
        # inside an extract whose argument would dissect, and one whose would not
        ("extract(po_bar / (2 * P(q^2; q^2)), 2, 1) == 2 * op * theta(TWO_TRI4) within 20", "2 * P(q^2; q^2)", True),
        ("extract(subs(lebesgue(3), q^2) / (2 * po_bar), 2, 0) == p within 20", "2 * po_bar", True),
        # inside subs, of a product (which raises in the plan) or not
        ("subs(p / (2 * pd), q^2) == lebesgue(3) within 20", "2 * pd", False),
        ("p == subs(lebesgue(3) / (2 * pd), -q^2) within 20", "2 * pd", True),
        # under mod 2 and mod 6 a product is decided over F_p, and mod 4 is not
        ("p / (2 * pd) == p mod 2 within 50", "2 * pd", False),
        ("lebesgue(3) / (2 * pd) == p mod 2 within 50", "2 * pd", True),
        ("p / (2 * pd) == p mod 4 within 50", "2 * pd", True),
        ("p / (2 * pd) == p mod 6 within 50", "2 * pd", False),
        ("extract(subs(lebesgue(3), q^2) / (2 * po_bar), 2, 0) == p mod 6 within 20", "2 * po_bar", True),
    ],
)
def test_a_non_unit_divisor_reports_as_the_coefficient_route(text, divisor, expands):
    # every route a non-unit divisor reaches raises its error, as a `values`
    # source, which runs both sides, does
    [stmt] = parse(text)
    assert dsl.expands(stmt) is expands
    message = f"cannot invert series with constant term 2 (in: {divisor})"
    assert _report(stmt, stmt.order) == _report(stmt, stmt.order, function_value) == message


def test_subs_of_a_product_is_decided(monkeypatch):
    # odd a and b under -q^d: P(-q^1; q^3) at -q^2 is (q^2; -q^6), that is
    # (q^2; q^12) (-q^8; q^12), and p = 1/eta_1 at -q^2 is
    # 1/(-q^2; -q^2) = 1/((q^4; q^4) (-q^2; q^4))
    monkeypatch.setattr(dsl, "_compare_coefficients", lambda stmt, n, values: pytest.fail("expanded"))
    lhs = "subs(P(-q^1; q^3) * p, -q^2)"
    [stmt] = parse(f"{lhs} == P(q^2; q^12) * P(-q^8; q^12) / (P(q^4; q^4) * P(-q^2; q^4)) within 300")
    assert not dsl.expands(stmt)
    assert check(stmt).passed
    [wrong] = parse(f"{lhs} == P(q^2; q^12) * P(-q^8; q^12) / P(-q^2; q^2) within 300")
    report = check(wrong)
    assert (report.first_failure.n, report.first_failure.residual, report.detail) == (4, 2, "q^4: lhs=3, rhs=1")


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_eta_k_under_subs_is_its_pochhammer_atom_under_subs(k, d, sign):
    # eta_k is the atom P(q^k; q^k): at +-q^d it is eta_(kd), except that for
    # odd k at -q^d it is eta_(2kd)^3 / (eta_(kd) eta_(4kd))
    n = 8 * k * d
    for e in (1, -2):
        if sign == -1 and k % 2:
            expected = {(1, 2 * k * d, 2 * k * d): 3 * e, (1, k * d, k * d): -e, (1, 4 * k * d, 4 * k * d): -e}
        else:
            expected = {(1, k * d, k * d): e}
        substituted = dsl._subs_atoms({(1, k, k): e}, sign, d)
        assert dsl._exponents((1, substituted), n) == dsl._exponents((1, expected), n)


def _factor_maps(order):
    ks = st.integers(1, order + 6)
    eta = ks.map(lambda k: (1, k, k))
    atom = st.tuples(st.sampled_from((1, -1)), ks, ks)
    return st.dictionaries(st.one_of(eta, atom), st.integers(-3, 3), max_size=4)


def _form_period(factors, order):
    """The lcm of the b of every (1 - q^n) class a form of all the factors
    holds: (-q^a; q^b) is (q^2a; q^2b) / (q^a; q^b), and a class starting
    past the order is 1."""
    bs = []
    for (sign, a, b), e in factors.items():
        for a_, b_ in ((a, b),) if sign == 1 else ((2 * a, 2 * b), (a, b)):
            if e and a_ <= order:
                bs.append(b_)
    return math.lcm(*bs)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30).flatmap(lambda order: st.tuples(st.just(order), _factor_maps(order))))
@example((5, {}))
@example((5, {(1, 7, 7): 1}))  # past the order
@example((5, {(1, 2, 2): 0, (1, 3, 3): 1}))  # a zero exponent
@example((10, {(1, 3, 3): 1, (1, 4, 4): -1}))  # lcm 12 past the order
@example((12, {(-1, 1, 2): 1, (1, 4, 4): 2}))  # an eta_k beside a signed atom
@example((10, {(1, 1, 3): 1, (1, 4, 4): -1}))  # the same, lcm 12 past the order
def test_the_split_matches_the_form_split(case):
    # the eta_k split off before the form equal the form's split of all the
    # factors whenever the form's period takes in every class; otherwise the
    # form moves a class into its head, and the two are the same series
    order, factors = case
    split = dsl._split(factors, order)
    form = series.ProductForm.of([(sign, a, b, e) for (sign, a, b), e in factors.items()], order).eta_split()
    if _form_period(factors, order) <= order:
        assert split == form
    values = []
    for eta, binomials in (split, form):
        acc = [1] + [0] * order
        series._mul_eta_binomials(acc, eta, binomials)
        values.append(acc)
    assert values[0] == values[1]


def test_an_eta_k_beside_another_atom_is_split_off_before_the_form():
    # (q; q^7) and eta_200 have lcm 1400, past the order: one form of both
    # would put eta_200 into its head, leaving no eta_k and 148 binomial passes
    eta, binomials = dsl._split({(1, 1, 7): 1, (1, 200, 200): 1}, 1000)
    assert eta == {200: 1}
    assert binomials == {n: 1 for n in range(1, 1001, 7)}  # 143 of them
    assert series.eta_passes(eta, 1000) + len(binomials) == 146


def test_a_cancelled_failure_reports_the_statement_detail():
    # the shared atom cancels; the residual and both coefficients at q^231
    # are those of the statement itself
    [stmt] = parse("lebesgue(20) * P(-q^5; q^3) == po_bar * P(-q^5; q^3) within 2000")
    report = check(stmt)
    assert (report.first_failure.n, report.first_failure.residual) == (231, -2)
    assert report.detail == "q^231: lhs=28694699193096, rhs=28694699193098"
    assert _report(stmt, 2000) == _report(stmt, 2000, function_value)


def test_merca_gk_lifts_its_subs_and_builds_no_product_at_the_inner_order(monkeypatch):
    # MERCA_GK: subs(p, q^2) and subs(p, q^4) lift out of the extracts into
    # their exponent parts, as p and subs(p, q^2), so no product reaches q^(2n)
    mul = series.TruncatedSeries.__mul__

    def short(self, other):
        assert isinstance(other, int) or len(self) <= 301, f"a product to q^{len(self) - 1}"
        return mul(self, other)

    monkeypatch.setattr(series.TruncatedSeries, "__mul__", short)
    assert recurrences.verify(TheoremId.CLASSICAL_MERCA_GK, 300).passed


def test_a_decided_failure_expands_only_to_its_index(monkeypatch):
    # both sides were expanded to q^1000 before (2.7 s); now they are
    # evaluated at q^1, where the base eta1 is read from the store, which
    # expands it to its seed order and no further
    kernel, eta_quotient = series._mul_sparse, functions.eta_quotient
    eta1 = series.eta_key({1: 1})

    def short(acc, terms, c0=1, divide=False):
        assert len(acc) <= functions._CACHE_SEED_ORDER + 1, f"a kernel pass to q^{len(acc) - 1}"
        kernel(acc, terms, c0, divide)

    def only_eta1(exponents, order):
        if series.eta_key(exponents) != eta1:
            pytest.fail(f"expanded {exponents}")
        return eta_quotient(exponents, order)

    functions._cache_clear()
    monkeypatch.setattr(series, "_mul_sparse", short)
    monkeypatch.setattr(functions, "eta_quotient", only_eta1)
    [stmt] = parse("P(q^1; q^1)^5000 == 1 within 1000")
    report = check(stmt)
    assert not report.passed
    assert (report.first_failure.n, report.first_failure.residual) == (1, -5000)
    assert report.detail == "q^1: lhs=-5000, rhs=0"
    assert set(functions._cache) <= {eta1}


def test_a_decided_failure_squares_a_power_of_its_binomials_once(monkeypatch):
    # (q; q^3)^50 is 33 binomials (1 - q^m)^50 off the gcd: each side expands
    # their product once and squares it, where one pass per binomial and unit
    # of e took 2 * 33 * 50 + 1 = 3301 kernel calls
    [stmt] = parse("P(q^1; q^3)^50 == P(q^1; q^3)^50 * P(q^99; q^100) within 100")
    lhs, rhs = evaluate(stmt.lhs, 99)[99], evaluate(stmt.rhs, 99)[99]
    calls = []
    kernel = series._mul_sparse

    def counting(*args, **kwargs):
        calls.append(1)
        kernel(*args, **kwargs)

    monkeypatch.setattr(series, "_mul_sparse", counting)
    report = check(stmt)
    assert (report.first_failure.n, report.first_failure.residual) == (99, lhs - rhs)
    assert report.detail == f"q^99: lhs={lhs}, rhs={rhs}"
    assert len(calls) < 100


@pytest.mark.parametrize(
    "text, first_failure, detail",
    [
        ("0 * P(q^1; q^1) == 7 * po_bar within 50", (0, -7), "q^0: lhs=0, rhs=7"),
        ("(3^5)^4 == 0 * pd within 50", (0, 3**20), f"q^0: lhs={3**20}, rhs=0"),
        ("0 * p == P(q^2; q^3) * 0 / pd within 50", None, None),
        ("2 * 0 == 0 within 1", None, None),
    ],
)
def test_a_zero_scalar_is_decided_on_the_product_path(monkeypatch, text, first_failure, detail):
    # unequal scalars fail at q^0, and two zero scalars are two zero series
    monkeypatch.setattr(dsl, "_compare_coefficients", lambda stmt, n: pytest.fail("expanded"))
    [stmt] = parse(text)
    assert not dsl.expands(stmt)
    report = check(stmt)
    assert report.passed is (first_failure is None)
    if first_failure is not None:
        assert (report.first_failure.n, report.first_failure.residual) == first_failure
    assert report.detail == detail


def test_a_derived_true_statement_expands_nothing(monkeypatch):
    functions._cache_clear()
    monkeypatch.setattr(series, "_mul_sparse", lambda *args, **kwargs: pytest.fail("a kernel pass"))
    monkeypatch.setattr(functions, "eta_quotient", lambda exponents, order: pytest.fail(f"expanded {exponents}"))
    [stmt] = parse("p2 * P(-q^2; q^5) == P(q^2; q^4) / P(q^1; q^1) * P(-q^2; q^5) within 1000")
    assert check(stmt).passed


# ---------------------------------------------------------------------------
# Products under `mod M`, decided over F_p, against the coefficient path

@pytest.mark.parametrize(
    "modulus, primes",
    [
        (2, (2,)), (3, (3,)), (6, (2, 3)), (7, (7,)), (30, (2, 3, 5)), (1048573, (1048573,)),
        (4, None), (8, None), (9, None), (12, None), (2**20, None), (1048583, None),
        (12345678901234567890123456789012345678, None),
    ],
)
def test_a_modulus_decides_over_its_primes_when_squarefree_and_small(modulus, primes):
    # a prime power, or any modulus from 2^20 on, keeps the coefficient route
    assert dsl._primes(modulus) == primes
    assert dsl.expands(parse(f"p == pd mod {modulus} within 50")[0]) is (primes is None)


_mod_scalars = st.sampled_from([0, 1, -1, 2, 3, 4, 5, 6, 7, 10, 15, 30, 31])
_mod_products = _product_chains(
    st.one_of(
        _product_atoms.filter(lambda x: not isinstance(x, IntLiteral)),
        st.builds(Subs, _products, _signs, st.integers(1, 3)),
        # extracts that dissect into products
        st.integers(2, 3).flatmap(
            lambda m: st.builds(Extract, st.builds(Mul, _eta_forms, _in_q_m(m)), st.just(m), st.integers(0, m - 1))
        ),
    )
)


def _scaled(c, x):
    return Mul(IntLiteral(c), x)


_mod_sides = st.one_of(
    # equal products, respelled
    st.builds(lambda s, t, x: (_scaled(s, x), _scaled(t, _respell(x))), _mod_scalars, _mod_scalars, _mod_products),
    # and one side with an extra atom
    st.builds(
        lambda s, t, x, a: (_scaled(s, x), _scaled(t, Mul(_respell(x), a))),
        _mod_scalars, _mod_scalars, _mod_products, _product_atoms,
    ),
    # X^p = X(q^p) mod p: all of X^p's exponents are carried
    st.builds(
        lambda s, t, x, p: (_scaled(s, Pow(x, p)), _scaled(t, Subs(x, 1, p))),
        _mod_scalars, _mod_scalars, _mod_products, st.sampled_from([2, 3, 5]),
    ),
    st.builds(
        lambda s, t, x, y: (_scaled(s, x), _scaled(t, y)), _mod_scalars, _mod_scalars, _mod_products, _mod_products
    ),
)


@settings(max_examples=400, deadline=None)
@given(_mod_sides, st.sampled_from([2, 3, 5, 6, 7, 30, 4, 8, 9]), st.integers(0, 40))
@example(_parts("pood * theta(TRI) == 0 mod 2 within 40")[:2], 2, 40)
@example(_parts("P(q^1; q^1)^4 == P(q^2; q^2)^2 mod 4 within 40")[:2], 4, 40)
@example(_parts("p == pd mod 2 within 40")[:2], 2, 40)
@example(_parts("op == 1 mod 6 within 40")[:2], 6, 40)
@example(_parts("2 * p^2 == 3 * subs(p, q^2) mod 30 within 40")[:2], 30, 40)
def test_deciding_mod_p_matches_the_coefficient_path(sides, modulus, order):
    stmt = IdentityStatement(*sides, order, modulus=modulus)
    assert _report(stmt, order) == _report(stmt, order, function_value)


@pytest.mark.parametrize(
    "text, decided",
    [
        # the parities: a product against 0
        ("pood * theta(TRI) == 0 mod 2 within 300", True),
        ("2 * p == 3 * pd mod 2 within 300", True),  # s = 0 mod 2
        ("p == 4 * pd mod 3 within 300", True),  # s = t mod 3
        ("p == 2 * pd mod 3 within 300", False),  # unequal nonzero scalars
        ("p == 7 * pd mod 30 within 300", False),  # 1 != 7 mod 5, both nonzero
        ("p^2 == subs(p, q^2) mod 4 within 300", False),  # a prime power
        ("p * lebesgue(3) == pd mod 2 within 300", False),  # an opaque factor
    ],
)
def test_the_mod_p_route_and_its_fallbacks(text, decided):
    [stmt] = parse(text)
    assert dsl.expands(stmt) is not decided
    assert _report(stmt, stmt.order) == _report(stmt, stmt.order, function_value)


def test_the_parities_and_merca_gk_make_no_kernel_pass(monkeypatch):
    # the parities are decided over F_2; MERCA_GK's subs of p lift out of
    # its extracts into its exponent parts, which cancel, and it compares
    # two theta progressions, generated term by term
    monkeypatch.setattr(series, "_mul_sparse", lambda *args, **kwargs: pytest.fail("a kernel pass"))
    suites = (TheoremId.COR_POOD_PARITY, TheoremId.COR_P_PARITY, TheoremId.COR_P2_PARITY, TheoremId.CLASSICAL_MERCA_GK)
    for tid in suites:
        assert recurrences.verify(tid, 2000).passed


# ---------------------------------------------------------------------------
# A subs of a product lifted out of a dense part, against the coefficient path

_lift_rests = st.one_of(
    st.just(IntLiteral(1)),
    st.just(Theta("GPENT_HALF")),
    st.integers(0, 3).map(LebesguePartial),
    st.builds(Add, st.sampled_from(list(F)).map(NamedFunction), st.integers(0, 2).map(IntLiteral)),
)


def _subs_dense(children):
    return st.one_of(
        # a nested subs, its product factors beside it
        st.builds(lambda x, c, s, d: Subs(Mul(x, c), s, d), _products, children, _signs, st.integers(1, 3)),
        st.builds(Mul, children, _products),
        st.builds(Div, children, _units),
        # inside an extract, in q^m or not
        st.integers(2, 3).flatmap(lambda m: st.builds(Extract, children, st.just(m), st.integers(0, m - 1))),
    )


_subs_dense_parts = st.recursive(
    st.builds(lambda x, o, s, d: Subs(Mul(x, o), s, d), _products, _lift_rests, _signs, st.integers(1, 3)),
    _subs_dense,
    max_leaves=3,
)
_lift_sides = st.one_of(
    # subs(X * O) == subs(X') * subs(O), X' being X respelled
    st.builds(
        lambda x, o, s, d: (Subs(Mul(x, o), s, d), Mul(Subs(_respell(x), s, d), Subs(o, s, d))),
        _products, _lift_rests, _signs, st.integers(1, 3),
    ),
    st.builds(lambda a, b: (a, Mul(a, b)), _subs_dense_parts, _product_atoms),
    st.tuples(_subs_dense_parts, _products),
    st.tuples(_products, _subs_dense_parts),
    st.tuples(_subs_dense_parts, _subs_dense_parts),
)


@settings(max_examples=300, deadline=None)
@given(_lift_sides, st.integers(0, 2), st.integers(0, 20))
@example(_parts("lebesgue(3) == subs(p / (2 * P(q^1; q^1)), q^2) within 20")[:2], 0, 20)
@example(_parts("subs(p * lebesgue(2), -q^1) == 1 within 20")[:2], 0, 20)
@example(_parts("extract(subs(pd * lebesgue(2), -q^1), 2, 1) == op within 20")[:2], 0, 20)
def test_a_lifted_subs_matches_the_coefficient_path(sides, k, order):
    stmt = IdentityStatement(*_plus(sides, k), order)
    assert _report(stmt, order) == _report(stmt, order, function_value)


def test_a_subs_of_a_product_lifts_into_the_factors():
    # p * lebesgue(3) at -q^2: p's eta_1^-1 at -q^2 is eta_2 eta_8 / eta_4^3,
    # and only lebesgue(3) stays under the subs
    fold = dsl._fold(parse("subs(p * lebesgue(3), -q^2) == 1 within 40")[0].lhs, 40, None)
    factors, rest = dsl._lift(fold.dense)
    assert dsl._exponents((1, factors), 40) == dsl._exponents((1, {(1, 2, 2): 1, (1, 8, 8): 1, (1, 4, 4): -3}), 40)
    assert rest[0] == "subs" and rest[1].factors == {} and rest[1].dense[0] == "leaf"
    # a subs of a product alone leaves nothing; a subs of 0 stays whole
    whole = dsl._fold(parse("subs(po_bar * theta(TRI), q^3) == 1 within 40")[0].lhs, 40, None).dense
    assert dsl._lift(whole)[1] is None
    zero = dsl._fold(parse("subs(0 * p * lebesgue(3), q^2) == 1 within 40")[0].lhs, 40, None).dense
    assert dsl._lift(zero) == ({}, zero)


@pytest.mark.parametrize(
    "text",
    [
        "lebesgue(3) == subs(p / (2 * P(q^1; q^1)), q^2) within 20",
        "subs(p * lebesgue(2) / (2 * P(q^1; q^1)), -q^3) == po_bar within 20",
        "extract(subs(pd * lebesgue(2) / (2 * P(q^1; q^1)), q^3), 2, 1) == op within 20",
    ],
)
def test_a_non_unit_divisor_in_a_lifted_subs_raises(text):
    [stmt] = parse(text)
    message = "cannot invert series with constant term 2 (in: 2 * P(q^1; q^1))"
    assert _report(stmt, 20) == _report(stmt, 20, function_value) == message


# ---------------------------------------------------------------------------
# One failure report: every route finds only where a statement fails, against
# the report read off both sides evaluated to the full order


def _full_order_report(stmt, values):
    """(passed, first_failure, detail) read off residuals and both sides
    evaluated to the statement's own order, never to the failing index, or
    the EvalError's text."""
    try:
        diff = residuals(stmt, stmt.order, values)
        lhs, rhs = evaluate(stmt.lhs, stmt.order, values), evaluate(stmt.rhs, stmt.order, values)
    except EvalError as exc:
        return str(exc)
    i = next((i for i, r in enumerate(diff) if r), None)
    if i is None:
        return True, None, None
    return False, Failure(i, diff[i]), f"q^{i}: lhs={format_int(lhs[i])}, rhs={format_int(rhs[i])}"


def _checked(stmt, values):
    try:
        report = check(stmt, None, values)
    except EvalError as exc:
        return str(exc)
    return report.passed, report.first_failure, report.detail


def _case(text):
    lhs, rhs, modulus, _ = _parts(text)
    return (lhs, rhs), modulus


_report_cases = st.one_of(
    # no modulus: products, decided, or cancelled when an opaque atom is
    # drawn (an extract past MAX_ORDER among them); integer atoms make
    # non-unit divisors
    st.tuples(_sides, st.none()),
    # products that differ by one atom: decided failures past q^0, over Z and over F_p
    st.tuples(
        st.builds(lambda x, a: (x, Mul(_respell(x), a)), _units, _unit_atoms),
        st.sampled_from([None, None, 2, 3, 6]),
    ),
    # cancelled: sides around an opaque rest, with a product side or both dense
    st.tuples(st.one_of(_shared_sides, _lift_sides), st.none()),
    # products decided over F_p, and on the coefficient route under a prime power
    st.tuples(_mod_sides, st.sampled_from([2, 3, 6, 30])),
    st.tuples(_mod_sides, st.sampled_from([4, 9])),
    # dense sides under `mod M`: the coefficient route
    st.tuples(st.tuples(_mixed, _mixed), st.sampled_from([2, 4])),
)


@settings(max_examples=400, deadline=None)
@given(_report_cases, st.sampled_from([0, 0, 1, 2]), st.sampled_from([None, None, None, function_value]), st.integers(0, 30))
# decided: a late failure, F_p failures under `mod 2` and `mod 6`, and a
# pass mod 2 of a side that is not 0 over Z
@example(_case("P(q^1; q^3)^50 == P(q^1; q^3)^50 * P(q^99; q^100) within 1"), 0, None, 100)
@example(_case("p == pd mod 2 within 1"), 0, None, 40)
@example(_case("op == 1 mod 6 within 1"), 0, None, 40)
@example(_case("7 * po_bar == 0 mod 2 within 1"), 0, None, 40)
# cancelled: a product side, and both sides dense, failing at q^231
@example(_case("lebesgue(20) * P(-q^5; q^3) == po_bar * P(-q^5; q^3) within 1"), 0, None, 300)
@example(_case("lebesgue(20) * theta(GPENT_HALF) == lebesgue(3) * po_bar * theta(GPENT_HALF) / lebesgue(3) within 1"), 0, None, 240)
# coefficients: a `values` source, and a prime power, whose residual 14 is 2 mod 4
@example(_case("3 * p == pd mod 4 within 1"), 0, function_value, 40)
@example(_case("7 * po_bar == 0 mod 4 within 1"), 0, None, 40)
@example(_case("pood + 1 == p2 within 1"), 0, function_value, 30)
@example(_case("lebesgue(20) == po_bar within 1"), 0, function_value, 240)
# a non-unit divisor, and an extract past MAX_ORDER
@example(_case("p == 1 / (2 * P(q^1; q^1)) within 1"), 1, None, 20)
@example(_case("extract(p, 5000, 0) + op == 1 within 1"), 0, None, 3)
def test_a_failure_report_matches_the_full_order_evaluation(case, k, values, order):
    sides, modulus = case
    stmt = IdentityStatement(*_plus(sides, k), order, modulus=modulus)
    assert _checked(stmt, values) == _full_order_report(stmt, values)
