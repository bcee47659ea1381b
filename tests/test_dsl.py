"""Identity-language tests: lexing, parsing, evaluation, printing, checking."""

from __future__ import annotations

import pytest

from partrec.dsl import (
    Div,
    EvalError,
    Extract,
    IntLiteral,
    MAX_ORDER,
    LebesguePartial,
    Mul,
    NamedFunction,
    ParseError,
    Pochhammer,
    Pow,
    Theta,
    check,
    evaluate,
    parse,
    print_expr,
    statement_text,
)
from partrec.functions import PartitionFunctionId as F

from conftest import PAPER_QID


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
    assert parse("p == p within 6000", max_order=6000)[0].order == 6000
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
    assert "pd - pd" in str(info.value)


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
