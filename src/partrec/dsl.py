"""A small text language for q-series identities.

One statement per line:

    <expr> == <expr> within <order>

with `#` comments, integer literals, the named counting functions (p, op,
po_bar, pd, pdo, pood, p2, qbar, peed), theta families (bare or via
theta(NAME)), Pochhammer atoms P([-]q^a; q^b), extract(expr, m, r) for
arithmetic-progression dissection and lebesgue(j) for partial sums of the
Lebesgue series.  Operators are ^ over * and / over + and -, all
left-associative; there are no variables or binding forms, so every
statement is a closed identity checked by expanding both sides to the
stated order and comparing coefficients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .functions import PartitionFunctionId, gf_series, lebesgue_partial
from .report import Failure, VerificationReport
from .series import (
    THETA_FAMILIES,
    ProductSpec,
    TruncatedSeries,
    pochhammer_expand,
    theta_series,
)

__all__ = [
    "MAX_ORDER",
    "ParseError",
    "EvalError",
    "ExprNode",
    "IntLiteral",
    "Pochhammer",
    "Theta",
    "NamedFunction",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Extract",
    "LebesguePartial",
    "IdentityStatement",
    "parse",
    "evaluate",
    "print_expr",
    "statement_text",
    "check",
]

MAX_ORDER = 5000


class ParseError(ValueError):
    """Syntax or name error, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class EvalError(ValueError):
    """Evaluation failure, carrying the offending subexpression's text."""

    def __init__(self, message: str, expr_text: str):
        super().__init__(f"{message} (in: {expr_text})")
        self.expr_text = expr_text


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class Pochhammer:
    sign: int
    a: int
    b: int
    power: int = 1


@dataclass(frozen=True)
class Theta:
    family: str


@dataclass(frozen=True)
class NamedFunction:
    fid: PartitionFunctionId


@dataclass(frozen=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Sub:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Div:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int


@dataclass(frozen=True)
class Extract:
    child: "ExprNode"
    m: int
    r: int


@dataclass(frozen=True)
class LebesguePartial:
    j_max: int


ExprNode = Union[
    IntLiteral,
    Pochhammer,
    Theta,
    NamedFunction,
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Extract,
    LebesguePartial,
]


@dataclass(frozen=True)
class IdentityStatement:
    lhs: ExprNode
    rhs: ExprNode
    order: int
    source: str = field(default="", compare=False)

    def label(self) -> str:
        return self.source or statement_text(self)


# ---------------------------------------------------------------------------
# Lexer


class Token(NamedTuple):
    kind: str  # INT, NAME, OP, END
    text: str
    line: int
    col: int


_OPS = ("==", "+", "-", "*", "/", "^", "(", ")", ",", ";")


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if text.startswith("==", i):
            tokens.append(Token("OP", "==", lineno, col))
            i += 2
            continue
        if ch in "+-*/^(),;":
            tokens.append(Token("OP", ch, lineno, col))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], lineno, col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    tokens.append(Token("END", "", lineno, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one statement per line)


class _Parser:
    def __init__(self, tokens: list[Token], max_order: int):
        self.tokens = tokens
        self.pos = 0
        self.max_order = max_order

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        what = f" at {tok.text!r}" if tok.kind != "END" else " at end of line"
        return ParseError(message + what, tok.line, tok.col)

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise self.error(f"expected {op!r}")
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise self.error("expected an integer")
        self.advance()
        return int(tok.text)

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def statement(self, source: str) -> IdentityStatement:
        lhs = self.expr()
        self.expect_op("==")
        rhs = self.expr()
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != "within":
            raise self.error("expected 'within'")
        self.advance()
        order_tok = self.peek()
        order = self.expect_int()
        if order < 1:
            raise ParseError("order must be positive", order_tok.line, order_tok.col)
        if order > self.max_order:
            raise ParseError(
                f"order {order} exceeds the engine maximum {self.max_order}",
                order_tok.line,
                order_tok.col,
            )
        end = self.peek()
        if end.kind != "END":
            raise self.error("trailing input after statement")
        return IdentityStatement(lhs, rhs, order, source.strip())

    def expr(self) -> ExprNode:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            right = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def factor(self) -> ExprNode:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            exponent = self.expect_int()
            if isinstance(node, Pochhammer) and node.power == 1:
                return Pochhammer(node.sign, node.a, node.b, exponent)
            return Pow(node, exponent)
        return node

    def atom(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return IntLiteral(int(tok.text))
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "NAME":
            name = tok.text
            if name == "P":
                return self.pochhammer()
            if name == "theta":
                return self.theta_call()
            if name == "extract":
                return self.extract_call()
            if name == "lebesgue":
                return self.lebesgue_call()
            self.advance()
            try:
                return NamedFunction(PartitionFunctionId.from_name(name))
            except KeyError:
                pass
            if name in THETA_FAMILIES:
                return Theta(name)
            raise ParseError(f"unknown function name {name!r}", tok.line, tok.col)
        raise self.error("expected an expression")

    def _q_power(self) -> int:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != "q":
            raise self.error("expected 'q^'")
        self.advance()
        self.expect_op("^")
        return self.expect_int()

    def pochhammer(self) -> ExprNode:
        self.advance()  # 'P'
        self.expect_op("(")
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        a_tok = self.peek()
        a = self._q_power()
        self.expect_op(";")
        b_tok = self.peek()
        b = self._q_power()
        self.expect_op(")")
        if a < 1:
            raise ParseError("pochhammer exponent a must be >= 1", a_tok.line, a_tok.col)
        if b < 1:
            raise ParseError("pochhammer base exponent b must be >= 1", b_tok.line, b_tok.col)
        return Pochhammer(sign, a, b)

    def theta_call(self) -> ExprNode:
        self.advance()  # 'theta'
        self.expect_op("(")
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.error("expected a theta family name")
        self.advance()
        if tok.text not in THETA_FAMILIES:
            raise ParseError(f"unknown theta family {tok.text!r}", tok.line, tok.col)
        self.expect_op(")")
        return Theta(tok.text)

    def extract_call(self) -> ExprNode:
        self.advance()  # 'extract'
        self.expect_op("(")
        child = self.expr()
        self.expect_op(",")
        m_tok = self.peek()
        m = self.expect_int()
        self.expect_op(",")
        r_tok = self.peek()
        r = self.expect_int()
        self.expect_op(")")
        if m < 1:
            raise ParseError("extract modulus must be >= 1", m_tok.line, m_tok.col)
        if not 0 <= r < m:
            raise ParseError("extract residue must satisfy 0 <= r < m", r_tok.line, r_tok.col)
        return Extract(child, m, r)

    def lebesgue_call(self) -> ExprNode:
        self.advance()  # 'lebesgue'
        self.expect_op("(")
        j_max = self.expect_int()
        self.expect_op(")")
        return LebesguePartial(j_max)


def parse(text: str, max_order: int = MAX_ORDER) -> list[IdentityStatement]:
    """Parse statements, one per line; blank lines and comments are skipped."""
    statements: list[IdentityStatement] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parser = _Parser(_tokenize_line(line, lineno), max_order)
        statements.append(parser.statement(stripped))
    return statements


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(expr: ExprNode, order: int) -> TruncatedSeries:
    """Exact series value of expr mod q^(order+1).

    extract() children are evaluated at order m*order + r so the result
    carries a full `order` coefficients; everything else evaluates its
    children at the same order, which keeps evaluation order-monotone.
    An extract whose child order would pass MAX_ORDER raises EvalError
    before anything is expanded.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(expr, IntLiteral):
        return TruncatedSeries([expr.value] + [0] * order)
    if isinstance(expr, Pochhammer):
        if expr.power == 0:
            return TruncatedSeries.one(order)
        spec = ProductSpec.of((expr.sign, expr.a, expr.b, expr.power))
        return pochhammer_expand(spec, order)
    if isinstance(expr, Theta):
        return theta_series(THETA_FAMILIES[expr.family], order)
    if isinstance(expr, NamedFunction):
        return gf_series(expr.fid, order)
    if isinstance(expr, Add):
        return evaluate(expr.left, order) + evaluate(expr.right, order)
    if isinstance(expr, Sub):
        return evaluate(expr.left, order) - evaluate(expr.right, order)
    if isinstance(expr, Mul):
        return evaluate(expr.left, order) * evaluate(expr.right, order)
    if isinstance(expr, Div):
        divisor = evaluate(expr.right, order)
        try:
            inv = divisor.inverse()
        except ValueError as exc:
            raise EvalError(str(exc), print_expr(expr.right)) from None
        return evaluate(expr.left, order) * inv
    if isinstance(expr, Pow):
        return evaluate(expr.base, order) ** expr.exponent
    if isinstance(expr, Extract):
        inner_order = expr.m * order + expr.r
        if inner_order > MAX_ORDER:
            raise EvalError(
                f"extract needs its argument to order {inner_order}, above {MAX_ORDER}",
                print_expr(expr),
            )
        inner = evaluate(expr.child, inner_order)
        return inner.extract(expr.m, expr.r)
    if isinstance(expr, LebesguePartial):
        return lebesgue_partial(expr.j_max, order)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing (inverse of parse, up to whitespace)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _prec(expr: ExprNode) -> int:
    if isinstance(expr, (Add, Sub)):
        return _PREC_ADD
    if isinstance(expr, (Mul, Div)):
        return _PREC_MUL
    if isinstance(expr, Pow):
        return _PREC_POW
    if isinstance(expr, Pochhammer) and expr.power != 1:
        return _PREC_POW
    return _PREC_ATOM


def _wrap(expr: ExprNode, minimum: int) -> str:
    text = print_expr(expr)
    return f"({text})" if _prec(expr) < minimum else text


def print_expr(expr: ExprNode) -> str:
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    if isinstance(expr, Pochhammer):
        sign = "-" if expr.sign == -1 else ""
        base = f"P({sign}q^{expr.a}; q^{expr.b})"
        return base if expr.power == 1 else f"{base}^{expr.power}"
    if isinstance(expr, Theta):
        return f"theta({expr.family})"
    if isinstance(expr, NamedFunction):
        return expr.fid.value
    if isinstance(expr, Add):
        return f"{_wrap(expr.left, _PREC_ADD)} + {_wrap(expr.right, _PREC_ADD + 1)}"
    if isinstance(expr, Sub):
        return f"{_wrap(expr.left, _PREC_ADD)} - {_wrap(expr.right, _PREC_ADD + 1)}"
    if isinstance(expr, Mul):
        return f"{_wrap(expr.left, _PREC_MUL)} * {_wrap(expr.right, _PREC_MUL + 1)}"
    if isinstance(expr, Div):
        return f"{_wrap(expr.left, _PREC_MUL)} / {_wrap(expr.right, _PREC_MUL + 1)}"
    if isinstance(expr, Pow):
        return f"{_wrap(expr.base, _PREC_ATOM)}^{expr.exponent}"
    if isinstance(expr, Extract):
        return f"extract({print_expr(expr.child)}, {expr.m}, {expr.r})"
    if isinstance(expr, LebesguePartial):
        return f"lebesgue({expr.j_max})"
    raise TypeError(f"not an expression node: {expr!r}")


def statement_text(stmt: IdentityStatement) -> str:
    return f"{print_expr(stmt.lhs)} == {print_expr(stmt.rhs)} within {stmt.order}"


# ---------------------------------------------------------------------------
# Checking


def check(stmt: IdentityStatement, order: Optional[int] = None) -> VerificationReport:
    """Evaluate both sides and compare coefficientwise.

    A failure records the first differing exponent, the residual
    (lhs - rhs) there, and both coefficients in the detail text.
    """
    n = order if order is not None else stmt.order
    start = time.perf_counter()
    lhs = evaluate(stmt.lhs, n)
    rhs = evaluate(stmt.rhs, n)
    first: Optional[Failure] = None
    detail: Optional[str] = None
    for i in range(n + 1):
        if lhs[i] != rhs[i]:
            first = Failure(i, lhs[i] - rhs[i])
            detail = f"q^{i}: lhs={lhs[i]}, rhs={rhs[i]}"
            break
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(stmt.label(), n, first is None, first, millis, detail)
