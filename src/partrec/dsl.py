"""A small text language for q-series identities.

One statement per line:

    <expr> == <expr> [mod <M>] within <order>

with `#` comments, integer literals, the named counting functions (p, op,
po_bar, pd, pdo, pood, p2, qbar, peed), theta families (bare or via
theta(NAME)), Pochhammer atoms P([-]q^a; q^b), extract(expr, m, r) for
arithmetic-progression dissection, subs(expr, [-]q^d) for expr with q
replaced by +-q^d, and lebesgue(j) for partial sums of the Lebesgue
series.  Operators are ^ over * and / over + and -, all left-associative;
there are no variables or binding forms, so every statement is a closed
identity checked to the stated order.  `check` decides a statement whose
sides are both products (integer literals, Pochhammer atoms, named
functions and the theta families with an eta form in `THETA_ETA`, under
*, / and ^) on their scalars and exponent sequences a_n of (1 - q^n),
which it reads off without expanding; equal products are equal series.
Any other statement, and every statement under `mod M`, is checked by
expanding both sides and comparing coefficients; with `mod M` (M >= 2)
they are compared modulo M from q^1 on.  Named functions come from the
memoized store, or from a caller's `values` source (the theorem suites'
corrupted tables), which has no eta form, so `check` compares coefficients.

Every maximal chain of *, / and ^ is folded into a scalar (its integer
literals), eta exponents (its named functions, under the store, and its
P(q^k; q^k) atoms), the Pochhammer factors of a `series.ProductForm` (its
other atoms) and the dense product of its other, opaque factors.  The
form's eta part joins the eta exponents, whose quotient is read from the
function store by key and multiplied by the dense product; what is left of
the form, (1 - q^n) binomials, is applied in place.  A chain with no
Pochhammer atom (every theorem suite's) builds no form.  A power is
folded into the exponents, or its chain expanded and squared, whichever
takes fewer kernel passes.
"""

from __future__ import annotations

import time
from operator import neg, sub
from typing import Iterable, NamedTuple, Optional, Union

from .functions import (
    ETA_QUOTIENTS,
    KEYS,
    PartitionFunctionId,
    Values,
    eta_key,
    eta_series,
    function_value,
    gf_series,
    lebesgue_partial,
)
from .record import Record
from .report import Failure, VerificationReport, format_int
from .series import (
    THETA_ETA,
    THETA_FAMILIES,
    ProductForm,
    TruncatedSeries,
    _mul_eta_binomials,
    eta_passes,
    eta_quotient,
    pochhammer_expand,  # noqa: F401  (the reference route; bench/spans.py wraps this name)
    theta_series,
)

__all__ = [
    "MAX_ORDER",
    "MAX_DEPTH",
    "MAX_DIGITS",
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
    "Subs",
    "LebesguePartial",
    "IdentityStatement",
    "parse",
    "evaluate",
    "read_orders",
    "residuals",
    "print_expr",
    "statement_text",
    "expands",
    "grow",
    "check",
]

MAX_ORDER = 5000
# Deepest expression nesting: bounds the recursion of parse, evaluate and print_expr.
MAX_DEPTH = 100
# Longest integer literal, CPython's default limit for converting a digit string.
MAX_DIGITS = 4300


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


class IntLiteral(Record):
    __slots__ = ("value",)


class Pochhammer(Record):
    __slots__ = ("sign", "a", "b", "power")
    _defaults = {"power": 1}


class Theta(Record):
    __slots__ = ("family",)


class NamedFunction(Record):
    __slots__ = ("fid",)


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Div(Record):
    __slots__ = ("left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")


class Extract(Record):
    __slots__ = ("child", "m", "r")


class Subs(Record):  # child with q replaced by sign * q^d
    __slots__ = ("child", "sign", "d")


class LebesguePartial(Record):
    __slots__ = ("j_max",)


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
    Subs,
    LebesguePartial,
]


class IdentityStatement(Record):
    """lhs == rhs [mod modulus] within order.  `modulus` (`mod M`) compares
    from q^1 on, modulo M.  `source`, the statement's text as written, is
    left out of equality and hashing."""

    __slots__ = ("lhs", "rhs", "order", "source", "modulus")
    _defaults = {"source": "", "modulus": None}

    def _key(self) -> tuple:
        return self.lhs, self.rhs, self.order, self.modulus

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
_DIGITS = "0123456789"


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
        if ch in _DIGITS:  # ASCII only: str.isdigit also accepts '²' and '٣'
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", lineno, col)
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
        self.nesting = 0  # open expr() calls: parentheses and extract arguments
        # id -> (height, node) of every operator node built; holding the node
        # keeps its id from being reused while the line is parsed
        self.heights: dict[int, tuple[int, ExprNode]] = {}

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

    def expect_int(self, low: Optional[int] = None, message: str = "") -> int:
        """An integer literal; below `low` it is a ParseError with `message`."""
        tok = self.peek()
        if tok.kind != "INT":
            raise self.error("expected an integer")
        self.advance()
        value = int(tok.text)
        if low is not None and value < low:
            raise ParseError(message, tok.line, tok.col)
        return value

    def nested(self, node: ExprNode, tok: Token, *children: ExprNode) -> ExprNode:
        """node, once its height (one more than its tallest child's) is
        within MAX_DEPTH; tok is the operator that built it."""
        height = 1 + max(self.heights.get(id(c), (1,))[0] for c in children)
        if height > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH}", tok.line, tok.col)
        self.heights[id(node)] = (height, node)
        return node

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def statement(self, source: str) -> IdentityStatement:
        lhs = self.expr()
        self.expect_op("==")
        rhs = self.expr()
        modulus = None
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "mod":
            self.advance()
            modulus = self.expect_int(2, "modulus must be at least 2")
            tok = self.peek()
        if tok.kind != "NAME" or tok.text != "within":
            raise self.error("expected 'within'")
        self.advance()
        order_tok = self.peek()
        order = self.expect_int(1, "order must be positive")
        if order > self.max_order:
            raise ParseError(
                f"order {order} exceeds the engine maximum {self.max_order}",
                order_tok.line,
                order_tok.col,
            )
        end = self.peek()
        if end.kind != "END":
            raise self.error("trailing input after statement")
        return IdentityStatement(lhs, rhs, order, source.strip(), modulus)

    def expr(self) -> ExprNode:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH}")
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            right = self.term()
            node = self.nested((Add if op.text == "+" else Sub)(node, right), op, node, right)
        self.nesting -= 1
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance()
            right = self.factor()
            node = self.nested((Mul if op.text == "*" else Div)(node, right), op, node, right)
        return node

    def factor(self) -> ExprNode:
        node = self.atom()
        if self.at_op("^"):
            op = self.advance()
            exp_tok = self.peek()
            exponent = self.expect_int()
            if exponent > self.max_order:
                # a power costs work linear in the exponent, so it shares the order budget
                raise ParseError(
                    f"exponent {exponent} exceeds the engine maximum {self.max_order}",
                    exp_tok.line,
                    exp_tok.col,
                )
            if isinstance(node, Pochhammer) and node.power == 1:
                return Pochhammer(node.sign, node.a, node.b, exponent)
            return self.nested(Pow(node, exponent), op, node)
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
            if name == "subs":
                return self.subs_call()
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

    def _q_power(self, what: str) -> int:
        """q^k with k >= 1; `what` names k in the error."""
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != "q":
            raise self.error("expected 'q^'")
        self.advance()
        self.expect_op("^")
        return self.expect_int(1, f"{what} must be >= 1")

    def _signed_q_power(self, what: str) -> tuple[int, int]:
        """[-]q^k as (sign, k)."""
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        return sign, self._q_power(what)

    def pochhammer(self) -> ExprNode:
        self.advance()  # 'P'
        self.expect_op("(")
        sign, a = self._signed_q_power("pochhammer exponent a")
        self.expect_op(";")
        b = self._q_power("pochhammer base exponent b")
        self.expect_op(")")
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
        tok = self.advance()  # 'extract'
        self.expect_op("(")
        child = self.expr()
        self.expect_op(",")
        m = self.expect_int(1, "extract modulus must be >= 1")
        self.expect_op(",")
        r_tok = self.peek()
        r = self.expect_int()
        self.expect_op(")")
        if not 0 <= r < m:
            raise ParseError("extract residue must satisfy 0 <= r < m", r_tok.line, r_tok.col)
        return self.nested(Extract(child, m, r), tok, child)

    def subs_call(self) -> ExprNode:
        tok = self.advance()  # 'subs'
        self.expect_op("(")
        child = self.expr()
        self.expect_op(",")
        sign, d = self._signed_q_power("subs exponent d")
        self.expect_op(")")
        return self.nested(Subs(child, sign, d), tok, child)

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


def evaluate(expr: ExprNode, order: int, values: Optional[Values] = None) -> TruncatedSeries:
    """Exact series value of expr mod q^(order+1).

    extract() children are evaluated at order m*order + r and subs()
    children at order // d, so the result carries a full `order`
    coefficients; everything else evaluates its children at the same
    order, which keeps evaluation order-monotone.  An extract whose child
    order would pass MAX_ORDER raises EvalError before anything is
    expanded.  Named functions come from the store, or from `values` for
    every index 0..order when it is given.  Integer literals, Pochhammer
    atoms and every Mul/Div/Pow chain are folded by `_fold` and expanded by
    `_expand`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(expr, (IntLiteral, Pochhammer, Mul, Div, Pow)):
        return _expand(*_fold(expr, order, values), order)
    if isinstance(expr, Theta):
        return theta_series(THETA_FAMILIES[expr.family], order)
    if isinstance(expr, NamedFunction):
        if values is None:
            return gf_series(expr.fid, order)
        return TruncatedSeries(values(expr.fid, n) for n in range(order + 1))
    if isinstance(expr, Add):
        return evaluate(expr.left, order, values) + evaluate(expr.right, order, values)
    if isinstance(expr, Sub):
        return evaluate(expr.left, order, values) - evaluate(expr.right, order, values)
    if isinstance(expr, Extract):
        inner_order = expr.m * order + expr.r
        if inner_order > MAX_ORDER:
            raise EvalError(
                f"extract needs its argument to order {inner_order}, above {MAX_ORDER}",
                print_expr(expr),
            )
        inner = evaluate(expr.child, inner_order, values)
        return inner.extract(expr.m, expr.r)
    if isinstance(expr, Subs):
        out = [0] * (order + 1)
        out[:: expr.d] = evaluate(expr.child, order // expr.d, values).coeffs
        if expr.sign == -1:  # (-q^d)^i = (-1)^i q^(d*i): negate the odd i
            out[expr.d :: 2 * expr.d] = map(neg, out[expr.d :: 2 * expr.d])
        return TruncatedSeries(out)
    if isinstance(expr, LebesguePartial):
        return lebesgue_partial(expr.j_max, order)
    raise TypeError(f"not an expression node: {expr!r}")


# {(sign, a, b): e} for prod (sign*q^a; q^b)_inf^e, and {k: e} for prod eta_k^e
_Factors = dict[tuple[int, int, int], int]
_Eta = dict[int, int]
_Fold = tuple[Optional[TruncatedSeries], int, _Factors, _Eta]


def _split(factors: _Factors, eta: _Eta, order: int) -> tuple[_Eta, dict[int, int]]:
    """({k: e}, {n: e}): eta times the factors' product form as eta_k and
    (1 - q^n) exponents, with the eta_k past the order (1 there) dropped.
    No form is built when there are no factors."""
    eta = dict(eta)
    binomials: dict[int, int] = {}
    if factors:
        form = ProductForm.of([(sign, a, b, e) for (sign, a, b), e in factors.items()], order)
        form_eta, binomials = form.eta_split()
        for k, e in form_eta.items():
            eta[k] = eta.get(k, 0) + e
    return {k: e for k, e in eta.items() if e and k <= order}, binomials


def _expand(
    dense: Optional[TruncatedSeries], scalar: int, factors: _Factors, eta: _Eta, order: int
) -> TruncatedSeries:
    """dense (1 for None) times scalar times prod eta_k^e times the factors'
    product form.  The eta quotient (the form's included) is read from the
    store (`eta_series`) and multiplied by dense, unless dense has more
    nonzero terms than the quotient takes kernel passes: then it is applied
    to dense in place.  The form's (1 - q^n) binomials are applied in place
    last."""
    if not scalar:
        return TruncatedSeries.zero(order)
    eta, binomials = _split(factors, eta, order)
    if eta and (dense is None or len(dense) - dense.coeffs.count(0) <= eta_passes(eta, order)):
        table = eta_series(eta_key(eta), order)
        dense, eta = (table if dense is None else table * dense), {}
    acc = [1] + [0] * order if dense is None else list(dense.coeffs)
    _mul_eta_binomials(acc, eta, binomials)
    series = TruncatedSeries(acc)
    return series if scalar == 1 else series * scalar


def _squarings(n: int) -> int:
    """Dense products that raising to the n-th power by squaring takes:
    about bit_length + popcount of |n|."""
    return abs(n).bit_length() + bin(n).count("1")


def _power(
    dense: Optional[TruncatedSeries],
    scalar: int,
    factors: _Factors,
    eta: _Eta,
    n: int,
    order: int,
    decide: bool = False,
) -> _Fold:
    """The fold of a chain raised to the n-th power: every exponent times n,
    unless n times the chain's kernel passes (its eta quotient's plan,
    `eta_passes`, and one per binomial) exceed what squaring the expanded
    chain costs, `_squarings(n)` dense products of `order` passes each.  A
    deciding fold never squares."""
    if n > 1 and not decide:
        split_eta, binomials = _split(factors, eta, order)
        passes = eta_passes(split_eta, order) + sum(map(abs, binomials.values()))
        if n * passes > _squarings(n) * order:
            return _expand(dense, scalar, factors, eta, order) ** n, 1, {}, {}
    return (
        None if dense is None else dense**n,
        scalar**n,
        {key: e * n for key, e in factors.items()},
        {k: e * n for k, e in eta.items()},
    )


def _fold(expr: ExprNode, order: int, values: Optional[Values], decide: bool = False) -> _Fold:
    """A Mul/Div/Pow chain as (dense, scalar, factors, eta): the product of
    its opaque factors (None for none), and the scalar, Pochhammer factors
    and eta exponents that `_expand` multiplies it by.  A P(q^k; q^k) atom is
    eta_k, and under the store (values None) a named function is its eta
    quotient; under a caller's `values` source it stays opaque.  Each opaque
    factor is evaluated once, left to right except that a divisor comes
    before its dividend; a divisor whose constant term is not +-1 raises
    EvalError once both are folded.

    A deciding fold (`decide`, for `check`, of a side `_is_product`
    accepts) expands nothing: powers fold into the exponents, and a theta
    is its eta form (`THETA_ETA`)."""
    if isinstance(expr, IntLiteral):
        return None, expr.value, {}, {}
    if isinstance(expr, Pochhammer):
        if expr.sign == 1 and expr.a == expr.b:
            return _power(None, 1, {}, {expr.a: 1}, expr.power, order, decide)
        return _power(None, 1, {(expr.sign, expr.a, expr.b): 1}, {}, expr.power, order, decide)
    if isinstance(expr, NamedFunction) and values is None:
        return None, 1, {}, dict(ETA_QUOTIENTS[expr.fid])
    if isinstance(expr, Mul):
        left, left_scalar, factors, eta = _fold(expr.left, order, values, decide)
        right, right_scalar, right_factors, right_eta = _fold(expr.right, order, values, decide)
        for exps, right_exps in ((factors, right_factors), (eta, right_eta)):
            for key, e in right_exps.items():
                exps[key] = exps.get(key, 0) + e
        dense = right if left is None else left if right is None else left * right
        return dense, left_scalar * right_scalar, factors, eta
    if isinstance(expr, Div):
        right, right_scalar, right_factors, right_eta = _fold(expr.right, order, values, decide)
        left, left_scalar, factors, eta = _fold(expr.left, order, values, decide)
        c0 = right_scalar * (1 if right is None else right[0])  # every form and eta quotient has constant term 1
        if c0 not in (1, -1):
            message = f"cannot invert series with constant term {format_int(c0)}"
            raise EvalError(message, print_expr(expr.right))
        for exps, right_exps in ((factors, right_factors), (eta, right_eta)):
            for key, e in right_exps.items():
                exps[key] = exps.get(key, 0) - e
        if right is not None:
            left = (TruncatedSeries.one(order) if left is None else left) / right
        return left, left_scalar * right_scalar, factors, eta
    if isinstance(expr, Pow):
        return _power(*_fold(expr.base, order, values, decide), expr.exponent, order, decide)
    if decide and isinstance(expr, Theta):
        return None, 1, {}, dict(THETA_ETA[expr.family])
    return evaluate(expr, order, values), 1, {}, {}


def read_orders(
    statements: Iterable[IdentityStatement], order: Optional[int] = None
) -> dict[PartitionFunctionId, int]:
    """The largest order at which the statements, evaluated at `order` (each
    at its own order for None), name each function, so a caller can grow
    every named table once beforehand.  As in `evaluate`, an extract's
    argument is at m*n + r, a subs's at n // d and every other operand at n;
    an extract past MAX_ORDER raises before it reads anything."""
    reads: dict[PartitionFunctionId, int] = {}
    todo = [(e, s.order if order is None else order) for s in statements for e in (s.lhs, s.rhs)]
    while todo:
        expr, n = todo.pop()
        if isinstance(expr, NamedFunction):
            reads[expr.fid] = max(reads.get(expr.fid, 0), n)
        elif isinstance(expr, Extract):
            if expr.m * n + expr.r <= MAX_ORDER:
                todo.append((expr.child, expr.m * n + expr.r))
        elif isinstance(expr, Subs):
            todo.append((expr.child, n // expr.d))
        elif isinstance(expr, Pow):
            todo.append((expr.base, n))
        elif isinstance(expr, (Add, Sub, Mul, Div)):
            todo += [(expr.left, n), (expr.right, n)]
    # pood and p2 read one table, so they take one order
    return {fid: max(m for f, m in reads.items() if KEYS[f] == KEYS[fid]) for fid in reads}


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
    if isinstance(expr, Subs):
        sign = "-" if expr.sign == -1 else ""
        return f"subs({print_expr(expr.child)}, {sign}q^{expr.d})"
    if isinstance(expr, LebesguePartial):
        return f"lebesgue({expr.j_max})"
    raise TypeError(f"not an expression node: {expr!r}")


def statement_text(stmt: IdentityStatement) -> str:
    mod = "" if stmt.modulus is None else f" mod {stmt.modulus}"
    return f"{print_expr(stmt.lhs)} == {print_expr(stmt.rhs)}{mod} within {stmt.order}"


# ---------------------------------------------------------------------------
# Checking


def _difference(stmt: IdentityStatement, lhs: TruncatedSeries, rhs: TruncatedSeries) -> list[int]:
    diff = list(map(sub, lhs.coeffs, rhs.coeffs))
    if stmt.modulus is not None:
        diff = [0] + [v % stmt.modulus for v in diff[1:]]
    return diff


def residuals(stmt: IdentityStatement, order: int, values: Optional[Values] = None) -> list[int]:
    """lhs - rhs at q^0..q^order, reduced mod M from q^1 on (and 0 at q^0)
    under `mod M`; the statement holds to `order` when every entry is 0."""
    return _difference(stmt, evaluate(stmt.lhs, order, values), evaluate(stmt.rhs, order, values))


def _is_product(expr: ExprNode) -> bool:
    """Whether expr is a product with no opaque factor: integer literals,
    Pochhammer atoms, named functions and the thetas with an eta form
    (`THETA_ETA`), under *, / and ^."""
    if isinstance(expr, (Mul, Div)):
        return _is_product(expr.left) and _is_product(expr.right)
    if isinstance(expr, Pow):
        return _is_product(expr.base)
    if isinstance(expr, Theta):
        return expr.family in THETA_ETA
    return isinstance(expr, (IntLiteral, Pochhammer, NamedFunction))


def expands(stmt: IdentityStatement) -> bool:
    """Whether `check` compares the statement coefficient by coefficient:
    under `mod M`, or when a side has an opaque factor."""
    return stmt.modulus is not None or not (_is_product(stmt.lhs) and _is_product(stmt.rhs))


def grow(statements: Iterable[IdentityStatement], order: Optional[int] = None) -> None:
    """Grow each named table once, to the largest order at which a statement
    that `check` expands (`expands`) names it; a decided one reads none."""
    for fid, n in read_orders(filter(expands, statements), order).items():
        function_value(fid, n)


def _product_folds(stmt: IdentityStatement) -> Optional[tuple[_Fold, _Fold]]:
    """Both sides as deciding folds, when `check` decides the statement on
    its scalars and exponent sequences (`expands` is False for it); None
    sends it to the coefficient path.  A non-unit divisor raises EvalError
    here, as evaluating the sides would."""
    if expands(stmt):
        return None
    return _fold(stmt.lhs, 0, None, decide=True), _fold(stmt.rhs, 0, None, decide=True)


def _exponents(fold: _Fold, n: int) -> list[int]:
    """[0, a_1, ..., a_n]: the exponent a_m of (1 - q^m) in a deciding
    fold's product, read off the product form of its factors and eta_k
    (that is, P(q^k; q^k)) with no expansion."""
    _, _, factors, eta = fold
    atoms = [(sign, a, b, e) for (sign, a, b), e in factors.items()] + [(1, k, k, e) for k, e in eta.items()]
    form = ProductForm.of(atoms, n)
    seq = [0] * (n + 1)
    period = form.period
    for r, c in enumerate(form.classes):
        if c:  # class 0 starts at n = period: a_0 is not an exponent
            seq[r or period :: period] = [c] * len(range(r or period, n + 1, period))
    for m, e in form.head.items():
        seq[m] += e
    return seq


def _coefficient(fold: _Fold, n: int) -> int:
    """[q^n] of a deciding fold's product, expanded to q^n alone and with no
    store read.  An eta_k^e is raised to its power by squaring when that
    takes fewer kernel passes than its plan (`eta_passes`), and a
    (1 - q^m)^e when that takes fewer than |e|; the rest are applied in
    place, the eta_k by their joint plan."""
    _, scalar, factors, eta = fold
    eta, binomials = _split(factors, eta, n)
    one = TruncatedSeries.one(n)
    squared = one
    for k, e in list(eta.items()):
        if eta_passes({k: e}, n) > _squarings(e) * n:
            squared = squared * eta_quotient({k: 1}, n) ** eta.pop(k)
    for m, e in list(binomials.items()):
        if abs(e) > _squarings(e) * n:
            squared = squared * (one - TruncatedSeries.monomial(m, n)) ** binomials.pop(m)
    acc = list(squared.coeffs)
    _mul_eta_binomials(acc, eta, binomials)
    return scalar * acc[n]


def _compare_products(left: _Fold, right: _Fold, n: int) -> Optional[tuple[int, int, int, int]]:
    """(i, residual, lhs_i, rhs_i) at the first difference of two products
    to q^n, or None when they agree: unequal scalars differ at q^0, two
    zero scalars are two zero series, and otherwise the sides differ first
    at the least i with a_i != b_i, by -scalar * (a_i - b_i); only there
    are the sides expanded, to q^i."""
    s, t = left[1], right[1]
    if s != t:
        return 0, s - t, s, t
    if not s:
        return None
    a, b = _exponents(left, n), _exponents(right, n)
    if a == b:
        return None
    i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    return i, -s * (a[i] - b[i]), _coefficient(left, i), _coefficient(right, i)


def _compare_coefficients(
    stmt: IdentityStatement, n: int, values: Optional[Values]
) -> Optional[tuple[int, int, int, int]]:
    """(i, residual, lhs_i, rhs_i) at the first nonzero entry of the
    statement's residuals to q^n, or None when there is none."""
    lhs = evaluate(stmt.lhs, n, values)
    rhs = evaluate(stmt.rhs, n, values)
    diff = _difference(stmt, lhs, rhs)
    i = next((i for i, r in enumerate(diff) if r), None)
    return None if i is None else (i, diff[i], lhs[i], rhs[i])


def check(
    stmt: IdentityStatement, order: Optional[int] = None, values: Optional[Values] = None
) -> VerificationReport:
    """Check the statement to q^order (its own order for None).

    When both sides fold to products (`_product_folds`), the statement is
    decided on their scalars and exponent sequences with no expansion;
    otherwise, and always with a `values` source (as in `evaluate`), both
    sides are evaluated and compared coefficientwise.  A failure records
    the first differing exponent, the residual there and both coefficients.
    """
    n = order if order is not None else stmt.order
    start = time.perf_counter()
    folds = None if values is not None else _product_folds(stmt)
    failure = _compare_coefficients(stmt, n, values) if folds is None else _compare_products(*folds, n)
    first = detail = None
    if failure is not None:
        i, residual, lhs_i, rhs_i = failure
        first = Failure(i, residual)
        detail = f"q^{i}: lhs={format_int(lhs_i)}, rhs={format_int(rhs_i)}"
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(stmt.label(), n, first is None, first, millis, detail)
