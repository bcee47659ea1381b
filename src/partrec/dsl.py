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
identity checked to the stated order.

A side is evaluated in two steps.  The symbolic fold (`_fold`) evaluates
nothing: each maximal chain of *, / and ^ goes into a scalar (its integer
literals) and the Pochhammer factors of a `series.ProductForm` (its atoms,
and its named functions, under the store, as eta quotients: eta_k is the
atom P(q^k; q^k)), and every other node into a tree of dense nodes that
hold the folds of their children at the orders they are evaluated at.  A
power is folded into the exponents, or its base expanded and squared,
whichever takes fewer kernel passes.  An extract dissects a product
argument, its thetas and subs of products lifted (`_dissect`): its eta
exponents at the multiples of m come out as a product in q, and a
THETA_ETA family that holds the rest at the other k is extracted on its
progression alone, which is a product itself when it is a multiple of a
theta row; any other argument is evaluated whole and sliced.  The run
step (`_run`) evaluates the dense nodes, checks each divisor's constant
term and expands each fold (`_expand`): a fold with no dense part, a
bare product, reads its eta quotient from the function store by key,
and any other has the quotient applied to its dense part's value in
place; the form's (1 - q^n) binomials are applied in place.  `evaluate`
and every route of `check` read the same folds.

`check` runs each statement by its plan (`_plan`), the one place where
its route is decided; `expands` reads the same plan.  The plan folds both
sides once.  With a caller's `values` source for the named
functions (the theorem suites' corrupted tables, which have no eta
form), the route is coefficients: both sides are run and compared
coefficientwise, modulo M from q^1 on under `mod M` (M >= 2).  Otherwise
a statement whose sides are both products (`_form`: integer literals,
Pochhammer atoms, named functions and the theta families with an eta
form in `THETA_ETA`, under *, / and ^, inside subs and as the extracts
that dissect into products) is decided on
their scalars and exponent sequences a_n of (1 - q^n), which it reads
off without expanding; equal products are equal series.  Under `mod M`
it is decided over F_p for each prime p of a squarefree M below
_FACTOR_BOUND, when the scalars are equal mod p or one of them is 0 mod
p: as (1 - q^n)^p = 1 - q^(pn) mod p, two products agree mod p where
their exponents' normal forms mod p do.  Any other statement under
`mod M` takes the coefficient route, and any other with no `mod M` is
cancelled: compared on its sides less their common exponent part.  Each
side's chain, its eta-form thetas and the products under its subs lifted
(`_lifted`), is a scalar times an exponent part times a dense part, and
the quotient of the exponent parts goes to one side only: to the side
that is a product when exactly one is, which then reads it as one
table, and to the left otherwise.  A route finds where a statement fails
and `evaluate` says what: every route returns only the first failing
index i, and `check` reports the residual and both coefficients there
from both sides evaluated to q^i.  A table read from the store is read
at the order of the fold that reads it, and the store alone decides how
far it grows (`functions.grown`).
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from operator import add, neg, sub
from typing import NamedTuple, Optional, Union

from .functions import (
    ETA_QUOTIENTS,
    PartitionFunctionId,
    Values,
    eta_key,
    eta_series,
    gf_series,  # noqa: F401  (bench/spans.py wraps this name)
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
    pochhammer_expand,  # noqa: F401  (the reference route; bench/spans.py wraps this name)
    theta_series,
    theta_terms,
)

__all__ = [
    "MAX_ORDER",
    "MAX_DEPTH",
    "MAX_DIGITS",
    "MAX_SCALAR_BITS",
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
    "residuals",
    "print_expr",
    "statement_text",
    "expands",
    "check",
]

MAX_ORDER = 5000
# Deepest expression nesting: bounds the recursion of parse, evaluate and print_expr.
MAX_DEPTH = 100
# Longest integer literal, CPython's default limit for converting a digit string.
MAX_DIGITS = 4300
# Largest power of a scalar or of a dense constant term c, in bits (|c|.bit_length() * n): 999^5000 takes 50 000.
MAX_SCALAR_BITS = 2**16
# A modulus below this is factored by trial division (`_primes`); a larger one keeps the coefficient route.
_FACTOR_BOUND = 2**20


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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
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
        if order > MAX_ORDER:
            raise ParseError(
                f"order {order} exceeds the engine maximum {MAX_ORDER}",
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
            if exponent > MAX_ORDER:
                # a power costs work linear in the exponent, so it shares the order budget
                raise ParseError(
                    f"exponent {exponent} exceeds the engine maximum {MAX_ORDER}",
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


def parse(text: str) -> list[IdentityStatement]:
    """Parse statements, one per line; blank lines and comments are skipped."""
    statements: list[IdentityStatement] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parser = _Parser(_tokenize_line(line, lineno))
        statements.append(parser.statement(stripped))
    return statements


# ---------------------------------------------------------------------------
# Evaluation: a symbolic fold (`_fold`), then a run step (`_run`)


def evaluate(expr: ExprNode, order: int, values: Optional[Values] = None) -> TruncatedSeries:
    """Exact series value of expr mod q^(order+1): its fold, run.

    extract() children are evaluated at order m*order + r and subs()
    children at order // d, so the result carries a full `order`
    coefficients; everything else evaluates its children at the same
    order, which keeps evaluation order-monotone.  Named functions come
    from the store, or from `values` for every index 0..order when it is
    given.  An extract whose child order would pass MAX_ORDER raises
    EvalError before its argument is read, and a divisor whose constant
    term is not +-1 once its dividend has run (see `_run`).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _run(_fold(expr, order, values))


# {(sign, a, b): e} for prod (sign*q^a; q^b)_inf^e, eta_k being (1, k, k)
_Factors = dict[tuple[int, int, int], int]
# A node of a fold's dense part: a tuple that starts with its kind (see `_fold`)
_Dense = tuple
# A product as (scalar, factors): see `_form`
_Form = tuple[int, _Factors]


class _Fold(NamedTuple):
    """scalar * prod factors * dense to q^order, where dense (None for 1) is
    a tree of the nodes that are not folded."""

    scalar: int
    factors: _Factors
    dense: Optional[_Dense]
    order: int


def _node(dense: _Dense, order: int) -> _Fold:
    return _Fold(1, {}, dense, order)


def _etas(eta: dict[int, int]) -> _Factors:
    """{k: e} of prod eta_k^e as factors: eta_k is P(q^k; q^k)."""
    return {(1, k, k): e for k, e in eta.items()}


def _add(exps: dict, other: dict, sign: int) -> dict:
    """exps times other^sign, as a new dict of exponents."""
    out = dict(exps)
    for key, e in other.items():
        out[key] = out.get(key, 0) + sign * e
    return out


def _mul(a: Optional[_Dense], b: Optional[_Dense]) -> Optional[_Dense]:
    return b if a is None else a if b is None else ("mul", a, b)


def _unscaled(fold: _Fold) -> _Fold:
    """fold with its scalar taken out (to go into the fold that holds it),
    unless it is 0, with which `_expand` expands nothing."""
    return fold._replace(scalar=1) if fold.scalar else fold


def _split(factors: _Factors, order: int) -> tuple[dict[int, int], dict[int, int]]:
    """({k: e}, {n: e}): the factors' product form as eta_k and (1 - q^n)
    exponents.  The eta_k factors are split off first, those past the order
    (1 there) dropped, and a form is built for the other factors alone, so
    an eta_k never goes into a form's head as binomials."""
    eta = {a: e for (sign, a, b), e in factors.items() if sign == 1 and a == b <= order and e}
    rest = [(sign, a, b, e) for (sign, a, b), e in factors.items() if sign != 1 or a != b]
    if not rest:
        return eta, {}
    more, binomials = ProductForm.of(rest, order).eta_split()
    return {k: e for k, e in _add(eta, more, 1).items() if e}, binomials


def _squarings(n: int) -> int:
    """Dense products that raising to the n-th power by squaring takes:
    about bit_length + popcount of |n|."""
    return abs(n).bit_length() + bin(n).count("1")


def _power(base: _Fold, n: int, expr: ExprNode) -> _Fold:
    """base^n: every exponent times n, unless n times base's kernel passes
    (its eta quotient's plan, `eta_passes`, with the thetas and subs
    products that `_lift` takes out, and one per binomial) exceed what
    expanding base and squaring it costs, `_squarings(n)` dense products
    of `order` passes each.  A scalar power (n >= 2) whose |s|.bit_length() * n would pass
    MAX_SCALAR_BITS fails instead, once base's dense part has run."""
    order = base.order
    if n > 1:
        if abs(base.scalar).bit_length() * n > MAX_SCALAR_BITS:
            return _node(_mul(base.dense, ("fail", f"scalar power past {MAX_SCALAR_BITS} bits", expr)), order)
        eta, binomials = _split(_add(base.factors, _lift(base.dense)[0], 1), order)
        if n * (eta_passes(eta, order) + sum(map(abs, binomials.values()))) > _squarings(n) * order:
            return _Fold(base.scalar**n, {}, ("pow", _unscaled(base), n, expr), order)
    factors = {key: e * n for key, e in base.factors.items()}
    return _Fold(base.scalar**n, factors, None if base.dense is None else ("pow", base.dense, n, expr), order)


def _subs_atoms(factors: _Factors, sign: int, d: int) -> _Factors:
    """The factors of a product with q replaced by sign*q^d.

    P(s*q^a; q^b) becomes P(s*sign^a*q^(ad); sign^b*q^(bd)), and a base
    -Q = -q^(bd) splits by (x; -Q)_inf = (x; Q^2)_inf (-x*Q; Q^2)_inf.  So
    eta_k = P(q^k; q^k) is eta_(kd), or, for odd k under -q^d, P(-Q; Q^2)
    P(Q^2; Q^2) with Q = q^(kd), which is eta_(2kd)^3 / (eta_(kd) eta_(4kd)).
    """
    new: _Factors = Counter()
    for (s, a, b), e in factors.items():
        s *= sign ** (a % 2)
        if sign == 1 or b % 2 == 0:
            new[s, a * d, b * d] += e
        else:
            new[s, a * d, 2 * b * d] += e
            new[-s, (a + b) * d, 2 * b * d] += e
    return new


def _fold(expr: ExprNode, order: int, values: Optional[Values]) -> _Fold:
    """expr to q^order as a fold, with nothing evaluated.

    Integer literals go into the scalar, and Pochhammer atoms and named
    functions under the store (as eta quotients: eta_k is P(q^k; q^k)) into
    the factors, combined by *, / and ^ (`_power`).  Every other node is
    dense: ("mul", a, b); ("div", a, b, scalar, divisor), b and scalar
    being the divisor's; ("pow", a, n, power) of a dense node, or of a fold
    that is expanded and squared; ("theta", family, m, r), the progression
    extract(theta(family), m, r), m = 1 and r = 0 for the theta itself;
    ("subs", f, sign, d) and ("extract", f, m, r), with the folds f at
    their own orders;
    ("sum", f, g, sign) for + and -; ("leaf", thunk) for lebesgue() and a
    `values` source; and ("fail", message, node) for an extract past
    MAX_ORDER and a scalar power past MAX_SCALAR_BITS.  A subs or a
    squared power takes its fold's scalar out (`_unscaled`).  An extract
    whose argument is a product, its thetas and subs of products lifted,
    is no node at all but the fold that `_dissect` returns: the product
    that comes out of the argument, and the progression of a theta family,
    folded into the product when it is a multiple of a theta row."""
    if isinstance(expr, IntLiteral):
        return _Fold(expr.value, {}, None, order)
    if isinstance(expr, Pochhammer):
        return _power(_Fold(1, {(expr.sign, expr.a, expr.b): 1}, None, order), expr.power, expr)
    if isinstance(expr, NamedFunction) and values is None:
        return _Fold(1, _etas(ETA_QUOTIENTS[expr.fid]), None, order)
    if isinstance(expr, (Mul, Div)):
        sign = 1 if isinstance(expr, Mul) else -1
        left, right = _fold(expr.left, order, values), _fold(expr.right, order, values)
        dense = _mul(left.dense, right.dense)
        if sign == -1 and (right.dense is not None or right.scalar not in (1, -1)):
            dense = ("div", left.dense, right.dense, right.scalar, expr.right)
        return _Fold(left.scalar * right.scalar, _add(left.factors, right.factors, sign), dense, order)
    if isinstance(expr, Pow):
        return _power(_fold(expr.base, order, values), expr.exponent, expr)
    if isinstance(expr, Subs):
        child = _fold(expr.child, order // expr.d, values)
        return _Fold(child.scalar, {}, ("subs", _unscaled(child), expr.sign, expr.d), order)
    if isinstance(expr, Extract):
        inner = expr.m * order + expr.r
        if inner > MAX_ORDER:
            return _node(("fail", f"extract needs its argument to order {inner}, above {MAX_ORDER}", expr), order)
        child = _fold(expr.child, inner, values)
        return _dissect(child, expr.m, expr.r, order) or _node(("extract", child, expr.m, expr.r), order)
    if isinstance(expr, (Add, Sub)):
        sign = 1 if isinstance(expr, Add) else -1
        return _node(("sum", _fold(expr.left, order, values), _fold(expr.right, order, values), sign), order)
    if isinstance(expr, Theta):
        return _node(("theta", expr.family, 1, 0), order)
    if isinstance(expr, NamedFunction):
        fid = expr.fid
        return _node(("leaf", lambda: TruncatedSeries(values(fid, n) for n in range(order + 1))), order)
    if isinstance(expr, LebesguePartial):
        j_max = expr.j_max
        return _node(("leaf", lambda: lebesgue_partial(j_max, order)), order)
    raise TypeError(f"not an expression node: {expr!r}")


def _dissect(child: _Fold, m: int, r: int, order: int) -> Optional[_Fold]:
    """extract(A, m, r) to q^order as a fold with no extract node, child
    being A's fold (to q^(m*order + r)), or None when A's chain, its thetas
    and the products under its subs lifted (`_lift`), has a dense part or
    (1 - q^n) binomials.

    Of A's eta exponents e_k, those at m | k are a product in q^m, which
    comes out as a product in q: so a subs(B, +-q^(k*m)) factor of a
    product comes out as subs(B, +-q^k).  If nothing is left the extract
    is that product for r = 0 and 0 otherwise.  If what is left at the k
    with m not dividing k is the first THETA_ETA family T's exponents
    there, T is divided out, the rest comes out too, and the extract is
    that product times extract(T, m, r), generated from T's row on the
    progression alone (`theta_terms`): a product itself when it is
    c * row(q^s) for a THETA_ETA row (`_row_multiple`), and a
    ("theta", T, m, r) node, the result's one dense part, otherwise.  When
    no family fits, it is None too."""
    lifted, dense = _lift(child.dense)
    if dense is not None:
        return None
    eta, binomials = _split(_add(child.factors, lifted, 1), child.order)
    if binomials:
        return None
    family = None
    if off := {k: e for k, e in eta.items() if k % m}:
        for family, form in THETA_ETA.items():
            form = {k: e for k, e in form.items() if k <= child.order}  # eta_k is 1 past the order
            if off == {k: e for k, e in form.items() if k % m}:
                eta = _add(eta, form, -1)
                break
        else:
            return None
    factors = _etas({k // m: e for k, e in eta.items() if e})
    if family is None:
        return _Fold(child.scalar if r == 0 else 0, factors, None, order)
    multiple = _row_multiple(family, m, r, order)
    if multiple is None:
        return _Fold(child.scalar, factors, ("theta", family, m, r), order)
    return _Fold(child.scalar * multiple[0], _add(factors, multiple[1], 1), None, order)


@lru_cache(maxsize=256)
def _row_multiple(family: str, m: int, r: int, order: int) -> Optional[_Form]:
    """(c, factors) when extract(theta(family), m, r), given by its nonzero
    terms (`theta_terms`), is c * row(q^s) to q^order for a THETA_ETA row,
    the factors being that row's eta form at q^s, or None when it is not:
    compared term by term, which is exact to the order.  A constant is c
    with no factors.  The caller must not change the factors."""
    terms = theta_terms(THETA_FAMILIES[family], order, m, r)
    c = terms.get(0, 0)
    first = min((n for n in terms if n), default=None)
    if first is None or not c:
        return (c, {}) if first is None else None
    for name, form in THETA_ETA.items():
        row = THETA_FAMILIES[name]
        head = theta_terms(row, first)
        lead = min((g for g in head if g), default=None)
        if lead is None or first % lead or c * head[lead] != terms[first]:
            continue
        s = first // lead
        if {s * g: c * v for g, v in theta_terms(row, order // s).items()} == terms:
            return c, _etas({k * s: e for k, e in form.items()})
    return None


def _run(x: Union[_Fold, _Dense, None], order: int = 0) -> Optional[TruncatedSeries]:
    """The value of a fold, its dense part's then `_expand`'s, or of a
    dense node to q^order; an absent dense part (None) is 1, and is the
    only one whose value is None.  A node's parts run left to right,
    except that a divisor runs before its dividend and its constant term
    is checked after both; a failed node, or a power whose constant term
    passes MAX_SCALAR_BITS once its base has run, raises its EvalError
    where it runs."""
    if isinstance(x, _Fold):
        return _expand(_run(x.dense, x.order), x)
    if x is None:
        return None
    kind = x[0]
    if kind == "mul":
        return _run(x[1], order) * _run(x[2], order)
    if kind == "div":
        b = _run(x[2], order)
        a = _run(x[1], order)
        c0 = x[3] * (1 if b is None else b[0])
        if c0 not in (1, -1):
            raise _non_unit(c0, x[4])
        return (TruncatedSeries.one(order) if a is None else a) / b
    if kind == "pow":
        base = _run(x[1], order)
        if x[2] > 1 and abs(base[0]).bit_length() * x[2] > MAX_SCALAR_BITS:
            raise EvalError(f"power's constant term past {MAX_SCALAR_BITS} bits", print_expr(x[3]))
        return base ** x[2]
    if kind == "theta":
        return theta_series(THETA_FAMILIES[x[1]], order, x[2], x[3])
    if kind == "subs":
        _, child, sign, d = x
        out = [0] * (order + 1)
        out[::d] = _run(child).coeffs
        if sign == -1:  # (-q^d)^i = (-1)^i q^(d*i): negate the odd i
            out[d :: 2 * d] = map(neg, out[d :: 2 * d])
        return TruncatedSeries(out)
    if kind == "extract":
        return _run(x[1]).extract(x[2], x[3])
    if kind == "sum":
        return (add if x[3] == 1 else sub)(_run(x[1]), _run(x[2]))
    if kind == "leaf":
        return x[1]()
    raise EvalError(x[1], print_expr(x[2]))  # "fail"


def _non_unit(c0: int, divisor: ExprNode) -> EvalError:
    return EvalError(f"cannot invert series with constant term {format_int(c0)}", print_expr(divisor))


def _expand(value: Optional[TruncatedSeries], fold: _Fold) -> TruncatedSeries:
    """The fold's value, given its dense part's (None for 1).  The eta
    quotient of the factors' product form (`_split`) is read from the store
    (`eta_series`) when the fold has no dense part, a bare product, and
    otherwise applied to the dense part's value in place.  The form's
    (1 - q^n) binomials are applied in place last."""
    order = fold.order
    if not fold.scalar:
        return TruncatedSeries.zero(order)
    eta, binomials = _split(fold.factors, order)
    if value is None and eta:
        value, eta = eta_series(eta_key(eta), order), {}
    if value is None or eta or binomials:
        acc = [1] + [0] * order if value is None else list(value.coeffs)
        _mul_eta_binomials(acc, eta, binomials)
        value = TruncatedSeries(acc)
    return value if fold.scalar == 1 else value * fold.scalar


def _lifted(fold: _Fold) -> _Fold:
    """The fold with the thetas of its chain that have an eta form
    (`THETA_ETA`), and the products under its subs, moved from its dense
    part into its factors (`_lift`)."""
    factors, dense = _lift(fold.dense)
    return fold._replace(factors=_add(fold.factors, factors, 1), dense=dense)


def _lift(node: Optional[_Dense]) -> tuple[_Factors, Optional[_Dense]]:
    """(factors, rest): the eta forms of the thetas that have one in a
    dense node, outside its folds and sums, and the node without them.  A
    subs of a fold with scalar 1 gives up the fold's factors and its own
    lifted thetas, at +-q^d (`_subs_atoms`): subs(F * R, +-q^d) is
    subs(F, +-q^d) * subs(R, +-q^d), and only the rest R stays under the
    subs."""
    kind = node and node[0]
    if kind == "theta" and node[2] == 1 and node[1] in THETA_ETA:
        return _etas(THETA_ETA[node[1]]), None
    if kind == "subs" and node[1].scalar == 1:
        _, child, sign, d = node
        factors, rest = _lift(child.dense)
        rest = rest and ("subs", _node(rest, child.order), sign, d)
        return _subs_atoms(_add(child.factors, factors, 1), sign, d), rest
    if kind in ("mul", "div"):
        (a_factors, a), (b_factors, b) = _lift(node[1]), _lift(node[2])
        if kind == "mul" or b is None and node[3] in (1, -1):
            return _add(a_factors, b_factors, 1 if kind == "mul" else -1), _mul(a, b)
        return _add(a_factors, b_factors, -1), ("div", a, b, *node[3:])
    if kind == "pow" and not isinstance(node[1], _Fold):
        factors, rest = _lift(node[1])
        return {key: e * node[2] for key, e in factors.items()}, rest and ("pow", rest, *node[2:])
    return {}, node


def _form(x: Union[_Fold, _Dense, None]) -> Optional[_Form]:
    """A fold or dense node as one product, or None when it is not one: a
    theta is its eta form (`THETA_ETA`), a subs of a product its product at
    +-q^d (`_subs_atoms`) and a power, squared or not, its base's exponents
    times n.  The nodes are read in the order `_run` runs them, and up to
    the first that is not a product; a divisor before it whose scalar is
    not +-1 raises EvalError, as running it would.  A dense node's scalar
    is 1."""
    if isinstance(x, _Fold):
        dense = _form(x.dense)
        return dense and (x.scalar, _add(x.factors, dense[1], 1))
    if x is None:
        return 1, {}
    kind = x[0]
    if kind == "theta":
        return (1, _etas(THETA_ETA[x[1]])) if x[2] == 1 and x[1] in THETA_ETA else None
    if kind == "subs":
        child = _form(x[1])
        return child and (1, _subs_atoms(child[1], x[2], x[3]))
    if kind == "pow":
        base = _form(x[1])
        return base and (1, {key: e * x[2] for key, e in base[1].items()})
    if kind == "mul":
        a = _form(x[1])
        b = a and _form(x[2])
        return b and (1, _add(a[1], b[1], 1))
    if kind == "div":
        b = _form(x[2])
        a = b and _form(x[1])
        if a and x[3] not in (1, -1):
            raise _non_unit(x[3], x[4])
        return a and (1, _add(a[1], b[1], -1))
    return None


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


@lru_cache(maxsize=64)
def _primes(modulus: int) -> Optional[tuple[int, ...]]:
    """The primes of a squarefree modulus below _FACTOR_BOUND, found by
    trial division, or None for any other modulus."""
    if modulus >= _FACTOR_BOUND:
        return None
    primes = []
    p = 2
    while p * p <= modulus:
        if modulus % p == 0:
            modulus //= p
            if modulus % p == 0:
                return None
            primes.append(p)
        p += 1
    return (*primes, modulus) if modulus > 1 else tuple(primes)


def _plan(stmt: IdentityStatement, order: int, values: Optional[Values]) -> tuple:
    """The route by which `check` compares the statement's sides to q^order,
    each folded once (`_fold`), with what that route needs:

    ("decided", lhs, rhs) when both sides are products (`_form`): their
    scalars and exponent sequences decide the statement.  Under `mod M`
    this takes a squarefree M below _FACTOR_BOUND (`_primes`) and scalars
    s, t with s = t or s*t = 0 modulo each prime of M, which decide it
    over F_p (`_compare_products`).  A non-unit divisor of a product
    raises EvalError here.

    ("coefficients", left, right) with a `values` source, and under any
    other `mod M`: both folds are run and compared coefficientwise.

    ("cancelled", left, right) otherwise, with no `mod M`: the folds,
    their thetas and subs of products lifted (`_lifted`), with their
    exponent parts cancelled, and compared as the coefficient route
    compares.  Each side is a scalar times an exponent part Q times its
    dense part O; the quotient of the exponent parts goes to one side and
    the other runs as s*O alone.  Q_L and Q_R are 1 + O(q), so the sides
    first differ where the statement's do.  When exactly one side is a
    product (O is 1: it has no dense part), that side takes it, and reads
    it as one table (`_expand`); otherwise the left takes Q_L/Q_R, and
    applies it to its O in place.
    """
    left, right = _fold(stmt.lhs, order, values), _fold(stmt.rhs, order, values)
    primes = () if stmt.modulus is None else _primes(stmt.modulus)
    if values is not None or primes is None:
        return "coefficients", left, right
    lhs = _form(left)
    rhs = lhs and _form(right)
    if rhs and all((lhs[0] - rhs[0]) * lhs[0] * rhs[0] % p == 0 for p in primes):
        return "decided", lhs, rhs
    if stmt.modulus is not None:
        return "coefficients", left, right
    left, right = _lifted(left), _lifted(right)
    over = _add(left.factors, right.factors, -1)  # Q_L/Q_R
    if left.dense is not None and right.dense is None:  # the right side alone is a product
        return "cancelled", left._replace(factors={}), right._replace(factors=_add({}, over, -1))
    return "cancelled", left._replace(factors=over), right._replace(factors={})


def expands(stmt: IdentityStatement) -> bool:
    """Whether `check` expands the statement rather than deciding it: its
    plan's route (`_plan`) is not decided."""
    try:
        return _plan(stmt, stmt.order, None)[0] != "decided"
    except EvalError:  # decided, and raised
        return False


def _exponents(form: _Form, n: int) -> list[int]:
    """[0, a_1, ..., a_n]: the exponent a_m of (1 - q^m) in a product, read
    off the product form of its factors with no expansion."""
    form = ProductForm.of([(sign, a, b, e) for (sign, a, b), e in form[1].items()], n)
    seq = [0] * (n + 1)
    period = form.period
    for r, c in enumerate(form.classes):
        if c:  # class 0 starts at n = period: a_0 is not an exponent
            seq[r or period :: period] = [c] * len(range(r or period, n + 1, period))
    for m, e in form.head.items():
        seq[m] += e
    return seq


def _digit_difference(a: list[int], b: list[int], p: int, stop: int) -> int:
    """The least 1 <= m < stop at which prod (1 - q^m)^(a_m) and
    prod (1 - q^m)^(b_m) differ mod a prime p, or stop if there is none.

    As (1 - q^m)^p = 1 - q^(pm) mod p, each product has a normal form mod
    p, its digits 0 <= d_m < p: walking m upward, d_m is a_m mod p, and
    (a_m - d_m)/p is carried into a_(pm).  At the first m with d_m != e_m
    the quotient of the two is 1 - (d_m - e_m) q^m + O(q^(m+1)), and
    0 < |d_m - e_m| < p, so that is where they first differ."""
    a, b = list(a), list(b)
    for m in range(1, stop):
        (carry_a, d), (carry_b, e) = divmod(a[m], p), divmod(b[m], p)
        if d != e:
            return m
        if p * m < stop:
            a[p * m] += carry_a
            b[p * m] += carry_b
    return stop


def _compare_products(left: _Form, right: _Form, n: int, modulus: Optional[int] = None) -> Optional[int]:
    """The first index to q^n at which two products differ, or None when
    they agree, with nothing expanded: unequal scalars differ at q^0, two
    zero scalars are two zero series, and otherwise the sides differ first
    at the least i with a_i != b_i.

    Under `mod M`, M squarefree and each prime p of M taking scalars s, t
    with s = t or s*t = 0 mod p (`_plan`), q^0 is skipped, and the first
    failure is the least over the primes of where the sides differ mod p:
    where their digits differ (`_digit_difference`).  A side whose scalar
    is 0 mod p is 0 there, and from q^1 on so is the product 1, with no
    exponents.  A pass holds to the order checked."""
    s, t = left[0], right[0]
    if modulus is None:
        if s != t:
            return 0
        if not s:
            return None
        a, b = _exponents(left, n), _exponents(right, n)
        return None if a == b else next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    a, b, one = _exponents(left, n), _exponents(right, n), [0] * (n + 1)
    first = n + 1
    for p in _primes(modulus):
        first = _digit_difference(a if s % p else one, b if t % p else one, p, first)
    return first if first <= n else None


def _compare_coefficients(stmt: IdentityStatement, left: _Fold, right: _Fold) -> Optional[int]:
    """The first nonzero entry of the statement's residuals (`_difference`)
    with both folds run, the left first, or None when there is none."""
    diff = _difference(stmt, _run(left), _run(right))
    return next((i for i, r in enumerate(diff) if r), None)


def check(
    stmt: IdentityStatement, order: Optional[int] = None, values: Optional[Values] = None
) -> VerificationReport:
    """Check the statement to q^order (its own order for None).

    The statement's plan (`_plan`) names the route, which finds only
    the first failing index: a decided statement is compared on its
    products' scalars and exponent sequences with no expansion
    (`_compare_products`), over F_p under `mod M`, and a cancelled one
    (on its sides less their common exponent part) or any other (under a
    `mod M` that F_p does not decide, or with a `values` source as in
    `evaluate`) on both folds run (`_compare_coefficients`).  A failure
    at i reports the residual lhs_i - rhs_i (mod M under `mod M`, as
    `_difference` reduces it) and both coefficients, read off both sides
    evaluated to q^i.  Evaluation is order-monotone, and every bound it
    checks holds at i if it held at the statement's order, so this is
    the report at that order.
    """
    n = order if order is not None else stmt.order
    start = time.perf_counter()
    plan = _plan(stmt, n, values)
    if plan[0] == "decided":
        i = _compare_products(plan[1], plan[2], n, stmt.modulus)
    else:
        i = _compare_coefficients(stmt, plan[1], plan[2])
    first = detail = None
    if i is not None:
        lhs, rhs = evaluate(stmt.lhs, i, values), evaluate(stmt.rhs, i, values)
        first = Failure(i, _difference(stmt, lhs, rhs)[i])
        detail = f"q^{i}: lhs={format_int(lhs[i])}, rhs={format_int(rhs[i])}"
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(stmt.label(), n, first is None, first, millis, detail)
