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
*, / and ^ and inside subs) on their scalars and exponent sequences a_n
of (1 - q^n), which it reads off without expanding; equal products are
equal series.  Any other statement with no `mod M` is compared on its
sides less their common exponent part: each side's top-level chain is a
scalar times an exponent part times an opaque rest, and the quotient of
the two exponent parts goes to one side only.  A statement under
`mod M` (M >= 2) is checked by expanding both sides and comparing their
coefficients modulo M from q^1 on.  Named functions come from the
memoized store, or from a caller's `values` source (the theorem suites'
corrupted tables), which has no eta form, so `check` compares
coefficients.  Every route finds the same first failure, residual and
coefficients.

Every maximal chain of *, / and ^ is folded into a scalar (its integer
literals), eta exponents (its named functions, under the store, and its
P(q^k; q^k) atoms), the Pochhammer factors of a `series.ProductForm` (its
other atoms) and the dense product of its other, opaque factors.  The
form's eta part joins the eta exponents, whose quotient is read from the
function store by key and multiplied by the dense product, or applied to
it in place; what is left of the form, (1 - q^n) binomials, is applied in
place.  A chain with no Pochhammer atom (every theorem suite's) builds no
form.  A power is folded into the exponents, or its chain expanded and
squared, whichever takes fewer kernel passes.  An extract takes the subs
factors of its argument's chain out (`_fold`'s `pull`).  `grow` walks the
statements as `check` evaluates them (`_read`) and grows each store table
they read once, to the largest order they read it at.
"""

from __future__ import annotations

import time
from collections import Counter
from operator import neg, sub
from typing import Iterable, NamedTuple, Optional, Union

from .functions import (
    ETA_QUOTIENTS,
    KEYS,
    MAX_DERIVED_KEYS,
    PartitionFunctionId,
    Values,
    eta_key,
    eta_series,
    function_value,
    gf_series,
    lebesgue_partial,
    stored,
)
from .record import Record
from .report import Failure, VerificationReport, format_int
from .series import (
    THETA_ETA,
    THETA_FAMILIES,
    EtaKey,
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
    expanded; a subs(A, +-q^(k*m)) factor of its chain is taken out as
    subs(A, +-q^k) at this order (`_fold`'s `pull`).  Named functions come
    from the store, or from `values` for every index 0..order when it is
    given.  Integer literals, Pochhammer atoms and every Mul/Div/Pow chain
    are folded by `_fold` and expanded by `_expand`.
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
        if not isinstance(expr.child, (Mul, Div, Subs)):
            return evaluate(expr.child, inner_order, values).extract(expr.m, expr.r)
        pulled: list[TruncatedSeries] = []  # its subs factors, at this order (see `_fold`)
        inner = _expand(*_fold(expr.child, inner_order, values, pull=(expr.m, pulled)), inner_order)
        out = inner.extract(expr.m, expr.r)
        for factor in pulled:
            out = out * factor
        return out
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
# (m, pulled) of an extract's argument: see `_fold`
_Pull = tuple[int, list[TruncatedSeries]]


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


def _nonzero(series: TruncatedSeries) -> int:
    return len(series) - series.coeffs.count(0)


def _reads_table(nonzero: Optional[int], eta: _Eta, order: int) -> bool:
    """Whether `_expand` reads an eta quotient's table from the store and
    multiplies a dense part with `nonzero` nonzero terms (None for no
    dense part) by it, rather than applying the quotient to the dense part
    in place: when the dense part has no more terms than the quotient's
    plan takes kernel passes."""
    return nonzero is None or nonzero <= eta_passes(eta, order)


def _expand(
    dense: Optional[TruncatedSeries], scalar: int, factors: _Factors, eta: _Eta, order: int
) -> TruncatedSeries:
    """dense (1 for None) times scalar times prod eta_k^e times the factors'
    product form.  The eta quotient (the form's included) is read from the
    store (`eta_series`) and multiplied by dense when `_reads_table` says
    so; otherwise it is applied to dense in place.  The form's (1 - q^n)
    binomials are applied in place last."""
    if not scalar:
        return TruncatedSeries.zero(order)
    eta, binomials = _split(factors, eta, order)
    if eta and _reads_table(None if dense is None else _nonzero(dense), eta, order):
        table = eta_series(eta_key(eta), order)
        dense, eta = (table if dense is None else table * dense), {}
    if dense is None or eta or binomials:
        acc = [1] + [0] * order if dense is None else list(dense.coeffs)
        _mul_eta_binomials(acc, eta, binomials)
        dense = TruncatedSeries(acc)
    return dense if scalar == 1 else dense * scalar


def _squarings(n: int) -> int:
    """Dense products that raising to the n-th power by squaring takes:
    about bit_length + popcount of |n|."""
    return abs(n).bit_length() + bin(n).count("1")


def _squares(factors: _Factors, eta: _Eta, n: int, order: int) -> bool:
    """Whether `_power` expands a chain and squares it for its n-th power:
    when n times the chain's kernel passes (its eta quotient's plan,
    `eta_passes`, and one per binomial) exceed what squaring the expanded
    chain costs, `_squarings(n)` dense products of `order` passes each."""
    if n <= 1:
        return False
    split_eta, binomials = _split(factors, eta, order)
    passes = eta_passes(split_eta, order) + sum(map(abs, binomials.values()))
    return n * passes > _squarings(n) * order


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
    unless `_squares` says to expand the chain and square it.  A deciding
    fold never squares."""
    if not decide and _squares(factors, eta, n, order):
        return _expand(dense, scalar, factors, eta, order) ** n, 1, {}, {}
    return (
        None if dense is None else dense**n,
        scalar**n,
        {key: e * n for key, e in factors.items()},
        {k: e * n for k, e in eta.items()},
    )


def _combine(factors: _Factors, eta: _Eta, other_factors: _Factors, other_eta: _Eta, sign: int) -> None:
    """Add sign times the other exponents to factors and eta, in place."""
    for exps, other_exps in ((factors, other_factors), (eta, other_eta)):
        for key, e in other_exps.items():
            exps[key] = exps.get(key, 0) + sign * e


def _table_key(factors: _Factors, eta: _Eta, order: int) -> EtaKey:
    """The store key that `_expand` reads for a chain with these exponents
    and no dense part: its eta quotient's, binomials aside."""
    return eta_key(_split(factors, eta, order)[0])


def _over(num: _Fold, den: _Fold) -> _Fold:
    """num with den's exponent part divided out; num's dense part and scalar stay."""
    factors, eta = dict(num[2]), dict(num[3])
    _combine(factors, eta, den[2], den[3], -1)
    return num[0], num[1], factors, eta


def _subs_atoms(factors: _Factors, eta: _Eta, sign: int, d: int) -> tuple[_Factors, _Eta]:
    """The factors and eta exponents of a product with q replaced by sign*q^d.

    P(s*q^a; q^b) becomes P(s*sign^a*q^(ad); sign^b*q^(bd)), and a base
    -Q = -q^(bd) splits by (x; -Q)_inf = (x; Q^2)_inf (-x*Q; Q^2)_inf.  So
    eta_k is eta_(kd), or, for odd k under -q^d, (-Q; -Q)_inf with Q = q^(kd),
    which is eta_(2kd)^3 / (eta_(kd) eta_(4kd)).
    """
    new_factors: _Factors = {}
    new_eta: _Eta = {}

    def add(exps: dict, key, e: int) -> None:
        exps[key] = exps.get(key, 0) + e

    for (s, a, b), e in factors.items():
        s *= sign ** (a % 2)
        if sign == 1 or b % 2 == 0:
            add(new_factors, (s, a * d, b * d), e)
        else:
            add(new_factors, (s, a * d, 2 * b * d), e)
            add(new_factors, (-s, (a + b) * d, 2 * b * d), e)
    for k, e in eta.items():
        if sign == 1 or k % 2 == 0:
            add(new_eta, k * d, e)
        else:
            add(new_eta, 2 * k * d, 3 * e)
            add(new_eta, k * d, -e)
            add(new_eta, 4 * k * d, -e)
    return new_factors, new_eta


def _fold(
    expr: ExprNode,
    order: int,
    values: Optional[Values],
    decide: bool = False,
    thetas: bool = False,
    pull: Optional[_Pull] = None,
) -> _Fold:
    """A Mul/Div/Pow chain as (dense, scalar, factors, eta): the product of
    its opaque factors (None for none), and the scalar, Pochhammer factors
    and eta exponents that `_expand` multiplies it by.  A P(q^k; q^k) atom is
    eta_k, and under the store (values None) a named function is its eta
    quotient; under a caller's `values` source it stays opaque.  Each opaque
    factor is evaluated once, left to right except that a divisor comes
    before its dividend; a divisor whose constant term is not +-1 raises
    EvalError once both are folded.

    A deciding fold (`decide`, for `check`, of a side `_is_product`
    accepts) expands nothing: powers fold into the exponents, a theta is
    its eta form (`THETA_ETA`), and a subs of a product is its product at
    +-q^d (`_subs_atoms`).  With `thetas` (`check`'s top-level chains), a
    theta with an eta form folds into the exponents too.

    `pull` = (m, pulled) folds an extract's argument: a factor
    subs(A, +-q^(k*m)) that is neither a divisor nor under a power is
    evaluated as subs(A, +-q^k) to order // m, appended to `pulled` and
    folds as 1, since extract(subs(A, +-q^(k*m)) * B, m, r) is
    subs(A, +-q^k) * extract(B, m, r).  A is evaluated to the same order
    either way, so it reads and raises as before."""
    if isinstance(expr, IntLiteral):
        return None, expr.value, {}, {}
    if isinstance(expr, Pochhammer):
        if expr.sign == 1 and expr.a == expr.b:
            return _power(None, 1, {}, {expr.a: 1}, expr.power, order, decide)
        return _power(None, 1, {(expr.sign, expr.a, expr.b): 1}, {}, expr.power, order, decide)
    if isinstance(expr, NamedFunction) and values is None:
        return None, 1, {}, dict(ETA_QUOTIENTS[expr.fid])
    if isinstance(expr, Mul):
        left, left_scalar, factors, eta = _fold(expr.left, order, values, decide, thetas, pull)
        right, right_scalar, right_factors, right_eta = _fold(expr.right, order, values, decide, thetas, pull)
        _combine(factors, eta, right_factors, right_eta, 1)
        dense = right if left is None else left if right is None else left * right
        return dense, left_scalar * right_scalar, factors, eta
    if isinstance(expr, Div):
        right, right_scalar, right_factors, right_eta = _fold(expr.right, order, values, decide, thetas)
        left, left_scalar, factors, eta = _fold(expr.left, order, values, decide, thetas, pull)
        c0 = right_scalar * (1 if right is None else right[0])  # every form and eta quotient has constant term 1
        if c0 not in (1, -1):
            message = f"cannot invert series with constant term {format_int(c0)}"
            raise EvalError(message, print_expr(expr.right))
        _combine(factors, eta, right_factors, right_eta, -1)
        if right is not None:
            left = (TruncatedSeries.one(order) if left is None else left) / right
        return left, left_scalar * right_scalar, factors, eta
    if isinstance(expr, Pow):
        return _power(*_fold(expr.base, order, values, decide, thetas), expr.exponent, order, decide)
    if isinstance(expr, Theta) and (decide or thetas) and expr.family in THETA_ETA:
        return None, 1, {}, dict(THETA_ETA[expr.family])
    if isinstance(expr, Subs):
        if decide:
            _, scalar, factors, eta = _fold(expr.child, order, values, decide=True)
            return (None, scalar, *_subs_atoms(factors, eta, expr.sign, expr.d))
        if pull is not None and expr.d % pull[0] == 0:
            m, pulled = pull
            pulled.append(evaluate(Subs(expr.child, expr.sign, expr.d // m), order // m, values))
            return None, 1, {}, {}
    return evaluate(expr, order, values), 1, {}, {}


# A chain as `_read_fold` sees it: (opaque, factors, eta), where opaque holds
# the factors that `_fold` evaluates, the product of which is its dense part.
_ReadFold = tuple[tuple[ExprNode, ...], _Factors, _Eta]


def _read(expr: ExprNode, n: int, reads: dict[EtaKey, int]) -> None:
    """Record in `reads` each store key that `evaluate(expr, n)` reads, at
    the largest order it is read at, walking expr as `evaluate` does
    without expanding anything."""
    if isinstance(expr, NamedFunction):
        key = KEYS[expr.fid]
        reads[key] = max(reads.get(key, 0), n)
    elif isinstance(expr, (Add, Sub)):
        _read(expr.left, n, reads)
        _read(expr.right, n, reads)
    elif isinstance(expr, Subs):
        _read(expr.child, n // expr.d, reads)
    elif isinstance(expr, Extract):
        inner = expr.m * n + expr.r
        if inner > MAX_ORDER:  # evaluate raises before it reads anything
            return
        if isinstance(expr.child, (Mul, Div, Subs)):
            _read_expand(_read_fold(expr.child, inner, reads, pull=expr.m), inner, reads)
        else:
            _read(expr.child, inner, reads)
    elif isinstance(expr, (IntLiteral, Pochhammer, Mul, Div, Pow)):
        _read_expand(_read_fold(expr, n, reads), n, reads)


def _read_fold(
    expr: ExprNode, n: int, reads: dict[EtaKey, int], thetas: bool = False, pull: Optional[int] = None
) -> _ReadFold:
    """`_fold` of a chain to q^n (with its `thetas` and an extract's modulus
    as `pull`), without evaluating it: each opaque factor and pulled subs is
    walked by `_read` instead.  A quotient by an opaque factor, and a power
    of one other than the first, stands in the opaque part as its own node,
    as does a power that `_power` expands and squares."""
    if isinstance(expr, IntLiteral):
        return (), {}, {}
    if isinstance(expr, NamedFunction):
        return (), {}, dict(ETA_QUOTIENTS[expr.fid])
    if isinstance(expr, (Mul, Div)):
        sign = 1 if isinstance(expr, Mul) else -1
        left, factors, eta = _read_fold(expr.left, n, reads, thetas, pull)
        right, right_factors, right_eta = _read_fold(expr.right, n, reads, thetas, pull if sign == 1 else None)
        _combine(factors, eta, right_factors, right_eta, sign)
        return (left + right if sign == 1 or not right else (expr,)), factors, eta
    if isinstance(expr, (Pochhammer, Pow)):
        if isinstance(expr, Pow):
            base, k = _read_fold(expr.base, n, reads, thetas), expr.exponent
        elif expr.sign == 1 and expr.a == expr.b:
            base, k = ((), {}, {expr.a: 1}), expr.power
        else:
            base, k = ((), {(expr.sign, expr.a, expr.b): 1}, {}), expr.power
        opaque, factors, eta = base
        if _squares(factors, eta, k, n):
            _read_expand(base, n, reads)
            return (expr,), {}, {}
        opaque = opaque if k == 1 or not opaque else (expr,)
        return opaque, {key: e * k for key, e in factors.items()}, {i: e * k for i, e in eta.items()}
    if isinstance(expr, Theta) and thetas and expr.family in THETA_ETA:
        return (), {}, dict(THETA_ETA[expr.family])
    if isinstance(expr, Subs) and pull is not None and expr.d % pull == 0:
        _read(Subs(expr.child, expr.sign, expr.d // pull), n // pull, reads)
        return (), {}, {}
    _read(expr, n, reads)
    return (expr,), {}, {}


def _read_expand(fold: _ReadFold, n: int, reads: dict[EtaKey, int]) -> None:
    """Record the key of the chain's eta quotient when `_expand` reads it
    from the store (`_reads_table`).  A dense part is taken as dense unless
    it is one theta, whose terms are counted."""
    opaque, factors, eta = fold
    eta, _ = _split(factors, eta, n)
    if not eta:
        return
    nonzero = None
    if opaque:
        if len(opaque) > 1 or not isinstance(opaque[0], Theta):
            return
        nonzero = _nonzero(theta_series(THETA_FAMILIES[opaque[0].family], n))
    if _reads_table(nonzero, eta, n):
        key = eta_key(eta)
        reads[key] = max(reads.get(key, 0), n)


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
    (`THETA_ETA`), under *, / and ^ and inside subs."""
    if isinstance(expr, (Mul, Div)):
        return _is_product(expr.left) and _is_product(expr.right)
    if isinstance(expr, Pow):
        return _is_product(expr.base)
    if isinstance(expr, Subs):
        return _is_product(expr.child)
    if isinstance(expr, Theta):
        return expr.family in THETA_ETA
    return isinstance(expr, (IntLiteral, Pochhammer, NamedFunction))


def expands(stmt: IdentityStatement) -> bool:
    """Whether `check` expands the statement rather than deciding it: under
    `mod M`, or when a side has an opaque factor."""
    return stmt.modulus is not None or not (_is_product(stmt.lhs) and _is_product(stmt.rhs))


# the function that names each store key (pood and p2 share one)
_NAMES = {key: fid for fid, key in KEYS.items()}


def grow(statements: Iterable[IdentityStatement], order: Optional[int] = None) -> None:
    """Grow each store table that `check` reads for the statements, at
    `order` (each at its own for None), once, to the largest order at which
    it is read.  The walk (`_read`) follows the form that `check` evaluates:
    a decided statement reads nothing, and a cancelled one
    (`_compare_cancelled`) reads what its opaque rests read, and its
    quotient's table only where `_expand` would.  A product side's table
    is grown when two statements want it or another read grows it anyway;
    then `check` reads it there.  Derived keys (a chain's eta quotient)
    are grown only when the store keeps them all (MAX_DERIVED_KEYS)."""
    reads: dict[EtaKey, int] = {}
    wanted: list[tuple[EtaKey, int, _ReadFold]] = []  # a product side's quotient, and the fold of the other side
    for stmt in statements:
        n = stmt.order if order is None else order
        if stmt.modulus is not None:
            _read(stmt.lhs, n, reads)
            _read(stmt.rhs, n, reads)
        elif expands(stmt):
            left = _read_fold(stmt.lhs, n, reads, thetas=True)
            right = _read_fold(stmt.rhs, n, reads, thetas=True)
            (opaque, factors, eta), (other_opaque, other_factors, other_eta) = (
                (right, left) if left[0] and not right[0] else (left, right)
            )
            _combine(factors, eta, other_factors, other_eta, -1)
            if opaque:  # neither side is a product
                _read_expand((opaque, factors, eta), n, reads)
            else:
                dense_side = (other_opaque, {key: -e for key, e in factors.items()}, {k: -e for k, e in eta.items()})
                wanted.append((_table_key(factors, eta, n), n, dense_side))
    # a product side's table is grown when two statements want it or another
    # read grows it anyway; otherwise its quotient goes to the other side
    wants = Counter(key for key, _, _ in wanted)
    for key, n, dense_side in wanted:
        if key and (wants[key] > 1 or reads.get(key, -1) >= n):
            reads[key] = max(reads.get(key, 0), n)
        else:
            _read_expand(dense_side, n, reads)
    derived = len([key for key in reads if key not in _NAMES])
    for key, n in reads.items():
        if key in _NAMES:
            function_value(_NAMES[key], n)
        elif derived <= MAX_DERIVED_KEYS:
            eta_series(key, n)


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
    """[q^n] of a fold's product (its dense part cut at q^n), expanded to
    q^n alone and with no store read.  An eta_k^e is raised to its power by
    squaring when that takes fewer kernel passes than its plan
    (`eta_passes`), and a (1 - q^m)^e when that takes fewer than |e|; the
    rest are applied in place, the eta_k by their joint plan."""
    dense, scalar, factors, eta = fold
    eta, binomials = _split(factors, eta, n)
    one = TruncatedSeries.one(n)
    squared = one if dense is None else dense.truncate(n)
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


def _compare_cancelled(stmt: IdentityStatement, n: int) -> Optional[tuple[int, int, int, int]]:
    """(i, residual, lhs_i, rhs_i) at the first difference to q^n of a
    statement with no `mod M` that is not decided, or None when there is
    none.  Each side folds (`_fold` with `thetas`) to s*Q*O: a scalar, an
    exponent part Q (named functions, Pochhammer atoms and eta-form
    thetas) and the opaque rest O.  The quotient Q_L/Q_R goes to one side
    and the other keeps s*O alone.  A side that is a product (O is 1)
    takes it when the store holds its table already, which it then reads;
    otherwise a side with an opaque rest takes it, the left if it has one,
    and `_expand` applies it there in place (or by its table when the rest
    is sparse).  So no table is built that a product side alone would read.
    Q_L and Q_R are 1 + O(q), so the first difference and the residual
    there are the statement's own; only there are the sides' folds
    expanded in full (`_coefficient`), to q^i."""
    left = _fold(stmt.lhs, n, None, thetas=True)
    right = _fold(stmt.rhs, n, None, thetas=True)
    to_right = left[0] is None
    if left[0] is None or right[0] is None:
        product, dense = (left, right) if to_right else (right, left)
        quotient = _over(product, dense)
        to_right ^= stored(_table_key(quotient[2], quotient[3], n), n)
    if to_right:
        lhs, rhs = _expand(left[0], left[1], {}, {}, n), _expand(*_over(right, left), n)
    else:
        lhs, rhs = _expand(*_over(left, right), n), _expand(right[0], right[1], {}, {}, n)
    diff = list(map(sub, lhs.coeffs, rhs.coeffs))
    i = next((i for i, r in enumerate(diff) if r), None)
    return None if i is None else (i, diff[i], _coefficient(left, i), _coefficient(right, i))


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
    decided on their scalars and exponent sequences with no expansion.
    Any other statement with no `mod M` is compared on its sides less their
    common exponent part (`_compare_cancelled`).  Under `mod M`, and always
    with a `values` source (as in `evaluate`), both sides are evaluated and
    compared coefficientwise.  A failure records the first differing
    exponent, the residual there and both coefficients; every route finds
    the same ones.
    """
    n = order if order is not None else stmt.order
    start = time.perf_counter()
    if values is not None or stmt.modulus is not None:
        failure = _compare_coefficients(stmt, n, values)
    elif (folds := _product_folds(stmt)) is not None:
        failure = _compare_products(*folds, n)
    else:
        failure = _compare_cancelled(stmt, n)
    first = detail = None
    if failure is not None:
        i, residual, lhs_i, rhs_i = failure
        first = Failure(i, residual)
        detail = f"q^{i}: lhs={format_int(lhs_i)}, rhs={format_int(rhs_i)}"
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(stmt.label(), n, first is None, first, millis, detail)
