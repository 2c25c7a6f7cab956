"""Expression grammar for chart potentials, metric entries, and map components.

Grammar (whitespace insignificant)::

    expr   := '-'? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := number | 'i' | var | func '(' expr ')' | '(' expr ')'
    func   := 'conj' | 'abs2' | 'log' | 'exp'
    var    := 'z' uint | 'w' uint

Variables are 1-based in text (``z1``), 0-based in the AST.  The two
letters are interchangeable spellings of the same coordinate slot, so a
target chart written in ``w`` and a domain chart written in ``z`` both
evaluate against the same positional inputs.

One parser reads the grammar and hands each piece to a builder, so both
readings of a text share its tokens, error messages and positions.
:func:`parse` builds an AST, which evaluates against either plain
complex numbers or jets; the jet path is what charts and non-polynomial
maps use, the scalar path backs samplers and the finite-difference
oracle.  :func:`polynomial` expands a text into its monomials
``{exponent tuple: coefficient}`` in the same pass, or gives None when
the text is not a polynomial; a polynomial map's jets come from its
monomials in closed form (see :func:`~kahlercheck.jets.polynomial_jets`).
The variables a text uses and its first conj/abs2 call are read off the
parse itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, HolomorphyError, ParseError
from .jets import MAX_HOLOMORPHIC_VARS

FUNCTIONS = ("conj", "abs2", "log", "exp")
# deepest expression accepted: parenthesized or call levels while parsing, and for an AST
# the operator levels of the tree, which evaluation and printing recurse over
MAX_NESTING = 100


# -- AST -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Var:
    letter: str  # 'z' or 'w', kept for faithful printing
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Imag, Var, Neg, BinOp, Pow, Call]


# -- lexer ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    """The tokens of ``text`` as (kind, text, position), ending in ("end", "", len(text))."""
    pos = 0
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # finditer skipped a character no token starts with
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", position=pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _token_texts(text: str) -> list[str]:
    """The texts of :func:`_tokenize`'s tokens, ending in ""; their kinds are read off their
    first character, and their positions are found only for an error."""
    tokens = list(map("".join, _TOKEN_RE.findall(text)))  # one group of each match is set
    if "".join(tokens) != "".join(text.split()):  # a character no token starts with
        _tokenize(text)  # raises with its position
    tokens.append("")
    return tokens


_VAR_RE = re.compile(r"([zw])([0-9]+)$")


class _Parser:
    """The grammar over one text's tokens; ``builder`` makes the value of each piece.

    Besides the value, a parse reads the highest 0-based variable index
    (``top``, -1 if none) and the first conj/abs2 call (``bad``, None if
    none): the first in the text is the first in the tree's preorder.
    """

    def __init__(self, text: str, builder):
        self.text = text
        self.tokens = _token_texts(text)
        self.builder = builder
        self.pos = 0
        self.level = 0
        self.top = -1
        self.bad: str | None = None

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, position=_tokenize(self.text)[index][2])

    def expect_op(self, symbol: str):
        if self.tokens[self.pos] != symbol:
            raise self.error(f"expected {symbol!r}", self.pos)
        self.pos += 1

    def parse(self):
        value = self.expr()
        token = self.tokens[self.pos]
        if token:
            raise self.error(f"trailing input {token!r}", self.pos)
        return value

    def expr(self):
        # every nesting ('(' or a call) re-enters here
        self.level += 1
        if self.level > MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels", self.pos)
        tokens, binary = self.tokens, self.builder.binary
        if tokens[self.pos] == "-":
            self.pos += 1
            value = self.builder.neg(self.term())
        else:
            value = self.term()
        while True:
            token = tokens[self.pos]
            if token != "+" and token != "-":
                self.level -= 1
                return value
            self.pos += 1
            value = binary(token, value, self.term())

    def term(self):
        tokens, binary = self.tokens, self.builder.binary
        value = self.factor()
        while True:
            token = tokens[self.pos]
            if token != "*" and token != "/":
                return value
            self.pos += 1
            value = binary(token, value, self.factor())

    def factor(self):
        tokens = self.tokens
        token = tokens[self.pos]
        self.pos += 1
        first = token[:1]
        if first.isdigit() or first == ".":
            number = float(token)
            if number == math.inf:  # would print as 'inf', which does not reparse
                raise self.error(f"number {token} is too large", self.pos - 1)
            value = self.builder.number(number)
        elif first.isalpha():
            value = self.named(token)
        elif token == "(":
            value = self.expr()
            self.expect_op(")")
        else:
            raise self.error(f"expected a value, got {token!r}" if token
                             else "unexpected end of input", self.pos - 1)
        if tokens[self.pos] == "^":
            exponent = tokens[self.pos + 1]
            self.pos += 2
            if not exponent.isdigit():
                raise self.error("exponent must be an unsigned integer", self.pos - 1)
            value = self.builder.power(value, int(exponent))
        return value

    def named(self, name: str):
        if name == "i":
            return self.builder.imag()
        if name in FUNCTIONS:
            if self.bad is None and name in ("conj", "abs2"):
                self.bad = name
            self.expect_op("(")
            inner = self.expr()
            self.expect_op(")")
            return self.builder.call(name, inner)
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(2)) - 1
            if index < 0:
                raise self.error("variables are numbered from 1", self.pos - 1)
            if index > self.top:
                self.top = index
            return self.builder.variable(m.group(1), index)
        raise self.error(f"unknown name {name!r}", self.pos - 1)


class _TreeBuilder:
    """Builds AST nodes, each paired with its number of tree levels."""

    @staticmethod
    def number(value):
        return Num(value), 1

    @staticmethod
    def imag():
        return Imag(), 1

    @staticmethod
    def variable(letter, index):
        return Var(letter, index), 1

    @staticmethod
    def neg(arg):
        return Neg(arg[0]), arg[1] + 1

    @staticmethod
    def binary(op, left, right):
        return BinOp(op, left[0], right[0]), max(left[1], right[1]) + 1

    @staticmethod
    def power(base, exponent):
        return Pow(base[0], exponent), base[1] + 1

    @staticmethod
    def call(func, arg):
        return Call(func, arg[0]), arg[1] + 1


def _read(text: str) -> tuple[Node, int, str | None]:
    """The AST of ``text``, its highest 0-based variable index and its first conj/abs2 call."""
    parser = _Parser(text, _TreeBuilder)
    node, depth = parser.parse()
    if depth > MAX_NESTING:  # evaluation and printing recurse over the tree's levels
        raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", position=0)
    return node, parser.top, parser.bad


def parse(text: str) -> Node:
    """Parse expression text into an AST; raises :class:`ParseError`."""
    return _read(text)[0]


# -- monomials -------------------------------------------------------------------------

# The monomial reading gives up, and the text stays a tree, once any step of its expansion
# holds more than MAX_MONOMIALS monomials or passes degree MAX_DEGREE.  A product's
# expansion costs up to the product of its factors' counts, and the count of a power of a
# sum grows like its degree to the number of variables: (1 + z1 + z2)^300 has 45451
# monomials, while its tree takes nine jet multiplies.  The count cap leaves room for every
# monomial of degree <= 5 in 4 variables (126).  The degree cap bounds the rounding that
# expanding adds: the terms of (a + b)^d sum to (|a| + |b|)^d in magnitude, however small
# the value, and the rounding of that sum grows with d.
MAX_MONOMIALS = 256
MAX_DEGREE = 16
# a monomial is the integer Σ_k e_k·B^(k+1) + degree in base B, so a product of monomials
# is the sum of their keys: no digit can carry while every degree stays within the cap
_BASE = MAX_DEGREE + 1


class _NotPolynomial(Exception):
    """The text leaves what :func:`polynomial` expands."""


def _degree(poly: dict) -> int:
    return max(key % _BASE for key in poly)


def _is_constant(poly: dict) -> bool:
    return len(poly) == 1 and 0 in poly


def _capped(poly: dict) -> dict:
    if len(poly) > MAX_MONOMIALS:
        raise _NotPolynomial
    return poly


def _product(left: dict, right: dict) -> dict:
    if _is_constant(right):
        c = right[0]
        return {key: value * c for key, value in left.items()}
    if _is_constant(left):
        c = left[0]
        return {key: c * value for key, value in right.items()}
    if _degree(left) + _degree(right) > MAX_DEGREE:
        raise _NotPolynomial
    out: dict = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = ka + kb
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return _capped(out)


class _MonomialBuilder:
    """Expands into ``{monomial key: coefficient}``; constants fold as the tree's scalars do.

    A division by a constant zero is recorded and the parse goes on, so a later
    grammar error is still the one reported.
    """

    def __init__(self):
        self.divides_by_zero = False

    @staticmethod
    def number(value):
        return {0: value}

    @staticmethod
    def imag():
        return {0: 1j}

    @staticmethod
    def variable(letter, index):
        if index >= MAX_HOLOMORPHIC_VARS:  # no chart has it, and its key would be huge
            raise _NotPolynomial
        return {_BASE ** (index + 1) + 1: 1.0}

    @staticmethod
    def neg(arg):
        return {key: -c for key, c in arg.items()}

    def binary(self, op, left, right):
        if op == "*":
            return _product(left, right)
        if op == "/":
            if not _is_constant(right):
                raise _NotPolynomial
            divisor = right[0]
            if divisor == 0:
                self.divides_by_zero = True
                return left
            if _is_constant(left):
                return {0: left[0] / divisor}
            inverse = 1.0 / divisor  # a jet divides by a scalar so
            return {key: c * inverse for key, c in left.items()}
        # every value a parse builds is its own fresh dict, so the sum may grow ``left``
        for key, c in right.items():
            if key in left:
                left[key] = left[key] + c if op == "+" else left[key] - c
            else:
                left[key] = c if op == "+" else -c
        return _capped(left)

    @staticmethod
    def power(base, exponent):
        if exponent == 0:
            return {0: 1.0}
        if _is_constant(base):
            return {0: base[0] ** exponent}
        if _degree(base) * exponent > MAX_DEGREE:
            raise _NotPolynomial
        # square-and-multiply, the product started from its first factor
        result = None
        while True:
            if exponent & 1:
                result = base if result is None else _product(result, base)
            exponent >>= 1
            if not exponent:
                return result
            base = _product(base, base)

    @staticmethod
    def call(func, arg):
        raise _NotPolynomial


def _exponents(key: int, count: int) -> tuple[int, ...]:
    key //= _BASE
    out = []
    for _ in range(count):
        key, e = divmod(key, _BASE)
        out.append(e)
    return tuple(out)


def polynomial(text: str, label: str = "expression") -> dict[tuple[int, ...], complex] | None:
    """The monomials of ``text`` as ``{exponent tuple: coefficient}``, or None if it is not
    a polynomial within the caps.

    Each exponent tuple has one entry per variable up to the highest the
    text names (``()`` for a constant).  None when the text uses conj,
    abs2, log or exp, divides by a non-constant, names a variable past
    ``jets.MAX_HOLOMORPHIC_VARS``, or its expansion passes
    ``MAX_MONOMIALS`` or ``MAX_DEGREE`` at any step.  Only parenthesis and
    call nesting count toward ``MAX_NESTING``: no tree is built.  Raises
    :class:`ParseError` as :func:`parse` does, and a
    :class:`ConfigurationError` naming ``label`` and the text when it
    divides by zero.
    """
    parser = _Parser(text, _MonomialBuilder())
    try:
        terms = parser.parse()
    except _NotPolynomial:
        return None
    if parser.builder.divides_by_zero:
        raise ConfigurationError(f"{label} {text!r} divides by zero")
    return {_exponents(key, parser.top + 1): complex(c) for key, c in terms.items()}


# -- printer -------------------------------------------------------------------------

# precedence: additive 1, multiplicative 2, power 4, atom 5.  A leading
# '-' is only legal at the head of an expression, so Neg ranks with the
# additive level: any tighter context forces parentheses around it.
def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2
    if isinstance(node, Neg):
        return 1
    if isinstance(node, Pow):
        return 4
    return 5


def _wrap(node: Node, minimum: int) -> str:
    text = to_text(node)
    return f"({text})" if _prec(node) < minimum else text


def to_text(node: Node) -> str:
    """Render an AST to text that reparses to an identical AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return f"{node.letter}{node.index + 1}"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 5)}^{node.exponent}"
    if isinstance(node, Neg):
        # a leading '-' binds a whole term, so anything looser than a
        # term must be parenthesized to survive the round trip
        return f"-{_wrap(node.arg, 2)}"
    if isinstance(node, BinOp):
        left = _wrap(node.left, _prec(node))
        # grammar is left-associative; equal precedence on the right
        # must reparenthesize, and the right operand of '-'/'/' too
        right = _wrap(node.right, _prec(node) + 1)
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ------------------------------------------------------------------------


def evaluate(node: Node, inputs: Sequence):
    """Evaluate against positional inputs (jets or complex scalars)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Imag):
        return 1j
    if isinstance(node, Var):
        if node.index >= len(inputs):
            raise HolomorphyError(
                f"variable {node.letter}{node.index + 1} exceeds dimension {len(inputs)}"
            )
        return inputs[node.index]
    if isinstance(node, Neg):
        return -evaluate(node.arg, inputs)
    if isinstance(node, BinOp):
        left = evaluate(node.left, inputs)
        right = evaluate(node.right, inputs)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return evaluate(node.base, inputs) ** node.exponent
    if isinstance(node, Call):
        arg = evaluate(node.arg, inputs)
        if node.func == "conj":
            return arg.conj() if hasattr(arg, "conj") else np.conj(arg)
        if node.func == "abs2":
            conj = arg.conj() if hasattr(arg, "conj") else np.conj(arg)
            return arg * conj
        if node.func == "log":
            return arg.log() if hasattr(arg, "log") else np.log(arg)
        return arg.exp() if hasattr(arg, "exp") else np.exp(arg)
    raise TypeError(f"not an AST node: {node!r}")


# -- static validation --------------------------------------------------------------------


def _scan(node: Node) -> tuple[int, str | None]:
    """An AST's highest 0-based variable index (-1 if none) and its first conj/abs2 call in
    left-to-right preorder (None if none), in one pass without recursion.  A parsed text
    reads both off its parse; this walk serves ASTs built directly."""
    top, bad = -1, None
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is BinOp:
            stack.append(node.right)
            stack.append(node.left)
        elif kind is Var:
            if node.index > top:
                top = node.index
        elif kind is Call:
            if bad is None and node.func in ("conj", "abs2"):
                bad = node.func
            stack.append(node.arg)
        elif kind is Neg:
            stack.append(node.arg)
        elif kind is Pow:
            stack.append(node.base)
    return top, bad


def max_variable(node: Node) -> int:
    """Highest 0-based variable index used, or -1 if none."""
    return _scan(node)[0]


def require_dimension(top: int, dim: int, label: str) -> None:
    """Reject a highest 0-based variable index ``top`` beyond a chart of dimension ``dim``."""
    if top >= dim:
        raise HolomorphyError(f"{label} uses variable {top + 1} but the chart has dimension {dim}")


def checked(source, dim: int, label: str, holomorphic: bool = False) -> Node:
    """The AST of expression text (or an AST), its variables within ``dim``; with
    ``holomorphic``, also free of conj/abs2 (syntactic holomorphy of a map component)."""
    if isinstance(source, str):
        node, top, bad = _read(source)
    else:
        node, (top, bad) = source, _scan(source)
    if holomorphic and bad is not None:
        raise HolomorphyError(f"{label} must be holomorphic; {bad}() is not allowed")
    require_dimension(top, dim, label)
    return node


def check_dimension(node: Node, dim: int, label: str = "expression") -> None:
    checked(node, dim, label)


def check_holomorphic(node: Node, dim: int, label: str = "map component") -> None:
    """Syntactic holomorphy: conj/abs2 never appear in map components."""
    checked(node, dim, label, holomorphic=True)
