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

ASTs evaluate against either plain complex numbers or jets; the jet
path is what charts and maps use, the scalar path backs samplers and
the finite-difference oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import HolomorphyError, ParseError

FUNCTIONS = ("conj", "abs2", "log", "exp")
# deepest expression accepted: parenthesized or call levels while parsing, and
# operator levels of the tree, which evaluation and printing recurse over
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


_VAR_RE = re.compile(r"([zw])([0-9]+)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, val, at = self.peek()
        if kind != "op" or val != symbol:
            raise ParseError(f"expected {symbol!r}", position=at)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", position=at)
        if _scan(node)[0] > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", position=0)
        return node

    def expr(self) -> Node:
        # every nesting ('(' or a call) re-enters here
        self.level += 1
        if self.level > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels",
                             position=self.peek()[2])
        node = self._sum()
        self.level -= 1
        return node

    def _sum(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, at = self.advance()
            if kind != "number" or not val.isdigit():
                raise ParseError("exponent must be an unsigned integer", position=at)
            node = Pow(node, int(val))
        return node

    def atom(self) -> Node:
        kind, val, at = self.advance()
        if kind == "number":
            return Num(float(val))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "ident":
            if val == "i":
                return Imag()
            if val in FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Call(val, inner)
            m = _VAR_RE.match(val)
            if m:
                index = int(m.group(2))
                if index == 0:
                    raise ParseError("variables are numbered from 1", position=at)
                return Var(m.group(1), index - 1)
            raise ParseError(f"unknown name {val!r}", position=at)
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end of input",
                         position=at)


def parse(text: str) -> Node:
    """Parse expression text into an AST; raises :class:`ParseError`."""
    return _Parser(text).parse()


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


def _scan(node: Node) -> tuple[int, int, Call | None]:
    """Levels of the tree, its highest 0-based variable index (-1 if none) and its first
    conj/abs2 call in left-to-right preorder (None if none), in one pass without recursion."""
    depth, top, bad = 0, -1, None
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        if level > depth:
            depth = level
        kind = type(node)
        if kind is BinOp:
            stack.append((node.right, level + 1))
            stack.append((node.left, level + 1))
        elif kind is Var:
            if node.index > top:
                top = node.index
        elif kind is Call:
            if bad is None and node.func in ("conj", "abs2"):
                bad = node
            stack.append((node.arg, level + 1))
        elif kind is Neg:
            stack.append((node.arg, level + 1))
        elif kind is Pow:
            stack.append((node.base, level + 1))
    return depth, top, bad


def max_variable(node: Node) -> int:
    """Highest 0-based variable index used, or -1 if none."""
    return _scan(node)[1]


def _require_dimension(top: int, dim: int, label: str) -> None:
    if top >= dim:
        raise HolomorphyError(f"{label} uses variable {top + 1} but the chart has dimension {dim}")


def check_dimension(node: Node, dim: int, label: str = "expression") -> None:
    _require_dimension(max_variable(node), dim, label)


def check_holomorphic(node: Node, dim: int, label: str = "map component") -> None:
    """Syntactic holomorphy: conj/abs2 never appear in map components."""
    _, top, bad = _scan(node)
    if bad is not None:
        raise HolomorphyError(f"{label} must be holomorphic; {bad.func}() is not allowed")
    _require_dimension(top, dim, label)
