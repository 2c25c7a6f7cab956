"""Jet derivatives of orders 3 and 4 against sympy's exact derivatives.

Curvature reads fourth derivatives of a potential, and the jets are the
only code that computes them.  This oracle shares nothing with the jets:
random expressions from the manifest grammar are translated into sympy,
with z and z̄ as independent symbols (Wirtinger calculus), differentiated
exactly and evaluated at dyadic rational points, which floats hold
exactly.  A conj node becomes the expression's conjugate partner, built
alongside it, so conj(log w) = log(conj w) holds wherever the principal
branch is used off its cut.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from kahlercheck.expressions import (  # noqa: E402
    BinOp, Call, Imag, Neg, Num, Pow, Var, evaluate, max_variable,
)
from kahlercheck.jets import derivative, variable_jets  # noqa: E402

ORDER = 4
RELATIVE_TOL = 1e-10
# every subexpression stays this small at the point, and every log and division
# argument this far from zero (and a log's off its branch cut)
MAGNITUDE_CAP = 1e4
SINGULAR_GAP = 0.2

_dyadic = st.integers(-6, 6).map(lambda k: sp.Rational(k, 8))
_numbers = st.integers(0, 12).map(lambda k: Num(k / 4))
_variables = st.integers(0, 1).map(lambda k: Var("z", k))
# variables first and twice, so that most leaves are variables
_atoms = st.one_of(_variables, _numbers, _variables, st.just(Imag()))
_FUNCTIONS = ("conj", "abs2", "log", "exp")


@st.composite
def _asts(draw, depth=4):
    """A tree of two to ``depth`` operator levels, deep enough that most trees have
    derivatives of order 3 and 4; below the top two levels one node in five is a leaf."""
    if depth == 0 or (depth <= 2 and draw(st.integers(0, 4)) == 0):
        return draw(_atoms)
    kind = draw(st.sampled_from(("binop", "pow", "call", "neg")))
    if kind == "binop":
        return BinOp(draw(st.sampled_from("+-*/")), draw(_asts(depth - 1)), draw(_asts(depth - 1)))
    if kind == "pow":
        return Pow(draw(_asts(depth - 1)), draw(st.integers(1, 4)))
    if kind == "call":
        return Call(draw(st.sampled_from(_FUNCTIONS)), draw(_asts(depth - 1)))
    return Neg(draw(_asts(depth - 1)))


def to_sympy(node, zs, zbs):
    """(expression, its conjugate) in the independent symbols zs and zbs."""
    if isinstance(node, Num):
        value = sp.Rational(int(node.value * 4), 4)
        return value, value
    if isinstance(node, Imag):
        return sp.I, -sp.I
    if isinstance(node, Var):
        return zs[node.index], zbs[node.index]
    if isinstance(node, Neg):
        e, eb = to_sympy(node.arg, zs, zbs)
        return -e, -eb
    if isinstance(node, BinOp):
        (a, ab), (b, bb) = to_sympy(node.left, zs, zbs), to_sympy(node.right, zs, zbs)
        op = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
              "*": lambda x, y: x * y, "/": lambda x, y: x / y}[node.op]
        return op(a, b), op(ab, bb)
    if isinstance(node, Pow):
        e, eb = to_sympy(node.base, zs, zbs)
        return e**node.exponent, eb**node.exponent
    e, eb = to_sympy(node.arg, zs, zbs)
    if node.func == "conj":
        return eb, e
    if node.func == "abs2":
        return e * eb, e * eb
    if node.func == "log":
        return sp.log(e), sp.log(eb)
    return sp.exp(e), sp.exp(eb)


def _well_posed(node, point) -> bool:
    """Every subexpression is moderate at the point, and every log and division is regular."""
    if not all(_well_posed(child, point) for child in _children(node)):
        return False
    if isinstance(node, BinOp) and node.op == "/":
        if abs(complex(evaluate(node.right, point))) <= SINGULAR_GAP:
            return False
    if isinstance(node, Call) and node.func == "log":
        arg = complex(evaluate(node.arg, point))
        if abs(arg) <= SINGULAR_GAP or (arg.real <= 0 and abs(arg.imag) <= SINGULAR_GAP):
            return False
    with np.errstate(all="ignore"):
        value = complex(evaluate(node, point))
    return math.isfinite(abs(value)) and abs(value) <= MAGNITUDE_CAP


def _children(node) -> tuple:
    if isinstance(node, (Num, Imag, Var)):
        return ()
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return (node.base,) if isinstance(node, Pow) else (node.arg,)


def _exact_derivatives(expr, symbols, subs):
    """{multi-index over symbols: exact derivative at the point}, orders 3 and 4."""
    by_index = {(0,) * len(symbols): expr}
    for total in range(1, ORDER + 1):
        for index in itertools.product(range(ORDER + 1), repeat=len(symbols)):
            if sum(index) != total:
                continue
            slot = next(s for s, k in enumerate(index) if k)
            lower = index[:slot] + (index[slot] - 1,) + index[slot + 1:]
            by_index[index] = sp.diff(by_index[lower], symbols[slot])
    return {index: complex(sp.N(d.subs(subs), 30))
            for index, d in by_index.items() if sum(index) >= 3}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(node=_asts(), dim=st.integers(1, 2), coords=st.lists(st.tuples(_dyadic, _dyadic),
                                                          min_size=2, max_size=2))
def test_jet_derivatives_of_orders_three_and_four_match_sympy(node, dim, coords):
    assume(max_variable(node) < dim)
    point = [complex(re, im) for re, im in coords[:dim]]
    assume(_well_posed(node, point))
    zs = sp.symbols(f"z1:{dim + 1}")
    zbs = sp.symbols(f"zb1:{dim + 1}")
    subs = {}
    for (re, im), z, zb in zip(coords, zs, zbs):
        subs[z], subs[zb] = re + sp.I * im, re - sp.I * im
    expr, _ = to_sympy(node, zs, zbs)
    exact = _exact_derivatives(expr, zs + zbs, subs)
    largest = max(abs(v) for v in exact.values())
    assume(largest > 1e-9)  # a tree of degree below 3 has nothing to compare
    jet = evaluate(node, variable_jets(np.array(point), dim, ORDER))
    for index, want in exact.items():
        got = derivative(jet, index[:dim], index[dim:])
        assert abs(got - want) <= RELATIVE_TOL * (1.0 + largest), (index, got, want)


def test_oracle_sees_a_wrong_fourth_derivative():
    # the oracle is not vacuous: perturbing one order-4 coefficient is caught
    zs, zbs = sp.symbols("z1:2"), sp.symbols("zb1:2")
    node = Call("log", BinOp("+", Num(2.0), Call("abs2", Var("z", 0))))
    expr, _ = to_sympy(node, zs, zbs)
    subs = {zs[0]: sp.Rational(1, 4) + sp.I / 8, zbs[0]: sp.Rational(1, 4) - sp.I / 8}
    exact = _exact_derivatives(expr, zs + zbs, subs)
    jet = evaluate(node, variable_jets(np.array([0.25 + 0.125j]), 1, ORDER))
    assert abs(derivative(jet, (2,), (2,)) - exact[(2, 2)]) <= RELATIVE_TOL
    jet.coeffs[jet.space.index[(2, 2)]] *= 1 + 1e-8
    assert abs(derivative(jet, (2,), (2,)) - exact[(2, 2)]) > RELATIVE_TOL
