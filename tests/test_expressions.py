"""Parser, printer, and evaluator tests for the expression grammar."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck.errors import ConfigurationError, HolomorphyError, ParseError
from kahlercheck import expressions
from kahlercheck.expressions import (
    BinOp,
    Call,
    Imag,
    Neg,
    Num,
    Pow,
    Var,
    check_dimension,
    check_holomorphic,
    evaluate,
    max_variable,
    parse,
    polynomial,
    to_text,
)
from kahlercheck.jets import variable_jets


# -- parse shapes ------------------------------------------------------------


def test_precedence_chain():
    node = parse("1 + 2 * 3^2")
    assert node == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Pow(Num(3.0), 2)))


def test_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("8 / 4 / 2") == BinOp("/", BinOp("/", Num(8.0), Num(4.0)), Num(2.0))


def test_leading_minus_binds_one_term():
    assert parse("-z1 + z2") == BinOp("+", Neg(Var("z", 0)), Var("z", 1))
    assert parse("-z1 * z2") == Neg(BinOp("*", Var("z", 0), Var("z", 1)))
    assert parse("-(z1 + z2)") == Neg(BinOp("+", Var("z", 0), Var("z", 1)))


def test_variables_one_based_text_zero_based_ast():
    assert parse("z1") == Var("z", 0)
    assert parse("w3") == Var("w", 2)


def test_functions_and_imaginary_unit():
    assert parse("conj(z1)") == Call("conj", Var("z", 0))
    assert parse("abs2(w2)") == Call("abs2", Var("w", 1))
    assert parse("log(exp(i))") == Call("log", Call("exp", Imag()))


def test_scientific_notation_numbers():
    assert parse("2.5e-3") == Num(0.0025)
    assert parse("1e+2") == Num(100.0)


@pytest.mark.parametrize(
    "bad",
    [
        "z0",  # variables start at 1
        "q1",  # unknown name
        "sin(z1)",  # unsupported function
        "(z1",  # unclosed paren
        "z1 +",  # dangling operator
        "z1 ^ -2",  # exponent must be unsigned
        "z1 ^ 2.5",  # exponent must be an integer
        "z1 z2",  # missing operator
        "1 + + 2",  # '-' is the only unary prefix, and only at a head
        "2 ^ 3 ^ 2",  # no power chaining
        "",
        "#",
        "1e999*z1",  # a literal that overflows would print as 'inf'
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("z1 + q7")
    assert exc.value.position == 5
    with pytest.raises(ParseError, match="too large") as exc:
        parse("z1 + 2e400*z2")
    assert exc.value.position == 5


# -- evaluation --------------------------------------------------------------


def test_scalar_evaluation():
    node = parse("(1 - abs2(z1))^2 / 4")
    got = evaluate(node, [0.5 + 0.5j])
    assert got == pytest.approx((1 - 0.5) ** 2 / 4)


def test_imaginary_unit_squares_to_minus_one():
    assert evaluate(parse("i^2"), []) == pytest.approx(-1.0)


def test_conj_on_scalars():
    got = evaluate(parse("conj(z1) * z1"), [2.0 - 1.0j])
    assert got == pytest.approx(5.0)


def test_jet_evaluation_matches_manual_series():
    # -log(1 - abs2(z1)) has mixed coefficient table 1, 1/2 at the two
    # lowest diagonal monomials when expanded about the origin
    jets = variable_jets([0.0], num_vars=1, order=4)
    node = parse("-log(1 - abs2(z1))")
    pot = evaluate(node, jets)
    z = jets[0]
    direct = -(1.0 - z * z.conj()).log()
    np.testing.assert_allclose(pot.coeffs, direct.coeffs, atol=1e-14)


def test_scalar_and_jet_paths_agree():
    exprs = [
        "z1 * conj(z2) + exp(z1)",
        "abs2(z1 + i * z2)",
        "(2 + z1)^3 / (4 - abs2(z2))",
        "log(2 + z1 + conj(z1))",
    ]
    rng = np.random.default_rng(7)
    for text in exprs:
        node = parse(text)
        for _ in range(5):
            point = rng.normal(size=2, scale=0.3) + 1j * rng.normal(size=2, scale=0.3)
            jets = variable_jets(point, num_vars=2, order=3)
            got = evaluate(node, jets).value
            want = evaluate(node, list(point))
            assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_variable_beyond_inputs_rejected():
    with pytest.raises(HolomorphyError):
        evaluate(parse("z3"), [1.0, 2.0])


# -- validation --------------------------------------------------------------


def test_map_components_must_be_holomorphic():
    check_holomorphic(parse("z1^2 + i * z2"), dim=2)
    with pytest.raises(HolomorphyError):
        check_holomorphic(parse("conj(z1)"), dim=1)
    with pytest.raises(HolomorphyError):
        check_holomorphic(parse("abs2(z1) + z2"), dim=2)


def test_dimension_check():
    check_dimension(parse("z1 + z2"), dim=2)
    with pytest.raises(HolomorphyError):
        check_dimension(parse("z1 + z4"), dim=2)
    assert max_variable(parse("3.5")) == -1
    assert max_variable(parse("z2 * w3")) == 2


# -- print/parse round trip ---------------------------------------------------

_numbers = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs).map(Num)
_variables = st.tuples(st.sampled_from("zw"), st.integers(0, 3)).map(lambda t: Var(*t))
_atoms = st.one_of(_numbers, _variables, st.just(Imag()))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, st.integers(0, 6)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["conj", "abs2", "log", "exp"]), children).map(
            lambda t: Call(*t)
        ),
        children.map(Neg),
    )


_asts = st.recursive(_atoms, _extend, max_leaves=25)


@settings(max_examples=1000, derandomize=True)
@given(_asts)
def test_print_parse_round_trip(node):
    assert parse(to_text(node)) == node


def test_nesting_limit_raises_parse_error():
    from kahlercheck.expressions import MAX_NESTING

    assert parse("(" * 50 + "z1" + ")" * 50) == Var("z", 0)
    assert parse("exp(" * 50 + "z1" + ")" * 50) is not None
    for text in ("(" * 3000 + "z1" + ")" * 3000,
                 "log(" * (MAX_NESTING + 1) + "z1" + ")" * (MAX_NESTING + 1),
                 " + ".join(["z1"] * 3000)):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)


# -- the former tokenizer and tree walks, kept as references ---------------------------


def tokenize_by_match(text: str):
    """The tokenizer before ``finditer``: one anchored match per token."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = expressions._TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", position=pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def children(node) -> tuple:
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    return ()


def walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def walked_depth(node) -> int:
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(node))
    return deepest


def walked_max_variable(node) -> int:
    return max((n.index for n in walk(node) if isinstance(n, Var)), default=-1)


def walked_check_holomorphic(node, dim, label="map component"):
    for sub in walk(node):
        if isinstance(sub, Call) and sub.func in ("conj", "abs2"):
            raise HolomorphyError(f"{label} must be holomorphic; {sub.func}() is not allowed")
    top = walked_max_variable(node)
    if top >= dim:
        raise HolomorphyError(f"{label} uses variable {top + 1} but the chart has dimension {dim}")


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (ParseError, HolomorphyError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


@settings(max_examples=500, derandomize=True)
@given(_asts, st.integers(1, 4))
def test_one_scan_reads_what_the_tree_walks_read(node, dim):
    text = to_text(node)
    assert expressions._tokenize(text) == tokenize_by_match(text)
    assert expressions._token_texts(text) == [token[1] for token in tokenize_by_match(text)]
    parsed, top, bad = expressions._read(text)
    assert parsed == node
    assert max_variable(node) == top == walked_max_variable(node)
    assert expressions._scan(node) == (top, bad)
    assert (outcome(check_holomorphic, node, dim)
            == outcome(walked_check_holomorphic, node, dim)
            == outcome(lambda: expressions.checked(text, dim, "map component", True) and None))


def nested(levels: int) -> list:
    """Texts whose tree, parenthesis or call nesting reaches ``levels``."""
    texts = {"sum": " + ".join(["z1"] * levels), "parens": "(" * levels + "z1" + ")" * levels,
             "calls": "exp(" * levels + "z1" + ")" * levels,
             "negated_product": "-" + " * ".join(["z1"] * levels)}
    return [pytest.param(text, id=f"{name}-{levels}") for name, text in texts.items()]


def reference_parse(text: str):
    """The former route: tokens by match, then the tree's levels by walking it."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(expressions, "_tokenize", tokenize_by_match)
        node = expressions._Parser(text, expressions._TreeBuilder).parse()[0]
    if walked_depth(node) > expressions.MAX_NESTING:
        raise ParseError(f"expression nests deeper than {expressions.MAX_NESTING} levels",
                         position=0)
    return node


# abs2(z1) + conj(z2) must name abs2: the first offending call in left-to-right preorder
@pytest.mark.parametrize("text", [
    "z1 $ z2", "z1 +  #", "1..2", "z0", "(z1", "z1 + q7", "z1   ", "  z1 * z2  \t\n", "  ",
    "#", "", "z1 ^ 2.5", "abs2(z1) + conj(z2)", "z1 + conj(abs2(z2))", "exp(z1) * z3",
    "1e999 * z1", "z1 / 0 + q7", "exp(z1) + )", *nested(99), *nested(100), *nested(101)])
def test_parse_and_checks_match_the_references_on_malformed_input(text):
    assert (outcome(expressions._token_texts, text)
            == outcome(lambda: [token[1] for token in tokenize_by_match(text)]))
    want = outcome(reference_parse, text)
    assert outcome(parse, text) == want
    if want[0] == "value":
        node = parse(text)
        assert outcome(check_holomorphic, node, 2) == outcome(walked_check_holomorphic, node, 2)
    elif "nests deeper" not in want[1] or want[2] != 0:
        # the monomial path gives the same grammar error, or None when a call comes first
        # and the tree reports it; only the tree's levels count toward no nesting there
        assert outcome(polynomial, text) in (want, ("value", None))


# -- monomials ---------------------------------------------------------------------------

_coefficients = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_exponents = st.lists(st.integers(0, 3), min_size=1, max_size=4)


def coefficient_text(c: complex) -> str:
    return f"({c.real!r} {'-' if c.imag < 0 else '+'} {abs(c.imag)!r}*i)"


def polynomial_text(poly: dict) -> str:
    """Σ c_β z^β written term by term."""
    return " + ".join("*".join([coefficient_text(c)] + [
        f"z{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(beta) if e])
        for beta, c in poly.items())


def padded(poly: dict, count: int) -> dict:
    return {beta + (0,) * (count - len(beta)): c for beta, c in poly.items()}


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda m: st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * m), _coefficients, min_size=1, max_size=12)))
def test_polynomial_reads_back_the_text_of_its_monomials(poly):
    count = len(next(iter(poly)))
    got = polynomial(to_text(parse(polynomial_text(poly))))
    assert padded(got, count) == poly


def degree_bound(node) -> int:
    """An upper bound on the degree of a tree of +, -, *, / by a constant and powers."""
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return degree_bound(node.arg)
    if isinstance(node, Pow):
        return degree_bound(node.base) * node.exponent
    if isinstance(node, BinOp):
        left, right = degree_bound(node.left), degree_bound(node.right)
        return {"+": max, "-": max, "*": int.__add__, "/": lambda a, b: a}[node.op](left, right)
    return 0


# +, -, *, / by a nonzero constant and small powers of numbers, i and variables
_polynomial_asts = st.recursive(
    st.one_of(st.floats(0.05, 2.0).map(Num), _variables, st.just(Imag())),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, st.floats(0.5, 4.0).map(Num)).map(lambda t: BinOp("/", *t)),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(*t)),
        children.map(Neg)),
    max_leaves=12)


@settings(max_examples=300, derandomize=True)
@given(_polynomial_asts, st.integers(0, 2**16))
def test_polynomial_agrees_with_the_tree_at_random_points(node, seed):
    text = to_text(node)
    poly = polynomial(text)
    if poly is None:  # only past the caps: 256 monomials in 4 variables need degree 7
        assert degree_bound(node) >= 7
        return
    rng = np.random.default_rng(seed)
    point = rng.normal(size=4) + 1j * rng.normal(size=4)
    terms = [c * np.prod([point[k] ** e for k, e in enumerate(beta)]) for beta, c in poly.items()]
    want = evaluate(node, list(point))
    assert abs(sum(terms) - want) <= 1e-13 * max(sum(map(abs, terms)), abs(want), 1e-300)


@pytest.mark.parametrize("text", [
    "exp(z1)", "1/(1 - z1)", "log(1 + z1)", "conj(z1)", "abs2(z1) + z2", "z1^2/(1 + 0*z1)",
    "(z2 + 0.3*z1^2)/(1.5 + 0.5*z1)", "(1 + z1 + z2)^300", f"z1^{expressions.MAX_DEGREE + 1}",
    "z5", "z1 + z99999999",
    " * ".join(["z1"] * (expressions.MAX_DEGREE + 1))])
def test_polynomial_gives_none_off_its_grammar_and_past_its_caps(text):
    assert polynomial(text) is None


def test_the_monomial_caps_bound_each_step_of_the_expansion():
    assert polynomial(f"z1^{expressions.MAX_DEGREE}") == {(expressions.MAX_DEGREE,): 1}
    # 16 + 15 + ... + 1 monomials of degree at most 15 in two variables
    assert len(polynomial("(1 + z1 + z2)^15")) == 136
    assert len(polynomial("(1 + z1 + z2 + z3 + z4)^6")) == 210
    assert polynomial("(1 + z1 + z2 + z3 + z4)^7") is None  # 330 monomials
    # only parenthesis and call nesting count: a flat sum is no deeper than its terms
    terms = " + ".join(["0.001*z1"] * 120)
    with pytest.raises(ParseError, match="nests deeper"):
        parse(terms)
    assert polynomial(terms) == {(1,): pytest.approx(0.12)}


def test_a_division_by_zero_names_the_text():
    for text in ("z1/0", "z1 + 0/0", "(z1 - z1)/(2 - 2)"):
        with pytest.raises(ConfigurationError, match=re.escape(f"f {text!r} divides by zero")):
            polynomial(text, "f")
    with pytest.raises(ParseError):  # a later grammar error is still the one reported
        polynomial("z1/0 + q7")
