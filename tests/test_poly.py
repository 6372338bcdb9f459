"""Polynomial arithmetic, parsing and evaluation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from weilkit import (
    Polynomial,
    PolynomialParseError,
    dual_numbers,
    eval_in_algebra,
    parse_polynomial,
    truncated_polynomial_algebra,
)
from weilkit.poly import parse_monomial
from support import parse_polynomial_oracle, rand_fraction, rand_poly


def P(text: str, *names: str) -> Polynomial:
    return parse_polynomial(text, names or ("x", "y"))


def test_product_of_variables():
    x = Polynomial.variable(1, 0)
    assert x * x == Polynomial.monomial(1, (2,))


def test_difference_of_squares():
    one = Polynomial.constant(1, 1)
    x = Polynomial.variable(1, 0)
    assert (one + x) * (one - x) == one - x * x


def test_binomial_square():
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")


def test_partial_derivatives():
    assert P("x^2*y").partial(0) == P("2*x*y")
    assert P("x^2").partial(1) == Polynomial.zero(2)
    assert P("3*x^3", "x").partial(0) == P("9*x^2", "x")


def test_partial_index_out_of_range():
    with pytest.raises(ValueError):
        P("x").partial(2)


def test_partials_commute():
    rng = random.Random(11)
    for _ in range(25):
        p = rand_poly(rng, 3)
        for i in range(3):
            for j in range(3):
                assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_mul_variable_count_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


def test_degree_conventions():
    assert Polynomial.zero(2).degree == -1
    assert Polynomial.constant(2, 5).degree == 0
    assert P("x^2*y + x").degree == 3


def test_eval_dual_numbers_square():
    # (p + εv)^2 = p^2 + 2pv ε
    D = dual_numbers()
    p0, v = Fraction(3), Fraction(2)
    arg = D.element([p0, v])
    value = eval_in_algebra(parse_polynomial("x^2", ["x"]), [arg])
    assert value.coeffs == (p0 * p0, 2 * p0 * v)


def test_eval_constant_gives_scaled_unit():
    A = truncated_polynomial_algebra(2, 1)
    c = Polynomial.constant(2, Fraction(7, 2))
    value = eval_in_algebra(c, [A.zero(), A.zero()])
    assert value == Fraction(7, 2) * A.unit()


def test_eval_respects_relation():
    # x*y at (t, t^2) in R[t]/(t^3) is t^3 = 0
    A = truncated_polynomial_algebra(1, 2)
    t, t2 = A.basis_element(1), A.basis_element(2)
    value = eval_in_algebra(P("x*y"), [t, t2])
    assert value.is_zero()


def test_eval_algebra_mismatch():
    A = truncated_polynomial_algebra(1, 2)
    B = dual_numbers()
    with pytest.raises(ValueError):
        eval_in_algebra(P("x*y"), [A.basis_element(1), B.basis_element(1)])


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    A = truncated_polynomial_algebra(2, 2)
    for _ in range(15):
        p = rand_poly(rng, 2)
        q = rand_poly(rng, 2)
        args = [
            A.element([rand_fraction(rng) for _ in range(A.dim)]) for _ in range(2)
        ]
        lhs = eval_in_algebra(p * q, args)
        rhs = eval_in_algebra(p, args) * eval_in_algebra(q, args)
        assert lhs == rhs


def test_eval_at_scalars_matches_direct_evaluation():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng, 2)
        a, b = rand_fraction(rng), rand_fraction(rng)
        expected = sum(
            (c * a**e[0] * b**e[1] for e, c in p.terms()),
            Fraction(0),
        )
        assert p.evaluate([a, b]) == expected


def test_deep_powers_evaluate_without_recursion():
    # The powers cache fills each power from the one below, so a float
    # value is the left-to-right product chain, bit for bit.
    p = parse_polynomial("x^5000", ["x"])
    assert p.evaluate([Fraction(1, 2)]) == Fraction(1, 2**5000)
    x = 1.0001
    chain = x
    for _ in range(4999):
        chain = chain * x
    assert repr(p.evaluate([x])) == repr(chain)


def test_parse_examples():
    p = parse_polynomial("x1^2*x2 - 3/2*x1", ["x1", "x2"])
    assert p.coefficient((2, 1)) == 1
    assert p.coefficient((1, 0)) == Fraction(-3, 2)


def test_parse_unary_minus_and_parens():
    assert P("-(x - y)") == P("y - x")


def test_parse_roundtrip_through_to_str():
    rng = random.Random(5)
    names = ["x1", "x2", "x3"]
    for _ in range(25):
        p = rand_poly(rng, 3)
        assert parse_polynomial(p.to_str(names), names) == p


def test_parse_error_reports_position():
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial("x1 + @", ["x1"])
    assert info.value.position == 5


def test_parse_unknown_variable():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x9", ["x1"])


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_polynomial, "x*" + "z" * 5000),  # unknown variable
        (parse_polynomial, "x " + "y" * 5000),  # unexpected token
        (parse_monomial, "x*" + "z" * 5000),
    ],
)
def test_parse_errors_quote_long_tokens_briefly(parse, text):
    with pytest.raises(PolynomialParseError) as info:
        parse(text, ["x", "y"])
    message = str(info.value)
    assert len(message) < 100 and "…" in message and message.endswith("(at position 2)")


def test_parse_missing_operand():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 *", ["x1"])


# Malformed texts, one or more for every error of the grammar, with the
# texts of the error tests above; the overlong integers are a ValueError of
# int() rather than a parse error.
PARSE_ERROR_CORPUS = [
    "x1 + @", "x9", "x1 *", "z^2", "x^", "x^y", "", "(", ")", "x)", "(x", "((x + y)",
    "1/0", "1/x", "1/", "3/4/5", "x^-1", "x^(2)", "x ^ 1/2 ^", "x y", "2 3", "--x", "+",
    "x +", "*x", "x^2^", "x + (y *) ", "2/0*x", "x^2^3", "(x+y)^", "x*-y", "@",
    "9" * 5000, "x^" + "9" * 5000, "1/" + "9" * 5000,
]


def _parse_outcome(parse, text, names):
    try:
        p = parse(text, names)
    except (PolynomialParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return [(e, type(c), c) for e, c in p.terms()]


def _random_text(rng, names, depth=0):
    """A random text of the parser's grammar, with random spacing."""
    space = lambda: rng.choice(["", "", " ", "  "])  # noqa: E731
    pieces = [rng.choice(["", "", "-", "+"])]
    for t in range(rng.randint(1, 4 if depth else 12)):
        if t:
            pieces.append(space() + rng.choice("+-") + space())
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.45:
                atom = rng.choice(names)
            elif kind < 0.75:
                atom = str(rng.randint(0, 12))
                if rng.random() < 0.4:
                    atom += "/" + str(rng.randint(1, 9))
            elif depth < 2:
                atom = "(" + _random_text(rng, names, depth + 1) + ")"
            else:
                atom = rng.choice(names)
            if rng.random() < 0.3:
                atom += space() + "^" + space() + str(rng.randint(0, 4))
            factors.append(atom)
        pieces.append((space() + "*" + space()).join(factors))
    return "".join(pieces)


def test_parse_matches_the_old_parser_on_random_texts():
    rng = random.Random(12)
    names = ["x", "y", "z1"]
    for _ in range(200):
        text = _random_text(rng, names)
        if rng.random() < 0.3:  # a typo: one character dropped or inserted
            at = rng.randrange(len(text) + 1)
            typo = rng.choice(["", rng.choice("+-*^()/ 07xy@")])
            text = text[:at] + typo + text[at + 1 :]
        assert _parse_outcome(parse_polynomial, text, names) == _parse_outcome(
            parse_polynomial_oracle, text, names
        ), text


@pytest.mark.parametrize("text", PARSE_ERROR_CORPUS)
def test_parse_errors_match_the_old_parser(text):
    outcome = _parse_outcome(parse_polynomial, text, ["x", "y"])
    assert isinstance(outcome, tuple)
    assert outcome == _parse_outcome(parse_polynomial_oracle, text, ["x", "y"])


def test_parse_power_of_a_variable_is_an_exponent():
    # The old parser formed x^k by k products.
    assert parse_polynomial("x^123456789*y", ["x", "y"]) == Polynomial.monomial(2, (123456789, 1))
    assert parse_polynomial("(2*x)^3 - (x + 1)^0", ["x"]) == P("8*x^3 - 1", "x")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x^2*y", (2, 1)),
        ("x * x*y^0", (2, 0)),
        ("1", (0, 0)),
        ("1*y^3", (0, 3)),
        ("2*x", None),
        ("x + 1", None),
        ("x^2^2", None),
        ("(x*y)^2", None),
        ("(x+y)^100000", None),
        ("", None),
    ],
)
def test_parse_monomial(text, expected):
    assert parse_monomial(text, ["x", "y"]) == expected


def test_parse_monomial_errors_match_parse_polynomial():
    for text in ("z^2", "x^", "x^y"):
        with pytest.raises(PolynomialParseError) as general:
            parse_polynomial(text, ["x", "y"])
        with pytest.raises(PolynomialParseError) as monomial:
            parse_monomial(text, ["x", "y"])
        assert str(monomial.value) == str(general.value)


def test_parse_monomial_rejects_overlong_integers():
    for text in ("x^" + "9" * 5000, "9" * 5000 + "*x"):
        with pytest.raises(PolynomialParseError, match="integer of 5000 digits is too long"):
            parse_monomial(text, ["x", "y"])


def test_parse_polynomial_rejects_overlong_integers():
    # An integer literal beyond int()'s digit limit, as an exponent, a
    # numerator or a denominator, is a parse error at its position, the
    # error parse_monomial reports, not the bare ValueError of int().
    digits = "9" * 5000
    for text in ("x^" + digits, digits + "*x", "1/" + digits, "x + " + digits + "/7"):
        with pytest.raises(PolynomialParseError, match="integer of 5000 digits is too long") as error:
            parse_polynomial(text, ["x", "y"])
        assert error.value.position == text.index(digits)
    for text in ("x^" + digits, digits + "*x"):
        with pytest.raises(PolynomialParseError) as general:
            parse_polynomial(text, ["x", "y"])
        with pytest.raises(PolynomialParseError) as monomial:
            parse_monomial(text, ["x", "y"])
        assert str(monomial.value) == str(general.value)


def test_superscript_digits_are_not_integers():
    # str.isdigit() accepts "²", which int() does not read; an integer
    # token is a run of str.isdecimal() characters, exactly what int()
    # reads, so "²" is a name and each text gets the error of a name.
    for parse in (parse_polynomial, parse_monomial):
        with pytest.raises(PolynomialParseError) as exponent:
            parse("x^²", ["x"])
        assert str(exponent.value) == "exponent must be a non-negative integer (at position 2)"
        with pytest.raises(PolynomialParseError) as name:
            parse("²", ["x"])
        assert str(name.value) == "unknown variable '²' (at position 0)"
    assert parse_polynomial("x^٣", ["x"]) == Polynomial.monomial(1, (3,))  # ARABIC-INDIC THREE


def test_grlex_term_order():
    p = P("y^2 + x + x^2*y + 1")
    exponents = [e for e, _ in p.terms()]
    assert exponents == [(0, 0), (1, 0), (0, 2), (2, 1)]
