"""Near points, lifted evaluation, Taylor oracles and chart fields."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from weilkit import (
    BasePointMismatchError,
    ChartVectorField,
    MissingPartialError,
    NonzeroScalarPartError,
    Polynomial,
    TaylorOracle,
    apply_chart_field,
    chart_components,
    dual_numbers,
    field_from_values,
    from_structure_constants,
    make_near_point,
    parse_polynomial,
    split_scalar_nilpotent,
    truncated_polynomial_algebra,
)
from weilkit.algebra import powers
from weilkit.nearpoints import _multi_indices
from support import ORACLE_CORPUS, eval_taylor_oracle, rand_near_point, rand_poly


D = dual_numbers()
X3 = truncated_polynomial_algebra(1, 2)


def tangent_point(p, v):
    return make_near_point(D, [Fraction(p)], [Fraction(v) * D.basis_element(1)])


def liouville_field(n):
    comps = []
    for i in range(n):
        comps.append(Polynomial.zero(2 * n))
        comps.append(Polynomial.variable(2 * n, 2 * i + 1))
    return ChartVectorField(n, 2, tuple(comps))


def test_make_near_point_tangent_vector():
    xi = tangent_point(3, 7)
    assert xi.components[0].coeffs == (Fraction(3), Fraction(7))
    assert xi.base_point() == (Fraction(3),)


def test_make_near_point_canonical_copy():
    xi = make_near_point(X3, [Fraction(2)])
    assert xi.components[0] == Fraction(2) * X3.unit()


def test_make_near_point_rejects_scalar_part():
    bad = D.element([1, 1])  # 1 + ε is not in the ideal
    with pytest.raises(NonzeroScalarPartError):
        make_near_point(D, [Fraction(0)], [bad])


def test_make_near_point_length_mismatch():
    with pytest.raises(ValueError):
        make_near_point(D, [Fraction(1), Fraction(2)], [D.zero()])


def test_eval_arity_mismatch():
    xi = tangent_point(1, 1)
    with pytest.raises(ValueError):
        xi.eval(Polynomial.variable(3, 0))


def test_apply_chart_field_dimension_mismatch():
    X = ChartVectorField.zero(2, 2)
    xi = tangent_point(0, 1)  # n = 1 point against an n = 2 field
    with pytest.raises(ValueError):
        apply_chart_field(X, Polynomial.variable(1, 0), xi)


def test_eval_coordinate_function():
    xi = make_near_point(
        X3, [Fraction(1)], [X3.element([0, 2, 3])]
    )
    x = Polynomial.variable(1, 0)
    assert xi.eval(x) == xi.components[0]


def test_eval_square_on_tangent_chart():
    xi = tangent_point(Fraction(5, 2), 4)
    value = xi.eval(parse_polynomial("x^2", ["x"]))
    assert value.coeffs == (Fraction(25, 4), Fraction(20))


def test_eval_over_reals_is_plain_evaluation():
    R = truncated_polynomial_algebra(1, 0)
    xi = make_near_point(R, [Fraction(3)])
    value = xi.eval(parse_polynomial("x^2 - x", ["x"]))
    assert value.coeffs == (Fraction(6),)


def test_eval_is_homomorphism_and_reduces_to_base():
    rng = random.Random(41)
    for A in (D, X3, truncated_polynomial_algebra(2, 1)):
        n = 2
        for _ in range(10):
            f = rand_poly(rng, n)
            g = rand_poly(rng, n)
            xi = rand_near_point(rng, A, n)
            assert xi.eval(f * g) == xi.eval(f) * xi.eval(g)
            scalar, _ = split_scalar_nilpotent(xi.eval(f))
            assert scalar == f.evaluate(xi.base_point())


def test_taylor_matches_exact_evaluation_on_polynomials():
    f = parse_polynomial("x^3 - 2*x", ["x"])
    oracle = TaylorOracle.of_polynomial(f, [0.5], order=2)
    xi = make_near_point(X3, [Fraction(1, 2)], [X3.element([0, 1, -2])])
    exact = xi.eval(f)
    approx = xi.eval_taylor(oracle)
    assert all(
        abs(float(a) - float(b)) <= 1e-12 for a, b in zip(exact.coeffs, approx.coeffs)
    )


def test_taylor_constant_oracle():
    oracle = TaylorOracle([0.0], {(0,): 4.5, (1,): 0.0})
    xi = make_near_point(D, [Fraction(0)], [D.basis_element(1)])
    value = xi.eval_taylor(oracle)
    assert value.coeffs == (4.5, 0.0)


def test_taylor_jet_structure():
    # order-2 jet in one variable: f(p) + f'(p) X + f''(p)/2 X^2
    f = parse_polynomial("x^4", ["x"])
    p = 2.0
    oracle = TaylorOracle.of_polynomial(f, [p], order=2)
    xi = make_near_point(X3, [Fraction(2)], [X3.basis_element(1)])
    value = xi.eval_taylor(oracle)
    assert abs(value.coeffs[0] - 16.0) < 1e-12
    assert abs(value.coeffs[1] - 32.0) < 1e-12  # f'(2) = 4*8
    assert abs(value.coeffs[2] - 24.0) < 1e-12  # f''(2)/2 = 48/2


def test_taylor_two_variable_oracle():
    SQ = truncated_polynomial_algebra(2, 1)
    f = parse_polynomial("x1^2*x2 - 3/2*x1", ["x1", "x2"])
    oracle = TaylorOracle.of_polynomial(f, [2.0, -1.0], order=1)
    xi = make_near_point(
        SQ,
        [Fraction(2), Fraction(-1)],
        [SQ.element([0, 1, 2]), SQ.element([0, -1, Fraction(1, 2)])],
    )
    exact = xi.eval(f)
    approx = xi.eval_taylor(oracle)
    assert all(
        abs(float(a) - float(b)) <= 1e-12 for a, b in zip(exact.coeffs, approx.coeffs)
    )


def signed_zeros_or_uniform(rng, span):
    return (0.0, -0.0, rng.uniform(-span, span), rng.uniform(-span, span))[rng.randrange(4)]


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_taylor_matches_per_multi_index_loop(name):
    # The powers of each nilpotent part are formed once and shared; they
    # are the products ** makes, so the floats agree bit for bit.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    rng = random.Random(67)
    for n in (1, 2, 3):
        nilparts = [
            A.element([0.0] + [signed_zeros_or_uniform(rng, 2) for _ in range(A.dim - 1)])
            for _ in range(n)
        ]
        float_point = make_near_point(A, [rng.uniform(-3, 3) for _ in range(n)], nilparts)
        for point in (rand_near_point(rng, A, n), float_point):
            base = [float(b) for b in point.base_point()]
            partials = {alpha: signed_zeros_or_uniform(rng, 5) for alpha in _multi_indices(n, A.height)}
            oracle = TaylorOracle(base, partials)
            got = point.eval_taylor(oracle).coeffs
            assert repr(got) == repr(eval_taylor_oracle(point, oracle).coeffs)


def test_taylor_keeps_the_terms_of_an_exact_value_that_rounds_to_zero():
    # A non-zero nilpotent coordinate below the float range is 0.0 in
    # float arithmetic, yet its terms are formed, so the coordinates they
    # reach are floats, as in the per-multi-index loop, not Fraction(0).
    A = truncated_polynomial_algebra(1, 3)
    tiny = Fraction(1, 10**400)
    # Over one shared denominator they have an integer form, read as such.
    for nilpart in ([0, tiny, 0, 0], [0, tiny, -tiny, tiny], [0, Fraction(1, 2), 0, tiny]):
        point = make_near_point(A, [Fraction(1)], [A.element(nilpart)])
        oracle = TaylorOracle([1.0], {(e,): (-1.5) ** e for e in range(4)})
        got = point.eval_taylor(oracle).coeffs
        assert repr(got) == repr(eval_taylor_oracle(point, oracle).coeffs)


M4 = truncated_polynomial_algebra(2, 3)
DEEP = parse_polynomial("x^5000*y", ["x", "y"])


def binomial_power(u, e):
    """u^e for u = c + m with m nilpotent: the sum of C(e, k) c^(e-k) m^k
    over k up to the algebra height."""
    c, m = split_scalar_nilpotent(u)
    total, mk = u.algebra.zero(), u.algebra.unit()
    for k in range(u.algebra.height + 1):
        total = total + (math.comb(e, k) * c ** (e - k)) * mk
        mk = mk * m
    return total


def test_deep_power_at_an_exact_point():
    point = make_near_point(
        M4,
        [Fraction(1, 2), Fraction(-3)],
        [M4.element([0, 1, Fraction(-2, 3)] + [Fraction(j, 5) for j in range(7)]),
         M4.element([0, Fraction(1, 7), 2] + [0] * 7)],
    )
    x, y = point.components
    value = point.eval(DEEP)
    assert value == binomial_power(x, 5000) * y
    assert all(type(c) is Fraction for c in value.coeffs)
    assert x**5000 == binomial_power(x, 5000)


def test_deep_chain_keeps_its_denominator_small():
    # An integer base with nilpotent parts over 2^60 on a monomial table
    # (λ = 1): the value's own denominators stay below 2^181, and the
    # integer chain must not carry 2^60 more per product.
    point = make_near_point(
        M4, [3, -2], [M4.element([0] + [Fraction(j + 2, 2**60) for j in range(9)]), M4.zero()]
    )
    x, _ = point.components
    value, power = point.eval(parse_polynomial("x^400", ["x", "y"])), x**400
    for u in (value, power):
        _, denominator = u.integer_form()
        assert denominator.bit_length() <= 181
    assert value == power
    assert all(type(c) is Fraction for c in value.coeffs)
    assert powers(x, 3)[3] == x**3


def test_deep_power_at_a_float_point():
    point = make_near_point(
        M4, [1.0, 2.0], [M4.element([0.0, 0.001, -0.002] + [0.0005] * 7), M4.element([0.0] * 10)]
    )
    x, y = point.components
    value = point.eval(DEEP)
    # The powers cache and ** form the same products in the same order.
    assert repr(value.coeffs) == repr((x**5000 * y).coeffs)
    want = binomial_power(x, 5000) * y
    assert all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(value.coeffs, want.coeffs)
    )


def test_deep_power_through_a_taylor_oracle():
    point = make_near_point(
        M4, [Fraction(1), Fraction(2)], [M4.element([0] + [Fraction(1, 1000)] * 9), M4.zero()]
    )
    oracle = TaylorOracle.of_polynomial(DEEP, [1, 2], order=M4.height)
    exact = point.eval(DEEP)
    approx = point.eval_taylor(oracle)
    assert all(math.isclose(float(a), b, rel_tol=1e-9) for a, b in zip(exact.coeffs, approx.coeffs))


def test_eval_with_float_components():
    xi = make_near_point(D, [2.0], [0.5 * D.basis_element(1)])
    value = xi.eval(parse_polynomial("x^2", ["x"]))
    assert abs(value.coeffs[0] - 4.0) < 1e-15
    assert abs(value.coeffs[1] - 2.0) < 1e-15


def test_taylor_base_point_mismatch():
    oracle = TaylorOracle.of_polynomial(parse_polynomial("x", ["x"]), [1.0], order=1)
    xi = tangent_point(2, 1)
    with pytest.raises(BasePointMismatchError):
        xi.eval_taylor(oracle)


def test_taylor_base_beyond_float_range_is_a_mismatch():
    # float(10**400) overflows; no finite oracle base can match that point.
    xi = make_near_point(X3, [Fraction(10) ** 400], [X3.basis_element(1)])
    oracle = TaylorOracle.of_polynomial(parse_polynomial("x", ["x"]), [1.0], order=2)
    with pytest.raises(BasePointMismatchError, match="beyond the float range"):
        xi.eval_taylor(oracle)


@pytest.mark.parametrize(
    "nilparts, component",
    [
        ([(0, 10**400, 0)], 1),
        ([(0, 1, 2), (0, 0, -(10**400))], 2),
        ([(0, Fraction(10**200, 3), 0)], 1),  # only its square is beyond the float range
    ],
)
def test_taylor_names_a_component_beyond_the_float_range(nilparts, component):
    # The float product of a term with such a power raised a bare
    # OverflowError ("integer division result too large for a float").
    n = len(nilparts)
    xi = make_near_point(X3, [1] * n, [X3.element(nil) for nil in nilparts])
    ones = TaylorOracle([1.0] * n, {alpha: 1.0 for alpha in _multi_indices(n, 2)})
    with pytest.raises(ValueError, match=f"^component ξ{component} of the point overflows floating point$"):
        xi.eval_taylor(ones)


def beyond_float_range_constant(labels, products):
    """A structure_constants table on ``labels`` with the unit first and the
    constant 10^400 at each (i, j, k) of ``products``, and its mirror (j, i, k)."""
    s = len(labels)
    table = [[[Fraction(0)] * s for _ in range(s)] for _ in range(s)]
    for i in range(s):
        table[0][i][i] = table[i][0][i] = Fraction(1)
    for i, j, k in products:
        table[i][j][k] = table[j][i][k] = Fraction(10**400)
    algebra = from_structure_constants(labels, table)
    assert algebra.products.floats is None
    return algebra


def test_eval_through_a_constant_beyond_the_float_range_raises_value_error():
    # R[x]/x^3 with x*x = 10^400 e2: the float product of x^2 raised a bare
    # OverflowError ("integer division result too large for a float").
    A = beyond_float_range_constant(["1", "x", "X"], [(1, 1, 2)])
    xi = make_near_point(A, [0.5], [0.25 * A.basis_element(1)])
    with pytest.raises(ValueError, match="overflows floating point"):
        xi.eval(parse_polynomial("x^2", ["x"]))


@pytest.mark.parametrize(
    "labels, products, nilpotent",
    [
        (["1", "x", "X"], [(1, 1, 2)], (1, 1)),  # a power meets the constant
        (["1", "x", "y", "z"], [(1, 2, 3)], (1, 2)),  # only the term x*y meets it
    ],
)
def test_taylor_through_a_constant_beyond_the_float_range_raises_value_error(
    labels, products, nilpotent
):
    A = beyond_float_range_constant(labels, products)
    nilparts = [0.25 * A.basis_element(nilpotent[0]), 0.5 * A.basis_element(nilpotent[1])]
    xi = make_near_point(A, [0.5, 0.25], nilparts)
    oracle = TaylorOracle([0.5, 0.25], {alpha: 1.0 for alpha in _multi_indices(2, 2)})
    with pytest.raises(ValueError, match="overflows floating point"):
        xi.eval_taylor(oracle)


def test_taylor_reads_a_power_only_where_a_non_zero_term_multiplies_it():
    xi = make_near_point(X3, [1], [X3.element([0, 10**400, 0])])
    oracle = TaylorOracle([1.0], {(0,): 2.5, (1,): 0.0, (2,): -0.0})
    assert repr(xi.eval_taylor(oracle).coeffs) == repr((2.5, Fraction(0), Fraction(0)))
    assert _multi_indices(1, 2) is _multi_indices(1, 2)


def test_taylor_missing_partial():
    oracle = TaylorOracle([0.0], {(0,): 1.0})  # no first-order data
    xi = tangent_point(0, 1)
    with pytest.raises(MissingPartialError):
        xi.eval_taylor(oracle)


def test_chart_components_of_coordinates():
    comps = chart_components(Polynomial.variable(2, 0), D, 2)
    assert comps[0] == Polynomial.variable(4, 0)  # x1
    assert comps[1] == Polynomial.variable(4, 1)  # y1


def test_chart_components_of_constants():
    comps = chart_components(Polynomial.constant(1, Fraction(3, 2)), X3, 1)
    assert comps[0] == Polynomial.constant(3, Fraction(3, 2))
    assert comps[1].is_zero() and comps[2].is_zero()


def test_chart_components_of_square():
    # (x + εy)^2 = x^2 + 2xy ε
    comps = chart_components(parse_polynomial("x^2", ["x"]), D, 1)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert comps[0] == x * x
    assert comps[1] == 2 * x * y


def test_chart_components_reassemble_to_evaluation():
    rng = random.Random(12)
    for A in (D, X3):
        for _ in range(10):
            f = rand_poly(rng, 2)
            xi = rand_near_point(rng, A, 2)
            comps = chart_components(f, A, 2)
            coords = xi.chart_coords()
            rebuilt = A.zero()
            for j, g in enumerate(comps):
                rebuilt = rebuilt + g.evaluate(coords) * A.basis_element(j)
            assert rebuilt == xi.eval(f)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_chart_components_are_polynomials(name):
    # The symbolic evaluation runs on algebra elements with Polynomial
    # coordinates; every coordinate comes back as a Polynomial in the n*s
    # chart variables, for a constant, a cancelling x - x and a product.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    rng = random.Random(71)
    names = ["x", "y"]
    for text in ("3/2", "x - x", "0", "x*y - 2*y^2 + 1"):
        f = parse_polynomial(text, names)
        comps = chart_components(f, A, 2)
        assert len(comps) == A.dim
        assert all(type(g) is Polynomial and g.nvars == 2 * A.dim for g in comps)
        xi = rand_near_point(rng, A, 2)
        coords = xi.chart_coords()
        assert A.element([g.evaluate(coords) for g in comps]) == xi.eval(f)


def test_apply_chart_field_liouville_on_coordinates():
    n = 2
    X = liouville_field(n)
    xi = make_near_point(
        D,
        [Fraction(1), Fraction(2)],
        [Fraction(3) * D.basis_element(1), Fraction(-1) * D.basis_element(1)],
    )
    for i in range(n):
        value = apply_chart_field(X, Polynomial.variable(n, i), xi)
        fiber = xi.components[i].coeffs[1]
        assert value == fiber * D.basis_element(1)  # ε·y_i at the point


def test_apply_chart_field_zero_field():
    X = ChartVectorField.zero(2, 2)
    rng = random.Random(8)
    for _ in range(5):
        f = rand_poly(rng, 2)
        xi = rand_near_point(rng, D, 2)
        assert apply_chart_field(X, f, xi).is_zero()


def test_apply_chart_field_base_direction():
    # d/dx applied to x^2 gives 2x + 2y ε = 2ξ on the tangent chart
    X = ChartVectorField(1, 2, (Polynomial.constant(2, 1), Polynomial.zero(2)))
    xi = tangent_point(Fraction(3), Fraction(5))
    value = apply_chart_field(X, parse_polynomial("x^2", ["x"]), xi)
    assert value == 2 * xi.components[0]


def test_apply_chart_field_leibniz_rule():
    rng = random.Random(29)
    X = liouville_field(2)
    for _ in range(10):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        xi = rand_near_point(rng, D, 2)
        lhs = apply_chart_field(X, f * g, xi)
        rhs = apply_chart_field(X, f, xi) * xi.eval(g) + xi.eval(f) * apply_chart_field(X, g, xi)
        assert lhs == rhs


def test_field_from_values_liouville():
    n = 2
    values = []
    for i in range(n):
        values.append(
            [Polynomial.zero(2 * n), Polynomial.variable(2 * n, 2 * i + 1)]
        )
    assert field_from_values(values) == liouville_field(n)


def test_field_from_values_zero():
    values = [[Polynomial.zero(2), Polynomial.zero(2)]]
    assert field_from_values(values) == ChartVectorField.zero(1, 2)


def test_field_from_values_constant_unit_direction():
    values = [[Polynomial.constant(2, 1), Polynomial.zero(2)]]
    X = field_from_values(values)
    assert X.component(0, 0) == Polynomial.constant(2, 1)
    assert X.component(0, 1).is_zero()


def test_field_roundtrip_on_coordinates():
    rng = random.Random(19)
    n, s = 2, D.dim
    for _ in range(10):
        comps = tuple(rand_poly(rng, n * s, degree=1, terms=3) for _ in range(n * s))
        X = ChartVectorField(n, s, comps)
        values = [[X.component(i, j) for j in range(s)] for i in range(n)]
        assert field_from_values(values) == X
        # pointwise: action on coordinates matches the stored values
        xi = rand_near_point(rng, D, n)
        coords = xi.chart_coords()
        for i in range(n):
            value = apply_chart_field(X, Polynomial.variable(n, i), xi)
            expected = [values[i][j].evaluate(coords) for j in range(s)]
            assert list(value.coeffs) == expected
