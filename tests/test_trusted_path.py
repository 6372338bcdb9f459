"""Results built without the public checks, and the one product kernel.

The monomial constructions build their algebras without the axiom check of
``from_structure_constants``, because a monomial quotient that contains a
pure power of every variable is a Weil algebra by construction; these tests
re-verify their tables.  Brackets, sums, scalar multiples, negatives and
module multiples skip the Leibniz check of the public constructor because
they are derivations by construction; these tests re-verify them.  Every
product of the package goes through ``algebra.mul``; these tests compare it
with the raw-table reference of ``support``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from weilkit import (
    bracket,
    chart_components,
    derivation_basis,
    from_structure_constants,
    leibniz_residual,
    module_scale,
    monomial_quotient_algebra,
    truncated_polynomial_algebra,
)
from weilkit.algebra import _height_and_generators
from support import rand_element, rand_fraction, rand_poly, raw_table_mul, scrambled


def _algebras():
    m3 = truncated_polynomial_algebra(2, 2)
    return {"m3": m3, "scrambled-m3": scrambled(m3, random.Random(41))}


ALGEBRAS = _algebras()


@pytest.fixture(params=sorted(ALGEBRAS))
def algebra(request):
    return ALGEBRAS[request.param]


MONOMIAL_ALGEBRAS = {
    **{
        f"truncated-{v}-{k}": (truncated_polynomial_algebra, (v, k))
        for v, k in [(1, 0), (1, 1), (1, 14), (2, 4), (3, 3), (4, 2)]
    },
    "quotient-x3-y2-xy2": (monomial_quotient_algebra, (["x", "y"], [(3, 0), (0, 2), (1, 2)])),
    "quotient-x2-y2-z2": (
        monomial_quotient_algebra,
        (["x", "y", "z"], [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_ALGEBRAS))
def test_monomial_algebras_pass_the_verifier(name):
    build, args = MONOMIAL_ALGEBRAS[name]
    A = build(*args)
    B = from_structure_constants(A.labels, A.table)
    assert A == B
    assert A.labels == B.labels
    assert A.products == B.products


@pytest.mark.parametrize("num_vars, order, expected", [(1, 4, (4, 1)), (2, 2, (2, 2))])
def test_height_and_width_over_a_scrambled_basis(num_vars, order, expected):
    T = truncated_polynomial_algebra(num_vars, order)
    A = scrambled(T, random.Random(5))
    assert A.table != T.table  # m is spanned by combinations, not by monomials
    assert (A.height, A.width) == expected
    assert _height_and_generators(A.products) == (A.height, A.generators)
    assert len(A.generators) == A.width


def test_scrambled_algebra_is_relabelled():
    assert ALGEBRAS["scrambled-m3"].labels != tuple(f"f{i}" for i in range(6))
    assert ALGEBRAS["scrambled-m3"].labels[0] == "1"


def test_trusted_results_are_derivations(algebra):
    rng = random.Random(7)
    basis = derivation_basis(algebra)
    assert len(basis) == 10
    results = list(basis)
    for _ in range(6):
        d1, d2 = rng.choice(basis), rng.choice(basis)
        results += [
            bracket(d1, d2),
            d1 + d2,
            rand_fraction(rng) * d1,
            -d2,
            module_scale(rand_element(rng, algebra), d1),
        ]
    s = algebra.dim
    for d in results:
        assert leibniz_residual(algebra, d.matrix) is None
        assert all(d.matrix[k][0] == 0 for k in range(s))  # kills the unit
        assert all(x == 0 for x in d.matrix[0])  # preserves the maximal ideal


def _coefficients(rng, s, kind):
    if kind == "fraction":
        return [rand_fraction(rng) for _ in range(s)]
    return [rng.uniform(-2.0, 2.0) for _ in range(s)]


@pytest.mark.parametrize("kind", ["fraction", "float"])
def test_element_products_match_reference(algebra, kind):
    rng = random.Random(11)
    s, table = algebra.dim, algebra.table
    for _ in range(20):
        u = _coefficients(rng, s, kind)
        v = _coefficients(rng, s, kind)
        product = algebra.element(u) * algebra.element(v)
        assert list(product.coeffs) == raw_table_mul(table, u, v)


def _reference_eval(table, f, args):
    s = len(table)
    unit = [Fraction(int(k == 0)) for k in range(s)]
    total = [Fraction(0)] * s
    for exponents, coeff in f.terms():
        term = [coeff * x for x in unit]
        for arg, e in zip(args, exponents):
            for _ in range(e):
                term = raw_table_mul(table, term, arg)
        total = [a + b for a, b in zip(total, term)]
    return total


@pytest.mark.parametrize("kind", ["fraction", "float"])
def test_chart_components_match_reference(algebra, kind):
    rng = random.Random(17)
    s, n = algebra.dim, 2
    for _ in range(3):
        f = rand_poly(rng, n, degree=3)
        gs = chart_components(f, algebra, n)
        args = [_coefficients(rng, s, kind) for _ in range(n)]
        coords = [x for arg in args for x in arg]
        got = [g.evaluate(coords) for g in gs]
        want = _reference_eval(algebra.table, f, args)
        if kind == "fraction":
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
