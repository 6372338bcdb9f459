"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.  Exact checks
use rational arithmetic with zero tolerance; floating checks state their
tolerance inline.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from weilkit import (
    NotLocalError,
    Polynomial,
    bracket,
    chart_field,
    chart_flatten,
    coordinate_values,
    derivation_basis,
    distribution_at,
    dual_numbers,
    exp_flow,
    field_apply,
    field_from_values,
    flow,
    from_structure_constants,
    induced_field,
    leibniz_residual,
    liouville_demo,
    make_near_point,
    module_scale,
    multiplicativity_residual,
    split_scalar_nilpotent,
    truncated_polynomial_algebra,
)
from weilkit.nearpoints import ChartVectorField, apply_chart_field
from support import (
    derivation_dim_oracle,
    mat_mul,
    mat_sub,
    rand_element,
    rand_fraction,
    rand_near_point,
    rand_poly,
    raw_table_mul,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def weil_family():
    algebras = [("D", dual_numbers())]
    for k in range(1, 6):
        algebras.append((f"R[x]/x^{k + 1}", truncated_polynomial_algebra(1, k)))
    for k in range(1, 4):
        algebras.append((f"R[x,y]/(x,y)^{k + 1}", truncated_polynomial_algebra(2, k)))
    algebras.append(("R", truncated_polynomial_algebra(1, 0)))
    return algebras


# Smaller family for the quadratic-cost field checks.
FIELD_ALGEBRAS = lambda: [
    dual_numbers(),
    truncated_polynomial_algebra(1, 2),
    truncated_polynomial_algebra(1, 5),
    truncated_polynomial_algebra(2, 1),
]


def test_criterion_01_weil_verification():
    ok = True
    for name, algebra in weil_family():
        ok = ok and algebra.dim >= 1
        if name == "D":
            ok = ok and (algebra.dim, algebra.height, algebra.width) == (2, 1, 1)
        if name == "R":
            ok = ok and (algebra.dim, algebra.height, algebra.width) == (1, 0, 0)
    product_table = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    try:
        from_structure_constants(["a", "b"], product_table)
        ok = False
    except NotLocalError:
        # independent witness for non-locality: (1,0) is idempotent
        u = [Fraction(1), Fraction(0)]
        ok = ok and raw_table_mul(product_table, u, u) == u
    report(1, "Weil verification accepts the family, rejects R x R", ok)


def test_criterion_02_derivation_dimensions():
    expected = [(dual_numbers(), 1)]
    for k in range(1, 6):
        expected.append((truncated_polynomial_algebra(1, k), k))
    expected.append((truncated_polynomial_algebra(2, 1), 4))
    ok = True
    for algebra, dim in expected:
        ok = ok and len(derivation_basis(algebra)) == dim
        ok = ok and derivation_dim_oracle(algebra) == dim
    report(2, "derivation dimensions match brute-force nullspace oracle", ok)


def test_criterion_03_leibniz_residual_zero():
    ok = True
    for _, algebra in weil_family():
        for d in derivation_basis(algebra):
            ok = ok and leibniz_residual(algebra, d.matrix) is None
    report(3, "Leibniz residual exactly zero on all basis pairs", ok)


def test_criterion_04_bracket_law():
    ok = True
    for algebra in FIELD_ALGEBRAS():
        basis = derivation_basis(algebra)
        for i, di in enumerate(basis):
            mi = [list(r) for r in di.matrix]
            for dj in basis[i + 1 :]:
                mj = [list(r) for r in dj.matrix]
                lhs = mat_sub(mat_mul(mj, mi), mat_mul(mi, mj))
                rhs = [[-x for x in row] for row in bracket(di, dj).matrix]
                ok = ok and lhs == rhs
    report(4, "chart bracket identity holds as an exact matrix identity", ok)


def test_criterion_05_module_law():
    rng = random.Random(101)
    ok = True
    for algebra in FIELD_ALGEBRAS():
        basis = derivation_basis(algebra)
        if not basis:
            continue
        for _ in range(10):
            a = rand_element(rng, algebra)
            d = basis[rng.randrange(len(basis))]
            f = rand_poly(rng, 2)
            xi = rand_near_point(rng, algebra, 2)
            lhs = field_apply(induced_field(algebra, module_scale(a, d), 2), f, xi)
            rhs = a * field_apply(induced_field(algebra, d, 2), f, xi)
            ok = ok and lhs == rhs
    report(5, "module law (a*d) induces a times the field, exact", ok)


def test_criterion_06_lift_homomorphism():
    rng = random.Random(103)
    ok = True
    for algebra in FIELD_ALGEBRAS():
        for _ in range(20):
            f = rand_poly(rng, 2)
            g = rand_poly(rng, 2)
            xi = rand_near_point(rng, algebra, 2)
            ok = ok and xi.eval(f * g) == xi.eval(f) * xi.eval(g)
            scalar, _ = split_scalar_nilpotent(xi.eval(f))
            ok = ok and scalar == f.evaluate(xi.base_point())
    report(6, "lifted evaluation is a homomorphism reducing to the base", ok)


def test_criterion_07_liouville_reproduction():
    ok = True
    D = dual_numbers()
    for n in (1, 2, 3):
        rep = liouville_demo(n)
        ok = ok and rep["pass"] and rep["r"] == 1
        basis = derivation_basis(D)
        ok = ok and basis[0].matrix == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1)))
        fld = induced_field(D, basis[0], n)
        values = coordinate_values(fld)
        chart = chart_field(fld)
        for i in range(n):
            ok = ok and values[i][0].is_zero()
            ok = ok and values[i][1] == Polynomial.variable(2 * n, 2 * i + 1)
            ok = ok and chart.component(i, 0).is_zero()
            ok = ok and chart.component(i, 1) == Polynomial.variable(2 * n, 2 * i + 1)
        base = [Fraction(i + 1) for i in range(n)]
        fiber = [Fraction(i + 2, 3) for i in range(n)]
        xi = make_near_point(
            D, base, [fiber[i] * D.basis_element(1) for i in range(n)]
        )
        for t in (0.3, math.log(2.0)):
            moved = flow(D, basis[0], t, xi)
            for i in range(n):
                ok = ok and abs(
                    float(moved.components[i].coeffs[1]) - math.exp(t) * float(fiber[i])
                ) <= 1e-9
        ok = ok and distribution_at(D, basis, xi).rank == 1
        ok = ok and distribution_at(D, basis, make_near_point(D, base)).rank == 0
    report(7, "Liouville field, flow and rank reproduced for n = 1..3", ok)


def test_criterion_08_rank_stratification():
    A = truncated_polynomial_algebra(1, 2)
    basis = derivation_basis(A)

    def at(x1, x2):
        xi = make_near_point(A, [Fraction(0)], [A.element([0, x1, x2])])
        return distribution_at(A, basis, xi).rank

    ok = (
        at(1, 0) == 2
        and at(Fraction(-2, 3), 5) == 2
        and at(0, 1) == 1
        and at(0, Fraction(7, 2)) == 1
        and at(0, 0) == 0
    )
    report(8, "rank table for R[x]/(x^3): 2 / 1 / 0 strata", ok)


def test_criterion_09_flow_checks():
    rng = random.Random(107)
    ok = True
    h = 1e-5
    for algebra in FIELD_ALGEBRAS():
        basis = derivation_basis(algebra)
        if not basis:
            continue
        for _ in range(5):
            d = basis[rng.randrange(len(basis))]
            t = rng.uniform(-2.0, 2.0)
            ok = ok and multiplicativity_residual(exp_flow(d, -t)) <= 1e-9
            xi = rand_near_point(rng, algebra, 1)
            plus, minus = flow(algebra, d, h, xi), flow(algebra, d, -h, xi)
            fd = [
                (float(a) - float(b)) / (2 * h)
                for a, b in zip(plus.chart_coords(), minus.chart_coords())
            ]
            exact = [float(x) for x in chart_flatten(induced_field(algebra, d, 1), xi)]
            scale = max(1.0, max(abs(x) for x in exact))
            ok = ok and all(abs(f - e) / scale <= 1e-6 for f, e in zip(fd, exact))
            moved = flow(algebra, d, t, xi)
            drift = max(
                abs(float(a.scalar_part) - float(b.scalar_part))
                for a, b in zip(xi.components, moved.components)
            )
            ok = ok and drift <= 1e-12
    report(9, "flows: multiplicative 1e-9, derivative 1e-6, base 1e-12", ok)


def test_criterion_10_roundtrip_chart_fields():
    rng = random.Random(109)
    ok = True
    for algebra in (dual_numbers(), truncated_polynomial_algebra(1, 2)):
        s = algebra.dim
        n = 2
        for _ in range(10):
            comps = tuple(rand_poly(rng, n * s, degree=1, terms=3) for _ in range(n * s))
            X = ChartVectorField(n, s, comps)
            values = [[X.component(i, j) for j in range(s)] for i in range(n)]
            ok = ok and field_from_values(values) == X
            xi = rand_near_point(rng, algebra, n)
            coords = xi.chart_coords()
            for i in range(n):
                value = apply_chart_field(X, Polynomial.variable(n, i), xi)
                expected = [values[i][j].evaluate(coords) for j in range(s)]
                ok = ok and list(value.coeffs) == expected
    report(10, "chart field <-> coordinate values round trip, exact", ok)


def test_criterion_11_dimension_law():
    ok = True
    for _, algebra in weil_family():
        for n in (1, 2, 3):
            xi = rand_near_point(random.Random(42), algebra, n)
            ok = ok and len(xi.chart_coords()) == n * algebra.dim
            zero = ChartVectorField.zero(n, algebra.dim)
            ok = ok and len(zero.components) == n * algebra.dim
    report(11, "chart dimension equals n times algebra dimension", ok)
