"""Induced fields, distribution ranks, involutivity, flows, leaves."""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from weilkit import (
    Derivation,
    DistributionSample,
    LieStructure,
    Polynomial,
    apply_chart_field,
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
    involutivity_check,
    leaf_sample,
    lie_structure,
    liouville_demo,
    make_near_point,
    module_scale,
    parse_polynomial,
    truncated_polynomial_algebra,
)
from weilkit import derivations, foliation, linalg
from weilkit.jsonio import derivation_to_json, rational_from_json
from weilkit.algebra import AlgebraElement
from weilkit.nearpoints import NearPoint
from support import (
    ORACLE_CORPUS,
    assert_no_dense_products,
    coprime_denominators,
    coprime_table,
    exact_flow_oracle,
    mat_mul,
    mat_sub,
    mat_vec,
    minus_image_oracle,
    rand_element,
    rand_fraction,
    rand_near_point,
    rand_nilpotent,
    rand_poly,
    rref_oracle,
    scrambled,
    stabilizer_dim_oracle,
    typed,
)


D = dual_numbers()
X3 = truncated_polynomial_algebra(1, 2)
SQ = truncated_polynomial_algebra(2, 1)


def x3_point(x1, x2):
    return make_near_point(X3, [Fraction(0)], [X3.element([0, x1, x2])])


def test_induced_field_liouville_values():
    d0 = derivation_basis(D)[0]
    fld = induced_field(D, d0, 2)
    xi = make_near_point(
        D,
        [Fraction(1), Fraction(4)],
        [Fraction(3) * D.basis_element(1), Fraction(-2) * D.basis_element(1)],
    )
    for i, fiber in enumerate((Fraction(3), Fraction(-2))):
        value = field_apply(fld, Polynomial.variable(2, i), xi)
        assert value == fiber * D.basis_element(1)


def test_induced_field_zero_derivation():
    from weilkit import Derivation

    zero = Derivation(D, ((Fraction(0),) * 2,) * 2)
    fld = induced_field(D, zero, 1)
    xi = make_near_point(D, [Fraction(2)], [D.basis_element(1)])
    assert chart_flatten(fld, xi) == (Fraction(0), Fraction(0))


def test_induced_field_x3_is_minus_diagonal():
    d1 = derivation_basis(X3)[0]  # x -> x, matrix diag(0, 1, 2)
    fld = induced_field(X3, d1, 1)
    xi = x3_point(Fraction(5), Fraction(7))
    assert chart_flatten(fld, xi) == (Fraction(0), Fraction(-5), Fraction(-14))


def test_field_apply_kills_constants():
    d1 = derivation_basis(X3)[0]
    fld = induced_field(X3, d1, 1)
    xi = x3_point(1, 1)
    assert field_apply(fld, Polynomial.constant(1, Fraction(9, 4)), xi).is_zero()


def test_field_apply_liouville_square():
    d0 = derivation_basis(D)[0]
    fld = induced_field(D, d0, 1)
    p, v = Fraction(3), Fraction(2)
    xi = make_near_point(D, [p], [v * D.basis_element(1)])
    value = field_apply(fld, parse_polynomial("x^2", ["x"]), xi)
    assert value == (2 * p * v) * D.basis_element(1)


def test_field_apply_leibniz():
    rng = random.Random(13)
    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        for _ in range(8):
            d = basis[rng.randrange(len(basis))]
            fld = induced_field(A, d, 2)
            f, g = rand_poly(rng, 2), rand_poly(rng, 2)
            xi = rand_near_point(rng, A, 2)
            lhs = field_apply(fld, f * g, xi)
            rhs = field_apply(fld, f, xi) * xi.eval(g) + xi.eval(f) * field_apply(fld, g, xi)
            assert lhs == rhs


def test_module_law_on_fields():
    rng = random.Random(37)
    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        for _ in range(10):
            a = rand_element(rng, A)
            d = basis[rng.randrange(len(basis))]
            f = rand_poly(rng, 2)
            xi = rand_near_point(rng, A, 2)
            lhs = field_apply(induced_field(A, module_scale(a, d), 2), f, xi)
            rhs = a * field_apply(induced_field(A, d, 2), f, xi)
            assert lhs == rhs


def test_chart_flatten_linear_and_zero_on_section():
    d0 = derivation_basis(D)[0]
    fld = induced_field(D, d0, 1)
    assert chart_flatten(fld, make_near_point(D, [Fraction(9)])) == (Fraction(0), Fraction(0))
    xi = make_near_point(D, [Fraction(1)], [Fraction(5) * D.basis_element(1)])
    assert chart_flatten(fld, xi) == (Fraction(0), Fraction(5))
    doubled = make_near_point(D, [Fraction(2)], [Fraction(10) * D.basis_element(1)])
    assert chart_flatten(fld, doubled) == tuple(2 * x for x in chart_flatten(fld, xi))


def test_chart_field_agrees_with_field_apply():
    rng = random.Random(43)
    for A in (D, X3):
        basis = derivation_basis(A)
        for d in basis:
            fld = induced_field(A, d, 2)
            X = chart_field(fld)
            for _ in range(5):
                f = rand_poly(rng, 2)
                xi = rand_near_point(rng, A, 2)
                assert apply_chart_field(X, f, xi) == field_apply(fld, f, xi)


def test_chart_field_roundtrips_through_values():
    for A in (D, X3, SQ):
        for d in derivation_basis(A):
            fld = induced_field(A, d, 2)
            assert field_from_values(coordinate_values(fld)) == chart_field(fld)


def test_distribution_rank_table_x3():
    basis = derivation_basis(X3)
    sample = distribution_at(X3, basis, x3_point(1, 0))
    assert sample.rank == 2
    assert sample.generators == (
        (Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-1)),
    )
    assert distribution_at(X3, basis, x3_point(2, -3)).rank == 2
    assert distribution_at(X3, basis, x3_point(0, 1)).rank == 1
    assert distribution_at(X3, basis, x3_point(0, 0)).rank == 0


def test_distribution_rank_bound_and_generic_rank():
    rng = random.Random(3)
    for A, generic_rank in ((D, 1), (X3, 2)):
        basis = derivation_basis(A)
        for _ in range(10):
            xi = rand_near_point(rng, A, 1)
            sample = distribution_at(A, basis, xi)
            assert sample.rank <= len(basis)
        # generic nilpotent parts: first ideal coordinate nonzero
        coeffs = [Fraction(0), Fraction(1)] + [rand_fraction(rng) for _ in range(A.dim - 2)]
        xi = make_near_point(A, [Fraction(0)], [A.element(coeffs)])
        assert distribution_at(A, basis, xi).rank == generic_rank


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("-inf"), float("nan")])
def test_distribution_refuses_a_negative_or_nan_tolerance(tol):
    # -1.0 divided by zero in the float elimination, and NaN read rank 0.
    A = truncated_polynomial_algebra(2, 2)
    point = rand_near_point(random.Random(3), A, 2)
    with pytest.raises(ValueError, match="rank tolerance must be non-negative") as exc:
        distribution_at(A, derivation_basis(A), point, tol=tol)
    assert repr(tol) in str(exc.value)


def test_distribution_tolerances_keep_their_meaning():
    # On R[x,y]/m^3 at a generic rational point the exact rank is r = 10:
    # None and 0 take it exactly, 1e-9 in floats, and inf counts every
    # pivot as zero.
    A = truncated_polynomial_algebra(2, 2)
    basis = derivation_basis(A)
    point = rand_near_point(random.Random(3), A, 2)
    assert len(basis) == 10
    for tol, rank, tolerance in ((None, 10, 0.0), (0, 10, 0), (1e-9, 10, 1e-9), (math.inf, 0, math.inf)):
        sample = distribution_at(A, basis, point, tol=tol)
        assert (sample.rank, sample.tolerance) == (rank, tolerance)


def test_distribution_checks_the_algebras_in_order():
    # The first derivation's algebra, then the point's, then the others';
    # an empty basis checks none.
    A, B = truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(1, 5)
    (a0, a1), (b0, b1) = derivation_basis(A)[:2], derivation_basis(B)[:2]
    at_a, at_b = rand_near_point(random.Random(3), A, 2), rand_near_point(random.Random(3), B, 2)
    for basis, point, message in (
        ([b0, a1], at_a, "derivation belongs"),
        ([b0, a1], at_b, "derivation belongs"),
        ([a0, b1], at_b, "point belongs"),
        ([a0, b1], at_a, "derivation belongs"),
        ([a0], at_b, "point belongs"),
    ):
        with pytest.raises(ValueError, match=f"^{message} to a different algebra$"):
            distribution_at(A, basis, point)
    assert distribution_at(A, [], at_b).rank == 0


def test_distribution_zero_section_rank_zero(monkeypatch):
    # At an exact point with no nilpotent part every generator is
    # D(b·1) = b·D(1) = 0, so the exact branch returns rank 0 and zero
    # generators without an elimination; a float point still ranks.
    ranked = []
    rank = linalg.rank_with_tolerance
    monkeypatch.setattr(linalg, "rank_with_tolerance", lambda *a: ranked.append(a) or rank(*a))
    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        xi = make_near_point(A, [Fraction(1), Fraction(-2)])
        for tol in (None, 0):
            sample = distribution_at(A, basis, xi, tol)
            zero = (Fraction(0),) * (2 * A.dim)
            assert sample == DistributionSample(xi, (zero,) * len(basis), 0, 0.0)
            assert [typed(g) for g in sample.generators] == [typed(zero)] * len(basis)
        assert not ranked
        assert distribution_at(A, basis, make_near_point(A, [0.5, -2.0])).rank == 0
        assert ranked
        ranked.clear()


NEAR_POINT_ALGEBRAS = {
    "dual": D,
    "x3": X3,
    "sq": SQ,
    "m4": truncated_polynomial_algebra(2, 3),
    "scrambled-m3": scrambled(truncated_polynomial_algebra(2, 2), random.Random(41)),
    "coprime": from_structure_constants(*coprime_table(3, random.Random(3))),
}


def near_point_basis(name):
    """The derivation basis of the algebra; on "coprime" one more
    derivation, a combination over coprime denominators, whose entries get
    no integer form, so its ``integer_columns`` are its Fraction
    columns themselves over 1."""
    basis = list(derivation_basis(NEAR_POINT_ALGEBRAS[name]))
    if name == "coprime":
        dens = coprime_denominators(len(basis))
        combination = functools.reduce(
            operator.add, (Fraction(1, p) * d for p, d in zip(dens, basis))
        )
        columns, denominator = combination.integer_columns
        assert columns is combination.columns and denominator == 1
        basis.append(combination)
    return basis


def assert_exact_integer_columns(d):
    """``d.integer_columns`` holds ints or Fractions over a positive int,
    and divided out they give the columns back."""
    columns, denominator = d.integer_columns
    assert type(denominator) is int and denominator > 0
    assert all(type(x) in (int, Fraction) for column in columns for x in column.values())
    assert [{p: Fraction(x, denominator) for p, x in column.items()} for column in columns] == d.columns


def test_every_producer_has_exact_integer_columns_on_the_coprime_table():
    # The public constructor, the solver, brackets, sums, scalar and module
    # multiples, and the combination over coprime denominators: each result
    # has exact integer columns, and the JSON writer takes it.
    A = NEAR_POINT_ALGEBRAS["coprime"]
    *basis, combination = near_point_basis("coprime")
    rng = random.Random(11)
    produced = {
        "constructor": [Derivation(A, d.matrix) for d in (basis[0], combination)],
        "derivation_basis": basis,
        "bracket": [bracket(d1, d2) for d1 in (basis[0], combination) for d2 in basis[:3]],
        "+": [basis[0] + basis[1], combination + basis[2]],
        "scalar": [Fraction(-3, 7) * basis[1], 5 * combination, -combination],
        "module": [module_scale(rand_element(rng, A), d) for d in (basis[1], combination)],
        "combination": [combination],
    }
    for name, results in produced.items():
        for d in results:
            assert_exact_integer_columns(d)
            wire = derivation_to_json(d)
            assert [[rational_from_json(x) for x in row] for row in wire] == [
                list(row) for row in d.matrix
            ], name


def oracle_points(A, rng):
    """Near points on R^2 as (point, exact): exact ones (Fractions, the zero
    section, ints, large coprime denominators), then float and mixed ones
    with signed zeros."""
    s = A.dim

    def point(*rows):
        return NearPoint(tuple(AlgebraElement(A, tuple(row)) for row in rows))

    def nil(draw):
        return [draw(q) for q in range(1, s)]

    def big(q):
        return Fraction(rng.randint(-(10**20), 10**20), (2**127 - 1, 3**80)[q % 2])

    def uniform(q):
        return rng.uniform(-2, 2)

    def rational(q):
        return rand_fraction(rng)

    exact = [
        rand_near_point(rng, A, 2),
        make_near_point(A, [Fraction(1, 3), Fraction(-2)]),
        point([2] + nil(lambda q: rng.randint(-5, 5)), [-3] + [0] * (s - 1)),
        point([Fraction(1, 7)] + nil(big), [big(0)] + nil(big)),
    ]
    inexact = [
        point([0.75] + nil(uniform), [-1.5] + nil(uniform)),
        point([0.5] + nil(lambda q: (0.0, -0.0)[q % 2]), [-0.0] * s),
        point([0.25] + nil(rational), [1.5] + [Fraction(0)] * (s - 1)),
        point([Fraction(2)] + nil(rational), [-0.0] + nil(lambda q: (-0.0, 0.0, 1.25)[q % 3])),
    ]
    return [(p, True) for p in exact] + [(p, False) for p in inexact]


@pytest.mark.parametrize("name", sorted(NEAR_POINT_ALGEBRAS))
def test_induced_values_match_the_two_pass_negation(name):
    # Exact points take the integer scatter with the sign folded in; the
    # values must be the same Fractions as scattering from Fraction(0) and
    # negating afterwards, and float or mixed points the same bits.
    A = NEAR_POINT_ALGEBRAS[name]
    basis = near_point_basis(name)
    rng = random.Random(name)
    f = rand_poly(rng, 2)
    for point, exact in oracle_points(A, rng):
        old = [
            [x for c in point.components for x in minus_image_oracle(d, c.coeffs)] for d in basis
        ]
        value = point.eval(f)
        for d, gen in zip(basis, old):
            fld = induced_field(A, d, 2)
            for c in point.components:
                assert typed(d.apply(c).coeffs) == typed(mat_vec(d.matrix, c.coeffs))
            assert typed(x for v in fld.value_at(point) for x in v.coeffs) == typed(gen)
            assert typed(field_apply(fld, f, point).coeffs) == typed(
                minus_image_oracle(d, value.coeffs)
            )
        sample = distribution_at(A, basis, point)
        assert [typed(g) for g in sample.generators] == [typed(g) for g in old]
        rational = all(isinstance(x, (int, Fraction)) for gen in old for x in gen)
        assert sample.tolerance == (0.0 if rational else 1e-9)
        if exact:
            assert rational
            assert sample.rank == len(rref_oracle(old)[1])


def corpus_points(A, n, rng):
    """A rational, a float, a mixed and a zero-section point on R^n, with
    signed zeros among the float coordinates."""
    s = A.dim
    floats = [
        A.element([0.0] + [(rng.uniform(-2, 2), 0.0, -0.0)[rng.randrange(3)] for _ in range(s - 1)])
        for _ in range(n)
    ]
    mixed = [
        A.element([(rand_fraction(rng), rng.uniform(-2, 2), -0.0)[q % 3] for q in range(s)])
        for _ in range(n)
    ]
    return [
        rand_near_point(rng, A, n),
        make_near_point(A, [rng.uniform(-3, 3) for _ in range(n)], floats),
        NearPoint(tuple(mixed)),
        make_near_point(A, [rand_fraction(rng) for _ in range(n)]),
    ]


def eager_generators(basis, point):
    """The distribution generators by the two-pass negation of each
    component's image."""
    return tuple(
        tuple(x for c in point.components for x in minus_image_oracle(d, c.coeffs)) for d in basis
    )


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_generators_read_as_the_eager_build(name):
    # Exact points keep their integer images and build the generators on
    # first read; float points form them in one pass.  Either way they
    # print as scattering from Fraction(0) and negating afterwards.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    rng = random.Random(name)
    for n in (1, 2, 3):
        for point in corpus_points(A, n, rng):
            sample = distribution_at(A, basis, point)
            assert repr(sample.generators) == repr(eager_generators(basis, point))


def test_rank_at_an_exact_point_builds_no_fraction():
    # The rank runs on the integer images; only reading the generators
    # builds their Fractions.
    A = truncated_polynomial_algebra(2, 3)
    basis = derivation_basis(A)
    point = rand_near_point(random.Random(5), A, 3)
    distribution_at(A, basis, point)  # the cached integer forms
    calls: list = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        sample = distribution_at(A, basis, point)
        assert (calls, sample.rank) == ([], 18)
        generators = sample.generators
        assert calls
    finally:
        Fraction.__new__ = new
    assert generators == eager_generators(basis, point)


# ------------------------------------- the rank at points that generate A


def _spanning_non_generators(A):
    """Basis elements of m outside ``A.generators`` whose classes form a
    basis of m/m^2, chosen on the dense table independently of the
    library's projection; None when there are not ``width`` of them."""
    s, table = A.dim, A.table
    rows = [list(table[i][j]) for i in range(1, s) for j in range(i, s) if any(table[i][j])]
    rank = len(rref_oracle(rows)[1])
    chosen = []
    for k in range(1, s):
        if k not in A.generators:
            unit = [Fraction(int(q == k)) for q in range(s)]
            if len(rref_oracle(rows + [unit])[1]) > rank:
                rows, rank = rows + [unit], rank + 1
                chosen.append(k)
    return chosen if len(chosen) == A.width else None


def rank_oracle_points(A, rng):
    """(kind, point) pairs: generic points and points with nilparts in
    m^2 at n = 1, 2, width and width + 1, a generic point at n = width - 1
    < width, and, where basis elements outside ``A.generators`` span
    m/m^2, a point whose nilparts are those elements plus terms in m^2, so
    that it spans m/m^2 only through them."""
    w = A.width
    points = []
    for n in sorted({1, 2, max(w, 1), w + 1}):
        deep = [rand_nilpotent(rng, A) * rand_nilpotent(rng, A) for _ in range(n)]
        points.append(("generic", rand_near_point(rng, A, n)))
        points.append(("in m^2", make_near_point(A, [rand_fraction(rng) for _ in deep], deep)))
    if w > 1:
        points.append(("n < width", rand_near_point(rng, A, w - 1)))
    chosen = _spanning_non_generators(A)
    if chosen:
        nilparts = [
            A.basis_element(k) + rand_nilpotent(rng, A) * rand_nilpotent(rng, A) for k in chosen
        ]
        base = [rand_fraction(rng) for _ in chosen]
        points.append(("non-generators", make_near_point(A, base, nilparts)))
    return points


RANK_ORACLE_CORPUS = [name for name, (build, args) in ORACLE_CORPUS.items() if build(*args).dim <= 10]


@pytest.mark.parametrize("name", RANK_ORACLE_CORPUS)
def test_exact_rank_is_r_less_the_stabilizer_in_the_full_leibniz_system(name):
    # The generators are linear in D, so the rank at u is r less the
    # dimension of the derivations that kill every u_i, which the oracle
    # solves for on the full s^2-unknown system: on both sides of the
    # m/m^2 test, and on scrambled tables through basis elements that are
    # not the algebra's generators.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    kinds = set()
    for kind, point in rank_oracle_points(A, random.Random(name)):
        rank = distribution_at(A, basis, point).rank
        assert rank == len(basis) - stabilizer_dim_oracle(A, point), kind
        if kind == "non-generators":
            assert rank == len(basis)
        kinds.add(kind)
    if name.startswith("scrambled-") and A.dim > 2:
        assert "non-generators" in kinds


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_leads_are_the_first_non_zero_entries_and_the_canonical_pivots(name):
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    s = A.dim
    leads = [d.lead for d in basis]
    for d, lead in zip(basis, leads):
        assert lead == next(p * s + q for p in range(s) for q in range(s) if d.matrix[p][q])
    assert leads == sorted(set(leads))
    if basis:
        assert (0 * basis[0]).lead is None


def test_a_basis_without_distinct_leads_keeps_the_elimination():
    # The shortcut needs the basis independent: a repeated derivation, a
    # combination whose lead repeats another's, or a zero one is ranked.
    A = truncated_polynomial_algebra(2, 3)
    basis = derivation_basis(A)
    point = rand_near_point(random.Random(5), A, 3)
    assert distribution_at(A, basis, point).rank == len(basis) == 18
    assert stabilizer_dim_oracle(A, point) == 0  # the point generates A
    d0, d1 = basis[:2]
    assert (d0 + d1).lead == d0.lead
    for derivs, rank in (
        ([d0, d0], 1),
        ([d0, d1, d0 + d1], 2),
        ([0 * d0, d1], 1),
        ([d1, d0, Fraction(1, 2) * d1], 2),
    ):
        assert distribution_at(A, derivs, point).rank == rank


def test_points_whose_nilparts_miss_m_mod_m2_keep_the_elimination():
    # u = 1/2 + x^2 in R[x]/x^4: x^2 is not zero in m but is in m^2, and
    # D(x) = x^3 kills it, so the rank is 2 < r = 3.  On R[x,y]/m^2 one
    # component cannot span the two dimensions of m/m^2: rank 2 < r = 4.
    x4 = truncated_polynomial_algebra(1, 3)
    for A, nilpart, rank, r in ((x4, [0, 0, 1, 0], 2, 3), (SQ, [0, 1, 2], 2, 4)):
        basis = derivation_basis(A)
        point = make_near_point(A, [Fraction(1, 2)], [A.element(nilpart)])
        assert (distribution_at(A, basis, point).rank, len(basis)) == (rank, r)
        assert rank == r - stabilizer_dim_oracle(A, point)


def test_the_elimination_runs_once_unless_the_point_spans_m_mod_m2(monkeypatch):
    # At an exact point that spans m/m^2, ranked with the canonical basis
    # and no tolerance, the rank is r with no elimination; every other
    # case runs it once.
    ranked = []
    rank = linalg.rank_with_tolerance
    monkeypatch.setattr(linalg, "rank_with_tolerance", lambda *a: ranked.append(a) or rank(*a))
    A = truncated_polynomial_algebra(2, 3)
    basis = derivation_basis(A)
    rng = random.Random(5)
    spanning = rand_near_point(rng, A, 3)
    deep = make_near_point(
        A, [1, 2, 3], [rand_nilpotent(rng, A) * rand_nilpotent(rng, A) for _ in range(3)]
    )
    floating = make_near_point(
        A, [0.5, -1.0], [A.element([0.0] + [rng.uniform(-1, 1) for _ in range(A.dim - 1)]) for _ in range(2)]
    )
    for derivs, point, tol, calls in (
        (basis, spanning, None, 0),
        (basis, spanning, 0, 0),
        (basis, deep, None, 1),
        (basis, rand_near_point(rng, A, 1), None, 1),
        ([basis[0], basis[0]], spanning, None, 1),
        (basis, spanning, 1e-9, 1),
        (basis, floating, None, 1),
    ):
        ranked.clear()
        distribution_at(A, derivs, point, tol)
        assert len(ranked) == calls, (point, tol, calls)


LAZY_READS = {
    "eq": lambda x, eager: (x == eager, eager == x, x != eager, len({x, eager})),
    "hash": lambda x, eager: hash(x) == hash(eager),
    "repr": lambda x, eager: repr(x) == repr(eager),
    "copies": lambda x, eager: [
        (repr(y), y == eager, hash(y) == hash(eager), y.generators == eager.generators)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))
    ],
    "generators": lambda x, eager: x.generators == eager.generators,
}


@pytest.mark.parametrize("read", sorted(LAZY_READS))
def test_lazy_sample_reads_as_an_eager_one_before_and_after_the_first_read(read):
    A = truncated_polynomial_algebra(2, 2)
    basis = derivation_basis(A)
    point = rand_near_point(random.Random(8), A, 2)
    lazy = distribution_at(A, basis, point)
    eager = DistributionSample(point, lazy.generators, lazy.rank, lazy.tolerance)
    want = LAZY_READS[read](eager, eager)
    lazy = distribution_at(A, basis, point)
    assert lazy._images is not None
    assert LAZY_READS[read](lazy, eager) == want
    lazy.generators  # the first read, where the read above made none
    assert lazy._images is None
    assert LAZY_READS[read](lazy, eager) == want


def test_injectivity_of_induced_fields():
    # a nonzero derivation induces a nonzero chart field
    rng = random.Random(53)
    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        for _ in range(10):
            coeffs = [rand_fraction(rng) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            combo = None
            for c, b in zip(coeffs, basis):
                term = c * b
                combo = term if combo is None else combo + term
            if combo.is_zero():
                continue
            # some basis element of the ideal is moved; build a point from it
            moved = None
            for q in range(1, A.dim):
                if any(combo.matrix[p][q] != 0 for p in range(A.dim)):
                    moved = q
                    break
            assert moved is not None
            xi = make_near_point(A, [Fraction(0)], [A.basis_element(moved)])
            fld = induced_field(A, combo, 1)
            assert any(x != 0 for x in chart_flatten(fld, xi))


def test_involutivity_exact():
    for A in (D, X3, SQ):
        lie = lie_structure(derivation_basis(A))
        report = involutivity_check(lie)
        assert report["all_pass"]
        expected_pairs = lie.rank * (lie.rank - 1) // 2
        assert len(report["pairs"]) == expected_pairs


def test_involutivity_fails_on_a_perturbed_constant():
    # Any change of one constant changes the combination sum_k c_k D_k, so
    # the chart side no longer matches on some generator column.
    for A in (X3, SQ, truncated_polynomial_algebra(2, 3)):
        lie = lie_structure(derivation_basis(A))
        for i, j, k in ((0, 1, 0), (0, lie.rank - 1, lie.rank - 1), (1, 2, 1)):
            if j >= lie.rank:
                continue
            brackets = {pair: dict(coeffs) for pair, coeffs in lie.brackets.items()}
            coeffs = brackets.setdefault((i, j), {})
            coeffs[k] = coeffs.get(k, 0) + Fraction(1, 3)
            bad = LieStructure(lie.basis, brackets)
            report = involutivity_check(bad)
            assert not report["all_pass"]
            assert [(p["i"], p["j"]) for p in report["pairs"] if not p["pass"]] == [(i, j)]


def commutator_spy(monkeypatch, module) -> list:
    """Record, for every ``commutator_on`` call through ``module``, whether
    it was given integer columns."""
    calls = []
    original = derivations.commutator_on

    def spy(a, b, g):
        values = [x for columns in (a, b) for column in columns for x in column.values()]
        calls.append(all(type(x) is int for x in values))
        return original(a, b, g)

    monkeypatch.setattr(module, "commutator_on", spy)
    return calls


def dense_commutator(d1, d2):
    m1 = [list(row) for row in d1.matrix]
    m2 = [list(row) for row in d2.matrix]
    return mat_sub(mat_mul(m1, m2), mat_mul(m2, m1))


def test_bracket_on_fraction_columns_over_1_matches_the_dense_commutator(monkeypatch):
    # The integer columns of the combination over coprime denominators are
    # its Fraction columns over 1, so every bracket with it is formed on
    # those Fractions; pairs of basis derivations are formed on ints.  Both
    # equal the dense commutator.
    *basis, combination = near_point_basis("coprime")
    assert all(
        type(x) is int for d in basis for column in d.integer_columns[0] for x in column.values()
    )
    calls = commutator_spy(monkeypatch, derivations)
    for d in basis:
        for d1, d2 in ((combination, d), (d, combination)):
            calls.clear()
            assert bracket(d1, d2).matrix == tuple(map(tuple, dense_commutator(d1, d2)))
            assert calls and not any(calls)
        calls.clear()
        assert bracket(basis[0], d).matrix == tuple(map(tuple, dense_commutator(basis[0], d)))
        assert all(calls)


@pytest.mark.parametrize("name", ["scrambled-m3", "m4", "coprime", "coprime-mixed"])
def test_involutivity_on_integer_columns_matches_the_dense_identity(name, monkeypatch):
    # On every pair the check forms its commutator on integer columns, and
    # passes exactly where D_i D_j - D_j D_i = sum_k c_k D_k holds on the
    # dense matrices: for the true constants and for perturbed ones, which
    # hold fractions the integer columns' denominators do not divide.  In
    # "coprime-mixed" the combination over coprime denominators replaces
    # the first basis derivation; its integer columns are its Fraction
    # columns over 1, so the pairs with it, and the pairs whose sum has
    # it, are checked on those Fractions.
    base = name.removesuffix("-mixed")
    A = NEAR_POINT_ALGEBRAS[base]
    basis = derivation_basis(A)
    mixed = name != base
    if mixed:
        *_, combination = near_point_basis(base)
        basis = [combination, *basis[1:]]
    lie = lie_structure(basis)
    rng = random.Random(name)
    brackets = {pair: dict(coeffs) for pair, coeffs in lie.brackets.items()}
    for _ in range(4):
        i, j = sorted(rng.sample(range(lie.rank), 2))
        k = rng.randrange(lie.rank)
        coeffs = brackets.setdefault((i, j), {})
        coeffs[k] = coeffs.get(k, 0) + rand_fraction(rng) + Fraction(1, 7)
    calls = commutator_spy(monkeypatch, foliation)
    for structure in (lie, LieStructure(lie.basis, brackets)):
        calls.clear()
        report = involutivity_check(structure)
        assert any(calls) and all(calls) != mixed
        matrices = [d.matrix for d in structure.basis]
        for pair in report["pairs"]:
            i, j = pair["i"], pair["j"]
            combination = [[Fraction(0)] * A.dim for _ in range(A.dim)]
            for k, c in structure.brackets.get((i, j), {}).items():
                combination = [
                    [x + c * y for x, y in zip(row, mk)] for row, mk in zip(combination, matrices[k])
                ]
            holds = dense_commutator(structure.basis[i], structure.basis[j]) == combination
            assert pair["pass"] == holds
        assert report["all_pass"] == (structure is lie)


def test_involutivity_reads_int_constants_and_float_ones_are_refused():
    # Constants given as ints pass the check on the integer columns.  A
    # float constant, exact or off by its last bit, is refused when the
    # structure is built, so no check ever reads one.
    lie = lie_structure(derivation_basis(NEAR_POINT_ALGEBRAS["m4"]))
    assert all(c.denominator == 1 for coeffs in lie.brackets.values() for c in coeffs.values())
    brackets = {pair: {k: int(c) for k, c in coeffs.items()} for pair, coeffs in lie.brackets.items()}
    assert involutivity_check(LieStructure(lie.basis, brackets))["all_pass"]
    (pair, coeffs), *_ = lie.brackets.items()
    k, c = next(iter(coeffs.items()))
    for value in (float(c), math.nextafter(float(c), math.inf)):
        with pytest.raises(ValueError, match="^structure constants must be ints or Fractions$"):
            LieStructure(lie.basis, {**lie.brackets, pair: {**coeffs, k: value}})


def test_bracket_law_matrix_identity():
    # chart bracket of induced fields equals induced field of the bracket
    from weilkit import bracket

    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        for i, di in enumerate(basis):
            for dj in basis[i + 1 :]:
                mi = [list(r) for r in di.matrix]
                mj = [list(r) for r in dj.matrix]
                chart = mat_sub(mat_mul(mj, mi), mat_mul(mi, mj))
                induced = [[-x for x in row] for row in bracket(di, dj).matrix]
                assert chart == induced


def test_flow_dual_scaling():
    d0 = derivation_basis(D)[0]
    xi = make_near_point(D, [Fraction(3)], [Fraction(1) * D.basis_element(1)])
    moved = flow(D, d0, math.log(2.0), xi)
    assert moved.components[0].coeffs[0] == 3.0
    assert abs(moved.components[0].coeffs[1] - 2.0) < 1e-12


def test_flow_zero_time_is_identity():
    d1 = derivation_basis(X3)[0]
    xi = x3_point(Fraction(1, 2), Fraction(-2))
    moved = flow(X3, d1, 0.0, xi)
    assert [tuple(map(float, c.coeffs)) for c in moved.components] == [
        tuple(map(float, c.coeffs)) for c in xi.components
    ]


def test_flow_preserves_base_point():
    rng = random.Random(61)
    for A in (D, X3, SQ):
        basis = derivation_basis(A)
        for _ in range(5):
            d = basis[rng.randrange(len(basis))]
            xi = rand_near_point(rng, A, 2)
            t = rng.uniform(-1.5, 1.5)
            moved = flow(A, d, t, xi)
            for before, after in zip(xi.components, moved.components):
                assert abs(float(before.scalar_part) - float(after.scalar_part)) <= 1e-12


def test_flow_finite_difference_matches_field():
    rng = random.Random(67)
    h = 1e-5
    for A in (D, X3):
        basis = derivation_basis(A)
        for d in basis:
            fld = induced_field(A, d, 1)
            xi = rand_near_point(rng, A, 1)
            plus = flow(A, d, h, xi)
            minus = flow(A, d, -h, xi)
            fd = [
                (float(a) - float(b)) / (2 * h)
                for a, b in zip(plus.chart_coords(), minus.chart_coords())
            ]
            exact = [float(x) for x in chart_flatten(fld, xi)]
            scale = max(1.0, max(abs(x) for x in exact))
            assert all(abs(f - e) / scale <= 1e-6 for f, e in zip(fd, exact))


def test_leaf_sample_empty_schedule():
    basis = derivation_basis(D)
    xi = make_near_point(D, [Fraction(1)], [D.basis_element(1)])
    assert leaf_sample(D, basis, xi, []) == [xi]


def test_leaf_sample_ln2_doubles_fiber():
    basis = derivation_basis(D)
    xi = make_near_point(D, [Fraction(7)], [Fraction(1) * D.basis_element(1)])
    samples = leaf_sample(D, basis, xi, [(0, math.log(2.0))])
    assert abs(samples[-1].components[0].coeffs[1] - 2.0) < 1e-12


def test_leaf_sample_inverse_schedule_returns():
    basis = derivation_basis(X3)
    xi = x3_point(Fraction(1), Fraction(2))
    samples = leaf_sample(X3, basis, xi, [(1, 0.9), (1, -0.9), (0, 0.4), (0, -0.4)])
    final = samples[-1].chart_coords()
    start = xi.chart_coords()
    assert all(abs(float(a) - float(b)) <= 1e-9 for a, b in zip(final, start))


def test_leaf_sample_shares_base_point():
    basis = derivation_basis(X3)
    xi = x3_point(Fraction(3), Fraction(1))
    for sample in leaf_sample(X3, basis, xi, [(0, 0.3), (1, -0.7)]):
        assert float(sample.components[0].scalar_part) == 0.0


def test_leaf_sample_index_out_of_range():
    basis = derivation_basis(D)
    xi = make_near_point(D, [Fraction(1)])
    with pytest.raises(ValueError):
        leaf_sample(D, basis, xi, [(5, 1.0)])


ORBIT_CORPUS = [name for name, (build, args) in ORACLE_CORPUS.items() if 1 < build(*args).dim <= 15]


@pytest.mark.parametrize("name", ORBIT_CORPUS)
def test_distribution_rank_is_constant_along_leaves(name):
    # The leaves are orbits of the flows, so the rank of the distribution
    # is the same at every point of a leaf (the orbit theorem).  Float
    # points of three kinds start a 3-step leaf: generic, a nilpotent part
    # along one basis direction, and one deep in m (in m^2, a lower stratum).
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    rng = random.Random(A.dim)
    s = A.dim

    def nilpotent():
        return A.element([0.0] + [rng.uniform(-1, 1) for _ in range(s - 1)])

    def along_one_direction():
        k = rng.randrange(1, s)
        return A.element([rng.uniform(0.5, 1) if q == k else 0.0 for q in range(s)])

    for n in (1, 2):
        for nilpart in (nilpotent, along_one_direction, lambda: nilpotent() * nilpotent()):
            base = [rng.uniform(-1, 1) for _ in range(n)]
            point = make_near_point(A, base, [nilpart() for _ in range(n)])
            schedule = [(rng.randrange(len(basis)), rng.uniform(-0.5, 0.5)) for _ in range(3)]
            leaf = leaf_sample(A, basis, point, schedule)
            ranks = [distribution_at(A, basis, p, tol=1e-7).rank for p in leaf]
            assert len(set(ranks)) == 1, (n, nilpart, ranks)


def _is_nilpotent(matrix) -> bool:
    power = matrix
    for _ in range(len(matrix) - 1):
        power = mat_mul(power, matrix)
    return not any(any(row) for row in power)


# The algebras with s <= 10 and r > 0 that have a nilpotent basis
# derivation (the dual numbers have only the Liouville derivation).
EXACT_LEAF_CORPUS = [
    name
    for name, (build, args) in ORACLE_CORPUS.items()
    if build(*args).dim <= 10
    and any(_is_nilpotent(d.matrix) for d in derivation_basis(build(*args)))
]


@pytest.mark.parametrize("name", EXACT_LEAF_CORPUS)
def test_exact_rank_is_constant_along_leaves(name):
    # exp(tN) is an algebra automorphism, and it conjugates Der(A) onto
    # itself, so the exact rank at exp(tN)·p, and at exp(t1 N1)·exp(t2 N2)·p,
    # is the rank at p (the orbit theorem).  The flows of the nilpotent
    # basis derivations N are exact finite series, independent of
    # exp_flow.  Points at n = 1..width with nilpotent parts in m^2, or
    # generic ones, include ranks below r; a point whose nilparts are the
    # generators plus terms in m^2 spans m/m^2 and has rank r, where no
    # elimination runs.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    rng = random.Random(A.dim * 31 + len(basis))
    flows = [
        exact_flow_oracle(d.matrix, rand_fraction(rng) or Fraction(1, 2))
        for d in basis
        if _is_nilpotent(d.matrix)
    ]
    pairs = list(itertools.permutations(flows, 2))

    def in_m2():
        return rand_nilpotent(rng, A) * rand_nilpotent(rng, A)

    points = []
    for n in range(1, A.width + 1):
        for kind, nilpart in (("generic", lambda: rand_nilpotent(rng, A)), ("in m^2", in_m2)):
            points.append((n, kind, [nilpart() for _ in range(n)]))
    points.append((A.width, "spanning", [A.basis_element(g) + in_m2() for g in A.generators]))
    ranks = set()
    for n, kind, nilparts in points:
        point = make_near_point(A, [rand_fraction(rng) for _ in range(n)], nilparts)
        rank = distribution_at(A, basis, point).rank
        ranks.add(rank)
        moves = [[phi] for phi in flows] + [list(p) for p in rng.sample(pairs, min(4, len(pairs)))]
        for composed in moves:
            coords = [list(c.coeffs) for c in point.components]
            for phi in reversed(composed):  # the last flow acts first
                coords = [mat_vec(phi, u) for u in coords]
            moved = NearPoint(tuple(A.element(u) for u in coords))
            assert distribution_at(A, basis, moved).rank == rank, (n, kind, len(composed))
    assert len(basis) in ranks and min(ranks) < len(basis), ranks


def test_flows_refuse_a_time_beyond_the_float_range():
    # float(t) overflows for such an int or Fraction; it is refused like an
    # infinite t, not left to escape as an OverflowError.
    basis = derivation_basis(X3)
    xi = x3_point(Fraction(1), Fraction(2))
    for t in (10**400, -(10**400), Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="flow time too large: t\\*D overflows"):
            exp_flow(basis[0], t)
        with pytest.raises(ValueError, match="flow time too large: t\\*D overflows"):
            flow(X3, basis[1], t, xi)
        with pytest.raises(ValueError, match="flow time too large: t\\*D overflows"):
            leaf_sample(X3, basis, xi, [(0, 0.5), (1, t)])


def test_flows_form_no_dense_matrix_product():
    # exp(tD) is summed, squared, applied and composed on sparse rows; the
    # package has no dense matrix product to call.
    assert_no_dense_products()
    A = truncated_polynomial_algebra(2, 3)
    basis = derivation_basis(A)
    rng = random.Random(71)
    xi = rand_near_point(rng, A, 2)
    for d in (basis[0], basis[-1] + Fraction(1, 3) * basis[0]):
        for t in (0.37, -1.9, 23.0):
            exp_flow(d, t)
            flow(A, d, t, xi)
    assert len(leaf_sample(A, basis, xi, [(0, 0.5), (len(basis) - 1, -23.0), (3, 1.9)])) == 4


def test_trivial_algebra_rank_zero_everywhere():
    # A = R: no derivations, so every foliation query degenerates gracefully
    R = truncated_polynomial_algebra(1, 0)
    basis = derivation_basis(R)
    assert basis == []
    xi = make_near_point(R, [Fraction(4)])
    sample = distribution_at(R, basis, xi)
    assert sample.rank == 0 and sample.generators == ()
    assert leaf_sample(R, basis, xi, []) == [xi]
    report = involutivity_check(lie_structure(basis))
    assert report["all_pass"] and report["pairs"] == []


def test_liouville_demo_all_assertions():
    for n in (1, 2, 3):
        report = liouville_demo(n)
        assert report["pass"], report
        assert report["r"] == 1
        assert len(report["assertions"]) == 5


def test_liouville_demo_chart_components():
    report = liouville_demo(3)
    assert report["pass"]
    d0 = derivation_basis(D)[0]
    chart = chart_field(induced_field(D, d0, 3))
    for i in range(3):
        assert chart.component(i, 0).is_zero()
        assert chart.component(i, 1) == Polynomial.variable(6, 2 * i + 1)
