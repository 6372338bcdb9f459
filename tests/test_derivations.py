"""Derivation solver, brackets, module action and exponential flows."""

from __future__ import annotations

import builtins
import hashlib
import math
import random
from fractions import Fraction

import pytest

from weilkit import (
    AlgebraElement,
    Automorphism,
    Derivation,
    Polynomial,
    NotClosedError,
    bracket,
    chart_flatten,
    derivation_basis,
    distribution_at,
    dual_numbers,
    exp_flow,
    field_apply,
    flow,
    from_structure_constants,
    induced_field,
    LieStructure,
    NearPoint,
    involutivity_check,
    jacobi_residual,
    leibniz_residual,
    lie_structure,
    module_scale,
    monomial_quotient_algebra,
    multiplicativity_residual,
    truncated_polynomial_algebra,
)
from weilkit import derivations
from weilkit.derivations import _trusted
from weilkit.jsonio import derivation_to_json, lie_constants_to_json, rational_from_json
import weilkit.linalg as la
from support import (
    ORACLE_CORPUS,
    assert_no_dense_products,
    compensated_sum,
    derivation_basis_oracle,
    derivation_dim_oracle,
    exp_flow_oracle,
    expm_series_oracle,
    float_mat_mul_oracle,
    invert_oracle,
    leibniz_oracle,
    lie_structure_oracle,
    mat_mul,
    mat_sub,
    mat_vec,
    plain_sum,
    rand_element,
    rand_fraction,
    rand_invertible,
    rand_near_point,
    raw_table_mul,
    rescaled_table,
    scrambled,
    sparse_brackets,
)


def F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def assert_one_form(A, d, dense):
    """d's dense view equals the oracle ``dense``, its stored columns are
    the non-zero entries of that view, and the public, checking constructor
    rebuilds an equal derivation with an equal hash.  So do the same
    columns filled in reverse order, whose hash builds no dense view."""
    assert d.matrix == F(dense)
    s = A.dim
    assert d.columns == [{p: d.matrix[p][q] for p in range(s) if d.matrix[p][q]} for q in range(s)]
    assert d.is_zero() == all(x == 0 for row in dense for x in row)
    rebuilt = Derivation(A, d.matrix)
    assert rebuilt == d and hash(rebuilt) == hash(d)
    reversed_fill = _trusted(A, [dict(reversed(column.items())) for column in d.columns])
    assert reversed_fill == d and hash(reversed_fill) == hash(d)
    assert "matrix" not in reversed_fill.__dict__


def test_dual_number_generator():
    D = dual_numbers()
    basis = derivation_basis(D)
    assert len(basis) == 1
    assert basis[0].matrix == F([[0, 0], [0, -1]])
    e = D.basis_element(1)
    assert basis[0].apply(e) == -e


def test_truncated_dimensions_match_oracle():
    for k in range(1, 6):
        A = truncated_polynomial_algebra(1, k)
        basis = derivation_basis(A)
        assert len(basis) == k
        assert derivation_dim_oracle(A) == k


def test_square_zero_ideal_gives_full_linear_maps():
    A = truncated_polynomial_algebra(2, 1)
    basis = derivation_basis(A)
    assert len(basis) == 4
    assert derivation_dim_oracle(A) == 4


def test_two_variable_truncations_free_on_generators():
    # derivations of a truncated polynomial algebra are free on the images
    # of the variables, so r = (number of variables) * dim(ideal)
    for k in (1, 2):
        A = truncated_polynomial_algebra(2, k)
        expected = 2 * (A.dim - 1)
        assert len(derivation_basis(A)) == expected
        assert derivation_dim_oracle(A) == expected


def test_constrained_monomial_quotient():
    # basis {1, x, y, y^2}: the relation x*y kills the y-coefficient of d(x)
    # (x d(y) + y d(x) must vanish), leaving d(x) in span(x, y^2) and d(y) free
    A = monomial_quotient_algebra(("x", "y"), [(2, 0), (0, 3), (1, 1)])
    basis = derivation_basis(A)
    assert len(basis) == 5
    assert derivation_dim_oracle(A) == 5
    x, y = A.basis_element(1), A.basis_element(2)
    for d in basis:
        image = x * d.apply(y) + y * d.apply(x)
        assert image.is_zero()


def test_reals_have_no_derivations():
    A = truncated_polynomial_algebra(1, 0)
    assert derivation_basis(A) == []


def test_solved_derivations_have_zero_leibniz_residual():
    for A in (dual_numbers(), truncated_polynomial_algebra(1, 4), truncated_polynomial_algebra(2, 2)):
        for d in derivation_basis(A):
            assert leibniz_residual(A, d.matrix) is None


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_basis_matches_full_leibniz_oracle(name):
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    oracle = derivation_basis_oracle(A)
    assert len(basis) == len(oracle)
    for d, dense in zip(basis, oracle):
        assert_one_form(A, d, dense)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_lie_constants_match_commutator_oracle(name):
    build, args = ORACLE_CORPUS[name]
    basis = derivation_basis(build(*args))
    assert lie_structure(basis).brackets == lie_structure_oracle(basis)


def non_graded_algebra():
    """R[x,y]/(x^2 - y^3, xy, y^4) on the basis 1, x, y, y^2, y^3: height 3,
    width 2, generated by x and y.  Its relation x^2 = y^3 is not
    homogeneous, so no monomial basis grades it."""
    s = 5
    table = [[[0] * s for _ in range(s)] for _ in range(s)]
    for i, j, k in [*((0, q, q) for q in range(s)), (1, 1, 4), (2, 2, 3), (2, 3, 4)]:
        table[i][j][k] = table[j][i][k] = 1
    return from_structure_constants(["1", "x", "y", "y2", "y3"], table)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_non_graded_table_matches_the_oracles(seed):
    # The monomial walk in x and y keeps 1, x, x^2 = y^3, y and y^2, none
    # above degree 2, so only the walk over the powers of m gives height 3.
    A = non_graded_algebra()
    walked = derivations.monomial_walk(A.products, A.unit().coeffs, A.generators)
    degrees = [0]
    for _, t in walked[2][1:]:
        degrees.append(degrees[t] + 1)
    assert max(degrees) == 2
    if seed is not None:
        A = scrambled(A, random.Random(seed))
    assert (A.dim, A.height, A.width) == (5, 3, 2)
    if seed is None:
        assert A.generators == (1, 2)
    basis = derivation_basis(A)
    oracle = derivation_basis_oracle(A)
    assert len(basis) == len(oracle) == 5
    for d, dense in zip(basis, oracle):
        assert_one_form(A, d, dense)
    assert lie_structure(basis).brackets == lie_structure_oracle(basis)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_bracket_matches_dense_commutator(name):
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)[:6]
    for d1 in basis:
        m1 = [list(row) for row in d1.matrix]
        for d2 in basis:
            m2 = [list(row) for row in d2.matrix]
            expected = mat_sub(mat_mul(m1, m2), mat_mul(m2, m1))
            assert_one_form(A, bracket(d1, d2), expected)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_derivation_arithmetic_matches_dense_oracle(name):
    # Sums, scalar multiples, negations and module multiples are built from
    # sparse columns; each must equal its dense matrix oracle.  d + (-d)
    # cancels every entry, so a sum that kept zero entries fails here.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    rng = random.Random(67)
    basis = derivation_basis(A)[:4]
    table = A.table  # a view built on each read
    for d1, d2 in zip(basis, basis[1:] + basis[:1]):
        m1, m2 = d1.matrix, d2.matrix
        assert_one_form(A, d1 + d2, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(m1, m2)])
        assert_one_form(A, d1 + (-d1), [[0] * s for _ in range(s)])
        assert_one_form(A, -d1, [[-x for x in row] for row in m1])
        for c in (rand_fraction(rng), 3, 0):
            assert_one_form(A, c * d1, [[c * x for x in row] for row in m1])
        a = rand_element(rng, A)
        # M_a from the raw table: column q of M_a is a * e_q.
        mult = [
            [sum(a.coeffs[i] * table[i][q][k] for i in range(s)) for q in range(s)]
            for k in range(s)
        ]
        assert_one_form(A, module_scale(a, d1), mat_mul(mult, [list(row) for row in m1]))


def test_oracle_applies_the_dual_number_rescale():
    assert derivation_basis_oracle(truncated_polynomial_algebra(1, 0)) == []
    assert derivation_basis_oracle(dual_numbers()) == [F([[0, 0], [0, -1]])]


def test_non_derivation_matrix_rejected():
    D = dual_numbers()
    # ε -> 1 kills the unit but leaves m: D(ε·ε) = 0 != 2ε·D(ε).
    with pytest.raises(ValueError, match=r"basis pair \(1, 1\)"):
        Derivation(D, F([[0, 1], [0, 0]]))
    A = truncated_polynomial_algebra(1, 2)
    with pytest.raises(ValueError):
        Derivation(A, F([[0, 0, 0], [0, 1, 0], [0, 0, 1]]))  # Leibniz fails
    # Only the s x s entries would be stored, so other shapes are refused.
    for rows in ([[0]], [[0, 0, 0], [0, 0, -1]], [[0, 0], [0, -1], [0, 0]]):
        with pytest.raises(ValueError, match="must be 2 x 2"):
            Derivation(D, F(rows))


def test_float_matrix_rejected():
    # The Leibniz scan proves D(1) = 0 and D(m) ⊆ m only for exact entries.
    # On the dual numbers, D(1) = inf·ε and D(ε) = -ε pass it in floats:
    # pair (0, 0) reads inf = 2·inf.  A float multiple of a basis
    # derivation is refused too, although its values are exact.
    D = dual_numbers()
    A = truncated_polynomial_algebra(2, 2)
    halved = [[0.5 * x for x in row] for row in derivation_basis(A)[3].matrix]
    for algebra, matrix in ((D, [[0.0, 0.0], [math.inf, -1.0]]), (A, halved)):
        with pytest.raises(ValueError, match="derivation matrix entries must be ints or Fractions"):
            Derivation(algebra, matrix)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_checking_constructor_names_the_dense_scans_first_failing_pair(name):
    # Perturb one entry of each of a few basis matrices; the constructor
    # names the first pair the dense scan finds, from the sparse index and
    # without a dense matrix-vector product, which the package does not have.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    rng = random.Random(s)
    cases = []
    for d in derivation_basis(A)[:3]:
        matrix = [list(row) for row in d.matrix]
        p, q = rng.randrange(s), rng.randrange(s)
        matrix[p][q] += rand_fraction(rng) or 1
        cases.append((matrix, leibniz_oracle(A, matrix)))

    assert_no_dense_products()
    for matrix, pair in cases:
        if pair is None:
            assert leibniz_residual(A, matrix) is None
            continue
        with pytest.raises(ValueError) as exc:
            Derivation(A, matrix)
        assert str(exc.value) == f"matrix violates the Leibniz identity on basis pair {pair}"


def test_dimension_is_basis_independent():
    rng = random.Random(23)
    A = truncated_polynomial_algebra(1, 3)
    r = len(derivation_basis(A))
    s = A.dim
    for _ in range(3):
        # change of basis fixing the unit and mixing the ideal
        block = rand_invertible(rng, s - 1)
        change = la.identity(s)
        for i in range(1, s):
            for j in range(1, s):
                change[i][j] = block[i - 1][j - 1]
        inverse = invert_oracle(change)
        table = []
        for i in range(s):
            col_i = [change[p][i] for p in range(s)]
            row = []
            for j in range(s):
                col_j = [change[p][j] for p in range(s)]
                product = _mul_in(A, col_i, col_j)
                row.append(mat_vec(inverse, product))
            table.append(row)
        B = from_structure_constants([f"b{i}" for i in range(s)], table)
        assert len(derivation_basis(B)) == r


def _mul_in(A, u, v):
    element = A.element(u) * A.element(v)
    return list(element.coeffs)


def test_bracket_examples():
    A = truncated_polynomial_algebra(1, 2)
    d1, d2 = derivation_basis(A)  # x -> x and x -> x^2
    assert bracket(d1, d1).is_zero()
    assert bracket(d1, d2).matrix == d2.matrix
    rng = random.Random(5)
    for _ in range(10):
        c1 = [rand_fraction(rng) for _ in range(2)]
        c2 = [rand_fraction(rng) for _ in range(2)]
        e1 = c1[0] * d1 + c1[1] * d2
        e2 = c2[0] * d1 + c2[1] * d2
        lhs = bracket(e1, e2)
        rhs = bracket(e2, e1)
        assert lhs.matrix == tuple(tuple(-x for x in row) for row in rhs.matrix)


def test_bracket_algebra_mismatch():
    d = derivation_basis(dual_numbers())[0]
    e = derivation_basis(truncated_polynomial_algebra(1, 2))[0]
    with pytest.raises(ValueError):
        bracket(d, e)


def test_module_scale_examples():
    D = dual_numbers()
    d0 = derivation_basis(D)[0]
    assert module_scale(D.unit(), d0).matrix == d0.matrix
    assert module_scale(D.basis_element(1), d0).is_zero()

    A = truncated_polynomial_algebra(1, 2)
    d1, d2 = derivation_basis(A)
    x = A.basis_element(1)
    scaled = module_scale(x, d1)
    assert scaled.matrix == d2.matrix
    # oracle: matrix product M_x D1, with column q of M_x the product x * e_q
    s = A.dim
    columns = [raw_table_mul(A.table, x.coeffs, [Fraction(int(p == q)) for p in range(s)]) for q in range(s)]
    oracle = mat_mul([list(row) for row in zip(*columns)], [list(r) for r in d1.matrix])
    assert scaled.matrix == tuple(tuple(row) for row in oracle)


def test_module_scale_refuses_an_inexact_element():
    # A float or a polynomial coordinate would give a derivation with
    # entries that are not ints or Fractions.
    A = truncated_polynomial_algebra(1, 2)
    d = derivation_basis(A)[0]
    x = Polynomial.variable(1, 0)
    for a in (A.element([1.0, 0.5, 0]), AlgebraElement(A, (Fraction(1), x, Fraction(0)))):
        with pytest.raises(ValueError, match="^a module multiple needs an element with int or"):
            module_scale(a, d)


def test_module_scale_action_pointwise():
    rng = random.Random(9)
    A = truncated_polynomial_algebra(2, 2)
    basis = derivation_basis(A)
    for _ in range(10):
        a = rand_element(rng, A)
        d = basis[rng.randrange(len(basis))]
        u = rand_element(rng, A)
        assert module_scale(a, d).apply(u) == a * d.apply(u)


def test_lie_structure_dual_numbers_abelian():
    lie = lie_structure(derivation_basis(dual_numbers()))
    assert lie.rank == 1
    assert lie.brackets == {}
    assert lie_constants_to_json(lie) == []


def test_lie_structure_x3():
    lie = lie_structure(derivation_basis(truncated_polynomial_algebra(1, 2)))
    assert lie.brackets == {(0, 1): {1: Fraction(1)}}  # [d0, d1] = d1
    assert lie_constants_to_json(lie) == [[0, 1, 1, "1/1"], [1, 0, 1, "-1/1"]]  # [d1, d0] = -d1


def test_lie_structure_jacobi():
    for A in (dual_numbers(), truncated_polynomial_algebra(1, 2), truncated_polynomial_algebra(2, 1)):
        lie = lie_structure(derivation_basis(A))
        assert jacobi_residual(lie) == 0


def test_jacobi_residual_matches_full_sum():
    # Random antisymmetric constants are generally not a Lie algebra; the
    # i < j < k loop must find the same worst defect as all index triples.
    rng = random.Random(31)
    r = 4
    g = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(r):
                g[i][j][k] = rand_fraction(rng)
                g[j][i][k] = -g[i][j][k]
    full = max(
        abs(sum(g[i][j][m] * g[m][k][l] + g[j][k][m] * g[m][i][l] + g[k][i][m] * g[m][j][l]
                for m in range(r)))
        for i in range(r) for j in range(r) for k in range(r) for l in range(r)
    )
    basis = tuple(derivation_basis(truncated_polynomial_algebra(2, 1)))
    assert len(basis) == r
    lie = LieStructure(basis, sparse_brackets(g))
    assert full > 0
    assert jacobi_residual(lie) == full


def test_lie_structure_of_gl4():
    # m^2 = 0 in R[x1..x4]/m^2, so every linear map of m is a derivation:
    # Der = gl(4), r = 16.  The canonical basis derivation E_ab sends x_b
    # to x_a; its single non-zero entry is matrix[a][b] = 1.
    n = 4
    lie = lie_structure(derivation_basis(truncated_polynomial_algebra(n, 1)))
    assert lie.rank == n * n
    index = {}
    for k, d in enumerate(lie.basis):
        [(a, b, x)] = [(p, q, x) for p, row in enumerate(d.matrix) for q, x in enumerate(row) if x]
        assert x == 1
        index[a, b] = k
    assert sorted(index) == [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
    expected = {}
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            coeffs = {}
            if i < j:
                if b == c:
                    coeffs[index[a, d]] = coeffs.get(index[a, d], 0) + 1
                if d == a:
                    coeffs[index[c, b]] = coeffs.get(index[c, b], 0) - 1
                coeffs = {k: Fraction(v) for k, v in coeffs.items() if v}
            if coeffs:
                expected[i, j] = coeffs
    assert lie.brackets == expected
    values = [c for coeffs in lie.brackets.values() for c in coeffs.values()]
    assert len(values) == n**3 - n == 60
    assert set(values) == {1, -1}


def test_lie_structure_not_closed():
    # [d1, d2 + d3] = d2 + 2 d3 escapes span(d1, d2 + d3)
    A = truncated_polynomial_algebra(1, 3)
    d1, d2, d3 = derivation_basis(A)
    with pytest.raises(NotClosedError):
        lie_structure([d1, d2 + d3])


def test_lie_structure_dependent_basis_rejected():
    A = truncated_polynomial_algebra(1, 2)
    d1, _ = derivation_basis(A)
    with pytest.raises(ValueError):
        lie_structure([d1, Fraction(2) * d1])


def test_exp_flow_identity_at_zero():
    d = derivation_basis(dual_numbers())[0]
    phi = exp_flow(d, 0.0)
    assert phi.matrix == ((1.0, 0.0), (0.0, 1.0))


def test_exp_flow_dual_scaling():
    # with d0(ε) = -ε, exp(-t d0) scales ε by e^t
    D = dual_numbers()
    d0 = derivation_basis(D)[0]
    t = 0.8
    phi = exp_flow(d0, -t)
    value = phi.apply(D.basis_element(1))
    assert abs(value.coeffs[1] - math.exp(t)) < 1e-12
    assert value.coeffs[0] == 0.0


def test_exp_flow_matches_series_oracle():
    A = truncated_polynomial_algebra(1, 3)
    for d in derivation_basis(A):
        phi = exp_flow(d, 1.3)
        oracle = expm_series_oracle([[1.3 * float(x) for x in row] for row in d.matrix])
        for i in range(A.dim):
            for j in range(A.dim):
                assert abs(phi.matrix[i][j] - oracle[i][j]) < 1e-12


def test_exp_flow_nilpotent_terminates():
    # strictly lowering derivation: exponential equals the short series sum
    A = truncated_polynomial_algebra(1, 3)
    d = derivation_basis(A)[1]  # x -> x^2 raises degree, nilpotent
    phi = exp_flow(d, 1.0)
    oracle = expm_series_oracle(d.matrix, terms=A.dim)
    for i in range(A.dim):
        for j in range(A.dim):
            assert abs(phi.matrix[i][j] - oracle[i][j]) < 1e-12


def test_exp_flow_rejects_overflowing_time():
    d = derivation_basis(dual_numbers())[0]  # d(ε) = -ε
    with pytest.raises(ValueError, match="flow time too large"):
        exp_flow(Fraction(4) * d, 1e308)  # t*D overflows before the squarings
    with pytest.raises(ValueError, match="flow time too large"):
        exp_flow(d, -1e308)  # t*D is finite, but exp(tD) scales ε by e^(1e308)
    assert exp_flow(d, 1e308).matrix == ((1.0, 0.0), (0.0, 0.0))


def test_exp_flow_group_law():
    A = truncated_polynomial_algebra(1, 2)
    d = derivation_basis(A)[0]
    lhs = exp_flow(d, 0.7).compose(exp_flow(d, 0.5))
    rhs = exp_flow(d, 1.2)
    for i in range(A.dim):
        for j in range(A.dim):
            assert abs(lhs.matrix[i][j] - rhs.matrix[i][j]) < 1e-10


def test_exp_flow_multiplicative():
    rng = random.Random(31)
    for A in (dual_numbers(), truncated_polynomial_algebra(1, 3), truncated_polynomial_algebra(2, 1)):
        basis = derivation_basis(A)
        for _ in range(5):
            d = basis[0]
            for extra in basis[1:]:
                d = d + Fraction(rng.randint(-1, 1)) * extra
            t = rng.uniform(-2.0, 2.0)
            assert multiplicativity_residual(exp_flow(d, t)) <= 1e-9


def test_automorphism_fixes_unit_exactly():
    for A in (dual_numbers(), truncated_polynomial_algebra(2, 2)):
        for d in derivation_basis(A)[:2]:
            phi = exp_flow(d, 1.7)
            image = phi.apply(A.unit())
            assert image.coeffs[0] == 1.0
            assert all(c == 0.0 for c in image.coeffs[1:])


def test_exp_flow_derivative_at_zero():
    # central finite difference of exp(tD) at t = 0 recovers D
    A = truncated_polynomial_algebra(1, 3)
    h = 1e-5
    for d in derivation_basis(A):
        plus = exp_flow(d, h)
        minus = exp_flow(d, -h)
        for i in range(A.dim):
            for j in range(A.dim):
                fd = (plus.matrix[i][j] - minus.matrix[i][j]) / (2 * h)
                assert abs(fd - float(d.matrix[i][j])) < 1e-6


def float_bits(matrix):
    """Type and repr of every entry: equal exactly when the floats are
    bit for bit equal, signs of zeros included."""
    return [[(type(x), repr(x)) for x in row] for row in matrix]


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_float_products_match_dense_reference(name):
    # exp_flow, compose and apply skip zero factors; the dense float
    # product sums every term in the same order, so the floats must agree
    # bit for bit.  t = 23 and -1.9 need squarings, 0.37 does not.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    rng = random.Random(53)
    basis = derivation_basis(A) or [Derivation(A, ((Fraction(0),) * A.dim,) * A.dim)]  # s = 1
    picks = basis[:2] + [basis[-1] + Fraction(1, 3) * basis[0] + Fraction(-5, 7) * basis[len(basis) // 2]]
    for d in picks:
        for t in (0.37, -1.9, 23.0):
            phi = exp_flow(d, t)
            assert float_bits(phi.matrix) == float_bits(exp_flow_oracle(d.matrix, t))
            psi = exp_flow(d, -t / 3)
            assert float_bits(phi.compose(psi).matrix) == float_bits(
                float_mat_mul_oracle(phi.matrix, psi.matrix)
            )
            u = rand_element(rng, A)
            for v in (u, A.element([float(c) / 7 for c in u.coeffs]), A.unit()):
                coords = [float(c) for c in v.coeffs]
                reference = [plain_sum(row[q] * coords[q] for q in range(A.dim)) for row in phi.matrix]
                assert float_bits([phi.apply(v).coeffs]) == float_bits([reference])


@pytest.mark.parametrize(
    "name",
    [
        "truncated-2-3",
        "truncated-2-4",
        "truncated-3-3",
        "quotient-x3-y2-xy2",
        "scrambled-m3-41",
        "scrambled-x3-y2-xy2-7",
        "scrambled-x2-y2-z2-11",
    ],
)
def test_exp_flow_reads_the_float_copy_bit_for_bit(name):
    # The zero entries of tD are float(0) * t, signed zero included; the
    # sparse rows leave them out, and the floats must still be those of
    # the dense reference.  t = 1e3 needs many squarings; where the dense
    # reference overflows, exp_flow refuses.  A non-finite t is refused
    # before any product, for the zero derivation too, whose dense t*D
    # would be nan throughout.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    compared = 0
    for d in [*basis[:3], basis[-1] + Fraction(-2, 9) * basis[0], Fraction(0) * basis[0]]:
        for t in (0.0, -0.0, 2, Fraction(-3, 4), -1e-300, 0.37, -1.9, 7.5, 23.0, 1e3):
            expected = exp_flow_oracle(d.matrix, t)
            if all(math.isfinite(x) for row in expected for x in row):
                assert float_bits(exp_flow(d, t).matrix) == float_bits(expected)
                compared += t == 1e3
            else:
                with pytest.raises(ValueError, match="exp\\(tD\\) overflows"):
                    exp_flow(d, t)
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="t\\*D overflows"):
                exp_flow(d, t)
    assert compared >= 2


# name -> SHA-256 of the exp(tD) records of ``_flow_records``, taken when
# Automorphism still stored the dense matrix that dense products formed.
FLOW_DIGESTS = {
    "quotient-x2": "78f067bfc3733c5ab1eb854e41a1520b3b4b768b9c60f5cbc8ec571dbff58362",
    "quotient-x2-y2-z2": "ea0cf5394bc3336dd711479b9838126f51b5452178ec5726b1af1c2df02fdcbd",
    "quotient-x2-y3": "aee89774adedf48541f3a27c64fe2ed52fd6679c7b29995a4459e58845a7774e",
    "quotient-x2-y3-xy": "a2ddcf4b8050869f2b64c3a06416fed353990ed0176c7d4cb01d18e565293da1",
    "quotient-x3-y2-xy2": "d8434b4d4fc65167e24b3428143dabc28e3573eb87b58d39c8fb3828bb78e961",
    "quotient-x3-y3-xy2": "c9ec6b77c8c46f867414c5fa29265a9ccd5ee6b242cd3ab69ecbf8c7415633ec",
    "quotient-x4-y2": "ade59276ffc3e3eb89a03039786541f96c26cdb608bc73af723d4d622ce51618",
    "scrambled-dual-3": "78f067bfc3733c5ab1eb854e41a1520b3b4b768b9c60f5cbc8ec571dbff58362",
    "scrambled-m3-41": "01a1edab6a08d726750d783bb74e94850679c9e45c5f11f1b9d27e28c5e6ea6f",
    "scrambled-x2-y2-z2-11": "6087fc2427bb13594a9836d30a846eb5c5d762682b0ca17b37c4e0cd08727ffc",
    "scrambled-x3-y2-xy2-7": "390871e4382b84ff7de19500d1dafd593c49aca20c9f48dbff8ea10ee50029a4",
    "scrambled-x5-5": "d6dfbafb85340095883e29ae3cd3f6bd8057c5bdb9c76ab6bb151f66784083f1",
    "truncated-1-0": "e03966719a51b661cef17446a94ed6f3e55c0e35faa67fa47f3db85bd8e98431",
    "truncated-1-1": "78f067bfc3733c5ab1eb854e41a1520b3b4b768b9c60f5cbc8ec571dbff58362",
    "truncated-1-14": "85b67a13363842156a1384253118926616d03d92478e51d4b9f37a03e88e7ecf",
    "truncated-1-2": "f3a1a9dfab6098306189ade35bce3c851db884bf47c8677a3536a701848af023",
    "truncated-1-3": "16e3337bd79495fab9ab8fc09190f5840e54b0f4afeedb9e5f509b627a1caf6f",
    "truncated-1-5": "c404b4e0f1a34ad555b3fc5cd15464aecc309353c8dcd54cf77036b9c4c1be24",
    "truncated-1-9": "d77698bccfe82a9c65d2fd4566f5abd97a28200be26493dd64e7f8abdb7b5cb4",
    "truncated-2-1": "f03863588d980f46c1e144cf8743f95022e6a7ba742ec38440fa0c6691038dba",
    "truncated-2-2": "ac4772df07aeb7aab431ab94c9a9a229b8021cfe4d4a0a77f5734ac60281883e",
    "truncated-2-3": "602293d720d7ac98eb3d920471c5d6b96b3cd13fe87dc8089b984a5ca4d0d385",
    "truncated-2-4": "710b75f08ac5db018e7b3349f64e03517747c9efcd53bce7414ea107d9d88454",
    "truncated-3-1": "304356ba888f2b7489c195f15d4205395fee2b8a5d4707cb43afae1b3730ad17",
    "truncated-3-2": "7a001e8971b4b9bd3655bc062fcc25482d8b48db936f6a3dac4a0264cfd1ee34",
    "truncated-3-3": "fb53b663bb38835a2fd64579de0a70e83f92b6282479b8a6cc5205de3f98744b",
    "truncated-4-1": "411000dd591092ce7a8a7a007e377d53e77f1ff52b3f597474aee39a0c92649a",
    "truncated-4-2": "ffd1853dd5a07232bb8db9c66f65077692d68302a2c5383a686dbeca74741e3b",
    "truncated-5-1": "63f1e8b1810cbbe60bc62a754707652c800cafe69156e9ca44893c49b4da3468",
    "truncated-8-1": "0e4b8a5e40fd3809d3fd2ab50a3465d2a681a1f3f83978311e34fc91d3c65316",
}


def _flow_records(name) -> list:
    """float_bits of exp(tD).matrix, or the message it raises, for every
    basis derivation of the algebra, a combination and the zero
    derivation, at t = +-0.0, -1.9, 0.37, 23 and 1e3."""
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A) or [Derivation(A, ((Fraction(0),) * A.dim,) * A.dim)]  # s = 1
    records = []
    for d in [*basis, basis[-1] + Fraction(-2, 9) * basis[0], Fraction(0) * basis[0]]:
        for t in (0.0, -0.0, -1.9, 0.37, 23.0, 1e3):
            try:
                records.append(float_bits(exp_flow(d, t).matrix))
            except ValueError as exc:
                records.append(str(exc))
    return records


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_exp_flow_matrix_is_the_dense_one(name):
    # The dense view of the stored rows is, entry for entry, the matrix
    # that exp_flow built densely.
    records = _flow_records(name)
    assert hashlib.sha256(repr(records).encode("utf-8")).hexdigest() == FLOW_DIGESTS[name]


def test_exp_flow_norm_adds_left_to_right(monkeypatch):
    # D(x) = x + 2^-53 (x^2 + ... + x^13) + 18 x^14 on R[x]/x^15.  Row 14
    # of D is 18, twelve entries below half an ulp of 18, then 14: added
    # left to right it is exactly 32, so t = 1/64 scales it to 0.5 and
    # needs no squaring, while a compensated sum, as Python 3.12's sum(),
    # rounds it above 32 and squares once more.  The number of squarings,
    # and so the bits of exp(tD), must not depend on how sum() rounds.
    A = truncated_polynomial_algebra(1, 14)
    s = A.dim
    image = {1: Fraction(1), 14: Fraction(18), **{a: Fraction(1, 2**53) for a in range(2, 14)}}
    matrix = [[Fraction(0)] * s for _ in range(s)]
    for q in range(1, s):  # D(x^q) = q x^(q-1) D(x)
        for a, c in image.items():
            if q - 1 + a < s:
                matrix[q - 1 + a][q] += q * c
    d = Derivation(A, matrix)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for t in (1.0, 1 / 64):
        assert float_bits(exp_flow(d, t).matrix) == float_bits(exp_flow_oracle(d.matrix, t))


def test_automorphism_keeps_every_entry_it_is_given():
    A = truncated_polynomial_algebra(1, 2)
    matrix = ((1.0, -0.0, 0.0), (math.inf, -0.0, Fraction(1, 3)), (0, -math.inf, 2.5))
    phi = Automorphism(A, matrix)
    assert float_bits(phi.matrix) == float_bits(matrix)
    assert phi.matrix is phi.matrix
    assert phi == Automorphism(A, [list(row) for row in matrix])
    u = A.element([Fraction(1, 2), -0.0, 3])
    assert float_bits([phi.apply(u).coeffs]) == float_bits([mat_vec(matrix, [0.5, -0.0, 3.0], 0.0)])


@pytest.mark.parametrize(
    "matrix",
    [[[1.0]], [[1.0, 0.0, 0.0]] * 2, [[1.0, 0.0, 0.0, 0.0]] * 3, [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0] * 3], []],
)
def test_automorphism_refuses_a_matrix_that_is_not_s_by_s(matrix):
    A = truncated_polynomial_algebra(1, 2)
    with pytest.raises(ValueError, match="^an automorphism matrix must be 3 x 3$"):
        Automorphism(A, matrix)


@pytest.mark.parametrize("name", ["truncated-2-3", "truncated-3-2", "quotient-x3-y2-xy2", "scrambled-m3-41"])
def test_apply_and_compose_match_the_dense_references(name):
    # Both skip zero entries and add from 0.0 in ascending column order,
    # on the rows that exp_flow stores and on rows given densely with
    # signed zeros and infinities; neither builds the dense view.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    rng = random.Random(29)
    basis = derivation_basis(A)
    flows = [exp_flow(d, t) for d in (basis[0], basis[-1] + Fraction(2, 5) * basis[1]) for t in (-1.9, 0.37, 23.0)]
    given = []
    for _ in range(3):
        rows = [[rng.choice((0.0, -0.0, 0.0, rng.uniform(-2, 2))) for _ in range(s)] for _ in range(s)]
        rows[rng.randrange(s)][rng.randrange(s)] = rng.choice((math.inf, -math.inf))
        given.append(Automorphism(A, tuple(map(tuple, rows))))
    points = [rand_element(rng, A), A.element([rng.uniform(-3, 3) for _ in range(s)]), A.element([-0.0] * s)]
    fresh = exp_flow(basis[1], -1.9)
    fresh.apply(points[1])
    assert "matrix" not in fresh.compose(fresh).__dict__ and "matrix" not in fresh.__dict__
    for phi in flows:
        for psi in flows[:2] + given:
            for a, b in ((phi, psi), (psi, phi), (psi, psi)):
                dense_a, dense_b = [list(row) for row in a.matrix], [list(row) for row in b.matrix]
                product = a.compose(b)
                assert float_bits(product.matrix) == float_bits(mat_mul(dense_a, dense_b, 0.0))
    for phi in flows + given:
        for u in points:
            coords = [float(c) for c in u.coeffs]
            image = phi.apply(u)
            assert float_bits([image.coeffs]) == float_bits([mat_vec(phi.matrix, coords, 0.0)])


def chain_degree(matrix, t: float, cap: int = 18) -> int:
    """The largest k <= cap for which some entry of (tD)^k has a term: the
    boolean powers of the support of tD, until one is empty."""
    support = [{q for q, x in enumerate(row) if float(x) * t} for row in matrix]
    power, k = support, 0
    while any(power) and k < cap:
        k += 1
        power = [set().union(*(support[q] for q in row)) for row in power]
    return k


def test_flows_form_their_products_in_one_place(monkeypatch):
    # Each Horner step, one per degree of the support of tD up to the
    # series' 18, each squaring and compose are one call of the sparse
    # product; no flow multiplies anywhere else.
    calls = []
    product = derivations._product

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(derivations, "_product", counted)
    squared, degrees = 0, set()
    for name in ("truncated-1-1", "truncated-2-3", "scrambled-m3-41"):
        build, args = ORACLE_CORPUS[name]
        for d in derivation_basis(build(*args)):
            for t in (0.0, 0.37, -1.9, 23.0):
                norm = max(plain_sum(abs(float(x) * t) for x in row) for row in d.matrix)
                squarings = 0
                while norm > 0.5:
                    norm /= 2.0
                    squarings += 1
                calls.clear()
                phi = exp_flow(d, t)
                degree = chain_degree(d.matrix, t)
                assert len(calls) == degree + squarings
                squared += squarings > 0
                degrees.add(degree)
                calls.clear()
                phi.compose(phi)
                assert len(calls) == 1
    assert squared >= 3
    assert degrees == {0, 1, 2, 3, 18}


def test_flow_converts_every_coordinate_to_float():
    # exp(tD) underflows to 0.0 in the nilpotent column, so no product reads
    # the coordinate there, and flow still refuses it as beyond the float range.
    A = dual_numbers()
    d = derivation_basis(A)[0]
    assert all(row[1] == 0.0 for row in exp_flow(d, 1000.0).matrix)
    point = NearPoint((A.element([Fraction(1, 2), Fraction(10**400)]),))
    with pytest.raises(ValueError, match="^component ξ1 of the point overflows floating point$"):
        flow(A, d, -1000.0, point)


def test_derivation_float_copy_is_read_by_float_coordinates_only():
    # With a poisoned float copy, apply reads it for coordinates that are
    # all floats, and exp_flow reads it; exact, mixed and polynomial
    # coordinates never do.
    A = truncated_polynomial_algebra(2, 2)
    d = derivation_basis(A)[1]
    exact = d.matrix
    d.__dict__["float_nonempty"] = [
        (q, tuple((p, c + 1.0) for p, c in column)) for q, column in d.float_nonempty
    ]
    rng = random.Random(4)
    x = Polynomial.variable(1, 0)
    s = A.dim
    for coords in (
        [rand_fraction(rng) for _ in range(s)],
        [(rand_fraction(rng), rng.uniform(-1, 1))[q % 2] for q in range(s)],
        [rand_fraction(rng) * x + 2 for _ in range(s)],
        [Fraction(0)] + [rng.uniform(-1, 1) for _ in range(s - 1)],
    ):
        value = d.apply(AlgebraElement(A, tuple(coords))).coeffs
        assert float_bits([value]) == float_bits([mat_vec(exact, coords)])
    floats = [rng.uniform(-1, 1) for _ in range(s)]
    assert d.apply(AlgebraElement(A, tuple(floats))).coeffs != tuple(mat_vec(exact, floats))
    assert exp_flow(d, 0.5).matrix != tuple(map(tuple, exp_flow_oracle(exact, 0.5)))


def test_derivation_entry_beyond_float_range_has_no_float_copy():
    A = truncated_polynomial_algebra(1, 2)
    d = Fraction(10**400) * derivation_basis(A)[0]
    assert d.float_nonempty is None
    with pytest.raises(ValueError, match="a derivation entry overflows floating point"):
        exp_flow(d, 0.0)
    u = AlgebraElement(A, (0.5, 0.25, -0.0))
    with pytest.raises(ValueError, match="^the derivation's image overflows floating point$"):
        d.apply(u)
    with pytest.raises(OverflowError):
        mat_vec(d.matrix, u.coeffs)
    # The induced field reaches the same image at a float point, through
    # its value, its chart coordinates and its action on a lifted function.
    field = induced_field(A, d, 1)
    point = NearPoint((AlgebraElement(A, (0.5, 0.25, 0.0)),))
    for value in (
        lambda: field.value_at(point),
        lambda: chart_flatten(field, point),
        lambda: field_apply(field, Polynomial.variable(1, 0), point),
    ):
        with pytest.raises(ValueError, match="^the induced field's value overflows floating point$"):
            value()


def test_automorphism_refuses_a_coordinate_beyond_the_float_range():
    # apply converts every coordinate to float: an exact one beyond the
    # float range is a ValueError, and flow names the component; an element
    # of another algebra is refused first, by apply as by flow.
    A = truncated_polynomial_algebra(1, 2)
    d = derivation_basis(A)[0]
    with pytest.raises(ValueError, match="^a coordinate of the element overflows floating point$"):
        exp_flow(d, 0.1).apply(A.element([10**400, 0, 0]))
    point = NearPoint((A.element([Fraction(1, 2), Fraction(1, 4), 0]), A.element([10**400, 0, 0])))
    with pytest.raises(ValueError, match="^component ξ2 of the point overflows floating point$"):
        flow(A, d, 0.1, point)
    other = derivation_basis(truncated_polynomial_algebra(1, 3))[0]
    for apply in (
        lambda: exp_flow(other, 0.1).apply(point.components[1]),
        lambda: flow(A, other, 0.1, point),
    ):
        with pytest.raises(ValueError, match="^element belongs to a different algebra$"):
            apply()


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_apply_matches_dense_product(name):
    # apply scatters coordinates through the sparse columns.  It must equal
    # mat_vec bit for bit: a zero coordinate of the point still contributes
    # its (signed zero) product, so an output coordinate whose only terms
    # are 0.0 or -0.0 is the float 0.0, not Fraction(0), and float sums
    # round the same way only in ascending column order.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    rng = random.Random(61)
    basis = derivation_basis(A) or [Derivation(A, ((Fraction(0),) * s,) * s)]  # s = 1
    combination = basis[0]
    for d in basis[1:]:
        combination = combination + rand_fraction(rng) * d
    for d in basis[:3] + [basis[-1], combination]:
        assert d.columns[0] == {}  # D kills the unit: an empty column
        exact = [rand_fraction(rng) for _ in range(s)]
        floats = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-4, 4) for _ in range(s)]
        points = [
            exact,
            floats,
            [x if q % 2 else y for q, (x, y) in enumerate(zip(exact, floats))],
            [(0.0, -0.0, x, y)[q % 4] for q, (x, y) in enumerate(zip(exact, floats))],
            [-0.0] * s,
            [0.0] * s,
        ]
        for coeffs in points:
            got = d.apply(A.element(coeffs)).coeffs
            assert float_bits([got]) == float_bits([mat_vec(d.matrix, coeffs)])


def test_derivation_json_wire_format():
    d = derivation_basis(dual_numbers())[0]
    wire = derivation_to_json(d)
    assert wire == [["0/1", "0/1"], ["0/1", "-1/1"]]
    assert rational_from_json(wire[1][1]) == Fraction(-1)


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_package_never_builds_the_dense_view(name):
    """The solver, brackets, module multiples, the JSON writer, the
    distribution, the involutivity check and the flows read the sparse
    columns only: none of them builds the cached dense ``matrix``."""
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    rng = random.Random(7)
    basis = derivation_basis(A)
    derived = [bracket(d1, d2) for d1 in basis[:4] for d2 in basis[:4]]
    derived += [module_scale(rand_element(rng, A), d) for d in basis[:4]]
    involved = basis + derived
    wire = [derivation_to_json(d) for d in involved]
    point = rand_near_point(rng, A, 2)
    distribution_at(A, basis, point)
    involutivity_check(lie_structure(basis))
    for d in basis[:3]:
        distribution_at(A, basis, flow(A, d, 0.5, point))
    assert not [d for d in involved if "matrix" in d.__dict__]
    assert wire == [
        [[f"{x.numerator}/{x.denominator}" for x in row] for row in d.matrix] for d in involved
    ]


SCRAMBLED_CORPUS = sorted(name for name in ORACLE_CORPUS if name.startswith("scrambled-"))


def integer_commutators_only(monkeypatch):
    """Make ``commutator_on`` refuse Fraction columns: it must be given
    integer columns."""
    original = derivations.commutator_on

    def integer_only(a, b, g):
        values = [x for columns in (a, b) for column in columns for x in column.values()]
        assert all(type(x) is int for x in values), "formed a commutator on Fraction columns"
        return original(a, b, g)

    monkeypatch.setattr(derivations, "commutator_on", integer_only)


@pytest.mark.parametrize("name", SCRAMBLED_CORPUS)
def test_bracket_on_scrambled_tables_is_formed_on_integers(name, monkeypatch):
    # Every basis derivation of a scrambled table has integer columns, so
    # every commutator column is formed in ints; the brackets are still
    # the dense commutators.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    basis = derivation_basis(A)
    integer_commutators_only(monkeypatch)
    for d1 in basis[:6]:
        m1 = [list(row) for row in d1.matrix]
        for d2 in basis:
            m2 = [list(row) for row in d2.matrix]
            expected = mat_sub(mat_mul(m1, m2), mat_mul(m2, m1))
            assert_one_form(A, bracket(d1, d2), expected)
    lie = lie_structure(basis)
    assert lie.brackets == lie_structure_oracle(basis)


@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize("name", ["truncated-2-2", "quotient-x3-y2-xy2", "truncated-1-5"])
def test_basis_on_tables_over_a_denominator_matches_the_oracle(name, rescale, monkeypatch):
    # A table whose constants share a denominator λ > 1 is walked on its
    # integer numerators, with the unit e_0/λ; the canonical basis is
    # still the one of the full Leibniz system over the Fraction table.
    build, args = ORACLE_CORPUS[name]
    base = build(*args)
    if rescale:
        A = from_structure_constants(base.labels, rescaled_table(base))
    else:
        A = scrambled(base, random.Random(41))
    assert A.products.denominator > 1
    walk = derivations.monomial_walk
    walked = []

    def integer_walk(products, unit, candidates):
        walked.append((products, unit))
        return walk(products, unit, candidates)

    monkeypatch.setattr(derivations, "monomial_walk", integer_walk)
    basis = derivation_basis(A)
    ((products, unit),) = walked
    assert all(type(c) is int for row in products for entry in row for _, c in entry)
    assert unit == [Fraction(1, A.products.denominator)] + [0] * (A.dim - 1)
    oracle = derivation_basis_oracle(A)
    assert len(basis) == len(oracle) == len(derivation_basis(base))
    for d, dense in zip(basis, oracle):
        assert_one_form(A, d, dense)
