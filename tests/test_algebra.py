"""Algebra construction, axiom verification, heights, widths, elements."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from weilkit import (
    AlgebraAxiomError,
    InfiniteDimensionalError,
    NoUnitError,
    NotAssociativeError,
    NotCommutativeError,
    NotLocalError,
    NotNilpotentError,
    Polynomial,
    dual_numbers,
    from_structure_constants,
    monomial_quotient_algebra,
    split_scalar_nilpotent,
    truncated_polynomial_algebra,
)
from weilkit import algebra
from weilkit.algebra import _sparse_products, _sparse_rows, integer_form, mul
from weilkit.jsonio import algebra_from_spec, algebra_to_spec
from weilkit.poly import signed_sum
from support import (
    ORACLE_CORPUS,
    assert_no_dense_products,
    associativity_oracle,
    block_product_table,
    coprime_denominators,
    coprime_table,
    moved_unit_table,
    mul_oracle,
    nullspace_oracle,
    rand_fraction,
    rand_nilpotent,
    raw_table_mul,
    rebased_table,
    rescaled_table,
    rref_oracle,
    scrambled,
    scrambled_table,
    typed,
)
from test_golden import INVALID


def dual_table():
    # basis (1, e) with e^2 = 0
    return [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]


def product_table():
    # R x R, componentwise product: (1,0) is a nontrivial idempotent
    return [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]


def test_dual_numbers_from_table():
    A = from_structure_constants(["1", "e"], dual_table())
    assert (A.dim, A.height, A.width) == (2, 1, 1)
    e = A.basis_element(1)
    assert (e * e).is_zero()


def test_product_algebra_rejected_not_local():
    with pytest.raises(NotLocalError):
        from_structure_constants(["a", "b"], product_table())


def test_product_algebra_oracle_has_idempotent():
    # independent witness: u = (1, 0) squares to itself in the raw table
    u = [Fraction(1), Fraction(0)]
    assert raw_table_mul(product_table(), u, u) == u


def test_complex_numbers_rejected_not_local():
    # a field extension: no nilpotents at all, maximal ideal (0) has
    # codimension 2, so the local-algebra shape fails
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    with pytest.raises(NotLocalError):
        from_structure_constants(["1", "i"], table)


def test_reals_are_a_weil_algebra():
    A = from_structure_constants(["1"], [[[1]]])
    assert (A.dim, A.height, A.width) == (1, 0, 0)
    assert A.maximal_ideal_basis() == ()


def test_no_unit_rejected():
    # x*x = 0 on a one-element basis: no unit exists
    with pytest.raises(NoUnitError):
        from_structure_constants(["x"], [[[0]]])


def test_not_commutative_rejected():
    table = [
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
    ]
    with pytest.raises(NotCommutativeError):
        from_structure_constants(["1", "e"], table)


def test_not_associative_rejected():
    # commutative, unital, but (e*e)*e != e*(e*e)
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(NotAssociativeError):
        from_structure_constants(["1", "e", "f"], table)


def _associativity_message(labels, table):
    """The NotAssociativeError message the verifier raises, or None."""
    try:
        from_structure_constants(labels, table)
    except NotAssociativeError as exc:
        return str(exc)
    except AlgebraAxiomError:
        return None
    return None


def _oracle_message(labels, table):
    triple = associativity_oracle(table)
    if triple is None:
        return None
    i, j, l = (labels[x] for x in triple)
    return f"({i}*{j})*{l} != {i}*({j}*{l})"


# Commutative tables with the unit e_0 that fail associativity in one way
# each.  "one-generator": the walk has one generator, so only the
# per-monomial condition L_{g M} = L_g L_M catches it.  "commutation": every
# kept monomial enters as a generator, so only the commutation of L_x and
# L_y catches (xy)y = x != 0 = x(yy).
NOT_ASSOCIATIVE = {
    "one-generator": (
        ["1", "e", "f"],
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
        ],
    ),
    "commutation": (
        ["1", "x", "y"],
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_ASSOCIATIVE))
def test_not_associative_names_the_first_failing_triple(name):
    labels, table = NOT_ASSOCIATIVE[name]
    expected = _oracle_message(labels, table)
    assert expected is not None
    with pytest.raises(NotAssociativeError) as exc:
        from_structure_constants(labels, table)
    assert str(exc.value) == expected


# The corpus algebras whose tables are also checked over a random basis: a
# dense table of fractional constants, so the raw table's index has a
# common denominator above 1.  The oracle's triple scan of a dense table
# takes O(s^5) Fraction products, so these stop at s = 8.
REBASED = sorted(name for name, (build, args) in ORACLE_CORPUS.items() if build(*args).dim <= 8)


@pytest.mark.parametrize(
    "name, rebased",
    [pytest.param(name, False, id=name) for name in sorted(ORACLE_CORPUS)]
    + [pytest.param(name, True, id=f"{name}-rebased") for name in REBASED],
)
def test_associativity_verdicts_match_the_triple_scan(name, rebased):
    # The corpus table itself, then copies with one symmetric entry of m * m
    # perturbed: commutativity and the unit e_0 survive, associativity
    # mostly does not.  A rebased case changes the basis of each table
    # after the perturbation, which keeps all three properties as they are.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    basis_rng = random.Random(1000 + s)

    def rebase(table):
        return rebased_table(table, basis_rng) if rebased else table

    labels = [f"a{i}" for i in range(s)]
    table = [[list(entry) for entry in row] for row in A.table]
    good = rebase(table)
    assert _associativity_message(labels, good) is None
    assert associativity_oracle(good) is None
    rng = random.Random(s)
    for _ in range(3 if s > 1 else 0):
        i, j, k = rng.randrange(1, s), rng.randrange(1, s), rng.randrange(s)
        bad = [[list(entry) for entry in row] for row in table]
        bad[i][j][k] += 1
        if i != j:
            bad[j][i][k] += 1
        bad = rebase(bad)
        assert _associativity_message(labels, bad) == _oracle_message(labels, bad)


def _locality_oracle(labels, table):
    """The locality verdict on a commutative, unital, associative raw table
    by constructive checks: the radical is the kernel of the Gram matrix of
    the trace form (x, y) -> Tr(L_{xy}), read by dense Gauss-Jordan
    elimination; it must have dimension s - 1, each kernel vector x must
    have x^s = 0, and each product of two kernel vectors must lie in the
    kernel again.  Returns (error class, message), or the labels of the
    reduced kernel basis and its free column."""
    s = len(table)
    table = [[[Fraction(c) for c in entry] for entry in row] for row in table]
    traces = [sum(table[i][q][q] for q in range(s)) for i in range(s)]
    gram = [[sum(c * t for c, t in zip(entry, traces)) for entry in row] for row in table]
    kernel = nullspace_oracle(gram, s)
    if len(kernel) != s - 1:
        return NotLocalError, (
            f"nilpotent elements span dimension {len(kernel)}, expected {s - 1}; "
            "the algebra contains a nontrivial idempotent or semisimple part"
        )
    for x in kernel:
        power = x
        for _ in range(s - 1):
            power = raw_table_mul(table, power, x)
        if any(power):
            return NotNilpotentError, "candidate maximal ideal contains a non-nilpotent element"
    for x, y in itertools.combinations_with_replacement(kernel, 2):
        z = raw_table_mul(table, x, y)
        if any(sum(g * c for g, c in zip(row, z)) for row in gram):
            return NotLocalError, "nilpotent elements do not form an ideal"
    leads = {next(k for k, c in enumerate(x) if c) for x in kernel}
    (free,) = set(range(s)) - leads
    return tuple(signed_sum(zip(x, labels), sep="") for x in kernel), free


def _locality_cases():
    """Commutative, unital, associative raw tables, local or not, by name."""
    cases = {
        "R x R": product_table(),
        "C": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
        "Q(sqrt 2)": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]],
    }
    for name in ("R x R", "C", "Q(sqrt 2)"):
        cases[f"{name} rebased"] = rebased_table(cases[name], random.Random(5))
    for name in REBASED:
        build, args = ORACLE_CORPUS[name]
        A = build(*args)
        s = A.dim
        table = [[list(entry) for entry in row] for row in A.table]
        cases[name] = table
        cases[f"{name} scrambled"] = scrambled_table(A, random.Random(s))
        if s > 2:
            cases[f"{name} unit at {s // 2}"] = moved_unit_table(table, s // 2)
        # The perturbations of the associativity test that stay associative.
        rng, basis_rng = random.Random(s), random.Random(1000 + s)
        for q in range(3 if s > 1 else 0):
            i, j, k = rng.randrange(1, s), rng.randrange(1, s), rng.randrange(s)
            bad = [[list(entry) for entry in row] for row in table]
            bad[i][j][k] += 1
            if i != j:
                bad[j][i][k] += 1
            if associativity_oracle(bad) is None:
                cases[f"{name} perturbed {q}"] = bad
                cases[f"{name} perturbed {q} rebased"] = rebased_table(bad, basis_rng)
    for name in ("truncated-1-1", "truncated-2-1", "quotient-x2-y3"):
        build, args = ORACLE_CORPUS[name]
        table = [[list(entry) for entry in row] for row in build(*args).table]
        for k in (2, 3):
            t = truncated_polynomial_algebra(1, k - 1).table
            cases[f"{name} x R[t]/t^{k} scrambled"] = rebased_table(block_product_table(table, t), random.Random(k))
    return cases


def test_locality_verdicts_match_the_constructive_checks():
    # The verifier reads locality off the trace alone (see
    # from_structure_constants); the oracle runs the constructive checks,
    # and none of their other verdicts may be reached.  The cases cover
    # both verdicts and a free column at 0, at s - 1 and inside.
    verdicts = set()
    for name, table in _locality_cases().items():
        labels = [f"a{i}" for i in range(len(table))]
        expected = _locality_oracle(labels, table)
        try:
            A = from_structure_constants(labels, table)
        except NotLocalError as exc:
            assert expected == (NotLocalError, str(exc)), name
            verdicts.add("NotLocal")
            continue
        oracle_labels, free = expected
        assert A.labels[1:] == oracle_labels, name
        verdicts.add("free " + ("0" if free == 0 else "last" if free == A.dim - 1 else "inside"))
    assert verdicts == {"NotLocal", "free 0", "free last", "free inside"}


def test_unit_found_in_permuted_basis():
    # dual numbers listed nilpotent-first: normalisation reorders the basis
    table = [
        [[0, 0], [1, 0]],
        [[1, 0], [0, 1]],
    ]
    A = from_structure_constants(["e", "u"], table)
    assert (A.dim, A.height, A.width) == (2, 1, 1)
    assert A.labels[0] == "1"
    nil = A.basis_element(1)
    assert (nil * nil).is_zero()


def test_unit_found_as_basis_combination():
    # dual numbers over the skew basis (1 + e, e): the unit is b0 - b1
    table = [
        [[1, 1], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    A = from_structure_constants(["b0", "b1"], table)
    assert (A.dim, A.height, A.width) == (2, 1, 1)
    assert A.labels == ("1", "b1")
    assert (A.basis_element(1) ** 2).is_zero()
    assert A.unit() * A.basis_element(1) == A.basis_element(1)


def test_truncated_polynomial_dimensions():
    assert dual_numbers().dim == 2
    A = truncated_polynomial_algebra(1, 2)
    assert (A.dim, A.height, A.width) == (3, 2, 1)
    B = truncated_polynomial_algebra(2, 1)
    assert (B.dim, B.height, B.width) == (3, 1, 2)


def test_truncated_polynomial_binomial_dimension():
    for nv in (1, 2, 3):
        for k in (0, 1, 2, 3):
            A = truncated_polynomial_algebra(nv, k)
            assert A.dim == math.comb(nv + k, k)


def test_monomial_quotient_dual():
    A = monomial_quotient_algebra(("x",), [(2,)])
    assert (A.dim, A.height, A.width) == (2, 1, 1)


def test_monomial_quotient_standard_basis():
    A = monomial_quotient_algebra(("x", "y"), [(2, 0), (0, 3), (1, 1)])
    assert A.dim == 4
    assert A.labels == ("1", "x", "y", "y^2")


def test_monomial_quotient_infinite_dimensional():
    with pytest.raises(InfiniteDimensionalError):
        monomial_quotient_algebra(("x", "y"), [(2, 0)])


def test_elem_mul_examples():
    D = dual_numbers()
    e = D.basis_element(1)
    assert (e * e).is_zero()
    u = D.element([Fraction(2), Fraction(-5)])
    assert D.unit() * u == u
    A = truncated_polynomial_algebra(1, 2)
    assert (A.basis_element(1) * A.basis_element(2)).is_zero()


def test_elem_mul_algebra_mismatch():
    with pytest.raises(ValueError):
        dual_numbers().unit() * truncated_polynomial_algebra(1, 2).unit()


def test_split_scalar_nilpotent():
    D = dual_numbers()
    u = D.element([3, 2])
    scalar, nil = split_scalar_nilpotent(u)
    assert scalar == 3
    assert nil == 2 * D.basis_element(1)
    assert split_scalar_nilpotent(D.unit()) == (1, D.zero())
    A = truncated_polynomial_algebra(1, 2)
    v = A.element([0, 1, 1])
    assert split_scalar_nilpotent(v) == (0, v)


def test_ideal_elements_are_nilpotent():
    rng = random.Random(17)
    for A in (dual_numbers(), truncated_polynomial_algebra(1, 3), truncated_polynomial_algebra(2, 2)):
        k = A.height
        for mu in A.maximal_ideal_basis():
            assert (mu ** (k + 1)).is_zero()
        for _ in range(10):
            mu = rand_nilpotent(rng, A)
            assert (mu ** (k + 1)).is_zero()


def test_height_is_minimal():
    for A in (dual_numbers(), truncated_polynomial_algebra(1, 3), truncated_polynomial_algebra(2, 2)):
        k = A.height
        ideal = A.maximal_ideal_basis()
        products = [A.unit()]
        for _ in range(k):
            products = [p * mu for p in products for mu in ideal]
        assert any(not p.is_zero() for p in products)


def test_structure_constants_roundtrip():
    for A in (dual_numbers(), truncated_polynomial_algebra(2, 2)):
        spec = algebra_to_spec(A)
        B = algebra_from_spec(spec)
        assert B == A


def test_element_formatting():
    D = dual_numbers()
    assert str(D.element([3, 2])) == "3 + 2*ε"
    assert str(D.element([Fraction(-1, 2), 1])) == "-1/2 + ε"
    assert str(D.zero()) == "0"


# ------------------------------------------------------------ product kernel


# Raw tables over a random basis: their constants are fractions, so the
# kernel's table-wide denominator is above 1.
RAW_TABLES = {
    f"raw-{name}-{seed}": (build, args, seed)
    for name, build, args, seed in [
        ("dual", truncated_polynomial_algebra, (1, 1), 3),
        ("m3", truncated_polynomial_algebra, (2, 2), 41),
        ("x3-y2-xy2", monomial_quotient_algebra, (["x", "y"], [(3, 0), (0, 2), (1, 2)]), 7),
    ]
}


def kernel_products(name):
    if name in RAW_TABLES:
        build, args, seed = RAW_TABLES[name]
        return _sparse_products(_sparse_rows(scrambled_table(build(*args), random.Random(seed))))
    build, args = ORACLE_CORPUS[name]
    return build(*args).products


def kernel_operands(rng, s):
    """Coordinate vectors of every kind the kernel meets, ordered so that
    neighbours can be multiplied (a polynomial takes no float)."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return [
        [Fraction(rng.randint(-10**30, 10**30), rng.choice([2**127 - 1, 3**80])) for _ in range(s)],
        [rng.randint(-9, 9) for _ in range(s)],
        [Fraction(0)] * s,
        [0] * s,
        [rand_fraction(rng) * x + rng.randint(-3, 3) * y for _ in range(s)],
        [rand_fraction(rng) for _ in range(s)],
        [rng.uniform(-2, 2) for _ in range(s)],
        [(0.0, -0.0, rand_fraction(rng), rng.uniform(-1, 1))[q % 4] for q in range(s)],
        # floats among exact zeros, then terms that underflow to signed
        # zeros or overflow to inf and nan
        [(0.0, -0.0, Fraction(0), rng.uniform(-1, 1), 0)[q % 5] for q in range(s)],
        [(1e-200, -1e-200, 1e200, -0.0)[q % 4] for q in range(s)],
    ]


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS) + sorted(RAW_TABLES))
def test_mul_matches_the_fraction_loop(name):
    # Exact operands run on integer numerators; every result must be the
    # same Fraction as the term-by-term loop, and float, mixed and
    # polynomial operands the same bits.
    products = kernel_products(name)
    assert products.numerators is not None
    if name in RAW_TABLES:
        assert products.denominator > 1
    operands = kernel_operands(random.Random(name), len(products))
    for u, v in zip(operands, operands[1:] + operands[:1]):
        for a, b in ((u, u), (u, v), (v, u)):
            assert typed(mul(products, a, b)) == typed(
                mul_oracle(products, a, b, Fraction(0))
            )


def test_float_copy_is_read_by_float_operands_only():
    # With a poisoned float copy, operands whose non-zero coordinates are
    # all floats on one side read it, and exact, mixed and polynomial ones
    # never do.
    rng = random.Random(9)
    products = _sparse_products(truncated_polynomial_algebra(2, 2).products)
    s = len(products)
    products.floats = tuple(
        tuple(tuple((k, c + 1.0) for k, c in entry) for entry in row) for row in products.floats
    )
    x = Polynomial.variable(2, 0)
    poly = [rand_fraction(rng) * x + 1 for _ in range(s)]
    exact = [rand_fraction(rng) for _ in range(s)]
    mixed = [(rand_fraction(rng), rng.uniform(-1, 1))[q % 2] for q in range(s)]
    floats = [rng.uniform(-1, 1) for _ in range(s)]
    for u, v in [(poly, exact), (exact, poly), ([0.0] * s, poly), (exact, exact), (mixed, mixed)]:
        assert typed(mul(products, u, v)) == typed(mul_oracle(products, u, v, Fraction(0)))
    for u, v in [(floats, exact), (mixed, floats)]:
        assert mul(products, u, v) != mul_oracle(products, u, v, Fraction(0))


def test_an_exact_value_that_rounds_to_zero_keeps_its_float_terms():
    # Fraction's mixed arithmetic turns a non-zero value below the float
    # range into 0.0 and still forms its terms, so the outputs they reach
    # are the floats of the plain loop, not the Fraction(0) of an output
    # that no term reaches.
    products = truncated_polynomial_algebra(1, 2).products
    tiny = [Fraction(0), Fraction(-1, 10**400), Fraction(0)]
    for floats in ([0.0, -0.5, 0.0], [2.0, 0.5, -0.0]):
        for u, v in ((tiny, floats), (floats, tiny)):
            assert typed(mul(products, u, v)) == typed(mul_oracle(products, u, v, Fraction(0)))


def test_kernel_walks_either_driving_list_bit_for_bit():
    # For each u_i the kernel walks the shorter of the row's non-empty
    # products and the non-zero v_j.  Unit vectors v on a dense scrambled
    # table take the v_j, dense operands on a monomial table the rows (but
    # the unit's); on exact, float and mixed operands either walk must give
    # the term-by-term loop, type for type and signed zero for signed zero.
    rng = random.Random(30)
    dense = kernel_products("raw-m3-41")
    monomial = truncated_polynomial_algebra(3, 3).products
    assert all(len(row) > 1 for row in dense.nonempty)
    assert [len(row) < len(monomial) for row in monomial.nonempty] == [False] + [True] * 19
    for products in (dense, monomial):
        s = len(products)
        assert products.nonempty == tuple(
            tuple(j for j in range(s) if products[i][j]) for i in range(s)
        )
        for _ in range(3):
            exact = [rand_fraction(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(s)]
            floats = [rng.choice([rng.uniform(-2, 2), 0.0, -0.0]) for _ in range(s)]
            mixed = [rng.choice([rand_fraction(rng), rng.uniform(-1, 1), -0.0]) for _ in range(s)]
            if products is dense:
                j = rng.randrange(s)
                unit, float_unit = [Fraction(0)] * s, [0.0] * s
                unit[j], float_unit[j] = Fraction(1), 1.0
                cases = [(exact, unit), (floats, float_unit), (mixed, unit)]
            else:
                cases = [(exact, exact[::-1]), (floats, floats[::-1]), (mixed, exact)]
            for u, v in cases:
                for a, b in ((u, v), (v, u)):
                    assert typed(mul(products, a, b)) == typed(
                        mul_oracle(products, a, b, Fraction(0))
                    )


def test_constant_beyond_float_range_keeps_the_fraction_loop():
    # A constant beyond the float range gets no float copy; float operands
    # then take the loop on the constants, which raises where a term needs
    # float() of that constant, and not where none does.
    s = 3
    table = [[[Fraction(0)] * s for _ in range(s)] for _ in range(s)]
    for i in range(s):
        table[0][i][i] = table[i][0][i] = Fraction(1)
    table[1][1][2] = Fraction(10**400)
    A = from_structure_constants(["1", "a", "b"], table)
    assert A.products.floats is None
    u = [0.5, 0.25, -0.0]
    with pytest.raises(OverflowError):
        mul_oracle(A.products, u, u, Fraction(0))
    with pytest.raises(OverflowError):
        mul(A.products, u, u)
    v = [0.5, 0.0, 0.125]
    assert typed(mul(A.products, v, u)) == typed(mul_oracle(A.products, v, u, Fraction(0)))


def test_operand_integer_form_is_bounded():
    # Small denominators, such as those of rational chart points, keep the
    # integer path; coordinates over many large coprime denominators, whose
    # lcm grows like their product, take the Fraction loop.
    rng = random.Random(21)
    s = 21
    A = truncated_polynomial_algebra(2, 5)
    assert A.dim == s
    small_primes = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)] + [Fraction(0)] * (s - 4)
    assert integer_form(small_primes) == ([105, 70, 42, 30] + [0] * (s - 4), 210)
    for _ in range(20):
        point = [Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(s)]
        assert integer_form(point) is not None
    assert integer_form([Fraction(1, 2**3000 + 1)] + [Fraction(3, 2**3000 + 1)] * (s - 1)) is not None
    primes = [p for p in range(2, 80) if all(p % q for q in range(2, p))][:s]
    coprime = [Fraction(rng.randint(1, 10**9), p ** (3840 // p.bit_length())) for p in primes]
    assert integer_form(coprime) is None
    for v in (A.unit().coeffs, small_primes):
        assert typed(mul(A.products, coprime, v)) == typed(
            mul_oracle(A.products, coprime, v, Fraction(0))
        )


def test_coprime_denominators_keep_the_fraction_loop():
    # The lcm of coprime denominators grows like their product, so a table
    # full of them gets no integer form: the unverified raw table is
    # rejected, and a valid one multiplies through the Fraction loop.
    rng = random.Random(12)
    s = 12
    dens = iter(coprime_denominators(s**3))
    raw = [[[Fraction(rng.randint(1, 10**9), next(dens)) for _ in range(s)] for _ in range(s)] for _ in range(s)]
    assert _sparse_products(_sparse_rows(raw)).numerators is None
    with pytest.raises(AlgebraAxiomError):
        from_structure_constants([f"e{i}" for i in range(s)], raw)
    labels, table = coprime_table(3, rng)
    A = from_structure_constants(labels, table)
    assert (A.dim, A.height) == (7, 2)
    assert A.products.numerators is None
    assert (A.basis_element(1) * A.basis_element(2)).coeffs == tuple(table[1][2])
    operands = kernel_operands(rng, A.dim)
    for u, v in zip(operands, operands[1:] + operands[:1]):
        assert typed(mul(A.products, u, v)) == typed(
            mul_oracle(A.products, u, v, Fraction(0))
        )


def _corpus_raw_tables() -> dict:
    """The raw tables of the scrambled corpus algebras, by name."""
    raw = {}
    for name, (_, params) in ORACLE_CORPUS.items():
        if name.startswith("scrambled-"):
            build, args, seed = params
            raw[name] = scrambled_table(build(*args), random.Random(seed))
    return raw


def test_unit_solve_matches_gauss_jordan():
    # The unit is solved for on the sparse echelon, with the right-hand side
    # of u * e_j = e_j past the limit; the oracle solves the dense system by
    # Gauss-Jordan.  Perturbing one symmetric constant of a raw table keeps
    # it commutative and mostly leaves no unit.
    rng = random.Random(3)
    tables = [dual_table(), product_table(), [[[0]]]]
    for table in _corpus_raw_tables().values():
        s = len(table)
        i, j, k = rng.randrange(s), rng.randrange(s), rng.randrange(s)
        bad = [[list(entry) for entry in row] for row in table]
        bad[i][j][k] += 1
        if i != j:
            bad[j][i][k] += 1
        tables += [table, bad]
    found = []
    for table in tables:
        s = len(table)
        rows = [
            [Fraction(table[i][j][k]) for i in range(s)] + [Fraction(int(j == k))]
            for j in range(s)
            for k in range(s)
        ]
        red, pivots = rref_oracle(rows)
        expected = None
        if s not in pivots:
            expected = [Fraction(0)] * s
            for row, pc in zip(red, pivots):
                expected[pc] = row[s]
        unit = algebra._find_unit(_sparse_products(_sparse_rows(table)))
        assert unit == expected
        found.append(unit is not None)
    assert any(found) and not all(found)


def test_verifier_forms_no_dense_matrix_products():
    # Every check at the trust boundary, and the change to the normalised
    # basis, multiplies through the one sparse kernel, on valid tables and
    # on tables that fail an axiom; the package has no dense product.
    assert_no_dense_products()
    raw = _corpus_raw_tables()
    for table in raw.values():
        assert from_structure_constants([f"f{i}" for i in range(len(table))], table).dim == len(table)
    for spec in INVALID.values():
        with pytest.raises(AlgebraAxiomError):
            algebra_from_spec(spec)


def test_verifier_multiplies_on_integers_within_the_budget(monkeypatch):
    # A raw table within the integer-form budget is verified on its integer
    # form from the start: the kernel never enters its Fraction loop.
    raw = _corpus_raw_tables()
    fraction_loop = algebra.mul_loop

    def integer_loop_only(table, nonempty, u, v, start):
        # The integer table is a Products too, its own ``numerators``.
        assert table.numerators is table, "mul entered the Fraction loop"
        return fraction_loop(table, nonempty, u, v, start)

    indexed = [_sparse_products(_sparse_rows(table)) for table in raw.values()]
    assert all(products.numerators is not None for products in indexed)
    assert any(products.denominator > 1 for products in indexed)
    monkeypatch.setattr(algebra, "mul_loop", integer_loop_only)
    for name, table in raw.items():
        A = from_structure_constants([f"f{i}" for i in range(len(table))], table)
        assert A == ORACLE_CORPUS[name][0](*ORACLE_CORPUS[name][1]), name


def test_denominators_of_up_to_64_bits_are_always_admitted():
    # Among many integers one constant over 2^63 (64 bits) is admitted,
    # although its denominator counted once per value outgrows twice their
    # bits; one over 2^64 (65 bits) is refused by that budget.
    ones = [Fraction(1)] * 200
    form = integer_form([Fraction(1, 2**63)] + ones)
    assert form == ([1] + [2**63] * 200, 2**63)
    assert integer_form([Fraction(1, 2**64)] + ones) is None
    # Beyond 64 bits the budget still admits a denominator shared by few values.
    assert integer_form([Fraction(1, 2**64), Fraction(3, 2**64)]) == ([1, 3], 2**64)


SMALL_CORPUS = [name for name, (build, args) in ORACLE_CORPUS.items()
                if not name.startswith("scrambled-") and build(*args).dim <= 10]


def assert_integer_numerators(products) -> list:
    """``products`` carries every constant as an integer over the lcm of
    their denominators, checked against math.lcm and against each constant
    times that lcm; returns the constants."""
    constants = [c for row in products for entry in row for _, c in entry]
    assert products.numerators is not None
    assert products.denominator == math.lcm(*(c.denominator for c in constants))
    for row, integer_row in zip(products, products.numerators):
        for entry, integer_entry in zip(row, integer_row):
            assert [(k, c * products.denominator) for k, c in entry] == list(integer_entry)
            assert all(type(n) is int for _, n in integer_entry)
    return constants


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_normalised_scrambled_tables_have_integer_numerators(name):
    # Every normalised table of a scrambled algebra up to s = 10 carries its
    # constants as integers.  So does the same algebra over the rescaled
    # basis, whose lcm the 64-bit floor admits where the budget alone would
    # not (for every algebra here above s = 3 but R[x]/x^3 and the
    # square-zero ones).
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    for seed in (41, 7):
        assert_integer_numerators(scrambled(A, random.Random(seed)).products)
    rescaled = from_structure_constants(A.labels, rescaled_table(A))
    constants = assert_integer_numerators(rescaled.products)
    den = rescaled.products.denominator
    assert den.bit_length() <= 64
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in constants)
    if A.height > 1 and A.dim > 3:
        assert den.bit_length() * len(constants) > 2 * bits


@pytest.mark.parametrize("width", [2, 3, 4])
def test_coprime_tables_get_no_integer_numerators(width):
    # Pairwise coprime 60-bit denominators: their lcm is beyond 64 bits and
    # beyond the budget, on the raw table as on the normalised one.
    labels, table = coprime_table(width, random.Random(width))
    assert _sparse_products(_sparse_rows(table)).numerators is None
    assert from_structure_constants(labels, table).products.numerators is None
