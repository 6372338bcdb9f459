"""The exact kernel against independent oracles on random inputs: the
product kernel against the term-by-term loop, the integer echelon against
dense Gauss-Jordan elimination, the Lie structure against full
commutators, the exact distribution rank against the oracle's pivots,
polynomial values and field actions at near points against term-by-term
evaluation, flows against the full 18-step series, and parsed texts
against polynomial arithmetic.

Property tests with hypothesis, each with a small example count; the
module is skipped where hypothesis is not installed, so that the rest of
the suite never depends on it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import weilkit.linalg as la
from weilkit import (
    AlgebraElement,
    Derivation,
    NearPoint,
    Polynomial,
    derivation_basis,
    distribution_at,
    eval_in_algebra,
    exp_flow,
    field_apply,
    from_structure_constants,
    induced_field,
    lie_structure,
    monomial_quotient_algebra,
    parse_polynomial,
    truncated_polynomial_algebra,
)
from weilkit.algebra import _sparse_products, _sparse_rows, mul
from support import (
    ORACLE_CORPUS,
    coprime_denominators,
    coprime_table,
    exp_flow_rows_oracle,
    float_rank_oracle,
    lie_structure_oracle,
    mat_vec,
    minus_image_oracle,
    mul_oracle,
    nullspace_oracle,
    rescaled_table,
    rref_oracle,
    scrambled,
    scrambled_table,
    typed,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COORDINATES = st.one_of(
    st.fractions(max_denominator=10**12),
    st.integers(-(10**20), 10**20),
    st.floats(-1e6, 1e6),
    st.sampled_from([0, Fraction(0), 0.0, -0.0]),
)

# A monomial table (denominator 1) and two raw tables over a random basis,
# whose constants are fractions.
TABLES = {
    "truncated-2-2": truncated_polynomial_algebra(2, 2).products,
    "raw-m3-41": _sparse_products(
        _sparse_rows(scrambled_table(truncated_polynomial_algebra(2, 2), random.Random(41)))
    ),
    "raw-x3-y2-xy2-7": _sparse_products(
        _sparse_rows(
            scrambled_table(
                monomial_quotient_algebra(["x", "y"], [(3, 0), (0, 2), (1, 2)]), random.Random(7)
            )
        )
    ),
}


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(TABLES)), st.data())
def test_mul_matches_the_fraction_loop_on_random_coordinates(name, data):
    products = TABLES[name]
    assert products.numerators is not None
    vectors = st.lists(COORDINATES, min_size=len(products), max_size=len(products))
    u, v = data.draw(vectors), data.draw(vectors)
    assert typed(mul(products, u, v)) == typed(mul_oracle(products, u, v, Fraction(0)))


# ------------------------------------------------- the integer echelon


SETTINGS = hypothesis.settings(max_examples=30, deadline=None, database=None)
COPRIME = coprime_denominators(12)
ENTRIES = {
    "integer": st.integers(-40, 40),
    "small-rational": st.fractions(-5, 5, max_denominator=7),
    "coprime": st.builds(
        lambda n, d: Fraction(n, d), st.integers(-(10**18), 10**18), st.sampled_from(COPRIME)
    ),
}


@st.composite
def matrices(draw):
    """A matrix of rank at most k, as the product of n x k and k x m factors
    over one kind of entry, with entries zeroed at random."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(entry) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(k)]
    keep = draw(st.lists(st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols))
    return [
        [
            sum((a * b[j] for a, b in zip(row, right)), Fraction(0)) if keep[i * ncols + j] else Fraction(0)
            for j in range(ncols)
        ]
        for i, row in enumerate(left)
    ]


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_integer_echelon_matches_gauss_jordan(rows, data):
    ncols = len(rows[0])
    red, pivots = rref_oracle(rows)
    assert la.rref(rows) == (red, pivots)
    assert la.rank_with_tolerance(rows, 0) == len(pivots)
    null = la.null_vectors(la.back_reduce(la.echelon_form(rows)), ncols)
    dense = [[vec.get(j, Fraction(0)) for j in range(ncols)] for vec in null]
    assert rref_oracle(dense)[0] == nullspace_oracle(rows, ncols)
    # A right-hand side in column ncols, past the limit: the system is
    # inconsistent exactly when a row reduces to a non-zero remainder there,
    # and otherwise the reduced rows give the solution with free unknowns 0.
    rhs = data.draw(st.lists(ENTRIES["small-rational"], min_size=len(rows), max_size=len(rows)))
    for b in (rhs, mat_vec(rows, [Fraction(j + 1, 3) for j in range(ncols)])):
        aug_red, aug_pivots = rref_oracle([row + [y] for row, y in zip(rows, b)])
        echelon: dict = {}
        remainders = []
        for row, y in zip(rows, b):
            sparse = {j: x for j, x in enumerate(row) if x}
            if y:
                sparse[ncols] = y
            if not la.eliminate(echelon, sparse, ncols) and sparse:
                remainders.append(sparse)
        assert bool(remainders) == (ncols in aug_pivots)
        if not remainders:
            x = [Fraction(0)] * ncols
            for lead, row in la.back_reduce(echelon).items():
                x[lead] = row.get(ncols, Fraction(0))
            expected = [Fraction(0)] * ncols
            for row, pc in zip(aug_red, aug_pivots):
                expected[pc] = row[ncols]
            assert x == expected


@SETTINGS
@hypothesis.given(matrices())
def test_eliminate_leaves_the_exact_combination(rows):
    # Each row enters with a tracking column of its own.  A row that reduces
    # to zero below the limit leaves, as Fractions, the unique combination
    # of itself (coefficient 1) and the earlier independent rows that
    # vanishes; a row that joins the echelon is primitive over integers.
    ncols = len(rows[0])
    echelon: dict = {}
    independent = []
    for k, vector in enumerate(rows):
        row = {j: x for j, x in enumerate(vector) if x}
        row[ncols + k] = Fraction(1)
        if la.eliminate(echelon, row, ncols):
            independent.append(k)
            continue
        assert all(col >= ncols and type(x) is Fraction for col, x in row.items())
        combination = {col - ncols: x for col, x in row.items()}
        assert combination[k] == 1 and set(combination) <= set(independent) | {k}
        assert all(
            sum((c * rows[i][j] for i, c in combination.items()), Fraction(0)) == 0
            for j in range(ncols)
        )
    assert len(independent) == len(rref_oracle(rows)[1])
    for lead, row in echelon.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1



@st.composite
def float_matrices(draw):
    """(rows, tol): float rows with signed zeros, entries at exactly +-tol
    and twice it, and rows that are combinations of earlier ones; tol
    ranges from the least subnormal to inf."""
    tol = draw(st.sampled_from([5e-324, 1e-9, 0.25, 1.0, math.inf]))
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, tol, -tol, 2 * tol, -2 * tol]),
        st.floats(-4, 4),
        st.integers(-3, 3).map(float),
    )
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.sampled_from([1.0, -1.0, 0.5, tol]))
        rows.append([x + c * y for x, y in zip(a, b)])
    return rows, tol


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(float_matrices())
def test_float_rank_matches_the_per_entry_loop(case):
    # The row update as one slice comprehension is the arithmetic of the
    # per-entry loop, so the ranks agree, and the caller's rows stay as
    # they were.
    rows, tol = case
    before = repr(rows)
    assert la.rank_with_tolerance(rows, tol) == float_rank_oracle(rows, tol)
    assert repr(rows) == before


# ------------------------------------------- Lie structure and exact rank


SCRAMBLE_BASES = {
    "dual": truncated_polynomial_algebra(1, 1),
    "x5": truncated_polynomial_algebra(1, 4),
    "m3": truncated_polynomial_algebra(2, 2),
    "x3-y2-xy2": monomial_quotient_algebra(["x", "y"], [(3, 0), (0, 2), (1, 2)]),
}


@hypothesis.settings(max_examples=8, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(SCRAMBLE_BASES)), st.integers(0, 10**6))
def test_lie_structure_matches_full_commutators_on_scrambled_tables(name, seed):
    A = scrambled(SCRAMBLE_BASES[name], random.Random(seed))
    basis = derivation_basis(A)
    assert lie_structure(basis).brackets == lie_structure_oracle(basis)


COORDINATES_EXACT = st.one_of(
    st.fractions(-4, 4, max_denominator=6),
    st.integers(-5, 5),
    st.just(Fraction(0)),
    ENTRIES["coprime"],
)


@hypothesis.settings(max_examples=15, deadline=None, database=None)
@hypothesis.given(st.sampled_from(["m3", "x3-y2-xy2", "scrambled-m3"]), st.integers(1, 2), st.data())
def test_exact_distribution_rank_is_the_oracle_pivot_count(name, n, data):
    A = (
        scrambled(SCRAMBLE_BASES["m3"], random.Random(41))
        if name == "scrambled-m3"
        else SCRAMBLE_BASES[name]
    )
    basis = derivation_basis(A)
    components = []
    for _ in range(n):
        coords = data.draw(st.lists(COORDINATES_EXACT, min_size=A.dim, max_size=A.dim))
        components.append(AlgebraElement(A, tuple(coords)))
    sample = distribution_at(A, basis, NearPoint(tuple(components)))
    assert sample.tolerance == 0.0
    assert sample.rank == len(rref_oracle([list(g) for g in sample.generators])[1])


# ------------------------------- polynomial values at near points


def _eval_oracle(p, args):
    """p(args) term by term: each term's coefficient times the unit,
    multiplied by each argument once per unit of its exponent through
    mul_oracle, and the terms added to Fraction(0) coordinates."""
    algebra = args[0].algebra
    zero = Fraction(0)
    total = [zero] * algebra.dim
    for exp, coeff in p.terms():
        term = [coeff] + [zero] * (algebra.dim - 1)
        for arg, e in zip(args, exp):
            for _ in range(e):
                term = mul_oracle(algebra.products, term, arg.coeffs, zero)
        total = [x + y for x, y in zip(total, term)]
    return total


def _eval_algebras():
    m3 = truncated_polynomial_algebra(2, 2)
    m4 = truncated_polynomial_algebra(2, 3)
    algebras = {
        "m3": m3,
        "x3-y2-xy2": SCRAMBLE_BASES["x3-y2-xy2"],
        "scrambled-m3": scrambled(m3, random.Random(41)),
        "scrambled-x5": scrambled(SCRAMBLE_BASES["x5"], random.Random(3)),
        "rescaled-m4": from_structure_constants(m4.labels, rescaled_table(m4)),
        "coprime-2": from_structure_constants(*coprime_table(2, random.Random(2))),
    }
    return {name: (A, derivation_basis(A)) for name, A in algebras.items()}


EVAL_ALGEBRAS = _eval_algebras()
EXACT_COORDINATES = st.one_of(
    st.fractions(-4, 4, max_denominator=9),
    st.integers(-5, 5),
    st.just(Fraction(0)),
    ENTRIES["coprime"],
)


def test_eval_algebras_cover_every_kind_of_table():
    denominators = {
        name: A.products.denominator if A.products.numerators is not None else None
        for name, (A, _) in EVAL_ALGEBRAS.items()
    }
    assert denominators["m3"] == denominators["x3-y2-xy2"] == 1
    assert all(denominators[name] > 1 for name in ("scrambled-m3", "scrambled-x5", "rescaled-m4"))
    assert denominators["coprime-2"] is None


@st.composite
def polynomials(draw, nvars):
    """The zero polynomial, a constant, or a few terms of degree up to 4
    in each variable."""
    kind = draw(st.sampled_from(["zero", "constant", "terms"]))
    if kind == "zero":
        return Polynomial.zero(nvars)
    coefficients = st.fractions(-5, 5, max_denominator=6).filter(bool)
    if kind == "constant":
        return Polynomial.constant(nvars, draw(coefficients))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    return Polynomial(nvars, draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=4)))


@st.composite
def exact_points(draw, algebra, n):
    """A near point with exact components: ints, Fractions (small, or over
    60-bit coprime denominators) and zeros, or the zero-section point over
    a base of such scalars."""
    if draw(st.booleans()):
        base = draw(st.lists(EXACT_COORDINATES, min_size=n, max_size=n))
        zeros = (Fraction(0),) * (algebra.dim - 1)
        return NearPoint(tuple(AlgebraElement(algebra, (b,) + zeros) for b in base))
    coords = st.lists(EXACT_COORDINATES, min_size=algebra.dim, max_size=algebra.dim)
    return NearPoint(tuple(AlgebraElement(algebra, tuple(draw(coords))) for _ in range(n)))


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(EVAL_ALGEBRAS)), st.integers(1, 2), st.data())
def test_values_at_exact_points_match_term_by_term_evaluation(name, n, data):
    A, basis = EVAL_ALGEBRAS[name]
    p = data.draw(polynomials(n))
    point = data.draw(exact_points(A, n))
    want = _eval_oracle(p, point.components)
    assert typed(eval_in_algebra(p, point.components).coeffs) == typed(want)
    assert typed(point.eval(p).coeffs) == typed(want)
    d = basis[data.draw(st.integers(0, len(basis) - 1))]
    got = field_apply(induced_field(A, d, n), p, point)
    assert typed(got.coeffs) == typed(minus_image_oracle(d, want))


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(EVAL_ALGEBRAS)), st.data())
def test_values_at_mixed_points_keep_the_generic_path_bit_for_bit(name, data):
    A, basis = EVAL_ALGEBRAS[name]
    p = data.draw(polynomials(2))
    exact = data.draw(exact_points(A, 1)).components[0]
    floats = st.lists(st.floats(-2, 2), min_size=A.dim, max_size=A.dim)
    mixed = AlgebraElement(A, tuple(data.draw(floats)))
    args = (exact, mixed) if data.draw(st.booleans()) else (mixed, exact)
    want = p.evaluate(args, one=A.unit())
    assert typed(eval_in_algebra(p, args).coeffs) == typed(want.coeffs)
    d = basis[data.draw(st.integers(0, len(basis) - 1))]
    got = field_apply(induced_field(A, d, 2), p, NearPoint(args))
    assert typed(got.coeffs) == typed(minus_image_oracle(d, want.coeffs))


def test_value_at_the_coprime_point_matches_term_by_term_evaluation():
    # The CI's point on R[x,y]/m^4 over 60-bit pairwise coprime denominators,
    # and a polynomial of degree 8.
    A = truncated_polynomial_algebra(2, 3)
    basis = derivation_basis(A)
    dens = iter(coprime_denominators(30))

    def q(i):
        return Fraction((-1) ** i * (7 * i + 3), next(dens))

    base = [q(i) for i in range(3)]
    nilparts = [[q(3 + 9 * c + j) for j in range(9)] for c in range(3)]
    point = NearPoint(tuple(A.element([b] + row) for b, row in zip(base, nilparts)))
    p = parse_polynomial("x^8 - 3/2*x^3*y^4*z + x^2*(y - 2*z)^5 + 7", ["x", "y", "z"])
    want = _eval_oracle(p, point.components)
    assert typed(point.eval(p).coeffs) == typed(want)
    for d in basis[:4]:
        got = field_apply(induced_field(A, d, 3), p, point)
        assert typed(got.coeffs) == typed(minus_image_oracle(d, want))


# ------------------------------------------------------- element chains


def _chain_coordinates(rng, dim):
    """Exact (small or over 60-bit coprime denominators), float or mixed
    coordinates, zeros included; exact ones twice as often, since only
    they are kept on integers."""
    exact = [
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 9)),
        lambda: Fraction(rng.randint(-(10**18), 10**18), rng.choice(COPRIME)),
        lambda: Fraction(0),
    ]
    floats = [lambda: rng.uniform(-2, 2), lambda: rng.choice([0.0, -0.0])]
    kind = rng.choice(["exact", "exact", "float", "mixed"])
    coordinate = {"exact": exact, "float": floats, "mixed": exact + floats}[kind]
    return [rng.choice(coordinate)() for _ in range(dim)]


def _oracle_step(products, op, u, v, c, n):
    """One step of a chain on coordinate lists, term by term."""
    zero = Fraction(0)
    if op == "+":
        return [a + b for a, b in zip(u, v)]
    if op == "-":
        return [a - b for a, b in zip(u, v)]
    if op == "neg":
        return [-a for a in u]
    if op == "scale":
        return [c * a for a in u]
    if op == "*":
        return mul_oracle(products, u, v, zero)
    power = [Fraction(1)] + [zero] * (len(u) - 1)
    for _ in range(n):
        power = mul_oracle(products, power, u, zero)
    return power


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(EVAL_ALGEBRAS)), st.integers(0, 2**32 - 1))
def test_element_chains_match_the_term_by_term_chain(name, seed):
    # Products of exact elements are kept on integers, and so are the sums,
    # negations and rational multiples that reach them; every value must
    # read as the chain on coordinate lists gives it, type for type.
    A, _ = EVAL_ALGEBRAS[name]
    rng = random.Random(seed)
    pool = []
    for _ in range(rng.randint(1, 3)):
        coords = _chain_coordinates(rng, A.dim)
        pool.append((A.element(coords), coords))
    for _ in range(rng.randint(4, 12)):
        op = rng.choice(["+", "-", "neg", "scale", "*", "**"])
        (u, ou), (v, ov) = rng.choice(pool), rng.choice(pool)
        c = rng.choice([Fraction(rng.randint(-3, 3), rng.randint(1, 5)), rng.randint(-3, 3), rng.uniform(-2, 2)])
        n = rng.randint(0, 4)
        value = {"+": lambda: u + v, "-": lambda: u - v, "neg": lambda: -u,
                 "scale": lambda: c * u if rng.random() < 0.5 else u * c,
                 "*": lambda: u * v, "**": lambda: u**n}[op]()
        scalar = c if type(c) is float else Fraction(c)
        pool.append((value, _oracle_step(A.products, op, ou, ov, scalar, n)))
        if rng.random() < 0.3:  # some values are read before they are used again
            pool[-1][0].coeffs
    for value, want in pool:
        first = value.coeffs
        assert typed(first) == typed(want)
        assert value.coeffs == first


# ------------------------------------------------------------------ flows


FLOW_ALGEBRAS = {name: build(*args) for name, (build, args) in ORACLE_CORPUS.items()}
FLOW_BASES = {name: derivation_basis(A) for name, A in FLOW_ALGEBRAS.items()}


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(
    st.sampled_from(sorted(FLOW_ALGEBRAS)), st.data(), st.floats(1e-300, 50), st.booleans()
)
def test_flow_rows_match_the_full_series(name, data, magnitude, negative):
    # exp_flow starts Horner's rule at the longest chain of entries of tD;
    # the 18-step series gives the same floats, signed zeros included, and
    # stores the same entries, for every basis derivation and for 0.
    A, basis = FLOW_ALGEBRAS[name], FLOW_BASES[name]
    index = data.draw(st.integers(-1, len(basis) - 1))
    if index < 0:
        d = Derivation(A, ((Fraction(0),) * A.dim,) * A.dim)
    else:
        d = basis[index]
    t = -magnitude if negative else magnitude
    want = exp_flow_rows_oracle(d.float_columns, t)
    if want is None:
        with pytest.raises(ValueError, match="overflows floating point"):
            exp_flow(d, t)
        return
    got = exp_flow(d, t)._rows
    assert [[(j, repr(x)) for j, x in row] for row in got] == [
        [(j, repr(x)) for j, x in row] for row in want
    ]


# ---------------------------------------------------------------- parsing


PARSE_NAMES = ["x", "y", "z1"]


@st.composite
def factor_texts(draw, depth):
    """(text, polynomial) of one factor: a number, a variable or, above
    the innermost depth, a parenthesised sum, with a power or without."""
    nvars = len(PARSE_NAMES)
    kind = draw(st.sampled_from(["number", "variable", "group"][: 3 if depth < 2 else 2]))
    if kind == "number":
        n, d = draw(st.integers(0, 12)), draw(st.one_of(st.none(), st.integers(1, 9)))
        text, value = (str(n), n) if d is None else (f"{n}/{d}", Fraction(n, d))
        value = Polynomial.constant(nvars, value)
    elif kind == "variable":
        i = draw(st.integers(0, nvars - 1))
        text, value = PARSE_NAMES[i], Polynomial.variable(nvars, i)
    else:
        text, value = draw(sum_texts(depth + 1))
        text = f"({text})"
    if draw(st.booleans()):
        e = draw(st.integers(0, 3))
        text, value = f"{text}^{e}", value**e
    return text, value


@st.composite
def sum_texts(draw, depth=0):
    """(text, polynomial) of a signed sum of products of factors."""
    nvars = len(PARSE_NAMES)
    text, value = "", Polynomial.zero(nvars)
    for t in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+", "-"] if t else ["", "+", "-"]))
        factors = draw(st.lists(factor_texts(depth), min_size=1, max_size=4))
        product = Polynomial.constant(nvars, 1)
        for _, p in factors:
            product = product * p
        text += sign + "*".join(f for f, _ in factors)
        value = value - product if sign == "-" else value + product
    return text, value


_X, _Y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(sum_texts())
@hypothesis.example(("x*x^2", _X * _X**2))
@hypothesis.example(("0*(x+y)^2*x", Polynomial.zero(3)))
@hypothesis.example(("(x-y)^3*3/2*x^0*y", (_X - _Y) ** 3 * Fraction(3, 2) * _Y))
@hypothesis.example(("2*(x+1)*0^0*x", 2 * (_X + 1) * _X))
@hypothesis.example(("(16/3)*x*(y)^2*(-x)", Fraction(-16, 3) * _X**2 * _Y**2))
@hypothesis.example(("(x-x)*y+(x-y)^0", Polynomial.constant(3, 1)))
def test_parse_matches_polynomial_arithmetic(case):
    # A term multiplies its numbers, variable powers and parenthesised
    # single terms into one monomial, and only its parenthesised sums as
    # polynomials; the parse must be the polynomial that the same
    # expression builds by arithmetic.
    text, value = case
    parsed = parse_polynomial(text, PARSE_NAMES)
    assert parsed == value, text
    assert all(type(c) is Fraction for _, c in parsed.terms())
