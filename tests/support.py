"""Shared test helpers: independent oracles and random rational data.

The oracles deliberately avoid the library's solvers: derivation
dimensions are recomputed from a float constraint matrix via numpy's SVD
rank, the exact derivation basis from the full s^2-unknown Leibniz system
rather than from generators, the exact rank of the distribution at a
near point from the same system with the rows D(u_i) = 0 added, bracket constants from full s x s
commutators rather than generator columns, associativity from every basis
triple rather than a monomial walk, matrix exponentials by direct
series summation or by scaling and squaring on dense float products, the
reduced row echelon form by dense Gauss-Jordan elimination rather than
the sparse echelon, the float rank by updating one entry at a time
rather than one row slice at a time, Taylor values with every nilpotent power rebuilt
for each multi-index, products through the structure constants by the
term-by-term loop on the constants rather than on integer numerators or
float copies, the values of induced fields by a scatter from Fraction(0)
followed by a separate negation, and parsed polynomials by the old
parser, which builds every intermediate result as a Polynomial.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import numpy as np

import weilkit
import weilkit.linalg as linalg
import weilkit.poly as poly_module
from weilkit import (
    Polynomial,
    PolynomialParseError,
    WeilAlgebra,
    from_structure_constants,
    monomial_quotient_algebra,
    truncated_polynomial_algebra,
)


# ----------------------------------------------------------------- oracles


def derivation_dim_oracle(algebra: WeilAlgebra) -> int:
    """Brute-force nullspace dimension of the Leibniz system.

    Builds the full constraint matrix (all ordered basis pairs plus the
    unit condition) with float entries and counts solutions as
    s^2 - rank, rank taken by numpy's SVD.  Independent of the exact
    rational elimination used by the library.
    """
    s = algebra.dim
    table = [[[float(x) for x in entry] for entry in row] for row in algebra.table]
    rows = []
    for p in range(s):
        row = [0.0] * (s * s)
        row[p * s] = 1.0
        rows.append(row)
    for i in range(s):
        for j in range(s):
            for p in range(s):
                row = [0.0] * (s * s)
                for k in range(s):
                    row[p * s + k] += table[i][j][k]
                for m in range(s):
                    row[m * s + i] -= table[m][j][p]
                    row[m * s + j] -= table[m][i][p]
                rows.append(row)
    matrix = np.array(rows)
    return s * s - int(np.linalg.matrix_rank(matrix))


def leibniz_rows_oracle(algebra: WeilAlgebra) -> list:
    """The full Leibniz system, exactly: its unknowns are all s^2 matrix
    entries, row-major, and its rows are D(1) = 0 and the Leibniz identity
    on every basis pair i <= j, the zero rows left out."""
    s = algebra.dim
    table = algebra.table
    n_unknowns = s * s
    rows = []
    for p in range(s):
        row = [Fraction(0)] * n_unknowns
        row[p * s] = Fraction(1)  # D(1) = 0
        rows.append(row)
    for i in range(1, s):
        for j in range(i, s):
            for p in range(s):
                row = [Fraction(0)] * n_unknowns
                for k in range(s):
                    row[p * s + k] += table[i][j][k]
                for m in range(s):
                    # -(D(a_i) a_j)_p and -(a_i D(a_j))_p
                    row[m * s + i] -= table[m][j][p]
                    row[m * s + j] -= table[m][i][p]
                if any(row):
                    rows.append(row)
    return rows


def derivation_basis_oracle(algebra: WeilAlgebra) -> list:
    """Canonical derivation basis from the full Leibniz system
    (:func:`leibniz_rows_oracle`), exactly.

    The nullspace is returned as matrices in reduced row echelon form over
    row-major entries, and for a two-dimensional algebra the generator is
    rescaled to send the nilpotent basis element to minus itself: the
    output contract of ``derivation_basis``, computed without its
    generator walk.
    """
    s = algebra.dim
    n_unknowns = s * s
    rows = leibniz_rows_oracle(algebra)
    matrices = [
        tuple(tuple(vec[p * s : (p + 1) * s]) for p in range(s))
        for vec in nullspace_oracle(rows, n_unknowns)
    ]
    if s == 2 and len(matrices) == 1 and matrices[0][1][1] > 0:
        matrices = [tuple(tuple(-x for x in row) for row in matrices[0])]
    return matrices


@functools.cache
def _leibniz_echelon(algebra: WeilAlgebra) -> list:
    """[(pivot, sparse reduced row)] of :func:`leibniz_rows_oracle`, by
    :func:`rref_oracle`, once per algebra."""
    reduced, pivots = rref_oracle(leibniz_rows_oracle(algebra))
    return [(pc, [(j, x) for j, x in enumerate(row) if x]) for pc, row in zip(pivots, reduced)]


def stabilizer_dim_oracle(algebra: WeilAlgebra, point) -> int:
    """The dimension of the derivations that kill every component u_i of
    ``point``, exactly: the nullity of the full Leibniz system
    (:func:`leibniz_rows_oracle`, s^2 unknowns) with the n*s rows
    D(u_i)_p = sum_q D[p][q] u_i[q] = 0 added.  The induced generators
    are linear in D, so the rank of the distribution there is r minus it.

    The Leibniz system is reduced once per algebra (:func:`_leibniz_echelon`);
    each added row is cleared at its pivots, and the nullity is s^2 less
    the two ranks, that of the system and that of the cleared rows, read
    off the free columns."""
    s = algebra.dim
    pivot_rows = _leibniz_echelon(algebra)
    cleared = []
    for u in point.components:
        for p in range(s):
            row = [Fraction(0)] * (s * s)
            row[p * s : (p + 1) * s] = u.coeffs
            for pc, pivot_row in pivot_rows:
                f = row[pc]
                if f:
                    for j, x in pivot_row:
                        row[j] -= f * x
            cleared.append(row)
    return s * s - len(pivot_rows) - len(rref_oracle(cleared)[1])


def lie_structure_oracle(basis) -> dict:
    """Bracket constants of a derivation basis from full commutators.

    Each bracket is the s x s matrix D_i D_j - D_j D_i, expanded in the
    basis by one reduced echelon form of the basis over all s^2 matrix
    entries, with r columns that track the combination.  The dense r x r x r
    tensor is converted to the sparse form of ``LieStructure.brackets``:
    (i, j) -> {k: c} for i < j and the non-zero constants c, with no entry
    for a vanishing bracket.  Raises ValueError when the basis is dependent
    or a bracket leaves its span.
    """
    r = len(basis)
    if r == 0:
        return {}
    s = basis[0].algebra.dim
    length = s * s
    stacked = [
        [x for row in d.matrix for x in row] + [Fraction(int(t == k)) for t in range(r)]
        for k, d in enumerate(basis)
    ]
    reduced, pivots = linalg.rref(stacked)
    if len(pivots) != r or pivots[-1] >= length:
        raise ValueError("dependent basis")
    constants = [[None] * r for _ in range(r)]
    for i in range(r):
        constants[i][i] = (Fraction(0),) * r
        mi = [list(row) for row in basis[i].matrix]
        for j in range(i + 1, r):
            mj = [list(row) for row in basis[j].matrix]
            ab, ba = mat_mul(mi, mj), mat_mul(mj, mi)
            residual = [ab[p][q] - ba[p][q] for p in range(s) for q in range(s)]
            coords = [Fraction(0)] * r
            for row, pc in zip(reduced, pivots):
                f = residual[pc]
                if f:
                    residual = [x - f * y for x, y in zip(residual, row)]
                    coords = [c + f * y for c, y in zip(coords, row[length:])]
            if any(residual):
                raise ValueError("bracket outside the span")
            constants[i][j] = tuple(coords)
            constants[j][i] = tuple(-c for c in coords)
    return sparse_brackets(constants)


def sparse_brackets(constants) -> dict:
    """The pairs i < j of a dense antisymmetric r x r x r tensor, in the
    form of ``LieStructure.brackets``."""
    r = len(constants)
    brackets = {}
    for i in range(r):
        for j in range(i + 1, r):
            coeffs = {k: c for k, c in enumerate(constants[i][j]) if c}
            if coeffs:
                brackets[i, j] = coeffs
    return brackets


def rref_oracle(rows):
    """Reduced row echelon form by dense Gauss-Jordan elimination, column by
    column with row swaps.  Returns (reduced rows, pivot columns); the rows
    beyond the rank are zero.  Independent of the library's sparse echelon."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][col]
            if f == 0:
                continue
            ri, rr = m[i], m[r]
            for j in range(col, ncols):
                if rr[j]:
                    ri[j] -= f * rr[j]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace_oracle(rows, ncols):
    """Canonical basis of the right nullspace, from :func:`rref_oracle`: one
    vector per free column, the basis itself in reduced row echelon form."""
    red, pivots = rref_oracle(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return rref_oracle(basis)[0]


def invert_oracle(mat):
    """Inverse of a square rational matrix, read from :func:`rref_oracle` of
    [M | I]; ValueError when the matrix is singular."""
    n = len(mat)
    red, pivots = rref_oracle(
        [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def associativity_oracle(table):
    """First basis triple (i, j, l), in i, j, l order, with (e_i e_j) e_l !=
    e_i (e_j e_l), read straight from the raw table; None when there is none."""
    s = len(table)
    for i in range(s):
        for j in range(s):
            for l in range(s):
                left = [
                    sum((table[i][j][k] * table[k][l][p] for k in range(s) if table[i][j][k]), Fraction(0))
                    for p in range(s)
                ]
                right = [
                    sum((table[j][l][k] * table[i][k][p] for k in range(s) if table[j][l][k]), Fraction(0))
                    for p in range(s)
                ]
                if left != right:
                    return (i, j, l)
    return None


def leibniz_oracle(algebra: WeilAlgebra, matrix):
    """First basis pair (i, j), j >= i, in that order, with D(e_i e_j) !=
    D(e_i) e_j + e_i D(e_j) for the dense ``matrix`` of D, read straight
    from the dense table; None when there is none."""
    s = algebra.dim
    table = algebra.table
    units = [[Fraction(int(p == q)) for p in range(s)] for q in range(s)]
    columns = [[matrix[p][q] for p in range(s)] for q in range(s)]
    for i in range(s):
        for j in range(i, s):
            lhs = [sum((matrix[p][k] * table[i][j][k] for k in range(s)), Fraction(0)) for p in range(s)]
            rhs = [
                a + b
                for a, b in zip(
                    raw_table_mul(table, columns[i], units[j]),
                    raw_table_mul(table, units[i], columns[j]),
                )
            ]
            if lhs != rhs:
                return (i, j)
    return None


def expm_series_oracle(matrix, terms: int = 60):
    """Plain truncated series sum of the matrix exponential."""
    m = np.array([[float(x) for x in row] for row in matrix])
    out = np.eye(len(m))
    power = np.eye(len(m))
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ m
        factorial *= k
        out = out + power / factorial
    return out


def plain_sum(values, start=0):
    """sum(values, start) added left to right, as the builtin sum() adds
    floats before Python 3.12, which compensates it."""
    total = start
    for x in values:
        total = total + x
    return total


def compensated_sum(values, start=0):
    """The builtin sum() as Python 3.12 and later compute it on floats:
    compensated (here correctly rounded, by math.fsum) where the items are
    floats and the start an int or a float; the builtin sum otherwise."""
    values = list(values)
    if values and all(type(x) is float for x in values) and type(start) in (int, float):
        return math.fsum([start, *values])
    return _BUILTIN_SUM(values, start)


_BUILTIN_SUM = builtins.sum


def mat_vec(a, v: list, zero=Fraction(0)) -> list:
    """The dense product a v, each entry summed from ``zero`` over j in
    ascending order, skipping the zero entries of a."""
    return [plain_sum((row[j] * v[j] for j in range(len(v)) if row[j]), zero) for row in a]


def mat_mul(a, b, zero=Fraction(0)):
    """The dense product a b, accumulated over k in ascending order from
    ``zero``: a Fraction, or 0.0 for float matrices.  Zero factors are
    skipped; for finite floats a skipped term is a signed zero, which
    leaves a sum that started at +0.0 unchanged, so the result is bit for
    bit the full sum."""
    cols = len(b[0])
    out = [[zero] * cols for _ in a]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                if brow[j]:
                    orow[j] += aik * brow[j]
    return out


def assert_no_dense_products() -> None:
    """No weilkit module, ``weilkit.linalg`` included, defines or imports
    the dense products :func:`mat_vec` and :func:`mat_mul`: the package
    multiplies on sparse rows only."""
    for info in pkgutil.iter_modules(weilkit.__path__):
        module = importlib.import_module(f"weilkit.{info.name}")
        assert not {"mat_vec", "mat_mul"} & set(vars(module)), module.__name__


def float_mat_mul_oracle(a, b):
    """Dense float matrix product: every term, summed over k in ascending
    order from the int 0."""
    n = len(b)
    return [[plain_sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))] for i in range(len(a))]


def exp_flow_oracle(matrix, t: float, terms: int = 18):
    """exp(tD) by the scaling and squaring of ``exp_flow``, with every
    product dense: the float reference for the sparse products."""
    s = len(matrix)
    scaled = [[float(x) * float(t) for x in row] for row in matrix]
    norm = max((plain_sum(abs(x) for x in row) for row in scaled), default=0.0)
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    factor = 0.5 ** squarings
    scaled = [[x * factor for x in row] for row in scaled]
    coeffs = [1.0]
    for k in range(1, terms + 1):
        coeffs.append(coeffs[-1] / k)
    result = [[coeffs[terms] if i == j else 0.0 for j in range(s)] for i in range(s)]
    for k in range(terms - 1, -1, -1):
        result = float_mat_mul_oracle(scaled, result)
        for i in range(s):
            result[i][i] += coeffs[k]
    for _ in range(squarings):
        result = float_mat_mul_oracle(result, result)
    return result


def exp_flow_rows_oracle(columns, t: float, terms: int = 18):
    """The rows ``exp_flow`` stores for the derivation whose columns, with
    every entry as a float, are ``columns``, by all ``terms`` Horner steps
    of the series: the same scaling, then sparse products on dicts, each
    sum from 0.0 over the middle index ascending with zero factors
    skipped, and row i of the result as its pairs (j, x) in ascending j.
    None where an entry is not finite."""
    s = len(columns)
    rows = [[] for _ in range(s)]
    for q, column in enumerate(columns):
        for p, x in column.items():
            rows[p].append((q, x * t))
    norm = max(plain_sum((abs(x) for _, x in row), 0.0) for row in rows)
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    factor = 0.5 ** squarings
    scaled = [{q: x * factor for q, x in row if x * factor} for row in rows]

    def times(a, b):
        out = []
        for row in a:
            acc = {}
            for k in sorted(row):
                if row[k]:
                    for j, y in b[k].items():
                        if y:
                            acc[j] = acc.get(j, 0.0) + row[k] * y
            out.append(acc)
        return out

    coeffs = [1.0]
    for k in range(1, terms + 1):
        coeffs.append(coeffs[-1] / k)
    result = [{i: coeffs[terms]} for i in range(s)]
    for k in range(terms - 1, -1, -1):
        result = times(scaled, result)
        for i in range(s):
            result[i][i] = result[i].get(i, 0.0) + coeffs[k]
    for _ in range(squarings):
        result = times(result, result)
    if not all(math.isfinite(x) for row in result for x in row.values()):
        return None
    return [sorted(row.items()) for row in result]


def exact_flow_oracle(matrix, t):
    """exp(tD) for a nilpotent D given by its dense ``matrix``, exactly: the
    Fraction series sum of t^k D^k / k! over k < s, after asserting that
    D^s = 0, so that the series is finite."""
    s = len(matrix)
    result = [[Fraction(int(i == j)) for j in range(s)] for i in range(s)]
    term = [row[:] for row in result]
    for k in range(1, s + 1):
        term = [[x * t / k for x in row] for row in mat_mul(term, matrix)]
        if k < s:
            result = [[x + y for x, y in zip(a, b)] for a, b in zip(result, term)]
    assert not any(any(row) for row in term), "D is not nilpotent: D^s != 0"
    return result


def eval_taylor_oracle(point, oracle):
    """Truncated Taylor value of ``oracle`` at ``point`` by the
    per-multi-index loop: every nilpotent power is rebuilt from the unit
    with ``**`` for each multi-index that uses it."""
    from weilkit.nearpoints import _multi_indices

    algebra = point.algebra
    nilpotents = [c.nilpotent_part() for c in point.components]
    total = algebra.zero()
    for alpha in _multi_indices(point.n, algebra.height):
        term = algebra.from_scalar(oracle.partial(alpha))
        for i, e in enumerate(alpha):
            if e:
                term = term * nilpotents[i] ** e
        total = total + term
    return total


def float_rank_oracle(rows, tol):
    """The float rank of ``rank_with_tolerance`` for tol > 0 by its former
    per-entry loop: Gaussian elimination with partial pivoting on a float
    copy, pivots of absolute value <= tol counting as zero, each entry
    below a pivot updated on its own."""
    m = [[float(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rk = 0
    for col in range(ncols):
        best, best_val = None, tol
        for i in range(rk, len(m)):
            if abs(m[i][col]) > best_val:
                best, best_val = i, abs(m[i][col])
        if best is None:
            continue
        m[rk], m[best] = m[best], m[rk]
        pv = m[rk][col]
        for i in range(rk + 1, len(m)):
            f = m[i][col] / pv
            if f != 0.0:
                for j in range(col, ncols):
                    m[i][j] -= f * m[rk][j]
        rk += 1
        if rk == len(m):
            break
    return rk


def mul_oracle(products, u, v, zero):
    """Coordinates of u*v by the term-by-term loop over the sparse
    constants ``products[i][j]`` = ((k, c), ...), for every coordinate
    type: each term a*b*c is formed and added on its own, starting every
    output at ``zero``, in the order i, then j, then k, and zero
    coordinates are skipped by truthiness."""
    out = [zero] * len(products)
    nonzero_v = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in nonzero_v:
            ab = a * b
            for k, c in products[i][j]:
                out[k] = out[k] + ab * c
    return out


def minus_image_oracle(d, coeffs):
    """-D(u) in two passes: u's coordinates scattered through the sparse
    columns of d from Fraction(0), in ascending column order, then every
    coordinate negated."""
    out = [Fraction(0)] * len(coeffs)
    for x, column in zip(coeffs, d.columns):
        for p, c in column.items():
            out[p] = out[p] + c * x
    return [-y for y in out]


def typed(values):
    """Type and repr of every entry: equal exactly when the entries are, for
    a Fraction its value, for a float its bits, signed zeros included."""
    return [(type(x), repr(x)) for x in values]


def coprime_denominators(count):
    """``count`` pairwise coprime denominators of up to 60 bits: powers of
    the first ``count`` primes."""
    primes = []
    q = 2
    while len(primes) < count:
        if all(q % p for p in primes if p * p <= q):
            primes.append(q)
        q += 1
    return [p ** (60 // p.bit_length()) for p in primes]


def coprime_table(width, rng):
    """(labels, table) of the height-2 algebra on 1, x_1..x_w, y_1..y_w
    with x_i x_j = sum_k c_ijk y_k, whose constants c_ijk have pairwise
    coprime denominators: their lcm has the size of their product."""
    s = 1 + 2 * width
    dens = iter(coprime_denominators(width * width * (width + 1) // 2))
    table = [[[Fraction(0)] * s for _ in range(s)] for _ in range(s)]
    for i in range(s):
        table[0][i][i] = table[i][0][i] = Fraction(1)
    for i in range(1, width + 1):
        for j in range(i, width + 1):
            for k in range(width + 1, s):
                c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**18), next(dens))
                table[i][j][k] = table[j][i][k] = c
    labels = ["1"] + [f"x{i}" for i in range(1, width + 1)] + [f"y{k}" for k in range(1, width + 1)]
    return labels, table


class _OldPolynomialParser:
    """The recursive-descent polynomial parser as it was before terms were
    gathered into one dict: every sum, product and power is a Polynomial
    operation, and x^k is k products."""

    def __init__(self, text, variables):
        self.tokens = poly_module._tokenize(text)
        self.pos = 0
        self.nvars = len(variables)
        self.index = {name: i for i, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolynomialParseError(f"unexpected {value!r}", pos)
        return p

    def expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
        total = self.term() * sign
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            nxt = self.term()
            total = total + nxt if op == "+" else total - nxt
        return total

    def term(self):
        total = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            total = total * self.factor()
        return total

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise PolynomialParseError("exponent must be a non-negative integer", pos)
            self.advance()
            return base ** _literal(value, pos)
        return base

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            numerator = _literal(value, pos)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dvalue, dpos = self.peek()
                if dkind != "int":
                    raise PolynomialParseError("expected integer denominator", dpos)
                self.advance()
                if _literal(dvalue, dpos) == 0:
                    raise PolynomialParseError("zero denominator", dpos)
                return Polynomial.constant(self.nvars, Fraction(numerator, _literal(dvalue, dpos)))
            return Polynomial.constant(self.nvars, numerator)
        if kind == "name":
            self.advance()
            if value not in self.index:
                raise PolynomialParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.nvars, self.index[value])
        if kind == "(":
            self.advance()
            inner = self.expr()
            ckind, _, cpos = self.peek()
            if ckind != ")":
                raise PolynomialParseError("expected ')'", cpos)
            self.advance()
            return inner
        raise PolynomialParseError(
            "expected a number, variable or '('" if kind != "end" else "unexpected end of input",
            pos,
        )


def _literal(digits, position):
    """int(digits); a literal beyond int()'s digit limit is a parse error
    that names its length, at its position."""
    try:
        return int(digits)
    except ValueError:
        raise PolynomialParseError(f"integer of {len(digits)} digits is too long", position) from None


def parse_polynomial_oracle(text, variables):
    """``poly.parse_polynomial`` by the old parser: the same grammar, with
    every intermediate result a validated Polynomial."""
    return _OldPolynomialParser(text, variables).parse()


def mat_sub(a, b):
    """a - b for dense matrices."""
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def raw_table_mul(table, u, v):
    """Product coordinates straight from a raw structure-constant table."""
    s = len(table)
    out = [Fraction(0)] * s
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            for k in range(s):
                out[k] += a * b * Fraction(table[i][j][k])
    return out


# ------------------------------------------------------------------ corpus


# Algebras on which the generator paths must agree exactly with the oracles
# above, by builder and arguments: truncated algebras up to s = 20, monomial
# quotients, and scrambled tables, including the dual numbers.
ORACLE_CORPUS = {
    **{
        f"truncated-{v}-{k}": (truncated_polynomial_algebra, (v, k))
        for v, k in [
            (1, 0), (1, 1), (1, 2), (1, 3), (1, 5), (1, 9), (1, 14),
            (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
            (4, 1), (4, 2), (5, 1), (8, 1),
        ]
    },
    **{
        f"quotient-{name}": (monomial_quotient_algebra, (variables, relations))
        for name, variables, relations in [
            ("x2", ["x"], [(2,)]),
            ("x2-y3-xy", ["x", "y"], [(2, 0), (0, 3), (1, 1)]),
            ("x3-y2-xy2", ["x", "y"], [(3, 0), (0, 2), (1, 2)]),
            ("x2-y3", ["x", "y"], [(2, 0), (0, 3)]),
            ("x3-y3-xy2", ["x", "y"], [(3, 0), (0, 3), (1, 2)]),
            ("x4-y2", ["x", "y"], [(4, 0), (0, 2)]),
            ("x2-y2-z2", ["x", "y", "z"], [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        ]
    },
    **{
        f"scrambled-{name}-{seed}": (
            lambda build, args, seed: scrambled(build(*args), random.Random(seed)),
            (build, args, seed),
        )
        for name, build, args, seed in [
            ("dual", truncated_polynomial_algebra, (1, 1), 3),
            ("x5", truncated_polynomial_algebra, (1, 4), 5),
            ("m3", truncated_polynomial_algebra, (2, 2), 41),
            ("x3-y2-xy2", monomial_quotient_algebra, (["x", "y"], [(3, 0), (0, 2), (1, 2)]), 7),
            ("x2-y2-z2", monomial_quotient_algebra, (["x", "y", "z"], [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), 11),
        ]
    },
}


# ------------------------------------------------------- random rational data


def rand_fraction(rng: random.Random, span: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_element(rng: random.Random, algebra: WeilAlgebra):
    return algebra.element([rand_fraction(rng) for _ in range(algebra.dim)])


def rand_nilpotent(rng: random.Random, algebra: WeilAlgebra):
    coeffs = [Fraction(0)] + [rand_fraction(rng) for _ in range(algebra.dim - 1)]
    return algebra.element(coeffs)


def rand_near_point(rng: random.Random, algebra: WeilAlgebra, n: int):
    from weilkit import make_near_point

    base = [rand_fraction(rng) for _ in range(n)]
    nilparts = [rand_nilpotent(rng, algebra) for _ in range(n)]
    return make_near_point(algebra, base, nilparts)


def rand_poly(rng: random.Random, nvars: int, degree: int = 3, terms: int = 4) -> Polynomial:
    data = {}
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(nvars)] += 1
        data[tuple(exp)] = data.get(tuple(exp), Fraction(0)) + rand_fraction(rng)
    return Polynomial(nvars, data)


def rand_invertible(rng: random.Random, size: int):
    """Random invertible rational matrix (entries small integers)."""
    while True:
        mat = [
            [Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)
        ]
        try:
            invert_oracle(mat)
            return mat
        except ValueError:
            continue


def scrambled_table(algebra: WeilAlgebra, rng: random.Random) -> list:
    """The algebra's structure constants over a random basis, in which the
    unit is in general not a basis element."""
    return rebased_table(algebra.table, rng)


def rebased_table(table, rng: random.Random) -> list:
    """A raw structure-constant table over a random basis.  The product is
    the same, so the new table is commutative, unital or associative
    exactly when ``table`` is."""
    s = len(table)
    change = rand_invertible(rng, s)
    inverse = invert_oracle(change)
    columns = [[change[p][i] for p in range(s)] for i in range(s)]
    # The product of raw_table_mul, summed over the non-zero constants only.
    constants = [[[(k, Fraction(c)) for k, c in enumerate(entry) if c] for entry in row] for row in table]

    def product(u, v):
        out = [Fraction(0)] * s
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b:
                    for k, c in constants[i][j]:
                        out[k] += a * b * c
        return out

    return [[mat_vec(inverse, product(columns[i], columns[j])) for j in range(s)] for i in range(s)]


def block_product_table(a, b):
    """The block-diagonal table of the product algebra A x B."""
    sa, s = len(a), len(a) + len(b)
    out = [[[Fraction(0)] * s for _ in range(s)] for _ in range(s)]
    for offset, part in ((0, a), (sa, b)):
        for i, j, k in itertools.product(range(len(part)), repeat=3):
            out[offset + i][offset + j][offset + k] = Fraction(part[i][j][k])
    return out


def moved_unit_table(table, position):
    """The table over the basis with e_0 moved to ``position``."""
    order = list(range(1, len(table)))
    order.insert(position, 0)
    return [[[table[i][j][k] for k in order] for j in order] for i in order]


def rescaled_table(algebra: WeilAlgebra) -> list:
    """The algebra's structure constants over the basis f_0 = 1 and
    f_j = (j+1)/(j+2) e_j, which is still normalised.  A constant c of
    e_i e_j on e_k becomes c (i+1)(j+1)(k+2) / ((i+2)(j+2)(k+1)), as on the
    benchmark's dense tables: small constants over many small coprime
    factors, whose lcm is large next to the constants themselves."""
    s = algebra.dim
    scale = [Fraction(1)] + [Fraction(j + 1, j + 2) for j in range(1, s)]
    return [
        [[scale[i] * scale[j] / scale[k] * c for k, c in enumerate(entry)] for j, entry in enumerate(row)]
        for i, row in enumerate(algebra.table)
    ]


def scrambled(algebra: WeilAlgebra, rng: random.Random) -> WeilAlgebra:
    """The same algebra as a structure-constants table over a random basis,
    so that normalisation has to find the unit and relabel."""
    return from_structure_constants(
        [f"f{i}" for i in range(algebra.dim)], scrambled_table(algebra, rng)
    )
