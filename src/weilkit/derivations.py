"""Derivations of a local algebra and their one-parameter automorphism groups.

A derivation is a linear self-map D with D(ab) = D(a)b + aD(b); it kills the
unit and preserves the maximal ideal.  It is fixed by its values on
generators of the maximal ideal, lifts of a basis of m/m^2 (Weil 1953;
Kolář, Michor and Slovák, ch. VIII), so the space of all derivations is
solved for exactly over the rationals with width * s unknowns, the
coordinates of those values, one solver for every table.  The constraints
come from walking the monomials in the generators: each product of a
generator with a monomial that is a combination of earlier monomials must
have the same combination of images.  The dimension r is exact; it is also
the dimension of the foliation the derivations induce on near-point charts.

Verification happens once, at the trust boundary: the public
``Derivation(algebra, matrix)`` constructor checks every matrix exactly.
Results computed here (the solved basis, brackets, sums, scalar multiples
and module multiples) are derivations by construction (Kolář, Michor and
Slovák, ch. VIII) and are built without the re-check.

Exponentials exp(tD) are computed in floating point (scaling and squaring);
they are automorphisms of the algebra up to round-off and are only used for
flow integration, never for anything exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import AlgebraElement, WeilAlgebra, mul

RationalMatrix = tuple[tuple[Fraction, ...], ...]


class NotClosedError(ValueError):
    """A bracket escaped the span of the supplied derivation basis."""


@dataclass(frozen=True)
class Derivation:
    """Derivation of a local algebra as a matrix on its basis.

    ``matrix[k][j]`` is the coefficient of basis element k in the image of
    basis element j.  The public constructor verifies D(1) = 0, the Leibniz
    identity on every basis pair, and preservation of the maximal ideal, all
    exactly.  Derivations this module computes from verified ones are
    derivations by construction and skip that check.
    """

    algebra: WeilAlgebra
    matrix: RationalMatrix

    def __post_init__(self):
        residual = leibniz_residual(self.algebra, self.matrix)
        if residual is not None:
            i, j = residual
            raise ValueError(
                f"matrix violates the Leibniz identity on basis pair ({i}, {j})"
            )
        s = self.algebra.dim
        if any(self.matrix[k][0] != 0 for k in range(s)):
            raise ValueError("a derivation must kill the unit")
        if any(self.matrix[0][j] != 0 for j in range(s)):
            raise ValueError("a derivation must preserve the maximal ideal")

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        if u.algebra is not self.algebra and u.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        s = self.algebra.dim
        coeffs = [
            sum((self.matrix[k][j] * u.coeffs[j] for j in range(s) if self.matrix[k][j]), Fraction(0))
            for k in range(s)
        ]
        return AlgebraElement(self.algebra, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        _check_same_algebra(self, other)
        return _trusted(
            self.algebra,
            _freeze([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)]),
        )

    def __rmul__(self, scalar) -> "Derivation":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = Fraction(scalar)
        return _trusted(self.algebra, _freeze([[c * x for x in row] for row in self.matrix]))

    def __neg__(self) -> "Derivation":
        return Fraction(-1) * self


def _trusted(algebra: WeilAlgebra, matrix: RationalMatrix) -> Derivation:
    """A Derivation built without ``__post_init__``, for a matrix that is a
    derivation by construction."""
    d = object.__new__(Derivation)
    object.__setattr__(d, "algebra", algebra)
    object.__setattr__(d, "matrix", matrix)
    return d


def _freeze(mat) -> RationalMatrix:
    return tuple(tuple(row) for row in mat)


def _check_same_algebra(d1: Derivation, d2: Derivation) -> None:
    if d1.algebra is not d2.algebra and d1.algebra != d2.algebra:
        raise ValueError("derivations belong to different algebras")


def leibniz_residual(algebra: WeilAlgebra, matrix) -> tuple[int, int] | None:
    """First basis pair (i, j) where D(a_i a_j) != D(a_i)a_j + a_i D(a_j),
    or None when the Leibniz identity holds exactly everywhere."""
    s = algebra.dim
    units = linalg.identity(s)
    columns = [[matrix[k][j] for k in range(s)] for j in range(s)]
    for i in range(s):
        for j in range(i, s):
            lhs = linalg.mat_vec(matrix, algebra.table[i][j])
            rhs_a = mul(algebra.products, columns[i], units[j], Fraction(0))
            rhs_b = mul(algebra.products, columns[j], units[i], Fraction(0))
            if any(lhs[p] != rhs_a[p] + rhs_b[p] for p in range(s)):
                return (i, j)
    return None


def derivation_basis(algebra: WeilAlgebra) -> list[Derivation]:
    """Exact basis of the derivation space, deterministically normalised.

    A derivation is fixed by its values on generators of the maximal ideal,
    so the unknowns are the coordinates of D(g_1), ..., D(g_w) for basis
    elements g_a whose classes span m/m^2: width * s unknowns.  Products
    g_a * M of generators with the monomials M reached so far either are
    new monomials, whose images D(g_a M) = g_a D(M) + M D(g_a) are recorded,
    or are combinations of earlier ones, which makes that rule a linear
    constraint.  Together the constraints give D(g x) = g D(x) + x D(g) for
    every generator g and every x, which is the Leibniz rule by induction
    over monomials.  The solutions are expanded to full matrices and
    returned in canonical reduced form (leading entry 1 in row-major matrix
    order).  For a two-dimensional algebra the single generator is rescaled
    so the nilpotent generator maps to minus itself, which makes the
    induced field on a tangent-bundle chart the Liouville field with flow
    e^t.
    """
    s = algebra.dim
    products = algebra.products
    zero, one = Fraction(0), Fraction(1)
    units = linalg.identity(s)

    # Generators: basis elements of m that are independent modulo m^2.
    square: dict = {}
    for i in range(1, s):
        for j in range(i, s):
            _eliminate(square, dict(products[i][j]), s)
    generators = [g for g in range(1, s) if _eliminate(square, {g: one}, s)]
    n_unknowns = len(generators) * s  # unknown a*s + q is coordinate q of D(g_a)

    # Walk the monomials.  A row of ``span`` holds a vector in columns < s
    # and, in column s + u, its coefficient on monomial u, so a dependent
    # product reduces to its expansion over the kept monomials.
    monomials = [units[0]]
    images: list[list[dict]] = [[{} for _ in range(s)]]  # D(M_u) as s linear forms
    span: dict = {}
    _eliminate(span, {0: one, s: one}, s)
    constraints: dict = {}
    t = 0
    while t < len(monomials):
        columns = [mul(products, monomials[t], e, zero) for e in units]  # M_t * e_q
        image = images[t]
        for a, g in enumerate(generators):
            # D(g M_t) = g D(M_t) + M_t D(g)
            forms: list[dict] = [{} for _ in range(s)]
            for q, form in enumerate(image):
                for k, c in products[g][q] if form else ():
                    _add_scaled(forms[k], c, form)
            for q, column in enumerate(columns):
                for k, c in enumerate(column):
                    if c:
                        _add_scaled(forms[k], c, {a * s + q: one})
            # g M_t is tried as monomial number len(monomials).
            row = {k: c for k, c in enumerate(columns[g]) if c}
            row[s + len(monomials)] = one
            images.append(forms)
            if _eliminate(span, row, s):
                monomials.append(columns[g])
                continue
            # Now sum_u row[s + u] M_u = 0, so the same combination of the
            # images must vanish: s constraints, one per coordinate.
            for p in range(s):
                constraint: dict = {}
                for col, c in row.items():
                    _add_scaled(constraint, c, images[col - s][p])
                _eliminate(constraints, constraint, n_unknowns)
            images.pop()
        t += 1

    # D maps monomial u to images[u], so D = D_M M^-1 for the matrix M whose
    # columns are the monomials.
    inverse = linalg.invert([list(row) for row in zip(*monomials)])
    expansion: dict = {}  # unknown -> [(p, u, its coefficient in D(M_u)_p)]
    for u, image in enumerate(images):
        for p, form in enumerate(image):
            for x, c in form.items():
                expansion.setdefault(x, []).append((p, u, c))
    rows = [[row.get(x, zero) for x in range(n_unknowns)] for row in constraints.values()]
    flat = []
    for solution in linalg.nullspace(rows, n_unknowns):
        d_m = linalg.zeros(s, s)
        for x, value in enumerate(solution):
            for p, u, c in expansion.get(x, ()) if value else ():
                d_m[p][u] += value * c
        flat.append([y for row in linalg.mat_mul(d_m, inverse) for y in row])
    canonical, _ = linalg.rref(flat)
    matrices = [_freeze([vec[p * s : (p + 1) * s] for p in range(s)]) for vec in canonical]
    if s == 2 and len(matrices) == 1 and matrices[0][1][1] > 0:
        matrices = [_freeze([[-x for x in row] for row in matrices[0]])]
    return [_trusted(algebra, mat) for mat in matrices]


def _add_scaled(target: dict, c: Fraction, form: dict) -> None:
    """target += c * form for sparse vectors (index -> non-zero Fraction)."""
    for x, v in form.items():
        y = target.get(x, 0) + c * v
        if y:
            target[x] = y
        else:
            del target[x]


def _eliminate(echelon: dict, row: dict, limit: int) -> bool:
    """Reduce the sparse ``row`` in place against ``echelon`` (leading
    column -> row with a leading 1 there) over the columns below ``limit``.

    When a column below ``limit`` survives, the normalised row joins the
    echelon and the result is True; otherwise ``row`` keeps only its
    columns >= ``limit`` and the result is False.
    """
    while row:
        lead = min(row)
        if lead >= limit:
            return False
        pivot = echelon.get(lead)
        if pivot is None:
            scale = 1 / row[lead]
            echelon[lead] = {x: v * scale for x, v in row.items()}
            return True
        _add_scaled(row, -row[lead], pivot)
    return False


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator D1 D2 - D2 D1, a derivation by construction."""
    _check_same_algebra(d1, d2)
    m1 = [list(row) for row in d1.matrix]
    m2 = [list(row) for row in d2.matrix]
    comm = linalg.mat_sub(linalg.mat_mul(m1, m2), linalg.mat_mul(m2, m1))
    return _trusted(d1.algebra, _freeze(comm))


def module_scale(a: AlgebraElement, d: Derivation) -> Derivation:
    """The derivation u -> a * d(u); its matrix is M_a D for the
    multiplication operator M_a."""
    if a.algebra is not d.algebra and a.algebra != d.algebra:
        raise ValueError("element and derivation belong to different algebras")
    mult = d.algebra.multiplication_matrix(a)
    scaled = linalg.mat_mul(mult, [list(row) for row in d.matrix])
    return _trusted(d.algebra, _freeze(scaled))


@dataclass(frozen=True)
class LieStructure:
    """A derivation basis together with its exact bracket constants:
    [basis[i], basis[j]] = sum_k constants[i][j][k] * basis[k]."""

    basis: tuple[Derivation, ...]
    constants: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def lie_structure(basis: Sequence[Derivation]) -> LieStructure:
    """Expand every pairwise bracket exactly in the given basis.

    Raises NotClosedError when some bracket escapes the span (possible only
    if the input is not a full derivation basis) and ValueError when the
    input is linearly dependent.
    """
    basis = list(basis)
    r = len(basis)
    if r == 0:
        return LieStructure((), ())
    for d in basis[1:]:
        _check_same_algebra(basis[0], d)
    s = basis[0].algebra.dim
    length = s * s

    stacked = [
        [basis[k].matrix[p][q] for p in range(s) for q in range(s)]
        + [Fraction(1) if t == k else Fraction(0) for t in range(r)]
        for k in range(r)
    ]
    reduced, pivots = linalg.rref(stacked)
    if len(pivots) != r or any(pc >= length for pc in pivots):
        raise ValueError("derivations are not linearly independent")

    def coordinates(mat: RationalMatrix) -> list[Fraction]:
        residual = [mat[p][q] for p in range(s) for q in range(s)]
        mix = [Fraction(0)] * r
        for row, pc in zip(reduced, pivots):
            f = residual[pc]
            if f:
                for idx in range(length):
                    if row[idx]:
                        residual[idx] -= f * row[idx]
                for t in range(r):
                    mix[t] += f * row[length + t]
        if any(x != 0 for x in residual):
            raise NotClosedError("bracket lies outside the span of the basis")
        return mix

    zero_row = tuple(Fraction(0) for _ in range(r))
    constants = [[zero_row for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            coords = coordinates(bracket(basis[i], basis[j]).matrix)
            constants[i][j] = tuple(coords)
            constants[j][i] = tuple(-c for c in coords)
    return LieStructure(tuple(basis), tuple(tuple(row) for row in constants))


def jacobi_residual(lie: LieStructure) -> Fraction:
    """Largest absolute Jacobi defect of the structure constants (0 for a
    genuine Lie algebra).

    The constants are antisymmetric, so the Jacobiator is alternating in
    (i, j, k) and only i < j < k needs to be evaluated.
    """
    g = lie.constants
    r = lie.rank
    worst = Fraction(0)
    for i, j, k in itertools.combinations(range(r), 3):
        for l in range(r):
            total = sum(
                g[i][j][m] * g[m][k][l]
                + g[j][k][m] * g[m][i][l]
                + g[k][i][m] * g[m][j][l]
                for m in range(r)
            )
            worst = max(worst, abs(total))
    return worst


@dataclass(frozen=True)
class Automorphism:
    """Floating-point algebra automorphism, e.g. exp(tD) for a derivation D.

    Multiplicative up to round-off; fixes the unit exactly (the unit row of
    a derivation matrix is zero, so it survives scaling and squaring)."""

    algebra: WeilAlgebra
    matrix: tuple[tuple[float, ...], ...]

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        if u.algebra is not self.algebra and u.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        s = self.algebra.dim
        coords = [float(c) for c in u.coeffs]
        out = [sum(self.matrix[p][q] * coords[q] for q in range(s)) for p in range(s)]
        return AlgebraElement(self.algebra, tuple(out))

    def compose(self, other: "Automorphism") -> "Automorphism":
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ValueError("automorphisms belong to different algebras")
        return Automorphism(self.algebra, _freeze(_float_mat_mul(self.matrix, other.matrix)))


def _float_mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


_EXP_TERMS = 18


def exp_flow(d: Derivation, t: float) -> Automorphism:
    """exp(tD) by scaling and squaring on a truncated exponential series."""
    s = d.algebra.dim
    scaled = [[float(x) * float(t) for x in row] for row in d.matrix]
    norm = max((sum(abs(x) for x in row) for row in scaled), default=0.0)
    if not math.isfinite(norm):
        raise ValueError("flow time too large: t*D overflows floating point")
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    factor = 0.5 ** squarings
    scaled = [[x * factor for x in row] for row in scaled]

    coeffs = [1.0]
    for k in range(1, _EXP_TERMS + 1):
        coeffs.append(coeffs[-1] / k)
    result = [[coeffs[_EXP_TERMS] if i == j else 0.0 for j in range(s)] for i in range(s)]
    for k in range(_EXP_TERMS - 1, -1, -1):
        result = _float_mat_mul(scaled, result)
        for i in range(s):
            result[i][i] += coeffs[k]
    for _ in range(squarings):
        result = _float_mat_mul(result, result)
    if not all(math.isfinite(x) for row in result for x in row):
        raise ValueError("flow time too large: exp(tD) overflows floating point")
    return Automorphism(d.algebra, _freeze(result))


def multiplicativity_residual(phi: Automorphism) -> float:
    """max |phi(a_i a_j) - phi(a_i) phi(a_j)| over all basis pairs; by
    bilinearity this bounds the defect on the whole unit ball up to a
    dimension factor."""
    algebra = phi.algebra
    s = algebra.dim
    worst = 0.0
    images = [phi.apply(algebra.basis_element(i)) for i in range(s)]
    for i in range(s):
        for j in range(i, s):
            product = algebra.element(algebra.table[i][j])
            lhs = phi.apply(product)
            rhs = images[i] * images[j]
            worst = max(
                worst,
                max(abs(float(a) - float(b)) for a, b in zip(lhs.coeffs, rhs.coeffs)),
            )
    return worst
