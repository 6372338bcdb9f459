"""Derivations of a local algebra and their one-parameter automorphism groups.

A derivation is a linear self-map D with D(ab) = D(a)b + aD(b); it kills the
unit and preserves the maximal ideal.  The space of all derivations is
computed exactly as the nullspace of the homogeneous Leibniz system over the
rationals, so its dimension r is exact; r is also the dimension of the
foliation the derivations induce on near-point charts.

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

    The Leibniz constraints form a homogeneous linear system in the s^2
    matrix entries; its nullspace is returned in canonical reduced form
    (leading entry 1 in row-major matrix order).  For a two-dimensional
    algebra the single generator is rescaled so the nilpotent generator
    maps to minus itself, which makes the induced field on a tangent-bundle
    chart the Liouville field with flow e^t.
    """
    s = algebra.dim
    table = algebra.table
    n_unknowns = s * s

    rows: list[list[Fraction]] = []
    for p in range(s):
        row = [Fraction(0)] * n_unknowns
        row[p * s + 0] = Fraction(1)  # D(1) = 0
        rows.append(row)
    for i in range(1, s):
        for j in range(i, s):
            cij = table[i][j]
            for p in range(s):
                row = [Fraction(0)] * n_unknowns
                for k in range(s):
                    if cij[k]:
                        row[p * s + k] += cij[k]
                for m in range(s):
                    # -(D(a_i) a_j)_p and -(a_i D(a_j))_p
                    if table[m][j][p]:
                        row[m * s + i] -= table[m][j][p]
                    if table[m][i][p]:
                        row[m * s + j] -= table[m][i][p]
                if any(x != 0 for x in row):
                    rows.append(row)

    basis_vectors = linalg.nullspace(rows, n_unknowns)
    matrices = [
        _freeze([vec[p * s : (p + 1) * s] for p in range(s)]) for vec in basis_vectors
    ]
    if s == 2 and len(matrices) == 1 and matrices[0][1][1] > 0:
        matrices = [_freeze([[-x for x in row] for row in matrices[0]])]
    return [_trusted(algebra, mat) for mat in matrices]


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
