"""Derivations of a local algebra and their one-parameter automorphism groups.

A derivation is a linear self-map D with D(ab) = D(a)b + aD(b); it kills the
unit and preserves the maximal ideal.  It is fixed by its values on
generators of the maximal ideal, lifts of a basis of m/m^2 (Weil 1953;
Kolář, Michor and Slovák, ch. VIII), so the space of all derivations is
solved for exactly over the rationals with width * s unknowns, the
coordinates of those values, one solver for every table.  The constraints
come from walking the monomials in the generators
(``algebra.monomial_walk``): each product of a generator with a monomial
that is a combination of earlier monomials must have the same combination
of images.  Where the table has integer numerators over a denominator λ,
the walk runs on x∘y = λ·xy, which has the same derivations.  The
dimension r is exact; it is also the dimension of the foliation the
derivations induce on near-point charts.

The same fact makes bracket coordinates cheap.  Restricting derivations
to the columns of the generators is injective, and a bracket of
derivations is a derivation, so the coordinates of [D_i, D_j] in the basis
are read from its width generator columns against one sparse echelon of
the restricted basis, r x width*s entries, instead of all s^2 entries.
A commutator is formed on the ``integer_columns`` of the derivations.

A derivation is stored once, as its sparse matrix columns (column q maps
k to the non-zero coefficient of basis element k in D(e_q)).  Four views
are derived from them on first use: the ``integer_columns``, their
non-empty columns as pairs (``integer_nonempty``), the non-empty columns
as pairs of floats (``float_nonempty``), which the near-point images and
the flows walk (D(1) = 0, and a derivation of a monomial algebra moves
few basis elements), and the dense ``matrix``, which only callers read.
Every entry, like every constant of a ``LieStructure``, is an int or a
Fraction.  Verification happens once, at the trust boundary: the public
``Derivation(algebra, matrix)`` constructor checks every matrix exactly.
Results computed here (the solved basis, brackets, sums, scalar multiples
and module multiples by exact elements) are derivations by construction
(Kolář, Michor and Slovák, ch. VIII) and are built without the re-check.

Exponentials exp(tD) are computed in floating point, by scaling and
squaring on the sparse rows of tD, which hold its few non-zero entries;
the series runs only to the longest chain of those entries, which is
short for a nilpotent D.
Horner's steps, the squarings and ``Automorphism.compose`` are one sparse
float product, ``_product``.  An ``Automorphism`` keeps the rows it
forms, and applies and composes on them, so no flow forms a dense
matrix.  Every float sum adds its terms left to right, so the floats do
not depend on how the Python version's ``sum()`` rounds.  They are
automorphisms of the algebra up to round-off and are only used for flow
integration, never for anything exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, truediv
from typing import Sequence

from . import linalg
from .algebra import (
    EMPTY_SUM,
    AlgebraElement,
    Frozen,
    WeilAlgebra,
    check_same_algebra,
    from_integer_form,
    integer_form,
    monomial_walk,
    mul,
)

RationalMatrix = tuple[tuple[Fraction, ...], ...]


class NotClosedError(ValueError):
    """A bracket escaped the span of the supplied derivation basis."""


class Derivation(Frozen):
    """Derivation of a local algebra, stored as its sparse matrix columns.

    ``columns[q]`` maps k to the non-zero coefficient of basis element k in
    the image of basis element q; ``matrix`` is the dense view of the same
    entries, ``matrix[k][q]``.  The public constructor ``Derivation(algebra,
    matrix)`` takes ints and Fractions and verifies the Leibniz identity
    on every basis pair exactly, which proves D(1) = 0 and D(m) ⊆ m: pair
    (0, 0) reads D(1) = 2 D(1), and for x in m with x^k = 0, k minimal,
    D(x) = c + n with c != 0 would give 0 = k x^(k-1) (c + n), a unit
    multiple of x^(k-1) != 0.  Derivations this module computes from
    verified ones are derivations by construction and skip the check.
    """

    _fields = ("algebra", "columns")

    algebra: WeilAlgebra
    columns: list[dict]

    def __init__(self, algebra: WeilAlgebra, matrix: RationalMatrix):
        s = algebra.dim
        if len(matrix) != s or any(len(row) != s for row in matrix):
            raise ValueError(f"a derivation matrix must be {s} x {s}")
        if not all(isinstance(x, (int, Fraction)) for row in matrix for x in row):
            raise ValueError("derivation matrix entries must be ints or Fractions")
        residual = leibniz_residual(algebra, matrix)
        if residual is not None:
            raise ValueError(f"matrix violates the Leibniz identity on basis pair {residual}")
        object.__setattr__(self, "algebra", algebra)
        columns = [{p: c for p, c in enumerate(column) if c} for column in zip(*matrix)]
        object.__setattr__(self, "columns", columns)

    def __hash__(self) -> int:
        # Equal columns hash equal whatever order their dicts were filled in.
        return hash((self.algebra, tuple(frozenset(column.items()) for column in self.columns)))

    @cached_property
    def matrix(self) -> RationalMatrix:
        """Dense view of the columns: matrix[k][q] is columns[q].get(k, 0)."""
        zero = Fraction(0)
        return tuple(
            tuple(column.get(k, zero) for column in self.columns) for k in range(len(self.columns))
        )

    @cached_property
    def integer_columns(self) -> tuple[list[dict], int]:
        """(columns, denominator), column q mapping p to matrix[p][q] times
        ``denominator``: the :func:`~weilkit.algebra.integer_form` of the
        entries where it exists, else the columns themselves over 1 (the
        same dicts, which no reader mutates)."""
        form = integer_form([c for column in self.columns for c in column.values()])
        if form is None:
            return self.columns, 1
        numerators, denominator = form
        flat = iter(numerators)
        return [{p: next(flat) for p in column} for column in self.columns], denominator

    @cached_property
    def integer_nonempty(self) -> tuple[list[tuple[int, tuple]], int]:
        """The non-empty columns of ``integer_columns`` as pairs
        (q, ((p, c), ...)) in ascending q, over the same denominator: the
        list :func:`integer_image` walks.  D(1) = 0, and on a monomial
        algebra a basis derivation moves few basis elements, so most
        columns are empty."""
        columns, denominator = self.integer_columns
        return _nonempty(columns), denominator

    @cached_property
    def float_nonempty(self) -> list[tuple[int, tuple]] | None:
        """The non-empty columns with every entry as a float, the value
        that the mixed Fraction-float arithmetic converts it to, as pairs
        (q, ((p, c), ...)) in ascending q: the list :func:`float_image`
        and :func:`exp_flow` walk.  None when an entry is beyond the float
        range."""
        try:
            return [
                (q, tuple((p, float(c)) for p, c in column)) for q, column in _nonempty(self.columns)
            ]
        except OverflowError:
            return None

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        """D(u), with u's coordinates scattered through the sparse columns.

        The result is bit for bit the dense product of the matrix and
        ``u.coeffs``, summed from Fraction(0) in ascending column order
        with the zero entries skipped, types and signed float zeros
        included; see :func:`signed_image`.  A float coordinate that meets
        an exact value beyond the float range raises ValueError.
        """
        check_same_algebra(u.algebra, self.algebra, "element belongs to a different algebra")
        try:
            return AlgebraElement(self.algebra, signed_image(self, u))
        except OverflowError:  # a float times an exact value beyond the float range
            raise ValueError("the derivation's image overflows floating point") from None

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        check_same_algebra(self.algebra, other.algebra, _DIFFERENT_ALGEBRAS)
        columns = [dict(a) for a in self.columns]
        for column, b in zip(columns, other.columns):
            linalg.add_scaled(column, Fraction(1), b)
        return _trusted(self.algebra, columns)

    def __rmul__(self, scalar) -> "Derivation":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = Fraction(scalar)
        columns = [{p: c * x for p, x in column.items()} if c else {} for column in self.columns]
        return _trusted(self.algebra, columns)

    def __neg__(self) -> "Derivation":
        return Fraction(-1) * self


_DIFFERENT_ALGEBRAS = "derivations belong to different algebras"
_ZERO = Fraction(0)


def _nonempty(columns: list[dict]) -> list[tuple[int, tuple]]:
    return [(q, tuple(column.items())) for q, column in enumerate(columns) if column]


def signed_image(d: Derivation, u: AlgebraElement, sign: int = 1) -> tuple:
    """The coordinates of sign * D(u): bit for bit and type for type, each
    output is the sum of its terms c * x in ascending column order from
    Fraction(0), negated afterwards for sign -1.  Zero column entries are
    skipped, zero coordinates are not.

    An exact u, read in its ``integer_form`` (kept by u), takes
    :func:`integer_image`.  Coordinates that are all floats take
    :func:`float_image`, from EMPTY_SUM, which adds like the 0.0 that
    Fraction(0) + x converts to; an output no entry reaches, still
    EMPTY_SUM, is Fraction(0).  Both walk only the
    derivation's non-empty columns.  Other coordinates run on the columns
    themselves.
    """
    form = u.integer_form()
    if form:
        return from_integer_form(integer_image(d, form), sign)
    coords = u.coeffs
    columns = d.float_nonempty
    if columns is not None and all(type(x) is float for x in coords):
        return tuple(_ZERO if y is EMPTY_SUM else sign * y for y in float_image(columns, [coords]))
    out = [_ZERO] * len(coords)
    for x, column in zip(coords, d.columns):
        for p, c in column.items():
            out[p] = out[p] + c * x
    return tuple(out) if sign == 1 else tuple(-y for y in out)


def float_image(columns: list[tuple[int, tuple]], blocks: Sequence[Sequence[float]]) -> list:
    """D applied to each block of float coordinates, concatenated, for D
    given by its ``float_nonempty`` columns: entry p of a block's image is
    the sum from :data:`~weilkit.algebra.EMPTY_SUM` of c * x over the
    entries c at row p of its columns, in ascending column order, zero
    coordinates x included, so EMPTY_SUM itself where no entry reaches.
    An empty column adds no term, so only the non-empty ones are walked."""
    out = []
    for coords in blocks:
        image = [EMPTY_SUM] * len(coords)
        for q, column in columns:
            x = coords[q]
            for p, c in column:
                image[p] = image[p] + c * x
        out += image
    return out


def integer_image(d: Derivation, u: tuple[list[int], int]) -> tuple[list[int], int]:
    """D(u) as (numerators, denominator), for u given in its
    ``integer_form``: one scatter of the non-zero numerators through the
    non-empty columns of ``d.integer_nonempty``, in ints where they are
    ints."""
    (numerators, denominator), (columns, scale) = u, d.integer_nonempty
    out = [0] * len(numerators)
    for q, column in columns:
        x = numerators[q]
        if x:
            for p, c in column:
                out[p] += c * x
    return out, denominator * scale


def _trusted(algebra: WeilAlgebra, columns: list[dict]) -> Derivation:
    """A Derivation built without the checks, for columns that are a
    derivation by construction."""
    d = object.__new__(Derivation)
    object.__setattr__(d, "algebra", algebra)
    object.__setattr__(d, "columns", columns)
    return d


def leibniz_residual(algebra: WeilAlgebra, matrix) -> tuple[int, int] | None:
    """First basis pair (i, j) where D(a_i a_j) != D(a_i)a_j + a_i D(a_j),
    or None when the Leibniz identity holds exactly everywhere.  D(a_i a_j)
    is summed over the non-zero constants of a_i a_j."""
    s = algebra.dim
    products = algebra.products
    units = linalg.identity(s)
    columns = [[matrix[k][j] for k in range(s)] for j in range(s)]
    for i, j in itertools.combinations_with_replacement(range(s), 2):
        lhs = [sum((columns[k][p] * c for k, c in products[i][j]), _ZERO) for p in range(s)]
        rhs_a = mul(products, columns[i], units[j])
        rhs_b = mul(products, columns[j], units[i])
        if any(lhs[p] != rhs_a[p] + rhs_b[p] for p in range(s)):
            return (i, j)
    return None


def derivation_basis(algebra: WeilAlgebra) -> list[Derivation]:
    """Exact basis of the derivation space, deterministically normalised.

    A derivation is fixed by its values on generators of the maximal ideal,
    so the unknowns are the coordinates of D(g_1), ..., D(g_w) for basis
    elements g_a whose classes span m/m^2: width * s unknowns.  The
    monomial walk in those generators keeps each product g_a * M that is a
    new monomial, whose image D(g_a M) = g_a D(M) + M D(g_a) is recorded;
    a product that is a combination of kept monomials makes that rule a
    linear constraint.  Together the constraints give D(g x) = g D(x) +
    x D(g) for every generator g and every x, which is the Leibniz rule by
    induction over monomials.  Where the table has integer numerators over
    a denominator λ (1 on a monomial table), the walk and the Leibniz
    forms run on the table ``products.numerators`` of x∘y = λ·xy, whose
    constants are those numerators and whose unit is e_0/λ; since
    D(x∘y) = λ·D(xy), its derivations are those of the product.  A
    solution fixes D on the monomials, so D = D_M M^-1 for the matrix M
    whose columns are the monomials; the walk's own echelon gives M^-1.
    The relations, M^-1 and the solutions are scaled to integers by
    :func:`~weilkit.linalg.integer_row`; the solutions become sparse
    row-major rows, and are returned in canonical reduced form (leading
    entry 1 in row-major matrix order).
    For a two-dimensional algebra the single generator is rescaled so the
    nilpotent generator maps to minus itself, which makes the induced field
    on a tangent-bundle chart the Liouville field with flow e^t.
    """
    s = algebra.dim
    products = algebra.products
    unit = [Fraction(1, products.denominator)] + [_ZERO] * (s - 1)
    if products.numerators is not None:  # walk x∘y = λ·xy, from its unit e_0/λ
        products = products.numerators
    generators, _, parents, relations, span = monomial_walk(products, unit, algebra.generators)
    n_unknowns = len(generators) * s  # unknown a*s + q is coordinate q of D(g_a)
    # M_t * e_q, sparse: e_q for the unit, and g_a * (M_t' * e_q) for M_t = g_a * M_t'.
    operators: list[list[dict]] = [[{q: 1} for q in range(s)]]
    for a, t in parents[1:]:
        row = products[generators[a]]
        operators.append([{} for _ in range(s)])
        for column, source in zip(operators[-1], operators[t]):
            for p, c in source.items():
                linalg.add_scaled(column, c, dict(row[p]))
    images: list[list[dict]] = [[{} for _ in range(s)]]  # D(M_u) as s linear forms

    def leibniz(a: int, t: int) -> list[dict]:
        """D(g_a M_t) = g_a D(M_t) + M_t D(g_a), as s linear forms."""
        forms: list[dict] = [{} for _ in range(s)]
        for q, form in enumerate(images[t]):
            for k, c in products[generators[a]][q] if form else ():
                linalg.add_scaled(forms[k], c, form)
        for q, column in enumerate(operators[t]):
            for k, c in column.items():
                linalg.add_scaled(forms[k], c, {a * s + q: 1})
        return forms

    for a, t in parents[1:]:
        images.append(leibniz(a, t))
    # g_a M_t = sum_u c M_u, so D(g_a M_t) must be the same combination of
    # the images: s constraints, one per coordinate, each scaled to integer
    # weights w = c * scale.
    constraints: dict = {}
    for a, t, expansion in relations:
        weights, scale = linalg.integer_row(expansion)
        forms = [{x: v * scale for x, v in form.items()} for form in leibniz(a, t)]
        for u, w in weights.items():
            for form, image in zip(forms, images[u]):
                linalg.add_scaled(form, -w, image)
        for form in forms:
            linalg.eliminate(constraints, form, n_unknowns)

    # D maps monomial u to images[u], so D = D_M M^-1 for the matrix M whose
    # columns are the monomials: entry (p, u) of D_M adds its multiple of
    # row u of M^-1 to row p of D, which is entry p*s + q of a row-major row.
    # The walk's reduced echelon holds M^-1[u][q] in column s + u of row q.
    # M^-1 and each solution are scaled to integers (linalg.integer_row);
    # the rows they give span the same space.
    reduced = sorted(linalg.back_reduce(span).items())
    entries = {(x - s, q): c for q, row in reduced for x, c in row.items() if x >= s}
    inverse: list[dict] = [{} for _ in range(s)]
    for (u, q), c in linalg.integer_row(entries)[0].items():
        inverse[u][q] = c
    expansion: dict = {}  # unknown -> [(p, u, its coefficient in D(M_u)_p)]
    for u, image in enumerate(images):
        for p, form in enumerate(image):
            for x, c in form.items():
                expansion.setdefault(x, []).append((p, u, c))
    rows = []
    for solution in linalg.null_vectors(linalg.back_reduce(constraints), n_unknowns):
        d_m: dict = {}
        for x, value in linalg.integer_row(solution)[0].items():
            for p, u, c in expansion.get(x, ()):
                d_m[p, u] = d_m.get((p, u), 0) + value * c
        row: dict = {}
        for (p, u), value in d_m.items():
            if value:
                linalg.add_scaled(row, value, {p * s + q: y for q, y in inverse[u].items()})
        rows.append(row)
    echelon: dict = {}
    for row in sorted(rows, key=len):  # sparsest first: sparse pivot rows stay sparse
        linalg.eliminate(echelon, row, s * s)
    basis = []
    for _, row in sorted(linalg.back_reduce(echelon).items()):  # the canonical rows
        columns: list[dict] = [{} for _ in range(s)]
        for x, value in row.items():
            columns[x % s][x // s] = value
        basis.append(_trusted(algebra, columns))
    if s == 2 and len(basis) == 1 and basis[0].columns[1].get(1, 0) > 0:
        basis = [-basis[0]]
    return basis


def commutator_on(a_columns: list[dict], b_columns: list[dict], g: int) -> dict:
    """(AB - BA) e_g as a sparse vector, for A and B given by sparse columns
    such as ``Derivation.integer_columns``."""
    out: dict = {}
    for q, c in b_columns[g].items():
        linalg.add_scaled(out, c, a_columns[q])
    for q, c in a_columns[g].items():
        linalg.add_scaled(out, -c, b_columns[q])
    return out


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator D1 D2 - D2 D1, a derivation by construction.

    Formed column by column on sparse columns, so the work follows the
    non-zero entries of the two derivations, and a column empty in both is
    skipped.  The columns are formed on the ``integer_columns`` of the
    two derivations, over da and db, and each non-zero entry is built
    once, as a Fraction over da*db."""
    check_same_algebra(d1.algebra, d2.algebra, _DIFFERENT_ALGEBRAS)
    (a, da), (b, db) = d1.integer_columns, d2.integer_columns
    den = da * db
    columns: list[dict] = [{} for _ in a]
    indices = range(len(a))
    for q in {*itertools.compress(indices, a), *itertools.compress(indices, b)}:
        columns[q] = {p: Fraction(x, den) for p, x in commutator_on(a, b, q).items()}
    return _trusted(d1.algebra, columns)


def module_scale(a: AlgebraElement, d: Derivation) -> Derivation:
    """The derivation u -> a * d(u), column by column: column q is
    a * D(e_q), so its matrix is M_a D for the multiplication operator M_a.
    ValueError unless every coordinate of ``a`` is an int or a Fraction."""
    check_same_algebra(a.algebra, d.algebra, "element and derivation belong to different algebras")
    if not all(isinstance(x, (int, Fraction)) for x in a.coeffs):
        raise ValueError("a module multiple needs an element with int or Fraction coordinates")
    products, s = d.algebra.products, d.algebra.dim
    dense = ([column.get(k, _ZERO) for k in range(s)] for column in d.columns)
    images = (mul(products, a.coeffs, v) for v in dense)
    return _trusted(d.algebra, [{p: y for p, y in enumerate(image) if y} for image in images])


class LieStructure(Frozen):
    """A derivation basis together with its exact non-zero brackets: for
    i < j, [basis[i], basis[j]] = sum_k brackets[i, j][k] * basis[k].

    Each entry maps k to a non-zero constant, an int or a Fraction; any
    other constant raises ValueError.  A pair whose bracket vanishes has
    no entry, and [basis[j], basis[i]] is the negation of
    [basis[i], basis[j]]."""

    __slots__ = _fields = ("basis", "brackets")

    basis: tuple[Derivation, ...]
    brackets: dict[tuple[int, int], dict[int, Fraction]]

    def __init__(self, basis, brackets):
        if not all(isinstance(c, (int, Fraction)) for v in brackets.values() for c in v.values()):
            raise ValueError("structure constants must be ints or Fractions")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "brackets", brackets)

    @property
    def rank(self) -> int:
        return len(self.basis)


def lie_structure(basis: Sequence[Derivation]) -> LieStructure:
    """Expand every pairwise bracket exactly in the given basis.

    The constants of a pair are the coordinates of ``bracket(D_i, D_j)``,
    read on the columns of the algebra's ``generators`` g of m, width of
    them.  Two derivations that agree on generators are equal (a
    derivation is fixed by its values on generators), so restricting
    derivations to those columns is injective, and the coordinates come
    from one sparse echelon of the r restricted basis derivations, r x
    width*s entries.  An injective linear map preserves linear
    independence and membership in a span, so the independence and
    closure checks on the restrictions are exact.

    Raises NotClosedError when some bracket escapes the span (possible only
    if the input is not a full derivation basis) and ValueError when the
    input is linearly dependent.
    """
    basis = list(basis)
    r = len(basis)
    if r == 0:
        return LieStructure((), {})
    for d in basis[1:]:
        check_same_algebra(basis[0].algebra, d.algebra, _DIFFERENT_ALGEBRAS)
    s = basis[0].algebra.dim
    generators = basis[0].algebra.generators
    length = len(generators) * s  # column a*s + p is coordinate p of D(g_a)

    def restricted(vectors) -> dict:
        return {a * s + p: x for a, vector in enumerate(vectors) for p, x in vector.items()}

    # Column length + k of an echelon row is its coefficient on basis[k].
    echelon: dict = {}
    for k, d in enumerate(basis):
        row = restricted(d.columns[g] for g in generators)
        row[length + k] = Fraction(1)
        if not linalg.eliminate(echelon, row, length):
            raise ValueError("derivations are not linearly independent")

    brackets: dict = {}
    for i in range(r):
        for j in range(i + 1, r):
            columns = bracket(basis[i], basis[j]).columns
            row = restricted(columns[g] for g in generators)
            if not row:
                continue
            if linalg.eliminate(echelon, row, length):
                raise NotClosedError("bracket lies outside the span of the basis")
            # The bracket minus sum_k c_k basis[k] reduced to zero, so the
            # tracking columns hold -c_k.
            brackets[i, j] = {col - length: -x for col, x in row.items()}
    return LieStructure(tuple(basis), brackets)


def jacobi_residual(lie: LieStructure) -> Fraction:
    """Largest absolute Jacobi defect of the structure constants (0 for a
    genuine Lie algebra).

    The constants are antisymmetric, so the Jacobiator is alternating in
    (i, j, k) and only i < j < k needs to be evaluated.
    """
    g: dict = {}  # both orientations of every non-zero bracket
    for (i, j), coeffs in lie.brackets.items():
        g[i, j] = coeffs
        g[j, i] = {k: -c for k, c in coeffs.items()}
    worst = Fraction(0)
    for i, j, k in itertools.combinations(range(lie.rank), 3):
        total: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in g.get((a, b), {}).items():
                linalg.add_scaled(total, x, g.get((m, c), {}))
        worst = max([worst, *map(abs, total.values())])
    return worst


class Automorphism(Frozen):
    """Floating-point algebra automorphism, e.g. exp(tD) for a derivation D.

    Multiplicative up to round-off; fixes the unit exactly (the unit row of
    a derivation matrix is zero, so it survives scaling and squaring).

    Stored once, as sparse rows: row i lists the pairs (j, x) of the
    entries x = matrix[i][j] that its producer stored, in ascending j, so
    an entry no pair names is 0.0.  The public ``Automorphism(algebra,
    matrix)`` raises ValueError unless ``matrix`` is s x s, and keeps
    every entry of it; :func:`exp_flow` and
    :meth:`compose` keep every sum that :func:`_product` forms.  ``matrix``
    is the dense view, built on first read.  :meth:`apply` and
    :meth:`compose` skip the zero entries, and every float sum they form
    adds its terms left to right from 0.0, in ascending column order.
    """

    _fields = ("algebra", "matrix")

    algebra: WeilAlgebra

    def __init__(self, algebra, matrix):
        s = algebra.dim
        if len(matrix) != s or any(len(row) != s for row in matrix):
            raise ValueError(f"an automorphism matrix must be {s} x {s}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_rows", [list(enumerate(row)) for row in matrix])

    @cached_property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        rows = (dict(row) for row in self._rows)
        return tuple(tuple(row.get(j, 0.0) for j in range(self.algebra.dim)) for row in rows)

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        """phi(u), in floats; ValueError when an exact coordinate of ``u``
        is beyond the float range."""
        check_same_algebra(u.algebra, self.algebra, "element belongs to a different algebra")
        try:
            coords = [float(c) for c in u.coeffs]
        except OverflowError:
            raise ValueError("a coordinate of the element overflows floating point") from None
        out = []
        for row in self._rows:
            y = 0.0
            for j, x in row:
                if x:
                    y += x * coords[j]
            out.append(y)
        return AlgebraElement(self.algebra, tuple(out))

    def compose(self, other: "Automorphism") -> "Automorphism":
        check_same_algebra(other.algebra, self.algebra, "automorphisms belong to different algebras")
        product = _product(self._rows, [dict(row) for row in other._rows])
        return _from_rows(self.algebra, [sorted(row.items()) for row in product])


def _from_rows(algebra: WeilAlgebra, rows: list[list]) -> Automorphism:
    """The Automorphism stored as ``rows``, without the dense matrix or
    the shape check."""
    phi = object.__new__(Automorphism)
    object.__setattr__(phi, "algebra", algebra)
    object.__setattr__(phi, "_rows", rows)
    return phi


def _product(a: list[list], b: list[dict]) -> list[dict]:
    """Rows of A @ B, for A given by rows of (k, x) pairs in ascending k and
    B by rows mapping j to y: entry (i, j) is the sum from 0.0 of x * y
    over the k, in ascending order, where both factors are non-zero.  The
    rows come back as dicts, in no particular column order."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row:
            if x:
                for j, y in b[k].items():
                    if y:
                        acc[j] = acc.get(j, 0.0) + x * y
        out.append(acc)
    return out


_EXP_COEFFS = list(itertools.accumulate(range(1, 19), truediv, initial=1.0))  # 1/k!, k <= 18


def _chain_length(rows: list[list], cap: int) -> int:
    """The most entries in a chain (p0, p1), (p1, p2), ... of the entries
    of ``rows`` (row p lists pairs (q, x)), or ``cap`` if that is smaller,
    as it is wherever the entries form a cycle.  Entry (p, q) of a
    product of k such matrices is a sum over the chains of k entries from
    p to q, so every power beyond that length has no entry at all."""
    length, live = 0, [p for p, row in enumerate(rows) if row]  # p starting a chain of 1
    while live and length < cap:
        length += 1
        ends = set(live)  # p starting a chain of ``length``
        live = [p for p, row in enumerate(rows) if any(q in ends for q, _ in row)]
    return length


def exp_flow(d: Derivation, t: float) -> Automorphism:
    """exp(tD) by scaling and squaring on a truncated exponential series,
    from ``d.float_nonempty``; ValueError when D has an entry beyond the
    float range, or when t or t*D is not finite.

    Horner's rule starts at degree L, the most entries in a chain of
    non-zero entries of the scaled tD (:func:`_chain_length`), and at the
    series' 18 where they form a cycle, as for every D that is not
    nilpotent.  That gives the floats and the stored entries of the
    18-term series: the inner sum at degree m of the full series differs
    only in rows q that start a chain of more than L - m entries, and the
    next step reads row q only through an entry (p, q), so p starts a
    chain of more than L - m + 1; at degree 0 there is none.
    Each Horner step, scaled @ result + c * I on the non-zero entries of
    tD, and each squaring is the one :func:`_product` that also composes
    automorphisms.  Every float sum, the row norms that set the number of
    squarings included, adds its terms from 0.0 in ascending column
    order, so the floats are bit for bit those of dense products on any
    Python.  The products a sum leaves out have a zero factor; for finite
    floats they are signed zeros, which leave a sum from 0.0 unchanged, as
    such a sum is never -0.0.  An entry that no term reaches is that 0.0, and is
    not stored.  A squaring skips zero factors outright too, since its
    entries may have overflowed.
    """
    s = d.algebra.dim
    columns = d.float_nonempty
    if columns is None:
        raise ValueError("a derivation entry overflows floating point")
    try:
        t = float(t)
    except OverflowError:  # an int or Fraction beyond the float range
        t = math.inf
    if not math.isfinite(t):
        raise ValueError("flow time too large: t*D overflows floating point")
    rows = [[] for _ in range(s)]  # row p of tD as (q, entry), q ascending
    for q, column in columns:  # the non-empty columns, q ascending
        for p, x in column:
            rows[p].append((q, x * t))
    # Left to right: sum() compensates float sums from Python 3.12 on.
    norm = max(reduce(add, (abs(x) for _, x in row), 0.0) for row in rows)
    if not math.isfinite(norm):
        raise ValueError("flow time too large: t*D overflows floating point")
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    factor = 0.5 ** squarings
    scaled = [[(q, y) for q, x in row if (y := x * factor)] for row in rows]

    degree = _chain_length(scaled, len(_EXP_COEFFS) - 1)
    result = [{i: _EXP_COEFFS[degree]} for i in range(s)]
    for c in reversed(_EXP_COEFFS[:degree]):
        result = _product(scaled, result)  # scaled @ result + c * I
        for i, row in enumerate(result):
            row[i] = row.get(i, 0.0) + c
    for _ in range(squarings):
        result = _product([sorted(row.items()) for row in result], result)
    result = [sorted(row.items()) for row in result]
    if not all(math.isfinite(x) for row in result for _, x in row):
        raise ValueError("flow time too large: exp(tD) overflows floating point")
    return _from_rows(d.algebra, result)


def multiplicativity_residual(phi: Automorphism) -> float:
    """max |phi(a_i a_j) - phi(a_i) phi(a_j)| over all basis pairs; by
    bilinearity this bounds the defect on the whole unit ball up to a
    dimension factor."""
    algebra = phi.algebra
    s = algebra.dim
    worst = 0.0
    basis = [algebra.basis_element(i) for i in range(s)]
    images = [phi.apply(e) for e in basis]
    for i, j in itertools.combinations_with_replacement(range(s), 2):
        lhs = phi.apply(basis[i] * basis[j])
        rhs = images[i] * images[j]
        worst = max(
            worst,
            max(abs(float(a) - float(b)) for a, b in zip(lhs.coeffs, rhs.coeffs)),
        )
    return worst
