"""Finite-dimensional local algebras given by multiplication tables.

A :class:`WeilAlgebra` is a commutative unital algebra of finite dimension
over the rationals whose nilpotent elements form a maximal ideal of
codimension one.  Only tables that come from outside are verified, by
:func:`from_structure_constants`, which runs the full axiom check:

* commutativity of the structure-constant tensor,
* existence of a unit (solved for as a linear system),
* associativity, checked on the operators of algebra generators along
  one monomial walk (:func:`monomial_walk`), which proves it for every
  basis triple,
* locality: the maximal ideal is the kernel of the trace x -> Tr(L_x) of
  the regular representation, and the algebra is local exactly when that
  kernel is closed under products (valid in characteristic zero), which
  is the one check made; the height is read off the ideal's powers.

The monomial constructions skip it: a quotient of a polynomial ring by a
monomial ideal that contains a pure power of every variable is a Weil
algebra by construction, and its standard monomials in graded-lex order
already form a normalised basis.

Either way basis element 0 is the unit and elements 1..s-1 span the
maximal ideal; the scalar part of an element is then literally its
coordinate 0.  The algebra stores the basis elements that generate m
(``WeilAlgebra.generators``): the verifier finds them once, and a
monomial algebra has its variables.  Every product goes through one
kernel, :func:`mul`, over the sparse structure constants that are
indexed once per table.  One loop, :func:`mul_loop`, forms every
product: exact coordinates on integer numerators over one common
denominator, float coordinates on a float copy of the constants, from
the marker :data:`EMPTY_SUM` of a float sum that no term reaches, and
any other coordinates on the constants themselves.  Since m is nilpotent
most products of basis elements are zero, and the loop walks each row's
non-zero products where they are fewer than an operand's non-zero
coordinates.
An exact :class:`AlgebraElement` keeps the integer numerators of its
products, so a chain of exact products (a power, a polynomial value)
stays on integers and builds its Fractions once, when its coordinates
are first read.
All scalars in this module are exact ``Fraction``s with no
tolerances; elements may carry floats only in flow integration, which
never feeds back into verification.

Every construction refuses an algebra of dimension above ``MAX_DIM``, or
more than ``MAX_DIM`` variables or labels, with :class:`SizeLimitError`
before it allocates a table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .poly import Exponents, Polynomial, grlex_key, monomial_str, signed_sum

Table = tuple[tuple[tuple[Fraction, ...], ...], ...]


class AlgebraAxiomError(ValueError):
    """A multiplication table failed one of the local-algebra axioms."""

    axiom = "Axiom"


class NotCommutativeError(AlgebraAxiomError):
    axiom = "NotCommutative"


class NotAssociativeError(AlgebraAxiomError):
    axiom = "NotAssociative"


class NoUnitError(AlgebraAxiomError):
    axiom = "NoUnit"


class NotLocalError(AlgebraAxiomError):
    axiom = "NotLocal"


class NotNilpotentError(AlgebraAxiomError):
    """The maximal ideal is not nilpotent: raised only by the guard of the
    height walk, which the locality check of :func:`from_structure_constants`
    leaves no verified table to reach."""

    axiom = "NotNilpotent"


class InfiniteDimensionalError(ValueError):
    """A monomial quotient without a pure power of every variable."""


class SizeLimitError(ValueError):
    """An input asks for an algebra beyond the documented size caps."""


# The size cap, checked before a table is allocated.  A table holds dim^3
# structure constants, so MAX_DIM bounds the size of every algebra; it
# admits R[x1..x5]/m^4 (dim 56).  It also caps the number of variables,
# which only order 0 or relations x_i^1 could push past the dimension.
# Orders and relation exponents need no caps of their own: the standard
# monomials are enumerated one at a time and the enumeration stops at the
# first one beyond MAX_DIM, so in effect the order is at most MAX_DIM - 1
# (R[x]/x^(order+1) has dimension order + 1) and a pure power at most
# x^MAX_DIM.
MAX_DIM = 64


def check_size(what: str, value: int, cap: int) -> None:
    """Raise SizeLimitError when ``value`` exceeds ``cap``."""
    if value > cap:
        raise SizeLimitError(f"{what} {value} exceeds the cap of {cap}")


def check_same_algebra(a: "WeilAlgebra", b: "WeilAlgebra", message: str) -> None:
    """Raise ValueError(message) unless ``a`` and ``b`` are equal algebras;
    the identity test first spares comparing their structure constants."""
    if a is not b and a != b:
        raise ValueError(message)


class Frozen:
    """Base of the package's immutable value classes.

    Instances compare, hash and print by the attributes that the class
    names in ``_fields``, and only equal to instances of the same class.
    Each subclass sets its attributes in its own ``__init__`` through
    ``object.__setattr__``; setting or deleting one afterwards raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore an instance here, past __setattr__: state
        # is its __dict__, or (__dict__ or None, slots) under __slots__.
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class WeilAlgebra(Frozen):
    """Verified local algebra over a normalised basis.

    ``products`` is the sparse index of the structure constants that
    :func:`mul` reads: ``products[i][j]`` lists the pairs (k, c) with c the
    non-zero coefficient of basis element k in the product of basis
    elements i and j.  Basis element 0 is the unit; elements 1..dim-1 span
    the maximal ideal.  ``height`` is the smallest k with m^(k+1) = 0;
    ``generators`` are basis elements of m whose classes form a basis of
    m/m^2, found with the height (:func:`_height_and_generators`) or read
    off the degree-1 monomials, and ``width`` = dim(m/m^2) is their
    number.  Algebras compare by all four fields; the hash reads only the
    labels, height and generators.
    """

    __slots__ = _fields = ("labels", "products", "height", "generators")

    labels: tuple[str, ...]
    products: Products
    height: int
    generators: tuple[int, ...]

    def __init__(self, labels, products, height, generators):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "generators", generators)

    def __hash__(self) -> int:
        return hash((self.labels, self.height, self.generators))

    @property
    def width(self) -> int:
        return len(self.generators)

    @property
    def table(self) -> Table:
        """Dense view of ``products``, built on each read: ``table[i][j][k]``
        is the coefficient of basis element k in the product of basis
        elements i and j.  Nothing in the package reads it."""
        zero, s = Fraction(0), self.dim
        return tuple(
            tuple(tuple(dict(entry).get(k, zero) for k in range(s)) for entry in row)
            for row in self.products
        )

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return (
            f"WeilAlgebra(dim={self.dim}, height={self.height}, "
            f"width={self.width}, labels={list(self.labels)})"
        )

    # ------------------------------------------------------------- elements

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return AlgebraElement(self, tuple(_scalar(c) for c in coeffs))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (Fraction(0),) * self.dim)

    def unit(self) -> "AlgebraElement":
        """Basis element 0.  On a table with ``numerators`` it is the empty
        product, kept on integers as the products of elements are (see
        :class:`AlgebraElement`)."""
        if self.products.numerators is None:
            return self.basis_element(0)
        return _kept(self, [1] + [0] * (self.dim - 1), 1)

    def basis_element(self, i: int) -> "AlgebraElement":
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range")
        coeffs = [Fraction(0)] * self.dim
        coeffs[i] = Fraction(1)
        return AlgebraElement(self, tuple(coeffs))

    def from_scalar(self, value) -> "AlgebraElement":
        coeffs = [_scalar(0)] * self.dim
        coeffs[0] = _scalar(value)
        return AlgebraElement(self, tuple(coeffs))

    def maximal_ideal_basis(self) -> tuple["AlgebraElement", ...]:
        return tuple(self.basis_element(i) for i in range(1, self.dim))


class AlgebraElement(Frozen):
    """Coefficient vector over an algebra's basis.

    Coefficients are Fractions on the exact path; flows produce float
    coefficients, and mixed arithmetic degrades to float as usual.

    An element reads the :func:`integer_form` of its coordinates at most
    once (:meth:`integer_form`).  A product of two exact elements on a
    table with ``numerators`` is kept in that form, as integer numerators
    over one denominator, and so are the sums, differences, negations and
    rational multiples of a kept element; its Fraction coordinates are
    built on the first read of ``coeffs``.  So a chain of exact products
    runs on integers, and every read gives what Fraction arithmetic gives:
    a Fraction for each coordinate, Fraction(0) where no term reaches.  A
    kept product divides out the content of its numerators on a table over
    a denominator λ > 1, where the denominator would otherwise gain a
    factor λ per product, and wherever its denominator takes more than 64
    bits, where it would otherwise gain the operand's whole denominator
    per product however small the value's own stays.  Sums of elements
    that are not kept, and every operation on float, mixed or polynomial
    coordinates, run on the coordinates themselves.  A product in which a
    float meets an exact coordinate or structure constant beyond the float
    range raises ValueError.
    """

    __slots__ = ("algebra", "_coeffs", "_form")
    _fields = ("algebra", "coeffs")

    algebra: WeilAlgebra

    def __init__(self, algebra, coeffs):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_form", None)  # not read yet

    @property
    def coeffs(self) -> tuple:
        coeffs = self._coeffs
        if coeffs is None:  # a kept element
            coeffs = from_integer_form(self._form)
            object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

    def integer_form(self) -> tuple[list[int], int] | None:
        """The coordinates as (numerators, denominator), read once: the
        :func:`integer_form` of an element given by its coordinates, the
        kept form of a kept one; None when the coordinates have none."""
        form = self._form
        if form is None:
            form = integer_form(self._coeffs) or False
            object.__setattr__(self, "_form", form)
        return form or None

    def _sum(self, other, sign: int):
        """self + sign * other: kept when one of them is kept and both are
        exact, and formed on the coordinates otherwise."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        algebra = self.algebra
        if algebra is not other.algebra:
            check_same_algebra(algebra, other.algebra, _DIFFERENT_ALGEBRAS)
        if self._coeffs is None or other._coeffs is None:
            a, b = self.integer_form(), other.integer_form()
            if a and b:
                (x, da), (y, db) = a, b
                den = da if da == db else math.lcm(da, db)
                fa, fb = den // da, sign * (den // db)
                return _kept(algebra, [p * fa + q * fb for p, q in zip(x, y)], den)
        if sign == 1:
            return AlgebraElement(algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return AlgebraElement(algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        if self._coeffs is None:
            numerators, denominator = self._form
            return _kept(self.algebra, [-x for x in numerators], denominator)
        return AlgebraElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        algebra = self.algebra
        if isinstance(other, AlgebraElement):
            if algebra is not other.algebra:
                check_same_algebra(algebra, other.algebra, _DIFFERENT_ALGEBRAS)
            products = algebra.products
            if products.numerators is not None:
                a = self.integer_form()
                b = a and other.integer_form()
                if b:
                    out, den = _integer_product(products, a, b)
                    if products.denominator != 1 or den.bit_length() > 64:
                        content = math.gcd(den, *out)
                        if content != 1:
                            out, den = [x // content for x in out], den // content
                    return _kept(algebra, out, den)
            try:
                out = _inexact_mul(products, self.coeffs, other.coeffs)
            except OverflowError:  # a float times an exact value beyond the float range
                raise ValueError("a product of algebra elements overflows floating point") from None
            return AlgebraElement(algebra, tuple(out))
        if self._coeffs is None and type(other) in _EXACT_TYPES:
            (numerators, denominator), (n, d) = self._form, other.as_integer_ratio()
            return _kept(algebra, [n * x for x in numerators], denominator * d)
        if isinstance(other, (int, Fraction, float)):
            c = _scalar(other)
            return AlgebraElement(algebra, tuple(c * a for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.algebra.unit()
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def scalar_part(self):
        return self.coeffs[0]

    def nilpotent_part(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, (Fraction(0),) + self.coeffs[1:])

    def __str__(self) -> str:
        return format_element(self)


_DIFFERENT_ALGEBRAS = "elements belong to different algebras"
_new = object.__new__
# The slots' own setters, which build a kept element past Frozen.__setattr__.
_set_algebra, _set_coeffs, _set_form = (
    AlgebraElement.__dict__[name].__set__ for name in AlgebraElement.__slots__
)


def _kept(algebra: WeilAlgebra, numerators: list[int], denominator: int) -> AlgebraElement:
    """The element of ``algebra`` kept as numerators over a positive
    denominator, its coordinates not yet built."""
    u = _new(AlgebraElement)
    _set_algebra(u, algebra)
    _set_coeffs(u, None)
    _set_form(u, (numerators, denominator))
    return u


def _scalar(value):
    if isinstance(value, float):
        return value
    return Fraction(value)


def split_scalar_nilpotent(u: AlgebraElement):
    """Decompose u = c*1 + m with m in the maximal ideal; returns (c, m)."""
    return u.scalar_part, u.nilpotent_part()


def format_element(u: AlgebraElement) -> str:
    """Human-readable rendering, e.g. ``3 + 2*ε``."""
    labels = (None,) + u.algebra.labels[1:]
    return signed_sum(zip(u.coeffs, labels))


# ------------------------------------------------------------ product kernel


class Products(tuple):
    """The sparse index of a structure-constant table: ``products[i][j]``
    lists the pairs (k, c), in ascending k, with c the non-zero coefficient
    of basis element k in the product of basis elements i and j.

    ``numerators`` is the table's :func:`integer_form`: the index of
    x∘y = λ·xy, a ``Products`` of its own whose constants are the integers
    c·λ, for λ = ``denominator`` the common denominator of the constants
    (1 for a monomial table).  It is its own ``numerators``, over
    denominator 1.  :func:`mul` reads it for exact coordinates, on a raw
    table under verification as on a verified one, and
    ``derivation_basis`` solves on it, since x∘y has the derivations of
    xy.  It is None on a table without an integer form, and :func:`mul`
    then takes the Fraction loop.
    ``floats`` is the index with every constant as a float, built on first
    use, for float coordinates; a plain tuple, and None when a constant is
    beyond the float range.  ``nonempty[i]`` lists, in ascending j, the j
    whose product e_i·e_j is not zero, built on first use too; it is the
    same for the table, its ``numerators`` and its ``floats``, so the one
    loop :func:`mul_loop` takes it beside the table it runs on, and walks
    it where it is shorter than an operand's non-zero coordinates.
    In a Weil algebra most products of basis elements of m are zero, so on
    a monomial table row i lists only the e_j of degree at most the height
    less the degree of e_i.  All are plain attributes, so an index
    compares and hashes by its entries alone.
    """

    numerators: "Products | None" = None
    denominator: int = 1

    @cached_property
    def floats(self) -> tuple | None:
        try:
            return tuple(
                tuple(tuple((k, float(c)) for k, c in entry) for entry in row) for row in self
            )
        except OverflowError:
            return None

    @cached_property
    def nonempty(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(j for j, entry in enumerate(row) if entry) for row in self)


def _sparse_products(rows) -> Products:
    """The :class:`Products` index of ``rows`` of sparse entries, tuples of
    pairs (k, c) with non-zero Fractions c in ascending k, with the
    integer form of the constants attached if it exists."""
    products = Products(tuple(row) for row in rows)
    form = integer_form([c for row in products for entry in row for _, c in entry])
    if form:
        numerators, products.denominator = form
        flat = iter(numerators)
        integers = Products(
            tuple(tuple((k, next(flat)) for k, _ in entry) for entry in row) for row in products
        )
        products.numerators = integers.numerators = integers
    return products


_ZERO = Fraction(0)
_EXACT_TYPES = frozenset((int, Fraction))
_NUMERIC_TYPES = frozenset((int, Fraction, float))


def integer_form(values: Sequence) -> tuple[list[int], int] | None:
    """Exact values as (numerators, denominator): integer numerators over
    the lcm of the values' denominators, only where that stays about as
    small as the values are.  The one rule for operands, tables and
    derivation columns.

    The lcm of coprime denominators grows like their product, so over many
    values it could outgrow them by any factor, and integers that large
    cost more than the Fraction arithmetic they replace.  A common
    denominator of up to 64 bits is always admitted; each numerator then
    takes at most its value's bits plus 64.  Beyond 64 bits the lcm is
    given up, and None returned, as soon as it would take more than twice
    the bits of all the values once for every value; the numerators then
    take at most three times the bits of the values.  Integer values and
    values over one shared denominator always qualify.  None also when a
    value is not an int or a Fraction (a float or a polynomial).
    """
    if not _EXACT_TYPES.issuperset(map(type, values)):
        return None
    ratios = [x.as_integer_ratio() for x in values]
    # bits * len(ratios) > budget exactly when bits > budget // len(ratios).
    budget = 2 * sum(n.bit_length() + d.bit_length() for n, d in ratios)
    return linalg.over_lcm(ratios, max(64, budget // max(len(ratios), 1)))


def mul(products: Products, u: Sequence, v: Sequence) -> list:
    """Coordinates of u*v, for coordinate vectors u and v over the basis.

    This is the one place where the package multiplies through structure
    constants; :class:`AlgebraElement` products run its two halves.

    Every path gives, bit for bit and type for type, what the plain loop
    gives: out[k] = out[k] + (a*b)*c over the non-zero coordinates a of u
    and b of v, in the order i, then j, then k, from Fraction(0), which is
    also the value of every output coordinate no term reaches.  Exact
    operands in their :func:`integer_form` take :func:`_integer_product`,
    and each non-zero output is built once, as a Fraction over the
    product of the three denominators.  Other operands take
    :func:`_inexact_mul`.
    """
    exact_u = products.numerators is not None and integer_form(u)
    exact_v = exact_u and integer_form(v)
    if exact_v:
        out, den = _integer_product(products, exact_u, exact_v)
        return [Fraction(x, den) if x else _ZERO for x in out]
    return _inexact_mul(products, u, v)


def _integer_product(products: Products, u: tuple, v: tuple) -> tuple[list[int], int]:
    """u*v for operands in their :func:`integer_form`: the numerators
    accumulate in ints through ``products.numerators``, over the product
    du·dv·λ of the two denominators and the table's ``denominator`` λ."""
    (u, du), (v, dv) = u, v
    table = products.numerators
    return mul_loop(table, table.nonempty, u, v, 0), du * dv * products.denominator


def _inexact_mul(products: Products, u: Sequence, v: Sequence) -> list:
    """The plain loop of :func:`mul` for operands that are not both exact.
    When both are numeric and the non-zero coordinates of one are all
    floats, every term is a float that Fraction's mixed arithmetic forms
    on float() of the exact values, so the loop runs on
    ``products.floats`` (:func:`_float_mul`).  Other operands, or a table
    too large for its float copy, run the loop on the constants
    themselves, from Fraction(0)."""
    out = _float_mul(products, u, v)
    return mul_loop(products, products.nonempty, u, v, _ZERO) if out is None else out


def from_integer_form(form: tuple[list[int], int], sign: int = 1) -> tuple:
    """sign * numerators / denominator: the coordinates of an
    :func:`integer_form`, each non-zero one built once as a Fraction, and
    Fraction(0) where the numerator is 0.  Negation is exact in Q, so the
    sign folds into the denominator."""
    numerators, denominator = form
    denominator *= sign
    return tuple(Fraction(x, denominator) if x else _ZERO for x in numerators)


class _EmptySum(float):
    __slots__ = ()


# The start of a float sum that no term has reached yet.  It equals 0.0, and
# float arithmetic returns plain floats, so EMPTY_SUM + y is the float
# 0.0 + y: a sum that a term reaches has the bits of a sum from 0.0, and a
# sum that none reaches is still this object, found by ``is``.  Each reader
# maps it to Fraction(0) before a value leaves the package.
EMPTY_SUM = _EmptySum()


def mul_loop(table, nonempty, u: Sequence, v: Sequence, start) -> list:
    """The one product loop: out[k] is out[k] + a*b*c from ``start``,
    over the non-zero u_i, then v_j, then the pairs (k, c) of e_i·e_j in
    ``table``.  It runs on ints through ``products.numerators`` from 0,
    on Fractions through ``products`` from Fraction(0), and on floats
    through ``products.floats`` from :data:`EMPTY_SUM`; ``nonempty`` is
    the tables' shared :attr:`Products.nonempty` index.  For each u_i it
    walks the shorter of the row's non-empty products and the non-zero
    v_j, in ascending j either way; a pair left out has e_i·e_j = 0 or
    v_j = 0, so it adds no term, and every sum is the one the full loop
    forms."""
    out = [start] * len(table)
    nonzero_v = [j for j, b in enumerate(v) if b]
    count = len(nonzero_v)
    for i, a in enumerate(u):
        if not a:
            continue
        row, columns = table[i], nonempty[i]
        for j in columns if len(columns) < count else nonzero_v:
            b = v[j]
            if b:
                ab = a * b
                for k, c in row[j]:
                    out[k] = out[k] + ab * c
    return out


def _float_mul(products: Products, u: Sequence, v: Sequence) -> list | None:
    """The float path of :func:`_inexact_mul`, or None where it does not
    apply: :func:`mul_loop` on ``products.floats`` from EMPTY_SUM, and
    Fraction(0) where no term reaches.  An operand whose non-zero
    coordinates are all floats goes to the loop as it is, since the loop
    skips its zeros; only the other is read by
    :func:`float_coordinates`."""
    table = products.floats
    if table is None or not (
        _NUMERIC_TYPES.issuperset(map(type, u)) and _NUMERIC_TYPES.issuperset(map(type, v))
    ):
        return None
    float_u = all(type(a) is float for a in u if a)
    float_v = all(type(b) is float for b in v if b)
    if not (float_u or float_v):
        return None
    try:
        u = u if float_u else float_coordinates(u)
        v = v if float_v else float_coordinates(v)
    except OverflowError:  # the loop on the constants raises it where a term needs it
        return None
    out = mul_loop(table, products.nonempty, u, v, EMPTY_SUM)
    return [_ZERO if x is EMPTY_SUM else x for x in out]


def float_coordinates(values: Sequence) -> list:
    """float() of each value, as mixed arithmetic forms it, but a non-zero
    value that rounds to 0.0 stays as it is, so the loop still forms its
    terms: a float times it is that float times 0.0.  OverflowError for a
    value beyond the float range."""
    return [float(x) or x for x in values]


def monomial_walk(products: Products, unit: Sequence[Fraction], candidates: Iterable[int]):
    """Walk the monomials in generators drawn greedily from ``candidates``.

    ``unit`` is the unit's coordinate vector; ``candidates`` are basis
    indices.  A candidate e_g becomes a generator when it is not a
    combination of the monomials kept so far; every kept monomial is then
    multiplied by every generator, and each product that is not a
    combination of the kept monomials is kept too.  The walk stops taking
    candidates once the monomials span the algebra.

    Returns (generators, monomials, parents, relations, span).
    ``monomials[0]`` is the unit; ``parents[u] = (a, t)`` says monomials[u]
    is e_{generators[a]} * monomials[t] (None for the unit), so t < u and a
    generator enters as (a, 0).  ``relations`` holds (a, t, expansion) for
    every other product, with e_{generators[a]} * monomials[t] =
    sum of c * monomials[u] over ``expansion`` = {u: c}.  Each pair (a, t)
    appears exactly once in ``parents`` or ``relations``.  ``span`` is the
    walk's echelon of the rows monomial u + e_(s+u); once the monomials
    span the algebra, row q of its :func:`~weilkit.linalg.back_reduce`
    holds M^-1[u][q] in column s + u, for M with the monomials as columns.
    """
    s = len(products)
    one = Fraction(1)
    units = linalg.identity(s)
    generators: list[int] = []
    monomials: list = []
    parents: list = []
    relations: list = []
    # A row of ``span`` holds a vector in columns < s and, in column s + u,
    # its coefficient on monomial u, so a dependent product reduces to its
    # expansion over the kept monomials.
    span: dict = {}

    def visit(vector, parent) -> dict | None:
        """Keep ``vector`` as the next monomial (None), or return its expansion."""
        tried = s + len(monomials)
        row = {k: c for k, c in enumerate(vector) if c}
        row[tried] = one
        if linalg.eliminate(span, row, s):
            monomials.append(vector)
            parents.append(parent)
            return None
        # Now vector + sum_u row[s + u] * M_u = 0; no pivot row reaches ``tried``.
        del row[tried]
        return {col - s: -c for col, c in row.items()}

    visit(list(unit), None)
    for g in candidates:
        if len(monomials) == s:
            break
        a = len(generators)
        if visit(units[g], (a, 0)) is not None:  # e_g * unit = e_g is not new
            continue
        generators.append(g)
        before = len(monomials) - 1  # the monomials the earlier generators have visited
        t = 1
        while t < len(monomials):
            for b in range(len(generators)) if t >= before else (a,):
                product = mul(products, units[generators[b]], monomials[t])
                expansion = visit(product, (b, t))
                if expansion is not None:
                    relations.append((b, t, expansion))
            t += 1
    return generators, monomials, parents, relations, span


# ----------------------------------------------------------------- raw tables


def _sparse_rows(raw) -> list[tuple]:
    """The sparse rows of a raw s x s x s table (see :class:`Products`),
    its entries read as Fractions."""
    s = len(raw)

    def sized(part):
        if len(part) != s:
            raise ValueError("structure-constant tensor is not s x s x s")
        return part

    return [
        tuple(
            tuple((k, c) for k, c in enumerate(map(Fraction, sized(entry))) if c)
            for entry in sized(row)
        )
        for row in raw
    ]


def _check_commutative(products, labels) -> None:
    for i, j in itertools.combinations(range(len(products)), 2):
        if products[i][j] != products[j][i]:
            raise NotCommutativeError(f"{labels[i]}*{labels[j]} != {labels[j]}*{labels[i]}")


def _check_associative(products, unit, labels) -> None:
    """Associativity of a commutative table whose unit ``unit`` satisfies
    L_unit = I, checked on algebra generators in O(w^2 s^3 + s^4) for w
    generators, instead of the O(s^5) of a scan over all basis triples.

    Walk the monomials in greedy generators G drawn from the basis.  If the
    operators L_g (g in G) commute pairwise and L_{g M_t} = L_g L_{M_t} for
    every kept monomial g M_t, then every L_{M_u} is a product of the L_g,
    and since the M_u span A, every L_x lies in the commutative algebra
    Q[L_G].  The unit is a cyclic vector for it (P(M_u) = P L_{M_u} unit =
    L_{M_u} P unit), so an element of Q[L_G] is fixed by its value at the
    unit; L_{xy} and L_x L_y both send it to xy, hence they are equal, which
    is associativity.  The conditions are also necessary, so when they fail
    the triple scan runs on a table that is known to be bad and names its
    first failing triple.
    """
    s = len(products)
    units = linalg.identity(s)
    generators, monomials, parents, _, _ = monomial_walk(products, unit, range(s))
    # columns[u][q] = M_u * e_q, the columns of L_{M_u}; L_x L_y e_q = x * (y * e_q).
    columns = [[mul(products, m, e) for e in units] for m in monomials]
    # Monomial g * unit = g is the one a generator enters the walk with.
    entered = [columns[u] for u, parent in enumerate(parents) if parent and parent[1] == 0]
    if all(
        mul(products, units[g], y[q]) == mul(products, units[h], x[q])
        for (g, x), (h, y) in itertools.combinations(zip(generators, entered), 2)
        for q in range(s)
    ) and all(
        columns[u][q] == mul(products, units[generators[a]], columns[t][q])
        for u, (a, t) in enumerate(parents[1:], start=1)
        if t
        for q in range(s)
    ):
        return
    pairs = [[mul(products, x, y) for y in units] for x in units]
    for i, j, l in itertools.product(range(s), repeat=3):
        if mul(products, pairs[i][j], units[l]) != mul(products, units[i], pairs[j][l]):
            raise NotAssociativeError(
                f"({labels[i]}*{labels[j]})*{labels[l]} != "
                f"{labels[i]}*({labels[j]}*{labels[l]})"
            )


def _find_unit(products) -> list[Fraction] | None:
    # Solve u * a_j = a_j for all j; commutativity makes this two-sided.
    # Row (j, k) holds the constants table[i][j][k] over i in column i and
    # its right-hand side, 1 for j = k, in column s.  The system has at most
    # one solution, the unit.
    s = len(products)
    rows: dict = {}
    for i, row in enumerate(products):
        for j, entry in enumerate(row):
            for k, c in entry:
                rows.setdefault((j, k), {})[i] = c
    for j in range(s):
        rows.setdefault((j, j), {})[s] = 1
    echelon: dict = {}
    for row in sorted(rows.values(), key=len):
        if not linalg.eliminate(echelon, row, s) and row:
            return None  # the row reduced to 0 = its non-zero right-hand side
    unit = [Fraction(0)] * s
    for lead, row in linalg.back_reduce(echelon).items():
        if s in row:
            unit[lead] = row[s]
    return unit


def _not_local(products, traces) -> NotLocalError:
    """The NotLocalError of a table that is not local.  It names the
    dimension of the nilpotent radical, which in characteristic zero is the
    kernel of the trace form (x, y) -> Tr(L_{xy})."""
    s = len(products)
    gram = [[sum((c * traces[k] for k, c in entry), _ZERO) for entry in row] for row in products]
    d = s - len(linalg.echelon_form(gram))
    return NotLocalError(
        f"nilpotent elements span dimension {d}, expected {s - 1}; "
        "the algebra contains a nontrivial idempotent or semisimple part"
    )


def from_structure_constants(
    labels: Sequence[str], raw_table: Sequence[Sequence[Sequence]]
) -> WeilAlgebra:
    """Verify a multiplication table and return the normalised algebra.

    This is the one verifier, for tables that come from outside; the
    monomial constructions build their algebras without it.  Raises
    NotCommutativeError, NotAssociativeError, NoUnitError or NotLocalError
    when the corresponding axiom fails, and SizeLimitError for more than
    MAX_DIM labels.

    Every check reads the sparse index of the raw table, with its integer
    form, through :func:`mul`.  Associativity is checked on the w
    algebra generators, in O(w^2 s^3 + s^4) rather than over all s^3 basis
    triples; see :func:`_check_associative` for why that is an exact proof.
    Width and height come from the generators of m in the same way.

    Locality is read off the trace t(x) = Tr(L_x) alone, on the table that
    is by then commutative, unital and associative.  t(unit) = Tr(I) = s,
    so the kernel of t is a hyperplane m that misses the unit.  If A is
    local, its maximal ideal is nilpotent, so t vanishes on it, and it is
    m.  Conversely, if m is closed under products, then for x in m every
    power x^k lies in m, so Tr(L_x^k) = Tr(L_{x^k}) = 0 for all k >= 1;
    by Newton's identities in characteristic zero L_x is nilpotent, hence
    so is x = L_x(unit).  Then m is a codimension-one ideal (A·m =
    m + m·m) of nilpotent elements, so A is local with maximal ideal m.
    So the one check that every product of two basis vectors of m has
    t = 0 proves locality; only when it fails is the dimension of the
    nilpotent radical computed, for the message.
    """
    check_size("algebra dimension", len(labels), MAX_DIM)
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("algebra dimension must be at least 1")
    if len(raw_table) != len(labels):
        raise ValueError("label count does not match table size")
    products = _sparse_products(_sparse_rows(raw_table))
    s = len(products)

    _check_commutative(products, labels)
    unit = _find_unit(products)
    if unit is None:
        raise NoUnitError("no element satisfies u*a = a for every basis element a")
    _check_associative(products, unit, labels)

    # traces[k] = Tr(L_{e_k}).  Since t(unit) = s, some trace is non-zero;
    # with f the last such index, rad_p = e_p - (t_p/t_f) e_f for p != f is
    # the reduced basis of m = ker t: 1 at its own leading column p, 0 at
    # the others', and the free column is f.
    traces = [
        sum((c for q, entry in enumerate(row) for k, c in entry if k == q), _ZERO)
        for row in products
    ]
    free = max(k for k, t in enumerate(traces) if t)
    pivots = [p for p in range(s) if p != free]
    radical = [[_ZERO] * s for _ in pivots]
    for p, vec in zip(pivots, radical):
        vec[p], vec[free] = Fraction(1), -traces[p] / traces[free]

    # Change of basis: unit first, then the radical basis, in which
    # x = c unit + sum_p (x[p] - c unit[p]) rad_p for c = t(x) / s.
    columns = [unit, *radical]
    rows = [[None] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):  # the table is commutative
            product = mul(products, columns[i], columns[j])
            c = sum((t * x for t, x in zip(traces, product) if t and x), _ZERO) / s
            if c and i:  # m is not closed under products: A is not local
                raise _not_local(products, traces)
            coords = (c, *(product[p] - c * unit[p] for p in pivots))
            rows[i][j] = rows[j][i] = tuple((k, x) for k, x in enumerate(coords) if x)
    new_products = _sparse_products(rows)

    if columns == linalg.identity(s):
        new_labels = labels
    else:
        new_labels = ("1",) + tuple(signed_sum(zip(vec, labels), sep="") for vec in radical)

    height, generators = _height_and_generators(new_products)
    return WeilAlgebra(new_labels, new_products, height, generators)


def _height_and_generators(products: Products) -> tuple[int, tuple[int, ...]]:
    """(height, generators) of the normalised table of a local algebra (m
    spanned by e_1..e_{s-1} and nilpotent).

    The products e_i * e_j of basis elements of m are eliminated into an
    echelon of m^2; the generators are the basis elements of m that are
    not combinations of it and of the generators before them, so their
    classes form a basis of m/m^2.  They generate m, hence the algebra, a
    derivation is fixed by its values on them, and there are ``width`` of
    them.  They also generate m as an ideal, so m^(k+1) = m^k * m is
    spanned by the products g * u over a basis u of m^k; the walk starts
    from the echelon of m^2, and the height is the number of steps before
    m^(k+1) = 0.
    """
    s = len(products)
    square: dict = {}
    for i in range(1, s):
        for j in range(i, s):
            linalg.eliminate(square, dict(products[i][j]), s)
    current = [[row.get(k, 0) for k in range(s)] for row in square.values()]  # m^2
    generators = tuple(g for g in range(1, s) if linalg.eliminate(square, {g: Fraction(1)}, s))
    units = linalg.identity(s)
    height = min(s - 1, 1)  # m^2 is reached in one step from m, unless m = 0
    while current:
        if height >= s:
            raise NotNilpotentError("maximal ideal is not nilpotent")
        spanning = [
            w for u in current for g in generators
            if any(w := mul(products, units[g], u))
        ]
        current = [
            [row.get(k, 0) for k in range(s)] for row in linalg.echelon_form(spanning).values()
        ]
        height += 1
    return height, generators


# ------------------------------------------------------------- constructions


def _default_names(num_vars: int) -> tuple[str, ...]:
    if num_vars <= 3:
        return ("x", "y", "z")[:num_vars]
    return tuple(f"x{i + 1}" for i in range(num_vars))


def truncated_polynomial_algebra(
    num_vars: int, order: int, names: Sequence[str] | None = None
) -> WeilAlgebra:
    """Polynomials in ``num_vars`` variables truncated beyond total degree
    ``order``: the quotient by the (order+1)-st power of the variable ideal.

    The basis is the monomials of total degree <= order in graded-lex order;
    dimension is C(num_vars+order, order), height is ``order`` and width is
    ``num_vars`` (0 when order = 0).  A Weil algebra by construction, so
    the table skips the axiom check of :func:`from_structure_constants`.
    Raises SizeLimitError when ``num_vars`` or the dimension exceeds
    MAX_DIM, before any table is built.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if order < 0:
        raise ValueError("order must be non-negative")
    check_size("number of variables", num_vars, MAX_DIM)
    names = tuple(names) if names is not None else _default_names(num_vars)
    if len(names) != num_vars:
        raise ValueError("variable-name count mismatch")
    return _monomial_basis_algebra(names, _standard_exponents(num_vars, lambda e: sum(e) <= order))


def monomial_quotient_algebra(
    names: Sequence[str], relations: Sequence[Exponents]
) -> WeilAlgebra:
    """Quotient of a polynomial ring by a monomial ideal.

    ``relations`` are the exponent tuples of the ideal generators.  The
    ideal must contain a pure power of every variable, otherwise the
    quotient is infinite dimensional.  The basis is the set of standard
    monomials (those divisible by no relation).  Once the relations pass
    those checks the quotient is a Weil algebra by construction, so the
    table skips the axiom check of :func:`from_structure_constants`.
    Raises SizeLimitError when the variables or the standard monomials
    outnumber MAX_DIM, before any table is built.
    """
    names = tuple(names)
    if not names:
        raise ValueError("need at least one variable")
    nv = len(names)
    check_size("number of variables", nv, MAX_DIM)
    rels = []
    for rel in relations:
        rel = tuple(int(e) for e in rel)
        if len(rel) != nv:
            raise ValueError("relation arity does not match variable count")
        if any(e < 0 for e in rel):
            raise ValueError("negative exponent in relation")
        if sum(rel) == 0:
            raise ValueError("constant relation collapses the algebra to zero")
        rels.append(rel)
    for i in range(nv):
        if not any(
            rel[i] > 0 and all(rel[j] == 0 for j in range(nv) if j != i) for rel in rels
        ):
            raise InfiniteDimensionalError(
                f"variable {names[i]} has no pure power among the relations"
            )

    def standard(e: Exponents) -> bool:
        return not any(all(r <= x for r, x in zip(rel, e)) for rel in rels)

    return _monomial_basis_algebra(names, _standard_exponents(nv, standard))


def _standard_exponents(num_vars: int, standard) -> list[Exponents]:
    """The exponent tuples e with ``standard(e)``, in graded-lex order, for a
    predicate that holds on every divisor of a tuple it holds on.

    Each tuple is reached once, from itself minus one power of its last
    variable, so the work is about num_vars predicate calls per standard
    monomial; SizeLimitError is raised as soon as more than MAX_DIM are
    found.
    """
    layer = [(0,) * num_vars]  # the standard monomials of one degree
    found: list[Exponents] = []
    while layer:
        found.extend(layer)
        following = []
        for e in layer:
            last = max((i for i, x in enumerate(e) if x), default=0)
            for i in range(last, num_vars):
                f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                if standard(f):
                    following.append(f)
                    if len(found) + len(following) > MAX_DIM:
                        raise SizeLimitError(f"algebra dimension exceeds the cap of {MAX_DIM}")
        layer = sorted(following, key=grlex_key)
    return found


def _monomial_basis_algebra(names, exponents) -> WeilAlgebra:
    # The standard monomials in grlex order put the unit first and span m
    # after it, so the table is already normalised.  A product is the basis
    # monomial with the summed exponent, or zero when that exponent is not
    # standard; m^k is spanned by the standard monomials of degree >= k,
    # so the variables' monomials are the generators of m.
    index = {e: ((i, Fraction(1)),) for i, e in enumerate(exponents)}
    rows = [
        tuple(index.get(tuple(a + b for a, b in zip(ei, ej)), ()) for ej in exponents)
        for ei in exponents
    ]
    return WeilAlgebra(
        labels=tuple(monomial_str(e, names) for e in exponents),
        products=_sparse_products(rows),
        height=max(sum(e) for e in exponents),
        generators=tuple(i for i, e in enumerate(exponents) if sum(e) == 1),
    )


def dual_numbers(name: str = "ε") -> WeilAlgebra:
    """The dual numbers: one nilpotent generator with square zero."""
    return truncated_polynomial_algebra(1, 1, names=(name,))


def eval_in_algebra(p: Polynomial, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """Image of p under the algebra homomorphism sending variable i to args[i].

    ``Polynomial.evaluate`` forms it, with its powers cache and term loop,
    on the elements themselves; at exact arguments on a table with integer
    numerators every product and sum of the chain is kept on integers,
    and the value's Fractions are built when it is read.
    """
    if not args:
        raise ValueError("need at least one argument to determine the algebra")
    algebra = args[0].algebra
    for arg in args[1:]:
        check_same_algebra(arg.algebra, algebra, "arguments belong to different algebras")
    if len(args) != p.nvars:
        raise ValueError(f"polynomial has {p.nvars} variables, got {len(args)} arguments")
    return p.evaluate(args, one=algebra.unit())


def powers(u: AlgebraElement, n: int) -> list[AlgebraElement]:
    """[u^0, u^1, ..., u^n], each power the previous one times u from the
    unit, the products ``u ** e`` makes."""
    row = [u.algebra.unit()]
    for _ in range(n):
        row.append(row[-1] * u)
    return row
