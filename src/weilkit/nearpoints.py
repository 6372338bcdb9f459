"""Near-point charts: algebra-valued points of R^n and lifted functions.

A near point of R^n over an algebra A of dimension s is an n-tuple of
algebra elements whose scalar parts are the coordinates of an ordinary base
point; the nilpotent parts are the infinitesimal data.  Evaluating a
polynomial f componentwise at a near point realises the point as an algebra
homomorphism from functions on R^n to A, and the value differs from f(base)
by a nilpotent.

The chart model identifies the set of near points with R^(n*s): coordinate
(i, j) is the coefficient of basis element j inside component i, flattened
as i*s + j.  A chart vector field stores one polynomial in these n*s
coordinates per chart direction.  The two standard descriptions of such a
field are connected here:

* ``chart_components`` splits a lifted polynomial into its s coordinate
  polynomials on the chart (evaluate f on algebra elements whose
  coordinates are the chart variables, through the one product kernel,
  and read off their coordinates);
* ``apply_chart_field`` lets a chart field act on a function f and returns
  the algebra-valued result at a point, which obeys the Leibniz rule with
  respect to lifted multiplication;
* ``field_from_values`` rebuilds the chart field from those algebra-valued
  results on the coordinate functions, inverting the previous map.

For non-polynomial functions a :class:`TaylorOracle` carries the scaled
partial derivatives at the base point; nilpotency truncates everything
beyond the algebra height, so the finite Taylor sum is exact at that point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    AlgebraElement,
    Frozen,
    WeilAlgebra,
    check_same_algebra,
    eval_in_algebra,
    float_product,
    powers,
)
from .poly import Exponents, Polynomial


_ZERO = Fraction(0)


class NonzeroScalarPartError(ValueError):
    """A nilpotent part was supplied with a nonzero scalar coordinate."""


class BasePointMismatchError(ValueError):
    """A Taylor oracle was evaluated at a point with a different base."""


class MissingPartialError(ValueError):
    """A Taylor oracle lacks a partial derivative the algebra height needs."""


class NearPoint(Frozen):
    """Point of the chart model: one algebra element per coordinate of R^n."""

    __slots__ = _fields = ("components",)

    components: tuple[AlgebraElement, ...]

    def __init__(self, components):
        if not components:
            raise ValueError("a near point needs at least one component")
        first = components[0].algebra
        for comp in components[1:]:
            check_same_algebra(comp.algebra, first, "components belong to different algebras")
        object.__setattr__(self, "components", components)

    @property
    def algebra(self) -> WeilAlgebra:
        return self.components[0].algebra

    @property
    def n(self) -> int:
        return len(self.components)

    def base_point(self) -> tuple:
        return tuple(c.scalar_part for c in self.components)

    def chart_coords(self) -> tuple:
        """Flattened chart coordinates, component i contributing slots
        i*s .. i*s+s-1."""
        out = []
        for comp in self.components:
            out.extend(comp.coeffs)
        return tuple(out)

    def eval(self, f: Polynomial) -> AlgebraElement:
        """Apply the point's algebra homomorphism to a polynomial function,
        through :func:`~weilkit.algebra.eval_in_algebra`: at an exact point
        on a table with integer numerators the value is kept on integers,
        and its Fractions are built when it is read."""
        if f.nvars != self.n:
            raise ValueError(f"polynomial has {f.nvars} variables, point has {self.n}")
        return eval_in_algebra(f, self.components)

    def eval_taylor(self, oracle: "TaylorOracle") -> AlgebraElement:
        """Truncated Taylor value of the function described by ``oracle``.

        Exact up to float round-off for polynomial oracles; the sum stops at
        the algebra height because higher nilpotent powers vanish.  Each
        nilpotent part's powers up to the height are formed once, by the
        same products ``**`` makes (:func:`~weilkit.algebra.powers`), kept
        on integers at an exact point, and their non-zero coordinates are
        read as floats once (from the integer form where there is one).
        Each term, the float partial times its powers, is formed by
        :func:`~weilkit.algebra.float_product` on coordinate lists; the
        terms are added left to right from 0.0, and a coordinate that no
        term reaches stays Fraction(0).  That is, bit for bit, the sum of
        ``from_scalar(partial) * power * ...`` over the multi-indices from
        the zero element.  ValueError naming the component when a power
        that a non-zero term multiplies has a coordinate beyond the float
        range, and ValueError when a term meets a structure constant
        beyond it.
        """
        if len(oracle.base) != self.n:
            raise ValueError("oracle arity does not match the point")
        try:
            base = tuple(float(b) for b in self.base_point())
        except OverflowError:
            raise BasePointMismatchError(
                f"oracle base {oracle.base} cannot match a point base beyond the float range"
            ) from None
        for ours, theirs in zip(base, oracle.base):
            if not math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-12):
                raise BasePointMismatchError(
                    f"oracle base {oracle.base} differs from point base {base}"
                )
        algebra = self.algebra
        height, products = algebra.height, algebra.products
        # A table beyond the float range multiplies on its constants, with
        # the same floats wherever a term does not overflow.
        table = products if products.floats is None else products.floats
        # nilpotent[i][e]: the non-zero coordinates of the e-th power of
        # component i's nilpotent part, or None beyond the float range
        nilpotent = [
            [_nonzero_floats(u) for u in powers(c.nilpotent_part(), height)]
            for c in self.components
        ]
        total = [None] * algebra.dim
        for alpha in _multi_indices(self.n, height):
            term = [(0, oracle.partial(alpha))]  # reached coordinates, ascending
            for i, e in enumerate(alpha):
                if e:
                    nonzero = [(k, x) for k, x in term if x]
                    power = nilpotent[i][e]
                    if power is None and nonzero:
                        raise ValueError(
                            f"component ξ{i + 1} of the point overflows floating point"
                        )
                    try:
                        out = float_product(table, products.nonempty, nonzero, power or ())
                    except OverflowError:  # a structure constant beyond the float range
                        raise ValueError("a Taylor term overflows floating point") from None
                    term = [(k, x) for k, x in enumerate(out) if x is not None]
            for k, x in term:
                y = total[k]
                total[k] = (0.0 if y is None else y) + x
        return AlgebraElement(algebra, tuple(_ZERO if y is None else y for y in total))


def _nonzero_floats(u: AlgebraElement) -> list[tuple[int, float]] | None:
    """The non-zero coordinates of ``u`` as pairs (index, float), each the
    float() of its value, read off the integer form where ``u`` has one;
    None when one of them is beyond the float range."""
    form = u.integer_form()
    try:
        if form:
            numerators, denominator = form
            # int / int rounds correctly, as float(Fraction) does.
            return [(k, x / denominator) for k, x in enumerate(numerators) if x]
        return [(k, float(x)) for k, x in enumerate(u.coeffs) if x]
    except OverflowError:
        return None


def make_near_point(
    algebra: WeilAlgebra,
    base: Sequence,
    nilparts: Sequence[AlgebraElement] | None = None,
) -> NearPoint:
    """Assemble a near point from base coordinates and nilpotent parts.

    Every ``nilparts[i]`` must have zero scalar part (NonzeroScalarPartError
    otherwise); omitting them gives the canonical copy of the base point.
    """
    base = list(base)
    if not base:
        raise ValueError("base point must have at least one coordinate")
    if nilparts is None:
        nilparts = [algebra.zero()] * len(base)
    else:
        nilparts = list(nilparts)
    if len(nilparts) != len(base):
        raise ValueError("base point and nilpotent parts have different lengths")
    components = []
    for b, mu in zip(base, nilparts):
        check_same_algebra(mu.algebra, algebra, "nilpotent part belongs to a different algebra")
        if mu.scalar_part != 0:
            raise NonzeroScalarPartError(
                f"nilpotent part has scalar coordinate {mu.scalar_part}"
            )
        components.append(algebra.from_scalar(b) + mu)
    return NearPoint(tuple(components))


@functools.lru_cache(maxsize=32)
def _multi_indices(nvars: int, max_degree: int) -> tuple[Exponents, ...]:
    """The exponent tuples of ``nvars`` variables of total degree at most
    ``max_degree``, sorted; cached, as every Taylor value reads them."""
    out: list[Exponents] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining - 1, budget - e)

    rec((), nvars, max_degree)
    return tuple(sorted(out))


class TaylorOracle:
    """Jet of a smooth function at a base point.

    ``partials[alpha]`` holds the partial derivative of multi-index alpha at
    the base, already divided by alpha factorial, so the Taylor sum is a
    plain weighted sum of nilpotent powers.  The oracle must cover every
    multi-index up to the height of the algebra it is used with.
    """

    def __init__(self, base: Sequence[float], partials: Mapping[Exponents, float]):
        self.base = tuple(float(b) for b in base)
        self._partials = {
            tuple(int(e) for e in alpha): float(v) for alpha, v in partials.items()
        }
        for alpha in self._partials:
            if len(alpha) != len(self.base):
                raise ValueError("multi-index arity does not match the base point")
            if any(e < 0 for e in alpha):
                raise ValueError("negative entry in multi-index")

    def partial(self, alpha: Exponents) -> float:
        try:
            return self._partials[tuple(alpha)]
        except KeyError:
            raise MissingPartialError(f"oracle lacks the partial for multi-index {alpha}") from None

    @classmethod
    def of_polynomial(cls, f: Polynomial, base: Sequence, order: int) -> "TaylorOracle":
        """Exact jet of a polynomial: repeated formal differentiation, then
        scalar evaluation at the base."""
        base = list(base)
        partials: dict[Exponents, float] = {}
        for alpha in _multi_indices(f.nvars, order):
            g = f
            divisor = 1
            for i, e in enumerate(alpha):
                for _ in range(e):
                    g = g.partial(i)
                divisor *= math.factorial(e)
            value = g.evaluate([Fraction(b) if not isinstance(b, float) else b for b in base])
            partials[alpha] = float(value) / divisor
        return cls(base, partials)


def chart_components(f: Polynomial, algebra: WeilAlgebra, n: int) -> list[Polynomial]:
    """Coordinate polynomials of the lifted function on the chart.

    Returns s polynomials g_0..g_{s-1} in the n*s chart variables such that
    evaluating f at any near point equals sum_j g_j(chart coords) * a_j.
    """
    if f.nvars != n:
        raise ValueError(f"polynomial has {f.nvars} variables, expected {n}")
    s = algebra.dim
    nvars = n * s
    zero = Polynomial.zero(nvars)
    args = [
        AlgebraElement(algebra, tuple(Polynomial.variable(nvars, i * s + j) for j in range(s)))
        for i in range(n)
    ]
    one = AlgebraElement(algebra, (Polynomial.constant(nvars, 1),) + (zero,) * (s - 1))
    # mul starts each coordinate at Fraction(0), yet every one comes back a
    # Polynomial: in each product one factor has a non-zero unit coordinate
    # and the other, a power of an argument, no zero coordinate, so the
    # unit row alone reaches all s coordinates.
    return list(f.evaluate(args, one=one).coeffs)


class ChartVectorField(Frozen):
    """Vector field on the chart R^(n*s); one polynomial per chart direction,
    flattened as i*s + j."""

    __slots__ = _fields = ("n", "s", "components")

    n: int
    s: int
    components: tuple[Polynomial, ...]

    def __init__(self, n, s, components):
        if len(components) != n * s:
            raise ValueError("component count must be n*s")
        for comp in components:
            if comp.nvars != n * s:
                raise ValueError("components must be polynomials in the n*s chart variables")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "components", components)

    @classmethod
    def zero(cls, n: int, s: int) -> "ChartVectorField":
        return cls(n, s, tuple(Polynomial.zero(n * s) for _ in range(n * s)))

    def component(self, i: int, j: int) -> Polynomial:
        return self.components[i * self.s + j]


def apply_chart_field(
    field: ChartVectorField, f: Polynomial, point: NearPoint
) -> AlgebraElement:
    """Act with a chart field on a function and evaluate at a near point.

    The result is the algebra element sum_j X(g_j)(point) a_j for the chart
    components g_j of the lifted f; as a function of f it satisfies the
    Leibniz rule against lifted multiplication.
    """
    algebra = point.algebra
    s = algebra.dim
    if field.s != s or field.n != point.n:
        raise ValueError("field dimensions do not match the point")
    if f.nvars != point.n:
        raise ValueError(f"polynomial has {f.nvars} variables, point has {point.n}")
    gs = chart_components(f, algebra, point.n)
    coords = point.chart_coords()
    values = []
    for j in range(s):
        total = Fraction(0)
        for q in range(field.n * s):
            xq = field.components[q]
            if xq.is_zero():
                continue
            dg = gs[j].partial(q)
            if dg.is_zero():
                continue
            total = total + xq.evaluate(coords) * dg.evaluate(coords)
        values.append(total)
    return algebra.element(values)


def field_from_values(
    values: Sequence[Sequence[Polynomial]],
) -> ChartVectorField:
    """Chart field from its algebra-valued action on coordinate functions.

    ``values[i][j]`` is the coefficient of basis element j in the value on
    coordinate i, as a polynomial in the chart variables.  Inverse of
    reading a field's action on coordinates; round-tripping is the identity.
    """
    if not values:
        raise ValueError("need at least one coordinate")
    n = len(values)
    s = len(values[0])
    if s == 0:
        raise ValueError("values must have at least one basis coefficient")
    flat: list[Polynomial] = []
    for i, row in enumerate(values):
        if len(row) != s:
            raise ValueError("ragged value rows")
        for j in range(s):
            comp = row[j]
            if comp.nvars != n * s:
                raise ValueError("values must be polynomials in the n*s chart variables")
            flat.append(comp)
    return ChartVectorField(n, s, tuple(flat))


def chart_variable_names(algebra: WeilAlgebra, n: int) -> list[str]:
    """Display names for the flattened chart coordinates.

    Two-dimensional algebras use the tangent-bundle convention (x_i, y_i);
    otherwise coordinate (i, j) is printed as x{i}_{j}.
    """
    s = algebra.dim
    names = []
    for i in range(n):
        for j in range(s):
            if s == 2:
                names.append(f"x{i + 1}" if j == 0 else f"y{i + 1}")
            else:
                names.append(f"x{i + 1}_{j}")
    return names
