"""Vector fields on near-point charts induced by algebra derivations, and
the distribution they span.

A derivation D of the algebra induces a field on the chart whose value at a
near point is, componentwise, -D applied to the point's components; acting
on lifted functions it is f -> -D(point(f)).  The fields induced by a
derivation basis span a distribution whose rank stratifies the chart: it
vanishes on the zero section (points with no nilpotent part) and reaches
the full derivation dimension where the classes of the nilpotent parts
span m/m^2, which needs n >= width; below that even a generic point may
have a lower rank (on R[x,y]/m^2, r = 4, a rational point has rank 2 at
n = 1).  The rank at u is r less the dimension of the derivations that
kill the subalgebra R[u] generated by the components; where the
nilpotent parts span m/m^2, R[u] = A by Nakayama's lemma (Atiyah and
Macdonald, ch. 2), only D = 0 kills it, and the exact rank of an
independent basis is its length, read without an elimination.  Their
chart brackets
reproduce the algebra brackets exactly, so the distribution is involutive
and integrates to a (possibly singular) foliation whose leaves are orbits
of the automorphism flows exp(-tD), all inside a single fiber over the base
point.

For the dual numbers the whole picture collapses to the classical one on a
tangent bundle: one generator, the Liouville field, fiber dilation e^t.
``liouville_demo`` checks that specialisation end to end.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import (
    EMPTY_SUM,
    AlgebraElement,
    Frozen,
    WeilAlgebra,
    check_same_algebra,
    dual_numbers,
    from_integer_form,
)
from .derivations import (
    Derivation,
    LieStructure,
    commutator_on,
    derivation_basis,
    exp_flow,
    float_image,
    integer_image,
    signed_image,
)
from .nearpoints import (
    ChartVectorField,
    NearPoint,
    chart_variable_names,
    field_from_values,
    make_near_point,
)
from .poly import Polynomial

_ZERO = Fraction(0)


class InducedField(Frozen):
    """Chart vector field induced by a derivation: blockwise u -> -D(u)."""

    __slots__ = _fields = ("derivation", "n")

    derivation: Derivation
    n: int

    def __init__(self, derivation, n):
        if n < 1:
            raise ValueError("need at least one manifold coordinate")
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "n", n)

    @property
    def algebra(self) -> WeilAlgebra:
        return self.derivation.algebra

    def value_at(self, point: NearPoint) -> list[AlgebraElement]:
        """Componentwise value -D(point_i)."""
        _check_point(self, point)
        return [_minus_image(self.derivation, c) for c in point.components]


def _minus_image(d: Derivation, u: AlgebraElement) -> AlgebraElement:
    """-D(u), negated after the sum, which keeps the signed zeros of float
    sums: for c > 0, Fraction(0) + (-c)*0.0 is 0.0, but
    -(Fraction(0) + c*0.0) is -0.0.  ValueError where a float meets an
    exact value beyond the float range."""
    try:
        return AlgebraElement(d.algebra, signed_image(d, u, -1))
    except OverflowError:
        raise ValueError("the induced field's value overflows floating point") from None


def induced_field(algebra: WeilAlgebra, d: Derivation, n: int) -> InducedField:
    check_same_algebra(d.algebra, algebra, "derivation belongs to a different algebra")
    return InducedField(d, n)


def _check_point(field: InducedField, point: NearPoint) -> None:
    check_same_algebra(point.algebra, field.algebra, "point belongs to a different algebra")
    if point.n != field.n:
        raise ValueError(f"field has {field.n} coordinates, point has {point.n}")


def field_apply(field: InducedField, f: Polynomial, point: NearPoint) -> AlgebraElement:
    """Action on a lifted function: -D(point(f)).  Exact for rational data,
    and a derivation with respect to lifted multiplication.  At an exact
    point the value ``point.eval(f)`` is kept on integers and goes
    straight into :func:`~weilkit.derivations.integer_image`, so the only
    Fractions built are those of the result.
    """
    _check_point(field, point)
    if f.nvars != field.n:
        raise ValueError(f"polynomial has {f.nvars} variables, field has {field.n}")
    return _minus_image(field.derivation, point.eval(f))


def chart_flatten(field: InducedField, point: NearPoint) -> tuple:
    """Chart coordinates of the field value: the n blocks -D(point_i),
    concatenated.  Linear in the point's chart coordinates."""
    out = []
    for value in field.value_at(point):
        out.extend(value.coeffs)
    return tuple(out)


def coordinate_values(field: InducedField) -> list[list[Polynomial]]:
    """Symbolic action on the coordinate functions.

    Entry [i][j] is the coefficient of basis element j in the field applied
    to coordinate i, as a (linear) polynomial in the chart variables; feeding
    the result to ``field_from_values`` yields the chart form of the field.
    """
    s = field.algebra.dim
    nvars = field.n * s
    values = []
    for i in range(field.n):
        terms: list[dict] = [{} for _ in range(s)]  # terms[k]: coefficient of basis element k
        for l, column in enumerate(field.derivation.columns):
            exp = [0] * nvars
            exp[i * s + l] = 1
            for k, x in column.items():
                terms[k][tuple(exp)] = -x
        values.append([Polynomial(nvars, t) for t in terms])
    return values


def chart_field(field: InducedField) -> ChartVectorField:
    """The induced field as an explicit chart vector field."""
    return field_from_values(coordinate_values(field))


class DistributionSample(Frozen):
    """Distribution generators and their rank at a single near point.

    The exact rank of :func:`distribution_at` ranks the generators on
    their integer images and keeps those, per generator the (numerators,
    denominator) of each component; ``generators`` is then built from
    them, as Fractions, on first read.  A sample compares, hashes, prints,
    copies and pickles by its four fields either way.
    """

    __slots__ = ("point", "_generators", "_images", "rank", "tolerance")
    _fields = ("point", "generators", "rank", "tolerance")

    point: NearPoint
    rank: int
    tolerance: float

    def __init__(self, point, generators, rank, tolerance):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "_generators", generators)
        object.__setattr__(self, "_images", None)  # set only by distribution_at
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "tolerance", tolerance)

    @property
    def generators(self) -> tuple[tuple, ...]:
        images = self._images
        if images is not None:
            generators = tuple(
                tuple(x for image in row for x in from_integer_form(image)) for row in images
            )
            object.__setattr__(self, "_generators", generators)
            object.__setattr__(self, "_images", None)
        return self._generators


def distribution_at(
    algebra: WeilAlgebra,
    basis: Sequence[Derivation],
    point: NearPoint,
    tol: float | None = None,
) -> DistributionSample:
    """Evaluate all induced fields at a point and compute the span's rank.

    The algebras are checked before any value: the first derivation's, the
    point's, then the others'.  Generator k concatenates -D_k(point_i).
    ``tol`` defaults to 0 (exact) when every generator entry is rational
    and to 1e-9 otherwise; pivots at or below the tolerance count as zero.

    The exact rank has its own branch.  At a point whose components all
    have their cached ``integer_form``, with ``tol`` None or 0, each
    generator is formed as the :func:`~weilkit.derivations.integer_image`
    of every component, through each derivation's non-empty integer
    columns, with the sign folded into its denominator, so it is exact by
    construction.  The rank is taken on those images, which are the
    generators with each row and each component's columns scaled by a
    non-zero factor, and the sample keeps them: its ``generators`` are
    built as Fractions on first read, so a caller that reads only the rank
    builds none.  A point there with no nilpotent part has the rank 0 and
    zero generators without an elimination: each component is b·1, and
    D(b·1) = b·D(1) = 0.  Nor is there one, and the rank is len(basis),
    when two things hold.  The basis has pairwise distinct ``lead``
    indices, so it is linearly independent: sorted by lead it is in
    echelon form, as the canonical basis of ``derivation_basis`` is.  And
    the classes of the components span m/m^2 (:func:`_spans_cotangent`),
    so they generate A (Nakayama's lemma), and a combination of the basis
    that killed them would kill A and be zero.  A zero derivation or a
    repeated lead, or a point that does not span, is ranked by the
    elimination; the images are formed either way.

    Every other point and tolerance takes the other branch.  At a point
    whose coordinates are all floats, each generator is formed in one pass
    over the derivation's ``float_nonempty`` columns for all components
    (:func:`~weilkit.derivations.float_image`), and those floats are
    ranked; an entry that no column reaches, left at
    :data:`~weilkit.algebra.EMPTY_SUM`, ranks as 0.0 and is Fraction(0)
    among the generators.  Other generators, the exact ones at ``tol`` > 0 among them,
    take :func:`~weilkit.derivations.signed_image`, and a ``tol`` > 0
    ranks their floats.  A generator that leaves the float range, as inf
    or as an exact value that the float arithmetic (a float coordinate, or
    ``tol`` > 0) cannot hold, raises ValueError naming it.  A negative or
    NaN ``tol`` raises ValueError; ``inf`` counts every pivot as zero.
    """
    if tol is not None and not tol >= 0:
        raise ValueError(f"rank tolerance must be non-negative, got {tol!r}")
    for k, d in enumerate(basis):
        check_same_algebra(d.algebra, algebra, "derivation belongs to a different algebra")
        if k == 0:
            check_same_algebra(point.algebra, algebra, "point belongs to a different algebra")
    forms = [c.integer_form() for c in point.components]
    if None not in forms and not tol:
        tolerance = 0.0 if tol is None else tol
        if not any(any(numerators[1:]) for numerators, _ in forms):
            # Every component is b·1, and D(b·1) = b·D(1) = 0.
            zero = (_ZERO,) * (len(forms) * algebra.dim)
            return DistributionSample(point, (zero,) * len(basis), 0, tolerance)
        images = [
            [(out, -den) for out, den in (integer_image(d, form) for form in forms)] for d in basis
        ]
        leads = {d.lead for d in basis}
        if None not in leads and len(leads) == len(basis) and _spans_cotangent(algebra, forms):
            rank = len(basis)  # an independent basis, and only D = 0 kills R[u] = A
        else:
            rows = [[y for out, _ in row for y in out] for row in images]
            rank = linalg.rank_with_tolerance(rows, 0)
        sample = DistributionSample(point, None, rank, tolerance)
        object.__setattr__(sample, "_images", images)  # generators built on first read
        return sample
    names = [f"generator d{idx}* at this point" for idx in range(len(basis))]
    blocks = [c.coeffs for c in point.components]
    floating = all(type(x) is float for coords in blocks for x in coords)
    generators, rows = [], []
    for d, what in zip(basis, names):
        columns = d.float_nonempty
        if floating and columns is not None:
            out = float_image(columns, blocks)
            row = [0.0 if y is EMPTY_SUM else -y for y in out]
            if not all(map(math.isfinite, row)):
                _check_finite(row, what)
            generators.append(tuple([_ZERO if y is EMPTY_SUM else x for y, x in zip(out, row)]))
            rows.append(row)
            continue
        try:
            gen = tuple(x for c in point.components for x in signed_image(d, c, -1))
        except OverflowError:
            raise ValueError(f"{what} overflows floating point") from None
        _check_finite(gen, what)
        generators.append(gen)
        rows.append(None)
    if tol is None:
        rational = all(isinstance(x, (int, Fraction)) for gen in generators for x in gen)
        tol = 0.0 if rational else 1e-9
    for k, (gen, what) in enumerate(zip(generators, names)):
        if rows[k] is None:
            rows[k] = _floats(gen, what) if tol else list(gen)
    rank = linalg.rank_with_tolerance(rows, tol)
    return DistributionSample(point=point, generators=tuple(generators), rank=rank, tolerance=tol)


def _spans_cotangent(algebra: WeilAlgebra, forms) -> bool:
    """Whether the classes of the point components, given by their integer
    ``forms``, span m/m^2: whether the rows P·numerators, for P the
    algebra's ``products.cotangent``, have rank w = width, in ints.  The
    scalar parts do not count, since column 0 of P is zero, and neither
    do the denominators, which scale a row.  Fewer than w components
    never span."""
    width = algebra.width
    if len(forms) < width:
        return False
    projection = algebra.products.cotangent
    echelon: dict = {}
    for numerators, _ in forms:
        row = {}
        for f, pairs in enumerate(projection):
            y = sum(c * numerators[k] for k, c in pairs)
            if y:
                row[f] = y
        if linalg.eliminate(echelon, row, width) and len(echelon) == width:
            return True
    return False


def involutivity_check(lie: LieStructure) -> dict:
    """Verify, exactly, that chart brackets of the induced fields agree with
    the induced field of the algebra bracket expanded in the basis.

    For linear fields u -> Mu the chart bracket of (M1, M2) has matrix
    M2 M1 - M1 M2; with M = -D per block this must equal sum_k c_k M_k for
    the structure constants c of the pair.  The two signs cancel: the
    identity says D1 D2 - D2 D1 = sum_k c_k D_k.  It is blockwise, so it
    holds on the chart of every R^n or of none, and the check takes no n.
    Both sides are derivations, and derivations that agree on generators
    of m are equal, so comparing their columns at the algebra's
    ``generators`` is an exact proof.  The commutator is computed
    from the basis matrices themselves, independently of the elimination
    that produced the constants, on their ``integer_columns``
    (:func:`_bracket_law_holds`).  Returns {"pairs": [...], "all_pass":
    bool}.
    """
    basis = lie.basis
    generators = basis[0].algebra.generators if basis else ()
    forms = [d.integer_columns for d in basis]
    pairs = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        coeffs = lie.brackets.get((i, j), {})
        ok = _bracket_law_holds(forms, i, j, coeffs, generators)
        pairs.append({"i": i, "j": j, "pass": ok})
    return {"pairs": pairs, "all_pass": all(pair["pass"] for pair in pairs)}


def _bracket_law_holds(forms, i, j, coeffs: dict, generators) -> bool:
    """Whether D_i D_j - D_j D_i = sum_k c_k D_k on the generator columns,
    for derivations given by their ``integer_columns`` ``forms``.

    With K the columns of a form over d, and c_k / d_k = w_k / m for the
    integer weights w_k over m of :func:`~weilkit.linalg.integer_row`,
    the identity reads m (K_i K_j - K_j K_i) = d_i d_j sum_k w_k K_k,
    formed in ints where the columns are ints."""
    (a, da), (b, db) = forms[i], forms[j]
    weights, m = linalg.integer_row({k: Fraction(c, forms[k][1]) for k, c in coeffs.items()})
    terms = [(w, forms[k][0]) for k, w in weights.items()]
    left, right = m, da * db
    for g in generators:
        expected: dict = {}
        for w, sum_columns in terms:
            linalg.add_scaled(expected, w, sum_columns[g])
        commutator = commutator_on(a, b, g) if a[g] or b[g] else {}
        if left != right:
            commutator = {p: left * x for p, x in commutator.items()}
            expected = {p: right * y for p, y in expected.items()}
        if commutator != expected:
            return False
    return True


def flow(algebra: WeilAlgebra, d: Derivation, t: float, point: NearPoint) -> NearPoint:
    """Flow of the induced field for time t: apply exp(-tD) componentwise.

    The base point is preserved exactly (the unit row of D is zero, which
    survives the floating exponential bit for bit); flow(0) is the identity
    and flows compose additively in t up to round-off.
    """
    check_same_algebra(point.algebra, algebra, "point belongs to a different algebra")
    phi = exp_flow(d, -t)
    # Checked once, as phi.apply would check each component, so that the
    # only ValueError left to phi.apply is a coordinate beyond the float range.
    check_same_algebra(point.algebra, phi.algebra, "element belongs to a different algebra")
    moved = []
    for i, c in enumerate(point.components):
        try:
            image = phi.apply(c)
        except ValueError:
            raise ValueError(f"component ξ{i + 1} of the point overflows floating point") from None
        _check_finite(image.coeffs, f"flowed component ξ{i + 1}")
        moved.append(image)
    return NearPoint(tuple(moved))


def _check_finite(values, what: str) -> None:
    """ValueError naming ``what`` when a float among ``values`` is inf or NaN."""
    for x in values:
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{what} overflows floating point ({x})")


def _floats(values, what: str) -> list[float]:
    """``values`` as floats; ValueError naming ``what`` when an exact value
    is beyond the float range.  Floats pass as they are and exact zeros
    become the 0.0 that float() gives them, without the conversion."""
    try:
        return [x if type(x) is float else float(x) if x else 0.0 for x in values]
    except OverflowError:
        raise ValueError(f"{what} overflows floating point") from None


def leaf_sample(
    algebra: WeilAlgebra,
    basis: Sequence[Derivation],
    point: NearPoint,
    schedule: Sequence[tuple[int, float]],
) -> list[NearPoint]:
    """Iterated flows along (derivation index, time) steps.

    Returns the visited points, starting with the input.  All samples lie in
    the same fiber: base points never change along the leaf.
    """
    samples = [point]
    current = point
    for index, t in schedule:
        if not 0 <= index < len(basis):
            raise ValueError(f"derivation index {index} out of range for basis of size {len(basis)}")
        current = flow(algebra, basis[index], t, current)
        samples.append(current)
    return samples


# ------------------------------------------------------------ Liouville demo


def liouville_demo(n: int) -> dict:
    """Run the tangent-bundle specialisation over R^n and report assertions.

    Over the dual numbers the derivation space is one-dimensional with
    generator ε -> -ε; the induced field is the Liouville field (sum of
    y_i d/dy_i in tangent-bundle coordinates), its value on coordinate i is
    ε·y_i, its flow scales fibers by e^t, and its rank is 1 off the zero
    section and 0 on it.  Each assertion is checked and reported.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    algebra = dual_numbers()
    basis = derivation_basis(algebra)
    assertions = []

    def claim(name: str, ok: bool, detail: str, failure=None) -> bool:
        # Record one assertion; ``failure``, when given, builds the detail
        # of a failed one, so a passing claim formats nothing more.
        if not ok and failure is not None:
            detail = failure()
        assertions.append({"name": name, "pass": ok, "detail": detail})
        return ok

    if not claim(
        "derivation algebra",
        len(basis) == 1 and basis[0].columns == [{}, {1: Fraction(-1)}],
        "dim Der = 1 with generator ε ↦ -ε",
        lambda: f"unexpected basis of size {len(basis)}",
    ):
        return {"n": n, "r": len(basis), "assertions": assertions, "pass": False}

    d0 = basis[0]
    fld = induced_field(algebra, d0, n)
    names = chart_variable_names(algebra, n)

    values = coordinate_values(fld)
    claim(
        "derivation form",
        all(
            values[i][0].is_zero() and values[i][1] == Polynomial.variable(2 * n, 2 * i + 1)
            for i in range(n)
        ),
        "value on coordinate i is ε·y_i",
        lambda: "; ".join(
            f"x{i + 1}: " + " , ".join(v.to_str(names) for v in values[i]) for i in range(n)
        ),
    )

    chart = chart_field(fld)
    claim(
        "chart field",
        all(
            chart.component(i, 0).is_zero()
            and chart.component(i, 1) == Polynomial.variable(2 * n, 2 * i + 1)
            for i in range(n)
        ),
        "Liouville field: sum of y_i d/dy_i",
        lambda: "chart components differ from the Liouville field",
    )

    base = [Fraction(i + 1) for i in range(n)]
    fiber = [Fraction(2 * i + 1, 2) for i in range(n)]
    nilparts = [fiber[i] * algebra.basis_element(1) for i in range(n)]
    point = make_near_point(algebra, base, nilparts)
    flow_checks = []
    worst = 0.0
    for t in (0.5, math.log(2.0), -1.25):
        moved = flow(algebra, d0, t, point)
        scale = math.exp(t)
        residual = 0.0
        for i in range(n):
            target = float(fiber[i]) * scale
            residual = max(residual, abs(float(moved.components[i].coeffs[1]) - target))
            residual = max(
                residual, abs(float(moved.components[i].coeffs[0]) - float(base[i]))
            )
        flow_checks.append({"t": t, "max_residual": residual})
        worst = max(worst, residual)
    claim("flow", worst <= 1e-9, f"fiber scaling by e^t, max residual {worst:.3e}")

    off_section = distribution_at(algebra, basis, point)
    zero_section = distribution_at(algebra, basis, make_near_point(algebra, base))
    claim(
        "rank stratification",
        off_section.rank == 1 and zero_section.rank == 0,
        f"rank {off_section.rank} off the zero section, "
        f"{zero_section.rank} on it (expected 1 and 0)",
    )

    return {
        "n": n,
        "r": len(basis),
        "assertions": assertions,
        "flow_checks": flow_checks,
        "rank_samples": [
            {"point": "generic fiber point", "rank": off_section.rank},
            {"point": "zero section", "rank": zero_section.rank},
        ],
        "pass": all(a["pass"] for a in assertions),
    }
