"""The nine immutable value classes: construction, checks, immutability,
equality, hashing, repr and copying."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from weilkit import (
    AlgebraElement,
    Automorphism,
    ChartVectorField,
    Derivation,
    DistributionSample,
    InducedField,
    LieStructure,
    NearPoint,
    Polynomial,
    WeilAlgebra,
    derivation_basis,
    dual_numbers,
    exp_flow,
    truncated_polynomial_algebra,
)
from weilkit.algebra import Products

# Every attribute of each class, in constructor order.
FIELDS = {
    WeilAlgebra: ("labels", "products", "height", "generators"),
    AlgebraElement: ("algebra", "coeffs"),
    Derivation: ("algebra", "columns"),
    LieStructure: ("basis", "brackets"),
    Automorphism: ("algebra", "matrix"),
    InducedField: ("derivation", "n"),
    NearPoint: ("components",),
    DistributionSample: ("point", "generators", "rank", "tolerance"),
    ChartVectorField: ("n", "s", "components"),
}

ALGEBRA = "WeilAlgebra(dim=2, height=1, width=1, labels=['1', 'ε'])"
ELEMENT = f"AlgebraElement(algebra={ALGEBRA}, coeffs=(Fraction(1, 1), Fraction(2, 3)))"
DERIVATION = f"Derivation(algebra={ALGEBRA}, columns=[{{}}, {{1: Fraction(-1, 1)}}])"
POINT = f"NearPoint(components=({ELEMENT},))"
REPRS = {
    WeilAlgebra: ALGEBRA,
    AlgebraElement: ELEMENT,
    Derivation: DERIVATION,
    LieStructure: f"LieStructure(basis=({DERIVATION},), brackets={{}})",
    Automorphism: (
        f"Automorphism(algebra={ALGEBRA}, matrix=((1.0, 0.0), (0.0, 0.6065306597126334)))"
    ),
    InducedField: f"InducedField(derivation={DERIVATION}, n=1)",
    NearPoint: POINT,
    DistributionSample: (
        f"DistributionSample(point={POINT}, generators=((Fraction(0, 1), Fraction(2, 3)),), "
        "rank=1, tolerance=0.0)"
    ),
    ChartVectorField: "ChartVectorField(n=1, s=2, components=(Polynomial('1'), Polynomial('0')))",
}


def samples(variant: int) -> dict:
    """One instance of each class, built from scratch on every call over
    the dual numbers; each variant-1 instance is unequal to its variant 0."""
    A = dual_numbers()
    e = A.element([1, Fraction(2 - variant, 3)])
    d = derivation_basis(A)[0]
    if variant:
        d = 2 * d
    point = NearPoint((e,))
    return {
        WeilAlgebra: A if not variant else truncated_polynomial_algebra(1, 2),
        AlgebraElement: e,
        Derivation: d,
        LieStructure: LieStructure((d,), {} if not variant else {(0, 1): {0: Fraction(1)}}),
        Automorphism: exp_flow(d, 0.5),
        InducedField: InducedField(d, 1 + variant),
        NearPoint: point,
        DistributionSample: DistributionSample(
            point=point,
            generators=((Fraction(0), Fraction(2, 3)),),
            rank=1,
            tolerance=1e-9 * variant,
        ),
        ChartVectorField: ChartVectorField(
            1, 2, (Polynomial.constant(2, 1 + variant), Polynomial.zero(2))
        ),
    }


CLASSES = list(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    x = samples(0)[cls]
    for name in FIELDS[cls]:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    x, y, z = samples(0)[cls], samples(0)[cls], samples(1)[cls]
    assert x is not y
    assert x == y and not x != y
    assert x != z and not x == z
    assert x != object() and x.__eq__(object()) is NotImplemented
    if cls is LieStructure:  # its brackets are a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y, z}) == 2


def test_algebras_differing_in_one_constant_are_unequal():
    A = truncated_polynomial_algebra(1, 2)  # 1, x, x^2
    assert A.products[1][1] == ((2, Fraction(1)),)
    rows = [list(row) for row in A.products]
    rows[1][1] = ((2, Fraction(2)),)  # x * x = 2 x^2
    B = WeilAlgebra(
        labels=A.labels,
        products=Products(map(tuple, rows)),
        height=A.height,
        generators=A.generators,
    )
    assert A != B and not A == B
    assert hash(A) == hash(B)  # the hash reads no constants
    assert A == WeilAlgebra(A.labels, Products(A.products), A.height, A.generators)
    assert A != WeilAlgebra(A.labels, A.products, A.height, A.generators + (2,))
    assert A != WeilAlgebra(A.labels, A.products, A.height + 1, A.generators)
    assert A != WeilAlgebra(("1", "y", "y^2"), A.products, A.height, A.generators)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr(cls):
    assert repr(samples(0)[cls]) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    x = samples(0)[cls]
    if cls is Derivation:
        kwargs = {"algebra": x.algebra, "matrix": x.matrix}
    else:
        kwargs = {name: getattr(x, name) for name in FIELDS[cls]}
    assert cls(**kwargs) == x


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_are_equal_and_frozen(cls):
    x = samples(0)[cls]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and repr(y) == repr(x)
        with pytest.raises(AttributeError):
            setattr(y, FIELDS[cls][0], None)


def test_checks_raise_the_same_messages():
    A = dual_numbers()
    e = A.element([1, 2])
    d = derivation_basis(A)[0]
    with pytest.raises(ValueError, match="^need at least one manifold coordinate$"):
        InducedField(d, 0)
    with pytest.raises(ValueError, match="^a near point needs at least one component$"):
        NearPoint(())
    other = truncated_polynomial_algebra(1, 1).element([1, 2])
    with pytest.raises(ValueError, match="^components belong to different algebras$"):
        NearPoint((e, other))
    with pytest.raises(ValueError, match="^component count must be n\\*s$"):
        ChartVectorField(1, 2, (Polynomial.zero(2),))
    with pytest.raises(
        ValueError, match="^components must be polynomials in the n\\*s chart variables$"
    ):
        ChartVectorField(1, 2, (Polynomial.zero(1), Polynomial.zero(1)))
    with pytest.raises(ValueError, match="^a derivation matrix must be 2 x 2$"):
        Derivation(A, ((0,),))


class _UnhashableProducts(Products):
    __hash__ = None


def test_algebra_hash_does_not_read_the_products():
    A = truncated_polynomial_algebra(2, 2)
    wrapped = WeilAlgebra(A.labels, _UnhashableProducts(A.products), A.height, A.generators)
    with pytest.raises(TypeError):
        hash(wrapped.products)
    assert wrapped == A and hash(wrapped) == hash(A)
    rebuilt = truncated_polynomial_algebra(2, 2)
    assert rebuilt is not A and hash(rebuilt) == hash(A)


def _kept_makers() -> dict:
    """Makers of kept elements, integer numerators whose Fractions are not
    built yet: products of exact elements, and sums, differences,
    negations and rational multiples of products."""
    A = truncated_polynomial_algebra(2, 2)
    x = A.element([1, Fraction(2, 3), 0, Fraction(-5, 7), 3, 0])
    y = A.element([Fraction(1, 2), 0, 4, 0, Fraction(1, 9), 1])
    return {
        "product": lambda: x * y,
        "power": lambda: x**3,
        "sum": lambda: x * y + x,
        "difference": lambda: x - x * y,
        "negation": lambda: -(x * y),
        "multiple": lambda: Fraction(3, 4) * (x * y),
        "zero": lambda: (x * y) * 0,
        "nilpotent": lambda: (x - A.from_scalar(1)) ** 3,
        "unit": A.unit,
    }


KEPT = _kept_makers()


def _copies(u):
    return [copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))]


# Each read on a kept element and on the element built from its Fractions.
KEPT_READS = {
    "hash": hash,
    "repr": repr,
    "str": str,
    "copies": lambda u: [(type(c), repr(c), c == u, hash(c)) for c in _copies(u)],
    "scalar_part": lambda u: (type(u.scalar_part), u.scalar_part),
    "is_zero": lambda u: u.is_zero(),
    "coeffs": lambda u: [(type(c), c) for c in u.coeffs],
}


@pytest.mark.parametrize("read", sorted(KEPT_READS))
@pytest.mark.parametrize("kind", sorted(KEPT))
def test_kept_elements_read_as_the_elements_of_their_fractions(kind, read):
    make = KEPT[kind]
    plain = AlgebraElement(make().algebra, make().coeffs)
    kept = make()
    assert kept._coeffs is None and plain._coeffs is not None
    assert KEPT_READS[read](kept) == KEPT_READS[read](plain)


@pytest.mark.parametrize("kind", sorted(KEPT))
def test_kept_elements_equal_the_elements_of_their_fractions(kind):
    make = KEPT[kind]
    plain = AlgebraElement(make().algebra, make().coeffs)
    other = AlgebraElement(make().algebra, tuple(c + 1 for c in make().coeffs))
    for compare in (
        lambda kept: kept == plain,
        lambda kept: plain == kept,
        lambda kept: not kept != plain,
        lambda kept: len({kept, plain}) == 1,
        lambda kept: kept != other and not kept == other,
    ):
        kept = make()
        assert kept._coeffs is None
        assert compare(kept)


@pytest.mark.parametrize("kind", sorted(KEPT))
def test_copies_of_kept_elements_are_frozen(kind):
    for y in _copies(KEPT[kind]()):
        assert y == KEPT[kind]()
        with pytest.raises(AttributeError):
            setattr(y, "coeffs", None)
