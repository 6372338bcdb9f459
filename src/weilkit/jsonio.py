"""JSON formats for algebra specs, near points and reports.

Rationals travel as strings ``"p/q"`` in lowest terms with the sign on the
numerator, so serialised data round-trips bit for bit.  Floats are accepted
where flows produce them; structure-constant tables must stay rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .algebra import (
    MAX_DIM,
    WeilAlgebra,
    check_size,
    from_structure_constants,
    monomial_quotient_algebra,
    truncated_polynomial_algebra,
)
from .derivations import Derivation, LieStructure
from .nearpoints import NearPoint, make_near_point
from .poly import parse_monomial, quoted


class SpecFormatError(ValueError):
    """Structurally malformed spec data (missing keys, bad scalars, ...)."""


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(value) -> Fraction:
    """Exact rational from a JSON int or "p/q" string; floats are rejected."""
    if isinstance(value, bool):
        raise SpecFormatError(f"expected a rational, got {quoted(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"bad rational literal {quoted(value)}") from exc
    raise SpecFormatError(f"expected a rational, got {quoted(value)}")


def scalar_from_json(value):
    """Rational where possible, float when the JSON value is a finite float."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecFormatError(f"expected a finite number, got {quoted(value)}")
        return value
    return rational_from_json(value)


def scalar_to_json(value):
    if isinstance(value, (int, Fraction)):
        return fraction_to_str(value)
    return float(value)


# -------------------------------------------------------------- algebra specs


def algebra_from_spec(spec: dict) -> WeilAlgebra:
    """Build and verify an algebra from its JSON spec.

    Three variants: ``truncated_polynomial`` (variables + order),
    ``monomial_quotient`` (variables + relation monomials such as
    ``"x^2*y"``, products of variable powers) and ``structure_constants``
    (labels + s x s x s rational table).  Specs beyond the size caps of
    :mod:`weilkit.algebra` raise SizeLimitError before anything of that
    size is built; the number of variables or labels is checked before a
    relation or a table entry is read.  A table that is not s x s x s for
    s labels raises SpecFormatError.
    """
    if not isinstance(spec, dict):
        raise SpecFormatError("algebra spec must be a JSON object")
    kind = spec.get("type")
    if kind == "truncated_polynomial":
        variables = _string_list(spec, "variables")
        order = spec.get("order")
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise SpecFormatError("order must be a non-negative integer")
        return truncated_polynomial_algebra(len(variables), order, names=variables)
    if kind == "monomial_quotient":
        variables = _string_list(spec, "variables")
        raw = spec.get("relations")
        if not isinstance(raw, list) or not raw:
            raise SpecFormatError("relations must be a non-empty list of monomial strings")
        relations = [_monomial_exponents(text, variables) for text in raw]
        return monomial_quotient_algebra(variables, relations)
    if kind == "structure_constants":
        labels = _string_list(spec, "labels")
        table = spec.get("table")
        s = len(labels)

        def sized(value) -> bool:
            return isinstance(value, list) and len(value) == s

        if not (sized(table) and all(sized(row) and all(map(sized, row)) for row in table)):
            raise SpecFormatError(f"table must be a {s} x {s} x {s} nested list for {s} labels")
        rational = [[[rational_from_json(x) for x in entry] for entry in row] for row in table]
        return from_structure_constants(labels, rational)
    raise SpecFormatError(f"unknown algebra spec type {quoted(kind)}")


def algebra_to_spec(algebra: WeilAlgebra) -> dict:
    """Emit the verified table as a structure-constants spec, written from
    the sparse index with "0/1" for every zero constant."""

    def entry(pairs) -> list[str]:
        out = ["0/1"] * algebra.dim
        for k, c in pairs:
            out[k] = fraction_to_str(c)
        return out

    return {
        "type": "structure_constants",
        "labels": list(algebra.labels),
        "table": [[entry(pairs) for pairs in row] for row in algebra.products],
    }


def _string_list(spec: dict, key: str) -> list[str]:
    """Variable names or labels: at most MAX_DIM distinct ones, checked
    before anything is built from them."""
    value = spec.get(key)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(x, str) for x in value)
    ):
        raise SpecFormatError(f"{key} must be a non-empty list of strings")
    if any("\ud800" <= ch <= "\udfff" for x in value for ch in x):
        raise SpecFormatError(f"{key} must not contain lone surrogates")
    check_size(f"number of {key}", len(value), MAX_DIM)
    if len(set(value)) != len(value):
        raise SpecFormatError(f"{key} must be distinct")
    return value


def _monomial_exponents(text: str, variables: Sequence[str]):
    if not isinstance(text, str):
        raise SpecFormatError(f"relation must be a string, got {quoted(text)}")
    exponents = parse_monomial(text, variables)
    if exponents is None:
        raise SpecFormatError(f"relation {quoted(text)} is not a plain monomial")
    return exponents


def algebra_summary(algebra: WeilAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "height": algebra.height,
        "width": algebra.width,
        "labels": list(algebra.labels),
    }


# ---------------------------------------------------------------- near points


def near_point_from_json(algebra: WeilAlgebra, data: dict) -> NearPoint:
    """Near point from {"base": [...], "nilparts": [[m-basis coeffs], ...]}.

    Nilpotent parts are coefficient rows over the maximal-ideal basis
    (length dim-1); they may be omitted for the canonical base-point copy.
    """
    if not isinstance(data, dict):
        raise SpecFormatError("near point must be a JSON object")
    base_raw = data.get("base")
    if not isinstance(base_raw, list) or not base_raw:
        raise SpecFormatError("base must be a non-empty list")
    base = [scalar_from_json(x) for x in base_raw]
    s = algebra.dim
    nilparts = None
    if "nilparts" in data:
        rows = data["nilparts"]
        if not isinstance(rows, list):
            raise SpecFormatError("nilparts must be a list of rows")
        if len(rows) != len(base):
            raise ValueError("nilparts must have one row per base coordinate")
        nilparts = []
        for row in rows:
            if not isinstance(row, list):
                raise SpecFormatError("each nilpotent part must be a list of coefficients")
            if len(row) != s - 1:
                raise ValueError(
                    f"each nilpotent part needs {s - 1} coefficients over the ideal basis"
                )
            coeffs = [Fraction(0)] + [scalar_from_json(x) for x in row]
            nilparts.append(algebra.element(coeffs))
    return make_near_point(algebra, base, nilparts)


def near_point_to_json(point: NearPoint) -> dict:
    return {
        "base": [scalar_to_json(b) for b in point.base_point()],
        "nilparts": [
            [scalar_to_json(c) for c in comp.coeffs[1:]] for comp in point.components
        ],
    }


# ------------------------------------------------------------------ reports


def derivation_to_json(d: Derivation) -> list[list[str]]:
    """Row-major rational matrix from the sparse columns; zeros are "0/1"."""
    rows = [["0/1"] * len(d.columns) for _ in d.columns]
    for q, column in enumerate(d.columns):
        for p, x in column.items():
            rows[p][q] = fraction_to_str(x)
    return rows


def lie_constants_to_json(lie: LieStructure) -> list[list]:
    """Sparse (i, j, k, value) list of the nonzero structure constants, both
    orientations of each pair, sorted by (i, j, k)."""
    entries = []
    for (i, j), coeffs in lie.brackets.items():
        for k, c in coeffs.items():
            entries += [(i, j, k, c), (j, i, k, -c)]
    return [[i, j, k, fraction_to_str(c)] for i, j, k, c in sorted(entries)]
