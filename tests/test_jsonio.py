"""Wire formats: algebra specs, near points, rationals."""

from __future__ import annotations

from fractions import Fraction

import pytest

from weilkit import NotLocalError, dual_numbers, truncated_polynomial_algebra
from weilkit.jsonio import (
    SpecFormatError,
    algebra_from_spec,
    algebra_to_spec,
    fraction_to_str,
    near_point_from_json,
    near_point_to_json,
    rational_from_json,
    scalar_from_json,
)


def test_rational_wire_format_lowest_terms():
    assert fraction_to_str(Fraction(2, 4)) == "1/2"
    assert fraction_to_str(Fraction(-3, 6)) == "-1/2"
    assert fraction_to_str(Fraction(4)) == "4/1"
    assert rational_from_json("-7/2") == Fraction(-7, 2)
    assert rational_from_json(5) == Fraction(5)


def test_rational_rejects_floats_and_garbage():
    with pytest.raises(SpecFormatError):
        rational_from_json(1.5)
    with pytest.raises(SpecFormatError):
        rational_from_json("one half")
    with pytest.raises(SpecFormatError):
        rational_from_json("1/0")


def test_scalar_accepts_floats():
    assert scalar_from_json(1.5) == 1.5
    assert scalar_from_json("3/4") == Fraction(3, 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scalar_rejects_non_finite_floats(value):
    with pytest.raises(SpecFormatError, match="finite"):
        scalar_from_json(value)
    with pytest.raises(SpecFormatError, match="finite"):
        near_point_from_json(dual_numbers(), {"base": [value]})


@pytest.mark.parametrize("value", ["9" * 5000 + "/7", "1/" + "x" * 5000, [9] * 2500])
def test_long_bad_scalars_are_quoted_briefly(value):
    for read in (rational_from_json, scalar_from_json):
        with pytest.raises(SpecFormatError) as info:
            read(value)
        assert len(str(info.value)) < 100 and str(info.value).endswith("…")
    with pytest.raises(SpecFormatError) as info:
        near_point_from_json(dual_numbers(), {"base": [value]})
    assert len(str(info.value)) < 100


def test_truncated_polynomial_spec():
    A = algebra_from_spec({"type": "truncated_polynomial", "variables": ["x", "y"], "order": 2})
    assert (A.dim, A.height, A.width) == (6, 2, 2)
    assert A.labels[:3] == ("1", "x", "y")


def test_monomial_quotient_spec():
    A = algebra_from_spec(
        {
            "type": "monomial_quotient",
            "variables": ["x", "y"],
            "relations": ["x^2", "y^3", "x*y"],
        }
    )
    assert A.dim == 4


def test_structure_constants_spec_roundtrip():
    A = truncated_polynomial_algebra(2, 1)
    spec = algebra_to_spec(A)
    assert spec["type"] == "structure_constants"
    assert algebra_from_spec(spec) == A


def test_structure_constants_spec_rejects_non_local():
    spec = {
        "type": "structure_constants",
        "labels": ["a", "b"],
        "table": [[["1/1", "0/1"], ["0/1", "0/1"]], [["0/1", "0/1"], ["0/1", "1/1"]]],
    }
    with pytest.raises(NotLocalError):
        algebra_from_spec(spec)


def test_spec_format_errors():
    with pytest.raises(SpecFormatError):
        algebra_from_spec({"type": "mystery"})
    with pytest.raises(SpecFormatError):
        algebra_from_spec({"type": "truncated_polynomial", "variables": [], "order": 1})
    with pytest.raises(SpecFormatError):
        algebra_from_spec({"type": "truncated_polynomial", "variables": ["x"], "order": -1})
    with pytest.raises(SpecFormatError):
        algebra_from_spec(
            {"type": "monomial_quotient", "variables": ["x"], "relations": ["x + 1"]}
        )


def test_near_point_roundtrip():
    A = truncated_polynomial_algebra(1, 2)
    data = {"base": ["1/2"], "nilparts": [["2/1", "-1/3"]]}
    xi = near_point_from_json(A, data)
    assert xi.components[0].coeffs == (Fraction(1, 2), Fraction(2), Fraction(-1, 3))
    assert near_point_to_json(xi) == data


def test_near_point_without_nilparts():
    D = dual_numbers()
    xi = near_point_from_json(D, {"base": [3, -1]})
    assert xi.n == 2
    assert all(c.nilpotent_part().is_zero() for c in xi.components)


def test_near_point_bad_rows():
    D = dual_numbers()
    with pytest.raises(ValueError):
        near_point_from_json(D, {"base": [1], "nilparts": [[1, 2]]})
    with pytest.raises(ValueError):
        near_point_from_json(D, {"base": [1], "nilparts": [[1], [2]]})
    with pytest.raises(SpecFormatError):
        near_point_from_json(D, {"nilparts": [[1]]})
