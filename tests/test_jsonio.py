"""Wire formats: algebra specs, near points, oracles, rationals."""

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
    taylor_oracle_from_json,
    taylor_oracle_to_json,
)
from weilkit.nearpoints import TaylorOracle


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


def test_taylor_oracle_roundtrip():
    oracle = TaylorOracle([1.0, 2.0], {(0, 0): 3.0, (1, 0): -1.0, (0, 1): 0.5, (1, 1): 0.0, (2, 0): 0.0, (0, 2): 4.0})
    data = taylor_oracle_to_json(oracle)
    assert data["partials"]["(0,1)"] == 0.5
    back = taylor_oracle_from_json(data)
    assert back.base == oracle.base
    assert back.partials() == oracle.partials()


def test_taylor_oracle_bad_multi_index():
    with pytest.raises(SpecFormatError):
        taylor_oracle_from_json({"base": [0.0], "partials": {"(a)": 1.0}})
    with pytest.raises(SpecFormatError):
        taylor_oracle_from_json({"base": [0.0], "partials": {"(0,0)": 1.0}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "Infinity", 10**400])
def test_taylor_oracle_rejects_non_finite_values(value):
    with pytest.raises(SpecFormatError):
        taylor_oracle_from_json({"base": [0.0], "partials": {"(0)": value}})
    with pytest.raises(SpecFormatError):
        taylor_oracle_from_json({"base": [value], "partials": {"(0)": 1.0}})


def test_taylor_oracle_accepts_rationals():
    oracle = taylor_oracle_from_json({"base": ["1/2"], "partials": {"(0)": 3, "(1)": "-1/4"}})
    assert oracle.base == (0.5,)
    assert oracle.partials() == {(0,): 3.0, (1,): -0.25}
