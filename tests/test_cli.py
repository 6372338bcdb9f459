"""End-to-end CLI: every subcommand, exit codes, JSON determinism."""

from __future__ import annotations

import ast
import json
import math
import os
import random
import subprocess
import sys

import pytest

import weilkit
from weilkit import WeilAlgebra, linalg, truncated_polynomial_algebra
from weilkit.cli import main
from weilkit.jsonio import algebra_from_spec, fraction_to_str
from support import scrambled_table


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return {
        "dual": write("dual.json", {"type": "truncated_polynomial", "variables": ["ε"], "order": 1}),
        "x3": write("x3.json", {"type": "truncated_polynomial", "variables": ["x"], "order": 2}),
        "square": write(
            "square.json", {"type": "truncated_polynomial", "variables": ["x", "y"], "order": 1}
        ),
        "rxr": write(
            "rxr.json",
            {
                "type": "structure_constants",
                "labels": ["a", "b"],
                "table": [
                    [["1/1", "0/1"], ["0/1", "0/1"]],
                    [["0/1", "0/1"], ["0/1", "1/1"]],
                ],
            },
        ),
        "reals": write(
            "reals.json",
            {"type": "structure_constants", "labels": ["1"], "table": [[["1/1"]]]},
        ),
        "pt_x3": write("pt_x3.json", {"base": ["0/1"], "nilparts": [["1/1", "0/1"]]}),
        "pt_x3_deg": write("pt_x3_deg.json", {"base": ["0/1"], "nilparts": [["0/1", "1/1"]]}),
        "pt_dual": write("pt_dual.json", {"base": ["5/1"], "nilparts": [["1/1"]]}),
        "pt_dual_zero": write("pt_dual_zero.json", {"base": ["5/1"], "nilparts": [["0/1"]]}),
        "broken": write("broken.json", {"type": "truncated_polynomial"}),
        "garbage": str(tmp_path / "garbage.json"),
        "tmp": tmp_path,
    }


@pytest.fixture()
def garbage_file(files, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_accepts_dual_numbers(capsys, files):
    code, out, _ = run(capsys, ["check", files["dual"]])
    assert code == 0
    assert "Weil: dim 2, height 1, width 1" in out


def test_check_rejects_product_algebra(capsys, files):
    code, out, _ = run(capsys, ["check", files["rxr"]])
    assert code == 1
    assert out.startswith("NotLocal")


def test_check_malformed_json_exits_2(capsys, garbage_file):
    code, _, err = run(capsys, ["check", garbage_file])
    assert code == 2
    assert "parse error" in err


def test_check_bad_spec_exits_2(capsys, files):
    code, _, err = run(capsys, ["check", files["broken"]])
    assert code == 2


def test_check_missing_file_exits_2(capsys, files):
    code, _, _ = run(capsys, ["check", str(files["tmp"] / "nope.json")])
    assert code == 2


def test_derivations_dual(capsys, files):
    code, out, _ = run(capsys, ["derivations", files["dual"]])
    assert code == 0
    assert "dim Der(A) = 1" in out
    assert "d0(ε) = -ε" in out


def test_derivations_truncated_quintic(capsys, files, tmp_path):
    path = tmp_path / "x5.json"
    path.write_text(
        json.dumps({"type": "truncated_polynomial", "variables": ["x"], "order": 4}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["derivations", str(path)])
    assert code == 0
    assert "dim Der(A) = 4" in out


def test_derivations_reals(capsys, files):
    code, out, _ = run(capsys, ["derivations", files["reals"]])
    assert code == 0
    assert "dim Der(A) = 0" in out


def test_derivations_json_schema(capsys, files):
    code, out, _ = run(capsys, ["derivations", "--json", files["x3"]])
    assert code == 0
    report = json.loads(out)
    assert report["r"] == 2
    assert report["basis"][0][1][1] == "1/1"
    assert [0, 1, 1, "1/1"] in report["lie_constants"]


def test_field_liouville_text(capsys, files):
    code, out, _ = run(capsys, ["field", files["dual"], "--n", "2", "--derivation", "0"])
    assert code == 0
    assert "d0*(x1) = ε·y1" in out
    assert "d0*(x2) = ε·y2" in out
    assert "y1 ∂/∂y1 + y2 ∂/∂y2" in out


def test_field_x3_chart(capsys, files):
    code, out, _ = run(capsys, ["field", files["x3"], "--n", "1", "--derivation", "0", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["chart"] == ["0", "-x1_1", "-2*x1_2"]


def test_field_index_out_of_range(capsys, files):
    code, _, err = run(capsys, ["field", files["dual"], "--n", "1", "--derivation", "99"])
    assert code == 1
    assert "out of range" in err


def test_foliation_rank_two(capsys, files):
    code, out, _ = run(capsys, ["foliation", files["x3"], "--n", "1", "--point", files["pt_x3"]])
    assert code == 0
    assert "rank at point: 2" in out
    assert "PASS" in out


def test_foliation_rank_degenerate(capsys, files):
    code, out, _ = run(
        capsys, ["foliation", files["x3"], "--n", "1", "--point", files["pt_x3_deg"]]
    )
    assert code == 0
    assert "rank at point: 1" in out


def test_foliation_zero_section_rank_zero(capsys, files, tmp_path):
    point = tmp_path / "pt_zero.json"
    point.write_text(
        json.dumps({"base": ["2/1"], "nilparts": [["0/1", "0/1"]]}), encoding="utf-8"
    )
    code, out, _ = run(
        capsys, ["foliation", files["x3"], "--n", "1", "--point", str(point)]
    )
    assert code == 0
    assert "rank at point: 0" in out


def test_foliation_all_pairs_pass_square(capsys, files, tmp_path):
    point = tmp_path / "pt_sq.json"
    point.write_text(
        json.dumps({"base": ["0/1", "0/1"], "nilparts": [["1/1", "0/1"], ["0/1", "1/1"]]}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        ["foliation", files["square"], "--n", "2", "--point", str(point), "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["r"] == 4
    assert len(report["bracket_law"]) == 6
    assert all(pair["pass"] for pair in report["bracket_law"])


def test_foliation_invalid_point_exits_1(capsys, files):
    code, _, err = run(
        capsys, ["foliation", files["x3"], "--n", "1", "--point", files["pt_dual"]]
    )
    assert code == 1


def test_flow_ln2_doubles_fiber(capsys, files):
    code, out, _ = run(
        capsys,
        [
            "flow",
            files["dual"],
            "--n",
            "1",
            "--derivation",
            "0",
            "--t",
            str(math.log(2.0)),
            "--point",
            files["pt_dual"],
        ],
    )
    assert code == 0
    assert "5 + 2*ε" in out
    assert "max drift 0.000e+00" in out


def test_flow_zero_time_returns_input(capsys, files):
    code, out, _ = run(
        capsys,
        ["flow", files["dual"], "--n", "1", "--t", "0", "--point", files["pt_dual"], "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["flowed"]["base"] == [5.0]
    assert abs(report["flowed"]["nilparts"][0][0] - 1.0) < 1e-15


def test_flow_composition_returns_within_tolerance(capsys, files):
    code, out, _ = run(
        capsys,
        ["flow", files["dual"], "--n", "1", "--t", "0.83", "--point", files["pt_dual"], "--json"],
    )
    forward = json.loads(out)["flowed"]["nilparts"][0][0]
    assert main(
        ["flow", files["dual"], "--n", "1", "--t", "-0.83", "--point", files["pt_dual"], "--json"]
    ) == 0
    backward = json.loads(capsys.readouterr().out)["flowed"]["nilparts"][0][0]
    assert abs(forward * backward - 1.0) <= 1e-9  # e^t * e^-t = 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "tiny"])
def test_foliation_rejects_bad_tolerance(capsys, files, tol):
    code, out, err = run(
        capsys, ["foliation", files["dual"], "--n", "1", "--point", files["pt_dual"], "--tol", tol]
    )
    assert code == 2
    assert out == ""
    assert "--tol" in err and "Traceback" not in err


@pytest.mark.parametrize("t", ["-1e-3", "-1e3", "-.5", "-2", "-0.001"])
def test_negative_numbers_are_values_in_every_notation(capsys, files, t):
    # A negative number in exponent notation, or with no digit before the
    # point, is a value, as it is after "=", on every Python version.
    argv = ["flow", files["x3"], "--n", "1", "--point", files["pt_x3"], "--derivation", "1", "--json"]
    code, out, err = run(capsys, argv + ["--t", t])
    assert (code, err) == (0, "")
    assert run(capsys, argv + [f"--t={t}"]) == (0, out, "")


def test_a_negative_tolerance_in_exponent_notation_is_read_and_refused(capsys, files):
    code, out, err = run(
        capsys, ["foliation", files["dual"], "--n", "1", "--point", files["pt_dual"], "--tol", "-1e-3"]
    )
    assert (code, out) == (2, "")
    assert "argument --tol: must be at least 0" in err


@pytest.mark.parametrize("t", ["inf", "-inf", "nan", "1e309"])
@pytest.mark.parametrize("as_json", [False, True])
def test_flow_rejects_non_finite_time(capsys, files, t, as_json):
    argv = ["flow", files["dual"], "--n", "1", f"--t={t}", "--point", files["pt_dual"]]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 2
    assert out == ""
    assert "--t: must be finite" in err


@pytest.mark.parametrize(
    "spec, point",
    [
        ("x3", "pt_x3"),  # t*D overflows: a row of D sums to 2
        ("dual", "pt_dual"),  # t*D is finite, exp(-tD) scales ε by e^t
    ],
)
def test_flow_overflowing_time_exits_1(capsys, files, spec, point):
    argv = ["flow", files[spec], "--n", "1", "--t", "1e308", "--point", files[point], "--json"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: flow time too large")


def test_non_finite_point_exits_2(capsys, files, tmp_path):
    path = tmp_path / "nan_point.json"
    path.write_text('{"base": [NaN], "nilparts": [[Infinity]]}', encoding="utf-8")
    code, _, err = run(capsys, ["foliation", files["dual"], "--n", "1", "--point", str(path)])
    assert code == 2
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "point, expected",
    [
        ('{"base": "ab"}', 2),
        ('{"base": [1], "nilparts": "ab"}', 2),
        ('{"base": [1], "nilparts": ["ab"]}', 2),
        ('{"base": [1], "nilparts": []}', 1),
        ('{"base": [1], "nilparts": [["1/1", "0/1"]]}', 1),
    ],
)
def test_point_shapes_exit_2_and_lengths_exit_1(capsys, files, tmp_path, point, expected):
    # A base, nilparts or row that is not a list is a parse error; lists of
    # the wrong length are an invalid point, like a wrong coordinate count.
    path = tmp_path / "point.json"
    path.write_text(point, encoding="utf-8")
    code, out, err = run(capsys, ["foliation", files["dual"], "--n", "1", "--point", str(path)])
    assert code == expected
    assert out == ""
    assert err.startswith("parse error:" if expected == 2 else "error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("as_json", [False, True])
def test_flow_overflowing_point_exits_1(capsys, files, tmp_path, as_json):
    # e^t * 1e308 leaves the float range although t and the point are finite
    path = tmp_path / "huge_dual.json"
    path.write_text('{"base": [1e308, 1e308], "nilparts": [[1e308], [1e308]]}', encoding="utf-8")
    argv = ["flow", files["dual"], "--n", "2", "--t", "1", "--point", str(path)]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 1
    assert out == ""
    assert err.startswith("error: flowed component ξ1 overflows floating point (inf)")


@pytest.mark.parametrize("as_json", [False, True])
def test_foliation_overflowing_generator_exits_1(capsys, files, tmp_path, as_json):
    # d0 sends x to x and x^2 to 2x^2, so the generator holds 2 * 1e308
    path = tmp_path / "huge_x3.json"
    path.write_text('{"base": [0.5], "nilparts": [[1e308, 1e308]]}', encoding="utf-8")
    argv = ["foliation", files["x3"], "--n", "1", "--point", str(path)]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 1
    assert out == ""
    assert err.startswith("error: generator d0* at this point overflows floating point (-inf)")


# An exact coordinate beyond the float range that meets float arithmetic:
# the flow's exp(-tD), a float coordinate of the same point, or a rank at
# --tol > 0.
BEYOND_FLOAT_RANGE = {
    "flow": ("flow", '{"base": ["1e400"], "nilparts": [["1/1", "0/1"]]}',
             ["--t", "1"], "component ξ1 of the point"),
    "foliation-float-point": ("foliation", '{"base": [0.5], "nilparts": [["1e400", 0.25]]}',
                              [], "generator d0* at this point"),
    "foliation-tol": ("foliation", '{"base": ["0/1"], "nilparts": [["1e400", "0/1"]]}',
                      ["--tol", "1e-9"], "generator d0* at this point"),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", sorted(BEYOND_FLOAT_RANGE))
def test_exact_coordinate_beyond_float_range_exits_1(capsys, files, tmp_path, name, as_json):
    command, point, flags, what = BEYOND_FLOAT_RANGE[name]
    path = tmp_path / "beyond.json"
    path.write_text(point, encoding="utf-8")
    argv = [command, files["x3"], "--n", "1", "--point", str(path), *flags]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 1
    assert out == ""
    assert err == f"error: {what} overflows floating point\n"
    assert "Traceback" not in err


def beyond_float_range_table():
    """R[x, y]/(x^2 - 10^400 y^2, xy, y^3) on the basis 1, x, y, y^2: the
    table holds the constant 10^400, and the derivation x -> -10^400 y,
    y -> x (d1 of its basis) the entry -10^400."""
    zero, one = "0/1", "1/1"
    table = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        table[0][i][i] = table[i][0][i] = one
    table[1][1][3] = "1" + "0" * 400
    table[2][2][3] = one
    return {"type": "structure_constants", "labels": ["1", "x", "y", "Y"], "table": table}


# A table constant or derivation entry beyond the float range that meets a
# float point, a rank at --tol > 0, or the float exponential of a flow.
BEYOND_FLOAT_ENTRIES = {
    "foliation-float-point": (["foliation", "--point", "float"], "generator d1* at this point"),
    "foliation-tol": (["foliation", "--point", "exact", "--tol", "1e-9"], "generator d1* at this point"),
    "flow": (["flow", "--point", "float", "--derivation", "1", "--t", "0.5"], "a derivation entry"),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", sorted(BEYOND_FLOAT_ENTRIES))
def test_entries_beyond_float_range_exit_1(capsys, tmp_path, name, as_json):
    spec = tmp_path / "beyond_table.json"
    spec.write_text(json.dumps(beyond_float_range_table()), encoding="utf-8")
    points = {
        "float": '{"base": [0.5], "nilparts": [[0.25, -0.125, 0.5]]}',
        "exact": '{"base": ["1/2"], "nilparts": [["1/4", "-1/8", "1/2"]]}',
    }
    (command, _, kind, *flags), what = BEYOND_FLOAT_ENTRIES[name]
    path = tmp_path / "point.json"
    path.write_text(points[kind], encoding="utf-8")
    argv = [command, str(spec), "--n", "1", "--point", str(path), *flags]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert (code, out) == (1, "")
    assert err == f"error: {what} overflows floating point\n"


def test_exact_rank_holds_coordinates_beyond_float_range(capsys, files, tmp_path):
    path = tmp_path / "beyond.json"
    path.write_text('{"base": ["0/1"], "nilparts": [["1e400", "0/1"]]}', encoding="utf-8")
    code, out, _ = run(capsys, ["foliation", files["x3"], "--n", "1", "--point", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["tolerance"] == 0.0 and report["rank_samples"][0]["rank"] == 2


def test_emit_rejects_non_finite_floats(capsys):
    from weilkit.cli import _emit

    with pytest.raises(ValueError):
        _emit({"command": "flow", "base_drift": math.inf})
    assert capsys.readouterr().out == ""


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and "nested too deeply" in err


# Input files that json.load refuses before any JSON is read: bytes that
# are not UTF-8, and an integer beyond int()'s limit of 4300 digits.  Each
# is a parse failure naming the file, as spec or as point.
UNREADABLE = {
    "not-utf8": (b'{"type": "truncated_polynomial", "variables": ["x\xff"], "order": 2}',
                 "not valid UTF-8"),
    "long-int": (b'{"type": "truncated_polynomial", "variables": ["x"], "order": '
                 + b"9" * 5000 + b"}", "4300 digits"),
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("role", ["spec", "point"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_file_exits_2(capsys, files, tmp_path, name, role, as_json):
    content, what = UNREADABLE[name]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if role == "spec":
        argv = ["check", str(path)]
    else:
        argv = ["foliation", files["x3"], "--n", "1", "--point", str(path)]
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 2
    assert out == ""
    assert err.startswith(f"parse error: {path}: ") and what in err
    assert "Traceback" not in err


# A lone surrogate cannot be written as UTF-8, so a name holding one would
# fail only once printed; it is refused with the spec.
SURROGATE_SPECS = {
    "variables": {"type": "truncated_polynomial", "variables": ["x", "\ud800"], "order": 2},
    "labels": {"type": "structure_constants", "labels": ["1", "e\udfff"],
               "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]},
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command", ["check", "derivations", "field"])
@pytest.mark.parametrize("key", sorted(SURROGATE_SPECS))
def test_names_with_lone_surrogates_exit_2(capsys, tmp_path, key, command, as_json):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SURROGATE_SPECS[key]), encoding="utf-8")
    argv = [command, str(path)] + ["--n", "1"] * (command == "field")
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 2
    assert out == ""
    assert err == f"parse error: {key} must not contain lone surrogates\n"
    assert "Traceback" not in err


# Specs whose offending value runs to thousands of characters.
LONG_VALUES = {
    "table-literal": {"type": "structure_constants", "labels": ["1"],
                      "table": [[["9" * 5000 + "/7"]]]},
    "table-non-string": {"type": "structure_constants", "labels": ["1"],
                         "table": [[[[9] * 2500]]]},
    "relation-unknown-variable": {"type": "monomial_quotient", "variables": ["x"],
                                  "relations": ["x^2", "y" * 5000]},
    "relation-not-monomial": {"type": "monomial_quotient", "variables": ["x"],
                              "relations": ["x^2", "x+" * 2500 + "x"]},
    "relation-non-string": {"type": "monomial_quotient", "variables": ["x"],
                            "relations": ["x^2", [9] * 2500]},
    "spec-type": {"type": "t" * 5000},
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name", sorted(LONG_VALUES))
def test_long_values_are_quoted_briefly(capsys, tmp_path, name, as_json):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_VALUES[name]), encoding="utf-8")
    code, out, err = run(capsys, ["check", str(path)] + ["--json"] * as_json)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and "…" in err
    assert len(err.encode()) < 300
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--n", "--t"])
def test_long_flag_values_are_quoted_briefly(capsys, files, flag):
    argv = ["flow", files["dual"], "--n", "1", "--t", "1", "--point", files["pt_dual"]]
    argv[argv.index(flag) + 1] = "1" * 2500 + "x" * 2500
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: '111" in err and "…" in err
    assert len(err.encode()) < 300


def _scrambled_spec():
    table = scrambled_table(truncated_polynomial_algebra(2, 2), random.Random(41))
    return {
        "type": "structure_constants",
        "labels": [f"f{i}" for i in range(len(table))],
        "table": [[[fraction_to_str(x) for x in entry] for entry in row] for row in table],
    }


@pytest.mark.parametrize("name", ["monomial", "scrambled"])
def test_commands_read_no_dense_form(capsys, monkeypatch, tmp_path, name):
    # With the dense table view and the dense rref made to raise, every
    # command exits as before with the same stdout: no code in the package
    # reads them.
    if name == "monomial":
        spec = {"type": "monomial_quotient", "variables": ["x", "y"],
                "relations": ["x^3", "x*y^2", "y^3"]}
    else:
        spec = _scrambled_spec()
    spec_path, point_path = str(tmp_path / "spec.json"), str(tmp_path / "point.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    nil = [f"{(3 * q + 1) % 7 - 3}/{q + 2}" for q in range(1, algebra_from_spec(spec).dim)]
    with open(point_path, "w", encoding="utf-8") as handle:
        json.dump({"base": ["1/2"], "nilparts": [nil]}, handle)
    commands = [
        ["check", spec_path],
        ["derivations", spec_path],
        ["field", spec_path, "--n", "1", "--derivation", "1"],
        ["foliation", spec_path, "--n", "1", "--point", point_path],
        ["flow", spec_path, "--n", "1", "--derivation", "1", "--t", "0.5", "--point", point_path],
    ]
    argvs = [argv + flag for argv in commands for flag in ([], ["--json"])]
    before = [run(capsys, argv)[:2] for argv in argvs]
    assert all(code == 0 for code, _ in before)

    def refuse(*args):
        raise AssertionError("a dense form was read")

    monkeypatch.setattr(WeilAlgebra, "table", property(refuse))
    monkeypatch.setattr(linalg, "rref", refuse)
    assert [run(capsys, argv)[:2] for argv in argvs] == before


def test_liouville_all_pass(capsys):
    for n in ("1", "3"):
        code, out, _ = run(capsys, ["liouville", "--n", n])
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out


def test_liouville_n_zero_usage_error(capsys):
    code, _, _ = run(capsys, ["liouville", "--n", "0"])
    assert code == 2


# Specs beyond a size cap, each refused before anything of its size is
# built.  Large orders and exponents are refused by the dimension cap, as
# soon as the 65th standard monomial is found (the "order" spec used to
# enumerate about 10^10 exponents).
OVERSIZED = {
    "order": ({"type": "truncated_polynomial", "variables": ["x", "y"], "order": 100000},
              "algebra dimension exceeds the cap of 64"),
    "truncated-dim": ({"type": "truncated_polynomial", "variables": ["x", "y", "z"], "order": 10},
                      "algebra dimension exceeds the cap of 64"),
    "exponent": ({"type": "monomial_quotient", "variables": ["x"], "relations": ["x^100000000"]},
                 "algebra dimension exceeds the cap of 64"),
    "quotient-dim": ({"type": "monomial_quotient", "variables": ["x", "y"], "relations": ["x^60", "y^60"]},
                     "algebra dimension exceeds the cap of 64"),
    "table": ({"type": "structure_constants", "labels": [f"f{i}" for i in range(65)], "table": []},
              "number of labels 65 exceeds the cap of 64"),
    # Order 0 and relations x_i^1 keep the dimension at 1 however many
    # variables there are.
    "variables": ({"type": "truncated_polynomial", "variables": [f"x{i}" for i in range(65)], "order": 0},
                  "number of variables 65 exceeds the cap of 64"),
    "quotient-variables": ({"type": "monomial_quotient", "variables": [f"x{i}" for i in range(65)],
                            "relations": [f"x{i}" for i in range(65)]},
                           "number of variables 65 exceeds the cap of 64"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
@pytest.mark.parametrize("command", ["check", "derivations"])
def test_oversized_spec_exits_2(capsys, tmp_path, name, command):
    spec, message = OVERSIZED[name]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path), "--json"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Tables whose shape does not match their labels are malformed specs, like
# a table that is not a list at all.
MISSHAPEN = {
    "ragged-entry": (["a", "b"], [[[1, 0], [0, 1]], [[0, 1], [1]]]),
    "ragged-row": (["a", "b"], [[[1, 0], [0, 1]], [[0, 1]]]),
    "label-count": (["a", "b", "c"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]),
}


@pytest.mark.parametrize("name", sorted(MISSHAPEN))
@pytest.mark.parametrize("command", ["check", "derivations"])
@pytest.mark.parametrize("as_json", [False, True])
def test_misshapen_table_exits_2(capsys, tmp_path, name, command, as_json):
    labels, table = MISSHAPEN[name]
    s = len(labels)
    path = tmp_path / "misshapen.json"
    spec = {"type": "structure_constants", "labels": labels, "table": table}
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)] + (["--json"] if as_json else []))
    assert (code, out) == (2, "")
    assert err == f"parse error: table must be a {s} x {s} x {s} nested list for {s} labels\n"


# Specs that used to be accepted: a JSON boolean is an int in Python, and
# repeated names would print a basis such as 1, x, x, x^2, x*x, x^2.
AMBIGUOUS = {
    "order-true": ({"type": "truncated_polynomial", "variables": ["x"], "order": True},
                   "order must be a non-negative integer"),
    "order-false": ({"type": "truncated_polynomial", "variables": ["x"], "order": False},
                    "order must be a non-negative integer"),
    "repeated-variable": ({"type": "truncated_polynomial", "variables": ["x", "x"], "order": 2},
                          "variables must be distinct"),
    "repeated-quotient-variable": ({"type": "monomial_quotient", "variables": ["x", "y", "x"],
                                    "relations": ["x^2", "y^2"]},
                                   "variables must be distinct"),
    "repeated-label": ({"type": "structure_constants", "labels": ["a", "a"],
                        "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
                       "labels must be distinct"),
}


@pytest.mark.parametrize("name", sorted(AMBIGUOUS))
@pytest.mark.parametrize("command", ["check", "derivations"])
@pytest.mark.parametrize("as_json", [False, True])
def test_ambiguous_spec_exits_2(capsys, tmp_path, name, command, as_json):
    spec, message = AMBIGUOUS[name]
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)] + (["--json"] if as_json else []))
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_powers_of_sums_are_not_relations(capsys, tmp_path):
    # Read without expansion: (x+y)^60 would have 61 terms, (x1+...+x9)^60
    # about 10^10.
    path = tmp_path / "sum.json"
    names = [f"x{i}" for i in range(1, 10)]
    relation = "(" + "+".join(names) + ")^60"
    spec = {"type": "monomial_quotient", "variables": names, "relations": [relation]}
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, ["check", str(path)])
    assert (code, out) == (2, "")
    assert err == f"parse error: relation {relation!r} is not a plain monomial\n"


def test_largest_admitted_algebras(capsys, tmp_path):
    # The s = 56 ladder rung, and dim 64 over 63 variables, which used to
    # enumerate a box of 2^63 exponents.
    for variables, order, dim in ((5, 3, 56), (63, 1, 64)):
        path = tmp_path / "big.json"
        spec = {"type": "truncated_polynomial", "variables": [f"x{i}" for i in range(variables)], "order": order}
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, _ = run(capsys, ["check", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["algebra"]["dim"] == dim


@pytest.mark.parametrize("command", ["field", "foliation", "flow", "liouville"])
def test_n_above_the_cap_exits_2(capsys, files, command):
    extra = {
        "field": [files["dual"]],
        "foliation": [files["dual"], "--point", files["pt_dual"]],
        "flow": [files["dual"], "--point", files["pt_dual"], "--t", "1"],
        "liouville": [],
    }[command]
    code, out, err = run(capsys, [command, *extra, "--n", "17"])
    assert (code, out) == (2, "")
    assert "--n: must be at most 16" in err


def test_n_at_the_cap_runs(capsys):
    code, _, _ = run(capsys, ["liouville", "--n", "16"])
    assert code == 0


def test_json_reports_are_byte_identical(capsys, files):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["derivations", "--json", files["x3"]])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys,
            ["foliation", files["x3"], "--n", "1", "--point", files["pt_x3"], "--json"],
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_check_json_failure_report(capsys, files):
    code, out, _ = run(capsys, ["check", "--json", files["rxr"]])
    assert code == 1
    report = json.loads(out)
    assert report["weil"] is False
    assert report["axiom"] == "NotLocal"
    assert report["status"] == 1


def test_check_rejects_float_table(capsys, files, tmp_path):
    path = tmp_path / "floaty.json"
    path.write_text(
        json.dumps(
            {"type": "structure_constants", "labels": ["1"], "table": [[[1.0]]]}
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "parse error" in err


def test_check_infinite_dimensional_exits_1(capsys, files, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        json.dumps(
            {"type": "monomial_quotient", "variables": ["x", "y"], "relations": ["x^2"]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 1
    assert "InfiniteDimensional" in out


def test_foliation_float_point_uses_tolerance(capsys, files, tmp_path):
    point = tmp_path / "pt_float.json"
    point.write_text(
        json.dumps({"base": [0.0], "nilparts": [[1.0, 0.0]]}), encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        ["foliation", files["x3"], "--n", "1", "--point", str(point), "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["rank_samples"][0]["rank"] == 2
    assert report["tolerance"] == 1e-9

    code, out, _ = run(
        capsys,
        [
            "foliation",
            files["x3"],
            "--n",
            "1",
            "--point",
            str(point),
            "--tol",
            "1e-3",
            "--json",
        ],
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-3


def test_foliation_on_the_reals_has_rank_zero_at_a_tolerance(capsys, files, tmp_path):
    # R has no derivations, so the rank at --tol > 0 is that of no rows.
    spec = tmp_path / "r.json"
    spec.write_text('{"type": "truncated_polynomial", "variables": ["x"], "order": 0}', encoding="utf-8")
    point = tmp_path / "pt_r.json"
    point.write_text('{"base": [0.5], "nilparts": [[]]}', encoding="utf-8")
    argv = ["foliation", str(spec), "--n", "1", "--point", str(point), "--tol", "1e-9", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert (report["r"], report["rank_samples"][0]["rank"], report["tolerance"]) == (0, 0, 1e-9)


def test_liouville_json_report(capsys):
    code, out, _ = run(capsys, ["liouville", "--n", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["assertions"]) == 5
    assert report["status"] == 0


def test_cli_import_loads_no_introspection_modules():
    # Every weil command imports weilkit.cli in a fresh process.  Checked in
    # a subprocess, because pytest itself imports these modules.
    src = os.path.dirname(os.path.dirname(os.path.abspath(weilkit.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, weilkit.cli; print(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(ast.literal_eval(result.stdout))
    assert "weilkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("role", ["spec", "point"])
def test_long_file_names_are_quoted_briefly(capsys, files, role):
    # A file name of 5000 characters cannot be opened; the error quotes it
    # cut short, for the spec and for the point alike.
    name = "n" * 5000 + ".json"
    if role == "spec":
        argv = ["check", name]
    else:
        argv = ["foliation", files["x3"], "--n", "1", "--point", name]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and "'nnn" in err and "…" in err
    assert len(err.encode()) < 300
    assert "Traceback" not in err


def test_short_file_names_keep_the_os_message(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["check", "missing.json"])
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'missing.json'\n"
