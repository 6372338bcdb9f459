"""Golden corpus: the exact bytes every ``weil`` command prints on fixed inputs.

Each case runs ``cli.main`` inside a temporary directory that holds the
inputs, so reports name them by a relative path, and compares the SHA-256
digest of (exit code, stdout, stderr) with a pinned value.  Any changed
byte changes the digest: float digits of a flow, an axiom message, a
relabelled basis or the JSON layout.  Pin a new digest only for an output
change that is meant.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import random

import pytest

from support import compensated_sum, scrambled_table
from weilkit import truncated_polynomial_algebra
from weilkit.cli import main

# name -> (spec, manifold dimension n, derivation index for field and flow)
VALID = {
    "dual": ({"type": "truncated_polynomial", "variables": ["ε"], "order": 1}, 2, 0),
    "x3": ({"type": "truncated_polynomial", "variables": ["x"], "order": 2}, 1, 1),
    "m3": ({"type": "truncated_polynomial", "variables": ["x", "y"], "order": 2}, 2, 3),
    "monomial": (
        {"type": "monomial_quotient", "variables": ["x", "y"], "relations": ["x^3", "y^2", "x*y^2"]},
        1,
        2,
    ),
    # R[x]/x^3 over f0 = 1 + x, f1 = 2x - x^2, f2 = 1 + x^2: no basis
    # element is the unit, so normalisation relabels the basis.
    "scrambled": (
        {
            "type": "structure_constants",
            "labels": ["f0", "f1", "f2"],
            "table": [
                [["-2", "2", "3"], ["-4", "3", "4"], ["-1", "1", "2"]],
                [["-4", "3", "4"], ["-8", "4", "8"], ["0", "1", "0"]],
                [["-1", "1", "2"], ["0", "1", "0"], ["-2", "1", "3"]],
            ],
        },
        2,
        1,
    ),
}

# One table per axiom, each failing that axiom and passing the ones checked before it.
INVALID = {
    "not_commutative": {
        "type": "structure_constants",
        "labels": ["1", "e"],
        "table": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
    },
    "no_unit": {
        "type": "structure_constants",
        "labels": ["a", "b"],
        "table": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    },
    "not_associative": {
        "type": "structure_constants",
        "labels": ["1", "a", "b"],
        "table": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "0"]],
            [["0", "0", "1"], ["0", "1", "0"], ["0", "0", "0"]],
        ],
    },
    "not_local": {
        "type": "structure_constants",
        "labels": ["a", "b"],
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
    },
}


def _rational_point(s: int, n: int) -> dict:
    return {
        "base": [f"{2 * i + 1}/2" for i in range(n)],
        "nilparts": [[f"{(3 * i + j) % 5 - 2}/{j + 1}" for j in range(s - 1)] for i in range(n)],
    }


def _float_point(s: int, n: int) -> dict:
    return {
        "base": [0.5 + i for i in range(n)],
        "nilparts": [[0.25 * ((i + 2 * j) % 4) - 0.375 for j in range(s - 1)] for i in range(n)],
    }


def write_inputs(directory) -> None:
    for name, (spec, _, _) in VALID.items():
        (directory / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    for name, spec in INVALID.items():
        (directory / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    dims = {"dual": 2, "x3": 3, "m3": 6, "monomial": 6, "scrambled": 3}
    for name, (_, n, _) in VALID.items():
        for kind, make in (("q", _rational_point), ("f", _float_point)):
            point = make(dims[name], n)
            (directory / f"{name}_{kind}.json").write_text(json.dumps(point), encoding="utf-8")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, (_, n, index) in VALID.items():
        spec = f"{name}.json"
        dn = ["--n", str(n)]
        d = ["--derivation", str(index)]
        cases.update({
            f"{name}-check": ["check", spec],
            f"{name}-check-json": ["check", spec, "--json"],
            f"{name}-derivations": ["derivations", spec],
            f"{name}-derivations-json": ["derivations", spec, "--json"],
            f"{name}-field": ["field", spec, *dn, *d],
            f"{name}-field-json": ["field", spec, *dn, *d, "--json"],
            f"{name}-foliation-rational": ["foliation", spec, *dn, "--point", f"{name}_q.json"],
            f"{name}-foliation-rational-json":
                ["foliation", spec, *dn, "--point", f"{name}_q.json", "--json"],
            f"{name}-foliation-float": ["foliation", spec, *dn, "--point", f"{name}_f.json"],
            f"{name}-foliation-float-json":
                ["foliation", spec, *dn, "--point", f"{name}_f.json", "--json"],
            f"{name}-flow": ["flow", spec, *dn, *d, "--t", "-1.5", "--point", f"{name}_q.json"],
            f"{name}-flow-json":
                ["flow", spec, *dn, *d, "--t", "0.75", "--point", f"{name}_f.json", "--json"],
        })
    for name in INVALID:
        spec = f"{name}.json"
        cases.update({
            f"{name}-check": ["check", spec],
            f"{name}-check-json": ["check", spec, "--json"],
            f"{name}-derivations": ["derivations", spec],
            f"{name}-derivations-json": ["derivations", spec, "--json"],
        })
    cases["liouville"] = ["liouville", "--n", "2"]
    cases["liouville-json"] = ["liouville", "--n", "1", "--json"]
    return cases


CASES = _cases()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(repr((code, out, err)).encode("utf-8")).hexdigest()


GOLDEN = {
    "dual-check": "60297b6a8cd406b1cf5e56b9a9b827cc2052831fbd3b4c1241da5a44d85ac3f9",
    "dual-check-json": "ccc464cfc8115d839f4a6cc12c055e38095f0f1aa48851ca00c1b5004ac02781",
    "dual-derivations": "bb57da67ab63e44f01bc8805a5ff088c128fdce78bc43772a4bd637e6c9d3df5",
    "dual-derivations-json": "9a3af740195f3290d8f82977dea2975c48f5e171fb97210346dcdf4fef8b6b2f",
    "dual-field": "d9cbbd4d68d4c9944fa28cebe42c1f172befb6aa77d4f74890983ff2d2b4f893",
    "dual-field-json": "0cc61c328807df39e77072ee7836908fb2339503ae301031cd22e5883b4a86ee",
    "dual-flow": "7306d499a8bf4498e4abce87dce1a0d49e94ef2571c4baaa52516addb05352de",
    "dual-flow-json": "86ba57b0b402121c95f6354a0d1bdae70000c2f850774598a96cd6526cc23385",
    "dual-foliation-float": "0c41bf428ed7278e852fdf57c6903908690fb16cefd0483db0cec8edde0478af",
    "dual-foliation-float-json": "39223e664a9dbc16986b666728c806386897b98dc2866616d509eebb845bf60f",
    "dual-foliation-rational": "3bd0860c6134f1f0f783835e54bcb8e3d56c00cadc621fb852b7ae29103eb1f5",
    "dual-foliation-rational-json": "ffd2a2e061e92be1757c86e5baf4153fb323cd63a8fcf26c0f688920c90bce02",
    "liouville": "7e30a5e5d6dc8dffe0e99e8b9f4bd41a247bf0a38041e6817175bdd850cfe3f4",
    "liouville-json": "f7835af483c55c2f3958a40dc8a97c5587d91592e2452e5c3aebb61423637f50",
    "m3-check": "96a24cf917842699e63278cd8ca6bcd99f7b2c6728695eab800d0321c0941ed8",
    "m3-check-json": "784673306bbfb415e3bcd349028c710639c46f8fa1447fb4384b3f2c03dbf428",
    "m3-derivations": "c896f740b5e73188d7df5255db4bb3af0dd89da5e759ff16e814a8d755ec46fc",
    "m3-derivations-json": "7c8ab74d72ff0d50cdd1a8a50d5a5013bffdc67ae7822aeea12a3a135ba74de0",
    "m3-field": "40948fecdeda9530e0047f9c0ad59e97a2321665ac4db757d35226e5a3279b43",
    "m3-field-json": "8fe37cc2c80c88ea7d564a8a36c01d5074c435c76a4e2d77cf37ff0963b2f1fe",
    "m3-flow": "d49969804156f33b21db9bffb7a5f4e36b4b64f67e837f4b6118d808096d915e",
    "m3-flow-json": "d0e36e5a3522f93d9a75df4a6eabc34e9d3baed00eb0153ecd7cf1a115f6861a",
    "m3-foliation-float": "fb6fcb061608d51c73574cd2c56e1e8e6160fc89676989f167cd39f861bfb744",
    "m3-foliation-float-json": "b7df7a3b949cda463ddc39c956c410219a39fc295b9402d5eccfad98ad160ea2",
    "m3-foliation-rational": "87da8bb8da6b28f5bb4067ccb63646333e5dcaa4ad7b490401aecd3d18c6238b",
    "m3-foliation-rational-json": "5abe38a6073a2337b034a9b688c0522d3204e2048b1748e0bf903355e7c686b0",
    "monomial-check": "7ff776ccc4be471a9357cccc2eb8c1af0d6ae1d98ca344ff3943acc1cbf20574",
    "monomial-check-json": "23f535b86f35f9a38a7ce85cc8691507a8f5993f8fcc5d9e6c294e480e326221",
    "monomial-derivations": "eb2b5c2b2792d07bb0a819aacd65cb9b71ba21b32c55ef324ad1778aeb811589",
    "monomial-derivations-json": "dc07424b7d2f66345e0c5706e5770784b64ea359b2544e00e9b73d9763953f9c",
    "monomial-field": "b992f46dd5d06eb1747246c2d88b87dc4db3d30bc93a4aa3da96e783e06bdb12",
    "monomial-field-json": "776fe1f4a04da379c6f379f5eade9d38e9f782442ef80ce5246f5a0a11f05d3a",
    "monomial-flow": "96e383afbf1370b9ba4e478a46103d6b7736383f50995d4e63ed1b698717180a",
    "monomial-flow-json": "9fa9d293d93fccd13ad52f1f3b8d0687beae949d61cc73fa334a635617a2a0da",
    "monomial-foliation-float": "38ead4ae47e7dc7d24b910d19ae78cba48657123d71c54bf6414dfe0defa597f",
    "monomial-foliation-float-json": "8169ad4d8eaca9a6719013215d7fc67b010c5c5050207a98cd81c5b779acec93",
    "monomial-foliation-rational": "1258b0d6541d203adf785f8847f0253980e658d898434eda65f3b20265d2de08",
    "monomial-foliation-rational-json": "c7edb03f622debf1e38c70083d4dfe1f78daf1426d33bf4271ac4bbfdb226808",
    "no_unit-check": "8c9555fad58075c3ef5f98c34ec9ee2c3ada277ec7ab6e3829e901570acea36c",
    "no_unit-check-json": "aac6af29efe9cb71a98228c91ad0250e5713cbadc1d8d14eec1a90c1301591fd",
    "no_unit-derivations": "048e6a1d6d2ac958c418a390710b4dba6633f271cebfacc3b4ba56d971e57737",
    "no_unit-derivations-json": "048e6a1d6d2ac958c418a390710b4dba6633f271cebfacc3b4ba56d971e57737",
    "not_associative-check": "0e362903e138b09d3acfa7cbd53e572817aca5ff935d9c2ea634bc6cf844d611",
    "not_associative-check-json": "bac12863aa07f70804170c981423d0f21d66328f655f3f5913a4c75f3d50a2a2",
    "not_associative-derivations": "7b5fc3b391aaa3fd60ae47fccbb1abc94542f54b248cd11c816e052fcf37ade2",
    "not_associative-derivations-json": "7b5fc3b391aaa3fd60ae47fccbb1abc94542f54b248cd11c816e052fcf37ade2",
    "not_commutative-check": "c7f16b34316d14918e00c547ede387a07e5283c45e2066d20f1124c29823d0b9",
    "not_commutative-check-json": "82e066d408654990d2b576a84778c826f5ec37ce62165a44eff825381d40f408",
    "not_commutative-derivations": "0c9faa26a1230b96f7cd7aeeafaa3ac9a63bc5e93d084684fc76161a35ecddbc",
    "not_commutative-derivations-json": "0c9faa26a1230b96f7cd7aeeafaa3ac9a63bc5e93d084684fc76161a35ecddbc",
    "not_local-check": "868d586233bd3f0e018a17befdad722f7d14f8e5282c838aa549c4be01a0b699",
    "not_local-check-json": "0416860d02967e0959ae65c6d7af981e437e9a4cb94f3febdbdd3f76547869fc",
    "not_local-derivations": "8694b9f6163707db8c7deb0a939e0ea166cfd7abef055111921b40d9528cd02a",
    "not_local-derivations-json": "8694b9f6163707db8c7deb0a939e0ea166cfd7abef055111921b40d9528cd02a",
    "scrambled-check": "1757d70ed6284397d02ceb8d7a315663eed0f7c5ba2d4a321eb5d66f50b81d49",
    "scrambled-check-json": "24ccd1385cadc36f870331b24fdf4d45b07caa47d98392d102cb0892805766e8",
    "scrambled-derivations": "23432ceaca299aedd8dacd347ba1b1fbb57be06df4053449227dbf54a64da0dc",
    "scrambled-derivations-json": "bd255b2188fb51e28321b7f2ea27ee8481176f2f279494a54ec8da84642beb42",
    "scrambled-field": "60cd4e9e9410599996fc3756f262e3a4ef92bd8e8924478e88d341de2b85dc7e",
    "scrambled-field-json": "adf8bb556d9e4a0f1182f9676791567901b5b101d8f09162010bbd734aea3c57",
    "scrambled-flow": "71affa266ca4f93bbf64c5a81061ea5a6db54c5825e4f9795b9a6f3c2026cd94",
    "scrambled-flow-json": "4cddf18c99dc694585a9bd5781932c7a71025452c3d76f05e63b980f4f1c89fb",
    "scrambled-foliation-float": "eca5637953dd63fe7e9970a292491a7d06101cb09afd6331aeace488b7631de4",
    "scrambled-foliation-float-json": "a0b63c3252401b0546f5ef400c38ad5f2d968203f4b6576b60f6a0cbb30a5d1d",
    "scrambled-foliation-rational": "64d0eeafd5fd7d8371aed71bb14b7b0f1d401d731d7d8f0f9194eabf57ed3e75",
    "scrambled-foliation-rational-json": "b5eed3f15100a134f3d23df9018cbd6c71b02971f3311a260780ddd355216455",
    "x3-check": "13c25cb3f9279d20195725c6066426129256e3b41dc5bbac23877f0305ac0a45",
    "x3-check-json": "e17d127ad688493a0eb51678b1d1bc4f505b997521d1c9ef9cfeeb896afd8fe5",
    "x3-derivations": "a2b3ec0b7fd5bac6caf3402226f0d326cf58bb70d370cb77d0a21248b7c193fc",
    "x3-derivations-json": "08d895529b5b1641b134c12567338ae4c8f1ffccc5de5c5d32394a8a93cca66e",
    "x3-field": "f52bdde3fabc89220c4bc5c860aa3a649c6c812c64319f03f7e857e5194b7e72",
    "x3-field-json": "71c066b6aa4ed5d7dd9581446e97ad267662e3d8733c48529e5291bf3c27ad64",
    "x3-flow": "bd6efbd5467de3d218aa6f059544f61c3bc3806aaadb332d70202bc8651f9097",
    "x3-flow-json": "b87db2a12b8153ac1693013a2053d54d480dfeb277ade9164645bbee03e0c18c",
    "x3-foliation-float": "ddab76f5d461dc08d4787c38da1b91e1ed71d60b412d8d762fd8905a3e8bbcc2",
    "x3-foliation-float-json": "0b2d96b85c850376ee18b237c23e3428b9a37cd9186472fa5e2af9e4e9310232",
    "x3-foliation-rational": "2f4a1b4922133d8333c54ce98c3b3146cac134efe65de404a64667bb52bccb4a",
    "x3-foliation-rational-json": "821dcffece6ff3fa5da02a70175299a51d2d62815e2361fd17c8e0f894f8df07",
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(CASES[case])
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == GOLDEN[case]


def _scrambled_spec(order: int = 3) -> dict:
    """R[x,y]/m^(order+1) over a random basis, a dense rational table: s = 10
    for the default order 3, s = 6 for order 2."""
    table = scrambled_table(truncated_polynomial_algebra(2, order), random.Random(41))
    return {
        "type": "structure_constants",
        "labels": [f"f{i}" for i in range(len(table))],
        "table": [[[f"{x.numerator}/{x.denominator}" for x in entry] for entry in row] for row in table],
    }


# name -> (spec, SHA-256 of the stdout of ``weil derivations <name>.json --json``)
DERIVATION_BYTES = {
    "m4": (
        {"type": "truncated_polynomial", "variables": ["x", "y", "z"], "order": 3},
        "ec1e24731a7c6cd56b4a5dee8cc254be20bc360536c414e8f1ef36b3ac0126bb",
    ),
    "scrambled10": (
        _scrambled_spec(),
        "a3b26f98a023bc1eeb96ff76d92245f9a356e9f09f318ee95a7eed7a9b2d433c",
    ),
}


@pytest.mark.parametrize("name", sorted(DERIVATION_BYTES))
def test_derivations_json_bytes(name, tmp_path, monkeypatch, capsys):
    """The canonical basis and the Lie constants of a larger sparse rung
    and of a dense table, byte for byte."""
    spec, expected = DERIVATION_BYTES[name]
    (tmp_path / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["derivations", f"{name}.json", "--json"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == expected


# Dense tables: name -> (spec, manifold dimension n of the foliation case)
DENSE = {"scrambled6": (_scrambled_spec(2), 2), "scrambled10": (_scrambled_spec(), 1)}

# "<name>-<command>" -> digest of (exit code, stdout, stderr)
DENSE_GOLDEN = {
    "scrambled10-derivations": "18fd497315873cc3a005546498589a247e4f1f411a7af8136ccaec8ec5858423",
    "scrambled10-foliation": "5a1b719cbc6695f9ba23b9a9cf981516e96f93914651890b6d202121c7ba523e",
    "scrambled6-derivations": "10efc9a77e78aa8e6a41dbca846782c72ca9604d0098b395f9e4af128c6e378f",
    "scrambled6-foliation": "44e2db6bf29e6b85be1e378cc07af9624d61fdccd8df1bfd35977d647ba73534",
}


@pytest.mark.parametrize("case", sorted(DENSE_GOLDEN))
def test_dense_table_output(case, tmp_path, monkeypatch, capsys):
    """``derivations --json`` and ``foliation --json`` at a rational point
    on scrambled tables, whose constants share a denominator above 1, byte
    for byte."""
    name, command = case.split("-")
    spec, n = DENSE[name]
    s = len(spec["labels"])
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "point.json").write_text(json.dumps(_rational_point(s, n)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [command, "spec.json", "--json"]
    if command == "foliation":
        argv += ["--n", str(n), "--point", "point.json"]
    code = main(argv)
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == DENSE_GOLDEN[case]


# The flow pins of CI: ``weil flow --n 2 --json`` with squarings, on
# R[x,y,z]/m^4 at t = 23 from a float point, and on R[x,y]/m^5 over a
# random basis (s = 15) at t = -1.9 from a rational point: name -> (spec,
# point, derivation index, t, SHA-256 of stdout).
FLOW_PINS = {
    "m4": (
        {"type": "truncated_polynomial", "variables": ["x", "y", "z"], "order": 3},
        {"base": [0.5, -1.25], "nilparts": [[((5 * i + 3 * j) % 9 - 4) / 8 for j in range(19)] for i in range(2)]},
        7,
        "23",
        "3b7dbff6c1e0df4b300642e3050274ed08eced387306c4e9ed4a4ca105b51d99",
    ),
    "scrambled15": (
        _scrambled_spec(4),
        {"base": ["1/2", "-3/5"], "nilparts": [[f"{(7 * i + 3 * j) % 11 - 5}/{j + 2}" for j in range(14)] for i in range(2)]},
        3,
        "-1.9",
        "4ab5688ddf8913d04f09ad6dda97581bf05f0f119c959c32dda003f92ef12970",
    ),
}

@pytest.mark.parametrize("name", sorted(FLOW_PINS))
def test_flow_bytes_do_not_depend_on_how_sum_rounds(name, tmp_path, monkeypatch, capsys):
    """Every float sum of a flow adds left to right, so the pinned bytes
    hold under a compensated builtin sum(), as on Python 3.12 and later."""
    spec, point, index, t, expected = FLOW_PINS[name]
    (tmp_path / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "point.json").write_text(json.dumps(point), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    argv = ["flow", f"{name}.json", "--n", "2", "--point", "point.json", "--derivation", str(index)]
    assert main(argv + [f"--t={t}", "--json"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == expected


# ``foliation --n 2 --tol 1e-9 --json`` at a rational point, where the
# exact generators are ranked as floats: name -> digest of (exit code,
# stdout, stderr).  Both algebras have s = 6.
TOLERANCE_GOLDEN = {
    "m3": "1e09899e4bd3c4ff4eb556e574b69ebbabed0063ff886115b4c31adb187dd39d",
    "scrambled6": "1b86f34a78f993f2538bcf667a4c5c9463f613d38c9611ca0b9de7e26da08609",
}


@pytest.mark.parametrize("name", sorted(TOLERANCE_GOLDEN))
def test_rational_point_at_a_tolerance(name, tmp_path, monkeypatch, capsys):
    spec = VALID["m3"][0] if name == "m3" else DENSE["scrambled6"][0]
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "point.json").write_text(json.dumps(_rational_point(6, 2)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["foliation", "spec.json", "--n", "2", "--point", "point.json", "--tol", "1e-9", "--json"])
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == TOLERANCE_GOLDEN[name]


# The CI pins of ``derivations --json`` and ``foliation --json`` that run
# in about a second, on the same inputs and file names as the CI steps:
# name -> (input files, argv, SHA-256 of stdout).  The s = 20 derivations
# pin (about 12 s) is checked in CI only.
CI_PINS = {
    "m2x16-derivations": (
        {"m2x16.json": {"type": "truncated_polynomial", "variables": [f"x{i}" for i in range(1, 17)], "order": 1}},
        ["derivations", "m2x16.json", "--json"],
        "3964e689a323774f6b8300d75895da1ee1c04873c5411645f53cd9163278d5e1",
    ),
    "m4x5-derivations": (
        {"m4x5.json": {"type": "truncated_polynomial", "variables": [f"x{i}" for i in range(1, 6)], "order": 3}},
        ["derivations", "m4x5.json", "--json"],
        "d8be61cf585d2c91262e89bce87bd1267b1b9f21d59bc9bec537a9f16e839639",
    ),
    "scrambled15-derivations": (
        {"scrambled15.json": FLOW_PINS["scrambled15"][0]},
        ["derivations", "scrambled15.json", "--json"],
        "9a082a361e040f3f5d68901a8a662b0dc03aad1c4a2fb108eed46c8f8a9035ad",
    ),
    "scrambled15-foliation": (
        {"scrambled15.json": FLOW_PINS["scrambled15"][0], "pt15.json": FLOW_PINS["scrambled15"][1]},
        ["foliation", "scrambled15.json", "--n", "2", "--point", "pt15.json", "--json"],
        "b6ab6bb587140b885d501ae332ee2cee0439b7b59463797161682936ac344562",
    ),
    "m4-foliation-float": (
        {"m4.json": FLOW_PINS["m4"][0], "flow_pt20.json": FLOW_PINS["m4"][1]},
        ["foliation", "m4.json", "--n", "2", "--point", "flow_pt20.json", "--json"],
        "4a340ea308fb6260b06a0fc2d1bd8d32a282a79f80a663c33dc9947f4c74ce05",
    ),
}


@pytest.mark.parametrize("name", sorted(CI_PINS))
def test_ci_pins_offline(name, tmp_path, monkeypatch, capsys):
    files, argv, expected = CI_PINS[name]
    for filename, content in files.items():
        (tmp_path / filename).write_text(json.dumps(content), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == expected
