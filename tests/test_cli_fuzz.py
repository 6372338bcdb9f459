"""The CLI's input contract on random input: random small specs, points
and flags through ``cli.main`` end in exit code 0, 1 or 2, never in an
exception or a traceback, and every ``--json`` report is strict JSON.

Property tests with hypothesis and small example counts; the module is
skipped where hypothesis is not installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

import pytest

from weilkit.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)

# Well-formed and malformed parts.  An example draws one layer (the spec,
# the point or the flags) to get malformed input, or none, so that most
# examples get past the input checks to the mathematics.
VARIABLES = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True)
BAD_VARIABLES = st.lists(st.sampled_from(["x", "ε", "", "x y", "1"]), max_size=3)
RATIONALS = st.one_of(
    st.integers(-4, 4), st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9))
)
SCALARS = st.one_of(RATIONALS, st.floats(-1e3, 1e3))
BAD_SCALARS = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, 10**30, "1e400", "nan", "1/0", "2/-3"]), JUNK
)
# Tables of valid algebras, to which random entries are written; a table
# entry is rational, a point coordinate a rational or a float.
TABLES = {
    "reals": [[["1/1"]]],
    "dual": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["0/1", "0/1"]]],
    "x3": [
        [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]],
        [["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/2"], ["0/1", "0/1", "0/1"]],
        [["0/1", "0/1", "1/1"], ["0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1"]],
    ],
}
BAD_RELATIONS = ["x^0", "2*x", "x+y", "(", "w^2", ""]


@st.composite
def specs(draw, bad):
    """(spec, s): a spec and the dimension of its algebra (1 for junk)."""
    kind = draw(st.sampled_from(["truncated", "quotient", "table"] + ["junk"] * bad))
    if kind == "truncated":
        variables = draw(BAD_VARIABLES if bad and draw(st.booleans()) else VARIABLES)
        bad_order = bad and draw(st.booleans())
        order = draw(st.one_of(st.just(-1), JUNK) if bad_order else st.integers(0, 3))
        s = math.comb(len(variables) + order, order) if type(order) is int and order >= 0 else 1
        return {"type": "truncated_polynomial", "variables": variables, "order": order}, s
    if kind == "quotient":
        # A pure power of every variable, and the product of the first two
        # variables or not; s counts the standard monomials.
        variables = draw(VARIABLES)
        powers = [draw(st.integers(1, 3)) for _ in variables]
        relations = [f"{v}^{k}" for v, k in zip(variables, powers)]
        mixed = len(variables) > 1 and draw(st.booleans())
        if mixed:
            relations.append(f"{variables[0]}*{variables[1]}")
        standard = itertools.product(*(range(k) for k in powers))
        s = sum(1 for e in standard if not (mixed and e[0] and e[1]))
        if bad:
            relations = draw(st.lists(st.sampled_from(relations + BAD_RELATIONS), max_size=4))
        return {"type": "monomial_quotient", "variables": variables, "relations": relations}, s
    if kind == "table":
        table = json.loads(json.dumps(TABLES[draw(st.sampled_from(sorted(TABLES)))]))
        s = len(table)
        labels = [f"e{i}" for i in range(s)]
        for _ in range(draw(st.integers(0, 2))):
            i, j, k = (draw(st.integers(0, s - 1)) for _ in range(3))
            table[i][j][k] = draw(st.one_of(SCALARS, BAD_SCALARS) if bad else RATIONALS)
        if bad and draw(st.booleans()):
            labels = draw(st.lists(st.sampled_from(["1", "a", ""]), max_size=s + 1))
        return {"type": "structure_constants", "labels": labels, "table": table}, s
    return draw(JUNK), 1


@st.composite
def points(draw, n, s, bad):
    """A near point of n components over an algebra of dimension s."""
    scalars = st.one_of(SCALARS, BAD_SCALARS) if bad else SCALARS
    if bad:
        n = draw(st.integers(1, 3))
    width = draw(st.integers(0, 4)) if bad else s - 1
    point = {"base": draw(st.lists(scalars, min_size=n, max_size=n))}
    if not bad or draw(st.booleans()):
        point["nilparts"] = draw(
            st.lists(st.lists(scalars, min_size=width, max_size=width), min_size=n, max_size=n)
        )
    return draw(st.one_of(st.just(point), JUNK)) if bad else point


COMMANDS = ["check", "derivations", "field", "foliation", "flow", "liouville"]


def number_text(valid, bad):
    """Flag values as a user types them: one of ``valid``, or, for a bad
    flag, also a number out of range, a float, or text that is not one."""
    wrong = ["-1", "0", "0.5", "1e-9", "17", "1e308", "inf", "nan", "x", ""]
    return st.sampled_from(valid + wrong * bad)


@st.composite
def argvs(draw, spec_path, n, point_path, bad):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command != "liouville":
        argv.append(spec_path)
    if command in ("field", "foliation", "flow", "liouville"):
        argv += ["--n", draw(number_text([str(n)], bad))]
    if command in ("field", "flow") and draw(st.booleans()):
        argv += ["--derivation", draw(number_text(["0", "1", "2"], bad))]
    if command == "flow":
        argv += ["--t", draw(number_text(["0.5", "-1", "2", "1e-3"], bad))]
    if command in ("foliation", "flow"):
        argv += ["--point", point_path]
    if command == "foliation" and draw(st.booleans()):
        argv += ["--tol", draw(number_text(["0", "1e-9", "0.1"], bad))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if "--json" in argv and out:
        json.loads(out, parse_constant=_refuse)


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    """Write an input to a new file and return its path; every example
    gets files of its own."""
    root = tmp_path_factory.mktemp("fuzz")
    count = itertools.count()

    def write_file(data: bytes) -> str:
        path = root / f"input{next(count)}.json"
        path.write_bytes(data)
        return str(path)

    return write_file


# The layer that gets malformed input, or None, half of the time.
LAYERS = st.sampled_from([None] * 3 + ["spec", "point", "flags"])


@SETTINGS
@hypothesis.given(LAYERS, st.integers(1, 3), st.data())
def test_random_specs_points_and_flags_keep_the_exit_contract(write, bad, n, data):
    spec, s = data.draw(specs(bad == "spec"))
    point = data.draw(points(n, s, bad == "point"))
    spec_path, point_path = write(json.dumps(spec).encode()), write(json.dumps(point).encode())
    check_contract(data.draw(argvs(spec_path, n, point_path, bad == "flags")))


@SETTINGS
@hypothesis.given(st.binary(max_size=40), st.sampled_from(["check", "derivations"]), st.booleans())
def test_random_spec_bytes_keep_the_exit_contract(write, raw, command, as_json):
    check_contract([command, write(raw)] + (["--json"] if as_json else []))
