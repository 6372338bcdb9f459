"""Command-line surface: verify algebras, list derivations, print induced
fields, probe the distribution, integrate flows, run the Liouville check.

Exit codes: 0 success, 1 domain failure (failed axiom or assertion, bad
index, invalid point), 2 usage or parse failure, including an input beyond
a size cap: ``--n`` at most MAX_N, and dimension, variables and labels at
most :data:`weilkit.algebra.MAX_DIM`.  ``--json`` switches every command to
a deterministic machine-readable report; the default output uses
tangent-bundle notation (ε, y_i, d0) where it applies.  Set WEIL_COLOR=0 to
suppress ANSI colors.

All math happens in the library modules; this file only parses, dispatches
and formats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .algebra import (
    AlgebraAxiomError,
    InfiniteDimensionalError,
    SizeLimitError,
    WeilAlgebra,
    format_element,
)
from .derivations import derivation_basis, lie_structure
from .foliation import (
    coordinate_values,
    distribution_at,
    flow,
    induced_field,
    involutivity_check,
    liouville_demo,
)
from .jsonio import (
    SpecFormatError,
    algebra_from_spec,
    algebra_summary,
    derivation_to_json,
    lie_constants_to_json,
    near_point_from_json,
    near_point_to_json,
    scalar_to_json,
)
from .nearpoints import NearPoint, chart_variable_names
from .poly import PolynomialParseError, format_scalar, quoted


def _use_color() -> bool:
    return sys.stdout.isatty() and os.environ.get("WEIL_COLOR") != "0"


def _passfail(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _use_color():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError:
            raise
        except RecursionError:
            raise SpecFormatError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bytes that are not UTF-8, or an int beyond int()'s digit limit
            what = "not valid UTF-8" if isinstance(exc, UnicodeDecodeError) else exc
            raise SpecFormatError(f"{path}: {what}") from None


def _os_error(exc: OSError) -> str:
    """``str(exc)`` with the file name cut by ``quoted``, so that a failure
    to open a long path stays short."""
    if exc.filename is None or exc.strerror is None:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {quoted(exc.filename)}"


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _report(args, algebra: WeilAlgebra, **fields) -> int:
    """Emit the JSON report of a command that succeeded on ``algebra``, and
    return its exit code 0."""
    summary = algebra_summary(algebra)
    _emit({"command": args.command, "input": args.spec, "algebra": summary, **fields, "status": 0})
    return 0


def _format_sum(pairs, names, term) -> str:
    """Render the non-zero chart polynomials of (key, polynomial) pairs as a
    sum of ``term(key, rendered)``; sums and negatives get parentheses."""
    pieces = []
    for key, comp in pairs:
        if comp.is_zero():
            continue
        body = comp.to_str(names)
        rendered = f"({body})" if len(comp) > 1 or body.startswith("-") else body
        pieces.append(term(key, rendered))
    return " + ".join(pieces) if pieces else "0"


def _header(algebra: WeilAlgebra) -> str:
    return f"Weil: dim {algebra.dim}, height {algebra.height}, width {algebra.width}"


def _axiom_name(exc: Exception) -> str:
    return getattr(exc, "axiom", type(exc).__name__.removesuffix("Error"))


def _load_point(args, algebra: WeilAlgebra) -> NearPoint:
    point = near_point_from_json(algebra, _load_json_file(args.point))
    if point.n != args.n:
        raise ValueError(f"point has {point.n} coordinates, expected {args.n}")
    return point


def _chosen_derivation(args, basis):
    """basis[args.derivation], or None once an out-of-range index is reported."""
    if 0 <= args.derivation < len(basis):
        return basis[args.derivation]
    message = f"derivation index {args.derivation} out of range (dim Der = {len(basis)})"
    if args.json:
        _emit({"command": args.command, "error": message, "status": 1})
    else:
        print(f"error: {message}", file=sys.stderr)
    return None


def _point_lines(point: NearPoint) -> list[str]:
    return [
        f"  ξ{i + 1} = {format_element(comp)}"
        for i, comp in enumerate(point.components)
    ]


# ----------------------------------------------------------------- commands


def _cmd_check(args) -> int:
    try:
        algebra = algebra_from_spec(_load_json_file(args.spec))
    except (AlgebraAxiomError, InfiniteDimensionalError) as exc:
        name = _axiom_name(exc)
        if args.json:
            _emit({"command": "check", "input": args.spec, "weil": False, "axiom": name,
                   "reason": str(exc), "status": 1})
        else:
            print(f"{name}: {exc}")
        return 1
    if args.json:
        return _report(args, algebra, weil=True)
    print(_header(algebra))
    print(f"basis: {', '.join(algebra.labels)}")
    if algebra.dim > 1:
        print(f"maximal ideal: span({', '.join(algebra.labels[1:])})")
    return 0


def _cmd_derivations(args) -> int:
    algebra = algebra_from_spec(_load_json_file(args.spec))
    basis = derivation_basis(algebra)
    lie = lie_structure(basis)
    if args.json:
        return _report(
            args,
            algebra,
            r=len(basis),
            basis=[derivation_to_json(d) for d in basis],
            lie_constants=lie_constants_to_json(lie),
            normalization="reduced row echelon over row-major matrix entries; "
            "dual-number generator rescaled to ε ↦ -ε",
        )
    print(_header(algebra))
    print(f"dim Der(A) = {len(basis)}")
    for idx, d in enumerate(basis):
        print(f"d{idx}:")
        for j in range(1, algebra.dim):
            image = d.apply(algebra.basis_element(j))
            print(f"  d{idx}({algebra.labels[j]}) = {format_element(image)}")
    if lie.brackets:
        print("Lie structure (nonzero brackets):")
        for (i, j), coeffs in sorted(lie.brackets.items()):
            terms = [
                f"d{k}" if c == 1 else f"-d{k}" if c == -1 else f"{format_scalar(c)}·d{k}"
                for k, c in sorted(coeffs.items())
            ]
            print(f"  [d{i},d{j}] = {' + '.join(terms)}")
    else:
        print("Lie structure: abelian (all brackets vanish)")
    return 0


def _cmd_field(args) -> int:
    algebra = algebra_from_spec(_load_json_file(args.spec))
    d = _chosen_derivation(args, derivation_basis(algebra))
    if d is None:
        return 1
    names = chart_variable_names(algebra, args.n)
    values = coordinate_values(induced_field(algebra, d, args.n))
    if args.json:
        rendered = [[comp.to_str(names) for comp in row] for row in values]
        return _report(
            args,
            algebra,
            n=args.n,
            derivation=args.derivation,
            matrix=derivation_to_json(d),
            values=rendered,
            chart=[text for row in rendered for text in row],
            chart_variables=names,
        )
    chart = [comp for row in values for comp in row]
    print(_header(algebra))
    i = args.derivation
    for q in range(args.n):
        value = _format_sum(
            zip(algebra.labels, values[q]), names, lambda label, r: r if label == "1" else f"{label}·{r}"
        )
        print(f"d{i}*(x{q + 1}) = {value}")
    chart_field = _format_sum(zip(names, chart), names, lambda name, r: f"{r} ∂/∂{name}")
    print(f"chart: d{i}* = {chart_field}")
    return 0


def _cmd_foliation(args) -> int:
    algebra = algebra_from_spec(_load_json_file(args.spec))
    point = _load_point(args, algebra)
    basis = derivation_basis(algebra)
    lie = lie_structure(basis)
    sample = distribution_at(algebra, basis, point, tol=args.tol)
    inv = involutivity_check(lie)
    if args.json:
        return _report(
            args,
            algebra,
            n=args.n,
            r=len(basis),
            generators=[[scalar_to_json(x) for x in gen] for gen in sample.generators],
            rank_samples=[{"point": near_point_to_json(point), "rank": sample.rank}],
            tolerance=sample.tolerance,
            bracket_law=inv["pairs"],
        )
    print(_header(algebra))
    print(f"dim Der(A) = r = {len(basis)}")
    print("point:")
    for line in _point_lines(point):
        print(line)
    print("generators (chart coordinates):")
    for idx, gen in enumerate(sample.generators):
        print(f"  d{idx}*: ({', '.join(format_scalar(x) for x in gen)})")
    print(f"rank at point: {sample.rank}")
    if inv["pairs"]:
        print("involutivity ([di*,dj*] = [di,dj]*):")
        for pair in inv["pairs"]:
            print(f"  ({pair['i']},{pair['j']}): {_passfail(pair['pass'])}")
    else:
        print("involutivity: trivial (fewer than two generators)")
    return 0


def _cmd_flow(args) -> int:
    algebra = algebra_from_spec(_load_json_file(args.spec))
    point = _load_point(args, algebra)
    d = _chosen_derivation(args, derivation_basis(algebra))
    if d is None:
        return 1
    moved = flow(algebra, d, args.t, point)
    drift = max(
        abs(float(a.scalar_part) - float(b.scalar_part))
        for a, b in zip(point.components, moved.components)
    )
    if args.json:
        return _report(
            args,
            algebra,
            n=args.n,
            derivation=args.derivation,
            t=args.t,
            point=near_point_to_json(point),
            flowed=near_point_to_json(moved),
            base_drift=drift,
        )
    print(f"flow of d{args.derivation}* for t = {args.t:.12g}")
    print("start:")
    for line in _point_lines(point):
        print(line)
    print("end:")
    for line in _point_lines(moved):
        print(line)
    print(f"base point preserved: max drift {drift:.3e}")
    return 0


def _cmd_liouville(args) -> int:
    report = liouville_demo(args.n)
    if args.json:
        _emit({"command": "liouville", **report, "status": 0 if report["pass"] else 1})
    else:
        print(f"Liouville check on the tangent-bundle chart over R^{args.n} "
              f"(dual numbers, dim Der = {report['r']})")
        for assertion in report["assertions"]:
            print(f"{_passfail(assertion['pass'])} {assertion['name']}: {assertion['detail']}")
        verdict = "all assertions pass" if report["pass"] else "some assertions FAILED"
        print(verdict)
    return 0 if report["pass"] else 1


# ------------------------------------------------------------------- parser


# Largest manifold dimension: a chart of an s-dimensional algebra has n*s
# coordinates, and a field's chart form up to n^2 * s^3 exponent entries.
MAX_N = 16


def _number(kind, low=None, high=None):
    """Argparse type: a finite ``kind`` (int or float) in [``low``, ``high``]."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{quoted(text)} is not a valid {kind.__name__}") from exc
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weil",
        description="Weil algebra toolkit: verification, derivations, induced "
        "fields, foliation probes and flows on near-point charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="algebra spec file (JSON)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_check = sub.add_parser("check", help="verify the local-algebra axioms")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_der = sub.add_parser("derivations", help="basis of the derivation space and its brackets")
    add_common(p_der)
    p_der.set_defaults(func=_cmd_derivations)

    p_field = sub.add_parser("field", help="chart form of one induced vector field")
    add_common(p_field)
    p_field.add_argument("--n", type=_number(int, 1, MAX_N), required=True, help="manifold dimension")
    p_field.add_argument("--derivation", type=_number(int, 0), default=0, help="basis index")
    p_field.set_defaults(func=_cmd_field)

    p_fol = sub.add_parser("foliation", help="distribution generators, rank and involutivity at a point")
    add_common(p_fol)
    p_fol.add_argument("--n", type=_number(int, 1, MAX_N), required=True, help="manifold dimension")
    p_fol.add_argument("--point", required=True, help="near point file (JSON)")
    p_fol.add_argument("--tol", type=_number(float, 0), default=None,
                       help="rank tolerance (default: exact for rational points, 1e-9 otherwise)")
    p_fol.set_defaults(func=_cmd_foliation)

    p_flow = sub.add_parser("flow", help="integrate one induced field from a point")
    add_common(p_flow)
    p_flow.add_argument("--n", type=_number(int, 1, MAX_N), required=True, help="manifold dimension")
    p_flow.add_argument("--derivation", type=_number(int, 0), default=0, help="basis index")
    p_flow.add_argument("--t", type=_number(float), required=True, help="flow time")
    p_flow.add_argument("--point", required=True, help="near point file (JSON)")
    p_flow.set_defaults(func=_cmd_flow)

    p_liou = sub.add_parser("liouville", help="tangent-bundle specialisation check")
    p_liou.add_argument("--n", type=_number(int, 1, MAX_N), required=True, help="manifold dimension")
    p_liou.add_argument("--json", action="store_true", help="emit a JSON report")
    p_liou.set_defaults(func=_cmd_liouville)

    # No option looks like a number, so "-" and a digit, or "-." and a
    # digit, starts a value: argparse before 3.14 reads -1e-3 as an option.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (json.JSONDecodeError, SpecFormatError, PolynomialParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {_os_error(exc)}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraAxiomError, InfiniteDimensionalError) as exc:
        print(f"{_axiom_name(exc)}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
