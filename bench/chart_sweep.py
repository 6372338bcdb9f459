"""The library workload: one algebra held in memory, swept over near points.

Set-up builds R[x,y]/m^4 (s = 10, r = 18) from its spec, its derivation
basis, its Lie structure and the induced fields on R^3.  Each round then
plays a fixed mix of cards on fresh seeded points, polynomials and flow
times.  A card's inputs are prepared untimed; only the library call is
timed, and its output is checked afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import gen
from weilkit import derivations, foliation, jsonio, nearpoints, poly

N = 3
NVARS, ORDER = 2, 3
NAMES = ("u", "v", "w")
SPEC = gen.truncated_spec(NVARS, ORDER)
EXPECTED = gen.truncated_invariants(NVARS, ORDER)

# Monomial supports are fixed per card so that every round makes the same
# calls; the seed draws coefficients, points and times.
_SUPPORTS = random.Random(0)
F_TERMS = sorted(gen.polynomial_terms(_SUPPORTS, N, 3, 2))
G_TERMS = sorted(gen.polynomial_terms(_SUPPORTS, N, 2, 2))
EVAL_TERMS = sorted(gen.polynomial_terms(_SUPPORTS, N, 5, 3))
LEAF_STEPS = 3

# (card kind, point kind) played once per round.  Exact ranks at rational
# points are the heaviest card; with 3 of 14 they hold the 90th percentile
# inside one kind of operation instead of at the edge between two.
ROUND = (
    ("distribution", "rational"),
    ("distribution", "rational"),
    ("distribution", "rational"),
    ("distribution", "zero"),
    ("distribution", "float"),
    ("distribution", "float"),
    ("field_apply", "rational"),
    ("field_apply", "rational"),
    ("eval", "rational"),
    ("eval", "float"),
    ("eval_taylor", "rational"),
    ("flow", "rational"),
    ("flow", "float"),
    ("leaf_sample", "float"),
)


@dataclass
class Context:
    algebra: object
    basis: list
    fields: list
    table: list


def setup() -> Context:
    """The one-time build a library user pays before sweeping."""
    algebra = jsonio.algebra_from_spec(SPEC)
    basis = derivations.derivation_basis(algebra)
    derivations.lie_structure(basis)
    fields = [foliation.induced_field(algebra, d, N) for d in basis]
    table = gen.monomial_table(NVARS, gen.truncated_relations(NVARS, ORDER))
    return Context(algebra, basis, fields, table)


def check_setup(ctx: Context) -> str | None:
    a = ctx.algebra
    got = {"dim": a.dim, "height": a.height, "width": a.width, "r": len(ctx.basis)}
    return None if got == EXPECTED else f"set-up invariants {got} != {EXPECTED}"


# ----------------------------------------------------- independent evaluation


def _mul(table, u, v):
    s = len(table)
    out = [0] * s
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    entry = table[i][j]
                    for k in range(s):
                        if entry[k]:
                            out[k] += a * b * entry[k]
    return out


def own_eval(table, terms: dict, components) -> list:
    """f at a near point, by the benchmark's own table product."""
    s = len(table)
    total = [0] * s
    for exps, c in terms.items():
        value = [c] + [0] * (s - 1)
        for comp, e in zip(components, exps):
            for _ in range(e):
                value = _mul(table, value, comp)
        total = [x + y for x, y in zip(total, value)]
    return total


def _same(a, b, exact: bool) -> bool:
    if exact:
        return list(a) == list(b)
    return all(checks.close(x, y) for x, y in zip(a, b))


# -------------------------------------------------------------------- cards


def _point(ctx: Context, rng: random.Random, kind: str):
    base, nil = gen.near_point_coords(rng, N, ctx.algebra.dim, kind)
    parts = [ctx.algebra.element([0] + list(row)) for row in nil]
    point = nearpoints.make_near_point(ctx.algebra, base, parts)
    components = [[b] + list(row) for b, row in zip(base, nil)]
    return point, components


def _coefficients(rng: random.Random, support) -> dict:
    # Positive coefficients: no product term cancels, so call counts repeat.
    return {e: Fraction(rng.randint(1, 12), rng.randint(1, 4)) for e in support}


def _product(f: dict, g: dict) -> dict:
    out: dict = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = tuple(a + b for a, b in zip(ef, eg))
            out[e] = out.get(e, 0) + cf * cg
    return out


Prepared = tuple[Callable[[], object], Callable[[object], "str | None"]]


def prepare(ctx: Context, rng: random.Random, kind: str, point_kind: str) -> Prepared:
    """Inputs for one card: the timed call and the check of its result."""
    algebra, basis = ctx.algebra, ctx.basis
    point, components = _point(ctx, rng, point_kind)
    base = [c[0] for c in components]
    exact = point_kind != "float"

    if kind == "distribution":
        def run():
            return foliation.distribution_at(algebra, basis, point)

        def check(sample):
            want = 0 if point_kind == "zero" else checks.float_rank(sample.generators)
            if sample.rank != want:
                return f"rank {sample.rank} != float-elimination rank {want}"
            if exact and sample.tolerance != 0.0:
                return "rational point was not ranked exactly"
            return None

        return run, check

    if kind == "field_apply":
        f, g = _coefficients(rng, F_TERMS), _coefficients(rng, G_TERMS)
        text = gen.polynomial_text(_product(f, g), NAMES)
        fld = ctx.fields[rng.randrange(len(basis))]

        def run():
            return foliation.field_apply(fld, poly.parse_polynomial(text, NAMES), point)

        def check(value):
            fp = poly.parse_polynomial(gen.polynomial_text(f, NAMES), NAMES)
            gp = poly.parse_polynomial(gen.polynomial_text(g, NAMES), NAMES)
            leibniz = (foliation.field_apply(fld, fp, point) * point.eval(gp)
                       + point.eval(fp) * foliation.field_apply(fld, gp, point))
            return None if value.coeffs == leibniz.coeffs else "field_apply breaks Leibniz on f*g"

        return run, check

    if kind in ("eval", "eval_taylor"):
        terms = _coefficients(rng, EVAL_TERMS)
        text = gen.polynomial_text(terms, NAMES)
        want = own_eval(ctx.table, terms, components)
        if kind == "eval":
            def run():
                return point.eval(poly.parse_polynomial(text, NAMES))
        else:
            partials = gen.taylor_partials(terms, N, base, ctx.algebra.height)
            oracle = nearpoints.TaylorOracle([float(b) for b in base], partials)

            def run():
                return point.eval_taylor(oracle)

        def check(value):
            same = _same(value.coeffs, want, exact and kind == "eval")
            return None if same else f"{kind} differs from the independent evaluation"

        return run, check

    if kind == "flow":
        d = basis[rng.randrange(len(basis))]
        t = gen.flow_time(rng)

        def run():
            return foliation.flow(algebra, d, t, point)

        def check(moved):
            if [float(c.scalar_part) for c in moved.components] != [float(b) for b in base]:
                return "flow moved the base point"
            back = foliation.flow(algebra, d, -t, moved)
            for c, want in zip(back.components, components):
                if not _same(c.coeffs, want, False):
                    return "flow(t) then flow(-t) does not return"
            return None

        return run, check

    if kind == "leaf_sample":
        schedule = [(rng.randrange(len(basis)), gen.flow_time(rng)) for _ in range(LEAF_STEPS)]

        def run():
            return foliation.leaf_sample(algebra, basis, point, schedule)

        def check(samples):
            if len(samples) != LEAF_STEPS + 1:
                return "leaf_sample returned the wrong number of points"
            for sample in samples:
                if [float(c.scalar_part) for c in sample.components] != [float(b) for b in base]:
                    return "leaf left the fiber"
            reverse = [(i, -t) for i, t in reversed(schedule)]
            back = foliation.leaf_sample(algebra, basis, samples[-1], reverse)[-1]
            for c, want in zip(back.components, components):
                if not _same(c.coeffs, want, False):
                    return "reversed leaf schedule does not return"
            return None

        return run, check

    raise ValueError(f"unknown card kind {kind!r}")
