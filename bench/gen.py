"""Seeded inputs for the weilkit benchmark, with their expected answers.

Everything here is independent of weilkit: monomial algebras are built
from their standard monomials, invariants come from closed forms or from a
rank computed modulo a large prime over the generator presentation, and
invalid tables are confirmed invalid by this module's own axiom checks.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

PRIME = 2**61 - 1
NAMES = ("x", "y", "z", "w")

# Flow times are drawn from the range users run (|t| <= 2, as in the
# README and the Liouville demo).  Huge or non-finite times are input
# validation cases, not performance cases.
MAX_FLOW_TIME = 2.0


# ------------------------------------------------------------ monomial algebras


def grlex_key(exponents):
    return (sum(exponents), tuple(-e for e in exponents))


def truncated_relations(nvars: int, order: int):
    return [
        e for e in itertools.product(range(order + 2), repeat=nvars) if sum(e) == order + 1
    ]


def _divisible(e, relations) -> bool:
    return any(all(r <= x for r, x in zip(rel, e)) for rel in relations)


def standard_monomials(nvars: int, relations):
    """Monomials outside the ideal, in graded-lex order (the library's basis order)."""
    bounds = []
    for i in range(nvars):
        pure = [rel[i] for rel in relations if rel[i] > 0 and sum(rel) == rel[i]]
        bounds.append(min(pure))
    return sorted(
        (
            e
            for e in itertools.product(*(range(b) for b in bounds))
            if not _divisible(e, relations)
        ),
        key=grlex_key,
    )


def monomial_table(nvars: int, relations):
    """Dense s x s x s integer table of the monomial quotient."""
    basis = standard_monomials(nvars, relations)
    index = {e: i for i, e in enumerate(basis)}
    s = len(basis)
    table = []
    for a in basis:
        row = []
        for b in basis:
            e = tuple(x + y for x, y in zip(a, b))
            entry = [0] * s
            if e in index:
                entry[index[e]] = 1
            row.append(entry)
        table.append(row)
    return table


def rank_mod_p(rows) -> int:
    m = [[x % PRIME for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], PRIME - 2, PRIME)
        prow = [x * inv % PRIME for x in m[rank]]
        m[rank] = prow
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], prow)]
        rank += 1
    return rank


def monomial_invariants(nvars: int, relations) -> dict:
    """dim, height, width and r = dim Der(A) of a monomial quotient.

    r is computed over the generator presentation: a derivation is fixed by
    the images f_i of the variables, and it exists iff D(g) = 0 in A for
    every relation g.  The rank of that system is taken modulo a 61-bit
    prime, which equals the rational rank for these 0/1 tables.
    """
    basis = standard_monomials(nvars, relations)
    index = {e: i for i, e in enumerate(basis)}
    s = len(basis)
    rows = []
    for rel in relations:
        equations = [[0] * (nvars * s) for _ in range(s)]
        for i in range(nvars):
            if rel[i] == 0:
                continue
            cofactor = tuple(e - (1 if q == i else 0) for q, e in enumerate(rel))
            for b, mono in enumerate(basis):
                target = tuple(x + y for x, y in zip(cofactor, mono))
                if target in index:
                    equations[index[target]][i * s + b] += rel[i]
        rows.extend(equations)
    r = nvars * s - rank_mod_p(rows)
    return {
        "dim": s,
        "height": max(sum(e) for e in basis),
        "width": sum(1 for e in basis if sum(e) == 1),
        "r": r,
    }


def truncated_invariants(nvars: int, order: int) -> dict:
    """Closed forms for R[x1..xv]/m^(k+1): C(v+k, k), k, v and v(s-1)."""
    s = comb(nvars + order, order)
    return {"dim": s, "height": order, "width": nvars, "r": nvars * (s - 1)}


def rel_text(rel, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, rel) if e]
    return "*".join(parts)


def truncated_spec(nvars: int, order: int) -> dict:
    return {"type": "truncated_polynomial", "variables": list(NAMES[:nvars]), "order": order}


def quotient_spec(nvars: int, relations) -> dict:
    names = NAMES[:nvars]
    return {
        "type": "monomial_quotient",
        "variables": list(names),
        "relations": [rel_text(rel, names) for rel in relations],
    }


# --------------------------------------------------------------- sparse ladder

# (kind, nvars, order-or-relations); s runs from 4 to 15.
SPARSE_LADDER = {
    "t1k3": ("truncated", 1, 3),
    "t3k1": ("truncated", 3, 1),
    "t4k1": ("truncated", 4, 1),
    "t2k2": ("truncated", 2, 2),
    "t1k5": ("truncated", 1, 5),
    "t2k3": ("truncated", 2, 3),
    "t3k2": ("truncated", 3, 2),
    "t1k9": ("truncated", 1, 9),
    "t2k4": ("truncated", 2, 4),
    "t1k14": ("truncated", 1, 14),
    "q_x2y3": ("quotient", 2, [(2, 0), (0, 3)]),
    "q_x3y3_xy2": ("quotient", 2, [(3, 0), (0, 3), (1, 2)]),
    "q_x2y2z2": ("quotient", 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    "q_x4y2": ("quotient", 2, [(4, 0), (0, 2)]),
}


def sparse_entry(name: str) -> dict:
    """Spec, expected invariants and integer table of one ladder rung."""
    kind, nvars, arg = SPARSE_LADDER[name]
    if kind == "truncated":
        relations = truncated_relations(nvars, arg)
        spec = truncated_spec(nvars, arg)
        expected = truncated_invariants(nvars, arg)
        oracle = monomial_invariants(nvars, relations)
        if oracle != expected:
            raise AssertionError(f"closed form and oracle disagree on {name}")
    else:
        relations = [tuple(r) for r in arg]
        spec = quotient_spec(nvars, relations)
        expected = monomial_invariants(nvars, relations)
    return {"spec": spec, "expected": expected, "table": monomial_table(nvars, relations)}


# ------------------------------------------------------- dense scrambled tables

# Base algebras for the dense workload (s = 4..8) as (nvars, relations).
DENSE_BASES = {
    "x4": (1, [(4,)]),
    "x2y2": (2, [(2, 0), (0, 2)]),
    "m2_3": (3, truncated_relations(3, 1)),
    "x5": (1, [(5,)]),
    "m2_4": (4, truncated_relations(4, 1)),
    "m3_2": (2, truncated_relations(2, 2)),
    "x3y2": (2, [(3, 0), (0, 2)]),
    "x4xyy4": (2, [(4, 0), (1, 1), (0, 4)]),
    "x3y3xy": (2, [(3, 0), (1, 1), (0, 3)]),
    "x2y2z2": (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    "x4y2": (2, [(4, 0), (0, 2)]),
    "x3y2xy": (2, [(3, 0), (0, 2), (1, 1)]),
    "x6": (1, [(6,)]),
    "x2y3": (2, [(2, 0), (0, 3)]),
    "x7": (1, [(7,)]),
    "x2y2z2xyz": (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
}


def _random_change_of_basis(rng: random.Random, s: int):
    """Columns f_0 = e_0 + n and f_j = sum_i W[i][j] e_i (i, j >= 1).

    n has random entries in {-1, 0, 1}; W = L U c is a unimodular matrix
    with random signs in every off-diagonal slot of L and U, times fixed
    column scales c_j = (j+1)/(j+2).  The new ideal basis f_1..f_{s-1}
    spans the maximal ideal, so the library's normalised table is the
    algebra over that dense basis (about 70 % non-zero), while the unit is
    no longer a basis vector.  Only signs are random, which keeps the size
    of the rationals, and with it the cost, similar from seed to seed.
    """
    m = s - 1
    lower = [[int(i == j) for j in range(m)] for i in range(m)]
    upper = [[int(i == j) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            if j < i:
                lower[i][j] = rng.choice((1, -1))
            elif j > i:
                upper[i][j] = rng.choice((1, -1))
    change = [[Fraction(0)] * s for _ in range(s)]
    change[0][0] = Fraction(1)
    for i in range(1, s):
        change[i][0] = Fraction(rng.choice((1, 0, -1)))
        for j in range(1, s):
            w = sum(lower[i - 1][k] * upper[k][j - 1] for k in range(m))
            change[i][j] = Fraction(w * (j + 1), j + 2)
    return change


def _invert(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def scramble(table, rng: random.Random):
    """Table of the same algebra over the basis f_j = sum_p P[p][j] e_p."""
    s = len(table)
    change = _random_change_of_basis(rng, s)
    inverse = _invert(change)
    out = []
    for i in range(s):
        row = []
        for j in range(s):
            prod = [Fraction(0)] * s
            for p in range(s):
                a = change[p][i]
                if a == 0:
                    continue
                for q in range(s):
                    b = change[q][j]
                    if b == 0:
                        continue
                    entry = table[p][q]
                    for k in range(s):
                        if entry[k]:
                            prod[k] += a * b * entry[k]
            row.append([sum(inverse[k][m] * prod[m] for m in range(s)) for k in range(s)])
        out.append(row)
    return out


def fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def table_spec(table, labels=None) -> dict:
    s = len(table)
    return {
        "type": "structure_constants",
        "labels": list(labels or [f"e{i}" for i in range(s)]),
        "table": [[[fraction_text(Fraction(x)) for x in entry] for entry in row] for row in table],
    }


def _mul(table, u, v):
    s = len(table)
    out = [Fraction(0)] * s
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    entry = table[i][j]
                    for k in range(s):
                        if entry[k]:
                            out[k] += a * b * entry[k]
    return out


def is_commutative(table) -> bool:
    s = len(table)
    return all(table[i][j] == table[j][i] for i in range(s) for j in range(s))


def is_associative(table) -> bool:
    s = len(table)
    unit = [[Fraction(int(i == k)) for k in range(s)] for i in range(s)]
    for i in range(s):
        for j in range(s):
            for k in range(s):
                left = _mul(table, table[i][j], unit[k])
                right = _mul(table, unit[i], table[j][k])
                if left != right:
                    return False
    return True


def _product_table(a, b):
    """Block-diagonal table of the product algebra A x B."""
    sa, sb = len(a), len(b)
    s = sa + sb
    out = [[[0] * s for _ in range(s)] for _ in range(s)]
    for i in range(sa):
        for j in range(sa):
            for k in range(sa):
                out[i][j][k] = a[i][j][k]
    for i in range(sb):
        for j in range(sb):
            for k in range(sb):
                out[sa + i][sa + j][sa + k] = b[i][j][k]
    return out


def _ideal_table(table):
    """The maximal ideal (basis elements 1..s-1) as an algebra without unit."""
    s = len(table)
    return [[[table[i][j][k] for k in range(1, s)] for j in range(1, s)] for i in range(1, s)]


def _non_commutative(table, rng):
    s = len(table)
    out = [[list(entry) for entry in row] for row in table]
    i, j = sorted(rng.sample(range(1, s), 2))
    out[i][j][rng.randrange(1, s)] += 1
    return out


def _non_associative(table, rng):
    s = len(table)
    for _ in range(100):
        out = [[list(entry) for entry in row] for row in table]
        i, j = rng.randrange(1, s), rng.randrange(1, s)
        k = rng.randrange(1, s)
        out[i][j][k] += 1
        if i != j:
            out[j][i][k] += 1
        if not is_associative([[[Fraction(x) for x in e] for e in row] for row in out]):
            return out
    raise AssertionError("no non-associative perturbation found")


INVALID_KINDS = ("NotCommutative", "NoUnit", "NotAssociative", "NotLocal")


def dense_specs(rng: random.Random) -> list[dict]:
    """One scrambled spec per dense base, plus invalid scrambled tables.

    Valid entries carry the base algebra's invariants (a change of basis
    preserves dim, height, width and r); invalid ones carry the axiom the
    library must name.
    """
    out = []
    for name, (nvars, relations) in DENSE_BASES.items():
        table = monomial_table(nvars, relations)
        out.append(
            {
                "name": f"{name}~",
                "spec": table_spec(scramble(table, rng)),
                "expected": monomial_invariants(nvars, relations),
            }
        )
    def dims_at_most(bound):
        return [
            name
            for name, (nv, rels) in DENSE_BASES.items()
            if len(standard_monomials(nv, rels)) <= bound
        ]

    for kind in INVALID_KINDS:
        # A x R[t]/t^k keeps the product at s <= 8.
        pool = dims_at_most(5 if kind == "NotLocal" else 6)
        nvars, relations = DENSE_BASES[rng.choice(pool)]
        base = monomial_table(nvars, relations)
        if kind == "NotCommutative":
            raw = _non_commutative(base, rng)
        elif kind == "NoUnit":
            raw = _ideal_table(base)
        elif kind == "NotAssociative":
            raw = _non_associative(base, rng)
        else:
            raw = _product_table(base, monomial_table(1, [(rng.choice((2, 3)),)]))
        table = scramble(raw, rng)
        frac = [[[Fraction(x) for x in e] for e in row] for row in table]
        if kind == "NotCommutative" and is_commutative(frac):
            raise AssertionError("scrambled table became commutative")
        if kind == "NotAssociative" and (not is_commutative(frac) or is_associative(frac)):
            raise AssertionError("scrambled table lost its defect")
        out.append({"name": f"bad-{kind}", "spec": table_spec(table), "axiom": kind})
    return out


# ---------------------------------------------------------------- chart inputs


def rational(rng: random.Random, bound: int = 4, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound * den, bound * den), rng.randint(1, den))


def near_point_coords(rng: random.Random, n: int, s: int, kind: str):
    """Base point and nilpotent rows for a chart point in R^n.

    kind is "rational", "float" or "zero" (the zero section: no nilpotent
    part, where every induced field vanishes).
    """
    if kind == "float":
        base = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        nil = [[rng.uniform(-2.0, 2.0) for _ in range(s - 1)] for _ in range(n)]
    else:
        base = [rational(rng) for _ in range(n)]
        if kind == "zero":
            nil = [[Fraction(0)] * (s - 1) for _ in range(n)]
        else:
            nil = [[rational(rng, 2, 4) for _ in range(s - 1)] for _ in range(n)]
    return base, nil


def polynomial_terms(rng: random.Random, n: int, nterms: int, degree: int) -> dict:
    """Random exact polynomial as {exponents: Fraction} with a fixed number
    of terms of total degree <= degree, always including one of full degree."""
    monomials = [
        e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree
    ]
    top = [e for e in monomials if sum(e) == degree]
    chosen = {rng.choice(top)}
    while len(chosen) < nterms:
        chosen.add(rng.choice(monomials))
    terms = {}
    for e in sorted(chosen):
        c = Fraction(0)
        while c == 0:
            c = rational(rng, 3, 4)
        terms[e] = c
    return terms


def polynomial_text(terms: dict, names) -> str:
    pieces = []
    for e, c in sorted(terms.items()):
        mono = "*".join(f"{nm}^{k}" if k > 1 else nm for nm, k in zip(names, e) if k)
        coeff = f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
        body = f"({coeff})" + (f"*{mono}" if mono else "")
        pieces.append(body)
    return " + ".join(pieces) if pieces else "0"


def taylor_partials(terms: dict, n: int, base, order: int) -> dict:
    """Scaled partials d^alpha f(base) / alpha! for |alpha| <= order, as floats.

    For a monomial c x^e the scaled partial is c * prod C(e_i, a_i) base_i^(e_i - a_i).
    """
    out = {}
    for alpha in itertools.product(range(order + 1), repeat=n):
        if sum(alpha) > order:
            continue
        total = Fraction(0)
        for e, c in terms.items():
            if any(a > k for a, k in zip(alpha, e)):
                continue
            term = Fraction(c)
            for a, k, b in zip(alpha, e, base):
                term *= comb(k, a) * Fraction(b) ** (k - a)
            total += term
        out[alpha] = float(total)
    return out


def flow_time(rng: random.Random) -> float:
    t = 0.0
    while abs(t) < 0.05:
        t = rng.uniform(-MAX_FLOW_TIME, MAX_FLOW_TIME)
    return t
