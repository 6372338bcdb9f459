"""Exact linear algebra over the rationals, on integer rows.

Sparse rows are dicts from column to non-zero entry; dense matrices are
row-major lists of lists.  One incremental sparse echelon,
:func:`eliminate`, serves every exact system: callers feed it sparse rows,
with a right-hand side or tracking columns at and beyond a column
``limit`` where they need one, and read the results off the rows of
:func:`back_reduce` and :func:`null_vectors`.  It is fraction-free in the
manner of Bareiss (Math. Comp. 22, 1968): a row enters as integers over
one common denominator (:func:`integer_row`, which also scales the
solvers' other exact rows), each reduction cross-multiplies by the two
leading entries and divides out the row's content, and the echelon holds
primitive integer rows, so no ``Fraction`` is formed inside the
elimination.  A reduced row is a non-zero multiple of the row that
elimination over ``Fraction`` with leading ones would give, so the rank
and the spans are the same, and ``Fraction``s are built only where a
caller reads values: a remainder left by :func:`eliminate`, and the
reduced row echelon form of :func:`back_reduce`.  Besides the exact
echelon, the module holds only the float rank, :func:`rank_with_tolerance`,
for points with float coordinates; float flows are summed, applied and
composed on their own sparse rows in ``derivations``.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def add_scaled(target: dict, c: Fraction, form: dict) -> None:
    """target += c * form for sparse rows (column -> non-zero Fraction)."""
    for x, v in form.items():
        y = target.get(x, 0) + c * v
        if y:
            target[x] = y
        else:
            del target[x]


def eliminate(echelon: dict, row: dict, limit: int) -> bool:
    """Reduce the sparse ``row`` against ``echelon`` (leading column ->
    primitive integer row with a positive entry there) over the columns
    below ``limit``.

    ``row`` holds ints, Fractions or floats, each taken exactly.  When a
    column below ``limit`` survives, the reduced row joins the echelon as a
    primitive integer row and the result is True.  Otherwise ``row`` is
    left, in place, with only its columns >= ``limit``, as the Fractions
    that reduction against pivot rows with leading ones leaves there, and
    the result is False.
    """
    work, scale = integer_row(row)
    num, den = scale, 1  # work = num/den * row, reduced
    while work:
        lead = min(work)
        if lead >= limit:
            row.clear()
            row.update((x, Fraction(v * den, num)) for x, v in work.items())
            return False
        pivot = echelon.get(lead)
        if pivot is None:
            content = math.gcd(*work.values())
            if work[lead] < 0:
                content = -content
            echelon[lead] = {x: v // content for x, v in work.items()}
            return True
        factor, content = _clear(work, pivot, lead)
        num *= factor
        den *= content
    row.clear()
    return False


def integer_row(row: dict) -> tuple[dict, int]:
    """(integer row, d): the sparse ``row`` of ints, Fractions or floats
    times d, the lcm of its denominators, with no cap on d: the one
    scaling to integers of the exact solvers, which must take every row."""
    if all(type(v) is int for v in row.values()):
        return dict(row), 1
    numerators, den = over_lcm([v.as_integer_ratio() for v in row.values()])
    return dict(zip(row, numerators)), den


def over_lcm(ratios: list[tuple[int, int]], cap=math.inf) -> tuple[list[int], int] | None:
    """The values of ``ratios``, pairs (n, d) as ``as_integer_ratio`` gives
    them, as (numerators, denominator) over the lcm of the d's.  None as
    soon as that lcm takes more than ``cap`` bits."""
    den = 1
    for _, d in ratios:
        if den % d:
            den = math.lcm(den, d)
            if den.bit_length() > cap:
                return None
    return [n * (den // d) for n, d in ratios], den


def _clear(row: dict, pivot: dict, x) -> tuple[int, int]:
    """Clear column ``x`` of the integer ``row`` with the integer ``pivot``
    (positive at ``x``), in place: row becomes (a*row - b*pivot) / content
    for the smallest a > 0 that makes b an integer.  Returns (a, content)."""
    a, b = pivot[x], row[x]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in pivot.items():
        y = row.get(k, 0) - b * v
        if y:
            row[k] = y
        else:
            del row[k]
    content = math.gcd(*row.values())
    if content > 1:
        for k in row:
            row[k] //= content
    return a, content


def echelon_form(rows: Matrix) -> dict:
    """The sparse integer echelon of dense ``rows`` built by
    :func:`eliminate` over all their columns.

    The rows are eliminated sparsest first.  The span, and so the rank and
    the reduced form, do not depend on the order; but pivot rows taken
    from sparse rows stay sparse, while a dense row taken early fills in
    every row reduced after it (on the distribution generators of
    R[x1..x5]/m^4 at n = 16, about 180 times the time).
    """
    echelon: dict = {}
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    for row in sorted(sparse, key=len):
        eliminate(echelon, row, len(rows[0]))
    return echelon


def back_reduce(echelon: dict) -> dict:
    """The reduced row echelon form of an integer ``echelon``, as a new
    dict in the same order: leading column -> row of Fractions with 1
    there and 0 at every other leading column.

    An echelon row is zero left of its leading column, so rows are reduced
    from the last pivot down: a reduced row subtracted from an earlier row
    is already zero at every other pivot, and each entry at a later pivot
    is cleared by one subtraction.  The rows stay integers until each is
    divided by its leading entry at the end.
    """
    reduced: dict = {}
    for lead in sorted(echelon, reverse=True):
        row = dict(echelon[lead])
        for pivot in [x for x in row if x != lead and x in echelon]:
            _clear(row, reduced[pivot], pivot)
        reduced[lead] = row
    return {
        lead: {x: Fraction(v, reduced[lead][lead]) for x, v in reduced[lead].items()}
        for lead in echelon
    }


def null_vectors(reduced: dict, ncols: int) -> list[dict]:
    """A basis of the vectors in ``ncols`` columns that every row of a
    reduced echelon (:func:`back_reduce`) annihilates, as sparse rows: one
    per free column f, with 1 at f and -row[f] at the pivot of each row."""
    at_pivots: dict = {}
    for lead, row in reduced.items():
        for free, x in row.items():
            if free != lead:
                at_pivots.setdefault(free, {})[lead] = -x
    return [{f: _ONE, **at_pivots.get(f, {})} for f in range(ncols) if f not in reduced]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (reduced rows, pivot columns);
    the rows beyond the rank are zero.  The dense front door of
    :func:`back_reduce`: nothing in the package calls it, the tests and the
    benchmark's spans do."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = back_reduce(echelon_form(rows))
    pivots = sorted(reduced)
    dense = [[reduced[p].get(j, _ZERO) for j in range(ncols)] for p in pivots]
    return dense + [[_ZERO] * ncols for _ in range(len(rows) - len(pivots))], pivots


def rank_with_tolerance(rows: list[list[float]], tol: float) -> int:
    """Rank by float Gaussian elimination with partial pivoting; pivots of
    absolute value <= tol count as zero.  With tol = 0 it is the exact rank
    of the entries (ints, Fractions or floats, each taken exactly).  With
    tol > 0 the entries are taken as their float(), on a copy, and each
    row below a pivot becomes a - f * b on the columns from the pivot's
    on, one slice at a time.  A negative or NaN ``tol`` raises ValueError."""
    if not tol >= 0:
        raise ValueError(f"rank tolerance must be non-negative, got {tol!r}")
    if tol == 0:
        return len(echelon_form(rows))
    m = [list(map(float, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rk = 0
    for col in range(ncols):
        best, best_val = None, tol
        for i in range(rk, len(m)):
            if abs(m[i][col]) > best_val:
                best, best_val = i, abs(m[i][col])
        if best is None:
            continue
        m[rk], m[best] = m[best], m[rk]
        pv = m[rk][col]
        pivot = m[rk][col:]
        for row in m[rk + 1 :]:
            f = row[col] / pv
            if f != 0.0:
                row[col:] = [a - f * b for a, b in zip(row[col:], pivot)]
        rk += 1
        if rk == len(m):
            break
    return rk
