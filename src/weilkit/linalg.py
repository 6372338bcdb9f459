"""Exact linear algebra over ``fractions.Fraction``.

Dense matrices are row-major lists of lists, and everything on them is
straightforward O(n^3) elimination; the systems produced elsewhere in this
package are small (a few hundred rows at most), so exactness beats
cleverness.  Sparse rows are dicts from column to non-zero entry; one
incremental echelon, :func:`eliminate`, serves every sparse system.
"""

from __future__ import annotations

from fractions import Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[_ZERO] * cols for _ in range(rows)]


def mat_vec(a: Matrix, v: list) -> list:
    return [sum((row[j] * v[j] for j in range(len(v)) if row[j]), _ZERO) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0])
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                if brow[j]:
                    orow[j] += aik * brow[j]
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def add_scaled(target: dict, c: Fraction, form: dict) -> None:
    """target += c * form for sparse rows (column -> non-zero Fraction)."""
    for x, v in form.items():
        y = target.get(x, 0) + c * v
        if y:
            target[x] = y
        else:
            del target[x]


def eliminate(echelon: dict, row: dict, limit: int) -> bool:
    """Reduce the sparse ``row`` in place against ``echelon`` (leading
    column -> row with a leading 1 there) over the columns below ``limit``.

    When a column below ``limit`` survives, the normalised row joins the
    echelon and the result is True; otherwise ``row`` keeps only its
    columns >= ``limit`` and the result is False.
    """
    while row:
        lead = min(row)
        if lead >= limit:
            return False
        pivot = echelon.get(lead)
        if pivot is None:
            scale = 1 / row[lead]
            echelon[lead] = {x: v * scale for x, v in row.items()}
            return True
        add_scaled(row, -row[lead], pivot)
    return False


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (reduced rows, pivot columns)."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][col]
            if f == 0:
                continue
            ri, rr = m[i], m[r]
            for j in range(col, ncols):
                if rr[j]:
                    ri[j] -= f * rr[j]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[Vector]:
    """Canonical basis of the right nullspace of a matrix.

    The returned basis is itself in reduced row echelon form, hence unique
    for a given solution space: each vector leads with 1 in a column where
    every other basis vector vanishes, and leading columns increase.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][f]
        basis.append(vec)
    if not basis:
        return []
    canon, _ = rref(basis)
    return canon


def solve(rows: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of ``rows @ x = rhs`` (free variables set to 0),
    or None when the system is inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
    x = [_ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def invert(mat: Matrix) -> Matrix:
    n = len(mat)
    aug = [list(row) + ident_row for row, ident_row in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def rank_with_tolerance(rows: list[list[float]], tol: float) -> int:
    """Rank by float Gaussian elimination with partial pivoting; pivots of
    absolute value <= tol count as zero.  With tol = 0 and Fraction entries
    this degenerates to the exact rank."""
    if tol == 0:
        return rank([[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in rows])
    m = [[float(x) for x in row] for row in rows]
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
        for i in range(rk + 1, len(m)):
            f = m[i][col] / pv
            if f != 0.0:
                for j in range(col, ncols):
                    m[i][j] -= f * m[rk][j]
        rk += 1
        if rk == len(m):
            break
    return rk
