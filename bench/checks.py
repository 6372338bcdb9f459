"""Output checks that do not reuse the code path under test.

Ranks are recomputed here by float elimination, Leibniz identities are
verified against the benchmark's own multiplication tables, and flows are
checked by flowing back.  Each check returns None when the output is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

FLOW_TOLERANCE = 1e-9
RANK_TOLERANCE = 1e-9


def float_rank(rows, tol: float = RANK_TOLERANCE) -> int:
    """Rank by Gaussian elimination with full pivoting in floats; pivots
    below tol times the largest entry count as zero."""
    m = [[float(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    scale = max((abs(x) for row in m for x in row), default=0.0)
    if scale == 0.0:
        return 0
    threshold = tol * scale
    rank = 0
    ncols = len(m[0])
    while rank < min(len(m), ncols):
        best, bi, bj = threshold, -1, -1
        for i in range(rank, len(m)):
            for j, x in enumerate(m[i]):
                if abs(x) > best:
                    best, bi, bj = abs(x), i, j
        if bi < 0:
            break
        m[rank], m[bi] = m[bi], m[rank]
        pivot_row = m[rank]
        pv = pivot_row[bj]
        for i in range(rank + 1, len(m)):
            f = m[i][bj] / pv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], pivot_row)]
                m[i][bj] = 0.0
        rank += 1
    return rank


def leibniz_ok(table, matrix) -> bool:
    """D(a_i a_j) = D(a_i) a_j + a_i D(a_j) on every basis pair, exactly.

    ``table`` is an integer s x s x s table, ``matrix[k][j]`` the coefficient
    of basis element k in D(a_j).
    """
    s = len(table)
    cols = [[matrix[k][j] for k in range(s)] for j in range(s)]

    def times_basis(vec, j):
        out = [Fraction(0)] * s
        for m, c in enumerate(vec):
            if c:
                entry = table[m][j]
                for p in range(s):
                    if entry[p]:
                        out[p] += c * entry[p]
        return out

    for i in range(s):
        for j in range(i, s):
            lhs = [Fraction(0)] * s
            for k in range(s):
                c = table[i][j][k]
                if c:
                    for p in range(s):
                        lhs[p] += c * cols[k][p]
            a = times_basis(cols[i], j)
            b = times_basis(cols[j], i)
            if any(lhs[p] != a[p] + b[p] for p in range(s)):
                return False
    return True


def close(a, b, tol: float = FLOW_TOLERANCE) -> bool:
    scale = max(1.0, abs(float(a)), abs(float(b)))
    return abs(float(a) - float(b)) <= tol * scale


def finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_json(v) for v in value)
    return True


def parse_report(stdout: str):
    """Strict JSON parse: NaN and Infinity tokens are rejected."""

    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(stdout, parse_constant=reject)


def expect_summary(report: dict, expected: dict) -> str | None:
    summary = report.get("algebra", {})
    for key in ("dim", "height", "width"):
        if summary.get(key) != expected[key]:
            return f"{key} {summary.get(key)} != expected {expected[key]}"
    return None
