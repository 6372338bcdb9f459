"""Exact linear algebra helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import weilkit.linalg as la
from support import rand_fraction, rref_oracle


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity_pivots():
    red, pivots = la.rref(F([[2, 0], [0, 3]]))
    assert red == la.identity(2)
    assert pivots == [0, 1]


def test_nullspace_canonical_and_annihilating():
    rows = F([[1, 2, 3], [2, 4, 6]])
    basis = la.nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(r * v for r, v in zip(row, vec)) == 0 for row in rows
        )
    # canonical form: leading ones at increasing positions
    leads = [next(i for i, x in enumerate(v) if x) for v in basis]
    assert leads == sorted(leads)
    assert all(v[leads[i]] == 1 for i, v in enumerate(basis))


def test_nullspace_of_empty_system_is_full():
    assert la.nullspace([], 3) == la.identity(3)


def test_solve_consistent_and_inconsistent():
    rows = F([[1, 1], [1, -1]])
    x = la.solve(rows, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    rows = F([[1, 1], [2, 2]])
    assert la.solve(rows, [Fraction(1), Fraction(3)]) is None


def test_invert_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        mat = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
        try:
            inv = la.invert(mat)
        except ValueError:
            continue
        assert la.mat_mul(mat, inv) == la.identity(3)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        la.invert(F([[1, 2], [2, 4]]))


def test_rank_with_tolerance_float_path():
    rows = [[1.0, 0.0], [1e-12, 0.0]]
    assert la.rank_with_tolerance(rows, 1e-9) == 1
    assert la.rank_with_tolerance([[1.0, 0.0], [0.0, 1e-6]], 1e-9) == 2


def test_rank_exact_path():
    rows = F([[1, 2], [2, 4], [0, 1]])
    assert la.rank(rows) == 2
    assert la.rank_with_tolerance(rows, 0) == 2


# ------------------------------------------- the sparse echelon vs Gauss-Jordan


def _random_matrices(seed: int, count: int = 40) -> list:
    """Rational matrices of rank at most k as products of random n x k and
    k x m factors, square, wide and tall, some with entries zeroed at random
    and some with an added zero or duplicate row; plus the 0 x 4 and 3 x 0
    matrices and a zero matrix."""
    rng = random.Random(seed)
    zero = Fraction(0)
    matrices = [[], [[] for _ in range(3)], [[zero] * 4 for _ in range(3)]]
    for _ in range(count):
        nrows = rng.randint(1, 7)
        ncols = nrows if rng.random() < 0.3 else rng.randint(1, 7)
        k = min(nrows, ncols) if rng.random() < 0.5 else rng.randint(0, min(nrows, ncols))
        left = [[rand_fraction(rng) for _ in range(k)] for _ in range(nrows)]
        right = [[rand_fraction(rng) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum((a * b[j] for a, b in zip(row, right)), zero) for j in range(ncols)]
            for row in left
        ]
        if rng.random() < 0.3:
            rows = [[x if rng.random() < 0.4 else zero for x in row] for row in rows]
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [zero] * ncols)
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        matrices.append(rows)
    return matrices


MATRICES = _random_matrices(5)


def _oracle_nullspace(rows, ncols):
    red, pivots = rref_oracle(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return rref_oracle(basis)[0]


def _oracle_solve(rows, rhs, ncols):
    red, pivots = rref_oracle([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


@pytest.mark.parametrize("index", range(len(MATRICES)))
def test_elimination_matches_gauss_jordan(index):
    rows = MATRICES[index]
    ncols = len(rows[0]) if rows else 4
    red, pivots = rref_oracle(rows)
    assert la.rref(rows) == (red, pivots)
    assert la.rank(rows) == len(pivots)
    assert la.rank_with_tolerance(rows, 0) == len(pivots)
    assert la.nullspace(rows, ncols) == _oracle_nullspace(rows, ncols)
    if not rows:
        return
    rng = random.Random(index)
    consistent = la.mat_vec(rows, [rand_fraction(rng) for _ in range(ncols)])
    for rhs in ([rand_fraction(rng) for _ in rows], consistent):
        x = la.solve(rows, rhs)
        assert x == _oracle_solve(rows, rhs, ncols)
        assert x is None or la.mat_vec(rows, x) == rhs
    assert la.solve(rows, consistent) is not None
    if len(rows) == ncols:
        red, pivots = rref_oracle([row + e for row, e in zip(rows, la.identity(ncols))])
        if pivots[:ncols] != list(range(ncols)):
            with pytest.raises(ValueError):
                la.invert(rows)
        else:
            assert la.invert(rows) == [row[ncols:] for row in red[:ncols]]


def test_exact_rank_of_float_entries():
    rng = random.Random(8)
    for _ in range(20):
        rows = [[rng.choice([0.0, 0.5, 0.1, -2.0, 1e-17, 3.25]) for _ in range(5)] for _ in range(4)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        exact = [[Fraction(x) for x in row] for row in rows]
        assert la.rank_with_tolerance(rows, 0) == len(rref_oracle(exact)[1])
