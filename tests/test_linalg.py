"""Exact linear algebra helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import weilkit.linalg as la
from support import nullspace_oracle, rand_fraction, rref_oracle


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity_pivots():
    red, pivots = la.rref(F([[2, 0], [0, 3]]))
    assert red == la.identity(2)
    assert pivots == [0, 1]


def test_rank_with_tolerance_float_path():
    rows = [[1.0, 0.0], [1e-12, 0.0]]
    assert la.rank_with_tolerance(rows, 1e-9) == 1
    assert la.rank_with_tolerance([[1.0, 0.0], [0.0, 1e-6]], 1e-9) == 2
    assert la.rank_with_tolerance([], 1e-9) == 0  # no generators, as on R


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("-inf"), float("nan")])
@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [1.0, 0.0]], []])
def test_rank_refuses_a_negative_or_nan_tolerance(rows, tol):
    # A negative tol took a zero column as a pivot and divided by zero;
    # NaN took no pivot and read rank 0.
    with pytest.raises(ValueError, match="rank tolerance must be non-negative") as exc:
        la.rank_with_tolerance(rows, tol)
    assert repr(tol) in str(exc.value)


def test_rank_exact_path():
    rows = F([[1, 2], [2, 4], [0, 1]])
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


@pytest.mark.parametrize("index", range(len(MATRICES)))
def test_elimination_matches_gauss_jordan(index):
    rows = MATRICES[index]
    ncols = len(rows[0]) if rows else 4
    red, pivots = rref_oracle(rows)
    assert la.rref(rows) == (red, pivots)
    assert la.rank_with_tolerance(rows, 0) == len(pivots)
    reduced = la.back_reduce(la.echelon_form(rows))
    assert sorted(reduced) == pivots
    null = la.null_vectors(reduced, ncols)
    assert len(null) == ncols - len(pivots)
    for vec in null:
        assert all(sum(row[j] * x for j, x in vec.items()) == 0 for row in rows)
    dense = [[vec.get(j, Fraction(0)) for j in range(ncols)] for vec in null]
    assert rref_oracle(dense)[0] == nullspace_oracle(rows, ncols)


def test_exact_rank_of_float_entries():
    rng = random.Random(8)
    for _ in range(20):
        rows = [[rng.choice([0.0, 0.5, 0.1, -2.0, 1e-17, 3.25]) for _ in range(5)] for _ in range(4)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        exact = [[Fraction(x) for x in row] for row in rows]
        assert la.rank_with_tolerance(rows, 0) == len(rref_oracle(exact)[1])
