"""Shared test helpers: independent oracles and random rational data.

The oracles deliberately avoid the library's solvers: derivation
dimensions are recomputed from a float constraint matrix via numpy's SVD
rank, the exact derivation basis from the full s^2-unknown Leibniz system
rather than from generators, and matrix exponentials by direct series
summation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import weilkit.linalg as linalg
from weilkit import Polynomial, WeilAlgebra, from_structure_constants


# ----------------------------------------------------------------- oracles


def derivation_dim_oracle(algebra: WeilAlgebra) -> int:
    """Brute-force nullspace dimension of the Leibniz system.

    Builds the full constraint matrix (all ordered basis pairs plus the
    unit condition) with float entries and counts solutions as
    s^2 - rank, rank taken by numpy's SVD.  Independent of the exact
    rational elimination used by the library.
    """
    s = algebra.dim
    table = [[[float(x) for x in entry] for entry in row] for row in algebra.table]
    rows = []
    for p in range(s):
        row = [0.0] * (s * s)
        row[p * s] = 1.0
        rows.append(row)
    for i in range(s):
        for j in range(s):
            for p in range(s):
                row = [0.0] * (s * s)
                for k in range(s):
                    row[p * s + k] += table[i][j][k]
                for m in range(s):
                    row[m * s + i] -= table[m][j][p]
                    row[m * s + j] -= table[m][i][p]
                rows.append(row)
    matrix = np.array(rows)
    return s * s - int(np.linalg.matrix_rank(matrix))


def derivation_basis_oracle(algebra: WeilAlgebra) -> list:
    """Canonical derivation basis from the full Leibniz system, exactly.

    The unknowns are all s^2 matrix entries; the rows are D(1) = 0 and the
    Leibniz identity on every basis pair i <= j.  The nullspace is returned
    as matrices in reduced row echelon form over row-major entries, and for
    a two-dimensional algebra the generator is rescaled to send the
    nilpotent basis element to minus itself: the output contract of
    ``derivation_basis``, computed without its generator walk.
    """
    s = algebra.dim
    table = algebra.table
    n_unknowns = s * s
    rows = []
    for p in range(s):
        row = [Fraction(0)] * n_unknowns
        row[p * s] = Fraction(1)  # D(1) = 0
        rows.append(row)
    for i in range(1, s):
        for j in range(i, s):
            for p in range(s):
                row = [Fraction(0)] * n_unknowns
                for k in range(s):
                    row[p * s + k] += table[i][j][k]
                for m in range(s):
                    # -(D(a_i) a_j)_p and -(a_i D(a_j))_p
                    row[m * s + i] -= table[m][j][p]
                    row[m * s + j] -= table[m][i][p]
                if any(row):
                    rows.append(row)
    matrices = [
        tuple(tuple(vec[p * s : (p + 1) * s]) for p in range(s))
        for vec in linalg.nullspace(rows, n_unknowns)
    ]
    if s == 2 and len(matrices) == 1 and matrices[0][1][1] > 0:
        matrices = [tuple(tuple(-x for x in row) for row in matrices[0])]
    return matrices


def expm_series_oracle(matrix, terms: int = 60):
    """Plain truncated series sum of the matrix exponential."""
    m = np.array([[float(x) for x in row] for row in matrix])
    out = np.eye(len(m))
    power = np.eye(len(m))
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ m
        factorial *= k
        out = out + power / factorial
    return out


def raw_table_mul(table, u, v):
    """Product coordinates straight from a raw structure-constant table."""
    s = len(table)
    out = [Fraction(0)] * s
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            for k in range(s):
                out[k] += a * b * Fraction(table[i][j][k])
    return out


# ------------------------------------------------------- random rational data


def rand_fraction(rng: random.Random, span: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_element(rng: random.Random, algebra: WeilAlgebra):
    return algebra.element([rand_fraction(rng) for _ in range(algebra.dim)])


def rand_nilpotent(rng: random.Random, algebra: WeilAlgebra):
    coeffs = [Fraction(0)] + [rand_fraction(rng) for _ in range(algebra.dim - 1)]
    return algebra.element(coeffs)


def rand_near_point(rng: random.Random, algebra: WeilAlgebra, n: int):
    from weilkit import make_near_point

    base = [rand_fraction(rng) for _ in range(n)]
    nilparts = [rand_nilpotent(rng, algebra) for _ in range(n)]
    return make_near_point(algebra, base, nilparts)


def rand_poly(rng: random.Random, nvars: int, degree: int = 3, terms: int = 4) -> Polynomial:
    data = {}
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(nvars)] += 1
        data[tuple(exp)] = data.get(tuple(exp), Fraction(0)) + rand_fraction(rng)
    return Polynomial(nvars, data)


def rand_invertible(rng: random.Random, size: int):
    """Random invertible rational matrix (entries small integers)."""
    while True:
        mat = [
            [Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)
        ]
        try:
            linalg.invert([row[:] for row in mat])
            return mat
        except ValueError:
            continue


def scrambled(algebra: WeilAlgebra, rng: random.Random) -> WeilAlgebra:
    """The same algebra as a structure-constants table over a random basis,
    so that normalisation has to find the unit and relabel."""
    s = algebra.dim
    change = rand_invertible(rng, s)
    inverse = linalg.invert([row[:] for row in change])
    columns = [[change[p][i] for p in range(s)] for i in range(s)]
    table = [
        [linalg.mat_vec(inverse, raw_table_mul(algebra.table, columns[i], columns[j])) for j in range(s)]
        for i in range(s)
    ]
    return from_structure_constants([f"f{i}" for i in range(s)], table)
