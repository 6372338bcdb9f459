"""The product kernel against the term-by-term loop on random coordinates.

A property test with hypothesis; it is skipped where hypothesis is not
installed, so that the rest of the suite never depends on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from weilkit import monomial_quotient_algebra, truncated_polynomial_algebra
from weilkit.algebra import _sparse_products, mul
from support import mul_oracle, scrambled_table, typed

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COORDINATES = st.one_of(
    st.fractions(max_denominator=10**12),
    st.integers(-(10**20), 10**20),
    st.floats(-1e6, 1e6),
    st.sampled_from([0, Fraction(0), 0.0, -0.0]),
)

# A monomial table (denominator 1) and two raw tables over a random basis,
# whose constants are fractions.
TABLES = {
    "truncated-2-2": truncated_polynomial_algebra(2, 2).products,
    "raw-m3-41": _sparse_products(
        scrambled_table(truncated_polynomial_algebra(2, 2), random.Random(41))
    ),
    "raw-x3-y2-xy2-7": _sparse_products(
        scrambled_table(
            monomial_quotient_algebra(["x", "y"], [(3, 0), (0, 2), (1, 2)]), random.Random(7)
        )
    ),
}


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(st.sampled_from(sorted(TABLES)), st.data())
def test_mul_matches_the_fraction_loop_on_random_coordinates(name, data):
    products = TABLES[name]
    assert products.numerators is not None
    vectors = st.lists(COORDINATES, min_size=len(products), max_size=len(products))
    u, v = data.draw(vectors), data.draw(vectors)
    assert typed(mul(products, u, v, Fraction(0))) == typed(mul_oracle(products, u, v, Fraction(0)))
