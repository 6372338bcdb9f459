"""Differential evidence: digests of what the verifier and the solver give
on a fixed corpus of tables.

A change to ``from_structure_constants``, ``derivation_basis`` or
``lie_structure`` that keeps their results keeps these digests.  Each case
is serialised canonically, every rational as "p/q":

- the verifier's verdict on a raw table: the error class and message, or
  the normalised labels, sparse products, height and width;
- the solver's result on an algebra: its labels and products, the sparse
  columns of each ``derivation_basis`` row and the non-zero
  ``lie_structure`` brackets.

The tables are the ``ORACLE_CORPUS`` algebras, scrambled copies of those
up to s = 15, the corpus tables up to s = 8 rebased, with the unit moved
and perturbed as in ``test_algebra``, and products A x B of small
algebras and fields.  Pin a new digest only for a change of result that
is meant.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from support import (
    ORACLE_CORPUS,
    block_product_table,
    moved_unit_table,
    rebased_table,
    scrambled,
)
from weilkit import AlgebraAxiomError, derivation_basis, from_structure_constants, lie_structure


def _q(c) -> str:
    return f"{c.numerator}/{c.denominator}"


def _products(A) -> list:
    return [[[(k, _q(c)) for k, c in entry] for entry in row] for row in A.products]


def _verdict(table) -> tuple:
    labels = [f"a{i}" for i in range(len(table))]
    try:
        A = from_structure_constants(labels, table)
    except AlgebraAxiomError as exc:
        return type(exc).__name__, str(exc)
    return A.labels, _products(A), A.height, A.width


def _solution(A) -> tuple:
    basis = derivation_basis(A)
    rows = [[(q, p, _q(c)) for q, column in enumerate(d.columns) for p, c in sorted(column.items())] for d in basis]
    brackets = lie_structure(basis).brackets
    constants = [(i, j, [(k, _q(c)) for k, c in sorted(brackets[i, j].items())]) for i, j in sorted(brackets)]
    return A.labels, _products(A), rows, constants


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def _solver_records(name) -> list:
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    records = [_solution(A)]
    if A.dim <= 15:
        records.append(_solution(scrambled(A, random.Random(41))))
    return records


def _verifier_records(name) -> list:
    # The table, rebased, with the unit moved inside the basis, and with
    # one symmetric entry of m * m perturbed, as given and rebased.
    build, args = ORACLE_CORPUS[name]
    A = build(*args)
    s = A.dim
    table = [[list(entry) for entry in row] for row in A.table]
    basis_rng = random.Random(1000 + s)
    tables = [table, rebased_table(table, basis_rng)]
    if s > 2:
        tables.append(moved_unit_table(table, s // 2))
    rng = random.Random(s)
    for _ in range(3 if s > 1 else 0):
        i, j, k = rng.randrange(1, s), rng.randrange(1, s), rng.randrange(s)
        bad = [[list(entry) for entry in row] for row in table]
        bad[i][j][k] += 1
        if i != j:
            bad[j][i][k] += 1
        tables += [bad, rebased_table(bad, basis_rng)]
    return [_verdict(t) for t in tables]


def _factor_tables() -> dict:
    """The corpus algebras up to s = 4 and the fields C and Q(sqrt 2)."""
    factors = {
        "C": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
        "Q(sqrt 2)": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]],
    }
    for name, (build, args) in sorted(ORACLE_CORPUS.items()):
        A = build(*args)
        if A.dim <= 4:
            factors[name] = A.table
    return factors


SOLVER_DIGESTS = {
    "quotient-x2": "9e4aaa12b3a3dadcea2819f729f8d217c9f5d45a44287356c377d582467e4b2d",
    "quotient-x2-y2-z2": "f3940d0ed99f13b2b28e561c51d4ee36ddf490c895f4ad3fa481a3be3f7728fd",
    "quotient-x2-y3": "330f238431cde9e0a5b58b700f8d20f4edbf0a87da165280719fff59e3ec8972",
    "quotient-x2-y3-xy": "c7eb4b14589062784fb5186c1f51472078a9b3ef3175959965ab2d56092e979a",
    "quotient-x3-y2-xy2": "81194d2de3281bc8e965f8083fed07163cd90b479f2560301903997810474a65",
    "quotient-x3-y3-xy2": "820bd9d6f24a836a72a4de168b67f0ea065daa5861d486c55af6ad46b90a0f15",
    "quotient-x4-y2": "5478b9cd2510cad698b424fd09a0293b6ff0429224b9018416368aeae0b2d6ef",
    "scrambled-dual-3": "338c58821432377dd28e52fa699a5898514e4a236a984f1f9da9e220be7b5e59",
    "scrambled-m3-41": "663c69051502919af757ae4ac3242fe40ba06aa12d6769fcd1ca0c7c30b39f6a",
    "scrambled-x2-y2-z2-11": "f92ce17d5e0dc3ebbfc8182c27114648fed06ed2f581712b2677e0d5392aa0de",
    "scrambled-x3-y2-xy2-7": "95cbf80527dba93cea91dd7060b53bddd24971c66002966fa2836cb76b26e15e",
    "scrambled-x5-5": "7693425c30d9be1214dafa486f36ff402f56f23370336ffe2ed0f103131180e1",
    "truncated-1-0": "7207eeede467d298b9f31511d46696314095a88a325c0b354cf2e168d77518f5",
    "truncated-1-1": "9e4aaa12b3a3dadcea2819f729f8d217c9f5d45a44287356c377d582467e4b2d",
    "truncated-1-14": "59f8b577a615f23e8ed6473543b9e943c28410d6b63faaa7e1cdbec58ceef4f5",
    "truncated-1-2": "7948784545acbb0a412a0e111e0aa3784abd77bef954a75d0e1be5c97dffa7c5",
    "truncated-1-3": "0cf3a154ed5672e0c03a70e5122f114e42b730a4407849df752402b93fe7ee75",
    "truncated-1-5": "bad08d18f0d28e62c976e7158bc7bb94f1cee05f08e45c1e5252bf166249b93e",
    "truncated-1-9": "9075040a27330422560fb80f99ad8aaa06050f6253163c7a43ab15474dd788e6",
    "truncated-2-1": "7c8d887d243ad22adbaed15f3a55067c71529d983b5be1c42f6abb0260788de9",
    "truncated-2-2": "dc56c07bf8951e511cf3e930a526a054515c6c814b17c6e8e22eac163142ac72",
    "truncated-2-3": "dc873478b08dc662ecf536b2ca5108f489c441bcbd14b2fa7ba492d01864c1a1",
    "truncated-2-4": "1745a856d8013de01e43570a2dfcdb2bcd3b8fea116dc8a24a51a446bb1ef026",
    "truncated-3-1": "3485f900bb6abb7fc8d8634dd63b9ea877a285db2b69bc7a3486a95f6e124fa4",
    "truncated-3-2": "f898c83a231357b433baa4642c89209d229f1c1085582224e3dc5bfd545cf094",
    "truncated-3-3": "b9b1ee0fcdf2e6c85fdd2c8244d20e05558f60542bcf61f2d41adcbf03d36289",
    "truncated-4-1": "0d4a2dc2254bb587253fd894117b69393cb499cd3e899f5235d7b3e023d0d25d",
    "truncated-4-2": "de84a5fccbf12385224c22d9a4e03b36de1f4ca583c89949df9819920dc9f26c",
    "truncated-5-1": "2c2fefafda7438c81b5ba4375db325af9b44a791b56960778c66663629cbe79b",
    "truncated-8-1": "09e2696322501137091118331779d8d1e99ce7d1c84843d31d1875bf274b1368",
}
VERIFIER_DIGESTS = {
    "quotient-x2": "64cd0665c35ac3909b09143edee70b4a076c214920e3ae201c01a94bd2837ef3",
    "quotient-x2-y2-z2": "31d0acf53a721f0a078dc5f8e1c79041db88fac3493e96fd6f00c5241f6bc5ef",
    "quotient-x2-y3": "cab368a86fd1cafe56bbc57e0e36ce9005b5e4fc974a6f1d326625029f063459",
    "quotient-x2-y3-xy": "4fbdc1ec94a84d689472d6485d95a60698578d4a39963c1d0986be62030919eb",
    "quotient-x3-y2-xy2": "33f7de3659ee27fa9b5a9ee30e80789975a76e1d13217c31b185b18c237d3637",
    "quotient-x3-y3-xy2": "535f7615e8ed3c974a74f36e300c8b5757fa1a788fc4c2da115b6130ad805659",
    "quotient-x4-y2": "eed7d41b4f3c9f249ad27d58f6752fea6f857844dad5cf98ae51825dd67922c6",
    "scrambled-dual-3": "64cd0665c35ac3909b09143edee70b4a076c214920e3ae201c01a94bd2837ef3",
    "scrambled-m3-41": "5e5c74da4cdcd548c41440fc5e621ffaeee3e1894e4c32d846f8c1a8d82f6c06",
    "scrambled-x2-y2-z2-11": "38f1fe432a79ed6f33a2e26eb2fed22723be8e8006e20d471427ed1cf764a4fa",
    "scrambled-x3-y2-xy2-7": "93da94cf7818764ba3b54223c4c9ae4f1ea6f4fe7c342d14d7ec06cf8ddd00c5",
    "scrambled-x5-5": "5e699c1918c97386dbdf2c357fa2cb8c38abb2f27b61ba21ab4c750c883e9cec",
    "truncated-1-0": "ea1f19da8ed9ded72698af2222774116d77ddd5d566e63b95743b95e0bd3358a",
    "truncated-1-1": "64cd0665c35ac3909b09143edee70b4a076c214920e3ae201c01a94bd2837ef3",
    "truncated-1-2": "4df1bf2a20c261e298fbfcddddfb876b706e5aa42d4717a571ae8911ee8ec695",
    "truncated-1-3": "1f4a45b970364be86b741e90c00720d592dcfd71820dfcf8046258006195b392",
    "truncated-1-5": "44cf071e52512466bfbe35a81d1f98ac8eb0d33597f8be22c786c0660fe125ea",
    "truncated-2-1": "c7ecec5c5a2b9ba3205f57d43345d86b70254df274f0df5324a00dfc87b469a5",
    "truncated-2-2": "c530d966f4843e4f62fe058e79bb94e62dc6da6b2f8130c67b3188b92b8618d9",
    "truncated-3-1": "b7a7abf1f155dbc7ed5278da2373e02d76732b449cae2341438864b6790eef15",
    "truncated-4-1": "2bb1b5da10261e1588eebcb10d3766894abfc9879637ea45a3f09dbeda33f7c4",
    "truncated-5-1": "f0da02aae1ac37bb267ed7072ea4c90b44090df892e70560ada9c71f2d5e33fe",
}
PRODUCTS_DIGEST = "78e1d0f6cf0c426630003a887225b87c1c06b3e6f9e1c3db1debda0e8765effe"


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_solver_results_match_their_digests(name):
    assert _digest(_solver_records(name)) == SOLVER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VERIFIER_DIGESTS))
def test_verifier_verdicts_match_their_digests(name):
    assert _digest(_verifier_records(name)) == VERIFIER_DIGESTS[name]


def test_verifier_verdicts_on_products_match_their_digest():
    # A x B is never local; its rebased copy hides the blocks.
    factors = _factor_tables()
    records = []
    for a, b in itertools.combinations_with_replacement(sorted(factors), 2):
        table = block_product_table(factors[a], factors[b])
        records += [_verdict(table), _verdict(rebased_table(table, random.Random(len(table))))]
    assert _digest(records) == PRODUCTS_DIGEST
