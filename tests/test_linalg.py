"""Exact linear algebra in ``tautring._kernel``: ranks and the canonical RREF.

Every rank and every canonical form here comes from the engine's one
kernel (``SpanReducer`` and its ``rref()``, ``_normalize`` and
``_integer_rank``), which takes integer rows only, and is checked against
Fraction Gauss-Jordan references from ``test_algebra`` that share no code
with it.
"""

import random
from fractions import Fraction

from tautring._kernel import SpanReducer, _integer_rank, _normalize
from test_algebra import _fraction_kernel, _fraction_rank, _fraction_rref


def kernel_rref(rows):
    """Canonical integer RREF of dense integer rows, through the kernel:
    ``{pivot column: (cols, coeffs)}``."""
    reducer = SpanReducer(len(rows[0]) if rows else 0)
    for row in rows:
        cols = [j for j, v in enumerate(row) if v]
        if cols:
            reducer.insert(cols, [row[j] for j in cols])
    return reducer.rref()[0]


def dense(rref, ncols):
    """Dense rows of an integer RREF, in pivot order."""
    out = []
    for lead in sorted(rref):
        row = [0] * ncols
        for col, c in zip(*rref[lead]):
            row[col] = c
        out.append(row)
    return out


def test_proportional_rows_have_rank_one():
    assert _integer_rank([[1, 2], [2, 4]]) == 1
    assert kernel_rref([[1, 2], [2, 4]]) == {0: ([0, 1], [1, 2])}


def test_permutation_matrix_has_full_rank():
    assert _integer_rank([[0, 1], [1, 0]]) == 2
    assert kernel_rref([[0, 1], [1, 0]]) == {0: ([0], [1]), 1: ([1], [1])}


def test_single_negative_entry():
    assert _integer_rank([[-4]]) == 1
    assert kernel_rref([[-4]]) == {0: ([0], [1])}


def test_empty_matrix_has_rank_zero():
    assert _integer_rank([]) == 0
    assert _integer_rank([[0] * 4 for _ in range(3)]) == 0
    assert kernel_rref([[0] * 4 for _ in range(3)]) == {}


def test_identity_kernel_is_empty():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _integer_rank(identity) == 3
    assert _fraction_kernel(identity) == []


def test_zero_matrix_kernel_is_everything():
    zero = [[0, 0, 0], [0, 0, 0]]
    assert _integer_rank(zero) == 0
    assert len(_fraction_kernel(zero)) == 3


def test_rows_with_content_are_exact():
    coeffs = [-4, 2, -24]
    _normalize(coeffs)
    assert coeffs == [2, -1, 12]  # content and sign stripped
    m = [[6, 3], [-4, -2]]
    assert _integer_rank(m) == _fraction_rank(m) == 1
    assert kernel_rref(m) == {0: ([0, 1], [2, 1])}


def _random_matrix(rng, rows, cols, density=0.4):
    return [
        [
            rng.randrange(-6, 7) * rng.randrange(1, 4)
            if rng.random() < density else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def test_rank_equals_rank_of_transpose():
    rng = random.Random(1311)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        rank = _fraction_rank(m)
        assert _integer_rank(m) == rank
        assert _integer_rank([list(col) for col in zip(*m)]) == rank


def test_kernel_vectors_annihilate_exactly():
    # rank-nullity between the engine's rank and the reference nullspace
    rng = random.Random(2460)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        kernel = _fraction_kernel(m)
        assert _integer_rank(m) + len(kernel) == len(m[0])
        for vec in kernel:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in m)


def test_echelonization_is_idempotent():
    rng = random.Random(777)
    for _ in range(15):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        first = kernel_rref(m)
        assert len(first) == _fraction_rank(m)
        assert kernel_rref(dense(first, len(m[0]))) == first  # a fixpoint


def test_dense_matrices_reach_the_fraction_rank_and_canonical_form():
    # Dense rows fill in quickly under fraction-free elimination; the rank
    # must still match Fraction Gauss-Jordan, and the RREF must not depend
    # on the order of the rows: scaled to leading entry 1 it is the
    # Fraction RREF itself.
    rng = random.Random(31415)
    for _ in range(10):
        m = _random_matrix(rng, 6, 6, density=0.9)
        rref = kernel_rref(m)
        assert len(rref) == _fraction_rank(m)
        assert kernel_rref(m[::-1]) == rref
        shuffled = list(m)
        rng.shuffle(shuffled)
        assert kernel_rref(shuffled) == rref
        reference, pivots = _fraction_rref(m)
        assert sorted(rref) == pivots
        assert [
            [Fraction(v, row[lead]) for v in row]
            for lead, row in zip(sorted(rref), dense(rref, 6))
        ] == reference


def test_row_space_is_preserved():
    rng = random.Random(9009)
    for _ in range(10):
        m = _random_matrix(rng, 5, 7)
        rref = dense(kernel_rref(m), 7)
        # every original row lies in the span of the RREF rows and back
        assert len(rref) == _fraction_rank(m) == _fraction_rank(m + rref)
