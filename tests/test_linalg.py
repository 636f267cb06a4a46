"""Exact sparse linear algebra: echelonization, rank, kernel."""

import random
from fractions import Fraction

from tautring.linalg import (
    SparseMatrix,
    echelonize,
    rank_and_kernel,
)
from test_algebra import _fraction_rank


def dense(rows):
    return SparseMatrix.from_rows(rows)


def test_proportional_rows_have_rank_one():
    assert echelonize(dense([[1, 2], [2, 4]])).rank == 1


def test_permutation_matrix_has_full_rank():
    assert echelonize(dense([[0, 1], [1, 0]])).rank == 2


def test_single_negative_entry():
    assert echelonize(dense([[-4]])).rank == 1


def test_empty_matrix_has_rank_zero():
    assert echelonize(SparseMatrix(0, 0, {})).rank == 0
    assert echelonize(SparseMatrix(3, 4, {})).rank == 0


def test_identity_kernel_is_empty():
    rank, kernel = rank_and_kernel(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rank == 3
    assert kernel == []


def test_zero_matrix_kernel_is_everything():
    rank, kernel = rank_and_kernel(SparseMatrix(2, 3, {}))
    assert rank == 0
    assert len(kernel) == 3


def test_rational_entries_are_exact():
    m = dense([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]])
    assert echelonize(m).rank == 1


def _random_matrix(rng, rows, cols, density=0.4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                value = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                if value:
                    entries[(i, j)] = value
    return SparseMatrix(rows, cols, entries)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(1311)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert echelonize(m).rank == echelonize(m.transpose()).rank


def test_kernel_vectors_annihilate_exactly():
    rng = random.Random(2460)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == m.cols
        for vec in kernel:
            assert all(v == 0 for v in m.mul_vector(vec))


def test_echelonization_is_idempotent():
    rng = random.Random(777)
    for _ in range(15):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        first = echelonize(m)
        second = echelonize(first.echelon)
        assert second.rank == first.rank
        assert second.echelon == first.echelon  # canonical form is a fixpoint


def test_dense_matrices_reach_the_fraction_rank_and_canonical_form():
    # Dense rows fill in quickly under fraction-free elimination; the rank
    # must still match Fraction Gauss-Jordan, and the RREF must not depend
    # on the order of the rows.
    rng = random.Random(31415)
    matrices = [_random_matrix(rng, 6, 6, density=0.9) for _ in range(10)]
    for m in matrices:
        result = echelonize(m)
        assert result.rank == _fraction_rank(m.to_dense())
        permuted = echelonize(SparseMatrix.from_rows(reversed(m.to_dense())))
        assert permuted.echelon == result.echelon
        assert permuted.pivots == result.pivots


def test_row_space_is_preserved():
    rng = random.Random(9009)
    for _ in range(10):
        m = _random_matrix(rng, 5, 7)
        result = echelonize(m)
        # every original row must reduce to zero against the echelon rows
        combined_rows = list(m.to_dense()) + list(result.echelon.to_dense())
        stacked = SparseMatrix.from_rows(combined_rows)
        assert echelonize(stacked).rank == result.rank
