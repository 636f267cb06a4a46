"""Exact sparse linear algebra over the rationals.

Everything here is exact: entries are ``fractions.Fraction`` values and the
elimination is fraction-free over the integers (the kernel's
:class:`SpanReducer`), so ranks and kernels carry no numerical tolerance
whatsoever.  ``echelonize`` returns the canonical *integer* reduced row
echelon form (each row integral, content-free, with a positive leading
coefficient, and pivot columns cleared everywhere else), which is a unique
normal form of the row space: it does not depend on the order of the rows.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from ._kernel import SpanReducer


class SparseMatrix:
    """Immutable sparse matrix with exact rational entries.

    Entries are held in a dict keyed by ``(row, col)``; exact zeros are never
    stored.  Construction accepts ints, and anything ``Fraction`` accepts.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        data = {}
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
                value = Fraction(value)
                if value:
                    data[(i, j)] = value
        self._entries = data

    @classmethod
    def from_rows(cls, row_lists, cols=None):
        """Build from an iterable of dense rows (lists of numbers)."""
        row_lists = [list(r) for r in row_lists]
        if cols is None:
            cols = len(row_lists[0]) if row_lists else 0
        entries = {}
        for i, row in enumerate(row_lists):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                if value:
                    entries[(i, j)] = Fraction(value)
        return cls(len(row_lists), cols, entries)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self._entries.get((i, j), Fraction(0))

    def items(self):
        """Iterate ``((row, col), value)`` over nonzero entries (unordered)."""
        return self._entries.items()

    @property
    def nnz(self):
        return len(self._entries)

    def row_entries(self, i):
        """Sorted ``(col, value)`` pairs of one row."""
        out = [(j, v) for (r, j), v in self._entries.items() if r == i]
        out.sort()
        return out

    def to_dense(self):
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._entries.items():
            dense[i][j] = value
        return dense

    def transpose(self):
        return SparseMatrix(
            self.cols,
            self.rows,
            {(j, i): v for (i, j), v in self._entries.items()},
        )

    def mul_vector(self, vec):
        """Matrix-vector product; ``vec`` is a dense sequence of scalars."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for (i, j), value in self._entries.items():
            if vec[j]:
                out[i] += value * Fraction(vec[j])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class EchelonResult(NamedTuple):
    echelon: "SparseMatrix"
    pivots: list  # (row index in echelon, pivot column), sorted by column
    rank: int


def _integer_rows(matrix):
    """Rows of ``matrix`` as (cols, integer coeffs), denominators cleared."""
    per_row = [[] for _ in range(matrix.rows)]
    for (i, j), value in matrix.items():
        per_row[i].append((j, value))
    out = []
    for pairs in per_row:
        if not pairs:
            out.append(([], []))
            continue
        pairs.sort()
        denom = lcm(*(v.denominator for _, v in pairs))
        coeffs = [int(v * denom) for _, v in pairs]
        g = 0
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            coeffs = [c // g for c in coeffs]
        out.append(([j for j, _ in pairs], coeffs))
    return out


def _rref_from_echelon(pivot_rows):
    """Back-substitute raw echelon rows into canonical integer RREF.

    ``pivot_rows`` maps pivot column -> (cols, coeffs) with the pivot first.
    Rows are processed in descending pivot order so that every pivot column
    appearing in a tail refers to an already-reduced row.
    """
    reduced = {}
    for lead in sorted(pivot_rows, reverse=True):
        cols, coeffs = pivot_rows[lead]
        row = dict(zip(cols, coeffs))
        for col in sorted(c for c in cols if c != lead and c in pivot_rows):
            factor = row.pop(col, 0)
            if not factor:
                continue
            other_cols, other_coeffs = reduced[col]
            other_lead = other_coeffs[0]
            g = gcd(factor, other_lead)
            scale = other_lead // g
            sub = factor // g
            if scale != 1:
                for k in row:
                    row[k] *= scale
            for oc, ov in zip(other_cols[1:], other_coeffs[1:]):
                row[oc] = row.get(oc, 0) - sub * ov
                if row[oc] == 0:
                    del row[oc]
        cols_out = sorted(row)
        coeffs_out = [row[c] for c in cols_out]
        g = 0
        for c in coeffs_out:
            g = gcd(g, c)
            if g == 1:
                break
        if coeffs_out[0] < 0:
            g = -g
        if g != 1:
            coeffs_out = [c // g for c in coeffs_out]
        reduced[lead] = (cols_out, coeffs_out)
    return reduced


def echelonize(matrix):
    """Canonical integer RREF of ``matrix``.

    Returns ``EchelonResult(echelon, pivots, rank)`` where ``echelon`` has
    one row per pivot, sorted by pivot column, and ``pivots`` lists
    ``(row_in_echelon, pivot_column)`` pairs.  The row space is preserved
    exactly, and echelonizing the result again reproduces it unchanged.

    Rows are fed to the fraction-free reducer sparsest first (ties broken by
    original position), and the raw echelon it finds is back-substituted
    into the canonical form.
    """
    int_rows = _integer_rows(matrix)
    order = sorted(range(matrix.rows), key=lambda i: (len(int_rows[i][0]), i))
    reducer = SpanReducer(matrix.cols)
    for i in order:
        cols, coeffs = int_rows[i]
        if cols:
            reducer.insert(cols, coeffs)
    rref = _rref_from_echelon(
        {lead: (cols, coeffs) for lead, cols, coeffs in reducer.echelon_rows()}
    )

    pivot_cols = sorted(rref)
    entries = {}
    for i, lead in enumerate(pivot_cols):
        cols, coeffs = rref[lead]
        for j, v in zip(cols, coeffs):
            entries[(i, j)] = Fraction(v)
    echelon = SparseMatrix(len(pivot_cols), matrix.cols, entries)
    pivots = [(i, lead) for i, lead in enumerate(pivot_cols)]
    return EchelonResult(echelon, pivots, len(pivot_cols))


def rank_and_kernel(matrix):
    """Exact rank and a basis of the right kernel.

    The kernel basis contains one dense vector per non-pivot column ``j``
    (in ascending ``j``), with entry 1 at ``j``; together they satisfy
    ``matrix . v == 0`` exactly and span the kernel.
    """
    echelon, pivots, rank = echelonize(matrix)
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    rows_by_col = {}
    for i, c in pivots:
        rows_by_col[c] = echelon.row_entries(i)
    basis = []
    for j in range(matrix.cols):
        if j in pivot_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[j] = Fraction(1)
        for c in pivot_cols:
            row = rows_by_col[c]
            lead = row[0][1]
            for col, value in row:
                if col == j:
                    vec[c] = -value / lead
                    break
        basis.append(vec)
    return rank, basis
