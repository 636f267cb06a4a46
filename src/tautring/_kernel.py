"""Exact linear algebra on integer rows: elimination, RREF and rank.

Every rank the engine reports -- graded pieces, and through
:func:`_integer_rank` Gram pairings and block pairings -- comes from
fraction-free elimination in :class:`SpanReducer`, and every canonical row
form from its back-substitution, :meth:`SpanReducer.rref`.  Rows are
``(cols, coeffs)`` pairs: strictly increasing column indices and nonzero
integers, and :func:`_normalize` is the one place content is stripped from
a finished row.  There is one implementation, in plain Python, and no other
elimination path to keep in step with it.
"""

from math import gcd


def _normalize(coeffs):
    """Divide a coefficient list by its content, making the lead positive."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    if coeffs[0] < 0:
        g = -g
    if g != 1:
        for i in range(len(coeffs)):
            coeffs[i] //= g


class SpanReducer:
    """Incremental exact echelonization of integer rows.

    Rows are inserted one at a time and reduced against the pivot rows
    accumulated so far, using fraction-free elimination (cross-multiply,
    subtract, strip content).  Stored pivot rows are content-free with a
    positive leading coefficient, so the internal state is a deterministic
    function of the multiset of inserted rows' span -- insertion order only
    affects which echelon basis is found, never the pivot columns or rank.

    Each pivot row keeps the ``tag`` it was inserted with (the engine passes
    the index of the relation the row came from), so that the caller can
    tell which batch of rows adopted which lead.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rank = 0
        self._pivots = {}  # leading column -> (cols, coeffs, tag)

    def insert(self, cols, coeffs, tag=-1):
        """Reduce one row; adopt it as a pivot row, tagged ``tag``, if
        independent.

        ``cols`` must be strictly increasing and ``coeffs`` nonzero integers
        of the same length.  Both lists are consumed (the reducer may keep or
        mutate them).  Returns the new pivot column, or -1 when the row lies
        in the current span.
        """
        pivots = self._pivots
        while cols:
            lead = cols[0]
            hit = pivots.get(lead)
            if hit is None:
                _normalize(coeffs)
                pivots[lead] = (cols, coeffs, tag)
                self.rank += 1
                return lead
            cols, coeffs = _combine(cols, coeffs, hit[0], hit[1])
        return -1

    def insert_products(self, term_keys, term_coeffs, mult_keys, key_to_col, tag=-1):
        """Insert the rows of one relation times a batch of monomials, each
        tagged ``tag``.

        ``term_keys``/``term_coeffs`` describe the relation, presorted so
        that the translated columns come out strictly increasing (monomial
        keys are translation-invariant under the column order).  One row is
        inserted per key in ``mult_keys``.  A product term whose key has no
        column in ``key_to_col`` lies in the monomial ideal the columns
        leave out, so it is zero and is dropped; a row left empty is
        skipped.  The loop stops early once the span is the full column
        space, which no further row can enlarge.
        """
        ncols = self.ncols
        get = key_to_col.get
        for mk in mult_keys:
            if self.rank == ncols:
                return
            cols = [get(tk + mk, -1) for tk in term_keys]
            if -1 in cols:
                coeffs = [c for col, c in zip(cols, term_coeffs) if col >= 0]
                if not coeffs:
                    continue
                cols = [col for col in cols if col >= 0]
            else:
                coeffs = list(term_coeffs)
            self.insert(cols, coeffs, tag)

    def rref(self):
        """``(rref, tags)``: the canonical integer RREF of the span, each
        pivot column mapped to ``(cols, coeffs)`` in ascending pivot order,
        and the tag of each of its rows, in the same order.

        The pivot rows are back-substituted in descending pivot order, so
        every pivot column in a tail refers to an already-reduced row.  Each
        result row is content-free with a positive lead and zero in every
        other pivot column, a unique normal form of the row space.  The
        reducer is only read, so rows may still be inserted afterwards.

        Eliminating one pivot column scales the row by a nonzero integer and
        subtracts a reduced row's tail, which lies in non-pivot columns; so
        every other pivot column of the row keeps its nonzero entry until
        its own turn, and its factor is never zero.
        """
        pivots = self._pivots
        reduced = {}
        for lead in sorted(pivots, reverse=True):
            cols, coeffs, _ = pivots[lead]
            row = dict(zip(cols, coeffs))
            for col in sorted(c for c in cols if c != lead and c in pivots):
                factor = row.pop(col)
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
            _normalize(coeffs_out)
            reduced[lead] = (cols_out, coeffs_out)
        rref = dict(reversed(reduced.items()))
        return rref, [pivots[lead][2] for lead in rref]


def _integer_rank(rows):
    """Exact rank of a matrix given as a list of rows of ints.

    The nonzero entries of each nonzero row are stripped of content
    (:func:`_normalize`) and the rows are fed to the reducer sparsest
    first.
    """
    ncols = len(rows[0]) if rows else 0
    int_rows = []
    for row in rows:
        cols = [j for j, v in enumerate(row) if v]
        if cols:
            coeffs = [row[j] for j in cols]
            _normalize(coeffs)
            int_rows.append((cols, coeffs))
    int_rows.sort(key=lambda r: (len(r[0]), r[0], r[1]))
    reducer = SpanReducer(ncols)
    for cols, coeffs in int_rows:
        if reducer.rank == ncols:
            break
        reducer.insert(cols, coeffs)
    return reducer.rank


def _combine(rcols, rcoeffs, pcols, pcoeffs):
    """Return ``a*row - b*pivot`` with the shared leading column cancelled.

    ``a = plead/g`` and ``b = rlead/g`` for ``g = gcd(rlead, plead)``; the
    result is stripped of content.  Assumes both rows share their leading
    column.
    """
    rlead = rcoeffs[0]
    plead = pcoeffs[0]
    g = gcd(rlead, plead)
    a = plead // g
    b = rlead // g
    nr = len(rcols)
    np_ = len(pcols)
    out_cols = []
    out_coeffs = []
    i = 1
    j = 1
    content = 0
    while i < nr and j < np_:
        ci = rcols[i]
        cj = pcols[j]
        if ci == cj:
            v = a * rcoeffs[i] - b * pcoeffs[j]
            i += 1
            j += 1
            if v == 0:
                continue
            col = ci
        elif ci < cj:
            v = a * rcoeffs[i]
            i += 1
            col = ci
        else:
            v = -b * pcoeffs[j]
            j += 1
            col = cj
        out_cols.append(col)
        out_coeffs.append(v)
        content = gcd(content, v)
    while i < nr:
        v = a * rcoeffs[i]
        out_cols.append(rcols[i])
        out_coeffs.append(v)
        content = gcd(content, v)
        i += 1
    while j < np_:
        v = -b * pcoeffs[j]
        out_cols.append(pcols[j])
        out_coeffs.append(v)
        content = gcd(content, v)
        j += 1
    if content > 1:
        for k in range(len(out_coeffs)):
            out_coeffs[k] //= content
    return out_cols, out_coeffs
