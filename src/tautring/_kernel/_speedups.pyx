# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled implementation of the row-reduction kernel.

This mirrors ``pure.py`` exactly -- same algorithm, same normalization,
same deterministic output -- and exists purely for speed.  Coefficients stay
arbitrary-precision Python ints (exactness is non-negotiable); the win comes
from compiling the loop control, list traffic and dict probes.
"""

from math import gcd as _gcd


def degree_keys(gen_keys, degree):
    """All degree-``degree`` monomial keys, in combinations-with-replacement
    order on generator indices (descending lex on exponent vectors).  Kept
    for the kernel tests; the engine no longer calls it."""
    cdef Py_ssize_t ngens = len(gen_keys)
    cdef Py_ssize_t d = degree
    if d == 0:
        return [0]
    if ngens == 0:
        return []
    out = []
    # Depth-first over exponent vectors: at generator g, exponents run from
    # the full remaining degree down to 0, which reproduces the
    # combinations_with_replacement order used by the pure backend.
    cdef Py_ssize_t depth = 0
    cdef list stack_e = [0] * (ngens + 1)      # exponent chosen at each level
    cdef list stack_rem = [0] * (ngens + 1)    # degree left to distribute
    cdef list stack_acc = [0] * (ngens + 1)    # accumulated key
    stack_rem[0] = d
    stack_acc[0] = 0
    stack_e[0] = d + 1  # next exponent to try at level 0 (pre-decremented)
    cdef Py_ssize_t rem, e
    while depth >= 0:
        e = stack_e[depth] - 1
        if e < 0:
            depth -= 1
            continue
        stack_e[depth] = e
        rem = stack_rem[depth] - e
        acc = stack_acc[depth] + e * gen_keys[depth]
        if rem == 0:
            out.append(acc)
            continue
        if depth == ngens - 1:
            continue
        if depth + 1 == ngens - 1:
            # Last generator takes whatever remains; avoid a push/pop cycle.
            out.append(acc + rem * gen_keys[depth + 1])
            if e == 0:
                depth -= 1
            continue
        depth += 1
        stack_rem[depth] = rem
        stack_acc[depth] = acc
        stack_e[depth] = rem + 1
    return out


cdef _normalize(list coeffs):
    cdef Py_ssize_t i, n = len(coeffs)
    g = 0
    for i in range(n):
        g = _gcd(g, coeffs[i])
        if g == 1:
            break
    if coeffs[0] < 0:
        g = -g
    if g != 1:
        for i in range(n):
            coeffs[i] = coeffs[i] // g


cdef tuple _combine(list rcols, list rcoeffs, list pcols, list pcoeffs):
    rlead = rcoeffs[0]
    plead = pcoeffs[0]
    g = _gcd(rlead, plead)
    a = plead // g
    b = rlead // g
    cdef Py_ssize_t nr = len(rcols)
    cdef Py_ssize_t np_ = len(pcols)
    cdef list out_cols = []
    cdef list out_coeffs = []
    cdef Py_ssize_t i = 1
    cdef Py_ssize_t j = 1
    content = 0
    cdef long ci, cj
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
        content = _gcd(content, v)
    while i < nr:
        v = a * rcoeffs[i]
        out_cols.append(rcols[i])
        out_coeffs.append(v)
        content = _gcd(content, v)
        i += 1
    while j < np_:
        v = -b * pcoeffs[j]
        out_cols.append(pcols[j])
        out_coeffs.append(v)
        content = _gcd(content, v)
        j += 1
    cdef Py_ssize_t k, n
    if content > 1:
        n = len(out_coeffs)
        for k in range(n):
            out_coeffs[k] = out_coeffs[k] // content
    return out_cols, out_coeffs


cdef class SpanReducer:
    """Incremental exact echelonization of integer rows (compiled twin of
    the pure-Python ``SpanReducer``; see that class for the contract)."""

    cdef public Py_ssize_t ncols
    cdef public Py_ssize_t rank
    cdef dict _pivots

    def __init__(self, ncols):
        self.ncols = ncols
        self.rank = 0
        self._pivots = {}

    def insert(self, cols, coeffs):
        return self._insert(cols, coeffs)

    cdef Py_ssize_t _insert(self, list cols, list coeffs):
        cdef dict pivots = self._pivots
        cdef tuple hit, combined
        while len(cols) > 0:
            lead = cols[0]
            hit = pivots.get(lead)
            if hit is None:
                _normalize(coeffs)
                pivots[lead] = (cols, coeffs)
                self.rank += 1
                return lead
            combined = _combine(cols, coeffs, <list>hit[0], <list>hit[1])
            cols = <list>combined[0]
            coeffs = <list>combined[1]
        return -1

    def insert_products(self, term_keys, term_coeffs, mult_keys, key_to_col):
        cdef list tkeys = list(term_keys)
        cdef list tcoeffs = list(term_coeffs)
        cdef Py_ssize_t ncols = self.ncols
        cdef list cols, coeffs
        get = key_to_col.get
        for mk in mult_keys:
            if self.rank == ncols:
                return
            cols = [get(tk + mk, -1) for tk in tkeys]
            if -1 in cols:
                coeffs = [c for col, c in zip(cols, tcoeffs) if col >= 0]
                if not coeffs:
                    continue
                cols = [col for col in cols if col >= 0]
            else:
                coeffs = list(tcoeffs)
            self._insert(cols, coeffs)

    def pivot_cols(self):
        return sorted(self._pivots)

    def echelon_rows(self):
        return [
            (lead, row[0], row[1]) for lead, row in sorted(self._pivots.items())
        ]
