"""Generic graded quotient-ring engine over the integers.

A :class:`Presentation` lists generators (all in degree one), homogeneous
relation polynomials, and a socle degree.  The engine computes each graded
piece of the quotient ring R = S/I by explicit exact linear algebra:

* the single-term relations generate a monomial ideal J inside I, and
  every lower degree adds the monomials its elimination proved zero, which
  gives a larger monomial ideal J' still inside I.  The degree-``d``
  monomials outside J' are the columns, enumerated without ever listing the
  monomials inside J' (see :meth:`GradedRing._columns`);
* the degree-``d`` slice of I/J' (multi-term relation times a multiplier
  outside J', with the terms that land in J' dropped) is echelonized
  exactly and back-substituted into its canonical RREF.  A
  :class:`GradedBasis`, the one record of a degree, holds the columns and
  their index, the RREF and the live columns; the quotient is read off the
  non-pivot columns, and the socle functional off the RREF rows of the
  socle degree.  The engine hands out packed keys, live sets and the socle
  functional; it reduces no element to the quotient basis.

Relation coefficients are ints (:class:`Presentation` refuses any other),
and a Fraction is made only where a socle value leaves the engine
(:meth:`GradedRing.socle_values`).  No Groebner basis is computed -- ranks
of explicit integer matrices decide everything, which keeps the
verification auditable.  A row of the slice is left out only when one of
two proven criteria (Koszul and redundant relation, see
:meth:`GradedRing._compute_basis`) shows it lies in the span of the rows
kept, so the ranks are those of the full slice.  Above the socle degree
the engine proves vanishing instead of building the piece (see
:meth:`GradedRing._above_socle_dimension`).

Monomials are encoded as packed integers (one bit field per generator
exponent) so that multiplying two monomials is a single integer addition;
column indices are positions in the enumeration order of
:meth:`GradedRing._columns`.  The engine reads and returns packed keys
(:meth:`GradedRing.monomial_key` is the one way in from a :class:`Monomial`)
and decodes nothing back into a :class:`Poly`.
"""

import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm

from ._kernel import SpanReducer, _integer_rank, _normalize

#: Per-degree ceiling on the number of columns (monomials outside the
#: monomial ideal) the engine will enumerate before refusing (guards against
#: accidental combinatorial blowup).  The largest graded piece any command
#: builds, X[6] in degree 5, has 68,500 columns.
SIZE_CEILING = 5_000_000


class SizeCeilingError(RuntimeError):
    """Raised when a graded piece is too big to build.

    ``count`` is finite and above ``ceiling``, both in ``unit``
    (``columns``, ``standard monomials``, ``Gram entries``, ``Bernoulli
    terms``, ``six-point terms``, ``relation terms`` or ``points``),
    or both ``count`` and ``unit`` are None when the refusal is not about a
    count (a degree beyond the exponent packing); ``reason`` says which.
    ``degree`` is None when the request has no degree.  The engine stops
    enumerating columns after the products of the key that passes the
    ceiling, so its ``count`` is a lower bound, above the ceiling by at
    most the number of generators.
    """

    def __init__(self, label, degree, count, ceiling, unit, reason=None):
        if reason is None:
            reason = f"needs {count} {unit}, above the ceiling of {ceiling}"
        where = repr(label) if degree is None else f"degree {degree} of {label!r}"
        super().__init__(f"{where} {reason}")
        self.label = label
        self.degree = degree
        self.count = count
        self.ceiling = ceiling
        self.unit = unit
        self.reason = reason


def check_size(label, degree, count, unit):
    """Refuse (SizeCeilingError) a piece of ``count`` ``unit`` once the
    count passes ``SIZE_CEILING``, read at call time; for a count known
    before anything is built (the engine checks its columns as it
    enumerates them)."""
    if count > SIZE_CEILING:
        raise SizeCeilingError(label, degree, count, SIZE_CEILING, unit)


class PresentationError(ValueError):
    """A presentation failed validation or behaves inconsistently."""


class SocleError(PresentationError):
    """The socle is not one-dimensional (or its witness class vanishes)."""


_KIND_ORDER = {"a": 0, "b": 1, "D": 2}


class Generator:
    """A degree-one generator: a point class, a diagonal correction, or a
    boundary divisor indexed by a subset of the marked points.

    An immutable value.  Its ``sort_key`` and its hash, that of the tuple
    ``(kind, data)``, are computed once, when it is built.
    """

    __slots__ = ("kind", "data", "sort_key", "_hash")

    def __init__(self, kind, data):
        if kind == "a":
            (i,) = data
            if i < 1:
                raise ValueError("point index must be >= 1")
        elif kind == "b":
            i, j = data
            if not 1 <= i < j:
                raise ValueError("pair must be increasing and >= 1")
        elif kind == "D":
            if tuple(sorted(set(data))) != data or len(data) < 3:
                raise ValueError("subset must be sorted, distinct, size >= 3")
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        self.kind = kind  # "a", "b" or "D"
        self.data = data
        self.sort_key = (_KIND_ORDER[kind], len(data), data)
        self._hash = hash((kind, data))

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def to_payload(self):
        return [self.kind, list(self.data)]

    def __str__(self):
        if self.kind == "a":
            return f"a{self.data[0]}"
        if self.kind == "b":
            return "b(%d,%d)" % self.data
        return "D(%s)" % ",".join(map(str, self.data))

    __repr__ = __str__


def gen_a(i):
    return Generator("a", (i,))


def gen_b(i, j):
    if i > j:
        i, j = j, i
    return Generator("b", (i, j))


def gen_D(subset):
    return Generator("D", tuple(sorted(subset)))


def _factor_key(factor):
    return factor[0].sort_key


class Monomial:
    """A product of generators with positive integer exponents.

    ``exps`` is a tuple of ``(Generator, exponent)`` pairs sorted by the
    generator order; the empty tuple is the unit monomial.  An immutable
    value: its ``degree``, its ``sort_key`` (the factors' generator keys
    and exponents) and its hash, that of the tuple ``(exps,)``, are
    computed once, when it is built.
    """

    __slots__ = ("exps", "degree", "sort_key", "_hash")

    def __init__(self, exps=()):
        if any(e <= 0 for _, e in exps):
            raise ValueError("exponents must be positive")
        keys = [g.sort_key for g, _ in exps]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("factors must be sorted and distinct")
        self._fill(exps, sum(e for _, e in exps))

    def _fill(self, exps, degree):
        self.exps = exps
        self.degree = degree
        self.sort_key = tuple([(g.sort_key, e) for g, e in exps])
        self._hash = hash((exps,))

    @classmethod
    def _trusted(cls, exps, degree):
        """The monomial of ``exps`` of total exponent ``degree``, factors
        already sorted, distinct and positive; nothing is checked."""
        m = object.__new__(cls)
        m._fill(exps, degree)
        return m

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self._hash == other._hash and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        acc = dict(self.exps)
        for g, e in other.exps:
            acc[g] = acc.get(g, 0) + e
        return Monomial._trusted(tuple(sorted(acc.items(), key=_factor_key)),
                                 self.degree + other.degree)

    def to_payload(self):
        return [[g.to_payload(), e] for g, e in self.exps]

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(
            str(g) if e == 1 else f"{g}^{e}" for g, e in self.exps
        )

    __repr__ = __str__


ONE = Monomial()


class Poly:
    """A finite integer linear combination of monomials.

    Coefficients are stored as given and zero terms are dropped;
    :class:`Presentation` refuses a relation with a coefficient that is not
    an int.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                c += data.get(m, 0)
                if c:
                    data[m] = c
                else:
                    data.pop(m, None)
        self.terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: coeff})

    @classmethod
    def generator(cls, g, coeff=1):
        return cls.monomial(Monomial(((g, 1),)), coeff)

    @classmethod
    def constant(cls, c):
        return cls.monomial(ONE, c)

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common degree of all terms; None for zero, error if mixed."""
        degs = {m.degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 * m2
                    v = out.get(m, 0) + c1 * c2
                    if v:
                        out[m] = v
                    elif m in out:
                        del out[m]
            p = Poly.__new__(Poly)
            p.terms = out
            return p
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: v * c for m, v in self.terms.items()}
        return p

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def sorted_terms(self):
        """Terms sorted by monomial (generator order, then exponents)."""
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key)

    def to_payload(self):
        return [
            [m.to_payload(), str(c)] for m, c in self.sorted_terms()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            parts.append(f"{c}*{m}" if m.exps else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__


def canonical_json(payload):
    """Deterministic JSON used for hashing and cache bodies."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256(data=b""):
    """A new SHA-256 object from CPython's own implementation, the one
    ``hashlib`` falls back to; the only digest in this package.

    ``hashlib`` would load OpenSSL, about 3.6 MB of peak memory per run,
    for a digest that is the same bit for bit.  The module is imported on
    first use: a run with no cache that prints no content hash takes no
    digest.
    """
    if sys.version_info >= (3, 12):
        from _sha2 import sha256 as new
    else:
        from _sha256 import sha256 as new
    return new(data)


class Presentation:
    """A graded ring presentation: generators, relations, socle data.

    All generators sit in degree one; relations must be homogeneous of
    degree at least one, with int coefficients, so that the engine works
    over the integers.  ``ground`` is the tuple of point labels the
    presentation is built over; only :meth:`to_payload` (the content hash) reads it.
    """

    def __init__(self, label, ground, generators, relations, socle_degree, socle_monomial):
        self.label = label
        self.ground = tuple(ground)
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.socle_degree = socle_degree
        self.socle_monomial = socle_monomial
        self._validate()
        self._hash = None

    def _validate(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generators")
        genset = set(self.generators)
        for rel in self.relations:
            if rel.is_zero:
                raise PresentationError("zero relation")
            degrees = {m.degree for m in rel.terms}
            if len(degrees) > 1:
                raise PresentationError(f"relation is not homogeneous: degrees {sorted(degrees)}")
            if degrees.pop() < 1:
                raise PresentationError("relations must have positive degree")
            for m, c in rel.terms.items():
                if any(g not in genset for g, _ in m.exps):
                    raise PresentationError(f"relation uses unknown generator: {m}")
                if c.__class__ is not int:
                    raise PresentationError(f"relation coefficient {c!r} of {m} is not an int")
        if self.socle_degree < 0:
            raise PresentationError("socle degree must be nonnegative")
        if self.socle_monomial.degree != self.socle_degree:
            raise PresentationError("socle monomial degree mismatch")

    def to_payload(self):
        return {
            "schema": "tautring-presentation/1",
            "label": self.label,
            "ground": list(self.ground),
            "generators": [g.to_payload() for g in self.generators],
            "relations": [r.to_payload() for r in self.relations],
            "socle_degree": self.socle_degree,
            "socle_monomial": self.socle_monomial.to_payload(),
        }

    @property
    def content_hash(self):
        """SHA-256 (:func:`sha256`) of the canonical JSON payload, computed
        once; only cache keys and ``fm presentation`` read it."""
        if self._hash is None:
            self._hash = sha256(canonical_json(self.to_payload()).encode()).hexdigest()
        return self._hash

    def __repr__(self):
        return (
            f"Presentation({self.label!r}, {len(self.generators)} generators, "
            f"{len(self.relations)} relations, socle degree {self.socle_degree})"
        )


class GradedBasis:
    """One graded piece of a quotient ring: its columns, their index, its
    RREF and its live columns.

    The columns are the degree-``degree`` monomials outside the monomial
    ideal J' (:meth:`GradedRing._columns`): ``col_of`` maps the packed key
    of each to its column index, ``keys`` lists them in column order and
    ``monomial_count`` counts them.  The piece is held in one form, the
    canonical integer RREF of the slice of the multi-term relations
    (:meth:`rref`), and everything else is read off it: its leads are the
    pivot columns, their number is the rank, and the non-pivot columns form
    the quotient basis.  The RREF is a function of the row space alone, so
    ``dimension == monomial_count - rank`` always.  ``alive`` is the set of
    keys that are not dead: all but the pivots whose RREF row has no tail,
    which lie in I (:meth:`GradedRing.is_zero_key`).  ``tags`` runs
    parallel to the pivots: the index in ``GradedRing._prepped`` of the
    relation whose row adopted each lead.  ``owner`` holds the same per
    column: the tag of the column's lead, or ``inf`` for a non-pivot
    column.  :meth:`GradedRing._compute_basis` reads both at higher
    degrees, ``tags`` for criterion (b) and ``owner`` for (a).  None of
    these depends on the rows ``_compute_basis`` skipped (see its
    docstring).  A degree below every multi-term relation is an ordinary
    piece with no rows, every column alive.
    """

    def __init__(self, degree, col_of, rref, tags):
        self.degree = degree
        self.col_of = col_of
        self.keys = keys = list(col_of)
        self.monomial_count = len(keys)
        self._rref = rref
        self.tags = tags
        self.pivot_cols = tuple(rref)
        self.rank = len(self.pivot_cols)
        self.dimension = self.monomial_count - self.rank
        self.quotient_cols = tuple(c for c in range(self.monomial_count) if c not in rref)
        self.owner = owner = [inf] * self.monomial_count
        for lead, tag in zip(self.pivot_cols, tags):
            owner[lead] = tag
        self.alive = col_of.keys() - {
            keys[lead] for lead, (cols, _) in rref.items() if len(cols) == 1}

    def rref(self):
        """Canonical integer RREF rows, ``{lead: (cols, coeffs)}`` in
        ascending lead order: each row content-free with a positive lead,
        its tail only in non-pivot columns."""
        return self._rref

    def echelon_rows(self):
        """The RREF rows as ``(lead, cols, coeffs)``, sorted by lead."""
        return [(lead, cols, coeffs) for lead, (cols, coeffs) in self._rref.items()]


class GradedRing:
    """Engine wrapper around a Presentation: bases, socle table, pairings."""

    def __init__(self, presentation):
        self.presentation = presentation
        gens = presentation.generators
        self._gen_index = {g: i for i, g in enumerate(gens)}
        # Bit width per exponent slot: big enough for any degree we can
        # afford to enumerate; checked again in _columns().
        self._bits = max(6, (presentation.socle_degree + 2).bit_length())
        self._gen_keys = [1 << (self._bits * i) for i in range(len(gens))]
        self._mask = (1 << self._bits) - 1
        self._degree_cap = self._mask
        self._basis_memo = {}
        self._socle_table_memo = None
        self._gram_rank_memo = {}
        self._ideal, self._prepped = self._prepare_relations()

    # ----- encoding ---------------------------------------------------

    def monomial_key(self, m):
        key = 0
        for g, e in m.exps:
            idx = self._gen_index.get(g)
            if idx is None:
                raise PresentationError(f"monomial uses unknown generator: {m}")
            key += e << (self._bits * idx)
        return key

    def _exp_vector(self, m):
        vec = [0] * len(self.presentation.generators)
        for g, e in m.exps:
            vec[self._gen_index[g]] = e
        return tuple(vec)

    # ----- relation preparation ----------------------------------------

    def _prepare_relations(self):
        """Split the relations into the monomial ideal J and row sources.

        A single-term relation ``c*m`` says that ``m`` is zero, so ``m``
        becomes a generator of J whatever ``c`` is.  Every other relation
        becomes an integer term row ordered by descending lexicographic
        exponent vector -- the same order that assigns column indices -- so
        that translated columns come out strictly increasing without
        per-row sorting (dropping the terms that land in J' keeps them
        increasing).  Rows are sorted shortest first, which keeps fill-in
        low.

        Returns ``(ideal, rows)``: the set of keys of J's generators and
        the ``(degree, keys, coeffs)`` rows.
        """
        ideal = set()
        prepped = []
        for rel in self.presentation.relations:
            if len(rel.terms) == 1:
                (m,) = rel.terms
                ideal.add(self.monomial_key(m))
                continue
            terms = sorted(
                rel.terms.items(), key=lambda t: self._exp_vector(t[0]), reverse=True
            )
            keys = [self.monomial_key(m) for m, _ in terms]
            coeffs = [c for _, c in terms]
            _normalize(coeffs)
            prepped.append((rel.degree(), keys, coeffs))
        prepped.sort(key=lambda t: (len(t[1]), t[0], t[1], t[2]))
        return frozenset(ideal), prepped

    # ----- monomial enumeration ----------------------------------------

    def _columns(self, d):
        """``{key: column}`` of the degree-``d`` monomials outside J', keys
        in column order; :meth:`_compute_basis` hands it to the
        :class:`GradedBasis` it builds, which owns it from then on.

        A degree-``e`` column is *dead* when it is a pivot of ``basis(e)``
        whose canonical RREF row has no tail, so that the monomial itself
        lies in I.  J' at degree ``d`` is the ideal generated by J and the
        dead columns of every lower degree.  Degree ``d`` is built from
        ``basis(d-1)``: each of its ``keys`` that is ``alive`` is extended
        by every generator index at least its largest one, and the product
        is kept when it passes the divisor test of :meth:`_column_products`.
        By induction on ``d`` this lists the complement of J', in the order
        of ``itertools.combinations_with_replacement`` on generator indices
        (descending lexicographic order on exponent vectors), and never
        lists a monomial inside J'.

        Soundness.  Every dead monomial lies in I, so J' lies in I; J' is an
        ideal and only grows with the degree.  So R_d is the quotient of the
        columns by the images of the multi-term rows: a product term in J'
        is zero in R and is dropped, and a multiplier in J' gives a row
        inside J'.  The fact behind the criteria of :meth:`_compute_basis`,
        and both proofs, use no more than that, so they carry over
        unchanged.  The RREF is canonical for the row space, so the dead
        columns depend neither on relation order nor on the rows skipped.
        The single-entry rows of a raw echelon would be only some of them:
        they leave 9,053 degree-5 columns in X[5], the RREF rule 3,624.

        Refuses (SizeCeilingError) once the count passes ``SIZE_CEILING``,
        or when ``d`` exceeds the exponent packing width.
        """
        if d > self._degree_cap:
            raise SizeCeilingError(
                self.presentation.label, d, None, SIZE_CEILING, None,
                reason=f"exceeds the exponent packing (degrees up to "
                       f"{self._degree_cap} fit)",
            )
        if d == 0:
            return {0: 0}
        below = self.basis(d - 1)
        alive = below.alive
        keys = []
        gen_keys, bits, ceiling = self._gen_keys, self._bits, SIZE_CEILING
        for key in below.keys:
            if key not in alive:
                continue
            last = max(key.bit_length() - 1, 0) // bits
            keys.extend(key + gen_keys[g] for g in
                        self._column_products(key, range(last, len(gen_keys)), alive))
            if len(keys) > ceiling:
                raise SizeCeilingError(
                    self.presentation.label, d, len(keys), ceiling, "columns",
                    reason=f"needs more than {ceiling} columns (monomials "
                           f"outside the monomial ideal)",
                )
        return dict(zip(keys, range(len(keys))))

    def _column_products(self, key, gens, alive):
        """The divisor test: the indices g in ``gens`` for which ``key * g``
        is a column, for ``key`` in ``alive``, the live keys of its degree
        (:attr:`GradedBasis.alive`): it is not a generator of J, and
        ``key * g / h`` is alive for each h dividing key."""
        bits, mask, gen_keys, ideal = self._bits, self._mask, self._gen_keys, self._ideal
        steps = []  # key / h for each generator h dividing key
        rest = key
        while rest:
            shift = (rest & -rest).bit_length() - 1
            shift -= shift % bits
            steps.append(key - (1 << shift))
            rest &= ~(mask << shift)
        return [g for g in gens if key + gen_keys[g] not in ideal
                and all(q + gen_keys[g] in alive for q in steps)]

    def is_zero_key(self, key, d):
        """Whether the degree-``d`` monomial with packed ``key`` is zero in
        the ring: exactly when ``key`` is not in ``basis(d).alive``, that
        is, has no column or is a dead pivot.

        Proof.  A key without a column lies in J', inside I.  A column c is
        read off the canonical RREF of ``basis(d)``: a non-pivot column is a
        quotient-basis vector, so [c] != 0; a pivot's row is lead*c + tail
        with its tail in non-pivot columns, so [c] = -tail/lead, which is
        zero exactly when the tail is empty, that is when c is dead.
        """
        return key not in self.basis(d).alive

    # ----- basis construction ------------------------------------------

    def basis(self, d):
        """The degree-``d`` graded piece (memoized).  It is stored only once
        built, lower degrees first (:meth:`_columns` reads ``basis(d-1)``),
        so a refused degree leaves no entry behind."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        basis = self._basis_memo.get(d)
        if basis is None:
            basis = self._basis_memo[d] = self._compute_basis(d)
        return basis

    def _compute_basis(self, d):
        """Echelonize the degree-``d`` slice of I/J' from the rows that are
        not provably dependent, and back-substitute it into its RREF.

        Write f_0, f_1, ... for the multi-term relations in ``_prepped``
        order, r_i for the degree of f_i, and A_i(d) for the span of the
        rows of f_0..f_i at degree d, the images in S/J' (:meth:`_columns`)
        of f_j*m for m a column of degree e = d - r_j, one of
        ``basis(e).keys``.  The relations are inserted in index order, each
        row tagged with its relation's index, so the tag of an echelon row
        names the relation whose row adopted its lead.  Two criteria of
        matrix-F5 (Faugere, ISSAC 2002; Bardet, Faugere and Salvy, J.
        Symbolic Comput. 70, 2015) skip rows before they are built:

        (a) Koszul: skip the row f_i*m when m's column at degree e = d - r_i
            is a lead of ``basis(e)`` tagged j < i (its ``owner`` is j).
        (b) Redundant relation: at every degree d > r_i, skip all rows of
            f_i when no lead of ``basis(r_i)`` is tagged i (in ``tags``).

        Both rest on one fact: J' is an ideal that only grows with the
        degree.  For a monomial t, the image of t*f_j is zero when t lies
        in J' and a row of f_j when it does not (t is then a column of its
        own degree); so if q = sum h_j f_j mod J' with every j < i, then
        u*q lies in A_{i-1} for every homogeneous u.

        Proof of (a).  The lead m tagged j < i was adopted while only rows
        of f_0..f_{i-1} had been inserted, so some g = m + sum c_m' m' in
        A_{i-1}(e) has lead m, every m' a column later than m.  By the fact
        f_i*g lies in A_{i-1}(d), and f_i*m = f_i*g - sum c_m' f_i*m' lies
        in A_{i-1}(d) plus the span of the rows f_i*m' with m' later than
        m.  By induction from the last column, and on i, every row skipped
        by (a) lies in the span of the rows kept.

        Proof of (b).  At degree r_i, f_i has the one row f_i*1.  If it
        adopted no lead -- it reduced to zero, was empty, or was never
        inserted because the earlier rows already spanned every column --
        then f_i = sum h_j f_j mod J' with j < i, and by the fact every row
        f_i*m of a higher degree lies in A_{i-1}(d).

        The tags are canonical.  By the proofs the rows kept for f_0..f_i
        at degree e span A_i(e).  An incremental echelon never changes an
        adopted lead, so once they are inserted its leads are the leading
        columns of A_i(e): the leads tagged at most i are the lead set of
        A_i(e), whatever rows were skipped and in whatever order the rest
        came.  So the leads of ``basis(d)``, its quotient columns, RREF and
        socle table, and every rank and report, are those of the full
        slice; only the raw echelon rows may differ, and they are dropped
        once ``reducer.rref()`` has built the RREF and its tags.

        The criteria read ``basis(e)`` and ``basis(r_i)``, both below
        ``d`` and built on demand.
        """
        col_of = self._columns(d)
        count = len(col_of)
        reducer = SpanReducer(count)
        for i, (rdeg, tkeys, tcoeffs) in enumerate(self._prepped):
            if rdeg > d:
                continue
            if reducer.rank == count:
                break
            if rdeg < d and i not in self.basis(rdeg).tags:
                continue
            below = self.basis(d - rdeg)
            mult = [mk for mk, j in zip(below.keys, below.owner) if j >= i]
            reducer.insert_products(tkeys, tcoeffs, mult, col_of, i)
        return GradedBasis(d, col_of, *reducer.rref())

    # ----- socle and pairings -------------------------------------------

    def socle_table(self):
        """Socle evaluation as an integer functional on the degree-n columns:
        ``(numerators, denominator)``, with lambda(c) = numerators[c] /
        denominator for column c, and lambda(s) = 1 for the socle monomial
        s.  Read once off the RREF of ``basis(n)``; every socle value and
        Gram entry is a lookup in it.

        Raises SocleError exactly when R_n is not one-dimensional or s is
        zero in R.  Proof of the second half: let R_n = Q*[q0], q0 the one
        non-pivot column.  A tail of the RREF lies in the non-pivot
        columns, so the row of a pivot c is lead*c + t*q0 or lead*c, and
        [c] = (-t/lead)*[q0], or 0.  With L the lcm of the leads, q0 gets
        the numerator L and such a c gets -t*(L/lead), or 0: L times its
        coordinate on [q0].  [s] = 0 when s lies in J', where it has no
        column; so [s] != 0 iff its numerator is nonzero.  That numerator,
        sign and all numerators flipped if it is negative, is the
        denominator: s reads 1, and each column its coordinate on [s].
        """
        if self._socle_table_memo is not None:
            return self._socle_table_memo
        n = self.presentation.socle_degree
        basis = self.basis(n)
        if basis.dimension != 1:
            raise SocleError(
                f"socle of {self.presentation.label!r} has dimension "
                f"{basis.dimension}, expected 1"
            )
        rref = basis.rref()
        scale = lcm(*(coeffs[0] for _, coeffs in rref.values()))
        num = [scale] * basis.monomial_count  # q0, the one non-pivot column
        for lead, (cols, coeffs) in rref.items():
            num[lead] = -coeffs[1] * (scale // coeffs[0]) if len(cols) > 1 else 0
        s_col = basis.col_of.get(self.monomial_key(self.presentation.socle_monomial))
        den = 0 if s_col is None else num[s_col]
        if not den:
            raise SocleError(
                f"socle monomial of {self.presentation.label!r} evaluates to zero"
            )
        if den < 0:
            num, den = [-x for x in num], -den
        self._socle_table_memo = num, den
        return self._socle_table_memo

    def _socle_numerators(self, keys):
        """The socle table's numerators at these packed degree-``socle``
        keys: the entry of the key's column, or 0 for a key without one,
        which is a monomial in J', inside I.  A key of another degree has
        no column here and would read 0."""
        num = self.socle_table()[0]
        col_of = self.basis(self.presentation.socle_degree).col_of.get
        return [0 if (col := col_of(k)) is None else num[col] for k in keys]

    def socle_values(self, keys):
        """Socle evaluations of the degree-``socle`` monomials with these
        packed keys, as a list: each key's numerator over the denominator
        (:meth:`_socle_numerators`), a Fraction, or the int 0.  Every socle
        value by key is read here, the one place the engine makes a Fraction.
        """
        den = self.socle_table()[1]
        return [Fraction(v, den) if v else 0 for v in self._socle_numerators(keys)]

    def gram_rank(self, d):
        """Rank of the Gram pairing between the quotient bases of degrees
        ``d`` and ``socle - d`` (memoized by the lower of the two).

        The entry of quotient columns r and c is the socle evaluation of
        their product, the key ``r + c``.  The matrix ranked holds the
        integer numerators there (:meth:`_socle_numerators`): the pairing
        times the positive denominator of :meth:`socle_table`, so its rank
        is the pairing's.
        """
        n = self.presentation.socle_degree
        if not 0 <= d <= n:
            raise ValueError("degree out of range")
        dlo = min(d, n - d)
        rank = self._gram_rank_memo.get(dlo)
        if rank is None:
            rows, cols = self.basis(dlo), self.basis(n - dlo)
            col_keys = [cols.keys[c] for c in cols.quotient_cols]
            rank = self._gram_rank_memo[dlo] = _integer_rank(
                [self._socle_numerators([rows.keys[r] + c for c in col_keys])
                 for r in rows.quotient_cols])
        return rank

    def _above_socle_dimension(self):
        """Dimension of R_{n+1}, n the socle degree, by proof when possible.

        Lemma.  Suppose R_n = Q*[s] for the socle monomial s, and some
        factor x of s has x*s in J' (:meth:`_columns`).  Then R_d = 0 for
        every d > n.

        Proof.  For a generator g, g*s = x*u with u = g*s/x of degree n,
        and [u] = c*[s] for some rational c because R_n is spanned by [s].
        So [g]*[s] = [x]*[u] = c*[x*s] = 0, since J' lies in I.  The ring
        is generated in degree one, so R_{n+1} = R_1*R_n = 0, and R_d =
        R_1*R_{d-1} = 0 for every d > n+1 in turn.

        R_n = Q*[s] exactly when dim R_n = 1 and [s] != 0, that is, s is
        alive (:meth:`is_zero_key`); for such s, x*s lies in J' exactly when
        it fails the divisor test of :meth:`_column_products`.  Checking the
        hypotheses costs one divisor test per factor of s; degree n+1 is
        not enumerated, nor is the socle table read.  When they fail -- a
        defective socle, or no such x (as for a ring with no monomial
        relations) -- degree n+1 is built by explicit elimination.
        """
        n = self.presentation.socle_degree
        s = self.presentation.socle_monomial
        top = self.basis(n)
        s_key = self.monomial_key(s)
        if top.dimension == 1 and s_key in top.alive:
            factors = [self._gen_index[x] for x, _ in s.exps]
            if self._column_products(s_key, factors, top.alive) != factors:
                return 0
        return self.basis(n + 1).dimension

    def hilbert(self, max_degree=None):
        """Dimensions of the graded pieces, degrees 0..max_degree.

        Above the socle degree n the dimensions come from
        :meth:`_above_socle_dimension`: when it proves R_{n+1} = 0, every
        higher piece is zero without being built.
        """
        n = self.presentation.socle_degree
        if max_degree is None:
            max_degree = n
        dims = [self.basis(d).dimension for d in range(min(max_degree, n) + 1)]
        if max_degree > n:
            above = self._above_socle_dimension()
            dims.append(above)
            dims.extend(
                self.basis(d).dimension if above else 0
                for d in range(n + 2, max_degree + 1)
            )
        return dims

    def gorenstein_check(self):
        """The Gorenstein verification as named checks, in report order,
        each ``(name, passed, witness)``, ``witness`` a dict:

        * ``socle-dimension``: :meth:`socle_table` succeeds, which it does
          exactly when R_n is one-dimensional and the socle monomial is
          nonzero in R (the proof is in its docstring); the witness
          ``note`` is its SocleError message, or "";
        * ``vanishing-above-socle``: R_{n+1} = 0 (``hilbert(n + 1)``, by
          :meth:`_above_socle_dimension`), witness its ``dimension``;
        * ``pairing-degree-d`` for d = 0..n: the Gram pairing of degrees d
          and n - d (:meth:`gram_rank`) is perfect, ``gram_rank == dim R_d
          == dim R_{n-d}``; the rank is None, and the check fails, when the
          socle check failed.

        The ring is Gorenstein exactly when every check passes; the engine
        states no verdict of its own.  Two further conditions are implied.
        dim R_0 = 1: degree 0 has the one unit column and no rows, since
        :class:`Presentation` refuses a relation of degree below one.  dim
        R_n = 1: :meth:`socle_table` raises unless it holds.
        """
        n = self.presentation.socle_degree
        hilbert = self.hilbert(n + 1)
        try:
            self.socle_table()
            note = ""
        except SocleError as exc:
            note = str(exc)
        checks = [
            ("socle-dimension", not note, {"note": note}),
            ("vanishing-above-socle", hilbert[n + 1] == 0, {"dimension": hilbert[n + 1]}),
        ]
        for d in range(n + 1):
            dim, codim = hilbert[d], hilbert[n - d]
            rank = None if note else self.gram_rank(d)
            checks.append((f"pairing-degree-{d}", rank == dim == codim,
                           {"dimension": dim, "complement_dimension": codim,
                            "gram_rank": rank}))
        return checks


# ----- module-level convenience API -------------------------------------

@lru_cache(maxsize=8)
def ring_for(presentation):
    """Shared GradedRing for a presentation, keyed by the presentation object.

    Reusing the ring lets separate API calls share memoized bases.  Only
    the 8 rings used last are kept (``ring_for.cache_info()``), so a
    long-lived process does not keep every ring it built; ``bridge`` uses
    two (X[n], and X[1] for the calibration), and ``fm check --mode
    blocks`` at most one (X[n], for the engine cross-checks).  The cached
    presentations of ``xn_presentation`` and ``fm_presentation`` are the
    same object on every call, so finding their ring hashes nothing; an
    equal presentation built separately gets a ring of its own.
    """
    return GradedRing(presentation)

