"""Generic graded quotient-ring engine over exact rationals.

A :class:`Presentation` lists generators (all in degree one), homogeneous
relation polynomials, and a socle degree.  The engine computes each graded
piece of the quotient ring R = S/I by explicit exact linear algebra:

* the single-term relations generate a monomial ideal J inside I, so R is
  also (S/J)/I', with I' generated by the multi-term relations.  The
  degree-``d`` monomials outside J form a basis of (S/J)_d; they are the
  columns, enumerated without ever listing the monomials inside J;
* the degree-``d`` slice of I' (multi-term relation times a multiplier
  outside J, with the terms that land in J dropped) is echelonized exactly,
  and the quotient is read off the non-pivot columns.

No Groebner basis is computed -- ranks of explicit integer matrices decide
everything, which keeps the verification auditable.  A row of the slice is
left out only when one of two proven criteria (Koszul and redundant
relation, see :meth:`GradedRing._compute_basis`) shows it lies in the span
of the rows kept, so the ranks are those of the full slice.  Above the
socle degree the engine proves vanishing instead of building the piece
(see :meth:`GradedRing._above_socle_dimension`).

Monomials are encoded as packed integers (one bit field per generator
exponent) so that multiplying two monomials is a single integer addition;
column indices are positions in the enumeration order of
:meth:`GradedRing._mono_keys`.
"""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt

from ._kernel import SpanReducer, _integral_coeffs, _rref_from_echelon

#: Default per-degree ceiling on the number of columns (monomials outside
#: the monomial ideal) the engine will enumerate before refusing (guards
#: against accidental combinatorial blowup).
SIZE_CEILING_DEFAULT = 5_000_000

#: Bumped whenever the on-disk basis payload format or the engine's
#: column conventions change; part of every cache key.
ENGINE_VERSION = "4"


class SizeCeilingError(RuntimeError):
    """Raised when a graded piece is too big to build.

    ``count`` is finite, or None when the refusal is not about a count (a
    degree beyond the exponent packing); ``reason`` says which.  The engine
    stops enumerating columns as soon as the ceiling is passed, so its
    ``count`` is a lower bound (ceiling + 1).
    """

    def __init__(self, label, degree, count, ceiling, reason=None):
        if reason is None:
            reason = f"needs {count} columns, above the ceiling of {ceiling}"
        super().__init__(f"degree {degree} of {label!r} {reason}")
        self.label = label
        self.degree = degree
        self.count = count
        self.ceiling = ceiling
        self.reason = reason


class PresentationError(ValueError):
    """A presentation failed validation or behaves inconsistently."""


class SocleError(PresentationError):
    """The socle is not one-dimensional (or its witness class vanishes)."""


@dataclass(frozen=True)
class Generator:
    """A degree-one generator: a point class, a diagonal correction, or a
    boundary divisor indexed by a subset of the marked points."""

    kind: str  # "a", "b" or "D"
    data: tuple

    def __post_init__(self):
        if self.kind == "a":
            (i,) = self.data
            if i < 1:
                raise ValueError("point index must be >= 1")
        elif self.kind == "b":
            i, j = self.data
            if not 1 <= i < j:
                raise ValueError("pair must be increasing and >= 1")
        elif self.kind == "D":
            subset = self.data
            if tuple(sorted(set(subset))) != subset or len(subset) < 3:
                raise ValueError("subset must be sorted, distinct, size >= 3")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def sort_key(self):
        order = {"a": 0, "b": 1, "D": 2}
        return (order[self.kind], len(self.data), self.data)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def to_payload(self):
        return [self.kind, list(self.data)]

    @classmethod
    def from_payload(cls, payload):
        kind, data = payload
        return cls(kind, tuple(data))

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


@dataclass(frozen=True)
class Monomial:
    """A product of generators with positive integer exponents.

    ``exps`` is a tuple of ``(Generator, exponent)`` pairs sorted by the
    generator order; the empty tuple is the unit monomial.
    """

    exps: tuple = ()

    def __post_init__(self):
        if any(e <= 0 for _, e in self.exps):
            raise ValueError("exponents must be positive")
        keys = [g.sort_key for g, _ in self.exps]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("factors must be sorted and distinct")

    @classmethod
    def from_factors(cls, factors):
        """Build from an iterable of generators (repeats multiply up)."""
        acc = {}
        for g in factors:
            acc[g] = acc.get(g, 0) + 1
        return cls(tuple(sorted(acc.items(), key=lambda t: t[0].sort_key)))

    @property
    def degree(self):
        return sum(e for _, e in self.exps)

    def __mul__(self, other):
        acc = dict(self.exps)
        for g, e in other.exps:
            acc[g] = acc.get(g, 0) + e
        return Monomial(tuple(sorted(acc.items(), key=lambda t: t[0].sort_key)))

    def exponent(self, g):
        for h, e in self.exps:
            if h == g:
                return e
        return 0

    def to_payload(self):
        return [[g.to_payload(), e] for g, e in self.exps]

    @classmethod
    def from_payload(cls, payload):
        return cls(
            tuple((Generator.from_payload(g), e) for g, e in payload)
        )

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(
            str(g) if e == 1 else f"{g}^{e}" for g, e in self.exps
        )

    __repr__ = __str__


ONE = Monomial()


class Poly:
    """A finite rational linear combination of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                c = Fraction(c)
                if not c:
                    continue
                prev = data.get(m)
                c = c if prev is None else prev + c
                if c:
                    data[m] = c
                elif prev is not None:
                    del data[m]
        self.terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: Fraction(coeff)})

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
        c = Fraction(c)
        if not c:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {m: v * c for m, v in self.terms.items()}
        return p

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def sorted_terms(self):
        """Terms sorted by monomial (generator order, then exponents)."""
        return sorted(
            self.terms.items(),
            key=lambda t: [(g.sort_key, e) for g, e in t[0].exps],
        )

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


class Presentation:
    """A graded ring presentation: generators, relations, socle data.

    All generators sit in degree one; relations must be homogeneous of
    degree at least one.  ``ground`` is the tuple of point labels the
    presentation is built over (used by enumeration code and reports).
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
            d = rel.degree()  # raises if mixed degrees
            if d < 1:
                raise PresentationError("relations must have positive degree")
            for m in rel.terms:
                if any(g not in genset for g, _ in m.exps):
                    raise PresentationError(f"relation uses unknown generator: {m}")
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
        if self._hash is None:
            self._hash = hashlib.sha256(
                canonical_json(self.to_payload()).encode()
            ).hexdigest()
        return self._hash

    def __repr__(self):
        return (
            f"Presentation({self.label!r}, {len(self.generators)} generators, "
            f"{len(self.relations)} relations, socle degree {self.socle_degree})"
        )


class GradedBasis:
    """One graded piece of a quotient ring: its columns and its echelon.

    The columns are the degree-``degree`` monomials outside the monomial
    ideal J (``monomial_count`` counts only those, ``keys`` lists them in
    column order).  ``echelon`` holds the exact echelon rows ``(lead, cols,
    coeffs)`` of the slice of the multi-term relations, sorted by lead, and
    everything else is read off it: the leads are the pivot columns, their
    number is the rank, and the non-pivot columns form the quotient basis,
    which is canonical for the row space (independent of relation order).
    So ``dimension == monomial_count - rank`` always.  ``tags`` runs
    parallel to the echelon: the index in ``ring._prepped`` of the relation
    whose row adopted each lead, which :meth:`GradedRing._compute_basis`
    reads at higher degrees.  Computed and cached bases are built by this
    one constructor.
    """

    def __init__(self, ring, degree, keys, echelon, tags):
        self.ring = ring
        self.degree = degree
        self.keys = keys
        self.monomial_count = len(keys)
        self._echelon = echelon
        self.tags = tags
        self.pivot_cols = tuple(lead for lead, _, _ in echelon)
        self.rank = len(self.pivot_cols)
        self.dimension = self.monomial_count - self.rank
        self.quotient_cols = _complement(self.pivot_cols, self.monomial_count)
        self._rref = None
        self._qpos = None
        self._pivot_set = None

    def monomial_at(self, col):
        return self.ring.decode_key(self.keys[col])

    def rref(self):
        """Canonical integer RREF rows, keyed by pivot column.

        Built lazily from the raw echelon by back-substitution (descending
        pivot order, so tails only reference already-reduced rows).
        """
        if self._rref is None:
            pivot_rows = {lead: (cols, coeffs) for lead, cols, coeffs in self._echelon}
            self._rref = _rref_from_echelon(pivot_rows)
        return self._rref

    def quotient_pos(self, col):
        """Position of a non-pivot column inside the quotient basis."""
        if self._qpos is None:
            self._qpos = {c: i for i, c in enumerate(self.quotient_cols)}
        return self._qpos[col]

    def pivot_set(self):
        if self._pivot_set is None:
            self._pivot_set = frozenset(self.pivot_cols)
        return self._pivot_set

    def echelon_rows(self):
        return self._echelon

    def to_payload(self):
        """The cache payload; it shares this basis's column and tag lists,
        so it is for serializing, not for editing."""
        return {
            "schema": "tautring-basis/3",
            "degree": self.degree,
            "monomial_count": self.monomial_count,
            "echelon": [
                [lead, cols, [str(c) for c in coeffs]]
                for lead, cols, coeffs in self._echelon
            ],
            "tags": self.tags,
        }


def _parse_basis_payload(payload, count, relations):
    """``(echelon, tags)`` of a cached basis payload over ``count`` columns
    and ``relations`` row sources, or None when the payload is not one.

    The payload must have been built over the same ``count`` columns, and
    its echelon must have the shape the kernel produces: leads strictly
    increasing inside ``range(count)``; each row's columns starting at its
    lead, strictly increasing and below ``count``; one nonzero integer
    coefficient per column.  Its tags must be one integer in
    ``range(relations)`` per echelon row.  Anything else -- a stale or
    inconsistent entry, or one that does not parse at all -- is None, which
    the engine counts as a miss, recomputes and overwrites.
    """
    echelon = []
    prev = -1
    try:
        if payload["monomial_count"] != count:
            return None
        tags = payload["tags"]
        if not (
            type(tags) is list
            and all(type(t) is int and 0 <= t < relations for t in tags)
        ):
            return None
        for lead, cols, coeffs in payload["echelon"]:
            coeffs = [int(c) for c in coeffs]
            if not (
                prev < lead
                and cols[:1] == [lead]
                and all(map(lt, cols, cols[1:]))
                and cols[-1] < count
                and len(cols) == len(coeffs)
                and all(coeffs)
            ):
                return None
            echelon.append((lead, cols, coeffs))
            prev = lead
    except (KeyError, TypeError, ValueError):
        return None
    if len(tags) != len(echelon):
        return None
    return echelon, tags


def _complement(sorted_cols, total):
    """Ascending tuple of the columns not in ``sorted_cols``."""
    out = []
    it = iter(sorted_cols)
    nxt = next(it, None)
    for c in range(total):
        if c == nxt:
            nxt = next(it, None)
        else:
            out.append(c)
    return tuple(out)


class GradedRing:
    """Engine wrapper around a Presentation: bases, products, pairings."""

    def __init__(self, presentation, *, size_ceiling=SIZE_CEILING_DEFAULT,
                 cache=None):
        self.presentation = presentation
        self.size_ceiling = size_ceiling
        self.cache = cache
        gens = presentation.generators
        self._gen_index = {g: i for i, g in enumerate(gens)}
        # Bit width per exponent slot: big enough for any degree we can
        # afford to enumerate; checked again in _mono_keys().
        self._bits = max(6, (presentation.socle_degree + 2).bit_length())
        self._gen_keys = [1 << (self._bits * i) for i in range(len(gens))]
        self._mask = (1 << self._bits) - 1
        self._degree_cap = self._mask
        self._mono_keys_memo = {}
        self._key_to_col_memo = {}
        self._basis_memo = {}
        self._socle_table_memo = None
        self._gram_rank_memo = {}
        ideal, self._prepped = self._prepare_relations()
        self._ideal_masks, self._ideal_rest = self._ideal_tests(ideal)
        self.cache_hits = 0
        self.cache_misses = 0

    # ----- encoding ---------------------------------------------------

    def monomial_key(self, m):
        key = 0
        for g, e in m.exps:
            idx = self._gen_index.get(g)
            if idx is None:
                raise PresentationError(f"monomial uses unknown generator: {m}")
            key += e << (self._bits * idx)
        return key

    def decode_key(self, key):
        exps = []
        gens = self.presentation.generators
        i = 0
        while key:
            e = key & self._mask
            if e:
                exps.append((gens[i], e))
            key >>= self._bits
            i += 1
        return Monomial(tuple(exps))

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
        per-row sorting (dropping the terms that land in J keeps them
        increasing).  Rows are sorted shortest first, which keeps fill-in
        low.

        Returns ``(ideal, rows)``: the sorted keys of J's generators and
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
            coeffs = _integral_coeffs([c for _, c in terms])
            prepped.append((rel.degree(), keys, coeffs))
        prepped.sort(key=lambda t: (len(t[1]), t[0], t[1], t[2]))
        return sorted(ideal), prepped

    def _ideal_tests(self, ideal):
        """Per generator g, the data that decides whether ``m*g`` is in J
        for a monomial ``m`` outside J.

        Such an ``m*g`` lies in J exactly when some generator j of J with
        g | j has j/g | m: a generator of J without the factor g that
        divided ``m*g`` would divide ``m``.  When j/g is a single generator
        h the test is ``m & slot(h) != 0``, so those slots are ORed into one
        bit mask per g.  Every other quotient j/g is kept as a tuple of
        ``(shift, exponent)`` lower bounds (the empty tuple when j = g).
        """
        bits, mask, gen_keys = self._bits, self._mask, self._gen_keys
        masks = [0] * len(gen_keys)
        rest = [[] for _ in gen_keys]
        for j in ideal:
            for g, gkey in enumerate(gen_keys):
                if not j & (mask * gkey):
                    continue
                quotient = j - gkey
                if quotient in gen_keys:
                    masks[g] |= mask * quotient
                else:
                    slots = ((bits * i, (quotient >> (bits * i)) & mask)
                             for i in range(len(gen_keys)))
                    rest[g].append(tuple((shift, e) for shift, e in slots if e))
        return masks, rest

    def _times_in_ideal(self, key, g):
        """Whether ``key * generator g`` lies in J, for a key outside J."""
        if key & self._ideal_masks[g]:
            return True
        mask = self._mask
        return any(
            all((key >> shift) & mask >= e for shift, e in quotient)
            for quotient in self._ideal_rest[g]
        )

    # ----- monomial enumeration ----------------------------------------

    def _mono_keys(self, d):
        """Keys of the degree-``d`` monomials outside J, in column order.

        The order is that of ``itertools.combinations_with_replacement`` on
        generator indices (descending lexicographic order on exponent
        vectors), restricted to the monomials outside J.  Degree ``d`` is
        built from degree ``d-1``: each monomial there is extended by every
        generator index at least its last one, and a product is dropped as
        soon as it lies in J.  Every divisor of a monomial outside J is
        outside J, so this reaches every column, in order, and never lists a
        monomial inside J.

        Refuses (SizeCeilingError) once the count passes the size ceiling,
        or when ``d`` exceeds the exponent packing width.
        """
        return self._columns(d)[0]

    def _columns(self, d):
        """``(keys, lasts)`` of degree ``d``; ``lasts[i]`` is the largest
        generator index of ``keys[i]`` (the extension point)."""
        hit = self._mono_keys_memo.get(d)
        if hit is not None:
            return hit
        if d > self._degree_cap:
            raise SizeCeilingError(
                self.presentation.label, d, None, self.size_ceiling,
                reason=f"exceeds the exponent packing (degrees up to "
                       f"{self._degree_cap} fit)",
            )
        if d == 0:
            keys, lasts = [0], [0]
        else:
            keys, lasts = [], []
            prev_keys, prev_lasts = self._columns(d - 1)
            gen_keys, masks, rest = self._gen_keys, self._ideal_masks, self._ideal_rest
            ngens, ceiling = len(gen_keys), self.size_ceiling
            for key, last in zip(prev_keys, prev_lasts):
                for g in range(last, ngens):
                    if key & masks[g] or (rest[g] and self._times_in_ideal(key, g)):
                        continue
                    keys.append(key + gen_keys[g])
                    lasts.append(g)
                if len(keys) > ceiling:
                    raise SizeCeilingError(
                        self.presentation.label, d, len(keys), ceiling,
                        reason=f"needs more than {ceiling} columns (monomials "
                               f"outside the monomial ideal)",
                    )
        self._mono_keys_memo[d] = keys, lasts
        return keys, lasts

    def key_to_col(self, d):
        """Column index of each degree-``d`` key outside J; a same-degree key
        without a column lies in J and is zero in the ring."""
        mapping = self._key_to_col_memo.get(d)
        if mapping is None:
            mapping = {k: i for i, k in enumerate(self._mono_keys(d))}
            self._key_to_col_memo[d] = mapping
        return mapping

    # ----- basis construction ------------------------------------------

    def basis(self, d):
        """The degree-``d`` graded piece (memoized, cache-aware)."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        basis = self._basis_memo.get(d)
        if basis is None:
            basis = self._load_cached_basis(d)
            if basis is None:
                basis = self._compute_basis(d)
                self._store_cached_basis(basis)
            self._basis_memo[d] = basis
        return basis

    def _compute_basis(self, d):
        """Echelonize the degree-``d`` slice of I' from the rows that are
        not provably dependent.

        Write f_0, f_1, ... for the multi-term relations in ``_prepped``
        order, r_i for the degree of f_i, and A_i(d) for the span of the
        rows of f_0..f_i at degree d, the images in S/J of f_j*m for m a
        column of degree d - r_j.  The relations are inserted in index
        order, each row tagged with its relation's index, so the tag of an
        echelon row names the relation whose row adopted its lead.  Two
        criteria of matrix-F5 (Faugere, ISSAC 2002; Bardet, Faugere and
        Salvy, J. Symbolic Comput. 70, 2015) skip rows before they are
        built:

        (a) Koszul: skip the row f_i*m when the column of m at degree
            e = d - r_i is a lead of ``basis(e)`` tagged j < i.
        (b) Redundant relation: at every degree d > r_i, skip all rows of
            f_i when no lead of ``basis(r_i)`` is tagged i.

        Both rest on one fact: J is an ideal, so S -> S/J is a ring map.
        For a monomial t, the image of t*f_j is zero when t lies in J and
        a row of f_j when it does not; so if q = sum h_j f_j mod J with
        every j < i, then u*q lies in A_{i-1} for every homogeneous u.

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
        then f_i = sum h_j f_j mod J with j < i, and by the fact every row
        f_i*m of a higher degree lies in A_{i-1}(d).

        The tags are canonical.  By the proofs the rows kept for f_0..f_i
        at degree e span A_i(e).  An incremental echelon never changes an
        adopted lead, so once they are inserted its leads are the leading
        columns of A_i(e): the leads tagged at most i are the lead set of
        A_i(e), whatever rows were skipped and in whatever order the rest
        came.  So the leads of ``basis(d)``, its quotient columns, RREF and
        socle table, and every rank and report, are those of the full
        slice; only the raw echelon rows may differ.  A cached lower degree
        serves the criteria through its stored tags, which are checked for
        shape only (:func:`_parse_basis_payload`).

        The criteria read ``basis(e)`` and ``basis(r_i)``, both below
        ``d``, built on demand; a degree below every r_i has no leads and
        is not built for them.
        """
        keys = self._mono_keys(d)
        count = len(keys)
        key_to_col = self.key_to_col(d)
        prepped = self._prepped
        lowest = min((rdeg for rdeg, _, _ in prepped), default=d)
        reducer = SpanReducer(count)
        adopted = {}  # degree r -> tags of basis(r), for (b)
        owners = {}  # degree e -> tag of each column's lead, for (a)
        for i, (rdeg, tkeys, tcoeffs) in enumerate(prepped):
            if rdeg > d:
                continue
            if reducer.rank == count:
                break
            if rdeg < d:
                tags = adopted.get(rdeg)
                if tags is None:
                    tags = adopted[rdeg] = set(self.basis(rdeg).tags)
                if i not in tags:
                    continue
            e = d - rdeg
            mult = self._mono_keys(e)
            if e >= lowest:
                owner = owners.get(e)
                if owner is None:
                    owner = owners[e] = self._lead_owners(e)
                mult = [mk for mk, j in zip(mult, owner) if j >= i]
            reducer.insert_products(tkeys, tcoeffs, mult, key_to_col, i)
        return GradedBasis(self, d, keys, reducer.echelon_rows(),
                           reducer.echelon_tags())

    def _lead_owners(self, e):
        """Per degree-``e`` column, the tag of its lead in ``basis(e)``, or
        ``len(_prepped)`` (after every relation) for a non-pivot column."""
        basis = self.basis(e)
        owner = [len(self._prepped)] * basis.monomial_count
        for lead, tag in zip(basis.pivot_cols, basis.tags):
            owner[lead] = tag
        return owner

    def _load_cached_basis(self, d):
        if self.cache is None:
            return None
        payload = self.cache.get(self._basis_cache_key(d))
        keys = self._mono_keys(d)
        parsed = (None if payload is None
                  else _parse_basis_payload(payload, len(keys), len(self._prepped)))
        if parsed is None:
            self.cache_misses += 1
            return None
        self.cache_hits += 1
        return GradedBasis(self, d, keys, *parsed)

    def _store_cached_basis(self, basis):
        if self.cache is None:
            return
        self.cache.put(self._basis_cache_key(basis.degree), basis.to_payload())

    def _basis_cache_key(self, d):
        return {
            "kind": "basis",
            "engine": ENGINE_VERSION,
            "presentation": self.presentation.content_hash,
            "degree": d,
        }

    # ----- normal forms and products -----------------------------------

    def _check_poly(self, q):
        genset = self._gen_index
        for m in q.terms:
            for g, _ in m.exps:
                if g not in genset:
                    raise PresentationError(f"monomial uses unknown generator: {m}")

    def normal_form(self, q, degree=None):
        """Coordinates of ``q``'s class in the quotient basis of its degree.

        ``q`` must be homogeneous (the zero polynomial is allowed when
        ``degree`` is given explicitly).  Returns a list of Fractions, one
        per quotient-basis monomial, in column order.  Terms in the
        monomial ideal J have no column and contribute zero.
        """
        self._check_poly(q)
        qdeg = q.degree()
        if qdeg is None and degree is None:
            raise ValueError("degree of the zero polynomial is ambiguous")
        if degree is None:
            degree = qdeg
        elif qdeg is not None and qdeg != degree:
            raise ValueError(f"polynomial has degree {qdeg}, expected {degree}")
        key_coeffs = {
            self.monomial_key(m): c for m, c in q.terms.items()
        }
        return self._normal_form_keys(key_coeffs, degree)

    def _normal_form_keys(self, key_coeffs, degree):
        basis = self.basis(degree)
        if basis.dimension == 0:
            return []
        key_to_col = self.key_to_col(degree)
        rref = basis.rref()
        pivot_set = basis.pivot_set()
        out = [Fraction(0)] * basis.dimension
        for key, coeff in key_coeffs.items():
            if not coeff:
                continue
            col = key_to_col.get(key)
            if col is None:
                continue  # in J (the degree was checked by the caller)
            if col in pivot_set:
                cols, coeffs = rref[col]
                lead = coeffs[0]
                for c, v in zip(cols[1:], coeffs[1:]):
                    out[basis.quotient_pos(c)] -= coeff * Fraction(v, lead)
            else:
                out[basis.quotient_pos(col)] += coeff
        return out

    def nf_poly(self, q, degree=None):
        """Normal form of ``q`` as a Poly over quotient-basis monomials."""
        qdeg = q.degree() if degree is None else degree
        if qdeg is None:
            return Poly.zero()
        coords = self.normal_form(q, qdeg)
        basis = self.basis(qdeg)
        return Poly(
            (basis.monomial_at(c), v)
            for c, v in zip(basis.quotient_cols, coords)
            if v
        )

    def multiply(self, u, v):
        """Product of two classes, in normal form.

        A product above the socle degree is zero when
        :meth:`_above_socle_dimension` returns 0, which it usually proves
        without building any piece above the socle.  Otherwise a product in
        degree socle+1 is reduced explicitly, and a higher one is refused.
        """
        self._check_poly(u)
        self._check_poly(v)
        du, dv = u.degree(), v.degree()
        if du is None or dv is None:
            return Poly.zero()
        target = du + dv
        socle = self.presentation.socle_degree
        if target > socle and self._above_socle_dimension() == 0:
            return Poly.zero()
        if target > socle + 1:
            raise PresentationError(
                "nonzero piece above the socle; cannot truncate product"
            )
        return self.nf_poly(u * v, target)

    # ----- socle and pairings -------------------------------------------

    def socle_table(self):
        """Socle evaluation as a linear functional on degree-n columns.

        Returns a list of Fractions, one per degree-``socle`` monomial in
        column order, normalized so the socle monomial maps to 1.  Built
        once by back-substitution over the echelon (descending pivots, so
        every tail column is already evaluated); all socle evaluations and
        Gram entries reduce to lookups in this table.
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
        lam = [None] * basis.monomial_count
        lam[basis.quotient_cols[0]] = Fraction(1)
        for lead, cols, coeffs in reversed(basis.echelon_rows()):
            acc = 0
            for c, v in zip(cols[1:], coeffs[1:]):
                x = lam[c]
                if x:
                    acc += v * x
            lam[lead] = -acc / coeffs[0] if acc else Fraction(0)
        s_col = self.key_to_col(n).get(
            self.monomial_key(self.presentation.socle_monomial)
        )
        s = 0 if s_col is None else lam[s_col]
        if not s:
            raise SocleError(
                f"socle monomial of {self.presentation.label!r} evaluates to zero"
            )
        if s != 1:
            lam = [x / s for x in lam]
        self._socle_table_memo = lam
        return lam

    def socle_eval(self, q):
        """Evaluate a degree-``socle`` class against the socle monomial.

        Normalized so the socle monomial itself evaluates to 1; terms in
        the monomial ideal J evaluate to zero.
        """
        n = self.presentation.socle_degree
        qdeg = q.degree()
        if qdeg is not None and qdeg != n:
            raise ValueError(f"socle evaluation needs degree {n}, got {qdeg}")
        lam = self.socle_table()
        key_to_col = self.key_to_col(n)
        total = Fraction(0)
        for m, c in q.terms.items():
            col = key_to_col.get(self.monomial_key(m))
            if col is not None:
                total += c * lam[col]
        return total

    def gram_matrix(self, d):
        """Pairing matrix between the quotient bases of degrees ``d`` and
        ``socle - d``, as a list of rows indexed ``gram[i][j]``.

        The entry of quotient columns r and c is the socle evaluation of
        their product, an exact rational read from the socle table at the
        column of the key ``r + c`` (zero when the product lies in J).
        """
        n = self.presentation.socle_degree
        if not 0 <= d <= n:
            raise ValueError("degree out of range")
        lam = self.socle_table()  # fails early if the socle is defective
        col_of = self.key_to_col(n).get
        rows, cols = self.basis(d), self.basis(n - d)
        col_keys = [cols.keys[c] for c in cols.quotient_cols]
        return [
            [0 if (col := col_of(rows.keys[r] + c)) is None else lam[col]
             for c in col_keys]
            for r in rows.quotient_cols
        ]

    def gram_rank(self, d):
        """Rank of the default Gram pairing at degree ``d``.

        Always computed from the bases, never read from the cache: a stored
        rank could not be checked without computing it again, and computing
        it is cheap (see :mod:`tautring.cache`).
        """
        n = self.presentation.socle_degree
        dlo = min(d, n - d)
        rank = self._gram_rank_memo.get(dlo)
        if rank is None:
            rank = self._gram_rank_memo[dlo] = _integer_rank(self.gram_matrix(dlo))
        return rank

    def _above_socle_dimension(self):
        """Dimension of R_{n+1}, n the socle degree, by proof when possible.

        Lemma.  Suppose :meth:`socle_table` succeeds, so R_n = Q*[s] for the
        socle monomial s, with socle evaluation lambda(s) = 1, and some
        factor x of s has x*s in the monomial ideal J.  Then R_d = 0 for
        every d > n.

        Proof.  For a generator g, g*s = x*u with u = g*s/x of degree n,
        and [u] = lambda(u)*[s] because R_n is spanned by [s].  So
        [g]*[s] = [x]*[u] = lambda(u)*[x*s] = 0, since x*s lies in J.  The
        ring is generated in degree one, so R_{n+1} = R_1*R_n = 0, and
        R_d = R_1*R_{d-1} = 0 for every d > n+1 in turn.

        Checking the hypotheses costs the socle table (which the pairing
        checks need anyway) and one ideal test per factor of s.  When they
        fail -- a defective socle, or no such x (as for a ring with no
        monomial relations) -- degree n+1 is built by explicit elimination.
        """
        n = self.presentation.socle_degree
        s = self.presentation.socle_monomial
        try:
            self.socle_table()
        except SocleError:
            pass
        else:
            s_key = self.monomial_key(s)  # outside J, since lambda(s) = 1
            if any(self._times_in_ideal(s_key, self._gen_index[x]) for x, _ in s.exps):
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
        """Full Gorenstein verification; returns a PairingReport.

        Checks, in order: one-dimensional bottom and socle, vanishing just
        above the socle (by :meth:`_above_socle_dimension`), a symmetric
        Hilbert function, and a perfect pairing (full-rank Gram matrix) in
        every complementary pair of degrees.

        The socle is checked once, by :meth:`socle_table`: it raises
        SocleError exactly when R_n is not one-dimensional or the socle
        monomial s has normal-form coordinate zero.  Proof of the second
        half: let R_n = Q*[q0], q0 the one non-pivot column.  The echelon
        rows span the relation slice, and with the unit vector of q0 they
        are triangular on all columns, so there is exactly one functional
        that is 1 on q0 and vanishes on the row space.  The normal-form
        coordinate of a degree-n column c is that functional at c, since
        c minus that multiple of q0 lies in the row space.  The table's
        back-substitution sets lambda(q0) = 1 and solves each row, in
        descending lead order, for the value at its lead so that the row
        evaluates to zero; so before scaling it is that same functional,
        and lambda(s) -- zero when s lies in J, where it has no column --
        is the coordinate of s.  Hence normal_form(s)[0] != 0 iff
        socle_table does not raise.
        """
        n = self.presentation.socle_degree
        hilbert = self.hilbert(n)
        above = self._above_socle_dimension()
        socle_ok = True
        socle_note = ""
        try:
            self.socle_table()
        except SocleError as exc:
            socle_ok = False
            socle_note = str(exc)
        records = []
        ranks = {}
        if socle_ok:
            ranks = {d: self.gram_rank(d) for d in range(n // 2 + 1)}
        for d in range(n + 1):
            dim = hilbert[d]
            codim = hilbert[n - d]
            rank = ranks.get(min(d, n - d))
            ok = (
                socle_ok
                and dim == codim
                and rank is not None
                and rank == dim
                and rank == codim
            )
            records.append(
                {
                    "degree": d,
                    "dimension": dim,
                    "complement_dimension": codim,
                    "gram_rank": rank,
                    "perfect": bool(ok),
                }
            )
        verdict = (
            socle_ok
            and hilbert[0] == 1
            and hilbert[n] == 1
            and above == 0
            and all(r["perfect"] for r in records)
        )
        return PairingReport(
            label=self.presentation.label,
            socle_degree=n,
            hilbert=hilbert,
            above_socle_dimension=above,
            socle_ok=socle_ok,
            socle_note=socle_note,
            records=records,
            verdict="gorenstein" if verdict else "defective",
        )


@dataclass
class PairingReport:
    """Outcome of a Gorenstein verification run."""

    label: str
    socle_degree: int
    hilbert: list
    above_socle_dimension: int
    socle_ok: bool
    socle_note: str
    records: list = field(default_factory=list)
    verdict: str = "defective"

    @property
    def passed(self):
        return self.verdict == "gorenstein"

    def to_payload(self):
        return {
            "schema": "tautring-pairing-report/1",
            "label": self.label,
            "socle_degree": self.socle_degree,
            "hilbert": list(self.hilbert),
            "above_socle_dimension": self.above_socle_dimension,
            "socle_ok": self.socle_ok,
            "socle_note": self.socle_note,
            "records": [dict(r) for r in self.records],
            "verdict": self.verdict,
        }


def _integer_rank(rows):
    """Exact rank of a matrix given as a list of rows of ints and Fractions.

    Each nonzero row is made integral and the rows are fed to the kernel
    sparsest first.
    """
    ncols = len(rows[0]) if rows else 0
    int_rows = []
    for row in rows:
        cols = [j for j, v in enumerate(row) if v]
        if cols:
            int_rows.append((cols, _integral_coeffs([row[j] for j in cols])))
    int_rows.sort(key=lambda r: (len(r[0]), r[0], r[1]))
    reducer = SpanReducer(ncols)
    for cols, coeffs in int_rows:
        if reducer.rank == ncols:
            break
        reducer.insert(cols, coeffs)
    return reducer.rank


# ----- module-level convenience API -------------------------------------

_RING_REGISTRY = {}


def ring_for(presentation, *, size_ceiling=SIZE_CEILING_DEFAULT):
    """Shared cache-free GradedRing for a presentation (keyed by content
    hash and size ceiling).

    Reusing the ring lets separate API calls share memoized bases.  A ring
    bound to a cache belongs to whoever owns that cache (the CLI builds one
    per run), so the registry never holds one.
    """
    key = (presentation.content_hash, size_ceiling)
    ring = _RING_REGISTRY.get(key)
    if ring is None:
        ring = GradedRing(presentation, size_ceiling=size_ceiling)
        _RING_REGISTRY[key] = ring
    return ring


def gorenstein_check(presentation, **kw):
    return ring_for(presentation, **kw).gorenstein_check()
