"""Tautological ring of the Fulton-MacPherson compactification fiber.

The compactified configuration space of n points on the fixed genus-2 curve
is an iterated blow-up of the n-th power along (proper transforms of) the
polydiagonals X_I, |I| >= 3, in decreasing dimension order.  Its tautological
ring extends the power ring by one exceptional divisor class D_I per subset
I with |I| >= 3, subject to five relation families (see fm_presentation).

The combinatorial backbone: a nonzero D-monomial has nested-or-disjoint
index sets, i.e. a forest; *standard* monomials bound each D-exponent by the
section size of its vertex in that forest (``Forest.section``) and confine
the a/b-part to a section set S (one marker per root plus everything
outside the union).  A standard monomial is thus a D-part over a standard
monomial of the power ring X^S: ``StandardMonomialFM`` holds its a/b-part
as an ``xn.StandardMonomialXn``, which owns every a/b rule (validation,
support, dual, degree, order).
Standard monomials carry an explicit involution pairing complementary
degrees, a filtration by the dimension of the contracted cycle, and a block
decomposition of the intersection pairing with one block per D-part, equal
up to a global sign to a pairing inside X^S.

The block route is one table of X^S shapes: :func:`block_pairing` counts
the D-parts by shape, with no walk, and reads every block of every degree
from its shape's record, building nothing; the block ranks and their
symmetry are the verdict.  For small n, :func:`engine_cross_check` then
enumerates each degree's standard monomials once and tests the sign rule,
triangularity and filtration vanishing against the full engine; a
refutation raises :class:`CrossCheckError` after every block verdict is in.
"""

import itertools
from collections import Counter
from functools import cache
from math import comb, prod
from operator import attrgetter

from .algebra import (
    Monomial,
    Poly,
    Presentation,
    SizeCeilingError,
    check_size,
    gen_a,
    gen_b,
    gen_D,
)
from .xn import (
    StandardMonomialXn,
    a_poly,
    d_poly,
    dual_xn,
    enumerate_standard_xn,
    standard_pairing,
    standard_socle_coefficient,
    xn_presentation,
)

#: Largest ground set of :func:`_dparts` and :func:`block_pairing` (:func:`_check_points`).
STANDARD_ENUMERATION_LIMIT = 12


def D_poly(subset):
    return Poly.generator(gen_D(subset))


# ----- subset and monomial orders -------------------------------------------


def subset_key(subset):
    """Sort key realizing the subset order: size, then smallest element of
    the symmetric difference (equivalently, lexicographic on sorted tuples).
    """
    t = tuple(sorted(subset))
    return (len(t), t)


def _dpart_dict(dpart):
    """Normalize a D-part (mapping or pair iterable) to {sorted tuple: exp}:
    repeated sets merge, zero exponents drop and negative ones raise
    ValueError.  :class:`Forest` checks the index sets."""
    items = dpart.items() if hasattr(dpart, "items") else dpart
    out = {}
    for subset, exp in items:
        if exp < 0:
            raise ValueError("negative exponent")
        if exp:
            t = tuple(sorted(subset))
            out[t] = out.get(t, 0) + exp
    return out


@cache
def _subsets(n):
    """Every D-index set of ``n`` points (a sorted tuple of three or more
    points), in increasing subset order: by size, then lexicographically,
    which is the order ``itertools.combinations`` yields them in."""
    ground = range(1, n + 1)
    return tuple(c for size in range(3, n + 1) for c in itertools.combinations(ground, size))


def _families(subsets, compatible, max_size=None):
    """Every family of pairwise ``compatible`` members of ``subsets`` with
    at most ``max_size`` members (no bound when None), each a tuple in the
    order of ``subsets``.  ``compatible`` is called on two members as
    frozensets.  The order is depth first: the empty family first, and each
    family followed at once by its extensions by later members."""
    sets = [frozenset(s) for s in subsets]
    limit = len(sets) if max_size is None else max_size

    def extend(chosen, start):
        yield tuple(subsets[i] for i in chosen)
        if len(chosen) < limit:
            for i in range(start, len(sets)):
                if all(compatible(sets[i], sets[j]) for j in chosen):
                    yield from extend(chosen + (i,), i + 1)

    return extend((), 0)


def nested_or_disjoint(s, t):
    """Whether the index sets ``s`` and ``t`` (sets) are nested or disjoint,
    that is, whether D_s . D_t can be nonzero."""
    return s <= t or t <= s or not (s & t)


def dpart_key(D):
    """Sort key of the D-part order, for a D-part in the form of
    ``StandardMonomialFM.D`` (sorted subsets, decreasing subset order).

    The order scans the index sets in increasing subset order; at the first
    one where the exponents differ (0 when absent), the smaller exponent
    gives the smaller D-part.  The key lists the factors in increasing
    subset order, each set negated in size and in every element, which
    reverses the subset order.  Proof: past a common prefix the keys differ
    in the exponent of one set, which decides both orders; or in sets
    s1 < s2 of D1 and D2, where s1 is absent from D2 (whose later sets lie
    above s2), so D1 > D2 in both; or one key ends, and the longer part
    has a further set that the shorter lacks, so it is larger in both.
    """
    return tuple([((-len(s), tuple([-i for i in s])), e) for s, e in reversed(D)])


# ----- forests ---------------------------------------------------------------


class Forest:
    """The nesting forest of a D-part's index sets, the one place that
    checks and orders them: a set with under three points or a repeated
    point, a duplicate set, and two sets that overlap without nesting raise
    ValueError.  Vertices (``subsets``) are sorted tuples in *decreasing*
    subset order (the largest set first); edges point from a set to the
    maximal sets strictly inside it.  Roots are the maximal sets; a vertex
    is external when it has no children (minimal set), internal otherwise.

    ``section[r]`` is the size s_r of the section set inside I_r: its
    points in no child, plus one marker per child, so s_r = |I_r| - (points
    in the children) + c_r with c_r children.  Every standard-monomial rule
    reads it: the D-exponent at r runs over 1..s_r - 2, the dual exponent
    is s_r - 1 - e, the sign exponent is sum s_r and the section set S of
    the whole forest has n - |S| = sum over the roots of (|I_r| - 1).

    Proof that s_r - 2 is the whole bound, with no cap at |I_r| - 2: every
    child has three or more points, so s_r <= |I_r| - 2 c_r <= |I_r|.  The
    sum telescopes: each child's points are added at its own vertex and
    taken off at its parent's, leaving the roots' points, which are
    disjoint, so sum s_r = |union| + sum c_r.  S is one marker per root
    plus the n - |union| points outside, so n - |S| = |union| - (number of
    roots), the sum over the roots of (|I_r| - 1).
    """

    def __init__(self, subsets):
        sets = sorted((tuple(sorted(s)) for s in subsets), key=subset_key, reverse=True)
        members = [frozenset(s) for s in sets]
        for s, m in zip(sets, members):
            if len(s) < 3 or len(m) != len(s):
                raise ValueError(f"D-index set {s} needs three or more distinct points")
        if len(set(sets)) != len(sets):
            raise ValueError("duplicate subsets")
        for (s, ms), (t, mt) in itertools.combinations(zip(sets, members), 2):
            if not nested_or_disjoint(ms, mt):
                raise ValueError(
                    f"subsets {s} and {t} overlap without nesting "
                    "(the monomial is zero)"
                )
        self.subsets = tuple(sets)
        self.union = frozenset().union(*members)
        # the strict supersets of a vertex come before it and form a chain,
        # so its parent is the nearest of them
        self.parent = tuple(
            next((q for q in reversed(range(r)) if m < members[q]), None)
            for r, m in enumerate(members)
        )
        self.children = tuple(
            tuple(c for c, p in enumerate(self.parent) if p == r)
            for r in range(len(sets))
        )
        self.roots = tuple(r for r, p in enumerate(self.parent) if p is None)
        self.section = tuple(
            len(s) - sum(len(sets[c]) - 1 for c in kids)
            for s, kids in zip(sets, self.children)
        )

    def __len__(self):
        return len(self.subsets)

    def s_set(self, n):
        """One marker (the minimum) per root, plus everything outside."""
        outside = set(range(1, n + 1)) - self.union
        return frozenset(min(self.subsets[r]) for r in self.roots) | outside

    def sign_exponent(self):
        """The epsilon of the block sign rule: the sum of the section sizes."""
        return sum(self.section)


# ----- monomials -------------------------------------------------------------


class StandardMonomialFM:
    """A monomial a(A).b(B).prod D_I^{e_I} of the compactified ring.

    An immutable value with fields ``n`` (the ground-set size), ``ab`` (the
    a/b-part, a :class:`~tautring.xn.StandardMonomialXn`, which checks it),
    ``forest`` (the :class:`Forest` of the D-part, which checks its sets)
    and ``D`` (``((subset, exponent >= 1), ...)``, vertex r of the forest
    with its exponent at ``D[r]``); it equals another when n, ab and D do.
    The constructor checks only that both parts lie in the ground set and
    that there is one exponent >= 1 per vertex.  :func:`is_standard_fm` is
    the standardness predicate; :meth:`make` builds from loose A, B and D.
    """

    def __init__(self, n, ab, forest, exps):
        ground = set(range(1, n + 1))
        if not ab.support <= ground:
            raise ValueError(f"a/b-part {ab} outside the ground set")
        if not forest.union <= ground:
            raise ValueError(f"D-part {forest.subsets} outside the ground set")
        if len(exps) != len(forest) or any(e < 1 for e in exps):
            raise ValueError(f"need one exponent >= 1 per D-index set, got {exps}")
        self.n = n
        self.ab = ab
        self.forest = forest
        self.D = tuple(zip(forest.subsets, exps))

    def __eq__(self, other):
        if other.__class__ is not StandardMonomialFM:
            return NotImplemented
        return self.n == other.n and self.ab == other.ab and self.D == other.D

    def __hash__(self):
        return hash((self.n, self.ab, self.D))

    @classmethod
    def make(cls, n, A=(), B=(), D=()):
        """The monomial a(A).b(B).D on ``n`` points, normalized: any
        iterables of indices and pairs, and a D-part as for
        :func:`_dpart_dict`."""
        D = _dpart_dict(D)
        forest = Forest(D.keys())
        return cls(n, StandardMonomialXn.make(A, B), forest,
                   tuple(D[s] for s in forest.subsets))

    @property
    def degree(self):
        return self.ab.degree + sum(e for _, e in self.D)

    def to_monomial(self):
        factors = tuple((gen_D(s), e) for s, e in reversed(self.D))
        return Monomial(self.ab.to_monomial().exps + factors)

    def serialize(self):
        return {**self.ab.serialize(), "D": [[list(s), e] for s, e in self.D]}

    @classmethod
    def deserialize(cls, n, payload):
        """The monomial on ``n`` points of a :meth:`serialize` payload; the
        a/b-part is read by ``StandardMonomialXn.deserialize``.  Every index
        and exponent must be an ``int``: JSON ``true`` and ``3.0`` equal 1
        and 3 but raise ValueError.  So do a key other than ``n``, ``A``,
        ``B`` and ``D`` (a misspelled key is not read as absent) and a
        D-exponent below 1 (:meth:`make` would drop its set unchecked)."""
        unknown = sorted(set(payload) - {"n", "A", "B", "D"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}: a payload has only n, A, B and D")
        ab = StandardMonomialXn.deserialize(payload)
        D = [(tuple(s), e) for s, e in payload.get("D", ())]
        if any(type(x) is not int for s, e in D for x in (*s, e)):
            raise ValueError("indices and exponents must be integers")
        if any(e < 1 for _, e in D):
            raise ValueError("D-exponents must be at least 1")
        return cls.make(n, ab.A, ab.B, D)

    @property
    def sort_key(self):
        """Key of the monomial order: the D-part order (:func:`dpart_key`),
        then the a/b-part (``StandardMonomialXn.sort_key``)."""
        return (dpart_key(self.D), self.ab.sort_key)

    def __str__(self):
        return str(self.to_monomial())

    __repr__ = __str__


def much_less(v, w):
    """v << w: v lies below every single D-factor D_s of w (vacuously true
    when w has no D-part); in closed form, v has no D-factor at or below
    the largest index set of w.

    Proof.  The D-part scan (:func:`dpart_key`) of v against D_s meets
    first the smallest of s and v's sets.  A set t < s of v gives v > D_s;
    a smallest set s gives v >= D_s (a larger exponent at s, a further
    set, or the same D-part and an a/b-part at least D_s's empty one);
    otherwise the scan meets s with exponent 0 against 1, so v < D_s.
    """
    return (not v.D or not w.D
            or subset_key(v.D[-1][0]) > subset_key(w.D[0][0]))


def is_standard_fm(v):
    """The standardness predicate: D-exponents within the bounds of the
    forest, and an a/b-part that is standard inside the section set S.  The
    D-part is laminar by construction, since :class:`Forest` refuses
    overlapping index sets."""
    forest = v.forest
    return (all(e <= s - 2 for s, (_, e) in zip(forest.section, v.D))
            and v.ab.support <= forest.s_set(v.n))


def dual_fm(v):
    """The dual standard monomial: the dual of the a/b-part inside the
    power ring X^S (:func:`~tautring.xn.dual_xn`) and reflected
    D-exponents.  An involution on standard monomials pairing degrees d and
    n-d."""
    if not is_standard_fm(v):
        raise ValueError(f"not a standard monomial: {v}")
    forest = v.forest
    S = forest.s_set(v.n)
    dual_exps = tuple(s - 1 - e for s, (_, e) in zip(forest.section, v.D))
    return StandardMonomialFM(v.n, dual_xn(v.ab, len(S), ground=S), forest, dual_exps)


def filtration_p(v):
    """Filtration level: ab-degree plus the codimension drop of the roots,
    the sum of their sizes minus one each, which is n - |S|
    (:class:`Forest`)."""
    return v.ab.degree + v.n - len(v.forest.s_set(v.n))


# ----- enumeration -----------------------------------------------------------


def _check_points(n):
    """Refuse more than ``STANDARD_ENUMERATION_LIMIT`` points, with no degree."""
    if n > STANDARD_ENUMERATION_LIMIT:
        raise SizeCeilingError(
            f"fm:{n}", None, n, STANDARD_ENUMERATION_LIMIT, "points",
            reason=f"needs a ground set of {n} points, above the limit "
                   f"n <= {STANDARD_ENUMERATION_LIMIT}",
        )


def _dparts(n, degree):
    """Every D-part ``(forest, exps)`` of the standard monomials of the
    given degree: the laminar families of at most ``degree`` index sets, in
    decreasing subset order, with their exponents of weight <= degree,
    after the refusal of :func:`_check_points`."""
    if not 0 <= degree:
        raise ValueError("degree must be nonnegative")
    _check_points(n)
    for family in _families(_subsets(n)[::-1], nested_or_disjoint, degree):
        forest = Forest(family)
        bounds = [s - 2 for s in forest.section]
        if any(b < 1 for b in bounds):
            continue
        for exps in itertools.product(*(range(1, min(b, degree) + 1) for b in bounds)):
            if sum(exps) <= degree:
                yield forest, exps


def enumerate_standard_fm(n, degree):
    """All standard monomials of the given degree, in the monomial order
    (``StandardMonomialFM.sort_key``: by D-part, then by a/b-part): each
    D-part of :func:`_dparts` over the standard monomials of X^S."""
    out = []
    for forest, exps in _dparts(n, degree):
        S = sorted(forest.s_set(n))
        for ab in enumerate_standard_xn(len(S), degree - sum(exps), ground=S):
            out.append(StandardMonomialFM(n, ab, forest, exps))
    out.sort(key=attrgetter("sort_key"))
    return out


# ----- presentation ----------------------------------------------------------


def _superset_sum(base, n):
    """Sum of D_J over the D-index sets J of ``n`` points that contain
    ``base``."""
    base = set(base)
    total = Poly.zero()
    for J in _subsets(n):
        if base.issubset(J):
            total = total + D_poly(J)
    return total


def fm_presentation(n):
    """Presentation of the compactified ring on ``n`` points (cached).

    Generators: the power-ring classes a_i, b_{j,k} plus one exceptional
    divisor D_I per subset I with |I| >= 3.  Relation families:

      (1) every power-ring relation;
      (2) D_I . D_J = 0 unless the index sets are nested or disjoint;
      (3) restriction kernel times D_I:  (d_{j,k} + 2 a_j) D_I for ordered
          j,k in I, and (d_{i,j} - d_{i,k}) D_I for i outside, ordered
          j,k in I;
      (4) chain compatibility: Chern polynomial of a free part, evaluated
          at minus the superset sum, times the nested blocks' divisors;
      (5) self-intersection: for each I and base i in I, the product of
          (d_{i,j} - sum of D_J over J containing I) over j in I-{i}.

    The socle is a_1 ... a_n in degree n.
    """
    return _fm_build(n)[0]


def fm_relation_counts(n):
    """Per-family relation counts of fm_presentation(n)."""
    return dict(_fm_build(n)[1])


def _relation_terms(n):
    """Upper bounds, summing to at least the terms of the relations of
    :func:`fm_presentation`, a family and a subset size at a time, from
    subset counts alone.  A relation has at most the product of its
    factors' term counts, and a sum at most the sum of its summands': a
    D-class has one term, a d-class three and the superset sum of an s-set
    2^(n - s).  So a factor d - superset sum, or superset sum + d, has at
    most t = 2^(n - s) + 3.  The power ring has at most two terms per
    quadratic relation and fifteen per matching sum, and there is at most
    one incompatible product per pair of D-sets."""
    pairs = comb(n, 2)
    yield 2 * (n + 3 * pairs + 3 * comb(n, 3)) + 15 * comb(n, 6)
    yield comb(2 ** n - 1 - n - pairs, 2)
    for s in range(3, n + 1):
        sets, t = comb(n, s), 2 ** (n - s) + 3
        yield sets * s * (s - 1) * (4 + 6 * (n - s))  # restriction kernel
        yield sets * s * t ** (s - 1)  # self-intersection
        # chain compatibility: parts[r] sums, over the partitions of r
        # points into blocks of three or more, the product over the blocks
        # of b t (b choices of the marked point w, and its factor), split by
        # the block of the first point; the other f points are free, with f
        # choices of the base point u and f - 1 factors
        parts = [1]
        for r in range(1, s):
            parts.append(sum(comb(r - 1, b - 1) * b * t * parts[r - b] for b in range(3, r + 1)))
        yield sets * sum(comb(s, f) * f * t ** (f - 1) * parts[s - f] for f in range(1, s))


@cache
def _fm_build(n):
    """``(presentation, relation counts per family)`` of
    :func:`fm_presentation`, after the refusal (SizeCeilingError, in
    ``relation terms``) of a sum of :func:`_relation_terms` past
    ``SIZE_CEILING``, which stops at the first bound that passes it."""
    for total in itertools.accumulate(_relation_terms(n)):
        check_size(f"fm:{n}", None, total, "relation terms")
    ground = tuple(range(1, n + 1))
    pairs = list(itertools.combinations(ground, 2))
    subsets = _subsets(n)
    generators = (
        [gen_a(i) for i in ground]
        + [gen_b(i, j) for i, j in pairs]
        + [gen_D(s) for s in subsets]
    )
    relations = []
    counts = {}

    base = xn_presentation(n)
    relations.extend(base.relations)
    counts["power-ring"] = len(base.relations)

    start = len(relations)
    for I, J in itertools.combinations(subsets, 2):
        if not nested_or_disjoint(set(I), set(J)):
            relations.append(D_poly(I) * D_poly(J))
    counts["incompatible-products"] = len(relations) - start

    start = len(relations)
    for I in subsets:
        DI = D_poly(I)
        for j, k in itertools.permutations(I, 2):
            relations.append((d_poly(j, k) + a_poly(j).scale(2)) * DI)
        outside = [i for i in ground if i not in I]
        for i in outside:
            for j, k in itertools.permutations(I, 2):
                relations.append((d_poly(i, j) - d_poly(i, k)) * DI)
    counts["restriction-kernel"] = len(relations) - start

    # one instance per set J0, nonempty family of disjoint blocks inside it
    # with a nonempty free part F, base point u in F and marked point w_j
    # per block: the Chern polynomial of F at t = minus the superset sum of
    # J0, times the blocks' divisor classes
    start = len(relations)
    for J0 in subsets:
        t_value = -_superset_sum(J0, n)
        inside = [s for s in subsets if set(s) <= set(J0)]
        for blocks in _families(inside, frozenset.isdisjoint):
            used = set().union(*blocks)
            free = [x for x in J0 if x not in used]
            if not blocks or not free:
                continue
            for u in free:
                for marks in itertools.product(*blocks):
                    factors = [t_value + d_poly(u, x) for x in (*free, *marks) if x != u]
                    factors += [D_poly(blk) for blk in blocks]
                    relations.append(prod(factors, start=Poly.constant(1)))
    counts["chain-compatibility"] = len(relations) - start

    start = len(relations)
    for I in subsets:
        correction = _superset_sum(I, n)
        for i in I:
            factors = (d_poly(i, j) - correction for j in I if j != i)
            relations.append(prod(factors, start=Poly.constant(1)))
    counts["self-intersection"] = len(relations) - start

    pres = Presentation(
        label=f"fm:{n}",
        ground=ground,
        generators=generators,
        relations=relations,
        socle_degree=n,
        socle_monomial=Monomial(tuple((gen_a(i), 1) for i in ground)),
    )
    return pres, counts


def psi_pullback(n, i):
    """Pull-back of the i-th cotangent (psi) class to the compactified ring.

    The class is 2 a_i plus, for each other point j, the proper-transform
    diagonal (the power-ring diagonal d_{i,j} minus S({i, j})) plus S({i}),
    S(B) the sum of the D_J whose index set J contains B.  In closed form:

        psi_i = 2 a_i + sum_{j != i} d_{i,j} + sum_{J containing i} (2 - |J|) D_J.

    Proof.  S({i}) adds D_J once for each J containing i.  S({i, j})
    subtracts it once for each j != i in such a J, that is |J| - 1 times.
    So D_J has coefficient 1 - (|J| - 1) = 2 - |J|, and a D_J with i
    outside J occurs in no S.
    """
    if not 1 <= i <= n:
        raise ValueError("point index out of range")
    divisors = Poly([(Monomial(((gen_D(J), 1),)), 2 - len(J)) for J in _subsets(n) if i in J])
    return sum((d_poly(i, j) for j in range(1, n + 1) if j != i), a_poly(i).scale(2) + divisors)


# ----- block pairing ---------------------------------------------------------


class CrossCheckError(Exception):
    """A statement of the block route that the full engine refutes;
    ``check`` names it as ``fm check`` reports it."""

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


def _dpart_tally(n):
    """``Counter((|S|, weight))`` of ``_dparts(n, n)``, counted, not walked:
    A_n, where A_k counts the D-parts on k points by z^|S| y^weight, B_k
    those whose family lacks the whole ground and T_k the others; A_k =
    B_k + T_k, weights above n dropped.

    Proof.  Split by the block of point 1, a singleton or a root of j >= 3
    points with its tree; |S| and the weight add over the blocks, so B_k =
    sum_j C(k-1, j-1) block(j) A_{k-j}, j = k left out for k >= 3, with
    block(1) = z, block(2) = 0 and block(j) = T_j.  T_k = z sum B_k[s, w]
    (y + ... + y^{s-2}): the root is one marker, and its exponent runs up
    to s - 2, s the section size of the forest inside it
    (``Forest.section``); s < 3 leaves none, ``_dparts``' skip.
    """
    tally, block = [Counter({(0, 0): 1})], {1: Counter({(1, 0): 1}), 2: Counter()}
    for k in range(1, n + 1):
        rest, roots = Counter(), Counter()
        for j in range(1, min(k, len(block)) + 1):  # j = k only for k <= 2
            for (s1, w1), c1 in block[j].items():
                for (s2, w2), c2 in tally[k - j].items():
                    if w1 + w2 <= n:
                        rest[s1 + s2, w1 + w2] += comb(k - 1, j - 1) * c1 * c2
        for (s, w), c in rest.items():
            roots.update({(1, w + e): c for e in range(1, min(s - 2, n - w) + 1)})
        block.setdefault(k, roots)  # block(1) and block(2) stay
        tally.append(rest + roots)
    return tally[n]


def block_pairing(n):
    """The blocks of the pairing of X[n] as one table of shapes per degree.

    A block of degree d is a D-part of weight w over the degree k = d - w
    standard monomials of X^S; it pairs their a/b-parts against the duals
    in X^S, with the global sign (-1)^epsilon (:func:`block_gram`), and
    passes when its rank is dim X^S_k.  Every block of one shape (|S|, k)
    has the record ``standard_pairing(|S|, k)``, ``(count, rank,
    dimension)``, so :func:`_dpart_tally` counts them by (|S|, w) and
    nothing is built.  Entry d of the returned list lists the shapes of
    degree d, in increasing (|S|, w), as ``(|S|, k, blocks, record)``;
    they are the tallied (|S|, w) with 0 <= k <= |S|, the degrees in which
    X^S has a standard monomial (a(A) for any k points A of S), so a
    D-part of a shape outside that range is not a block.

    Proof.  The order-preserving map S -> {1..|S|} keeps standard
    monomials, duals, the cycle counts of B + B', the covering of S and
    the a/b order (it sorts tuples).  So the block's Gram matrix is
    (-1)^epsilon times the record's, entry by entry, and X^S is X^{|S|}
    relabelled, of the record's dimension.
    """
    _check_points(n)
    standard_pairing(n, n // 2)  # the largest shape first: a refused Gram costs nothing
    tally = _dpart_tally(n)
    return [[(size, d - weight, blocks, standard_pairing(size, d - weight))
             for (size, weight), blocks in sorted(tally.items())
             if 0 <= d - weight <= size]
            for d in range(n + 1)]


def block_gram(members):
    """The Gram matrix of one block, given its members (the standard
    monomials of one D-part and degree, in the monomial order):
    ``gram[i][j]`` is (-1)^epsilon times the X^S socle coefficient of the
    a/b-parts of member i and dual(member j)."""
    forest = members[0].forest
    S = tuple(sorted(forest.s_set(members[0].n)))
    sign = -1 if forest.sign_exponent() % 2 else 1
    duals = [dual_xn(v.ab, len(S), ground=S) for v in members]
    return [[sign * standard_socle_coefficient(v.ab, db, S) for db in duals]
            for v in members]


def _keys(ring, monomials):
    """Packed engine keys of standard monomials."""
    return [ring.monomial_key(v.to_monomial()) for v in monomials]


def cross_check_blocks(ring, blocks):
    """Verify the sign rule and triangularity of one degree's blocks
    against the full engine ``ring``; a failure raises
    :class:`CrossCheckError`.  Each block is the list of its members, each
    a pair ``(v, key(v))``, and the blocks come in the D-part order.

    The engine value of v . dual(w) is read from the socle table at the
    key key(v) + key(dual(w)) (``GradedRing.socle_values``); no product is
    built.  Sign rule: inside a block the engine values are the block's
    signed Gram entries (:func:`block_gram`).  Triangularity: for v in an
    earlier block than w, that is with a smaller D-part, the engine value
    is 0.
    """
    grams = [block_gram([v for v, _ in block]) for block in blocks]
    dual_keys = [_keys(ring, (dual_fm(v) for v, _ in block)) for block in blocks]
    for i, (block, gram) in enumerate(zip(blocks, grams)):
        for (v, kv), gram_row in zip(block, gram):
            row = ring.socle_values([kv + kd for kd in dual_keys[i]])
            if row != gram_row:
                raise CrossCheckError(
                    "sign-rule-and-triangularity",
                    f"sign rule fails at {v} . dual(block {v.D}): "
                    f"engine {row}, block {gram_row}"
                )
            for later, keys in zip(blocks[i + 1:], dual_keys[i + 1:]):
                for (w, _), value in zip(later,
                                         ring.socle_values([kv + kd for kd in keys])):
                    if value:
                        raise CrossCheckError(
                            "sign-rule-and-triangularity",
                            f"triangularity fails: {v} . dual({w}) = {value}"
                        )


def engine_cross_check(ring):
    """Check the block route against the full engine ``ring`` of X[n]: the
    sign rule and triangularity of every degree's blocks
    (:func:`cross_check_blocks`), then the filtration vanishing statement.
    Returns the number of filtration pairs checked; a refutation raises
    :class:`CrossCheckError`.  Each degree's standard monomials are
    enumerated and keyed once; their order is by D-part first, so the
    blocks are its runs of one D-part.

    Filtration vanishing: for every pair of standard monomials v, w (any
    degrees, product degree at most n) with w << v and p(v) + deg(w) > n,
    the full-engine product vanishes: the key key(v) + key(w) is tested by
    ``GradedRing.is_zero_key``, with no product built.  For v of degree a
    only the degrees b with n - p(v) < b <= n - a are scanned: the two
    degree conditions select whole degrees, and ``much_less`` is the only
    test left per pair.  The pairs are visited in the order of a scan over
    all ordered pairs of the degree-sorted list.
    """
    n = ring.presentation.socle_degree
    by_degree = []
    for d in range(n + 1):
        standard = enumerate_standard_fm(n, d)
        keyed = list(zip(standard, _keys(ring, standard)))
        cross_check_blocks(ring, [list(block) for _, block in
                                  itertools.groupby(keyed, lambda pair: pair[0].D)])
        by_degree.append(keyed)
    checked = 0
    for a, keyed in enumerate(by_degree):
        for v, kv in keyed:
            for b in range(max(0, n + 1 - filtration_p(v)), n - a + 1):
                for w, kw in by_degree[b]:
                    if not much_less(w, v):
                        continue
                    if not ring.is_zero_key(kv + kw, a + b):
                        raise CrossCheckError(
                            "filtration-vanishing",
                            f"filtration vanishing fails: {v} . {w} != 0")
                    checked += 1
    return checked
