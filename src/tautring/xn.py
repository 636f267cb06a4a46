"""Tautological ring of the n-th power of a fixed genus-2 curve.

Generators are, per marked point, the class ``a_i`` of a Weierstrass point
on the i-th factor (so the canonical class is ``K_i = 2 a_i``) and, per pair
of points, the corrected diagonal ``b_{i,j} = d_{i,j} - a_i - a_j`` where
``d_{i,j}`` is the diagonal class.  The relations are quadratic --

    a_i^2 = 0,   a_i b_{i,j} = 0,   b_{i,j}^2 = -4 a_i a_j,
    b_{i,j} b_{i,k} = a_i b_{j,k}

-- plus, for every six distinct indices, the degree-three matching sum

    sum over perfect matchings {{i1,i2},{i3,i4},{i5,i6}}  of
    b_{i1,i2} b_{i3,i4} b_{i5,i6}  =  0.

The quadratic relations form a confluent rewrite system whose normal forms
are the *standard monomials* (a squarefree product of a's times disjoint
b-pairs avoiding the a-indices); most of this module is bookkeeping around
that combinatorial skeleton.
"""

import itertools
from functools import cache
from math import comb, prod

from ._kernel import SpanReducer, _integer_rank
from .algebra import (
    Monomial,
    Poly,
    Presentation,
    check_size,
    gen_a,
    gen_b,
)

def default_ground(n):
    if n < 0:
        raise ValueError("need a nonnegative number of points")
    return tuple(range(1, n + 1))


def a_poly(i):
    return Poly.generator(gen_a(i))


def b_poly(i, j):
    return Poly.generator(gen_b(i, j))


def d_poly(i, j):
    """The diagonal class d_{i,j} = a_i + a_j + b_{i,j}."""
    return a_poly(i) + a_poly(j) + b_poly(i, j)


def k_poly(i):
    """The canonical class of the i-th factor, K_i = 2 a_i."""
    return a_poly(i).scale(2)


# ----- quadratic rewrite system ------------------------------------------


def _split_ab(monomial):
    """Monomial -> (a_exps, b_exps) dicts; rejects non-a/b generators."""
    a_exps = {}
    b_exps = {}
    for g, e in monomial.exps:
        if g.kind == "a":
            a_exps[g.data[0]] = e
        elif g.kind == "b":
            b_exps[g.data] = e
        else:
            raise ValueError(f"not an a/b monomial: {monomial}")
    return a_exps, b_exps


def _join_ab(a_exps, b_exps):
    factors = [(gen_a(i), e) for i, e in sorted(a_exps.items())]
    factors += [(gen_b(*p), e) for p, e in sorted(b_exps.items())]
    return Monomial(tuple(factors))


def _rewrite_monomial(a_exps, b_exps, contract_shared=True):
    """Run the quadratic rewrite chain on one monomial.

    Returns ``(coeff, a_exps, b_exps)`` or ``None`` when the monomial
    rewrites to zero.  Each step rewrites the first redex of a fixed scan
    order, which makes the result deterministic: a_i^2, then a_i b_{i,j}
    (either rewrites the monomial to zero), then b_{i,j}^2 by pair, then
    (with ``contract_shared``) two pairs sharing an index, by pair.
    """
    coeff = 1
    while True:
        if any(e >= 2 for e in a_exps.values()) or any(
                i in a_exps or j in a_exps for i, j in b_exps):
            return None
        pairs = sorted(b_exps)
        p = next((p for p in pairs if b_exps[p] >= 2), None)
        if p is not None:  # b_{i,j}^2 -> -4 a_i a_j
            coeff *= -4
            b_exps[p] -= 2
            if not b_exps[p]:
                del b_exps[p]
            for i in p:
                a_exps[i] = a_exps.get(i, 0) + 1
            continue
        shared = contract_shared and next(
            ((p, q) for p, q in itertools.combinations(pairs, 2) if set(p) & set(q)),
            None)
        if not shared:
            return coeff, a_exps, b_exps
        # b_{s,j} b_{s,k} -> a_s b_{j,k}
        p, q = shared
        (s,) = set(p) & set(q)
        for pair in (p, q):
            b_exps[pair] -= 1
            if not b_exps[pair]:
                del b_exps[pair]
        a_exps[s] = a_exps.get(s, 0) + 1
        new = tuple(sorted(set(p) ^ set(q)))  # (j, k), j < k
        b_exps[new] = b_exps.get(new, 0) + 1


def quadratic_normal_form(q, *, contract_shared=True):
    """Normal form of an a/b polynomial under the quadratic relations.

    With ``contract_shared`` the full system is used and every term lands on
    a standard monomial; without it the shared-index contraction
    ``b_{i,j} b_{i,k} -> a_i b_{j,k}`` is skipped, which is what the divisor
    computation in :func:`verify_faber_relation` needs (the contraction is
    exactly the relation that computation is supposed to exhibit).
    """
    pairs = []
    for m, c in q.terms.items():
        res = _rewrite_monomial(*_split_ab(m), contract_shared)
        if res is not None:
            factor, a_exps, b_exps = res
            pairs.append((_join_ab(a_exps, b_exps), c * factor))
    return Poly(pairs)


# ----- standard monomials --------------------------------------------------


class StandardMonomialXn:
    """A squarefree a-part times disjoint b-pairs avoiding the a-indices.

    An immutable value: ``A`` is a frozenset of indices, ``B`` a frozenset
    of increasing pairs, and two monomials are equal when both are.
    ``support`` is the frozenset of A and the points of B.
    """

    __slots__ = ("A", "B", "support")

    def __init__(self, A, B):
        seen = set(A)
        for p in B:
            i, j = p
            if not i < j:
                raise ValueError(f"pair {p} must be increasing")
            if i in seen or j in seen:
                raise ValueError("a-indices and b-pairs must be disjoint")
            seen.add(i)
            seen.add(j)
        self.A = A
        self.B = B
        self.support = frozenset(seen)

    def __eq__(self, other):
        if other.__class__ is not StandardMonomialXn:
            return NotImplemented
        return self.A == other.A and self.B == other.B

    def __hash__(self):
        return hash((self.A, self.B))

    @classmethod
    def make(cls, A=(), B=()):
        return cls(frozenset(A), frozenset(tuple(sorted(p)) for p in B))

    @property
    def degree(self):
        return len(self.A) + len(self.B)

    @property
    def sort_key(self):
        return (tuple(sorted(self.A)), tuple(sorted(self.B)))

    def to_monomial(self):
        factors = [(gen_a(i), 1) for i in sorted(self.A)]
        factors += [(gen_b(*p), 1) for p in sorted(self.B)]
        return Monomial(tuple(factors))

    def to_poly(self):
        return Poly.monomial(self.to_monomial())

    def serialize(self):
        return {
            "A": sorted(self.A),
            "B": [list(p) for p in sorted(self.B)],
        }

    @classmethod
    def deserialize(cls, payload):
        """The monomial of a :meth:`serialize` payload.  Every index must be
        an ``int``: JSON ``true`` and ``3.0`` equal 1 and 3 but raise
        ValueError.  So does a repeated index or pair, which :meth:`make`
        would merge: a1*a1 and b12*b12 are not a1 and b12."""
        A = list(payload.get("A", ()))
        B = [tuple(p) for p in payload.get("B", ())]
        if any(type(i) is not int for i in A + [i for p in B for i in p]):
            raise ValueError("indices must be integers")
        if len(set(A)) < len(A) or len({frozenset(p) for p in B}) < len(B):
            raise ValueError("repeated index or pair")
        return cls.make(A, B)

    def __str__(self):
        return str(self.to_monomial())

    __repr__ = __str__


def standard_from_monomial(m):
    """Interpret a squarefree a/b Monomial as a StandardMonomialXn."""
    a_exps, b_exps = _split_ab(m)
    if any(e != 1 for e in a_exps.values()) or any(e != 1 for e in b_exps.values()):
        raise ValueError(f"not a standard monomial: {m}")
    return StandardMonomialXn.make(a_exps.keys(), b_exps.keys())


def perfect_matchings(elements):
    """All perfect matchings of an even-sized collection, as sorted tuples
    of increasing pairs.  Deterministic order: the smallest element pairs
    with each partner in turn, recursively."""
    elems = sorted(elements)
    if len(elems) % 2:
        raise ValueError("cannot match an odd number of elements")
    if not elems:
        return [()]
    first = elems[0]
    out = []
    for idx in range(1, len(elems)):
        partner = elems[idx]
        rest = elems[1:idx] + elems[idx + 1:]
        for sub in perfect_matchings(rest):
            out.append(((first, partner),) + sub)
    return out


def enumerate_standard_xn(n, degree, ground=None):
    """All standard monomials of the given degree, sorted by (A, B)."""
    ground = default_ground(n) if ground is None else tuple(sorted(ground))
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for npairs in range(degree + 1):
        na = degree - npairs
        if na + 2 * npairs > len(ground):
            continue
        for A in itertools.combinations(ground, na):
            rest = [x for x in ground if x not in A]
            for supp in itertools.combinations(rest, 2 * npairs):
                for matching in perfect_matchings(supp):
                    out.append(StandardMonomialXn.make(A, matching))
    out.sort(key=lambda v: v.sort_key)
    return out


def dual_xn(v, n, ground=None):
    """The dual standard monomial: complementary a-part, same b-part."""
    ground = default_ground(n) if ground is None else tuple(sorted(ground))
    if not v.support <= set(ground):
        raise ValueError("monomial uses indices outside the ground set")
    A_dual = frozenset(ground) - v.A - v.support
    return StandardMonomialXn(A_dual, v.B)


# ----- presentation ---------------------------------------------------------

@cache
def xn_presentation(n):
    """Presentation of the ring for ``n`` points (cached per ``n``)."""
    ground = default_ground(n)
    relations = []
    for i in ground:
        relations.append(a_poly(i) * a_poly(i))
    pairs = list(itertools.combinations(ground, 2))
    for i, j in pairs:
        relations.append(a_poly(i) * b_poly(i, j))
        relations.append(a_poly(j) * b_poly(i, j))
    for i, j in pairs:
        relations.append(b_poly(i, j) * b_poly(i, j) + (a_poly(i) * a_poly(j)).scale(4))
    for i in ground:
        others = [x for x in ground if x != i]
        for j, k in itertools.combinations(others, 2):
            relations.append(b_poly(i, j) * b_poly(i, k) - a_poly(i) * b_poly(j, k))
    for six in itertools.combinations(ground, 6):
        relations.append(six_point_poly(six))
    socle_monomial = Monomial(tuple((gen_a(i), 1) for i in ground))
    return Presentation(
        label=f"xn:{len(ground)}",
        ground=ground,
        generators=[gen_a(i) for i in ground] + [gen_b(i, j) for i, j in pairs],
        relations=relations,
        socle_degree=len(ground),
        socle_monomial=socle_monomial,
    )


def six_point_poly(indices):
    """The matching sum over six distinct indices (15 cubic terms)."""
    idx = tuple(sorted(indices))
    if len(idx) != 6 or len(set(idx)) != 6:
        raise ValueError("need exactly six distinct indices")
    total = Poly.zero()
    for matching in perfect_matchings(idx):
        term = Poly.constant(1)
        for i, j in matching:
            term = term * b_poly(i, j)
        total = total + term
    return total


def six_point_relations(n, degree):
    """Degree-``degree`` relation vectors spanned by the matching sums.

    Every product (six-index matching sum) x (standard monomial of degree
    ``degree - 3``) is quadratic-normal-formed and written in coordinates
    over ``enumerate_standard_xn(n, degree)``.  Vectors are sparse dicts
    ``{standard index: coefficient}``; identically-zero products are
    omitted.  Returns ``(vectors, standard_list)``.

    Refuses (SizeCeilingError, labelled ``xn:n``) when the number of
    standard monomials, a closed form, passes ``algebra.SIZE_CEILING``
    (:func:`algebra.check_size`), before anything is enumerated.
    """
    # choose the a-indices, then the points of the b-pairs, then a perfect
    # matching of those points
    count = sum(
        comb(n, degree - pairs) * comb(n - degree + pairs, 2 * pairs)
        * prod(range(1, 2 * pairs, 2))
        for pairs in range(degree + 1)
        if degree + pairs <= n
    )
    check_size(f"xn:{n}", degree, count, "standard monomials")
    standard = enumerate_standard_xn(n, degree)
    index = {v: i for i, v in enumerate(standard)}
    vectors = []
    if degree < 3 or n < 6:
        return vectors, standard
    for six in itertools.combinations(default_ground(n), 6):
        base = six_point_poly(six)
        for mult in enumerate_standard_xn(n, degree - 3):
            nf = quadratic_normal_form(base * mult.to_poly())
            if nf.is_zero:
                continue
            vec = {}
            for m, c in nf.terms.items():
                vec[index[standard_from_monomial(m)]] = c
            vectors.append(vec)
    return vectors, standard


@cache
def standard_pairing(n, degree):
    """``(count, rank, dimension)`` in degree ``degree`` of the ring on ``n``
    points, without the generic engine (memoized): the number of standard
    monomials, the rank of their Gram matrix against their duals
    (:func:`standard_socle_coefficient`), and the dimension, the count
    minus the rank of :func:`six_point_relations` (which refuses past the
    size ceiling).

    Proof of the dimension.  Write the ring as P/(Q + M), with P the
    polynomial ring in the a's and b's, Q the ideal of the quadratic
    relations and M that of the matching sums.  The quadratic rewrite
    system terminates and is confluent, so every class of P/Q has one
    normal form and the standard monomials (the monomials no rule
    rewrites) are a basis of P/Q.  In degree d, M is spanned by the
    products f m of a matching sum f and a monomial m of degree d - 3;
    modulo Q, m is a combination of standard monomials of degree d - 3, so
    the image of M in P/Q is spanned by the normal forms of the products
    f s with s standard, which are exactly the vectors of
    :func:`six_point_relations` (a product with normal form zero adds
    nothing).  The dimension is therefore the standard count minus their
    rank.  With fewer than six points or below degree three there are no
    vectors and the standard monomials are a basis.
    """
    vectors, standard = six_point_relations(n, degree)
    reducer = SpanReducer(len(standard))
    for vec in vectors:
        cols = sorted(vec)
        reducer.insert(cols, [vec[c] for c in cols])
    ground = default_ground(n)
    duals = [dual_xn(w, n) for w in standard]
    gram = [[standard_socle_coefficient(v, w, ground) for w in duals] for v in standard]
    return len(standard), _integer_rank(gram), len(standard) - reducer.rank


# ----- socle evaluation without the generic engine -------------------------


def socle_coefficient(q, ground):
    """Socle evaluation via the rewrite system alone.

    Rewrites ``q`` to standard form and reads off the coefficient of the
    product of all point classes over ``ground``.  Equals the generic
    engine's normalized socle value, ``GradedRing.socle_values`` at the keys
    of ``q``'s terms summed with its coefficients, but needs no
    echelonization, so it scales to the large matching Grams.
    """
    nf = quadratic_normal_form(q)
    target = Monomial(tuple((gen_a(i), 1) for i in sorted(ground)))
    return nf.terms.get(target, 0)


def matching_cycle_count(u, v):
    """Number of cycles in the union multigraph of two perfect matchings.

    Every vertex has one edge from each matching, so the union is a
    disjoint set of even cycles (a shared pair counts as a 2-cycle).  The
    Gram entry of the two matching monomials is (-4) to this count.
    """
    next_u = {}
    next_v = {}
    for i, j in u:
        next_u[i], next_u[j] = j, i
    for i, j in v:
        next_v[i], next_v[j] = j, i
    if set(next_u) != set(next_v):
        raise ValueError("matchings must cover the same points")
    unseen = set(next_u)
    cycles = 0
    while unseen:
        start = min(unseen)
        node, use_u = start, True
        while True:
            unseen.discard(node)
            node = next_u[node] if use_u else next_v[node]
            use_u = not use_u
            if node == start and use_u:
                break
        cycles += 1
    return cycles


def standard_socle_coefficient(v, w, ground):
    """Socle coefficient of the product of two standard monomials, read off
    their index sets; equal to ``socle_coefficient(v.to_poly() *
    w.to_poly(), ground)`` but builds no polynomial.

    Write v = a(A) b(B) and w = a(A') b(B'), both standard inside
    ``ground`` = S.  The value is (-4)^c, c = ``matching_cycle_count(B,
    B')``, when

      * A and A' are disjoint,
      * neither a-part meets the other's b-support,
      * B and B' cover the same points, and
      * A, A' and that common b-support together cover S;

    otherwise it is 0.  The second condition is not tested separately: a
    standard a-part avoids its own b-support, so it follows from the third.

    Proof.  Every quadratic rewrite sends a monomial to a scalar times one
    monomial and never removes an a-factor, and the system is confluent,
    so v.w has one normal form, 0 or a scalar times one monomial, whatever
    the order of steps.  If v.w contains some a_i^2 or some a_i b_{i,j},
    that redex survives every step and the normal form is 0.  Otherwise
    the a-indices A + A' avoid the b-graph B + B'.  Each point meets at
    most one pair of B and one of B', so that graph is a disjoint union of
    paths and even cycles (a pair shared by B and B' is a 2-cycle).  The
    step b_{s,j} b_{s,k} -> a_s b_{j,k} at a point s of degree two removes
    s from its component and joins its neighbours, so the a-factor it adds
    meets no remaining pair and no other a-factor.  A path on k >= 2
    points thus contracts to a_(inner points) b_(ends), whose b-factor is
    never rewritten away, so the normal form is not the socle.  A cycle on
    2k points contracts by 2k - 2 steps of coefficient 1 to
    b_{j,l}^2 = -4 a_j a_l, so each cycle contributes -4 and an a-factor
    on each of its points.  The graph has no paths exactly when B and B'
    cover the same points; the normal form is then (-4)^c times the
    product of the a_i over A + A' + supp(B), which is the socle monomial
    exactly when those sets cover S.
    """
    b_support = v.support - v.A
    if (
        v.A & w.A
        or w.support - w.A != b_support
        or v.A | w.A | b_support != frozenset(ground)
    ):
        return 0
    return (-4) ** matching_cycle_count(v.B, w.B)


def matching_gram(m):
    """Gram matrix of all m-pair perfect matchings on 2m points, as a list
    of rows indexed ``gram[i][j]``.

    Row/column order is ``perfect_matchings(range(1, 2m+1))``.  Entries are
    socle evaluations of products of the corresponding standard monomials,
    computed through the rewrite system.  The matrix side is the double
    factorial (2m-1)!!, and a matrix of more entries than
    ``algebra.SIZE_CEILING`` is refused: m = 5 has (9!!)^2 = 893,025
    entries, m = 6 has 108,056,025.
    """
    if m < 1:
        raise ValueError("need at least one pair")
    check_size("matching-gram", None, prod(range(1, 2 * m, 2)) ** 2, "Gram entries")
    ground = default_ground(2 * m)
    matchings = perfect_matchings(ground)
    polys = [
        StandardMonomialXn.make((), matching).to_poly() for matching in matchings
    ]
    gram = []
    for i, vp in enumerate(polys):
        gram.append([
            gram[j][i] if j < i else socle_coefficient(vp * wp, ground)
            for j, wp in enumerate(polys)
        ])
    return gram


# ----- derivations of the named relations ----------------------------------


def verify_faber_relation():
    """Pull the known divisor relation on three points back to this ring.

    Expands
        K1 d12 + K1 d13 + K2 d23 - K1 d23 - K2 d13 - K3 d12 + 2 d12 d13
    (a relation among divisor classes on the 3-point universal curve) and
    reduces it with the obvious rules only -- a^2, a_i b_{i,j}, b^2; *not*
    the shared-index contraction, which is precisely what this relation
    proves.  The result is 2 (b12 b13 - a1 b23).
    """
    q = (
        k_poly(1) * d_poly(1, 2)
        + k_poly(1) * d_poly(1, 3)
        + k_poly(2) * d_poly(2, 3)
        - k_poly(1) * d_poly(2, 3)
        - k_poly(2) * d_poly(1, 3)
        - k_poly(3) * d_poly(1, 2)
        + (d_poly(1, 2) * d_poly(1, 3)).scale(2)
    )
    return quadratic_normal_form(q, contract_shared=False)


def fiber_pushforward(q, n):
    """Push a class on n points forward along the projection dropping the
    last point (an X-fiber bundle of relative dimension one).

    After rewriting to standard form, a term maps by: drop a factor ``a_n``
    (a point evaluates to 1 against the fiber); kill terms with a ``b_{i,n}``
    factor (the corrected diagonal pushes to zero); kill terms not involving
    the last point at all (they are pull-backs, one dimension short).
    """
    pairs = []
    for m, c in quadratic_normal_form(q).terms.items():
        a_exps, b_exps = _split_ab(m)
        if n in a_exps and not any(n in p for p in b_exps):
            del a_exps[n]
            pairs.append((_join_ab(a_exps, b_exps), c))
    return Poly(pairs)


def derive_six_point():
    """Derive the six-index matching relation from a Chern class identity.

    On seven points, the bundle of third-order jets along the length-7
    divisor has total Chern class  prod_d (1 + 3 K_d - Delta_d)  with
    Delta_d the sum of the diagonals with earlier points; comparison with
    the (trivially pulled back) rank-5 source bundle forces its third Chern
    class to vanish in codimension 3.  Multiplying by the point class a_7
    and pushing forward along the last projection lands the identity on six
    points, where it reads as *minus* the matching sum.
    """
    ground7 = default_ground(7)
    factors = []
    for d in ground7:
        u = a_poly(d).scale(6)
        for i in range(1, d):
            u = u - d_poly(i, d)
        factors.append(u)
    # Elementary symmetric polynomial e_3 of the degree-one factor parts.
    e = [Poly.constant(1), Poly.zero(), Poly.zero(), Poly.zero()]
    for u in factors:
        for k in (3, 2, 1):
            e[k] = e[k] + e[k - 1] * u
    q = e[3] * a_poly(7)
    return fiber_pushforward(q, 7)
