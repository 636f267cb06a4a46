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

from ._kernel import _integer_rank
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


def standard_supports(size, degree):
    """``(count, [N_0, N_1, ...])``: N_m ways to choose, on ``size`` points,
    the a-part and the 2m-point b-support of a standard monomial of the
    given degree, and count = sum N_m (2m - 1)!! such monomials.  Refuses
    (SizeCeilingError, ``xn:<size>``) a count past ``algebra.SIZE_CEILING``.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    supports = [comb(size, degree - m) * comb(size - degree + m, 2 * m)
                for m in range(min(degree, size - degree) + 1)]
    count = sum(N * prod(range(1, 2 * m, 2)) for m, N in enumerate(supports))
    check_size(f"xn:{size}", degree, count, "standard monomials")
    return count, supports


def enumerate_standard_xn(n, degree, ground=None):
    """All standard monomials of the given degree, sorted by (A, B), after
    the refusal of :func:`standard_supports`."""
    ground = default_ground(n) if ground is None else tuple(sorted(ground))
    _, supports = standard_supports(len(ground), degree)
    out = []
    for npairs in range(len(supports)):
        for A in itertools.combinations(ground, degree - npairs):
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
    """Presentation of the ring for ``n`` points (cached per ``n``).

    Refuses (SizeCeilingError) before anything is built once the matching
    sums, 15 cubic terms for each six points, pass ``SIZE_CEILING``: n = 28
    needs 5,651,100 ``six-point terms``, n = 27 4,440,150.  Only the
    matching sums are counted: the quadratic relations number O(n^3), far
    below the ceiling wherever the matching sums pass it.
    """
    check_size(f"xn:{n}", None, 15 * comb(n, 6), "six-point terms")
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
    ``degree - 3``), summed term by term by :func:`standard_product`, as a
    sparse dict ``{index in enumerate_standard_xn(n, degree): coefficient}``;
    zero products are omitted.  Returns ``(vectors, standard_list)``.
    """
    standard = enumerate_standard_xn(n, degree)
    index = {v: i for i, v in enumerate(standard)}
    vectors = []
    if degree < 3 or n < 6:
        return vectors, standard
    multipliers = enumerate_standard_xn(n, degree - 3)
    for six in itertools.combinations(default_ground(n), 6):
        terms = [StandardMonomialXn.make((), m) for m in perfect_matchings(six)]
        for mult in multipliers:
            vec = {}
            for cycles, u in filter(None, (standard_product(t, mult) for t in terms)):
                vec[index[u]] = vec.get(index[u], 0) + (-4) ** cycles
            vec = {col: c for col, c in vec.items() if c}
            if vec:
                vectors.append(vec)
    return vectors, standard


def standard_pairing(n, degree):
    """``(count, rank, dimension)`` in degree ``degree`` of the ring on ``n``
    points, without the generic engine: the standard monomials, the rank
    of their pairing against their duals and the dimension, read largest
    block first (a refused Gram costs nothing) as sum N_m (2m-1)!!,
    sum N_m rho_m and sum N_m delta_m (:func:`standard_supports`,
    :func:`matching_block`).  The pairing factors through the ring, so
    every pure vector pairs to zero with every matching (tier-1 checks it
    for m = 3, 4: ``test_pure_vectors_lie_in_the_kernel_of_the_matching_gram``)
    and rho_m <= delta_m: rank = dimension if and only if rho_m = delta_m
    for every m with N_m > 0.

    Proof of the rank.  A standard monomial is an a-part A, a b-support
    T of 2m points and a perfect matching of T, with N_m choices of (A, T);
    dual(w) keeps w's matching and has the a-part ground - A_w - T_w.  By
    :func:`standard_product`, v.dual(w) reaches the socle monomial only
    when no path survives, so T_v = T_w, and when A_v, ground - A_w - T_w
    and T_v cover the ground, so A_v = A_w; its value is (-4) to the cycle
    count.  So the pairing has one block per (A, T), T's matching Gram.

    Proof of the dimension.  The quadratic rewrite system is terminating
    and confluent, so the standard monomials are a basis modulo the
    quadratic relations, and the dimension is the count minus the rank of
    the normal forms of f_P s (:func:`six_point_relations`), f_P the
    matching sum on six points P and s = a(A_s) b(B_s) standard, three
    degrees lower (any multiplier is a sum of such s).  If P meets A_s it
    is 0.  Else a point of P in T_s has degree two in each term's graph
    and every other point of P degree one, so each term has the a-part
    A = A_s + (P & T_s) and the b-support T = P ^ T_s.  A pair of B_s inside P
    gives 0 (its 3 matchings give -4 a_r a_x times the matching sum of the
    other four points, the 12 others +4 times it); else b_{r,j} b_{r,x} =
    a_r b_{j,x} moves each r in P & T_s to its partner x, and the vector is
    a(A) f_Q b(M), Q the moved P and M the rest of B_s: a pure vector on T.
    Each arises so (P = Q, s = a(A) b(M)): the block has dimension delta_m,
    (2m - 1)!! minus the rank of the pure vectors, which
    :func:`matching_block` bounds by a_m without building one.
    """
    count, supports = standard_supports(n, degree)
    rank = dimension = 0
    for m, N in reversed(list(enumerate(supports))):
        rho, delta = matching_block(m)
        rank += N * rho
        dimension += N * delta
    return count, rank, dimension


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


def standard_product(v, w):
    """The product of two standard monomials in closed form: ``(c, u)``
    with v.w = (-4)^c u and u standard, or None when v.w is zero; equal to
    ``quadratic_normal_form(v.to_poly() * w.to_poly())`` but builds no
    polynomial.

    Proof.  Write v = a(A) b(B) and w = a(A') b(B').  Every quadratic
    rewrite sends a monomial to a scalar times one monomial and never
    removes an a-factor, and the system is confluent, so v.w has one
    normal form, whatever the order of steps.  If A and A' meet, or an
    a-part meets the other's b-support, a redex a_i^2 or a_i b_{i,j}
    survives every step and the normal form is 0.  Otherwise A + A' avoid
    the b-graph B + B'.  Each point meets at most one pair of B and one of
    B', so that graph is a disjoint union of paths and even cycles (a pair
    shared by B and B' is a 2-cycle).  The step b_{s,j} b_{s,k} -> a_s
    b_{j,k} at a point s of degree two removes s from its component and
    joins its neighbours, and the a-factor it adds meets no remaining pair
    and no other a-factor.  So a path contracts to a_(inner points)
    b_(ends), and a walk from an end, a point of degree one, meets the
    whole path.  A cycle on 2k points contracts by 2k - 2 steps of
    coefficient 1 to b_{j,l}^2 = -4 a_j a_l: c counts the cycles, and each
    puts an a on each of its points.
    """
    if v.A & w.support or w.A & v.support:
        return None
    links = ({}, {})
    for side, pairs in zip(links, (v.B, w.B)):
        for i, j in pairs:
            side[i], side[j] = j, i
    ends = links[0].keys() ^ links[1].keys()
    A = set(v.A | w.A)
    B = []
    cycles = 0
    seen = set()
    for start in [*ends, *(links[0].keys() - ends)]:  # path ends first
        if start in seen:
            continue
        walk = [start]
        side = start not in links[0]
        while (point := links[side].get(walk[-1])) not in (None, start):
            walk.append(point)
            side = not side
        seen.update(walk)
        if point is None:
            A.update(walk[1:-1])
            B.append((walk[0], walk[-1]))
        else:
            cycles += 1
            A.update(walk)
    return cycles, StandardMonomialXn.make(A, B)


def standard_socle_coefficient(v, w, ground):
    """Socle coefficient of the product of two standard monomials over
    ``ground``: (-4)^c when :func:`standard_product` gives ``(c, u)`` with
    u the product of the a_i over ``ground``, and 0 otherwise; equal to
    ``socle_coefficient(v.to_poly() * w.to_poly(), ground)`` but builds no
    polynomial."""
    product = standard_product(v, w)
    if product is None or product[1].B or product[1].A != frozenset(ground):
        return 0
    return (-4) ** product[0]


def _matchings(m):
    """``perfect_matchings`` of 1..2m, refused when their Gram would have
    more than ``algebra.SIZE_CEILING`` entries ((2m - 1)!! squared)."""
    check_size("matching-gram", None, prod(range(1, 2 * m, 2)) ** 2, "Gram entries")
    return perfect_matchings(default_ground(2 * m))


def matching_gram(m):
    """Gram matrix of all m-pair perfect matchings on 2m points, as a list
    of rows indexed ``gram[i][j]``, the oracle of :func:`closed_matching_gram`.

    Row/column order is ``perfect_matchings(range(1, 2m+1))``.  Entries are
    socle evaluations of products of the corresponding standard monomials,
    computed through the rewrite system.  A matrix of more entries than
    ``algebra.SIZE_CEILING`` is refused: m = 5 has (9!!)^2 = 893,025
    entries, m = 6 has 108,056,025.
    """
    if m < 1:
        raise ValueError("need at least one pair")
    polys = [StandardMonomialXn.make((), u).to_poly() for u in _matchings(m)]
    ground = default_ground(2 * m)
    return _gram(polys, lambda v, w: socle_coefficient(v * w, ground))


def closed_matching_gram(m):
    """:func:`matching_gram` in closed form, in the same order and with the
    same refusal; m = 0 gives [[1]], the empty matching."""
    return _closed_gram(_matchings(m))


def _closed_gram(matchings):
    """The Gram of perfect matchings of the same points, in closed form.

    Proof.  Two perfect matchings u, v of the same 2m points join into a
    b-graph in which every point has degree two: no path survives, so by
    :func:`standard_product` b(u) b(v) = (-4)^c a(1..2m), c the number of
    cycles (a shared pair is a 2-cycle), and the entry is (-4)^c.
    """
    monomials = [StandardMonomialXn.make((), u) for u in matchings]
    return _gram(monomials, lambda u, v: (-4) ** standard_product(u, v)[0])


def _gram(items, entry):
    """The rows of ``entry(u, v)`` over a list of matching classes, in its
    order.  Their product commutes, so each entry below the diagonal
    mirrors the one above."""
    gram = []
    for i, u in enumerate(items):
        gram.append([gram[j][i] if j < i else entry(u, v) for j, v in enumerate(items)])
    return gram


@cache
def matching_block(m):
    """``(rho_m, delta_m)`` of the pure block on 2m points, under the
    refusal of :func:`_matchings` (memoized): rho_m the rank of
    :func:`closed_matching_gram` and delta_m = (2m - 1)!! minus the rank of
    the pure vectors f_Q b(M), Q a six-set and M a matching of the other
    points.  Both are a_m, the number of 3-noncrossing matchings, with no
    three pairwise crossing arcs: C_m C_{m+2} - C_{m+1}^2 (Chen, Deng, Du,
    Stanley, Yan, Trans. AMS 359, 2007), 1, 1, 3, 14, 84, 594 to m = 5.
    Raises ArithmeticError when their Gram ranks short of a_m.

    Proof.  Order the matchings by crossing number cr, the pairs of arcs
    (a b), (c d) with a < c < b < d.  Let mu cross three arcs
    (q1 q4)(q2 q5)(q3 q6) on Q = {q1 < ... < q6}, and M be its other arcs.
    The 15 terms of f_Q b(M) have coefficient 1 and mu is one of them;
    every other term has a smaller cr, for the crossings among the arcs of
    M are the same in every term, the full crossing is the only matching of
    six points with three crossings, and an arc of M with k points of Q
    inside it, a run of Q, crosses at most min(k, 6 - k) arcs of a matching
    of Q, as many as the full crossing does.  So these vectors, one per
    3-crossed mu, have distinct leads, their terms mu of largest cr: the
    pure vectors rank at least (2m - 1)!! - a_m, and delta_m <= a_m.  A
    submatrix ranks at most the whole, so rho_m is at least the rank of the
    Gram of the a_m 3-noncrossing matchings; and rho_m <= delta_m
    (:func:`standard_pairing`).  So when that rank reads a_m,
    a_m <= rho_m <= delta_m <= a_m.  It does for every m under the refusal,
    as the invariant theory of Sp(4) on H^1 of the curve leads one to
    expect (De Concini-Procesi, Adv. Math. 21, 1976); a short rank leaves
    the bounds apart, so it raises rather than give a record.
    """
    kept = [u for u in _matchings(m) if not any(
        a < c < e < b < d < f for (a, b), (c, d), (e, f) in itertools.combinations(u, 3))]
    rank = _integer_rank(_closed_gram(kept))
    if rank < len(kept):
        raise ArithmeticError(f"a_{m} = {len(kept)}, but its Gram has rank {rank}")
    return len(kept), len(kept)


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
