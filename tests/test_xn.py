"""Power-ring combinatorics: rewriting, standard monomials, matchings."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest

from tautring import xn
from tautring._kernel import SpanReducer
from tautring.algebra import Poly, SizeCeilingError, _integer_rank, gen_a, gen_b, ring_for
from tautring.xn import (
    StandardMonomialXn,
    a_poly,
    b_poly,
    closed_matching_gram,
    d_poly,
    default_ground,
    derive_six_point,
    dual_xn,
    enumerate_standard_xn,
    matching_block,
    matching_gram,
    perfect_matchings,
    quadratic_normal_form,
    six_point_poly,
    six_point_relations,
    socle_coefficient,
    standard_pairing,
    standard_product,
    standard_socle_coefficient,
    standard_supports,
    verify_faber_relation,
    xn_presentation,
)
from conftest import socle_value
from test_algebra import _fraction_kernel, monomial_from_factors

GOLDEN = Path(__file__).parent / "golden"

FROZEN_HILBERT = {
    1: [1, 1],
    2: [1, 3, 1],
    3: [1, 6, 6, 1],
    4: [1, 10, 21, 10, 1],
    5: [1, 15, 55, 55, 15, 1],
}


@pytest.mark.parametrize("n", sorted(FROZEN_HILBERT))
def test_power_ring_hilbert_functions(n):
    ring = ring_for(xn_presentation(n))
    assert ring.hilbert(n) == FROZEN_HILBERT[n]


@pytest.mark.parametrize("n", range(1, 8))
def test_standard_dimension_is_the_engine_dimension(n):
    # an independent Hilbert derivation, degree by degree: the standard
    # monomial count minus the rank of the matching-sum relation vectors
    # (below six points there are none, so the count alone is exact), and
    # the Gram rank of the standard monomials against their duals, which the
    # perfect pairing makes the dimension too; X^7 is compared with the
    # engine's Hilbert function in its golden report
    if n <= 6:
        ring = ring_for(xn_presentation(n))
        hilbert = [ring.basis(d).dimension for d in range(n + 1)]
    else:
        golden = json.loads((GOLDEN / f"xn-check-n-{n}.json").read_text())
        hilbert = golden["report"]["summary"]["hilbert"]
    records = [standard_pairing(n, d) for d in range(n + 1)]
    assert [dimension for _, _, dimension in records] == hilbert
    assert [rank for _, rank, _ in records] == hilbert
    if n < 6:
        assert hilbert == [len(enumerate_standard_xn(n, d)) for d in range(n + 1)]


def test_standard_dimension_refuses_past_the_size_ceiling(lower_ceiling):
    # the refusal counts the standard monomials, by a closed form checked
    # here against the enumeration (counted under the real ceiling, since
    # the enumeration itself refuses), and a record memoized under the real
    # ceiling does not get past a lowered one
    assert standard_pairing(5, 1) == (15, 15, 15)
    counts = {(n, d): len(enumerate_standard_xn(n, d))
              for n in range(1, 9) for d in range(n + 1)}
    for (n, d), count in counts.items():
        lower_ceiling(count - 1)
        with pytest.raises(SizeCeilingError) as info:
            standard_pairing(n, d)
        refused = info.value
        assert (refused.label, refused.degree, refused.count, refused.ceiling) == (
            f"xn:{n}", d, count, count - 1)


def test_standard_pairing_refuses_a_matching_gram_past_the_ceiling(lower_ceiling):
    # X^6 degree 3 has 215 standard monomials, under a ceiling of 220, but
    # its block of three pairs reads a matching Gram of 15 x 15 entries
    lower_ceiling(220)
    with pytest.raises(SizeCeilingError) as info:
        standard_pairing(6, 3)
    refused = info.value
    assert (refused.label, refused.degree, refused.count, refused.unit) == (
        "matching-gram", None, 225, "Gram entries")


def test_standard_pairing_refuses_a_negative_degree():
    with pytest.raises(ValueError):
        standard_pairing(5, -1)


@pytest.mark.parametrize("s", range(1, 8))
def test_standard_pairing_rank_is_the_dense_gram_rank(s):
    # the record reads its rank in matching blocks; the dense Gram of the
    # standard monomials against their duals is the oracle, and its nonzero
    # entries pair monomials of one a-part and one b-support, the premise
    # of the block proof
    ground = default_ground(s)
    for k in range(s + 1):
        standard = enumerate_standard_xn(s, k)
        duals = [dual_xn(w, s) for w in standard]
        gram = [[standard_socle_coefficient(v, w, ground) for w in duals]
                for v in standard]
        for v, row in zip(standard, gram):
            for w, entry in zip(standard, row):
                if entry:
                    assert v.A == w.A and v.support == w.support, (v, w)
        count, rank, _ = standard_pairing(s, k)
        assert (count, rank) == (len(standard), _integer_rank(gram)), (s, k)


def test_standard_pairing_builds_no_six_point_vector_and_enumerates_nothing(monkeypatch,
                                                                           fresh_records):
    # every record is read from the matching blocks alone: no six-point
    # vector, no enumeration and no dense Gram, for every shape up to X^8
    # (whose degrees 3 to 5 need delta_4); and the dimension is the pure
    # blocks' delta_m, for without the pure vectors X^6 reads dimension 215
    # against rank 214 in degree 3, so that shape's block check fails
    def refused(*args, **kwargs):
        raise AssertionError("the records build and enumerate nothing")

    for name in ("six_point_relations", "enumerate_standard_xn", "dual_xn",
                 "standard_socle_coefficient"):
        monkeypatch.setattr(xn, name, refused)
    for s in range(1, 9):
        for k in range(s + 1):
            standard_pairing(s, k)
    block = xn.matching_block
    monkeypatch.setattr(xn, "matching_block", lambda m: (block(m)[0], prod(range(1, 2 * m, 2))))
    assert standard_pairing(6, 3) == (215, 214, 215)


@pytest.mark.parametrize("s", range(1, 8))
def test_standard_dimension_is_the_count_minus_the_six_point_rank(s):
    # the oracle of the block dimension: the rank of every six-point vector
    # of X^s, built by products of standard monomials
    for k in range(s + 1):
        vectors, standard = six_point_relations(s, k)
        reducer = SpanReducer(len(standard))
        for vec in vectors:
            cols = sorted(vec)
            reducer.insert(cols, [vec[c] for c in cols])
        _, supports = standard_supports(s, k)
        dimension = sum(N * matching_block(m)[1] for m, N in enumerate(supports))
        assert standard_pairing(s, k)[2] == dimension == len(standard) - reducer.rank, (s, k)


def test_six_point_relation_count_at_degree_three():
    vectors, standard = six_point_relations(6, 3)
    assert len(standard) == 215
    assert len(vectors) == 1
    # the vector is exactly the sum of the 15 matching monomials
    matchings = perfect_matchings(range(1, 7))
    matching_idx = {
        standard.index(StandardMonomialXn.make((), m)) for m in matchings
    }
    assert set(vectors[0]) == matching_idx
    assert all(c == 1 for c in vectors[0].values())


@pytest.mark.parametrize("n", [6, 7])
def test_six_point_relations_equal_the_rewritten_products(n):
    # the vectors sum closed-form products; the oracle multiplies the
    # matching-sum polynomial by each multiplier and rewrites the product
    nonzero = 0
    for d in range(n + 1):
        vectors, standard = six_point_relations(n, d)
        index = {v.to_monomial(): i for i, v in enumerate(standard)}
        expected = []
        multipliers = [m.to_poly() for m in enumerate_standard_xn(n, d - 3)] if d >= 3 else []
        for six in itertools.combinations(default_ground(n), 6):
            matching_sum = six_point_poly(six)
            for mult in multipliers:
                nf = quadratic_normal_form(matching_sum * mult)
                if not nf.is_zero:
                    expected.append({index[m]: c for m, c in nf.terms.items()})
        assert vectors == expected, d
        nonzero += len(vectors)
    assert nonzero


def test_presentation_relation_count_at_six_points():
    assert len(xn_presentation(6).relations) == 112


# ----- rewriting -------------------------------------------------------------


def test_faber_relation_reduces_to_the_quadratic_pair():
    reduced = verify_faber_relation()
    expected = (b_poly(1, 2) * b_poly(1, 3) - a_poly(1) * b_poly(2, 3)).scale(2)
    assert reduced == expected


def test_six_point_derivation_gives_minus_the_matching_sum():
    assert derive_six_point() == -six_point_poly(range(1, 7))


def _rewrite_in_random_order(q, rng):
    """Normal form of ``q`` under the quadratic relations, rewriting a redex
    chosen at random at each step; shares no code with ``xn``."""
    out = Poly.zero()
    for m, c in q.terms.items():
        exps = dict(m.exps)
        while True:
            a_points = {g.data[0] for g in exps if g.kind == "a"}
            b_gens = sorted(g for g in exps if g.kind == "b")
            redexes = [("zero",) for g, e in exps.items() if g.kind == "a" and e >= 2]
            redexes += [("zero",) for g in b_gens if a_points & set(g.data)]
            redexes += [("square", g) for g in b_gens if exps[g] >= 2]
            redexes += [("shared", g, h) for g, h in itertools.combinations(b_gens, 2)
                        if set(g.data) & set(h.data)]
            if not redexes:
                out = out + Poly.monomial(monomial_from_factors(
                    g for g, e in exps.items() for _ in range(e)), c)
                break
            tag, *pair = rng.choice(redexes)
            if tag == "zero":
                break
            for g in pair:
                exps[g] -= 2 if tag == "square" else 1
            if tag == "square":  # b_{i,j}^2 = -4 a_i a_j
                c *= -4
                added = [gen_a(i) for i in pair[0].data]
            else:  # b_{s,j} b_{s,k} = a_s b_{j,k}
                (s,) = set(pair[0].data) & set(pair[1].data)
                j, k = (set(pair[0].data) ^ set(pair[1].data))
                added = [gen_a(s), gen_b(j, k)]
            for g in added:
                exps[g] = exps.get(g, 0) + 1
            exps = {g: e for g, e in exps.items() if e}
    return out


def test_normal_form_is_confluent_under_random_redex_choices():
    # the rewriting takes the first redex of a fixed scan order; any other
    # order reaches the same normal form.  Products of b's are the ones the
    # squares and the shared-index contraction act on; a few a's ride along.
    rng = random.Random(13579)
    pairs = [gen_b(i, j) for i, j in itertools.combinations(range(1, 6), 2)]
    nonzero = 0
    for degree in range(2, 5):
        for factors in itertools.combinations_with_replacement(pairs, degree):
            q = Poly.monomial(monomial_from_factors(factors))
            if rng.random() < 0.2:
                q = q * a_poly(rng.randrange(1, 6))
            reference = quadratic_normal_form(q)
            nonzero += not reference.is_zero
            for _ in range(3):
                assert _rewrite_in_random_order(q, rng) == reference
    assert nonzero > 100


def test_quadratic_normal_forms_on_five_points_are_pinned():
    # every a/b monomial of degree <= 4 on 5 points, with and without the
    # shared-index contraction: one line "monomial flag normal-form" each,
    # hashed; the digest and counts were computed with the rewriting that
    # built every redex on each step and took the first
    gens = sorted([gen_a(i) for i in range(1, 6)]
                  + [gen_b(i, j) for i, j in itertools.combinations(range(1, 6), 2)])
    lines = []
    for degree in range(5):
        for factors in itertools.combinations_with_replacement(gens, degree):
            m = monomial_from_factors(factors)
            for contract in (True, False):
                nf = quadratic_normal_form(Poly.monomial(m), contract_shared=contract)
                lines.append(f"{m} {int(contract)} {nf}")
    assert len(lines) == 7752
    assert sum(line.endswith(" 0") for line in lines) == 6185
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "98a900a31c478e2616b827928ce78c18ea71e1857f58aea1f5685a21d2523928")


def test_normal_forms_are_standard_monomials():
    rng = random.Random(8642)
    for _ in range(20):
        n = rng.randrange(2, 6)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        q = a_poly(rng.randrange(1, n + 1))
        for _ in range(rng.randrange(1, 3)):
            q = q * b_poly(*pairs[rng.randrange(len(pairs))])
        nf = quadratic_normal_form(q)
        for monomial in nf.terms:
            exps = dict(monomial.exps)
            assert set(exps.values()) == {1}
            StandardMonomialXn.make(  # raises if an a meets a pair or pairs meet
                [g.data[0] for g in exps if g.kind == "a"],
                [g.data for g in exps if g.kind == "b"])


def test_socle_coefficient_matches_engine():
    ring = ring_for(xn_presentation(3))
    ground = (1, 2, 3)
    polys = [
        a_poly(1) * a_poly(2) * a_poly(3),
        b_poly(1, 2) * b_poly(1, 3) * b_poly(2, 3),
        d_poly(1, 2) * d_poly(1, 3) * d_poly(2, 3),
        a_poly(1) * b_poly(2, 3) * b_poly(2, 3),
    ]
    for q in polys:
        assert socle_coefficient(q, ground) == socle_value(ring, q)


# ----- duality ---------------------------------------------------------------


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_duality_is_an_involution(n):
    for d in range(n + 1):
        for v in enumerate_standard_xn(n, d):
            w = dual_xn(v, n)
            assert w.degree == n - d
            assert dual_xn(w, n) == v


def test_dual_pairs_socle_to_one():
    # v . v* must hit the socle with a nonzero coefficient... not required;
    # but the diagonal of the standard/dual pairing at the matching sector
    # is (-4)^m, never zero
    for m in (1, 2):
        ground = tuple(range(1, 2 * m + 1))
        for matching in perfect_matchings(ground):
            v = StandardMonomialXn.make((), matching)
            w = dual_xn(v, 2 * m)
            value = socle_coefficient(v.to_poly() * w.to_poly(), ground)
            assert value == Fraction(-4) ** m


def _rewritten_socle(v, w, ground):
    return socle_coefficient(v.to_poly() * w.to_poly(), ground)


@pytest.mark.parametrize(
    "ground", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 3, 4, 6)]
)
def test_closed_form_socle_rule_matches_rewriting_on_all_pairs(ground):
    # every pair of degrees: the closed-form product against the rewritten
    # one, zero products and products off the socle included, and the
    # socle coefficient read off it; a-parts that overlap and still cover
    # the ground set occur only when the degrees add up to more than n
    n = len(ground)
    monomials = [
        v for d in range(n + 1) for v in enumerate_standard_xn(n, d, ground)
    ]
    values = set()
    kinds = set()  # None for zero, else (has cycles, keeps a pair)
    for v in monomials:
        for w in monomials:
            rewritten = quadratic_normal_form(v.to_poly() * w.to_poly())
            product = standard_product(v, w)
            if product is None:
                assert rewritten.is_zero, (v, w)
                kinds.add(None)
            else:
                cycles, u = product
                assert rewritten == u.to_poly().scale((-4) ** cycles), (v, w)
                kinds.add((cycles > 0, bool(u.B)))
            value = standard_socle_coefficient(v, w, ground)
            assert value == socle_coefficient(rewritten, ground), (v, w)
            values.add(value)
    assert values >= ({0, 1, -4} if n >= 2 else {0, 1})
    assert len(kinds) == (5 if n >= 4 else 4 if n >= 2 else 2)


def test_closed_form_socle_rule_matches_rewriting_at_five_points():
    ground = default_ground(5)
    checked = 0
    for d in range(6):
        for v in enumerate_standard_xn(5, d):
            for w in enumerate_standard_xn(5, 5 - d):
                assert standard_socle_coefficient(v, w, ground) == (
                    _rewritten_socle(v, w, ground)
                ), (v, w)
                checked += 1
    assert checked == 6502


def test_closed_form_socle_rule_examples():
    make = StandardMonomialXn.make
    ground = (1, 2, 3, 4)
    square = make((), ((1, 2), (3, 4)))
    crossed = make((), ((1, 3), (2, 4)))
    assert standard_socle_coefficient(square, square, ground) == 16  # two 2-cycles
    assert standard_socle_coefficient(square, crossed, ground) == -4  # a 4-cycle
    path = make((4,), ((1, 2),)), make((), ((2, 3),))  # -> a2 a4 b13
    assert standard_socle_coefficient(*path, ground) == 0
    overlap = make((1,)), make((1, 2))  # a1^2 a2, which covers {1, 2}
    assert standard_socle_coefficient(*overlap, (1, 2)) == 0


# ----- matching Gram ----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matching_gram_entries_follow_the_cycle_count(m):
    # the rewrite Gram is the oracle of the closed form the records read
    gram = matching_gram(m)
    points = range(1, 2 * m + 1)
    matchings = [StandardMonomialXn.make((), u) for u in perfect_matchings(points)]
    for i, u in enumerate(matchings):
        for j, v in enumerate(matchings):
            cycles, product = standard_product(u, v)
            assert product == StandardMonomialXn.make(points)
            assert gram[i][j] == Fraction(-4) ** cycles
    assert gram == closed_matching_gram(m)
    assert matching_block(m)[0] == _integer_rank(gram) == [1, 3, 14, 84][m - 1]


def test_pure_blocks_read_the_a005700_numbers():
    # rho_m and delta_m of the pure blocks against C_m C_{m+2} - C_{m+1}^2
    # (OEIS A005700), from Catalan numbers alone
    catalan = [comb(2 * i, i) // (i + 1) for i in range(7)]
    numbers = [catalan[m] * catalan[m + 2] - catalan[m + 1] ** 2 for m in range(5)]
    assert numbers == [1, 1, 3, 14, 84]
    assert [matching_block(m) for m in range(5)] == [(x, x) for x in numbers]


def _pure_vectors(m):
    """The columns, in ``perfect_matchings`` order, of each pure vector
    f_Q b(M) on 2m points: the 15 matchings of a six-set Q joined with a
    matching M of the other points, each with coefficient 1."""
    points = set(range(1, 2 * m + 1))
    index = {frozenset(u): i for i, u in enumerate(perfect_matchings(points))}
    return [sorted(index[frozenset(q + M)] for q in perfect_matchings(Q))
            for Q in itertools.combinations(sorted(points), 6)
            for M in perfect_matchings(points - set(Q))]


def test_pure_vectors_lie_in_the_kernel_of_the_matching_gram():
    # the premise of rho_m <= delta_m: each pure vector pairs to zero with
    # every matching; 1 vector for m = 3, 28 for m = 4
    for m, count in [(3, 1), (4, 28)]:
        vectors = _pure_vectors(m)
        assert len(vectors) == count
        gram = closed_matching_gram(m)
        for cols in vectors:
            assert all(sum(row[c] for c in cols) == 0 for row in gram), (m, cols)


def _crossings(matching):
    return sum(a < c < b < d or c < a < d < b
               for (a, b), (c, d) in itertools.combinations(matching, 2))


def test_a_three_crossing_is_the_strict_crossing_lead_of_its_pure_vector():
    # the premise of delta_m <= a_m: for every 3-crossed matching mu and
    # every 3-crossing Q of its arcs, mu has more crossings than each other
    # term of f_Q b(M), M the rest of mu; 1, 21 and 351 such mu for m = 3..5
    for m, crossed in [(3, 1), (4, 21), (5, 351)]:
        seen = 0
        for mu in perfect_matchings(range(1, 2 * m + 1)):
            triples = [t for t in itertools.combinations(mu, 3)
                       if t[0][0] < t[1][0] < t[2][0] < t[0][1] < t[1][1] < t[2][1]]
            seen += bool(triples)
            for triple in triples:
                M = tuple(arc for arc in mu if arc not in triple)
                Q = sorted(i for arc in triple for i in arc)
                others = [q for q in perfect_matchings(Q) if set(q) != set(triple)]
                assert len(others) == 14
                assert all(_crossings(q + M) < _crossings(mu) for q in others), (mu, triple)
        assert seen == crossed


@pytest.mark.parametrize("m", range(5))
def test_matching_block_agrees_with_the_pure_vector_elimination(m):
    # the oracle of the record: delta_m as (2m - 1)!! minus the rank of
    # every pure vector f_Q b(M), and rho_m as the rank of the whole Gram
    count = prod(range(1, 2 * m, 2))
    reducer = SpanReducer(count)
    for cols in _pure_vectors(m):
        reducer.insert(cols, [1] * 15)
    record = _integer_rank(closed_matching_gram(m)), count - reducer.rank
    assert matching_block(m) == record == (count - [0, 0, 0, 1, 21][m],) * 2


def test_a_singular_restricted_gram_raises_rather_than_gives_a_record(monkeypatch,
                                                                     fresh_records):
    # with the Gram of the 14 3-noncrossing matchings of m = 3 all zeros,
    # the bounds 0 <= rho_3 <= delta_3 <= 14 no longer meet: no record, and
    # X^6 degree 3, one block of m = 3, raises instead of reading a rank
    real = xn._closed_gram
    monkeypatch.setattr(xn, "_closed_gram",
                        lambda us: [[0] * 14] * 14 if len(us) == 14 else real(us))
    with pytest.raises(ArithmeticError, match="a_3 = 14, but its Gram has rank 0"):
        matching_block(3)
    with pytest.raises(ArithmeticError):
        standard_pairing(6, 3)
    assert matching_block(4) == (84, 84)


def test_matching_gram_three_pairs_has_corank_one():
    gram = matching_gram(3)
    assert _integer_rank(gram) == 14
    # the kernel vector comes from Fraction Gauss-Jordan, not the engine
    kernel = _fraction_kernel(gram)
    assert len(kernel) == 1
    vec = kernel[0]
    # kernel = the six-point vector: all 15 coordinates equal
    nonzero = [c for c in vec if c]
    assert len(nonzero) == 15
    assert len(set(nonzero)) == 1


def test_matching_gram_refuses_oversized_instances():
    with pytest.raises(SizeCeilingError):
        matching_gram(6)


def test_cycle_count_examples():
    make = StandardMonomialXn.make
    u = make((), ((1, 2), (3, 4)))
    v = make((), ((1, 3), (2, 4)))
    assert standard_product(u, u) == (2, make((1, 2, 3, 4)))  # two shared pairs
    assert standard_product(u, v) == (1, make((1, 2, 3, 4)))  # one 4-cycle
    # different supports leave a path: b12 b13 = a1 b23
    assert standard_product(make((), ((1, 2),)), make((), ((1, 3),))) == (
        0, make((1,), ((2, 3),)))


# ----- enumeration hygiene ----------------------------------------------------


def test_enumeration_is_sorted_and_duplicate_free():
    for n in (3, 5):
        for d in range(n + 1):
            std = enumerate_standard_xn(n, d)
            assert len(set(std)) == len(std)
            assert std == sorted(std, key=lambda s: s.sort_key)


def test_standard_monomial_serialization_round_trip():
    v = StandardMonomialXn.make((2,), ((3, 4),))
    payload = v.serialize()
    assert payload == {"A": [2], "B": [[3, 4]]}
    assert StandardMonomialXn.deserialize(payload) == v


@pytest.mark.parametrize("payload", [{"A": [True]}, {"A": [3.0]}, {"B": [[2.0, 3]]}])
def test_deserialization_refuses_indices_that_are_not_integers(payload):
    # JSON true and 3.0 equal the integers 1 and 3, but are not indices
    with pytest.raises(ValueError, match="integers"):
        StandardMonomialXn.deserialize(payload)


def test_standard_monomial_equality_hash_and_validation():
    v = StandardMonomialXn.make((2,), ((4, 3),))
    same = StandardMonomialXn(frozenset({2}), frozenset({(3, 4)}))
    assert v == same and hash(v) == hash(same)
    assert hash(v) == hash((frozenset({2}), frozenset({(3, 4)})))
    assert v != StandardMonomialXn.make((1,), ((3, 4),))
    assert len({v, same, StandardMonomialXn.make((), ((3, 4),))}) == 2
    with pytest.raises(ValueError):
        StandardMonomialXn(frozenset(), frozenset({(4, 3)}))  # pair not increasing
    with pytest.raises(ValueError):
        StandardMonomialXn.make((3,), ((3, 4),))  # a-index inside a pair
    with pytest.raises(ValueError):
        StandardMonomialXn.make((), ((1, 2), (2, 3)))  # pairs overlap
