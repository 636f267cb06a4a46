"""Compactified-ring combinatorics: forests, duality, blocks, filtration."""

from collections import Counter
from functools import cmp_to_key
from itertools import combinations, groupby
from operator import attrgetter

import pytest

from tautring import fm

from tautring.algebra import GradedRing, Poly, _integer_rank, ring_for
from tautring.fm import (
    CrossCheckError,
    D_poly,
    Forest,
    StandardMonomialFM,
    _dpart_dict,
    _families,
    block_gram,
    block_pairing,
    dpart_key,
    dual_fm,
    engine_cross_check,
    enumerate_standard_fm,
    filtration_p,
    fm_presentation,
    fm_relation_counts,
    is_standard_fm,
    much_less,
    nested_or_disjoint,
    psi_pullback,
    subset_key,
)
from tautring.xn import (
    StandardMonomialXn,
    a_poly,
    b_poly,
    d_poly,
    dual_xn,
    socle_coefficient,
    standard_pairing,
    xn_presentation,
)

from conftest import socle_value, verdict

FROZEN_FM_HILBERT = {
    2: [1, 3, 1],
    3: [1, 7, 7, 1],
    4: [1, 15, 35, 15, 1],
}


# ----- orders and forests -----------------------------------------------------


def compare_subsets(I, J):
    ki, kj = subset_key(I), subset_key(J)
    return -1 if ki < kj else (1 if ki > kj else 0)


def forest_of(dpart):
    """Forest of a D-part; rejects overlapping non-nested index sets."""
    return Forest(_dpart_dict(dpart).keys())


def test_subset_order_examples():
    assert compare_subsets((1, 2), (1, 2, 3)) == -1  # size first
    assert compare_subsets((1, 2, 4), (1, 3, 4)) == -1  # then min of difference
    assert compare_subsets((2, 3), (1, 4)) == 1
    assert compare_subsets((1, 2, 3), (1, 2, 3)) == 0


# The D-part order and the relation << by their definitions, as scans; the
# sort keys and the closed form of ``much_less`` must agree with them.


def reference_compare_dparts(d1, d2):
    """Order on D-parts: scan subsets in increasing subset order; at the
    first subset where the exponents differ, the smaller exponent gives the
    smaller monomial.  Returns -1 / 0 / +1.
    """
    d1 = _dpart_dict(d1)
    d2 = _dpart_dict(d2)
    for t in sorted(set(d1) | set(d2), key=subset_key):
        e1 = d1.get(t, 0)
        e2 = d2.get(t, 0)
        if e1 != e2:
            return -1 if e1 < e2 else 1
    return 0


def reference_monomial_compare(v1, v2):
    """D-parts first, a/b-part lexicographic tiebreak."""
    c = reference_compare_dparts(v1.D, v2.D)
    if c:
        return c
    k1 = (tuple(sorted(v1.ab.A)), tuple(sorted(v1.ab.B)))
    k2 = (tuple(sorted(v2.ab.A)), tuple(sorted(v2.ab.B)))
    return -1 if k1 < k2 else (1 if k1 > k2 else 0)


def reference_much_less(v, w):
    """v << w: v is smaller than every single D-factor of w."""
    return all(
        reference_monomial_compare(v, StandardMonomialFM.make(w.n, D={s: 1})) == -1
        for s, _ in w.D
    )


def test_dpart_order_examples():
    # scanning in increasing subset order, the first differing exponent
    # decides; missing subsets count as exponent zero
    cmp = reference_compare_dparts
    assert cmp({(1, 2, 4): 1}, {(1, 2, 3): 1}) == -1
    assert cmp({(1, 2, 3): 1}, {(1, 2, 3): 1, (4, 5, 6): 1}) == -1
    assert cmp({(1, 2, 3): 2}, {(1, 2, 3): 1}) == 1
    assert cmp({(1, 2, 3): 1}, {(1, 2, 3): 1}) == 0
    for d1, d2 in [({(1, 2, 4): 1}, {(1, 2, 3): 1}),
                   ({(1, 2, 3): 1}, {(1, 2, 3): 1, (4, 5, 6): 1}),
                   ({(1, 2, 3): 1}, {(1, 2, 3): 2})]:
        k1, k2 = (dpart_key(StandardMonomialFM.make(6, D=d).D) for d in (d1, d2))
        assert k1 < k2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sort_key_and_much_less_agree_with_the_scan_definitions(n):
    standard = [v for d in range(n + 1) for v in enumerate_standard_fm(n, d)]
    for d in range(n + 1):
        found = enumerate_standard_fm(n, d)
        assert found == sorted(found, key=cmp_to_key(reference_monomial_compare))
    dparts = {v.D for v in standard}
    for D1 in dparts:
        for D2 in dparts:
            k1, k2 = dpart_key(D1), dpart_key(D2)
            assert (k1 > k2) - (k1 < k2) == reference_compare_dparts(D1, D2)
    # much_less reads only the D-parts, and the reference only whether v
    # has an a/b-part besides; the reference memo keys on both
    reference = {}
    for v in standard:
        for w in standard:
            memo = (v.D, bool(v.ab.degree), w.D)
            if memo not in reference:
                reference[memo] = reference_much_less(v, w)
            assert much_less(v, w) == reference[memo], (v, w)


def test_forest_rejects_overlapping_subsets():
    with pytest.raises(ValueError):
        Forest([(1, 2, 3), (2, 3, 4)])


def test_forest_shape_of_the_twenty_point_case():
    subsets = [
        tuple(range(1, 9)),     # I_1, root
        (1, 2, 3),              # I_2
        (4, 5, 6, 7),           # I_3
        tuple(range(9, 21)),    # I_4, root
        tuple(range(9, 19)),    # I_5
        (9, 10, 11, 12),        # I_6
        (13, 14, 15, 16),       # I_7
    ]
    forest = Forest(subsets)
    assert len(forest) == 7
    assert sum(map(len, forest.children)) == 5  # edges
    degrees = {forest.subsets[r]: len(forest.children[r]) for r in range(7)}
    assert degrees[tuple(range(1, 9))] == 2
    assert degrees[tuple(range(9, 19))] == 2
    assert degrees[tuple(range(9, 21))] == 1
    assert dict(zip(forest.subsets, forest.section)) == {
        tuple(range(1, 9)): 8 - 7 + 2,
        (1, 2, 3): 3,
        (4, 5, 6, 7): 4,
        tuple(range(9, 21)): 12 - 10 + 1,
        tuple(range(9, 19)): 10 - 8 + 2,
        (9, 10, 11, 12): 4,
        (13, 14, 15, 16): 4,
    }
    assert sorted(forest.subsets[r] for r in forest.roots) == [
        tuple(range(1, 9)),
        tuple(range(9, 21)),
    ]
    externals = {forest.subsets[r] for r in range(7) if not forest.children[r]}
    assert externals == {(1, 2, 3), (4, 5, 6, 7), (9, 10, 11, 12), (13, 14, 15, 16)}
    assert sorted(forest.s_set(20)) == [1, 9]


def test_section_sizes_give_the_old_branching_formulas():
    # the reference formulas, written out from the forest's sets: with U
    # the points of the c children of I, the bound min(|I| - 2, |I| - U +
    # c - 2) and the dual exponent |I| - U + c - 1 - e; the sign exponent
    # |union| + sum c; the filtration level ab-degree + sum over the roots
    # of (|I| - 1)
    def branching(forest, r):
        kids = forest.children[r]
        return len(forest.subsets[r]) - sum(len(forest.subsets[c]) for c in kids) + len(kids)

    for n in range(1, 8):
        for forest, _ in fm._dparts(n, n):
            assert [s - 2 for s in forest.section] == [
                min(len(forest.subsets[r]) - 2, branching(forest, r) - 2)
                for r in range(len(forest))]
            assert forest.sign_exponent() == len(forest.union) + sum(
                map(len, forest.children))
    for n in range(1, 7):
        for d in range(n + 1):
            for v in enumerate_standard_fm(n, d):
                forest = v.forest
                assert filtration_p(v) == v.ab.degree + sum(
                    len(forest.subsets[r]) - 1 for r in forest.roots)
                assert [e for _, e in dual_fm(v).D] == [
                    branching(forest, r) - 1 - e for r, (_, e) in enumerate(v.D)]


def test_families_come_depth_first_from_the_empty_family():
    a, b, c, d = (1, 2, 3), (4, 5, 6), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)
    # c meets b without nesting; every other pair is nested or disjoint
    laminar = list(_families([a, b, c, d], nested_or_disjoint))
    assert laminar == [(), (a,), (a, b), (a, b, d), (a, c), (a, c, d), (a, d),
                       (b,), (b, d), (c,), (c, d), (d,)]
    assert list(_families([a, b, c, d], nested_or_disjoint, max_size=1)) == [
        (), (a,), (b,), (c,), (d,)]
    assert list(_families([a, b, c, d], nested_or_disjoint, max_size=0)) == [()]
    assert list(_families([a, b, c], frozenset.isdisjoint)) == [(), (a,), (a, b), (b,), (c,)]


# ----- standardness -----------------------------------------------------------


def test_standardness_examples():
    mk = StandardMonomialFM.make
    assert is_standard_fm(mk(3, D={(1, 2, 3): 1}))
    assert not is_standard_fm(mk(3, D={(1, 2, 3): 2}))  # exponent bound
    assert not is_standard_fm(mk(3, A=[2], D={(1, 2, 3): 1}))  # S-rule
    assert is_standard_fm(mk(3, A=[1], D={(1, 2, 3): 1}))
    assert is_standard_fm(mk(4, D={(1, 2, 3, 4): 2}))
    assert not is_standard_fm(mk(4, D={(1, 2, 3, 4): 3}))
    # nested pair: outer exponent capped by the child-union correction
    # ({1..4} over {1,2,3} has bound 4-3+1-2 = 0: never standard)
    assert not is_standard_fm(mk(4, D={(1, 2, 3, 4): 1, (1, 2, 3): 1}))
    # with two free points the bound is 5-3+1-2 = 1
    assert is_standard_fm(mk(5, D={(1, 2, 3, 4, 5): 1, (1, 2, 3): 1}))
    assert not is_standard_fm(mk(5, D={(1, 2, 3, 4, 5): 2, (1, 2, 3): 1}))


def test_standard_monomial_equality_hash_and_validation():
    mk = StandardMonomialFM.make
    v = mk(4, A=[4], D={(3, 1, 2): 1})
    ab = StandardMonomialXn(frozenset({4}), frozenset())
    same = StandardMonomialFM(4, ab, Forest([(3, 2, 1)]), (1,))
    assert v == same and hash(v) == hash(same)
    assert hash(v) == hash((4, ab, (((1, 2, 3), 1),)))
    assert v != mk(5, A=[4], D={(1, 2, 3): 1})
    assert len({v, same, mk(4, D={(1, 2, 3): 1})}) == 2
    for bad in (dict(A=[5]),  # outside the ground set
                dict(A=[1], B=[(1, 2)]),  # a-index inside a pair
                dict(D={(1, 2): 1}),  # D-index set too small
                dict(D={(1, 2, 5): 1})):  # D-index set outside the ground set
        with pytest.raises(ValueError):
            mk(4, **bad)
    forest = Forest([(1, 2, 3), (1, 2, 3, 4)])
    with pytest.raises(ValueError):  # exponent list length differs from the forest
        StandardMonomialFM(4, StandardMonomialXn.make(), forest, (1,))
    with pytest.raises(ValueError):  # exponent below one
        StandardMonomialFM(4, StandardMonomialXn.make(), forest, (1, 0))


@pytest.mark.parametrize("dpart, message", [
    ({(1, 2, 3): 1, (2, 3, 4): 1}, "overlap without nesting"),
    ({(1, 2): 1}, "three or more distinct points"),
    ([((1, 1, 2, 3), 1)], "three or more distinct points"),
    ({(1, 2, 5): 1}, "outside the ground set"),
], ids=["non-laminar", "undersized", "repeated-point", "outside-the-ground-set"])
def test_make_refuses_a_bad_dpart(dpart, message):
    # a zero monomial with overlapping sets used to build, and raise only
    # when its forest was read
    with pytest.raises(ValueError, match=message):
        StandardMonomialFM.make(4, D=dpart)


def test_one_family_shares_one_forest():
    for d in range(6):
        forests = {}
        for v in enumerate_standard_fm(5, d):
            assert forests.setdefault(v.forest.subsets, v.forest) is v.forest
            assert dual_fm(v).forest is v.forest


def test_enumeration_counts_for_three_points():
    counts = [len(enumerate_standard_fm(3, d)) for d in range(4)]
    assert counts == [1, 7, 7, 1]
    names = {str(m) for m in enumerate_standard_fm(3, 2)}
    assert "a1*D(1,2,3)" in names


@pytest.mark.parametrize("n", range(1, 7))
def test_the_refused_count_is_the_enumerated_count(n, monkeypatch):
    # the count by D-part shape, checked before anything is enumerated, is
    # exact in every degree, above the socle degree too
    seen = []
    monkeypatch.setattr(fm, "check_size", lambda *args: seen.append(args))
    for d in range(n + 2):
        found = enumerate_standard_fm(n, d)
        assert seen == [(f"fm:{n}", d, len(found), "standard monomials")]
        seen.clear()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_counts_match_engine_dimensions(n):
    ring = ring_for(fm_presentation(n))
    for d in range(n + 1):
        assert len(enumerate_standard_fm(n, d)) >= ring.basis(d).dimension
    # at n <= 4 the standard monomials are exactly a basis in degrees 0..n
    # except the middle overcount appears first at n = 6; equality here:
    for d in range(n + 1):
        assert len(enumerate_standard_fm(n, d)) == ring.basis(d).dimension


# ----- duality ---------------------------------------------------------------


def test_dual_of_single_exceptional_divisor():
    v = StandardMonomialFM.make(3, D={(1, 2, 3): 1})
    w = dual_fm(v)
    assert w.serialize() == {"A": [1], "B": [], "D": [[[1, 2, 3], 1]]}


def test_dual_rejects_non_standard_input():
    v = StandardMonomialFM.make(3, D={(1, 2, 3): 2})
    with pytest.raises(ValueError):
        dual_fm(v)


def test_dual_reduces_to_power_ring_dual_without_d_part():
    from tautring.xn import dual_xn

    v = StandardMonomialFM.make(4, A=[2], B=[(3, 4)])
    w = dual_fm(v)
    ab = dual_xn(v.ab, 4)
    assert w.ab == ab and w.D == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_duality_is_an_involution(n):
    for d in range(n + 1):
        for v in enumerate_standard_fm(n, d):
            w = dual_fm(v)
            assert v.degree + w.degree == n
            assert dual_fm(w) == v


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_ab_part_is_a_power_ring_standard_monomial_on_the_section_set(n):
    for d in range(n + 1):
        found = enumerate_standard_fm(n, d)
        keys = [v.sort_key for v in found]
        assert keys == sorted(keys)
        for v in found:
            # the enumeration builds each monomial without normalizing it
            assert v == StandardMonomialFM.make(n, v.ab.A, v.ab.B, v.D)
            assert v.ab.support == v.ab.A | {i for p in v.ab.B for i in p}
            S = sorted(v.forest.s_set(n))
            assert dual_fm(v).ab == dual_xn(v.ab, len(S), ground=S)


def test_twenty_point_dual_exponents():
    subsets = {
        1: tuple(range(1, 9)),
        2: (1, 2, 3),
        3: (4, 5, 6, 7),
        4: tuple(range(9, 21)),
        5: tuple(range(9, 19)),
        6: (9, 10, 11, 12),
        7: (13, 14, 15, 16),
    }
    v = StandardMonomialFM.make(20, D={s: 1 for s in subsets.values()})
    assert is_standard_fm(v)
    w = dual_fm(v)
    assert sorted(w.ab.A) == [1, 9]
    exponents = dict(w.D)
    assert {r: exponents[s] for r, s in subsets.items()} == {
        1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 2,
    }
    assert dual_fm(w) == v


# ----- filtration and the coarse order ----------------------------------------


def test_filtration_examples():
    assert filtration_p(StandardMonomialFM.make(3, D={(1, 2, 3): 1})) == 2
    assert filtration_p(
        StandardMonomialFM.make(6, D={(1, 2, 3): 1, (4, 5, 6): 1})
    ) == 4
    assert filtration_p(StandardMonomialFM.make(3, A=[1], B=[(2, 3)])) == 2


def test_much_less_examples():
    a1 = StandardMonomialFM.make(3, A=[1])
    D = StandardMonomialFM.make(3, D={(1, 2, 3): 1})
    assert much_less(a1, D)          # a/b monomials sit below every D factor
    assert not much_less(D, D)
    assert much_less(D, StandardMonomialFM.make(3))  # vacuous: no D factors


@pytest.mark.parametrize("n", [2, 3, 4])
def test_filtration_vanishing_against_engine(n):
    # raises on any counterexample
    assert engine_cross_check(ring_for(fm_presentation(n))) == {2: 0, 3: 12, 4: 523}[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_filtration_check_visits_the_pairs_of_the_full_scan(n, monkeypatch):
    # the degree-bucketed scan tests exactly the pairs, in the same order,
    # that a scan over every ordered pair selects; a recording zero test
    # stands in for the engine and the block checks only record their
    # blocks, so no X[n] basis is built
    ring = GradedRing(fm_presentation(n))
    standard = [v for d in range(n + 1) for v in enumerate_standard_fm(n, d)]
    expected = []
    for v in standard:
        for w in standard:
            d = v.degree + w.degree
            if d <= n and filtration_p(v) + w.degree > n and much_less(w, v):
                expected.append((ring.monomial_key(v.to_monomial() * w.to_monomial()), d))
    seen = []
    ring.is_zero_key = lambda key, d: seen.append((key, d)) or True
    blocks = []
    monkeypatch.setattr(fm, "cross_check_blocks", lambda ring, found: blocks.append(found))
    assert engine_cross_check(ring) == len(expected)
    assert seen == expected
    assert len(expected) == {1: 0, 2: 0, 3: 12, 4: 523, 5: 20000}[n]
    # one list of blocks per degree, each block a run of one D-part with
    # the engine key of every member
    assert len(blocks) == n + 1
    for d, found in enumerate(blocks):
        assert found == keyed_blocks(ring, n, d)


# ----- presentation ----------------------------------------------------------


def test_presentation_families_at_three_points():
    counts = fm_relation_counts(3)
    assert counts["power-ring"] == 15
    assert counts["restriction-kernel"] == 6
    assert counts["chain-compatibility"] == 0  # needs |I_0| >= 4
    assert counts["self-intersection"] == 3
    assert counts["incompatible-products"] == 0


def test_self_intersection_relation_at_three_points():
    pres = fm_presentation(3)
    from tautring.fm import D_poly

    expected = (d_poly(1, 2) - D_poly((1, 2, 3))) * (d_poly(1, 3) - D_poly((1, 2, 3)))
    assert any(rel == expected for rel in pres.relations)


def test_incompatible_product_relation_at_four_points():
    pres = fm_presentation(4)
    from tautring.fm import D_poly

    expected = D_poly((1, 2, 3)) * D_poly((1, 2, 4))
    assert any(rel == expected for rel in pres.relations)


def test_chain_compatibility_count_at_four_points():
    # J_0 = {1..4}, one size-3 block, one leftover point u, three marks
    assert fm_relation_counts(4)["chain-compatibility"] == 12


@pytest.mark.parametrize("n", range(1, 7))
def test_the_relation_term_bound_covers_the_built_presentation(n):
    # the refusal's count, from subset counts alone, is at least the terms
    # the presentation builds: 85,092 against 58,089 at n = 6
    built = sum(len(rel.terms) for rel in fm_presentation(n).relations)
    bound = sum(fm._relation_terms(n))
    assert built <= bound == [2, 10, 102, 970, 8480, 85092][n - 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fm_hilbert_functions(n):
    ring = ring_for(fm_presentation(n))
    assert verdict(ring.gorenstein_check()) == "gorenstein"
    assert ring.hilbert() == FROZEN_FM_HILBERT[n]


# ----- psi pullback -----------------------------------------------------------


def test_psi_pullback_examples():
    assert psi_pullback(1, 1) == a_poly(1).scale(2)
    assert psi_pullback(2, 1) == a_poly(1).scale(2) + d_poly(1, 2)
    expected = (
        a_poly(1).scale(2) + d_poly(1, 2) + d_poly(1, 3) - D_poly((1, 2, 3))
    )
    assert psi_pullback(3, 1) == expected


def _psi_by_superset_sums(n, i):
    """psi_i as it is defined: 2 a_i + S({i}) + sum over j != i of
    (d_{i,j} - S({i, j})), with S(B) the sum of the D_J with J containing
    B, over every subset J of three or more points."""
    def superset_sum(base):
        return sum((D_poly(J) for size in range(3, n + 1)
                    for J in combinations(range(1, n + 1), size)
                    if set(base) <= set(J)), Poly.zero())

    total = a_poly(i).scale(2) + superset_sum({i})
    for j in range(1, n + 1):
        if j != i:
            total = total + d_poly(i, j) - superset_sum({i, j})
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_psi_pullback_closed_form_is_the_superset_sum_definition(n):
    for i in range(1, n + 1):
        assert psi_pullback(n, i) == _psi_by_superset_sums(n, i), i


def test_psi_pullback_rejects_bad_index():
    with pytest.raises(ValueError):
        psi_pullback(3, 4)


# ----- block pairing -----------------------------------------------------------


def keyed_blocks(ring, n, d):
    """The blocks of degree d as ``cross_check_blocks`` takes them: the runs
    of one D-part of the standard monomials, each member with its engine
    key."""
    return [[(v, ring.monomial_key(v.to_monomial())) for v in block]
            for block in member_blocks(n, d)]


def member_blocks(n, d):
    """The members of each block of degree d: the runs of one D-part of the
    standard monomials, in the monomial order."""
    return [list(block) for _, block in groupby(enumerate_standard_fm(n, d),
                                                attrgetter("D"))]


def shape_of(members):
    """The shape (|S|, k) of a block from its members."""
    return len(members[0].forest.s_set(members[0].n)), members[0].ab.degree


def test_block_example_at_three_points():
    members = next(b for b in member_blocks(3, 1) if b[0].D)
    gram = block_gram(members)
    assert members[0].forest.sign_exponent() == 3
    assert len(members) == 1
    assert gram[0][0] == -1  # (-1)^3 times the X^1 value 1
    # the block is the one block of its shape, whose record has rank and
    # dimension 1
    assert (1, 0, 1, (1, 1, 1)) in block_pairing(3)[1]
    ring = ring_for(fm_presentation(3))
    v = StandardMonomialFM.make(3, D={(1, 2, 3): 1})
    product = Poly.monomial(v.to_monomial()) * Poly.monomial(dual_fm(v).to_monomial())
    assert socle_value(ring, product) == -1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocks_cross_checked_against_engine(n):
    engine = ring_for(fm_presentation(n))
    for d, shapes in enumerate(block_pairing(n)):
        fm.cross_check_blocks(engine, keyed_blocks(engine, n, d))
        assert all(rank == dimension for *_, (_, rank, dimension) in shapes)
        rank_sum = sum(blocks * rank for _, _, blocks, (_, rank, _) in shapes)
        assert rank_sum == engine.basis(d).dimension


def test_triangularity_check_catches_blocks_out_of_order():
    # reversed, the blocks pair larger D-parts with the duals of smaller
    # ones, and X[4] has a nonzero such product in degree 2
    engine = ring_for(fm_presentation(4))
    blocks = keyed_blocks(engine, 4, 2)
    fm.cross_check_blocks(engine, blocks)
    with pytest.raises(CrossCheckError, match="triangularity fails"):
        fm.cross_check_blocks(engine, blocks[::-1])


@pytest.mark.parametrize("n", [5, 6])
def test_blocks_pass_conditionally_at_larger_sizes(n):
    rank_sums = []
    for shapes in block_pairing(n):
        assert all(rank == dimension for *_, (_, rank, dimension) in shapes)
        rank_sums.append(sum(blocks * rank for _, _, blocks, (_, rank, _) in shapes))
    assert rank_sums == rank_sums[::-1]


@pytest.mark.parametrize("n", range(8))
def test_dpart_tally_counts_the_walk(n):
    # the recursion's (|S|, weight) counts against one walk of the D-parts
    walked = Counter((len(forest.s_set(n)), sum(exps)) for forest, exps in fm._dparts(n, n))
    assert fm._dpart_tally(n) == walked


@pytest.mark.parametrize("n", range(1, 7))
def test_each_shape_counts_the_blocks_of_its_shape(n):
    # the D-part tally gives every degree the number of blocks of each
    # shape (|S|, k) that the standard monomials of that degree have
    table = block_pairing(n)
    assert len(table) == n + 1
    for d, shapes in enumerate(table):
        counted = Counter(shape_of(members) for members in member_blocks(n, d))
        assert {(size, k): blocks for size, k, blocks, _ in shapes} == counted, d
        assert all(record == standard_pairing(size, k) for size, k, _, record in shapes)


def test_block_grams_match_the_rewrite_path_at_five_points():
    n = 5
    checked = 0
    table = block_pairing(n)
    for d in range(n + 1):
        groups = member_blocks(n, d)
        assert len(groups) == sum(blocks for _, _, blocks, _ in table[d])
        for members in groups:
            gram = block_gram(members)
            forest = members[0].forest
            S = tuple(sorted(forest.s_set(n)))
            sign = (-1) ** forest.sign_exponent()
            for ii, v in enumerate(members):
                for jj, w in enumerate(members):
                    dual = dual_xn(w.ab, len(S), ground=S)
                    expected = sign * socle_coefficient(
                        v.ab.to_poly() * dual.to_poly(), S
                    )
                    assert gram[ii][jj] == expected, (d, v, w)
                    checked += 1
    assert checked == 7378


def test_empty_dpart_block_is_the_power_ring_pairing():
    members = next(b for b in member_blocks(3, 1) if not b[0].D)
    gram = block_gram(members)
    assert members[0].forest.sign_exponent() == 0
    assert members[0].forest.s_set(3) == {1, 2, 3}
    assert len(members) == 6 and _integer_rank(gram) == 6
    assert (3, 1, 1, (6, 6, 6)) in block_pairing(3)[1]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_block_gram_has_the_size_and_rank_of_its_shape_record(n):
    # block_pairing reads size and rank from the record of (|S|, k); each
    # block's own signed Gram on S, built directly, must agree with it
    for d in range(n + 1):
        for members in member_blocks(n, d):
            count, rank, _ = standard_pairing(*shape_of(members))
            assert (count, rank) == (len(members), _integer_rank(block_gram(members))), (
                d, members[0].D)


def test_forest_of_validates_laminarity():
    forest_of({(1, 2, 3): 1, (1, 2, 3, 4): 2})
    with pytest.raises(ValueError):
        forest_of({(1, 2, 3): 1, (3, 4, 5): 1})
