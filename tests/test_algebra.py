"""The graded-quotient engine against an independent brute-force oracle."""

import ast
import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautring import algebra
from tautring._kernel import SpanReducer
from tautring.algebra import (
    GradedBasis,
    GradedRing,
    Monomial,
    Poly,
    Presentation,
    PresentationError,
    SizeCeilingError,
    canonical_json,
    gen_a,
    gen_b,
    ring_for,
)
from tautring.cache import CachedRing, CacheStore, _basis_payload
from tautring.fm import fm_presentation
from tautring.xn import a_poly, b_poly, xn_presentation

from conftest import keyed, reference_normal_form, socle_value, verdict


# ----- independent oracle ----------------------------------------------------
#
# Re-derives graded dimensions with none of the engine's machinery: plain
# polynomial products, an explicit monomial list, and textbook Gaussian
# elimination over Fraction.  Slow, simple, and a genuinely separate path.


def monomial_from_factors(factors):
    """The monomial of an iterable of generators (repeats multiply up)."""
    acc = {}
    for g in factors:
        acc[g] = acc.get(g, 0) + 1
    return Monomial(tuple(sorted(acc.items(), key=lambda t: t[0].sort_key)))


def _all_monomials(generators, degree):
    out = [
        monomial_from_factors(combo)
        for combo in itertools.combinations_with_replacement(generators, degree)
    ]
    return sorted(out, key=lambda m: m.exps)


def _fraction_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows.pop(0)
        inv = Fraction(1) / head[col]
        head = [v * inv for v in head]
        rows = [
            [rv - r[col] * hv for rv, hv in zip(r, head)] if r[col] else r
            for r in rows
        ]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def _fraction_rref(rows):
    """Reduced row echelon form over Fraction by Gauss-Jordan: the nonzero
    rows, each with leading entry 1, and their pivot columns."""
    rows = [[Fraction(v) for v in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        head = [v / rows[top][col] for v in rows[top]]
        rows[top] = head
        for i, r in enumerate(rows):
            if i != top and r[col]:
                rows[i] = [rv - r[col] * hv for rv, hv in zip(r, head)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _fraction_kernel(rows):
    """Basis of the right nullspace over Fraction: one vector per non-pivot
    column j, with entry 1 at j, read off :func:`_fraction_rref`."""
    ncols = len(rows[0]) if rows else 0
    rref, pivots = _fraction_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def _oracle_rows(presentation, degree):
    """Every relation times every monomial multiplier of the right degree,
    as dense rows over all degree-``degree`` monomials, with the column
    index of each monomial."""
    monomials = _all_monomials(presentation.generators, degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for rel in presentation.relations:
        k = rel.degree()
        if k > degree:
            continue
        for mult in _all_monomials(presentation.generators, degree - k):
            product = rel * Poly.monomial(mult)
            row = [Fraction(0)] * len(monomials)
            for m, c in product.terms.items():
                row[index[m]] = c
            rows.append(row)
    return index, rows


def oracle_dimension(presentation, degree):
    index, rows = _oracle_rows(presentation, degree)
    return len(index) - (_fraction_rank(rows) if rows else 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_ring_dimensions_match_oracle(n):
    presentation = xn_presentation(n)
    ring = ring_for(presentation)
    for d in range(n + 2):
        assert ring.basis(d).dimension == oracle_dimension(presentation, d)


@pytest.mark.parametrize("n", [2, 3])
def test_compactified_ring_dimensions_match_oracle(n):
    presentation = fm_presentation(n)
    ring = ring_for(presentation)
    for d in range(n + 2):
        assert ring.basis(d).dimension == oracle_dimension(presentation, d)


def test_four_point_low_degrees_match_oracle():
    presentation = xn_presentation(4)
    ring = ring_for(presentation)
    for d in (0, 1, 2):
        assert ring.basis(d).dimension == oracle_dimension(presentation, d)


# ----- engine behavior --------------------------------------------------------


def test_hilbert_functions_are_palindromic():
    for n in range(1, 5):
        ring = ring_for(xn_presentation(n))
        dims = ring.hilbert(n)
        assert dims == dims[::-1]
        assert dims[0] == 1 and dims[n] == 1


def test_normal_form_kills_relation_multiples():
    # the RREF rows span I_d: every relation multiple reduces to zero
    rng = random.Random(424242)
    presentation = xn_presentation(3)
    ring = ring_for(presentation)
    monomials = _all_monomials(presentation.generators, 1)
    for _ in range(20):
        rel = rng.choice(presentation.relations)
        mult = rng.choice(monomials)
        product = rel * Poly.monomial(mult)
        d = product.degree()
        if d > presentation.socle_degree:
            continue
        assert not any(reference_normal_form(ring, keyed(ring, product), d))


@pytest.mark.parametrize("presentation",
                         [xn_presentation(n) for n in range(1, 6)]
                         + [fm_presentation(n) for n in range(1, 5)],
                         ids=[f"X^{n}" for n in range(1, 6)] + [f"X[{n}]" for n in range(1, 5)])
def test_key_helpers_agree_with_normal_forms(presentation):
    # every monomial of degree <= n, those in J' (no column) included:
    # is_zero_key against the normal form, socle_values against the ratio
    # of degree-n normal-form coordinates, summed in Fractions off the RREF
    ring = GradedRing(presentation)
    n = presentation.socle_degree
    gens = range(len(presentation.generators))
    socle_coord = reference_normal_form(
        ring, {ring.monomial_key(presentation.socle_monomial): 1}, n)[0]
    no_column = 0
    for d in range(n + 1):
        for combo in itertools.combinations_with_replacement(gens, d):
            key = sum(ring._gen_keys[g] for g in combo)
            nf = reference_normal_form(ring, {key: 1}, d)
            no_column += key not in ring.basis(d).col_of
            assert ring.is_zero_key(key, d) == (not any(nf)), (d, key)
            if d == n:
                (value,) = ring.socle_values([key])
                assert value == nf[0] / socle_coord, key
    assert no_column > 0 or n == 1
    assert ring.socle_table()[1] > 0


def test_socle_evaluation_of_socle_monomial_is_one():
    ring = ring_for(xn_presentation(3))
    socle = a_poly(1) * a_poly(2) * a_poly(3)
    assert socle_value(ring, socle) == 1


def test_two_point_gram_matrix_in_degree_one():
    # the socle values of the products of the degree-one quotient columns
    ring = ring_for(xn_presentation(2))
    basis = ring.basis(1)
    keys = [basis.keys[c] for c in basis.quotient_cols]
    gram = [ring.socle_values([r + c for c in keys]) for r in keys]
    assert gram == [[0, 1, 0], [1, 0, 0], [0, 0, -4]]
    assert ring.gram_rank(1) == 3


def _quadric_presentation(c1, c2, socle):
    """Generators a1, a2 and relations c1 a1^2 + c2 a2^2 and a1 a2, with
    socle monomial ``socle`` in degree 2: R = Q[a1, a2] / (the relations)
    has Hilbert function [1, 2, 1] and a perfect pairing."""
    x, y = gen_a(1), gen_a(2)
    return Presentation(
        label=f"quadric-{c1}-{c2}",
        ground=(1, 2),
        generators=[x, y],
        relations=[(a_poly(1) * a_poly(1)).scale(c1) + (a_poly(2) * a_poly(2)).scale(c2),
                   a_poly(1) * a_poly(2)],
        socle_degree=2,
        socle_monomial=Monomial(((x if socle == "a1^2" else y, 2),)),
    )


@pytest.mark.parametrize("c1, c2, socle, table, values", [
    # 2 a1^2 = a2^2: a2^2 is the quotient column, a1^2 reads 1/2
    (2, -1, "a2^2", ([1, 2], 2), [Fraction(1, 2), 1]),
    # a1^2 = -a2^2/2, so a2^2 = -2 a1^2: the socle's numerator is -1
    (2, 1, "a1^2", ([1, -2], 1), [1, -2]),
    # a1^2 = 2 a2^2: the socle is a pivot whose numerator is 2
    (1, -2, "a1^2", ([2, 1], 2), [1, Fraction(1, 2)]),
])
def test_a_socle_table_with_a_denominator(c1, c2, socle, table, values):
    # production rings all read a denominator of 1; these do not.  The
    # columns are a1^2 and a2^2 (a1 a2 lies in J)
    presentation = _quadric_presentation(c1, c2, socle)
    ring = GradedRing(presentation)
    keys = ring.basis(2).keys
    assert ring.socle_table() == table
    assert ring.socle_values(keys) == values
    assert ring.socle_values([ring.monomial_key(Monomial(((gen_a(1), 1), (gen_a(2), 1))))]) == [0]
    socle_coord = reference_normal_form(
        ring, {ring.monomial_key(presentation.socle_monomial): 1}, 2)[0]
    assert [reference_normal_form(ring, {key: 1}, 2)[0] / socle_coord for key in keys] == values
    assert verdict(ring.gorenstein_check()) == "gorenstein"
    assert ring.hilbert() == [1, 2, 1]
    assert ring.gram_rank(1) == 2


def test_size_ceiling_refusal(lower_ceiling):
    # the ceiling counts columns, the monomials outside the grown ideal J':
    # 39 in degree 2 of X^4, 90 in degree 3 and 17 in degree 4
    lower_ceiling(50)
    ring = GradedRing(xn_presentation(4))
    with pytest.raises(SizeCeilingError) as info:
        ring.basis(4)
    assert info.value.degree == 3
    assert info.value.ceiling == 50
    assert info.value.count > 50


def test_ring_registry_reuses_instances():
    r1 = ring_for(xn_presentation(3))
    r2 = ring_for(xn_presentation(3))
    assert r1 is r2


def test_ring_registry_finds_a_ring_without_hashing_its_presentation():
    presentation = _higher_degree_ideal_presentation()
    assert ring_for(presentation) is ring_for(presentation)
    assert presentation._hash is None  # content_hash was never computed


def test_ring_registry_evicts_the_least_recently_used_ring():
    size = ring_for.cache_info().maxsize
    presentations = [_higher_degree_ideal_presentation() for _ in range(size + 1)]
    rings = [ring_for(p) for p in presentations[:size]]
    assert ring_for(presentations[0]) is rings[0]  # now the most recent
    ring_for(presentations[size])  # evicts presentations[1], the oldest
    assert ring_for.cache_info().currsize <= size
    assert ring_for(presentations[0]) is rings[0]
    assert ring_for(presentations[1]) is not rings[1]


def test_presentation_hash_is_stable_and_distinguishing():
    p3 = xn_presentation(3)
    assert p3.content_hash == xn_presentation(3).content_hash
    assert p3.content_hash != xn_presentation(4).content_hash
    assert p3.content_hash != fm_presentation(3).content_hash


# content hashes of the shipped presentations; they are part of every cache key
PINNED_HASHES = {
    "xn:1": "6cc26c394eb2626fcc5e596a9b04f0d00a759202cb25ddeef908a12db85e1c18",
    "xn:2": "82c1368c91a89a2cea5a80c4d2182a801c596dc62e4b6a5cf96a57d75881aa47",
    "xn:3": "c3c5b7e5919559bb735d16da17d5d151677db649381880c89937e7d787ddcffa",
    "xn:4": "cc435aa60be020a38a34275d476fdb3a2bd2a9750cf127812d575a2830f14f1d",
    "xn:5": "7ccd7581c4b9fd7e2d9ed3dfc667fd5f97fe31024330c8025c85758a46290c99",
    "fm:1": "3b1eb92ada8d346b5f684efad3689694046a7023667797103f16f2e906ea2113",
    "fm:2": "70775d99aa1c540124b1431c5ecc24b76e41d522f9d14ecb266efed1c468cacd",
    "fm:3": "06779d7c4d385fae1c62ba0b14d96b02c8e8d1630139817424fafbbb8c7c41d6",
    "fm:4": "ced70be956266fb63f9a171d110cc782c98291413012f35b389a3ccd475008ef",
    "fm:5": "841a380b5262c9505de6fa193b6765643fde46dc3c95641b2e9262a772da4ec9",
}


def test_presentation_hashes_are_pinned():
    shipped = [xn_presentation(n) for n in range(1, 6)]
    shipped += [fm_presentation(n) for n in range(1, 6)]
    assert {p.label: p.content_hash for p in shipped} == PINNED_HASHES


def test_sha256_matches_hashlib():
    # hashlib (and with it OpenSSL) is imported here only, as the reference
    import hashlib

    mib = bytes(range(256)) * 4096
    for data in (b"", "Faber é ψ ∈ R^*(M_{2,n})".encode("utf-8"), mib):
        assert algebra.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    piecewise = algebra.sha256()
    for start in range(0, len(mib), 100_000):
        piecewise.update(mib[start:start + 100_000])
    assert piecewise.hexdigest() == algebra.sha256(mib).hexdigest()
    assert piecewise.hexdigest() == hashlib.sha256(mib).hexdigest()


def _package_modules():
    """``(file name, syntax tree)`` of each module of the package."""
    package = os.path.dirname(algebra.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                yield name, ast.parse(handle.read(), name)


def test_sha256_has_one_home():
    # no module of the package imports hashlib, and only algebra.py imports
    # CPython's own SHA-256 modules
    sha_homes = set()
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            roots = {module.split(".")[0] for module in modules}
            assert "hashlib" not in roots, name
            if roots & {"_sha2", "_sha256"}:
                sha_homes.add(name)
    assert sha_homes == {"algebra.py"}


def test_size_ceiling_has_one_home():
    # the column ceiling is the constant algebra.SIZE_CEILING: no other module
    # names it, and no function takes a size_ceiling to pass along
    ceiling_homes = set()
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.arg) and node.arg == "size_ceiling"), name
            if (isinstance(node, ast.Name) and node.id == "SIZE_CEILING"
                    or isinstance(node, ast.Attribute) and node.attr == "SIZE_CEILING"
                    or isinstance(node, ast.alias) and node.name == "SIZE_CEILING"):
                ceiling_homes.add(name)
    assert ceiling_homes == {"algebra.py"}


def test_generator_hash_order_and_validation():
    a1, b12, d123 = gen_a(1), gen_b(2, 1), algebra.gen_D([3, 1, 2])
    assert hash(a1) == hash(("a", (1,)))
    assert hash(b12) == hash(("b", (1, 2)))
    assert hash(d123) == hash(("D", (1, 2, 3)))
    assert a1 == algebra.Generator("a", (1,)) and a1 != gen_a(2)
    # kinds a < b < D, then the size of the index data, then the data
    gens = [algebra.gen_D([1, 2, 3, 4]), d123, gen_b(2, 3), b12, gen_a(2), a1]
    assert sorted(gens) == gens[::-1]
    assert a1.sort_key == (0, 1, (1,))
    for kind, data in (("a", (0,)), ("b", (2, 1)), ("D", (1, 2)), ("D", (2, 1, 3)),
                       ("c", (1,))):
        with pytest.raises(ValueError):
            algebra.Generator(kind, data)


def test_monomial_hash_and_validation():
    a1, a2, b12 = gen_a(1), gen_a(2), gen_b(1, 2)
    m = Monomial(((a1, 2), (b12, 1)))
    assert hash(m) == hash((((a1, 2), (b12, 1)),))
    assert m.degree == 3 and hash(Monomial()) == hash(((),))
    for bad in (((b12, 1), (a1, 1)),  # unsorted
                ((a1, 1), (a1, 1)),  # repeated
                ((a1, 0),),  # non-positive exponent
                ((a1, 1), (a2, -1))):
        with pytest.raises(ValueError):
            Monomial(bad)


def test_product_monomials_equal_validated_ones():
    a1, a2, b12 = gen_a(1), gen_a(2), gen_b(1, 2)
    x = Monomial(((a2, 1), (b12, 1)))
    y = Monomial(((a1, 1), (a2, 2)))
    product = x * y
    built = Monomial(((a1, 1), (a2, 3), (b12, 1)))
    assert product == built and hash(product) == hash(built)
    assert product.degree == 5 and product.sort_key == built.sort_key
    assert x * Monomial() == x and Monomial() * x == x
    assert monomial_from_factors([b12, a2, a1, a2, a2]) == built


def test_poly_stores_integral_coefficients_as_ints():
    m = Monomial(((gen_a(1), 1),))
    p = Poly([(m, 3), (m, -1)])
    assert type(p.terms[m]) is int and p.terms[m] == 2
    assert p.to_payload() == [[m.to_payload(), "2"]] and str(p) == "2*a1"
    for q in (p + p, p * Poly.constant(3), p.scale(-2), -p):
        assert type(q.terms[m]) is int
    assert Poly([(m, 2), (m, -2)]).is_zero and (p - p).is_zero


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), 2.0])
def test_a_presentation_refuses_a_coefficient_that_is_not_an_int(coeff):
    # the engine's input boundary: an integral Fraction is refused too
    x = gen_a(1)
    with pytest.raises(PresentationError, match="not an int"):
        Presentation("fraction", (1,), [x], [Poly({Monomial(((x, 2),)): coeff})],
                     1, Monomial(((x, 1),)))


def test_a_presentation_refuses_a_mixed_degree_relation():
    gens = [gen_a(1), gen_a(2)]
    with pytest.raises(PresentationError, match="not homogeneous"):
        Presentation("mixed", (1, 2), gens, [a_poly(1) + a_poly(1) * a_poly(2)],
                     2, Monomial(((gens[0], 1), (gens[1], 1))))


def test_mixed_degree_polynomials_are_rejected():
    q = a_poly(1) + a_poly(1) * a_poly(2)
    with pytest.raises(ValueError):
        q.degree()


def _zero_degree_two():
    # a1^2 = a2^2 = a1 a2 = 0 kills all of degree 2, so the declared socle
    # is unreachable
    return Presentation(
        label="defective-demo",
        ground=(1, 2),
        generators=[gen_a(1), gen_a(2)],
        relations=[a_poly(1) * a_poly(1), a_poly(2) * a_poly(2), a_poly(1) * a_poly(2)],
        socle_degree=2,
        socle_monomial=Monomial(((gen_a(1), 1), (gen_a(2), 1))),
    )


def _socle_in_the_ideal():
    # R_2 = Q*[a1 a2] is one-dimensional, but the declared socle a1^2 lies
    # in J, so its class is zero and cannot span the socle
    return Presentation(
        label="socle-in-ideal",
        ground=(1, 2),
        generators=[gen_a(1), gen_a(2)],
        relations=[a_poly(1) * a_poly(1), a_poly(2) * a_poly(2)],
        socle_degree=2,
        socle_monomial=Monomial(((gen_a(1), 2),)),
    )


def _asymmetric():
    # Q[x, y] / (x^2 y, x y^2, x^3 - y^3): Hilbert function [1, 2, 3, 1],
    # socle x^3.  x pairs only with x^2 and y only with y^2, so the
    # degree-1 Gram against degree 2 has full row rank 2, but it is 2 by 3
    x, y = gen_a(1), gen_a(2)
    return Presentation(
        label="asymmetric",
        ground=(1, 2),
        generators=[x, y],
        relations=[a_poly(1) * a_poly(1) * a_poly(2), a_poly(1) * a_poly(2) * a_poly(2),
                   a_poly(1) * a_poly(1) * a_poly(1) - a_poly(2) * a_poly(2) * a_poly(2)],
        socle_degree=3,
        socle_monomial=Monomial(((x, 3),)),
    )


def test_defective_presentation_is_reported():
    # the verdict must not be "gorenstein"
    checks = ring_for(_zero_degree_two()).gorenstein_check()
    assert verdict(checks) == "defective"
    assert checks[0][:2] == ("socle-dimension", False)


def test_socle_monomial_in_the_ideal_is_reported():
    ring = GradedRing(_socle_in_the_ideal())
    (name, passed, witness), *_ = ring.gorenstein_check()
    assert ring.hilbert() == [1, 2, 1]
    assert (name, passed) == ("socle-dimension", False)
    assert "evaluates to zero" in witness["note"]
    assert verdict(ring.gorenstein_check()) == "defective"


def test_a_full_rank_gram_between_unequal_dimensions_is_not_perfect():
    # rank = dim R_1 = 2, but dim R_2 = 3: the pairing fails on both sides
    ring = GradedRing(_asymmetric())
    checks = ring.gorenstein_check()
    assert ring.hilbert(4) == [1, 2, 3, 1, 0]
    assert [(name, passed) for name, passed, _ in checks] == [
        ("socle-dimension", True), ("vanishing-above-socle", True),
        ("pairing-degree-0", True), ("pairing-degree-1", False),
        ("pairing-degree-2", False), ("pairing-degree-3", True)]
    assert checks[3][2] == {"dimension": 2, "complement_dimension": 3, "gram_rank": 2}


def test_poly_arithmetic_basics():
    p = (a_poly(1) + b_poly(1, 2)) * a_poly(2)
    assert p.degree() == 2
    assert (p - p).is_zero
    assert p.scale(0).is_zero


# ----- the monomial ideal J and vanishing above the socle ---------------------


@pytest.mark.parametrize(
    "presentation",
    [xn_presentation(n) for n in range(1, 6)] + [fm_presentation(n) for n in (2, 3)],
    ids=lambda p: p.label,
)
def test_vanishing_lemma_agrees_with_explicit_elimination(presentation):
    n = presentation.socle_degree
    ring = GradedRing(presentation)
    assert ring._above_socle_dimension() == 0
    assert n + 1 not in ring._basis_memo  # decided by the lemma, not built
    assert ring.basis(n + 1).dimension == 0


def _one_generator_ring():
    # one generator x, no relations, socle x in degree 1: R_2 = Q*x^2, so
    # the lemma's hypothesis (some factor x of s with x*s in J) fails
    x = gen_a(1)
    return GradedRing(Presentation(
        label="free-one-generator",
        ground=(1,),
        generators=[x],
        relations=[],
        socle_degree=1,
        socle_monomial=Monomial(((x, 1),)),
    ))


def test_vanishing_falls_back_to_elimination_when_the_lemma_does_not_apply():
    ring = _one_generator_ring()
    checks = ring.gorenstein_check()
    assert checks[1] == ("vanishing-above-socle", False, {"dimension": 1})
    assert verdict(checks) == "defective"
    assert 2 in ring._basis_memo
    assert ring.hilbert(3) == [1, 1, 1, 1]


def test_hilbert_above_the_socle_is_zero_without_building():
    ring = GradedRing(xn_presentation(2))
    assert ring.hilbert(70) == [1, 3, 1] + [0] * 68
    assert max(ring._basis_memo) == 2


def test_packing_refusal_carries_no_count():
    ring = _one_generator_ring()
    with pytest.raises(SizeCeilingError) as info:
        ring.basis(ring._degree_cap + 1)
    assert info.value.count is None
    assert "packing" in info.value.reason


def test_monomials_in_the_ideal_are_zero():
    ring = ring_for(xn_presentation(3))
    in_j = a_poly(1) * a_poly(1) * a_poly(2)  # a1^2 divides it
    rest = b_poly(1, 2) * b_poly(1, 2) * a_poly(3)
    assert reference_normal_form(ring, keyed(ring, in_j), 3) == [0] * ring.basis(3).dimension
    assert (reference_normal_form(ring, keyed(ring, in_j + rest), 3)
            == reference_normal_form(ring, keyed(ring, rest), 3))
    assert socle_value(ring, in_j) == 0
    assert socle_value(ring, in_j + a_poly(1) * a_poly(2) * a_poly(3)) == 1


def test_foreign_generators_are_refused():
    # monomial_key is the one way in from a symbolic monomial
    ring = ring_for(xn_presentation(2))
    for q in (a_poly(3), a_poly(1) * a_poly(3)):
        with pytest.raises(PresentationError):
            keyed(ring, q)


def _higher_degree_ideal_presentation():
    # J generators of degree 1 (a3), with a squared quotient (a1*a2^2) and
    # of degree 3 (a1^3), next to one multi-term relation
    a1, a2, a3 = gen_a(1), gen_a(2), gen_a(3)
    return Presentation(
        label="higher-degree-ideal",
        ground=(1, 2, 3),
        generators=[a1, a2, a3],
        relations=[
            a_poly(1) * a_poly(1) * a_poly(1),
            a_poly(1) * a_poly(2) * a_poly(2),
            a_poly(3),
            a_poly(1) * a_poly(2) - a_poly(2) * a_poly(2),
        ],
        socle_degree=3,
        socle_monomial=Monomial(((a1, 2), (a2, 1))),
    )


@pytest.mark.parametrize(
    "presentation",
    [fm_presentation(3), _higher_degree_ideal_presentation()],
    ids=lambda p: p.label,
)
def test_columns_are_the_monomials_outside_the_ideal_in_reference_order(presentation):
    # the columns of degree d are the monomials outside the ideal of J and of
    # the dead monomials below d: the pivots whose RREF row has no tail
    ring = GradedRing(presentation)
    ideal = [
        ring.monomial_key(next(iter(rel.terms)))
        for rel in presentation.relations if len(rel.terms) == 1
    ]

    def divides(j, key):
        return all(
            (key >> shift) & ring._mask >= (j >> shift) & ring._mask
            for shift in range(0, ring._bits * len(presentation.generators), ring._bits)
        )

    for d in range(6):
        everything = [
            sum(c) for c in itertools.combinations_with_replacement(ring._gen_keys, d)
        ]
        outside = [k for k in everything if not any(divides(j, k) for j in ideal)]
        basis = ring.basis(d)
        assert basis.keys == outside
        assert basis.col_of == {k: c for c, k in enumerate(outside)}
        ideal += [basis.keys[lead] for lead, (cols, _) in basis.rref().items()
                  if len(cols) == 1]
    assert len(ideal) > sum(len(rel.terms) == 1 for rel in presentation.relations)


@pytest.mark.parametrize(
    "presentation, top",
    [(xn_presentation(n), n) for n in (1, 2, 3)]
    # the dense oracle takes about 35 s per rank at degree 4 of X^4 (715
    # monomials), where X^4 has no dead monomial
    + [(xn_presentation(4), 3), (fm_presentation(3), 3),
       (_higher_degree_ideal_presentation(), 3)],
    ids=lambda p: getattr(p, "label", p),
)
def test_every_dead_monomial_lies_in_the_ideal(presentation, top):
    # a monomial the engine drops from every higher degree must be zero in R:
    # its unit row lies in the span of the oracle's relation rows, built up
    # to degree ``top``
    ring = GradedRing(presentation)
    found = 0
    for d in range(presentation.socle_degree + 1):
        basis = ring.basis(d)
        dead = set(basis.keys) - basis.alive
        if not dead:
            continue
        assert d <= top, f"{len(dead)} dead monomials in degree {d}, beyond the oracle"
        index, rows = _oracle_rows(presentation, d)
        units = _unit_rows(ring, index, dead)
        assert _fraction_rank(rows + units) == _fraction_rank(rows), d
        found += len(dead)
    assert found or presentation.label in ("xn:1", "xn:2")


def _unit_rows(ring, index, keys):
    """The unit rows, over the oracle's column ``index``, of the monomials
    with these packed keys: they lie in the ideal iff they add no rank."""
    index = {ring.monomial_key(m): i for m, i in index.items()}
    units = []
    for key in keys:
        unit = [Fraction(0)] * len(index)
        unit[index[key]] = Fraction(1)
        units.append(unit)
    return units


def test_higher_degree_ideal_dimensions_match_oracle():
    presentation = _higher_degree_ideal_presentation()
    ring = GradedRing(presentation)
    for d in range(6):
        assert ring.basis(d).dimension == oracle_dimension(presentation, d)


_COEFFICIENTS = [c * sign for c in (1, 2, 3, 4, 6) for sign in (1, -1)]


@st.composite
def _random_presentations(draw):
    """2-4 generators a_i and 1-6 relations of degree 2 or 3, each 1-4
    distinct monomials with integer coefficients in +-{1, 2, 3, 4, 6}, whose
    shared content the engine strips; a single-term relation is a generator
    of J.  The socle data is a placeholder: only graded pieces are read."""
    gens = [gen_a(i) for i in range(1, draw(st.integers(2, 4)) + 1)]
    relations = []
    for _ in range(draw(st.integers(1, 6))):
        monomials = _all_monomials(gens, draw(st.sampled_from([2, 3])))
        terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4,
                              unique_by=lambda m: m.exps))
        relations.append(Poly({m: draw(st.sampled_from(_COEFFICIENTS)) for m in terms}))
    return Presentation("random", range(1, len(gens) + 1), gens, relations,
                        1, Monomial(((gens[0], 1),)))


@settings(max_examples=50, deadline=None)
@given(presentation=_random_presentations())
def test_random_presentations_match_the_oracle(presentation):
    # the dimensions of every degree up to 5, and every dead monomial (one
    # the next degree drops from its columns) lies in the ideal
    ring = GradedRing(presentation)
    for d in range(6):
        basis = ring.basis(d)
        index, rows = _oracle_rows(presentation, d)
        rank = _fraction_rank(rows)
        assert basis.dimension == len(index) - rank, d
        units = _unit_rows(ring, index, set(basis.keys) - basis.alive)
        assert not units or _fraction_rank(rows + units) == rank, d


# ----- the per-degree record --------------------------------------------------


@pytest.mark.parametrize("presentation", [xn_presentation(3), xn_presentation(4),
                                          fm_presentation(3)],
                         ids=lambda p: p.label)
def test_a_basis_indexes_its_columns_and_holds_its_live_keys(presentation):
    ring = ring_for(presentation)
    for d in range(presentation.socle_degree + 1):
        basis = ring.basis(d)
        assert len(basis.col_of) == len(basis.keys) == basis.monomial_count
        assert all(basis.col_of[key] == c for c, key in enumerate(basis.keys))
        dead = {basis.keys[lead] for lead, (cols, _) in basis.rref().items()
                if len(cols) == 1}
        assert basis.alive == set(basis.keys) - dead, d


@pytest.mark.parametrize("presentation", [xn_presentation(3), xn_presentation(4),
                                          fm_presentation(3)],
                         ids=lambda p: p.label)
def test_owner_holds_the_tag_of_each_lead(presentation):
    # criterion (a) reads owner per column: the tag of the relation whose
    # row adopted the column's lead, or inf for a quotient column
    ring = GradedRing(presentation)
    for d in range(presentation.socle_degree + 1):
        basis = ring.basis(d)
        tag_of = dict(zip(basis.pivot_cols, basis.tags))
        assert basis.owner == [tag_of.get(c, math.inf)
                               for c in range(basis.monomial_count)], d


def test_degrees_below_every_relation_are_ordinary_bases():
    # X^3 has no multi-term relation below degree 2
    ring = GradedRing(xn_presentation(3))
    for d in (0, 1):
        basis = ring.basis(d)
        assert basis.rank == 0 and basis.dimension == basis.monomial_count
        assert basis.alive == set(basis.keys)


def test_a_refused_degree_leaves_no_record(lower_ceiling):
    # degree 3 of X^4 has 90 columns: under a ceiling of 50 it is refused
    # after degrees 0..2 are built, and recorded once the ceiling allows it
    ceiling = algebra.SIZE_CEILING
    lower_ceiling(50)
    ring = GradedRing(xn_presentation(4))
    with pytest.raises(SizeCeilingError):
        ring.basis(3)
    assert sorted(ring._basis_memo) == [0, 1, 2]
    lower_ceiling(ceiling)
    again, fresh = ring.basis(3), GradedRing(xn_presentation(4)).basis(3)
    assert again.rref() == fresh.rref() and again.tags == fresh.tags
    assert again.col_of == fresh.col_of and again.alive == fresh.alive


# ----- rows skipped by the F5 criteria ----------------------------------------


def _slice_row(col_of, tkeys, tcoeffs, mk):
    """The row of a relation times ``mk`` over the column index ``col_of``
    of its degree, terms in J' dropped."""
    row = [(col_of[k + mk], c) for k, c in zip(tkeys, tcoeffs) if k + mk in col_of]
    return [col for col, _ in row], [c for _, c in row]


def _full_slice(ring, d, col_of):
    """The echelon of every row of the degree-``d`` slice over its column
    index ``col_of``: each multi-term relation times every multiplier,
    nothing skipped, in relation order and tagged with the relation's
    index.  It reads only lower degrees, so it runs while ``basis(d)`` is
    being built."""
    full = SpanReducer(len(col_of))
    for i, (rdeg, tkeys, tcoeffs) in enumerate(ring._prepped):
        for mk in ring.basis(d - rdeg).keys if rdeg <= d else ():
            cols, coeffs = _slice_row(col_of, tkeys, tcoeffs, mk)
            if cols:
                full.insert(cols, coeffs, i)
    return full


@pytest.mark.parametrize(
    "presentation",
    [xn_presentation(n) for n in range(1, 6)] + [fm_presentation(3), fm_presentation(4)],
    ids=lambda p: p.label,
)
def test_every_skipped_row_reduces_to_zero_against_the_full_slice(presentation, monkeypatch):
    # _compute_basis hands the kernel only the rows the Koszul and
    # redundant-relation criteria keep; every row it leaves out, for any
    # reason, must lie in the span of all rows of its degree.
    handed = {}  # (id of the degree's column map, relation index) -> multipliers
    insert_products = SpanReducer.insert_products

    def spy(reducer, term_keys, term_coeffs, mult_keys, key_to_col, tag=-1):
        handed.setdefault((id(key_to_col), tag), set()).update(mult_keys)
        return insert_products(reducer, term_keys, term_coeffs, mult_keys, key_to_col, tag)

    monkeypatch.setattr(SpanReducer, "insert_products", spy)
    ring = GradedRing(presentation)
    skipped = 0
    for d in range(presentation.socle_degree + 2):
        basis = ring.basis(d)
        full = _full_slice(ring, d, basis.col_of)
        assert basis.pivot_cols == tuple(full.rref()[0])
        column_map = id(basis.col_of)
        for i, (rdeg, tkeys, tcoeffs) in enumerate(ring._prepped):
            kept = handed.get((column_map, i), set())
            for mk in ring.basis(d - rdeg).keys if rdeg <= d else ():
                if mk in kept:
                    continue
                cols, coeffs = _slice_row(basis.col_of, tkeys, tcoeffs, mk)
                skipped += 1
                assert not cols or full.insert(cols, coeffs) == -1, (d, i, mk)
    assert skipped or presentation.label in ("xn:1", "xn:2")


@pytest.mark.parametrize(
    "presentation", [xn_presentation(4), fm_presentation(3), fm_presentation(4)],
    ids=lambda p: p.label,
)
def test_a_basis_payload_is_the_same_however_the_basis_was_found(
        presentation, tmp_path, monkeypatch):
    # a basis is its RREF and its tags, both functions of the slice's row
    # space: the payload does not depend on the rows the criteria skip, nor
    # on whether the basis was computed or read back from the cache
    degrees = range(presentation.socle_degree + 1)
    store = CacheStore(tmp_path)
    skipping = CachedRing(presentation, store)
    payloads = [canonical_json(_basis_payload(skipping.basis(d))) for d in degrees]

    warm = CachedRing(presentation, store)
    assert [canonical_json(_basis_payload(warm.basis(d))) for d in degrees] == payloads
    assert (warm.cache_hits, warm.cache_misses) == (len(degrees), 0)

    def every_row(ring, d):
        col_of = ring._columns(d)
        return GradedBasis(d, col_of, *_full_slice(ring, d, col_of).rref())

    monkeypatch.setattr(GradedRing, "_compute_basis", every_row)
    full = GradedRing(presentation)
    assert [canonical_json(_basis_payload(full.basis(d))) for d in degrees] == payloads
