"""Closed-form integrals, constants, and the moduli/fiber bridge."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from tautring.algebra import ring_for
from tautring.fm import fm_presentation, psi_pullback
from tautring.hodge import (
    bernoulli,
    bridge_check,
    bridge_constant,
    double_factorial,
    faber_constant,
    fiber_socle_of_psi,
    hodge_psi_integral,
)

from conftest import reference_normal_form


def valid_alpha_vectors(n, g=2):
    """All exponent vectors (a_1..a_n), a_i >= 1, summing to g - 2 + n."""
    total = g - 2 + n
    out = []
    for cuts in itertools.combinations(range(1, total), n - 1):
        parts = []
        prev = 0
        for c in list(cuts) + [total]:
            parts.append(c - prev)
            prev = c
        if all(p >= 1 for p in parts):
            out.append(tuple(parts))
    return out


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def _bernoulli_row(k):
    """B_0..B_k by the classical Fraction recurrence
    sum_{j <= m} C(m+1, j) B_j = 0, independent of the tangent numbers."""
    row = [Fraction(1)]
    for m in range(1, k + 1):
        row.append(-sum(math.comb(m + 1, j) * row[j] for j in range(m)) / (m + 1))
    return row


def test_bernoulli_equals_the_fraction_recurrence():
    row = _bernoulli_row(80)
    assert [bernoulli(2 * g) for g in range(1, 41)] == row[2::2]


def test_bernoulli_rejects_odd_or_small_arguments():
    for bad in (-2, 0, 1, 3, 7):
        with pytest.raises(ValueError):
            bernoulli(bad)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_faber_constants():
    assert faber_constant(2) == Fraction(1, 2880)
    assert faber_constant(3) == Fraction(1, 120960)
    assert 2 * faber_constant(2) == Fraction(1, 1440)
    with pytest.raises(ValueError):
        faber_constant(1)


def test_integral_values_for_genus_two():
    assert hodge_psi_integral([1]) == Fraction(1, 2880)
    assert hodge_psi_integral([1, 1]) == Fraction(1, 960)
    assert hodge_psi_integral([1, 1, 1]) == Fraction(1, 240)


def test_integral_domain_validation():
    with pytest.raises(ValueError):
        hodge_psi_integral([])  # no points
    with pytest.raises(ValueError):
        hodge_psi_integral([0, 2])  # alpha below one
    with pytest.raises(ValueError):
        hodge_psi_integral([1, 2])  # degree mismatch for g=2, n=2


def test_integral_is_symmetric_in_the_exponents():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(4, 8)
        alphas = valid_alpha_vectors(n, g=3)
        if not alphas:
            continue
        base = list(rng.choice(alphas))
        value = hodge_psi_integral(base, g=3)
        for _ in range(3):
            rng.shuffle(base)
            assert hodge_psi_integral(base, g=3) == value


def test_valid_alpha_vectors_for_genus_two_are_all_ones():
    for n in range(1, 6):
        assert valid_alpha_vectors(n) == [tuple([1] * n)]


def test_bridge_constant_calibration():
    assert bridge_constant() == Fraction(1, 5760)
    assert fiber_socle_of_psi(1, [1]) == 2


@pytest.mark.parametrize(
    "n,fiber", [(1, 2), (2, 6), (3, 24)],
)
def test_fiber_socle_values(n, fiber):
    assert fiber_socle_of_psi(n, [1] * n) == fiber


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bridge_identity_holds_exactly(n):
    lhs, rhs, ok = bridge_check(n, [1] * n)
    assert ok
    assert lhs == rhs == hodge_psi_integral([1] * n)


@pytest.mark.parametrize("n, alphas", [(2, [0, 0]), (2, [2, 1]), (3, [1, 1, 0]), (0, [])])
def test_fiber_socle_refuses_a_product_off_the_socle_degree(n, alphas):
    # the exponents must sum to n >= 1: no product, one above the socle,
    # one below, and no points
    with pytest.raises(ValueError, match="summing to n"):
        fiber_socle_of_psi(n, alphas)


def reduced_fiber_socle(n, alphas):
    """The fiber socle value with each partial product, from degree 2 on,
    replaced by its coordinates in the quotient basis (the Fraction oracle
    ``reference_normal_form``) before the next factor; the degree-n
    coordinates are read by the socle functional."""
    ring = ring_for(fm_presentation(n))
    factors = []
    for i, a in enumerate(alphas, start=1):
        psi = {ring.monomial_key(m): c for m, c in psi_pullback(n, i).terms.items()}
        factors += [psi] * a
    product = factors[0]
    for d, psi in enumerate(factors[1:], start=2):
        raw = {}
        for k, c in product.items():
            for k2, c2 in psi.items():
                raw[k + k2] = raw.get(k + k2, 0) + c * c2
        basis = ring.basis(d)
        product = dict(zip([basis.keys[c] for c in basis.quotient_cols],
                           reference_normal_form(ring, raw, d)))
    return sum(c * v for c, v in zip(product.values(), ring.socle_values(product)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fiber_socle_equals_the_reduced_products_on_every_exponent_vector(n):
    # all nonnegative exponent vectors summing to n, not only the all-ones
    # vector the closed form covers: 1, 3, 10 and 35 of them
    vectors = [v for v in itertools.product(range(n + 1), repeat=n) if sum(v) == n]
    assert len(vectors) == math.comb(2 * n - 1, n)
    for alphas in vectors:
        assert fiber_socle_of_psi(n, alphas) == reduced_fiber_socle(n, alphas), alphas
