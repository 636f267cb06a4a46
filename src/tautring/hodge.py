"""Closed-form Hodge-integral evaluation and the fiber-side bridge check.

The moduli-side socle evaluation sends a degree-n polynomial in cotangent
(psi) classes to its integral against lambda_{g-1} lambda_g.  For psi
monomials this has a closed form: a ratio of factorials and double
factorials times a genus constant expressed through a Bernoulli number.

The same numbers are computed a second, independent way: pull the psi
classes back to the compactified fiber ring and read off the socle
coefficient there.  The two paths agree up to one global constant, which is
calibrated once on the one-point instance and then becomes a genuine
cross-check for every larger instance.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .algebra import check_size, ring_for
from .fm import fm_presentation, psi_pullback

GENUS = 2


def bernoulli(k):
    """The Bernoulli number B_k for even k >= 2, exactly: with g = k/2,
    B_k = (-1)^(g-1) k T_g / (4^g (4^g - 1)), the tangent number T_g from
    the integer recurrence of Knuth and Buckholtz (Math. Comp. 21, 1967) in
    g(g-1)/2 steps.  The refusal counts the k(k+1)/2 terms of the classical
    Fraction recurrence, past ``algebra.SIZE_CEILING``."""
    if k % 2 != 0 or k < 2:
        raise ValueError("Bernoulli arguments here must be even and >= 2")
    check_size(f"B_{k}", None, k * (k + 1) // 2, "Bernoulli terms")
    g = k // 2
    t = [math.factorial(j) for j in range(g)]  # t[j] ends as T_{j+1}
    for i in range(1, g):
        for j in range(i, g):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (g - 1) * k * t[-1], 4 ** g * (4 ** g - 1))


def double_factorial(k):
    """k!! over the integers, with (-1)!! = 1 by convention."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def faber_constant(g):
    """The one-point genus constant:

        1 / (2^(2g-1) (2g-1)!!) * |B_{2g}| / (2g).
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    return (
        Fraction(1, 2 ** (2 * g - 1) * double_factorial(2 * g - 1))
        * abs(bernoulli(2 * g))
        / (2 * g)
    )


def hodge_psi_integral(alphas, g=GENUS):
    """Exact integral of psi_1^a1 ... psi_n^an lambda_{g-1} lambda_g.

    Valid for all a_i >= 1 with sum a_i = g - 2 + n:

        (2g+n-3)! (2g-1)!! / ((2g-1)! prod (2 a_i - 1)!!) * faber_constant(g)
    """
    alphas = list(alphas)
    n = len(alphas)
    if n < 1:
        raise ValueError("need at least one marked point")
    if any(a < 1 for a in alphas):
        raise ValueError(
            "closed form requires every exponent >= 1 "
            "(no string/dilaton extension)"
        )
    if sum(alphas) != g - 2 + n:
        raise ValueError(
            f"exponents must sum to g - 2 + n = {g - 2 + n} "
            "for a degree-matching integrand"
        )
    numerator = math.factorial(2 * g + n - 3) * double_factorial(2 * g - 1)
    denominator = math.factorial(2 * g - 1)
    for a in alphas:
        denominator *= double_factorial(2 * a - 1)
    return Fraction(numerator, denominator) * faber_constant(g)


def fiber_socle_of_psi(n, alphas, *, ring=None):
    """Socle evaluation, in the compactified fiber ring on n points, of the
    product of pulled-back psi classes with the given exponents: n of them,
    nonnegative, summing to the socle degree n.

    The product is held by packed key.  After each factor, of degree d, it
    keeps only its nonzero terms at keys in ``ring.basis(d).alive``; at
    degree n the socle functional lambda is read off ``socle_values``.

    Proof that this is lambda of the full product.  A dropped key either
    has no column, so lies in J', or is dead; either way the monomial lies
    in I (:meth:`GradedRing.is_zero_key`).  I is an ideal, so every later
    factor multiplies the dropped part into I, and at degree n it lies in
    I_n, where lambda vanishes.  So lambda(product) is unchanged.
    """
    alphas = list(alphas)
    if n < 1 or len(alphas) != n or min(alphas) < 0 or sum(alphas) != n:
        raise ValueError(f"need one nonnegative exponent per point, summing to n = {n} >= 1")
    if ring is None:
        ring = ring_for(fm_presentation(n))
    factors = []
    for i, a in enumerate(alphas, start=1):
        psi = {ring.monomial_key(m): c for m, c in psi_pullback(n, i).terms.items()}
        factors += [psi] * a
    product = {0: 1}
    for d, psi in enumerate(factors, start=1):
        raw = {}
        for k, c in product.items():
            for k2, c2 in psi.items():
                raw[k + k2] = raw.get(k + k2, 0) + c * c2
        alive = ring.basis(d).alive
        product = {k: c for k, c in raw.items() if c and k in alive}
    return sum(map(mul, product.values(), ring.socle_values(product)), Fraction(0))


@lru_cache(maxsize=1)
def bridge_constant():
    """The moduli-to-fiber proportionality constant, calibrated on n = 1.

    On one point the moduli side is faber_constant(2) = 1/2880 and the fiber
    side (socle of 2 a_1 in the one-point ring) is 2, so the constant is
    1/5760.  Calibrated, not asserted.
    """
    moduli = hodge_psi_integral([1])
    fiber = fiber_socle_of_psi(1, [1])
    return moduli / fiber


def bridge_check(n, alphas, *, ring=None):
    """Compare the closed-form integral with the fiber-side evaluation.

    Returns (lhs, rhs, verdict): lhs the closed form, rhs the calibrated
    constant times the fiber socle value, verdict their exact equality.
    For n = 1 this holds by calibration; for n >= 2 it is a genuine check
    of two independent computation paths.
    """
    alphas = list(alphas)
    lhs = hodge_psi_integral(alphas)
    rhs = bridge_constant() * fiber_socle_of_psi(n, alphas, ring=ring)
    return lhs, rhs, lhs == rhs
