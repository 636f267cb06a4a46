"""Shared test helpers."""

import contextlib
import io
import os
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tautring import algebra, xn
from tautring.cli import main


def run_cli(args, env=None):
    """Run the command line ``args`` in this process, as ``tautring`` would.

    ``env`` maps environment variables to set for the call.  Returns
    ``exit_code``, the code ``main`` exits with, and ``output``, what it
    printed to standard output.  Any other exception propagates.
    """
    saved = {key: os.environ.get(key) for key in env or ()}
    os.environ.update(env or {})
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main(list(args), prog_name="tautring")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return SimpleNamespace(exit_code=code, output=out.getvalue())


def keyed(ring, q):
    """The Poly ``q`` as the engine reads it: ``{packed key: coefficient}``."""
    return {ring.monomial_key(m): c for m, c in q.terms.items()}


def socle_value(ring, q):
    """The socle evaluation of a Poly of the socle degree: its coefficients
    times the values ``GradedRing.socle_values`` reads at its keys."""
    terms = keyed(ring, q)
    return sum(c * v for c, v in zip(terms.values(), ring.socle_values(terms)))


def reference_normal_form(ring, q, d):
    """The coordinates of ``{key: coefficient}``, keys of degree ``d``, in
    the quotient basis of ``ring.basis(d)``, summed in Fractions one term
    and tail entry at a time: a key without a column lies in J' and adds
    nothing, and a pivot column's RREF row lead*x + sum(v*x_c) gives
    x = -sum(v/lead * x_c)."""
    basis = ring.basis(d)
    pos = {c: i for i, c in enumerate(basis.quotient_cols)}
    out = [Fraction(0)] * basis.dimension
    for key, coeff in q.items():
        col = basis.col_of.get(key)
        if col is None:
            continue
        row = basis.rref().get(col)
        if row is None:
            out[pos[col]] += coeff
        else:
            cols, coeffs = row
            for c, v in zip(cols[1:], coeffs[1:]):
                out[pos[c]] -= Fraction(coeff) * v / coeffs[0]
    return out


@pytest.fixture
def lower_ceiling(monkeypatch):
    """``lower_ceiling(c)`` sets ``algebra.SIZE_CEILING`` to ``c`` for the
    test and empties the caches of ``ring_for`` and ``xn.matching_block``,
    so that no ring built under the real ceiling, with bases it already
    holds, and no matching block computed under it is reused; the caches
    are emptied again afterwards."""
    memo = xn.matching_block

    def clear():
        algebra.ring_for.cache_clear()
        memo.cache_clear()

    def lower(ceiling):
        monkeypatch.setattr(algebra, "SIZE_CEILING", ceiling)
        clear()

    yield lower
    clear()


@pytest.fixture
def fresh_records():
    """Empties the memo of the matching blocks before and after the test,
    so that it sees every shape record computed afresh.  The memo is held
    here, for a test may patch ``xn.matching_block`` before this teardown."""
    memo = xn.matching_block
    memo.cache_clear()
    yield
    memo.cache_clear()
