"""The two kernel backends must be interchangeable bit for bit."""

import os
import random
import subprocess
import sys

import pytest

from tautring._kernel import BACKEND, get_backend

pure_reducer, pure_degree_keys = get_backend("pure")
try:
    fast_reducer, fast_degree_keys = get_backend("compiled")
    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="compiled backend not built"
)


def _packed_keys(n_gens, bits):
    return [1 << (bits * i) for i in range(n_gens)]


@needs_compiled
def test_degree_keys_matches_pure_backend():
    rng = random.Random(20240811)
    for _ in range(25):
        n_gens = rng.randrange(1, 9)
        degree = rng.randrange(0, 5)
        keys = _packed_keys(n_gens, 8)
        assert fast_degree_keys(keys, degree) == pure_degree_keys(keys, degree)


def test_degree_keys_order_is_combinations_with_replacement():
    import itertools

    keys = _packed_keys(4, 6)
    got = pure_degree_keys(keys, 3)
    expected = [
        sum(combo)
        for combo in itertools.combinations_with_replacement(keys, 3)
    ]
    assert got == expected


def _random_stream(rng, ncols, rows):
    stream = []
    for _ in range(rows):
        support = rng.sample(range(ncols), rng.randrange(1, min(6, ncols) + 1))
        coeffs = [rng.randrange(-9, 10) or 1 for _ in support]
        cols_sorted = sorted(support)
        stream.append((cols_sorted, coeffs))
    return stream


def _run_stream(reducer_cls, ncols, stream):
    reducer = reducer_cls(ncols)
    pivots = []
    for cols, coeffs in stream:
        pivots.append(reducer.insert(list(cols), list(coeffs)))
    return pivots, reducer.pivot_cols(), reducer.echelon_rows()


@needs_compiled
def test_span_reducer_matches_pure_backend_on_random_streams():
    rng = random.Random(5117)
    for trial in range(30):
        ncols = rng.randrange(2, 30)
        stream = _random_stream(rng, ncols, rng.randrange(1, 40))
        got = _run_stream(fast_reducer, ncols, stream)
        want = _run_stream(pure_reducer, ncols, stream)
        assert got == want, f"trial {trial}"


@needs_compiled
def test_insert_products_matches_pure_backend():
    rng = random.Random(90210)
    for _ in range(20):
        n_gens = rng.randrange(2, 5)
        bits = 8
        gen_keys = _packed_keys(n_gens, bits)
        t_deg = rng.randrange(1, 3)
        m_deg = rng.randrange(0, 3)
        term_keys = pure_degree_keys(gen_keys, t_deg)
        mult_keys = pure_degree_keys(gen_keys, m_deg)
        target = pure_degree_keys(gen_keys, t_deg + m_deg)
        key_to_col = {k: i for i, k in enumerate(target)}
        support = sorted(rng.sample(range(len(term_keys)),
                                    rng.randrange(1, len(term_keys) + 1)))
        keys = [term_keys[i] for i in support]
        coeffs = [rng.randrange(-5, 6) or 1 for _ in support]

        results = []
        for cls in (pure_reducer, fast_reducer):
            reducer = cls(len(target))
            reducer.insert_products(keys, coeffs, mult_keys, key_to_col)
            results.append((reducer.pivot_cols(), reducer.echelon_rows()))
        assert results[0] == results[1]


def _products_with_holes(rng):
    """A relation, its multipliers and a column map that leaves out some
    product keys, as when the columns skip a monomial ideal."""
    n_gens = rng.randrange(2, 5)
    gen_keys = _packed_keys(n_gens, 8)
    t_deg = rng.randrange(1, 3)
    m_deg = rng.randrange(0, 3)
    term_keys = pure_degree_keys(gen_keys, t_deg)
    mult_keys = pure_degree_keys(gen_keys, m_deg)
    target = [k for k in pure_degree_keys(gen_keys, t_deg + m_deg)
              if rng.random() < 0.6]
    key_to_col = {k: i for i, k in enumerate(target)}
    support = sorted(rng.sample(range(len(term_keys)),
                                rng.randrange(1, len(term_keys) + 1)))
    keys = [term_keys[i] for i in support]
    coeffs = [rng.randrange(-5, 6) or 1 for _ in support]
    return len(target), keys, coeffs, mult_keys, key_to_col


def test_insert_products_drops_terms_without_a_column():
    rng = random.Random(31337)
    for _ in range(40):
        ncols, keys, coeffs, mult_keys, key_to_col = _products_with_holes(rng)
        batched = pure_reducer(ncols)
        batched.insert_products(keys, coeffs, mult_keys, key_to_col)
        by_hand = pure_reducer(ncols)
        for mk in mult_keys:
            row = [(key_to_col[k + mk], c) for k, c in zip(keys, coeffs)
                   if k + mk in key_to_col]
            if row:
                by_hand.insert([col for col, _ in row], [c for _, c in row])
        assert batched.pivot_cols() == by_hand.pivot_cols()
        assert batched.echelon_rows() == by_hand.echelon_rows()


def test_insert_products_skips_rows_left_empty():
    reducer = pure_reducer(2)
    calls = []
    reducer.insert = lambda cols, coeffs: calls.append((cols, coeffs))
    reducer.insert_products([1, 2], [1, -1], [10, 20], {12: 0})
    assert calls == [([0], [-1])]


@needs_compiled
def test_insert_products_with_holes_matches_pure_backend():
    rng = random.Random(4711)
    for _ in range(20):
        ncols, keys, coeffs, mult_keys, key_to_col = _products_with_holes(rng)
        results = []
        for cls in (pure_reducer, fast_reducer):
            reducer = cls(ncols)
            reducer.insert_products(keys, coeffs, mult_keys, key_to_col)
            results.append((reducer.pivot_cols(), reducer.echelon_rows()))
        assert results[0] == results[1]


def test_reducer_rejects_inconsistent_row():
    reducer = pure_reducer(3)
    assert reducer.insert([0, 2], [1, 1]) == 0
    assert reducer.insert([0, 2], [2, 2]) == -1  # dependent row


def test_environment_override_selects_backend():
    for name in ("pure",) + (("compiled",) if HAVE_COMPILED else ()):
        env = dict(os.environ, TAUTRING_KERNEL=name)
        out = subprocess.run(
            [sys.executable, "-c",
             "from tautring._kernel import BACKEND; print(BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == name


def test_environment_override_rejects_unknown_backend():
    env = dict(os.environ, TAUTRING_KERNEL="nonsense")
    out = subprocess.run(
        [sys.executable, "-c", "import tautring._kernel"],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode != 0
    assert "TAUTRING_KERNEL" in out.stderr


def test_active_backend_is_reported():
    assert BACKEND in ("pure", "compiled")
