"""The exact row-reduction kernel and the names the benchmark resolves."""

import importlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import tautring
import tautring._kernel
import tautring.algebra
from tautring._kernel import SpanReducer
from tautring.algebra import GradedRing
from tautring.cache import CachedRing, CacheStore
from tautring.xn import xn_presentation
from test_algebra import _fraction_rank
from test_cli import _checkout_env


def _packed_keys(n_gens, bits):
    return [1 << (bits * i) for i in range(n_gens)]


def _degree_keys(gen_keys, degree):
    """Keys of all degree-``degree`` monomials, in the engine's column order."""
    return [sum(c) for c in itertools.combinations_with_replacement(gen_keys, degree)]


def test_benchmark_resolves_the_one_kernel():
    # perfbench records tautring.KERNEL_BACKEND and traces the reducer
    # through tautring._kernel, so both names must keep resolving.
    assert tautring.KERNEL_BACKEND == "pure"
    assert tautring.algebra.SpanReducer is tautring._kernel.SpanReducer


# Every function and method perfbench/tracer.py wraps, by the name it looks
# up, apart from ``tautring._kernel.degree_keys`` (gone since the engine
# enumerates columns itself) and ``tautring.algebra.GradedRing.normal_form``
# (gone since the bridge reads only the socle).  The tracer skips a name it
# cannot find, so a rename here would silently zero a per-layer benchmark
# metric.
TRACED_NAMES = [
    ("tautring._kernel", "SpanReducer", "insert_products"),
    ("tautring._kernel", "SpanReducer", "insert"),
    ("tautring.algebra", "GradedRing", "basis"),
    ("tautring.algebra", "GradedRing", "_compute_basis"),
    ("tautring.algebra", "GradedBasis", "rref"),
    ("tautring.algebra", "GradedRing", "socle_table"),
    ("tautring.algebra", "GradedRing", "gram_rank"),
    ("tautring.algebra", "_integer_rank"),
    ("tautring.cache", "CacheStore", "get"),
    ("tautring.cache", "CacheStore", "put"),
    ("tautring.xn", "xn_presentation"),
    ("tautring.xn", "socle_coefficient"),
    ("tautring.fm", "fm_presentation"),
    ("tautring.fm", "block_pairing"),
    ("tautring.fm", "enumerate_standard_fm"),
    ("tautring.hodge", "fiber_socle_of_psi"),
]


@pytest.mark.parametrize("path", TRACED_NAMES, ids=".".join)
def test_benchmark_traced_name_resolves(path):
    # the tracer patches a method only where its class defines it
    module, *owners, attr = path
    owner = importlib.import_module(module)
    for name in owners:
        owner = getattr(owner, name)
    assert callable(vars(owner).get(attr))


TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.mark.parametrize("args", [
    ("xn", "check", "--n", "3"),
    ("--cache-dir", "{cache}", "xn", "check", "--n", "3"),
    ("fm", "check", "--n", "3", "--mode", "blocks"),
    ("bridge", "--n", "3"),
], ids=" ".join)
def test_benchmark_tracer_only_observes(args, tmp_path):
    # the benchmark's traced child, run as the benchmark runs it: it exits 0
    # with the untraced report and finds every name it wraps, apart from
    # the two that are gone (see TRACED_NAMES).  Both runs start from an
    # empty cache.
    cache = tmp_path / "cache"
    argv = ["--format", "json"] + [a.replace("{cache}", str(cache)) for a in args]
    spans = tmp_path / "spans.json"
    bodies = []
    for prefix in ([sys.executable, "-m", "tautring.cli"],
                   [sys.executable, TRACER, str(spans), "--"]):
        shutil.rmtree(cache, ignore_errors=True)
        done = subprocess.run(prefix + argv, env=_checkout_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        del report["timing"]
        bodies.append(report)
    assert bodies[0] == bodies[1]
    trace = json.loads(spans.read_text())
    assert set(trace["unpatched"]) <= {"tautring._kernel.degree_keys",
                                       "tautring.algebra.GradedRing.normal_form"}
    assert trace["spans"][0][0] == "cli.main"


def test_echelon_rows_keep_the_traced_shape(tmp_path):
    # perfbench/tracer.py unpacks ``_, cols, _`` from each echelon row of
    # every basis it records; a row of any other shape crashes the traced
    # child (test_benchmark_tracer_only_observes runs it).
    store = CacheStore(tmp_path)
    computed = CachedRing(xn_presentation(3), store)
    cached = CachedRing(xn_presentation(3), store)
    for d in range(4):
        for ring in (computed, cached):
            rows = ring.basis(d).echelon_rows()
            assert all(
                len(row) == 3 and [type(part) for part in row] == [int, list, list]
                for row in rows
            )
    assert cached.cache_hits == 4 and cached.cache_misses == 0


def _random_stream(rng, ncols, rows):
    stream = []
    for _ in range(rows):
        support = rng.sample(range(ncols), rng.randrange(1, min(6, ncols) + 1))
        coeffs = [rng.randrange(-9, 10) or 1 for _ in support]
        stream.append((sorted(support), coeffs))
    return stream


def test_span_reducer_rank_matches_fraction_gauss_jordan():
    # Each insert reports a new pivot exactly when the Fraction rank of the
    # rows so far grows.
    rng = random.Random(5117)
    for trial in range(30):
        ncols = rng.randrange(2, 30)
        reducer = SpanReducer(ncols)
        dense = []
        for cols, coeffs in _random_stream(rng, ncols, rng.randrange(1, 40)):
            row = [0] * ncols
            for col, c in zip(cols, coeffs):
                row[col] = c
            dense.append(row)
            before = reducer.rank
            lead = reducer.insert(cols, coeffs)
            assert reducer.rank == _fraction_rank(dense), f"trial {trial}"
            assert (lead == -1) == (reducer.rank == before)


def _products_with_holes(rng):
    """A relation, its multipliers and a column map that leaves out some
    product keys, as when the columns skip a monomial ideal."""
    n_gens = rng.randrange(2, 5)
    gen_keys = _packed_keys(n_gens, 8)
    t_deg = rng.randrange(1, 3)
    m_deg = rng.randrange(0, 3)
    term_keys = _degree_keys(gen_keys, t_deg)
    mult_keys = _degree_keys(gen_keys, m_deg)
    target = [k for k in _degree_keys(gen_keys, t_deg + m_deg)
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
        batched = SpanReducer(ncols)
        batched.insert_products(keys, coeffs, mult_keys, key_to_col)
        by_hand = SpanReducer(ncols)
        for mk in mult_keys:
            row = [(key_to_col[k + mk], c) for k, c in zip(keys, coeffs)
                   if k + mk in key_to_col]
            if row:
                by_hand.insert([col for col, _ in row], [c for _, c in row])
        assert batched._pivots == by_hand._pivots


def test_insert_products_skips_rows_left_empty():
    reducer = SpanReducer(2)
    calls = []
    reducer.insert = lambda cols, coeffs, tag: calls.append((cols, coeffs, tag))
    reducer.insert_products([1, 2], [1, -1], [10, 20], {12: 0}, 7)
    assert calls == [([0], [-1], 7)]


def test_reducer_rejects_inconsistent_row():
    reducer = SpanReducer(3)
    assert reducer.insert([0, 2], [1, 1]) == 0
    assert reducer.insert([0, 2], [2, 2]) == -1  # dependent row


def test_rref_only_reads_the_reducer():
    # rref() hands the engine the RREF and the tags in one result and
    # changes nothing: the rank, the raw echelon and a second call agree,
    # and rows inserted afterwards land as in a reducer never read
    rng = random.Random(2203)
    for _ in range(30):
        ncols = rng.randrange(2, 20)
        stream = _random_stream(rng, ncols, rng.randrange(1, 30))
        reducer, unread = SpanReducer(ncols), SpanReducer(ncols)
        half = len(stream) // 2
        for tag, (cols, coeffs) in enumerate(stream[:half]):
            reducer.insert(list(cols), list(coeffs), tag)
            unread.insert(list(cols), list(coeffs), tag)
        rank, pivots = reducer.rank, repr(reducer._pivots)
        rref, tags = reducer.rref()
        assert (reducer.rank, repr(reducer._pivots)) == (rank, pivots)
        assert reducer.rref() == (rref, tags)
        assert list(rref) == sorted(reducer._pivots)
        assert tags == [reducer._pivots[lead][2] for lead in rref]
        for tag, (cols, coeffs) in enumerate(stream[half:], half):
            reducer.insert(list(cols), list(coeffs), tag)
            unread.insert(list(cols), list(coeffs), tag)
        assert reducer._pivots == unread._pivots
