"""On-disk basis cache: hits, misses, corruption, atomicity."""

import json
import os

import pytest

from tautring.algebra import GradedRing
from tautring.cache import CacheStore
from tautring.xn import xn_presentation


def test_round_trip_and_stats(tmp_path):
    store = CacheStore(tmp_path)
    key = {"kind": "demo", "degree": 3}
    assert store.get(key) is None
    store.put(key, {"value": [1, 2, 3]})
    assert store.get(key) == {"value": [1, 2, 3]}
    stats = store.stats()
    assert stats["entry_count"] == 1
    assert stats["total_bytes"] > 0
    assert len(stats["entries"]) == 1


def test_cold_then_warm_engine_runs(tmp_path):
    store = CacheStore(tmp_path)
    cold = GradedRing(xn_presentation(3), cache=store)
    cold_report = cold.gorenstein_check()
    assert cold.cache_misses > 0 and cold.cache_hits == 0

    warm = GradedRing(xn_presentation(3), cache=store)
    warm_report = warm.gorenstein_check()
    assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses
    assert warm_report.hilbert == cold_report.hilbert
    assert warm_report.verdict == cold_report.verdict


def test_key_separation_between_presentations(tmp_path):
    store = CacheStore(tmp_path)
    GradedRing(xn_presentation(2), cache=store).hilbert(2)
    before = store.stats()["entry_count"]
    GradedRing(xn_presentation(3), cache=store).hilbert(3)
    assert store.stats()["entry_count"] > before


def test_corrupted_entry_is_recomputed(tmp_path):
    store = CacheStore(tmp_path)
    ring = GradedRing(xn_presentation(2), cache=store)
    dims = ring.hilbert(2)
    victim = os.path.join(store.directory, store.entries()[0][0] + ".json")
    with open(victim, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "tautring-cache-1", "payload": {}, "digest": "tampered"}')
    fresh = GradedRing(xn_presentation(2), cache=store)
    assert fresh.hilbert(2) == dims
    assert fresh.cache_misses >= 1
    # the corrupt file was discarded, then rewritten with valid content
    for content_hash, _ in store.entries():
        path = os.path.join(store.directory, content_hash + ".json")
        body = json.load(open(path, encoding="utf-8"))
        assert body["digest"] != "tampered"


def test_unparseable_entry_is_a_miss(tmp_path):
    store = CacheStore(tmp_path)
    key = {"kind": "demo"}
    store.put(key, {"x": 1})
    path = store._path_for(key)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all")
    assert store.get(key) is None


def test_clear_removes_everything(tmp_path):
    store = CacheStore(tmp_path)
    assert store.clear() == 0
    for i in range(4):
        store.put({"i": i}, {"v": i})
    assert store.clear() == 4
    assert store.stats()["entry_count"] == 0


def test_no_temp_files_left_behind(tmp_path):
    store = CacheStore(tmp_path)
    for i in range(5):
        store.put({"i": i}, {"v": list(range(50))})
    leftovers = [n for n in os.listdir(store.directory) if n.endswith(".tmp")]
    assert leftovers == []


def test_echelon_row_limit_degrades_to_dimension_only(tmp_path):
    store = CacheStore(tmp_path, echelon_row_limit=0)
    ring = GradedRing(xn_presentation(2), cache=store)
    dims = ring.hilbert(2)
    assert dims == [1, 3, 1]
    # a fresh ring must still be able to multiply (echelon recomputed)
    fresh = GradedRing(xn_presentation(2), cache=store)
    from tautring.xn import a_poly

    assert fresh.socle_eval(a_poly(1) * a_poly(2)) == 1


def _without_echelon(payload, **changes):
    payload = {k: v for k, v in payload.items() if k != "echelon"}
    payload.update(changes)
    return payload


TAMPERED_BASES = {
    "stale-count": lambda p: dict(p, monomial_count=p["monomial_count"] + 1),
    "wrong-dimension": lambda p: dict(p, dimension=p["dimension"] + 1),
    "unsorted-pivots": lambda p: _without_echelon(p, pivot_cols=p["pivot_cols"][::-1]),
    "pivot-out-of-range": lambda p: _without_echelon(
        p, pivot_cols=p["pivot_cols"][:-1] + [p["monomial_count"]]),
    "echelon-leads": lambda p: dict(p, echelon=p["echelon"][1:]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED_BASES))
def test_inconsistent_cached_basis_is_a_miss_and_is_rewritten(tmp_path, tamper):
    store = CacheStore(tmp_path)
    cold = GradedRing(xn_presentation(3), cache=store)
    good = cold.basis(2).to_payload()
    key = cold._basis_cache_key(2)
    store.put(key, TAMPERED_BASES[tamper](good))

    fresh = GradedRing(xn_presentation(3), cache=store)
    assert fresh.basis(2).dimension == good["dimension"]
    assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)
    assert store.get(key) == good
