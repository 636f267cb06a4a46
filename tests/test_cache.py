"""On-disk basis cache: hits, misses, corruption, atomicity."""

import json
import os

import pytest

from tautring.algebra import (
    GradedRing,
    Poly,
    Presentation,
    canonical_json,
    gen_a,
)
from tautring.cache import (
    ENGINE_VERSION,
    CachedRing,
    CacheStore,
    _basis_payload,
    _digest,
    _payload_digest,
)
from tautring.fm import fm_presentation
from tautring.xn import xn_presentation

from conftest import verdict
from test_algebra import monomial_from_factors


def test_round_trip_and_stats(tmp_path):
    store = CacheStore(tmp_path)
    key = {"kind": "demo", "degree": 3}
    assert store.get(key) is None
    store.put(key, {"value": [1, 2, 3]})
    assert store.get(key) == {"value": [1, 2, 3]}
    assert store.usage() == (1, os.path.getsize(store._path_for(key)))


def test_usage_counts_entries_and_not_temp_files(tmp_path):
    store = CacheStore(tmp_path)
    assert store.usage() == (0, 0)
    for i in range(3):
        store.put({"i": i}, {"v": i})
    sizes = sum(os.path.getsize(store._path_for({"i": i})) for i in range(3))
    (tmp_path / "in-flight.tmp").write_text("{}")
    assert store.usage() == (3, sizes)


def test_cold_then_warm_engine_runs(tmp_path):
    store = CacheStore(tmp_path)
    cold = CachedRing(xn_presentation(3), store)
    cold_checks = cold.gorenstein_check()
    assert cold.cache_misses > 0 and cold.cache_hits == 0

    warm = CachedRing(xn_presentation(3), store)
    warm_checks = warm.gorenstein_check()
    assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses
    assert warm.hilbert() == cold.hilbert()
    assert verdict(warm_checks) == verdict(cold_checks)


def test_key_separation_between_presentations(tmp_path):
    store = CacheStore(tmp_path)
    CachedRing(xn_presentation(2), store).hilbert(2)
    before, _ = store.usage()
    CachedRing(xn_presentation(3), store).hilbert(3)
    assert store.usage()[0] > before


def test_corrupted_entry_is_recomputed(tmp_path):
    store = CacheStore(tmp_path)
    ring = CachedRing(xn_presentation(2), store)
    dims = ring.hilbert(2)
    victim = os.path.join(store.directory, sorted(os.listdir(store.directory))[0])
    with open(victim, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "tautring-cache-1", "payload": {}, "digest": "tampered"}')
    fresh = CachedRing(xn_presentation(2), store)
    assert fresh.hilbert(2) == dims
    assert fresh.cache_misses >= 1
    # the corrupt file was discarded, then rewritten with valid content
    for name in os.listdir(store.directory):
        body = json.load(open(os.path.join(store.directory, name), encoding="utf-8"))
        assert body["digest"] != "tampered"


def test_unparseable_entry_is_a_miss(tmp_path):
    store = CacheStore(tmp_path)
    key = {"kind": "demo"}
    store.put(key, {"x": 1})
    path = store._path_for(key)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all")
    assert store.get(key) is None


def test_an_entry_under_another_key_is_a_miss_and_is_deleted(tmp_path):
    # a digest-valid entry copied onto another key's name must not be served
    store = CacheStore(tmp_path)
    store.put({"k": 1}, {"x": 1})
    with open(store._path_for({"k": 1}), "rb") as src:
        body = src.read()
    with open(store._path_for({"k": 2}), "wb") as dst:
        dst.write(body)
    assert store.get({"k": 2}) is None
    assert not os.path.exists(store._path_for({"k": 2}))
    assert store.get({"k": 1}) == {"x": 1}


def test_no_temp_files_left_behind(tmp_path):
    store = CacheStore(tmp_path)
    for i in range(5):
        store.put({"i": i}, {"v": list(range(50))})
    leftovers = [n for n in os.listdir(store.directory) if n.endswith(".tmp")]
    assert leftovers == []


def test_warm_ring_reads_every_basis_and_never_eliminates(tmp_path, monkeypatch):
    store = CacheStore(tmp_path)
    cold = CachedRing(xn_presentation(4), store)
    cold_checks = cold.gorenstein_check()

    def refuse(ring, d):
        raise AssertionError(f"degree {d} eliminated again")

    monkeypatch.setattr(GradedRing, "_compute_basis", refuse)
    warm = CachedRing(xn_presentation(4), store)
    warm_checks = warm.gorenstein_check()
    assert verdict(warm_checks) == "gorenstein"
    assert warm_checks == cold_checks  # every name, outcome and witness
    assert (warm.cache_hits, warm.cache_misses) == (cold.cache_misses, 0)


def _edit_row(payload, index, edit):
    rref = [list(row) for row in payload["rref"]]
    lead, cols, coeffs = rref[index]
    rref[index] = edit(lead, list(cols), list(coeffs))
    return dict(payload, rref=rref)


def _edit_tags(payload, edit):
    return dict(payload, tags=edit(list(payload["tags"])))


#: the number of multi-term relations of X^3, so tags lie in range(_X3_RELATIONS)
_X3_RELATIONS = len(GradedRing(xn_presentation(3))._prepped)

# one case per clause of ``_parse_basis_payload`` and per way a row can fail
# to parse; degree 2 of X^3 has 12 columns and an RREF of 6 rows, each with
# at least two columns
TAMPERED_BASES = {
    "stale-count": lambda p: dict(p, monomial_count=p["monomial_count"] + 1),
    "dimension-only": lambda p: {k: v for k, v in p.items() if k != "rref"},
    # the raw-echelon payload of engine version 5, stored under this key
    "echelon-payload": lambda p: dict(
        {k: v for k, v in p.items() if k != "rref"},
        schema="tautring-basis/3", echelon=p["rref"]),
    "unsorted-pivots": lambda p: dict(p, rref=p["rref"][::-1]),
    "pivot-out-of-range": lambda p: dict(
        p, rref=p["rref"] + [[p["monomial_count"], [p["monomial_count"]], ["1"]]]),
    # a row that is echelon but not reduced: its tail reaches the next lead
    "tail-in-pivot-column": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [
            lead, [lead, p["rref"][1][0]], coeffs[:1] + ["1"]]),
    "echelon-leads": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, cols[1:], coeffs[1:]]),
    "unsorted-row": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, cols[:1] + cols, coeffs[:1] + coeffs]),
    "column-out-of-range": lambda p: _edit_row(
        p, -1, lambda lead, cols, coeffs: [
            lead, cols + [p["monomial_count"]], coeffs + ["1"]]),
    "ragged-row": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, cols, coeffs + ["1"]]),
    "two-field-row": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, cols]),
    "non-integer-coefficient": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, cols, ["x"] + coeffs[1:]]),
    "integer-for-cols": lambda p: _edit_row(
        p, 0, lambda lead, cols, coeffs: [lead, lead, coeffs]),
    "missing-tags": lambda p: {k: v for k, v in p.items() if k != "tags"},
    "short-tags": lambda p: _edit_tags(p, lambda tags: tags[:-1]),
    "non-integer-tag": lambda p: _edit_tags(p, lambda tags: [str(tags[0])] + tags[1:]),
    "tag-out-of-range": lambda p: _edit_tags(p, lambda tags: tags[:-1] + [_X3_RELATIONS]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERED_BASES))
def test_inconsistent_cached_basis_is_a_miss_and_is_rewritten(tmp_path, tamper):
    store = CacheStore(tmp_path)
    cold = CachedRing(xn_presentation(3), store)
    good = _basis_payload(cold.basis(2))
    key = cold._basis_cache_key(2)
    store.put(key, TAMPERED_BASES[tamper](good))

    fresh = CachedRing(xn_presentation(3), store)
    assert fresh.basis(2).dimension == cold.basis(2).dimension
    # degrees 0 and 1, read as bases before degree 2, are hits
    assert (fresh.cache_hits, fresh.cache_misses) == (2, 1)
    assert store.get(key) == good


def test_a_planted_gram_rank_does_not_change_the_verdict(tmp_path):
    # Q[a1, a2] / (a1^2, a1 a2, a2^3) has Hilbert function [1, 2, 1], but a1
    # pairs to zero with everything, so its degree-1 Gram has rank 1.  An
    # older engine cached Gram ranks under this key and served them as
    # stored; a planted rank 2 made the ring pass.
    a1, a2 = gen_a(1), gen_a(2)
    relations = [
        Poly.monomial(monomial_from_factors(f)) for f in ([a1, a1], [a1, a2], [a2] * 3)
    ]
    presentation = Presentation(
        "planted", (1, 2), (a1, a2), relations, 2, monomial_from_factors([a2, a2])
    )
    store = CacheStore(tmp_path)
    store.put(
        {"kind": "gram-rank", "engine": ENGINE_VERSION,
         "presentation": presentation.content_hash, "degree": 1},
        {"rank": 2},
    )
    ring = CachedRing(presentation, store)
    checks = ring.gorenstein_check()
    assert ring.hilbert() == [1, 2, 1]
    assert checks[3][0] == "pairing-degree-1" and checks[3][2]["gram_rank"] == 1
    assert verdict(checks) == "defective"
    # the cache holds the three bases, next to the planted entry, and nothing else
    assert (ring.cache_hits, ring.cache_misses) == (0, 3)
    assert store.usage()[0] == 1 + 3


@pytest.mark.parametrize("presentation", [xn_presentation(4), fm_presentation(3)],
                         ids=lambda p: p.label)
def test_a_partially_warm_cache_serves_the_criteria_through_its_tags(
        tmp_path, monkeypatch, presentation):
    # Degrees 0..2 come from the cache, so the skips at every higher degree
    # read the stored tags of lower degrees, not tags computed in this run.
    store = CacheStore(tmp_path)
    filler = CachedRing(presentation, store)
    for d in range(3):
        filler.basis(d)
    # an entry of the previous engine version, without tags, for degree 3
    old = dict(_basis_payload(GradedRing(presentation).basis(3)), schema="tautring-basis/2")
    del old["tags"]
    store.put(dict(filler._basis_cache_key(3), engine="3"), old)

    computed = []
    compute = GradedRing._compute_basis
    monkeypatch.setattr(GradedRing, "_compute_basis",
                        lambda ring, d: computed.append(d) or compute(ring, d))
    ring = CachedRing(presentation, store)
    checks = ring.gorenstein_check()
    top = presentation.socle_degree
    assert computed == list(range(3, top + 1))
    assert (ring.cache_hits, ring.cache_misses) == (3, top - 2)
    assert checks == GradedRing(presentation).gorenstein_check()


def test_payload_digest_hashes_the_canonical_text():
    ring = GradedRing(fm_presentation(3))
    payloads = [_basis_payload(ring.basis(d)) for d in range(4)]
    for payload in payloads + [{}, {"b": [1, {"z": None, "a": "é"}], "a": 2}]:
        assert _payload_digest(payload) == _digest(canonical_json(payload))


def test_the_engine_holds_no_cache_code():
    # cache.py is the one module that reads or writes a basis payload; a
    # plain GradedRing computes every basis it holds
    import inspect

    from tautring import algebra

    assert "cache" not in inspect.signature(GradedRing).parameters
    for name in ("ENGINE_VERSION", "_parse_basis_payload"):
        assert not hasattr(algebra, name)
    assert not hasattr(algebra.GradedBasis, "to_payload")
    ring = GradedRing(xn_presentation(2))
    ring.hilbert()
    assert not hasattr(ring, "cache_hits")
