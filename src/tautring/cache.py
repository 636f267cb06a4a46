"""Content-addressed on-disk cache for computed basis data.

Entries are keyed by a hash of a canonical-JSON key document (presentation
content hash, degree, engine version, ...), so any change to a presentation
or to the engine's column conventions silently misses instead of serving
stale rows.  Writes go through a temporary file and an atomic rename; reads
verify the stored key and an embedded payload digest and treat any mismatch
as a miss, deleting the file so the caller recomputes.  Entry names and
payload digests are SHA-256 from :func:`~tautring.algebra.sha256`, so cache
I/O does not load OpenSSL.

This module is the only one that reads or writes a basis payload.
:class:`CachedRing` is a :class:`~tautring.algebra.GradedRing` that looks
each basis up in a :class:`CacheStore` before computing it and stores each
basis it computes; a plain ``GradedRing`` computes every basis it holds.

The cache holds bases only, each whole: its column count, its canonical
integer RREF and the tag of each row (the index of the relation that
adopted its lead).  Both are functions of the row space, so an entry does
not depend on the rows the engine skipped to find it, and a warm run
eliminates and back-substitutes nothing (README gives timings).  Gram ranks
are not stored: a stored rank could only be checked by computing it.

What is checked, and what is trusted.  An entry is checked for its key (a
file renamed or copied onto another entry's name is a miss), for its digest
(a torn or edited file is a miss) and for its shape
(:func:`_parse_basis_payload`): the column count it was built over, an
RREF with strictly increasing leads and no tail column a lead, and one
relation index per row.  Its row space is trusted: a well-formed entry
with a valid digest but a row too few is served as a hit, with the wrong
dimension.  So are the two things an entry steers beyond its own degree:
its tags decide the rows that ``GradedRing._compute_basis`` skips at
higher degrees, and its dead monomials (pivots whose row has no tail)
decide the columns of the next degree (``GradedRing._columns``), even at a
degree that is computed fresh.
"""

import json
import os
import tempfile
from operator import lt

from .algebra import GradedBasis, GradedRing, canonical_json, sha256

_SCHEMA = "tautring-cache-1"

#: Bumped whenever the on-disk basis payload format or the engine's
#: column conventions change; part of every cache key.
ENGINE_VERSION = "6"


def _digest(text):
    return sha256(text.encode("utf-8")).hexdigest()


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _payload_pieces(payload):
    """``canonical_json(payload)`` for a dict ``payload``, one top-level
    item at a time.

    Each item is encoded by the C one-shot encoder.  Until it returns, that
    encoder holds one small string per number and string it has written,
    about 100 bytes each; encoding a large basis whole would hold the
    pieces of its echelon and of its tags at once.
    """
    yield "{"
    for i, item in enumerate(sorted(payload.items())):
        yield ("," if i else "") + _encode(dict([item]))[1:-1]
    yield "}"


def _payload_digest(payload):
    """``_digest(canonical_json(payload))`` for a dict ``payload``."""
    digest = sha256()
    for piece in _payload_pieces(payload):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


class CacheStore:
    """A directory of content-addressed JSON entries."""

    def __init__(self, directory):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path_for(self, key):
        return os.path.join(self.directory, _digest(canonical_json(key)) + ".json")

    def get(self, key):
        """The payload stored under ``key``, or None on miss/corruption (a
        file whose schema, key or digest does not match is deleted)."""
        path = self._path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                body = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            ok = (
                body["schema"] == _SCHEMA
                and body["key"] == key
                and body["digest"] == _payload_digest(body["payload"])
            )
        except (KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return body["payload"]

    def put(self, key, payload):
        """Store ``payload`` under ``key`` atomically (temp file + rename).

        The payload is encoded once, one top-level item at a time; each
        piece goes to the digest and to the file, and the digest is written
        last.
        """
        digest = sha256()
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f'{{"schema":{_encode(_SCHEMA)},"key":{_encode(key)},"payload":')
                for piece in _payload_pieces(payload):
                    digest.update(piece.encode("utf-8"))
                    handle.write(piece)
                handle.write(f',"digest":"{digest.hexdigest()}"}}')
            os.replace(tmp, self._path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def usage(self):
        """``(entry_count, total_bytes)`` over the entries (``*.json``); an
        in-flight ``*.tmp`` file is not counted, nor is a file that vanishes
        before it is measured."""
        sizes = []
        try:
            with os.scandir(self.directory) as listing:
                for entry in listing:
                    if entry.name.endswith(".json"):
                        try:
                            sizes.append(entry.stat().st_size)
                        except OSError:
                            pass
        except OSError:
            pass
        return len(sizes), sum(sizes)


def _basis_payload(basis):
    """The cache payload of a :class:`~tautring.algebra.GradedBasis`; it
    shares the basis's row and tag lists, so it is for serializing, not for
    editing."""
    return {
        "schema": "tautring-basis/4",
        "degree": basis.degree,
        "monomial_count": basis.monomial_count,
        "rref": [
            [lead, cols, [str(c) for c in coeffs]]
            for lead, (cols, coeffs) in basis.rref().items()
        ],
        "tags": basis.tags,
    }


def _parse_basis_payload(payload, count, relations):
    """``(rref, tags)`` of a cached basis payload over ``count`` columns and
    ``relations`` row sources, or None when the payload is not one.

    The payload must have been built over the same ``count`` columns, and
    its rows must have the shape of an RREF: leads strictly increasing
    inside ``range(count)``; each row's columns starting at its lead,
    strictly increasing and below ``count``; one nonzero integer
    coefficient per column; and no tail column a lead, which the readers of
    :meth:`GradedBasis.rref` rely on.  Its tags must be one integer in
    ``range(relations)`` per row.  Anything else -- a stale or inconsistent
    entry, or one that does not parse at all -- is None, which
    :class:`CachedRing` counts as a miss, recomputes and overwrites.
    """
    rref = {}
    prev = -1
    try:
        if payload["monomial_count"] != count:
            return None
        tags = payload["tags"]
        if not (
            type(tags) is list
            and all(type(t) is int and 0 <= t < relations for t in tags)
        ):
            return None
        for lead, cols, coeffs in payload["rref"]:
            coeffs = [int(c) for c in coeffs]
            if not (
                prev < lead
                and cols[:1] == [lead]
                and all(map(lt, cols, cols[1:]))
                and cols[-1] < count
                and len(cols) == len(coeffs)
                and all(coeffs)
            ):
                return None
            rref[lead] = (cols, coeffs)
            prev = lead
    except (KeyError, TypeError, ValueError):
        return None
    if len(tags) != len(rref) or any(
        c in rref for cols, _ in rref.values() for c in cols[1:]
    ):
        return None
    return rref, tags


class CachedRing(GradedRing):
    """A GradedRing that reads each basis from ``store`` before computing it.

    Only :meth:`_compute_basis` differs, so a basis is still memoized by
    ``GradedRing.basis``, and every degree the ring builds, degree 0
    included, is looked up and stored.  ``cache_hits`` and
    ``cache_misses`` count this ring's lookups; a payload that fails
    verification counts as a miss.
    """

    def __init__(self, presentation, store):
        super().__init__(presentation)
        self.store = store
        self.cache_hits = 0
        self.cache_misses = 0

    def _basis_cache_key(self, d):
        return {
            "kind": "basis",
            "engine": ENGINE_VERSION,
            "presentation": self.presentation.content_hash,
            "degree": d,
        }

    def _compute_basis(self, d):
        """The stored degree-``d`` basis when its entry parses (a hit);
        otherwise (a miss) the basis ``GradedRing`` computes, then stored."""
        key = self._basis_cache_key(d)
        payload = self.store.get(key)
        if payload is not None:
            col_of = self._columns(d)
            parsed = _parse_basis_payload(payload, len(col_of), len(self._prepped))
            if parsed is not None:
                self.cache_hits += 1
                return GradedBasis(d, col_of, *parsed)
        self.cache_misses += 1
        basis = super()._compute_basis(d)
        self.store.put(key, _basis_payload(basis))
        return basis
