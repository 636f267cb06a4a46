"""Content-addressed on-disk cache for computed basis data.

Entries are keyed by a hash of a canonical-JSON key document (presentation
content hash, degree, engine version, ...), so any change to a presentation
or to the engine's column conventions silently misses instead of serving
stale rows.  Writes go through a temporary file and an atomic rename; reads
verify an embedded payload digest and treat any mismatch as a miss, deleting
the corrupt file so the caller recomputes.

The cache holds bases only.  Every basis is stored whole, in the one form
the engine holds it: its column count, its canonical integer RREF and the
tag of each row (the index of the relation that adopted its lead).  On
load the engine parses the rows and the tags, checks their shape
(``algebra._parse_basis_payload``) and reads pivots, rank and dimension
off them again.  The RREF and the tags are functions of the row space, so
an entry does not depend on the rows the engine skipped to find it.  A
warm run eliminates and back-substitutes nothing: on a 2-core host a warm
``fm check --n 5 --mode full`` takes about 0.55 s against a 0.54 MB cache
(about 1.7 s cold), and a warm ``xn check --n 6`` about 0.23 s against
0.17 MB.  Gram ranks are not stored: a stored rank could only be checked
by computing it, and from the bases all of a ring's Gram ranks take about
2 ms for X^5, 12-17 ms for X^6 and 20-30 ms for X[5] on the same host.

Shape is all that is checked, for the tags as for the rows: a well-formed
entry is trusted for its row space.  Its tags steer the rows that
``GradedRing._compute_basis`` skips at higher degrees, and its dead
monomials (pivots whose row has no tail) decide the columns of the next
degree (``GradedRing._columns``), even at a degree that is computed fresh.
``monomial_count`` catches a next-degree entry stored over other columns,
not a wrong row space itself.
"""

import json
import os
import tempfile

from .algebra import canonical_json

_SCHEMA = "tautring-cache-1"


def _sha256(data=b""):
    """A new SHA-256 object; the one place this module imports ``hashlib``.

    The import is deferred to the first digest because ``hashlib`` loads
    OpenSSL, and a run without a store never takes one.
    """
    import hashlib

    return hashlib.sha256(data)


def _digest(text):
    return _sha256(text.encode("utf-8")).hexdigest()


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
    digest = _sha256()
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
        """The payload stored under ``key``, or None on miss/corruption."""
        path = self._path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                body = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            ok = (
                body["schema"] == _SCHEMA
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
        digest = _sha256()
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

    def entries(self):
        """[(content hash, size in bytes)] for every entry, sorted."""
        out = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return out
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            out.append((name[: -len(".json")], size))
        return out

    def stats(self):
        entries = self.entries()
        return {
            "directory": self.directory,
            "entry_count": len(entries),
            "total_bytes": sum(size for _, size in entries),
            "entries": [
                {"content_hash": h, "bytes": size} for h, size in entries
            ],
        }

    def clear(self):
        """Remove every entry; returns the number removed."""
        removed = 0
        for content_hash, _ in self.entries():
            path = os.path.join(self.directory, content_hash + ".json")
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
