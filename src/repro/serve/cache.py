"""Content-addressed result cache for the serving tier.

Values are the exact response bytes of a finished job -- the canonical
JSON result document -- keyed by the :func:`repro.serve.schema.cache_key`
content address.  Because the simulator is byte-deterministic, a cache hit
is *the* answer, not an approximation of it: a warm read returns bytes
identical to what a cold run would produce.

The cache is an in-memory dict with an optional spill directory.  With
``directory`` set, every entry is also written to ``<dir>/<key>.json``
via an atomic rename (a crashed write can never leave a half-result that
a restarted server would serve), and lookups fall back to disk, so a
restarted server keeps its warm set.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Set

_KEY_HEX = set("0123456789abcdef")


class ResultCache:
    """``get``/``put`` of immutable result bytes by content address."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._memory: Dict[str, bytes] = {}
        #: Every known content address: the spill directory is listed once,
        #: here, then ``put`` and disk hits keep the set current, so
        #: ``len()`` (``/healthz``) never lists the directory again.
        self._known: Set[str] = set()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            for name in sorted(os.listdir(directory)):
                stem, ext = os.path.splitext(name)
                if ext == ".json" and stem and set(stem) <= _KEY_HEX:
                    self._known.add(stem)

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[bytes]:
        body = self._memory.get(key)
        if body is not None:
            return body
        if self.directory is not None:
            try:
                with open(self._path(key), "rb") as stream:
                    body = stream.read()
            except OSError:
                return None
            self._memory[key] = body
            self._known.add(key)
            return body
        return None

    def put(self, key: str, body: bytes) -> None:
        self._memory[key] = body
        self._known.add(key)
        if self.directory is not None:
            handle, temp_path = tempfile.mkstemp(
                prefix=".put-", dir=self.directory
            )
            try:
                with os.fdopen(handle, "wb") as stream:
                    stream.write(body)
                os.replace(temp_path, self._path(key))
            except OSError:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._known)

    def keys(self) -> List[str]:
        """Every known content address (memory plus spill directory)."""
        return sorted(self._known)
