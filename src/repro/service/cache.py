"""Persistent content-addressed result store for sweep points.

The paper's headline figures are dense sweeps over (channels,
frequency, format) grids in which millions of hypothetical user
queries collapse onto a few thousand distinct configurations.  A
point's result is a pure function of its job description, so once one
process anywhere has simulated it, nobody should ever simulate it
again: :class:`ResultCache` is the disk store that turns repeated
points into lookups.

Keying
------

Entries are addressed by :func:`repro.keys.canonical_key` digests --
the sorted-JSON projection of the full job description (level,
configuration *including its backend*, scale, budget, block size)
hashed together with :data:`repro.keys.ENGINE_VERSION`.  Changing
any config field, the backend, or the engine version changes the key
and misses cleanly.

Layout and durability
---------------------

One file per entry, named ``<key>.rc`` under the cache directory:
a single JSON header line (format tag, key echo, payload SHA-256,
human-readable coords for ``grep``/``jq`` forensics) followed by the
zlib-compressed pickle of the result.  Writes are atomic -- the entry
is staged to a temp file in the same directory and :func:`os.replace`\\ d
into place -- so a concurrent reader sees either the old entry, the
new entry, or nothing, never a torn file.  Reads verify the header's
payload digest before unpickling; any damage (truncation, bit rot, a
foreign file) degrades to a miss with a :class:`CacheWarning` and the
corrupt entry is removed so it cannot warn forever.  A failure is
*never* raised out of :meth:`get`: a broken cache must cost a
recompute, not a sweep.  This is also what makes the store the sweep's
resume mechanism: a process killed mid-sweep leaves every finished
point stored and at worst one staging file, which :meth:`clear`
removes.

Quarantined points are *negative entries*: :meth:`put` stores a
:class:`~repro.resilience.report.JobFailure` whose ``quarantined`` is
true (a point that hung or killed its worker on every attempt), so a
resumed sweep can serve the recorded failure instead of hanging on the
point again.  Every other failure is refused loudly -- a deterministic
error is always recomputed by the next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.resilience.faults import TornWriteInjected, maybe_torn_write
from repro.resilience.report import JobFailure

PathLike = Union[str, Path]

#: Format tag written into (and demanded from) every entry header.
CACHE_FORMAT = "repro-cache/1"

#: File suffix of one cache entry.
ENTRY_SUFFIX = ".rc"

#: Name prefix of a staged, not yet renamed, entry.
STAGING_PREFIX = ".staging-"


class CacheWarning(UserWarning):
    """A cache entry had to be ignored (corrupt, torn or foreign)."""


def _blob_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Content-addressed store of completed sweep points.

    ``directory`` is created on first write.  ``max_entries`` bounds
    the store: inserting past the bound evicts the least recently
    *written* entries (mtime order; reads do not refresh it -- the
    store optimises for campaign replays, where whole grids are
    written and read together, over point-wise recency).

    The instance accumulates hit/miss/corruption/eviction statistics
    (:meth:`stats`); the sweep layer mirrors them into telemetry as
    ``cache.hits`` / ``cache.misses`` / ``cache.corrupt`` /
    ``cache.evictions`` counters.
    """

    def __init__(
        self, directory: PathLike, max_entries: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 when given, got {max_entries}"
            )
        # expanduser so a quoted "~/.cache/repro" from the CLI or a
        # config file lands in the home directory, not a literal "~".
        self.directory = Path(directory).expanduser()
        self.max_entries = max_entries
        self._stats = {
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "writes": 0,
            "evictions": 0,
        }
        # Counts this instance's puts: the torn-write fault's index.
        self._puts = 0

    # -- bookkeeping --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Copy of this instance's lookup/write statistics."""
        return dict(self._stats)

    def entry_path(self, key: str) -> Path:
        """On-disk path of one entry (exists only if cached)."""
        if not key or any(ch in key for ch in "/\\"):
            raise ValueError(f"malformed cache key {key!r}")
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key``.

        Statistics-neutral (no hit/miss is charged) and content-blind:
        the entry may still prove corrupt when actually read.  Used to
        avoid rewriting entries that are already present.
        """
        return self.entry_path(key).exists()

    def __len__(self) -> int:
        """Number of entry files currently on disk."""
        try:
            return sum(
                1
                for name in os.listdir(self.directory)
                if name.endswith(ENTRY_SUFFIX)
            )
        except OSError:
            return 0

    def discard(self, key: str) -> None:
        """Delete the entry for ``key`` if there is one.

        Statistics-neutral.  The sweep calls it for a negative entry
        whose point, retried, ended in a deterministic error: that
        error is never stored, and the old quarantine must not outlive
        it.
        """
        try:
            os.unlink(self.entry_path(key))
        except OSError:
            pass

    def clear(self) -> None:
        """Delete every entry and every staging file a killed writer
        left behind (the directory itself is kept)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(ENTRY_SUFFIX) or name.startswith(STAGING_PREFIX):
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass

    # -- lookups ------------------------------------------------------------

    def get(
        self, key: str, serves: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Any]:
        """The cached payload for ``key``, or ``None`` on a miss.

        Corrupt entries (torn writes, bit rot, foreign files) count as
        misses: they warn with :class:`CacheWarning`, are deleted, and
        the caller recomputes.  Nothing raises out of here -- a cache
        must never be able to fail a sweep.

        ``serves`` says whether the caller serves a payload it reads;
        one it will not serve (a negative entry outside a resume) is
        still returned but counts as a miss, so ``hits`` counts only
        served entries.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self._stats["misses"] += 1
            return None
        payload = self._decode(key, raw)
        if payload is None:
            self._stats["corrupt"] += 1
            self._stats["misses"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if serves is None or serves(payload):
            self._stats["hits"] += 1
        else:
            self._stats["misses"] += 1
        return payload

    def _decode(self, key: str, raw: bytes) -> Optional[Any]:
        """Parse one entry file; ``None`` means corrupt (warned)."""
        newline = raw.find(b"\n")
        if newline < 0:
            self._warn(key, "no header line (torn write?)")
            return None
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._warn(key, "unreadable header")
            return None
        if not isinstance(header, dict) or header.get("format") != CACHE_FORMAT:
            self._warn(
                key,
                f"foreign format {header.get('format')!r}"
                if isinstance(header, dict)
                else "header is not an object",
            )
            return None
        if header.get("key") != key:
            self._warn(key, f"header names key {header.get('key')!r}")
            return None
        blob = raw[newline + 1 :]
        if _blob_digest(blob) != header.get("sha256"):
            self._warn(key, "payload digest mismatch (truncated or corrupt)")
            return None
        try:
            return pickle.loads(zlib.decompress(blob))
        except Exception:
            # The digest matched, so this is a version skew (pickle
            # from an incompatible tree), not damage -- same remedy.
            self._warn(key, "payload does not unpickle")
            return None

    def _warn(self, key: str, reason: str) -> None:
        warnings.warn(
            CacheWarning(
                f"cache entry {key[:12]}... in {self.directory} ignored: "
                f"{reason}; the point will be recomputed"
            ),
            stacklevel=4,
        )

    # -- writes -------------------------------------------------------------

    def put(
        self, key: str, payload: Any, coords: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Store ``payload`` under ``key`` atomically.

        ``coords`` is a small human-readable dict echoed into the
        header for forensics.  A quarantined :class:`JobFailure` is
        stored as a negative entry; any other :class:`JobFailure` is
        refused with :class:`ValueError`, because a deterministic
        error must be recomputed by future runs, never served.
        An unwritable cache directory degrades to a warning -- the
        sweep computed the point either way.
        """
        if isinstance(payload, JobFailure) and not payload.quarantined:
            raise ValueError(
                "refusing to cache a non-quarantined JobFailure: failed "
                "sweep points must be recomputed, not served from the cache"
            )
        blob = zlib.compress(pickle.dumps(payload))
        header = json.dumps(
            {
                "format": CACHE_FORMAT,
                "key": key,
                "sha256": _blob_digest(blob),
                "coords": dict(coords) if coords else {},
            },
            sort_keys=True,
        ).encode("utf-8")
        seq = self._puts
        self._puts += 1
        if maybe_torn_write("cache", seq):
            # Injected fault: a writer that died mid-write without the
            # atomic rename, leaving half an entry under its own name.
            entry = header + b"\n" + blob
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.entry_path(key), "wb") as handle:
                handle.write(entry[: len(entry) // 2])
            raise TornWriteInjected(
                f"injected torn cache write at put #{seq} ({self.directory})"
            )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, staging = tempfile.mkstemp(
                prefix=STAGING_PREFIX, suffix=ENTRY_SUFFIX + ".tmp",
                dir=self.directory,
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header)
                    handle.write(b"\n")
                    handle.write(blob)
                os.replace(staging, self.entry_path(key))
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(
                CacheWarning(
                    f"could not write cache entry under {self.directory}: "
                    f"{exc}; the sweep continues uncached"
                ),
                stacklevel=2,
            )
            return
        self._stats["writes"] += 1
        if self.max_entries is not None:
            self._evict_over(self.max_entries)

    def _evict_over(self, bound: int) -> None:
        """Drop least-recently-written entries past ``bound``.

        Victims are ordered by nanosecond write time with the entry
        name (the content key) as tie-break: filesystem timestamps can
        be coarse -- whole seconds on some filesystems -- and a grid
        whose writes land within one clock tick must still evict the
        same entries on every run, on every machine.  The float
        ``st_mtime`` would additionally round distinct nanosecond
        stamps together; ``st_mtime_ns`` keeps the primary order
        exact.
        """
        try:
            entries = [
                self.directory / name
                for name in os.listdir(self.directory)
                if name.endswith(ENTRY_SUFFIX)
            ]
        except OSError:
            return
        if len(entries) <= bound:
            return
        def mtime_ns(path: Path) -> int:
            try:
                return path.stat().st_mtime_ns
            except OSError:
                return 0
        entries.sort(key=lambda path: (mtime_ns(path), path.name))
        for path in entries[: len(entries) - bound]:
            try:
                os.unlink(path)
            except OSError:
                continue
            self._stats["evictions"] += 1


def resolve_cache(
    cache: Optional[Union[PathLike, ResultCache]]
) -> Optional[ResultCache]:
    """Normalise a ``cache=`` argument: path-likes become stores."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
