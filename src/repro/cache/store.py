"""Content-addressed deterministic memo stores (memory + disk).

The cache holds **recomputable, deterministic** values only -- plan
translations, DC operating points, full synthesis records -- under
content addresses from :mod:`repro.cache.keys`.  That shapes the whole
design:

* a miss is never an error, it is just work;
* every entry is *verified on read* -- the payload's own SHA-256 is
  stored beside it, and an entry whose digest no longer matches (bit
  rot, a torn write, a hostile ``cache.corrupt`` fault injection) is
  dropped and recomputed.  A poisoned cache can cost time, never
  correctness;
* every entry records the knowledge-base fingerprint it was computed
  under (:func:`repro.cache.keys.kb_fingerprint`); a KB version bump
  invalidates it on the next read.

:class:`ResultCache` layers an in-process LRU over an optional on-disk
store (``REPRO_CACHE_DIR``), with per-namespace hit/miss/put counters
that feed both :meth:`ResultCache.stats` (always available, e.g. for
``repro stats``) and the ambient observability metrics
(``cache.hits{namespace=...}`` / ``cache.misses{...}`` /
``cache.corruptions{...}`` -- Prometheus-style keys in the PR-4 metrics
registry) when a tracer is active.

Activation follows the ambient-contextvar pattern of
:class:`~repro.resilience.Budget` and :class:`~repro.obs.Tracer`::

    with cache_scope(ResultCache(disk_dir="~/.cache/repro")):
        synthesize(spec, process)        # dc.py hook sees the cache

or from the environment: :func:`cache_from_env` builds a cache when
``REPRO_CACHE_DIR`` is set (the batch CLI does this automatically).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, suppress

try:  # advisory file locking is POSIX-only; Windows degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

from ..obs.spans import count as metric_count
from ..resilience.faults import fault_point
from .keys import kb_fingerprint

__all__ = [
    "CacheStats",
    "MemoryCache",
    "DiskCache",
    "ResultCache",
    "current_cache",
    "cache_scope",
    "cache_from_env",
    "memoize",
]

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _payload_digest(payload_json: str) -> str:
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-namespace cache accounting (deterministic, test-friendly)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0  # KB-fingerprint mismatches dropped on read
    corruptions: int = 0  # digest mismatches dropped on read

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
            "corruptions": self.corruptions,
        }

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.invalidations += other.invalidations
        self.corruptions += other.corruptions


class MemoryCache:
    """A bounded, thread-safe LRU of canonical-JSON entries.

    Entries are stored as ``(kb_fingerprint, digest, payload_json)``
    strings -- *not* live objects -- so a hit always deserializes a
    fresh value and cached state can never be mutated by a caller.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[str, str, str]]" = OrderedDict()

    def get(self, key: str) -> Optional[Tuple[str, str, str]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: Tuple[str, str, str]) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def drop(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@contextmanager
def _shard_lock(directory: Path) -> Iterator[None]:
    """Advisory exclusive lock on one cache shard directory.

    Serializes *writers* (readers never lock: ``os.replace`` keeps
    reads atomic), which makes two guarantees cheap: any ``*.tmp.*``
    file observed while holding the lock belongs to a dead writer and
    may be reclaimed, and publication order on one key is total.  On
    platforms without :mod:`fcntl` -- or when the lock file itself
    cannot be opened -- writers fall back to plain atomic-replace,
    which still never exposes a torn entry.
    """
    if fcntl is None:
        yield
        return
    try:
        handle = open(directory / ".lock", "a+")
    except OSError:
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        with suppress(OSError):
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()


class DiskCache:
    """One JSON file per entry under ``root/<namespace>/<aa>/<key>.json``.

    Writes are atomic and durable: the record is written to a
    process-private temp file, fsync'd, then published with
    ``os.replace`` under a per-shard advisory lock
    (:func:`_shard_lock`), so concurrent batch workers sharing a
    directory can only ever observe complete entries -- a reader sees
    the old bytes or the new bytes, never a prefix.  Two workers racing
    on the same key write identical bytes (the cache is deterministic
    by contract), so last-write-wins is safe; the digest check in
    :class:`ResultCache` backstops even a torn write surviving a crash.
    """

    def __init__(self, root: Union[str, os.PathLike[str]]):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def get(self, namespace: str, key: str) -> Optional[Tuple[str, str, str]]:
        path = self._path(namespace, key)
        try:
            raw = path.read_text(encoding="utf-8")
            entry = json.loads(raw)
            return (
                str(entry["kb"]),
                str(entry["sha256"]),
                json.dumps(entry["payload"], sort_keys=True,
                           separators=(",", ":")),
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable / torn / foreign file: treat as a miss and
            # clear it out of the way.
            self.drop(namespace, key)
            return None

    def put(self, namespace: str, key: str, entry: Tuple[str, str, str]) -> None:
        kb, digest, payload_json = entry
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = (
            '{"kb":' + json.dumps(kb)
            + ',"key":' + json.dumps(key)
            + ',"payload":' + payload_json
            + ',"sha256":' + json.dumps(digest)
            + "}"
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with _shard_lock(path.parent):
                # Any other tmp file for this key belongs to a writer
                # that died mid-put (the lock excludes live ones).
                for stale in path.parent.glob(f"{path.stem}.tmp.*"):
                    if stale != tmp:
                        with suppress(OSError):
                            stale.unlink()
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(record)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
        except OSError:
            # A full or read-only disk degrades to "no disk layer".
            try:
                tmp.unlink()
            except OSError:
                pass

    def drop(self, namespace: str, key: str) -> None:
        try:
            self._path(namespace, key).unlink()
        except OSError:
            pass

    def clear(self, namespace: Optional[str] = None) -> int:
        """Remove all entries (of one namespace); returns files removed."""
        base = self.root / namespace if namespace else self.root
        removed = 0
        if not base.exists():
            return 0
        for path in sorted(base.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.rglob("*.json"))


class ResultCache:
    """Layered (memory over optional disk) deterministic memo store.

    Args:
        disk_dir: directory for the persistent layer (None = memory
            only).
        max_entries: LRU bound of the in-process layer.
        kb: knowledge-base fingerprint entries are tagged with; defaults
            to :func:`repro.cache.keys.kb_fingerprint` resolved lazily
            on first use (so constructing a cache never imports the op
            amp catalogue).
    """

    def __init__(
        self,
        disk_dir: Optional[Union[str, os.PathLike[str]]] = None,
        max_entries: int = 4096,
        kb: Optional[str] = None,
    ):
        self.memory = MemoryCache(max_entries=max_entries)
        self.disk = DiskCache(disk_dir) if disk_dir is not None else None
        self._kb = kb
        self._stats: Dict[str, CacheStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def kb(self) -> str:
        if self._kb is None:
            self._kb = kb_fingerprint()
        return self._kb

    def _stats_for(self, namespace: str) -> CacheStats:
        with self._lock:
            stats = self._stats.get(namespace)
            if stats is None:
                stats = self._stats[namespace] = CacheStats()
            return stats

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Any]:
        """The cached payload (deserialized fresh), or None on miss.

        A hit requires the stored KB fingerprint to match the active
        knowledge base *and* the stored digest to match the payload
        bytes; failures of either check drop the entry and count as
        ``invalidations`` / ``corruptions`` respectively.
        """
        stats = self._stats_for(namespace)
        entry = self.memory.get(key)
        source = "memory"
        if entry is None and self.disk is not None:
            entry = self.disk.get(namespace, key)
            source = "disk"
        if entry is None:
            stats.misses += 1
            metric_count("cache.misses", namespace=namespace)
            return None

        kb, digest, payload_json = entry
        if fault_point("cache.corrupt") is not None:
            # Deterministic chaos: poison the payload *after* the read,
            # exactly like bit rot would.  Verification must catch it.
            payload_json = '{"__corrupt__":true}'
        if kb != self.kb:
            self._drop(namespace, key)
            stats.invalidations += 1
            stats.misses += 1
            metric_count("cache.invalidations", namespace=namespace)
            metric_count("cache.misses", namespace=namespace)
            return None
        if _payload_digest(payload_json) != digest:
            self._drop(namespace, key)
            stats.corruptions += 1
            stats.misses += 1
            metric_count("cache.corruptions", namespace=namespace)
            metric_count("cache.misses", namespace=namespace)
            return None
        if source == "disk":
            # Promote so the next lookup skips the filesystem.
            self.memory.put(key, entry)
        stats.hits += 1
        metric_count("cache.hits", namespace=namespace)
        return json.loads(payload_json)

    def put(self, namespace: str, key: str, payload: Any) -> None:
        """Store a JSON-able payload under ``key``.

        The payload is serialized with plain :func:`json.dumps` (sorted
        keys), *not* :func:`~repro.cache.keys.canonical_json`: canonical
        float folding (``5.0 -> 5``) is for hash stability of *keys*;
        payloads must round-trip **exactly**, or a cache hit would not
        be byte-identical to the recompute it replaces (the golden-run
        suite checks precisely this).  ``allow_nan=False`` keeps the
        store strict-JSON: callers sanitize non-finite values first.
        """
        payload_json = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),  # must match DiskCache.get's re-dump
            allow_nan=False,
        )
        entry = (self.kb, _payload_digest(payload_json), payload_json)
        self.memory.put(key, entry)
        if self.disk is not None:
            self.disk.put(namespace, key, entry)
        self._stats_for(namespace).puts += 1
        metric_count("cache.puts", namespace=namespace)

    def _drop(self, namespace: str, key: str) -> None:
        self.memory.drop(key)
        if self.disk is not None:
            self.disk.drop(namespace, key)

    def clear(self, namespace: Optional[str] = None) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear(namespace)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, CacheStats]:
        """Per-namespace accounting, namespaces sorted."""
        with self._lock:
            return {ns: self._stats[ns] for ns in sorted(self._stats)}

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        return {ns: s.as_dict() for ns, s in self.stats().items()}

    def render_stats(self) -> str:
        """Human-readable stats block (the ``repro stats`` section)."""
        lines = ["Cache"]
        stats = self.stats()
        if not stats:
            lines.append("  (no lookups recorded)")
        for namespace, s in stats.items():
            lines.append(
                f"  {namespace:<8} hits {s.hits:>6}  misses {s.misses:>6}  "
                f"puts {s.puts:>6}  hit-rate {s.hit_rate * 100:5.1f} %"
                + (
                    f"  [invalidated {s.invalidations}, corrupt {s.corruptions}]"
                    if s.invalidations or s.corruptions
                    else ""
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient activation (the Budget / Tracer pattern)
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[ResultCache]] = ContextVar(
    "repro_cache", default=None
)


def current_cache() -> Optional[ResultCache]:
    """The ambient cache installed by :func:`cache_scope`, if any."""
    return _ACTIVE.get()


@contextmanager
def cache_scope(cache: Optional[ResultCache]) -> Iterator[Optional[ResultCache]]:
    """Install ``cache`` as the ambient cache for the ``with`` block.

    ``cache_scope(None)`` explicitly *disables* caching inside the
    block (useful for cold-path measurements under a warm parent)."""
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def cache_from_env(env: Optional[Mapping[str, str]] = None) -> Optional[ResultCache]:
    """A disk-backed cache when ``REPRO_CACHE_DIR`` is set, else None."""
    environ: Mapping[str, str] = env if env is not None else os.environ
    directory = environ.get(CACHE_DIR_ENV, "").strip()
    if not directory:
        return None
    return ResultCache(disk_dir=directory)


def memoize(
    namespace: str,
    key: str,
    compute: Callable[[], Any],
    cache: Optional[ResultCache] = None,
) -> Any:
    """``cache.get`` or ``compute()``-then-``put`` in one call.

    Uses the ambient cache when ``cache`` is None; with no cache active
    this is exactly ``compute()``.
    """
    store = cache if cache is not None else current_cache()
    if store is None:
        return compute()
    hit = store.get(namespace, key)
    if hit is not None:
        return hit
    value = compute()
    store.put(namespace, key, value)
    return value
