"""The persistent, concurrent-safe experiment store.

On-disk layout (everything lives under one root directory)::

    <root>/
        index.sqlite          # entry index + persistent counters
        results/<key>.json    # one executed RunSpec, by RunSpec.key()
        streams/<digest>.npz  # one filtered miss stream (trace_io format)
        ckpt/<key>.bin        # one checkpoint bookmark (repro.ckpt format)

Design points:

- **Content addressing.** Result artifacts are named by the spec's
  stable :meth:`~repro.run.spec.RunSpec.key` (engine excluded — engines
  are bit-identical by contract, so one copy serves both). Stream
  artifacts are named by a digest of the stream identity
  (:func:`stream_digest_for_spec` / :func:`stream_digest_for_trace`).
- **Atomic writes.** Every artifact is written to a temporary file in
  the same directory and ``os.replace``-d into place, so concurrent
  writers of the same key race to an *identical* final state and a
  reader never observes a torn file.
- **One read path, one write path.** Results, miss streams and
  checkpoint blobs differ only in how their bytes are encoded (result
  JSON, the ``trace_io`` npz, opaque blobs). Every keyed read goes
  through ``_get``: index lookup, one file read, decode, then the LRU
  touch and hit/byte counters. An artifact that has vanished — another
  process's ``cache gc`` deleted it after the lookup — is dropped from
  the index and counted as a miss, for every kind; a damaged one
  raises :class:`~repro.errors.StoreError`. Every write goes through
  ``_put``: each artifact's atomic write, then one index transaction
  for the whole batch, then the budget's :meth:`~ExperimentStore.gc`.
- **Crash points.** A writer that dies between its tmp write and the
  rename leaves only a dot-named temporary, which :meth:`gc` sweeps
  once it is older than an hour. One that dies after the rename but
  before the index commit leaves the key reading as before: absent if
  it was new; if it existed, its old row points at a file holding the
  new, equally valid bytes. A batch commits all of its rows or none.
  Either way a reopened store serves every committed key.
- **Schema versioning.** The index records :data:`STORE_SCHEMA`; both
  the index and every artifact are checked on read, and a mismatch
  raises :class:`~repro.errors.StoreError` rather than guessing.
- **LRU garbage collection.** Entries carry sizes and access times;
  :meth:`ExperimentStore.gc` evicts least-recently-used entries until
  the store fits ``max_bytes``.
- **Accounting.** Hits, misses, evictions and bytes moved are kept in
  the index (persistent across processes) and exposed by
  :meth:`ExperimentStore.stats` — the counters the resumable-sweep
  guarantees are verified against.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import sqlite3
import threading
import time
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import StoreError, TraceError
from repro.mem.trace import MissTrace
from repro.mem.trace_io import miss_trace_bytes, parse_miss_trace
from repro.obs import REGISTRY, trace
from repro.run.results import ResultSet
from repro.sim.stats import PrefetchRunStats
from repro.sqlite_index import open_index, transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner -> store)
    from repro.run.spec import RunSpec
    from repro.sim.config import TLBConfig

#: Version stamp shared by the SQLite index and every result artifact.
STORE_SCHEMA = "repro.store/v1"

_RESULT = "result"
_STREAM = "stream"
_CKPT = "ckpt"
_KINDS = (_RESULT, _STREAM, _CKPT)

#: Characters allowed verbatim in a checkpoint artifact filename; any
#: other key is stored under a digest of itself instead.
_SAFE_CKPT_KEY = re.compile(r"^[A-Za-z0-9._-]+$")

#: Errors that mean "this artifact is damaged", translated to StoreError.
_ARTIFACT_ERRORS = (
    json.JSONDecodeError,
    zipfile.BadZipFile,
    TraceError,
    ValueError,
    KeyError,
    EOFError,
    OSError,
)

_tmp_counter = itertools.count()

#: This process's share of the persistent index counters (hits, misses,
#: evictions, bytes moved), mirrored into the metrics registry at
#: ``_bump`` time so ``GET /metrics`` sees live deltas without reading
#: SQLite. The persistent counters in the index remain authoritative.
_OBS_COUNTERS = REGISTRY.counter(
    "repro_store_events_total",
    "Store accounting events (hits, misses, evictions, bytes) this process.",
    labels=("name",),
)
_OBS_LOOKUPS = REGISTRY.counter(
    "repro_store_lookups_total",
    "Keyed store lookups by artifact kind (each resolves to a hit or miss).",
    labels=("kind",),
)

#: Temporary files younger than this survive the GC sweep: they may be
#: an in-flight write from a live process in the tmp→rename window, and
#: unlinking one would crash that writer's ``os.replace``. Anything
#: older is an abandoned write from a crashed process.
_TMP_SWEEP_AGE_SECONDS = 3600.0

_TABLES = (
    "CREATE TABLE IF NOT EXISTS entries ("
    " kind TEXT NOT NULL,"
    " key TEXT NOT NULL,"
    " path TEXT NOT NULL,"
    " size_bytes INTEGER NOT NULL,"
    " created_at REAL NOT NULL,"
    " last_access REAL NOT NULL,"
    " workload TEXT,"
    " mechanism TEXT,"
    " PRIMARY KEY (kind, key))",
    "CREATE TABLE IF NOT EXISTS counters "
    "(name TEXT PRIMARY KEY, value INTEGER NOT NULL)",
    # Tenant visibility grants (multi-tenant service). This is a *lazy
    # migration*: artifacts stay shared and content-addressed (dedup
    # and byte-identity untouched); the table only records which
    # tenant namespaces may *see* which keys. Pre-tenant stores gain
    # the empty table on their next open — no version bump needed,
    # because absent rows simply mean "no grants yet".
    "CREATE TABLE IF NOT EXISTS tenant_keys ("
    " tenant TEXT NOT NULL,"
    " kind TEXT NOT NULL,"
    " key TEXT NOT NULL,"
    " PRIMARY KEY (tenant, kind, key))",
)


def _seed_access_clock(db: sqlite3.Connection) -> None:
    """Migrate a pre-counter store: start the LRU clock past its entries.

    Seeds ``access_seq`` just past the largest wall-clock recency
    already recorded, so existing entries keep their relative order
    and every new access sorts after them.
    """
    if db.execute("SELECT value FROM counters WHERE name='access_seq'").fetchone():
        return
    seed = db.execute(
        "SELECT CAST(MAX(last_access) AS INTEGER) FROM entries"
    ).fetchone()[0]
    db.execute(
        "INSERT INTO counters (name, value) VALUES ('access_seq', ?)",
        (int(seed or 0),),
    )


def _decode_stream(path: Path, data: bytes) -> MissTrace:
    try:
        return parse_miss_trace(data, path)
    except _ARTIFACT_ERRORS as exc:
        raise StoreError(
            f"{path}: corrupt miss-stream artifact "
            f"({type(exc).__name__}: {exc}); delete it or run gc"
        ) from exc


def stream_digest_for_spec(spec: "RunSpec") -> str:
    """Stable digest of the miss stream a registry-workload spec replays.

    Derived from :meth:`RunSpec.stream_key` — every field that affects
    phase-1 TLB filtering and nothing else, so specs differing only in
    mechanism/buffer/clamp share one stored stream.
    """
    canonical = "stream;" + ";".join(repr(part) for part in spec.stream_key())
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def stream_digest_for_trace(
    content_key: str, tlb: "TLBConfig", warmup_fraction: float
) -> str:
    """Stable digest for an ad-hoc trace's filtered stream.

    Mirrors the in-memory cache key the :class:`~repro.run.runner.Runner`
    uses for :class:`~repro.mem.trace.ReferenceTrace` sources: the trace
    *content* digest (page size is already baked into the content) plus
    the filtering TLB shape and warm-up window.
    """
    canonical = (
        f"trace-stream;content={content_key};"
        f"tlb={tlb.entries},{tlb.ways};warmup={warmup_fraction!r}"
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class ExperimentStore:
    """A durable, content-addressed cache of runs and miss streams.

    Args:
        root: store directory; created (with parents) if missing.
        max_bytes: optional size bound — when set, every write is
            followed by an LRU :meth:`gc` pass down to this budget.

    Instances are safe to share between threads (one internal lock
    serializes index access) and the on-disk format is safe to share
    between processes (WAL SQLite + atomic artifact writes).
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} exists and is not a directory")
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        for subdir in ("results", "streams", "ckpt"):
            (self.root / subdir).mkdir(parents=True, exist_ok=True)
        self._db = open_index(
            self.root / "index.sqlite",
            self._lock,
            STORE_SCHEMA,
            _TABLES,
            StoreError,
            f"store at {self.root}",
            migrate=_seed_access_clock,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the index connection (artifacts need no teardown)."""
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ExperimentStore({str(self.root)!r}, max_bytes={self.max_bytes})"

    # -- small internals ---------------------------------------------------

    def _txn(self):
        return transaction(self._lock, self._db)

    def _bump(self, name: str, delta: int = 1) -> None:
        self._db.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, delta),
        )
        _OBS_COUNTERS.inc(delta, name=name)

    def _advance_clock(self, steps: int) -> int:
        """Advance the persistent LRU clock by ``steps``; its new value.

        Entry recency used to be wall-clock ``time.time()``: an NTP
        step (or two touches inside one clock tick) could reorder —
        or tie — entries and make :meth:`gc` eviction order depend on
        the host clock, occasionally evicting the most-recently-used
        artifact. The monotonic ``access_seq`` counter lives in the
        ``counters`` table, so recency survives reopens, is shared
        across processes (the upsert is serialized by SQLite), and
        never ties.
        """
        return self._db.execute(
            "INSERT INTO counters (name, value) VALUES ('access_seq', ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value "
            "RETURNING value",
            (steps,),
        ).fetchone()[0]

    def _drop_entry(self, kind: str, key: str) -> None:
        self._db.execute(
            "DELETE FROM entries WHERE kind=? AND key=?", (kind, key)
        )

    def _has(self, kind: str, key: str) -> bool:
        """Index-only presence probe: no counters, no artifact read."""
        with self._lock:
            return (
                self._db.execute(
                    "SELECT 1 FROM entries WHERE kind=? AND key=?", (kind, key)
                ).fetchone()
                is not None
            )

    def _get(
        self, kind: str, key: str, decode: Callable[[Path, bytes], Any]
    ) -> Any | None:
        """The one keyed read: artifact for ``key`` decoded, or ``None``.

        Counts exactly one hit or miss. An artifact gone by the time it
        is read (collected by another process after we indexed it) is
        an honest miss and its stale row is dropped; ``decode`` raises
        :class:`~repro.errors.StoreError` for a damaged one.
        """
        _OBS_LOOKUPS.inc(kind=kind)
        with self._lock:
            row = self._db.execute(
                "SELECT path FROM entries WHERE kind=? AND key=?", (kind, key)
            ).fetchone()
            data = None
            if row is not None:
                path = self.root / row[0]
                try:
                    data = path.read_bytes()
                except FileNotFoundError:
                    self._drop_entry(kind, key)
                except OSError as exc:
                    raise StoreError(
                        f"{path}: unreadable {kind} artifact "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc
            if data is None:
                self._bump(f"{kind}_misses")
                return None
            value = decode(path, data)
            self._db.execute(
                "UPDATE entries SET last_access=? WHERE kind=? AND key=?",
                (self._advance_clock(1), kind, key),
            )
            self._bump(f"{kind}_hits")
            self._bump("bytes_read", len(data))
            return value

    def _put(
        self,
        kind: str,
        artifacts: list[tuple[str, str, bytes, str | None, str | None]],
    ) -> None:
        """The one write: ``(key, rel_path, data, workload, mechanism)`` rows.

        Artifacts are written before the transaction opens, so the
        index write lock is never held across file I/O, and the whole
        batch costs three index statements (one LRU-clock advance, one
        ``executemany`` of entry rows, one byte-counter bump) rather
        than three per artifact.
        """
        with self._lock:
            for _, rel, data, _, _ in artifacts:
                final = self.root / rel
                tmp = final.parent / (
                    f".{final.name}.{os.getpid()}.{next(_tmp_counter)}.tmp"
                )
                tmp.write_bytes(data)
                os.replace(tmp, final)
            now = time.time()
            with self._txn():
                if artifacts:
                    # Entry i takes seq base+i+1, preserving relative recency.
                    base = self._advance_clock(len(artifacts)) - len(artifacts)
                    self._db.executemany(
                        "INSERT INTO entries "
                        "(kind, key, path, size_bytes, created_at, last_access,"
                        " workload, mechanism) VALUES (?, ?, ?, ?, ?, ?, ?, ?) "
                        "ON CONFLICT(kind, key) DO UPDATE SET path=excluded.path,"
                        " size_bytes=excluded.size_bytes,"
                        " last_access=excluded.last_access,"
                        " workload=excluded.workload,"
                        " mechanism=excluded.mechanism",
                        [
                            (kind, key, rel, len(data), now, base + i + 1,
                             workload, mechanism)
                            for i, (key, rel, data, workload, mechanism)
                            in enumerate(artifacts)
                        ],
                    )
                    self._bump(
                        "bytes_written", sum(len(item[2]) for item in artifacts)
                    )
        if self.max_bytes is not None:
            self.gc()

    # -- results -----------------------------------------------------------

    def has_result(self, key: str) -> bool:
        """Index-only presence probe: no counters, no artifact read.

        For callers that need to *report* on cache state (e.g. the
        service's per-request hit accounting) without perturbing the
        hit/miss counters or paying a file read.
        """
        return self._has(_RESULT, key)

    def get_result(self, key: str) -> PrefetchRunStats | None:
        """Stored row for a spec key, or ``None`` (counted as hit/miss).

        Raises :class:`~repro.errors.StoreError` if the artifact exists
        but cannot be decoded (truncated/corrupt file).
        """
        return self._get(_RESULT, key, self._decode_result)

    @staticmethod
    def _decode_result(path: Path, data: bytes) -> PrefetchRunStats:
        try:
            payload = json.loads(data)
            schema = payload["schema"]
            run = payload["run"]
            if schema != STORE_SCHEMA:
                raise StoreError(
                    f"{path}: artifact schema {schema!r} is not {STORE_SCHEMA!r}"
                )
            if not isinstance(run, dict):
                raise StoreError(f"{path}: 'run' is not an object")
            return PrefetchRunStats(**run)
        except StoreError:
            raise
        except (_ARTIFACT_ERRORS + (TypeError,)) as exc:
            raise StoreError(
                f"{path}: corrupt result artifact "
                f"({type(exc).__name__}: {exc}); delete it or run gc"
            ) from exc

    def put_results(
        self, pairs: Iterable[tuple["RunSpec", PrefetchRunStats]]
    ) -> list[str]:
        """Store a batch of executed specs in one index transaction.

        The cold-sweep write-back path, kept inside the smoke bench's
        <5% ``store_cold_overhead_fraction`` budget: rows are
        serialized compactly up front (a shallow field copy — every
        stats field is a JSON scalar except ``extra`` — instead of
        ``dataclasses.asdict``'s deep recursion) and the batch shares
        one index transaction.
        """
        artifacts = []
        for spec, stats in pairs:
            key = spec.key()
            run = dict(vars(stats))
            run["extra"] = dict(run["extra"])
            payload = {
                "schema": STORE_SCHEMA,
                "key": key,
                "spec": spec.to_dict(),
                "run": run,
            }
            data = (
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode()
            artifacts.append(
                (key, f"results/{key}.json", data, spec.workload,
                 spec.mechanism.label)
            )
        with trace("store.put_results", count=len(artifacts)):
            self._put(_RESULT, artifacts)
        return [key for key, *_ in artifacts]

    def count_results(self) -> int:
        """Number of stored runs (index-only; backs pagination totals)."""
        with self._lock:
            (count,) = self._db.execute(
                "SELECT COUNT(*) FROM entries WHERE kind=?", (_RESULT,)
            ).fetchone()
        return count

    def load_results(
        self, limit: int | None = None, offset: int = 0
    ) -> ResultSet:
        """Stored runs as one :class:`ResultSet` (insertion order).

        The bulk read behind ``GET /results``; does not touch the
        hit/miss counters (those account keyed lookups). ``limit`` /
        ``offset`` page at the *index* level, so reading one page costs
        one page of artifact reads, not the whole store.
        """
        query = (
            "SELECT path FROM entries WHERE kind=? "
            "ORDER BY created_at ASC, key ASC"
        )
        params: list = [_RESULT]
        if limit is not None or offset:
            # SQLite requires a LIMIT clause to use OFFSET; -1 = no limit.
            query += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else limit, offset]
        with self._lock:
            rows = self._db.execute(query, params).fetchall()
        # Read artifacts outside the index lock: a bulk read must not
        # stall concurrent keyed lookups. An artifact GC'd between the
        # snapshot and its read is simply skipped.
        runs: list[PrefetchRunStats] = []
        total = 0
        for (rel,) in rows:
            path = self.root / rel
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            runs.append(self._decode_result(path, data))
            total += len(data)
        with self._lock:
            self._bump("bytes_read", total)
        return ResultSet(runs)

    # -- miss streams ------------------------------------------------------

    def get_stream(self, digest: str) -> MissTrace | None:
        """Stored miss stream for a digest, or ``None``."""
        return self._get(_STREAM, digest, _decode_stream)

    def put_stream(self, digest: str, stream: MissTrace) -> str:
        """Store one filtered miss stream under ``digest``."""
        artifact = (
            digest, f"streams/{digest}.npz", miss_trace_bytes(stream), stream.name,
            None,
        )
        self._put(_STREAM, [artifact])
        return digest

    # -- checkpoint blobs --------------------------------------------------

    @staticmethod
    def _ckpt_rel(key: str) -> str:
        """Artifact path for a checkpoint key.

        Filesystem-safe keys (content digests, as earlier releases filed
        snapshot blobs) map to ``ckpt/<key>.bin`` directly; anything
        else — bookmark keys contain ``:`` — is filed under a digest of
        the key so no key can escape the ``ckpt/`` directory.
        """
        if _SAFE_CKPT_KEY.match(key):
            return f"ckpt/{key}.bin"
        return f"ckpt/{hashlib.sha256(key.encode()).hexdigest()[:32]}.bin"

    def put_ckpt(self, key: str, blob: bytes) -> str:
        """Store one opaque checkpoint blob under ``key``; returns it.

        The store does not interpret the bytes — framing, schema and
        integrity are :mod:`repro.ckpt`'s concern — it only files,
        indexes, and garbage-collects them like any other artifact.
        """
        self._put(_CKPT, [(key, self._ckpt_rel(key), blob, None, None)])
        return key

    def get_ckpt(self, key: str) -> bytes | None:
        """Stored checkpoint blob for ``key``, or ``None`` (counted)."""
        return self._get(_CKPT, key, lambda path, blob: blob)

    def has_ckpt(self, key: str) -> bool:
        """Index-only presence probe (no counters, no artifact read)."""
        return self._has(_CKPT, key)

    def delete_ckpt(self, key: str) -> bool:
        """Remove one checkpoint blob; True if it existed."""
        with self._lock:
            row = self._db.execute(
                "SELECT path FROM entries WHERE kind=? AND key=?", (_CKPT, key)
            ).fetchone()
            if row is None:
                return False
            (self.root / row[0]).unlink(missing_ok=True)
            self._drop_entry(_CKPT, key)
            return True

    # -- tenant visibility grants ------------------------------------------

    def grant(self, tenant: str, kind: str, keys: Iterable[str]) -> None:
        """Make ``keys`` of ``kind`` visible to ``tenant``.

        Grants are an ACL over the shared content-addressed artifacts,
        not copies: two tenants submitting the same spec share one
        stored row and each holds a grant to it. Granting an existing
        pair is a no-op (idempotent, like the artifact writes).
        """
        if not tenant:
            raise StoreError("tenant must be a non-empty string")
        if kind not in _KINDS:
            raise StoreError(f"unknown entry kind {kind!r}; expected {_KINDS}")
        rows = [(tenant, kind, key) for key in keys]
        if not rows:
            return
        with self._txn():
            self._db.executemany(
                "INSERT OR IGNORE INTO tenant_keys (tenant, kind, key) "
                "VALUES (?, ?, ?)",
                rows,
            )

    def is_granted(self, tenant: str, kind: str, key: str) -> bool:
        """Whether ``tenant`` may see ``kind``/``key``."""
        with self._lock:
            row = self._db.execute(
                "SELECT 1 FROM tenant_keys WHERE tenant=? AND kind=? AND key=?",
                (tenant, kind, key),
            ).fetchone()
        return row is not None

    def granted_keys(self, tenant: str, kind: str) -> set[str]:
        """Every ``kind`` key visible to ``tenant``."""
        with self._lock:
            rows = self._db.execute(
                "SELECT key FROM tenant_keys WHERE tenant=? AND kind=?",
                (tenant, kind),
            ).fetchall()
        return {key for (key,) in rows}

    # -- introspection -----------------------------------------------------

    def entries(self, kind: str | None = None) -> list[dict[str, Any]]:
        """Index rows as dictionaries, most recently used first."""
        if kind is not None and kind not in _KINDS:
            raise StoreError(f"unknown entry kind {kind!r}; expected {_KINDS}")
        query = (
            "SELECT kind, key, path, size_bytes, created_at, last_access,"
            " workload, mechanism FROM entries"
        )
        params: tuple = ()
        if kind is not None:
            query += " WHERE kind=?"
            params = (kind,)
        query += " ORDER BY last_access DESC, key ASC"
        with self._lock:
            rows = self._db.execute(query, params).fetchall()
        names = (
            "kind", "key", "path", "size_bytes", "created_at", "last_access",
            "workload", "mechanism",
        )
        return [dict(zip(names, row)) for row in rows]

    def stats(self) -> dict[str, Any]:
        """Counts, sizes and the persistent hit/miss/bytes counters."""
        with self._lock:
            per_kind = {
                kind: (count, size)
                for kind, count, size in self._db.execute(
                    "SELECT kind, COUNT(*), COALESCE(SUM(size_bytes), 0) "
                    "FROM entries GROUP BY kind"
                ).fetchall()
            }
            counters = dict(
                self._db.execute("SELECT name, value FROM counters").fetchall()
            )
        result_count, result_bytes = per_kind.get(_RESULT, (0, 0))
        stream_count, stream_bytes = per_kind.get(_STREAM, (0, 0))
        ckpt_count, ckpt_bytes = per_kind.get(_CKPT, (0, 0))
        return {
            "schema": STORE_SCHEMA,
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "result_entries": result_count,
            "stream_entries": stream_count,
            "ckpt_entries": ckpt_count,
            "total_bytes": result_bytes + stream_bytes + ckpt_bytes,
            "result_hits": counters.get("result_hits", 0),
            "result_misses": counters.get("result_misses", 0),
            "stream_hits": counters.get("stream_hits", 0),
            "stream_misses": counters.get("stream_misses", 0),
            "ckpt_hits": counters.get("ckpt_hits", 0),
            "ckpt_misses": counters.get("ckpt_misses", 0),
            "evictions": counters.get("evictions", 0),
            "bytes_read": counters.get("bytes_read", 0),
            "bytes_written": counters.get("bytes_written", 0),
        }

    # -- garbage collection ------------------------------------------------

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Evict least-recently-used entries down to a byte budget.

        Args:
            max_bytes: budget for this pass; defaults to the store's
                configured :attr:`max_bytes`. ``None`` for both means
                only stale temporary files are swept.

        A reader never sees a torn artifact: every read resolves its
        index row and file under the same lock as this pass, and a
        file another process collects in between reads as a miss.
        Returns a report dictionary with ``evicted``,
        ``reclaimed_bytes`` and ``total_bytes``.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        evicted = 0
        reclaimed = 0
        with self._lock:
            # Sweep temporaries abandoned by a crashed writer — but only
            # old ones: a *fresh* tmp file may belong to a concurrent
            # writer between its write and its atomic rename.
            now = time.time()
            for subdir in ("results", "streams", "ckpt"):
                for stale in (self.root / subdir).glob(".*.tmp*"):
                    try:
                        if now - stale.stat().st_mtime >= _TMP_SWEEP_AGE_SECONDS:
                            stale.unlink(missing_ok=True)
                    except OSError:
                        continue  # vanished mid-sweep (the writer renamed it)
            rows = self._db.execute(
                "SELECT kind, key, path, size_bytes FROM entries "
                "ORDER BY last_access ASC, key ASC"
            ).fetchall()
            total = sum(row[3] for row in rows)
            if limit is not None:
                with self._txn():
                    for kind, key, rel, size in rows:
                        if total <= limit:
                            break
                        (self.root / rel).unlink(missing_ok=True)
                        self._drop_entry(kind, key)
                        total -= size
                        reclaimed += size
                        evicted += 1
                    if evicted:
                        self._bump("evictions", evicted)
        return {
            "evicted": evicted,
            "reclaimed_bytes": reclaimed,
            "total_bytes": total,
        }
