"""One way to open, stamp and transact a WAL SQLite index.

The experiment store's ``index.sqlite``, the scheduler's ``jobs.sqlite``
and the telemetry journal's ``telemetry.sqlite`` are the same kind of
file: one connection per owner shared by its threads under the owner's
lock, shared between processes through WAL mode, every mutation in one
``BEGIN IMMEDIATE`` transaction, and a ``meta`` table stamped with the
owner's schema version so a mismatch fails loudly instead of
misreading rows. This module is that idiom, written once.

It imports nothing from :mod:`repro` except :mod:`repro.errors`, so the
observability layer can use it without an import cycle.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError


def connect(path: str | Path) -> sqlite3.Connection:
    """Open ``path`` as a WAL index shared by threads and processes."""
    db = sqlite3.connect(
        path,
        timeout=30.0,
        check_same_thread=False,
        isolation_level=None,  # autocommit; explicit BEGIN for batches
    )
    db.execute("PRAGMA journal_mode=WAL")
    db.execute("PRAGMA synchronous=NORMAL")
    db.execute("PRAGMA busy_timeout=30000")
    return db


@contextmanager
def transaction(
    lock: threading.RLock, db: sqlite3.Connection
) -> Iterator[sqlite3.Connection]:
    """``with transaction(lock, db):`` — the owner's lock, then one
    ``BEGIN IMMEDIATE`` transaction, committed when the body returns
    and rolled back when it raises."""
    with lock:
        db.execute("BEGIN IMMEDIATE")
        try:
            yield db
            db.execute("COMMIT")
        except BaseException:
            db.execute("ROLLBACK")
            raise


def open_index(
    path: str | Path,
    lock: threading.RLock,
    schema: str,
    tables: Iterable[str],
    error: Callable[[str], ReproError],
    what: str,
    migrate: Callable[[sqlite3.Connection], None] | None = None,
) -> sqlite3.Connection:
    """Open one index, create its tables and check its schema stamp.

    Args:
        path: the SQLite file (created if missing).
        lock: the owner's lock, held across the setup transaction.
        schema: the version stamp this library reads and writes.
        tables: ``CREATE ... IF NOT EXISTS`` statements for the owner's
            tables and indexes; tables added since a file was written
            appear on its next open (lazy migration).
        error: the owner's error type, raised on a foreign stamp.
        what: how the message names the file (``"job queue at …"``).
        migrate: optional data migration, run before the stamp check.

    Everything runs in one transaction, so a foreign stamp rolls the
    whole setup back and leaves the file as it was; the connection is
    closed before the error propagates.
    """
    db = connect(path)
    try:
        with transaction(lock, db):
            db.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            for statement in tables:
                db.execute(statement)
            if migrate is not None:
                migrate(db)
            row = db.execute("SELECT value FROM meta WHERE key='schema'").fetchone()
            if row is None:
                db.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)", (schema,)
                )
            elif row[0] != schema:
                raise error(
                    f"{what} has schema {row[0]!r}; this library reads "
                    f"{schema!r} — use a fresh file or migrate it"
                )
    except BaseException:
        db.close()
        raise
    return db
