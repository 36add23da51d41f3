"""Every SQLite file the library keeps refuses a foreign schema stamp.

The experiment store's ``index.sqlite`` and the scheduler's
``jobs.sqlite`` share one opening routine
(:func:`repro.sqlite_index.open_index`). A file stamped by another
schema version must raise the owner's error type and be left exactly
as it was: the setup transaction rolls back whole, so not even a
missing table is recreated.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import SchedulerError, StoreError
from repro.sched import JobQueue
from repro.store import ExperimentStore

#: owner -> (what the constructor opens, its SQLite file, constructor, error)
OWNERS = {
    "store": ("store", "store/index.sqlite", ExperimentStore, StoreError),
    "queue": ("jobs.sqlite", "jobs.sqlite", JobQueue, SchedulerError),
}


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_foreign_stamp_raises_the_owners_error_and_changes_nothing(tmp_path, owner):
    target, filename, opener, error = OWNERS[owner]
    index = tmp_path / filename
    opener(tmp_path / target).close()
    db = sqlite3.connect(index)
    db.execute("UPDATE meta SET value='repro.foreign/v0' WHERE key='schema'")
    # Drop one table, as if the file predated it: a successful open
    # would recreate it, a refused one must not.
    (dropped,) = db.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name != 'meta' "
        "ORDER BY name LIMIT 1"
    ).fetchone()
    db.execute(f"DROP TABLE {dropped}")
    db.commit()
    db.close()
    before = index.read_bytes()

    with pytest.raises(error, match="repro.foreign/v0"):
        opener(tmp_path / target)

    assert index.read_bytes() == before
    db = sqlite3.connect(index)
    names = {name for (name,) in db.execute("SELECT name FROM sqlite_master")}
    db.close()
    assert dropped not in names
