"""Bookmark artifacts written and read straight through the store.

A bookmark is one ``ckpt`` artifact: its record as a sorted-key JSON
line, then the session's snapshot blob. Earlier releases stored the
record alone and filed the blob under its digest (the *legacy*
layout). Tests that corrupt a record, lose a blob or inspect what a
write stored go through these two helpers instead of
:class:`~repro.ckpt.CheckpointManager`.
"""

import json

from repro.ckpt import blob_digest


def read_bookmark(store, key):
    """``(record, blob)`` stored under ``key``, or ``None``.

    ``blob`` is empty for a legacy-layout bookmark.
    """
    data = store.get_ckpt(key)
    if data is None:
        return None
    line, _, blob = data.partition(b"\n")
    return json.loads(line), blob


def write_bookmark(store, key, record, blob, legacy=False):
    """File ``record`` and ``blob`` under ``key``.

    With ``legacy`` the blob goes under its own digest and the record
    alone under ``key``, as earlier releases wrote them.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    if legacy:
        store.put_ckpt(blob_digest(blob), blob)
        blob = b""
    store.put_ckpt(key, line + blob)
