"""Deterministic binary codec for ``repro.ckpt/v1`` snapshot blobs.

Every snapshot serializes to one fixed, documented byte layout, so that
*identical logical state always produces identical bytes* — the
property a bookmark's ``state_digest`` integrity check and the
cross-engine byte-identity tests both depend on.

Blob layout::

    magic     b"RCKP"                 (4 bytes)
    schema    str                     ("repro.ckpt/v1")
    kind      str                     (snapshot registry kind)
    body      length-prefixed bytes   (encoded payload value)
    digest    8 bytes                 (sha256(magic..body) prefix)

Value encoding is a single-byte tag followed by the payload:

==== ======================================================
tag  payload
==== ======================================================
``N``  None — no payload
``F``  False / ``T``  True — no payload
``i``  zigzag varint integer (arbitrary precision)
``d``  IEEE-754 double, big-endian (8 bytes)
``s``  varint byte length + UTF-8 bytes
``b``  varint byte length + raw bytes
``l``  varint element count + encoded elements
``m``  varint pair count + encoded key/value pairs, in
       insertion order (callers must present canonical order)
==== ======================================================

Varints are LEB128 (7 bits per byte, little-endian groups); signed
integers are zigzag-mapped first so small negatives stay small. There
is no float-vs-int ambiguity: the tag is part of the value, so ``1``
and ``1.0`` encode differently and round-trip exactly.

The grammar is written once, here, and reached three ways:

- **The oracle.** :func:`encode_blob` encodes a payload (a snapshot's
  ``to_payload()``) value by value, and :func:`decode_blob` reads it
  back through a bounds-checked cursor. Tests hold every other path to
  these two, and callers without a compiled kernel use them.
- **Writers.** :func:`blob_writer` encodes, once, a payload whose live
  values are :class:`Hole` placeholders, into constant chunks; each
  write fills the holes with bytes its caller encoded straight from
  live state (:func:`int_bytes`, :func:`list_header`,
  :func:`value_bytes`) and frames the body. The compiled replay kernel writes its session
  blobs this way (:mod:`repro.sim.batchpath`), byte-identical to the
  oracle's encoding of the same state.
- **The reader.** :func:`read_blob` decodes by index over the bytes,
  without a cursor object, and returns what :func:`decode_blob` would;
  ``StateSnapshot.from_bytes`` reads with it.

Any structural problem — bad magic, unknown schema, truncation, a
digest mismatch, or trailing garbage after the blob — raises
:class:`~repro.errors.CkptError` naming the failing stage, from either
decoder: both go through one framing check.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Callable

from ..errors import CkptError

#: Schema tag embedded in (and demanded from) every blob.
CKPT_SCHEMA = "repro.ckpt/v1"

_MAGIC = b"RCKP"
_DIGEST_BYTES = 8

_Value = None | bool | int | float | str | bytes | list | dict

#: ``i``-tagged encodings of the ints encoded so far, filled on demand.
#: Snapshot ints are mostly small and recur (pages, distances, counts),
#: so the cache stops growing at ``_INT_CACHE_MAX`` entries (about
#: 200 KiB); later ints are encoded afresh.
_INT_BYTES: dict[int, bytes] = {}
_INT_CACHE_MAX = 2048


class Hole:
    """A named stand-in for a live value in a writer's template payload."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


def _encode_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def int_bytes(value: int) -> bytes:
    """``value`` (an ``int``, never a ``bool``) encoded as an ``i`` value."""
    encoded = _INT_BYTES.get(value)
    if encoded is None:
        out = bytearray(b"i")
        # Arbitrary-precision zigzag: packed DP-PC keys exceed 64 bits.
        _encode_varint((value << 1) if value >= 0 else ((-value << 1) - 1), out)
        encoded = bytes(out)
        if len(_INT_BYTES) < _INT_CACHE_MAX:
            _INT_BYTES[value] = encoded
    return encoded


def list_header(count: int) -> bytes:
    """The tag and element count that open an encoded ``count``-list."""
    out = bytearray(b"l")
    _encode_varint(count, out)
    return bytes(out)


def value_bytes(value: _Value) -> bytes:
    """Any one codec value, encoded."""
    if type(value) is int:
        return int_bytes(value)
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


def _encode_value(value, out: bytearray, holes: list | None = None) -> None:
    # bool before int: bool is an int subclass.
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        out += int_bytes(value)
    elif isinstance(value, float):
        out.append(ord("d"))
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        _encode_varint(len(raw), out)
        out += raw
    elif isinstance(value, bytes):
        out.append(ord("b"))
        _encode_varint(len(value), out)
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        _encode_varint(len(value), out)
        for item in value:
            _encode_value(item, out, holes)
    elif isinstance(value, dict):
        out.append(ord("m"))
        _encode_varint(len(value), out)
        for key, item in value.items():
            _encode_value(key, out, holes)
            _encode_value(item, out, holes)
    elif isinstance(value, Hole) and holes is not None:
        holes.append((len(out), value.name))
    else:
        raise CkptError(f"cannot encode value of type {type(value).__name__}")


def _frame(kind: str, body: bytes | bytearray) -> bytes:
    """The blob around an encoded payload: header, body, digest."""
    out = bytearray(_MAGIC)
    _encode_value(CKPT_SCHEMA, out)
    _encode_value(kind, out)
    _encode_varint(len(body), out)
    out += body
    out += hashlib.sha256(out).digest()[:_DIGEST_BYTES]
    return bytes(out)


def encode_blob(kind: str, payload: _Value) -> bytes:
    """Serialize ``payload`` as a self-describing ``repro.ckpt/v1`` blob."""
    body = bytearray()
    _encode_value(payload, body)
    return _frame(kind, body)


def blob_writer(kind: str, payload) -> Callable[[dict[str, bytes]], bytes]:
    """A writer of ``kind`` blobs shaped like ``payload``.

    ``payload`` is encoded once, with each :class:`Hole` in it left
    open. The writer takes a mapping from every hole's name to that
    value's encoded bytes and returns the framed blob: exactly
    :func:`encode_blob` of ``payload`` with the holes' values in place.
    """
    out = bytearray()
    holes: list[tuple[int, str]] = []
    _encode_value(payload, out, holes)
    cuts = [at for at, _ in holes]
    first, *rest = [
        bytes(out[start:stop]) for start, stop in zip([0, *cuts], [*cuts, len(out)])
    ]
    steps = [(name, chunk) for (_, name), chunk in zip(holes, rest)]

    def write(values: dict[str, bytes]) -> bytes:
        parts = [first]
        for name, chunk in steps:
            parts.append(values[name])
            parts.append(chunk)
        return _frame(kind, b"".join(parts))

    return write


class _Reader:
    """Cursor over a blob body; every read checks for truncation."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise CkptError(
                f"truncated blob: wanted {count} bytes at offset "
                f"{self.offset}, only {len(self.data) - self.offset} left"
            )
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 640:
                raise CkptError("corrupt blob: varint longer than 640 bits")

    def value(self) -> _Value:
        tag = self.take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            zigzag = self.varint()
            return (zigzag >> 1) ^ -(zigzag & 1)
        if tag == b"d":
            return struct.unpack(">d", self.take(8))[0]
        if tag == b"s":
            return _utf8(self.take(self.varint()))
        if tag == b"b":
            return self.take(self.varint())
        if tag == b"l":
            return [self.value() for _ in range(self.varint())]
        if tag == b"m":
            pairs = self.varint()
            result: dict = {}
            for _ in range(pairs):
                key = self.value()
                result[key] = self.value()
            return result
        raise CkptError(f"corrupt blob: unknown value tag {tag!r}")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise CkptError(f"corrupt blob: bad UTF-8 string: {error}") from error


def _unframe(blob: bytes, expect_kind: str | None) -> tuple[str, int, int]:
    """Check a blob's framing; returns ``(kind, body start, body end)``.

    Checks, in order: magic bytes, schema tag, that the kind is a
    string, the body length, the sha256 digest trailer, that nothing
    follows the trailer, and (given ``expect_kind``) the kind.
    """
    reader = _Reader(blob)
    if reader.take(4) != _MAGIC:
        raise CkptError("bad magic: not a repro.ckpt blob")
    schema = reader.value()
    if schema != CKPT_SCHEMA:
        raise CkptError(f"unsupported checkpoint schema {schema!r} (want {CKPT_SCHEMA!r})")
    kind = reader.value()
    if not isinstance(kind, str):
        raise CkptError("corrupt blob: kind is not a string")
    body_len = reader.varint()
    body_start = reader.offset
    reader.take(body_len)
    digest_start = reader.offset
    trailer = reader.take(_DIGEST_BYTES)
    expected = hashlib.sha256(blob[:digest_start]).digest()[:_DIGEST_BYTES]
    if trailer != expected:
        raise CkptError("corrupt blob: digest mismatch (bytes were altered)")
    if reader.offset != len(blob):
        raise CkptError(
            f"corrupt blob: {len(blob) - reader.offset} trailing bytes after digest"
        )
    if expect_kind is not None and kind != expect_kind:
        raise CkptError(f"kind mismatch: blob holds {kind!r}, expected {expect_kind!r}")
    return kind, body_start, digest_start


def decode_blob(blob: bytes, expect_kind: str | None = None) -> tuple[str, _Value]:
    """Parse a blob back into ``(kind, payload)``, verifying integrity.

    The framing checks of :func:`_unframe`, then the payload through
    the bounds-checked cursor, which must end exactly at the trailer.
    Passing ``expect_kind`` additionally demands the embedded kind
    match.
    """
    kind, body_start, body_end = _unframe(blob, expect_kind)
    reader = _Reader(blob, body_start)
    payload = reader.value()
    if reader.offset != body_end:
        raise CkptError("corrupt blob: body length does not match payload")
    return kind, payload


def read_blob(blob: bytes, expect_kind: str | None = None) -> tuple[str, _Value]:
    """:func:`decode_blob`, reading the payload by index.

    Same framing checks, same result, same :class:`CkptError` on every
    corruption; a read past the end of the bytes is a truncation.
    """
    kind, body_start, body_end = _unframe(blob, expect_kind)
    try:
        payload, offset = _value_at(blob, body_start)
    except IndexError:
        raise CkptError("truncated blob: payload runs past the end") from None
    if offset != body_end:
        raise CkptError("corrupt blob: body length does not match payload")
    return kind, payload


def _varint_at(data: bytes, pos: int) -> tuple[int, int]:
    result = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 640:
            raise CkptError("corrupt blob: varint longer than 640 bits")


def _take_at(data: bytes, pos: int, count: int) -> tuple[bytes, int]:
    end = pos + count
    if end > len(data):
        raise IndexError(end)
    return data[pos:end], end


_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFidsblm"


def _value_at(data: bytes, pos: int) -> tuple[_Value, int]:
    """The value encoded at ``data[pos]`` and the index just past it."""
    tag = data[pos]
    pos += 1
    if tag == _L:
        return _list_at(data, pos)
    if tag == _I:
        zigzag, pos = _varint_at(data, pos)
        return (zigzag >> 1) ^ -(zigzag & 1), pos
    if tag == _N:
        return None, pos
    if tag == _T:
        return True, pos
    if tag == _F:
        return False, pos
    if tag == _M:
        count, pos = _varint_at(data, pos)
        result: dict = {}
        for _ in range(count):
            key, pos = _value_at(data, pos)
            result[key], pos = _value_at(data, pos)
        return result, pos
    if tag == _S:
        length, pos = _varint_at(data, pos)
        raw, pos = _take_at(data, pos, length)
        return _utf8(raw), pos
    if tag == _B:
        length, pos = _varint_at(data, pos)
        return _take_at(data, pos, length)
    if tag == _D:
        raw, pos = _take_at(data, pos, 8)
        return struct.unpack(">d", raw)[0], pos
    raise CkptError(f"corrupt blob: unknown value tag {bytes([tag])!r}")


def _list_at(data: bytes, pos: int) -> tuple[list, int]:
    """The list whose count starts at ``data[pos]``, nested lists included.

    Every table and page-table entry is a list of lists of small ints,
    so lists nest on an explicit stack, and ints, None and the booleans
    decode inline; anything else goes through :func:`_value_at`.
    """
    count, pos = _varint_at(data, pos)
    root: list = []
    items, remaining, stack = root, count, []
    while True:
        while remaining:
            remaining -= 1
            tag = data[pos]
            if tag == _I:
                zigzag = data[pos + 1]
                if zigzag < 0x80:
                    pos += 2
                elif data[pos + 2] < 0x80:
                    zigzag = (zigzag & 0x7F) | data[pos + 2] << 7
                    pos += 3
                else:
                    zigzag, pos = _varint_at(data, pos + 1)
                items.append((zigzag >> 1) ^ -(zigzag & 1))
                continue
            if tag == _L:
                nested: list = []
                items.append(nested)
                stack.append((items, remaining))
                remaining = data[pos + 1]
                if remaining < 0x80:
                    pos += 2
                else:
                    remaining, pos = _varint_at(data, pos + 1)
                items = nested
                continue
            if tag == _N or tag == _T or tag == _F:
                items.append(None if tag == _N else tag == _T)
                pos += 1
                continue
            item, pos = _value_at(data, pos)
            items.append(item)
        if not stack:
            return root, pos
        items, remaining = stack.pop()


def blob_digest(blob: bytes) -> str:
    """Content digest of a blob — the checkpoint store's address.

    sha256 over the full blob, truncated to 24 hex characters to match
    the store's stream-digest convention. Identical logical state
    encodes to identical bytes, so equal digests ⇔ equal state.
    """
    return hashlib.sha256(blob).hexdigest()[:24]
