"""The ``repro.ckpt/v1`` binary codec: exactness and loud corruption.

Round-trips must be exact (including int-vs-float identity and
arbitrary-precision integers — DP-2 packs keys past 64 bits), equal
payloads must produce equal bytes (content addressing), and every way
a blob can be damaged — bad magic, wrong schema, truncation at any
byte, flipped bits, trailing garbage, a lying body length — must raise
:class:`~repro.errors.CkptError`, never return wrong data. The
index-based reader (``read_blob``) must agree with the oracle decoder
on every blob and fail the same corruption battery, and a template
writer must produce exactly the oracle's bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import codec
from repro.ckpt.codec import (
    CKPT_SCHEMA,
    Hole,
    blob_digest,
    blob_writer,
    decode_blob,
    encode_blob,
    int_bytes,
    list_header,
    read_blob,
    value_bytes,
)
from repro.errors import CkptError, ReproError

#: Any value the snapshot layer may feed the codec.
codec_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


class TestRoundTrip:
    @given(payload=codec_values)
    @settings(max_examples=200, deadline=None)
    def test_any_payload_round_trips_exactly(self, payload):
        kind, decoded = decode_blob(encode_blob("fuzz", payload))
        assert kind == "fuzz"
        assert decoded == payload
        # == is too loose across the int/float boundary (1 == 1.0):
        # the tag must survive too.
        assert _typed(decoded) == _typed(payload)

    @given(payload=codec_values)
    @settings(max_examples=100, deadline=None)
    def test_equal_payloads_encode_identically(self, payload):
        first = encode_blob("fuzz", payload)
        second = encode_blob("fuzz", payload)
        assert first == second
        assert blob_digest(first) == blob_digest(second)

    def test_huge_integers_survive(self):
        payload = [2**200, -(2**200), 0, -1]
        assert decode_blob(encode_blob("k", payload))[1] == payload

    def test_tuples_encode_as_lists(self):
        assert decode_blob(encode_blob("k", (1, 2)))[1] == [1, 2]

    def test_unencodable_type_rejected(self):
        with pytest.raises(CkptError, match="cannot encode"):
            encode_blob("k", {"bad": object()})

    def test_ckpt_error_is_a_repro_error(self):
        assert issubclass(CkptError, ReproError)


class TestCorruption:
    #: The decoder under test; subclasses rerun the battery on another.
    decode = staticmethod(decode_blob)

    def _blob(self):
        return encode_blob("mech.dp", {"rows": 64, "sets": [[1, [2, 3]]]})

    def test_bad_magic(self):
        with pytest.raises(CkptError, match="bad magic"):
            self.decode(b"NOPE" + self._blob()[4:])

    def test_wrong_schema(self):
        # A blob whose embedded schema string differs.
        import repro.ckpt.codec as codec

        original = codec.CKPT_SCHEMA
        try:
            codec.CKPT_SCHEMA = "repro.ckpt/v999"
            alien = encode_blob("k", None)
        finally:
            codec.CKPT_SCHEMA = original
        with pytest.raises(CkptError, match="unsupported checkpoint schema"):
            self.decode(alien)
        assert CKPT_SCHEMA == original

    @pytest.mark.parametrize("keep", [0, 3, 4, 10, -1])
    def test_truncation_at_any_prefix(self, keep):
        blob = self._blob()
        with pytest.raises(CkptError):
            self.decode(blob[: keep if keep >= 0 else len(blob) - 1])

    def test_every_single_byte_flip_is_detected(self):
        blob = self._blob()
        for index in range(len(blob)):
            mutated = bytearray(blob)
            mutated[index] ^= 0xFF
            with pytest.raises(CkptError):
                self.decode(bytes(mutated))

    def test_trailing_garbage(self):
        with pytest.raises(CkptError, match="trailing bytes"):
            self.decode(self._blob() + b"x")

    def test_kind_mismatch(self):
        with pytest.raises(CkptError, match="kind mismatch"):
            self.decode(self._blob(), expect_kind="mech.rp")

    def test_empty_blob(self):
        with pytest.raises(CkptError):
            self.decode(b"")


class TestReadBlobCorruption(TestCorruption):
    """The same battery against the index-based reader."""

    decode = staticmethod(read_blob)

    def test_lying_body_length(self):
        # Re-frame a body whose list claims more elements than it holds:
        # the digest is valid, so only the payload walk can catch it.
        body = bytearray(b"l\x05")
        body += int_bytes(1)
        blob = codec._frame("k", body)
        with pytest.raises(CkptError):
            self.decode(blob)


class TestReader:
    @given(payload=codec_values)
    @settings(max_examples=200, deadline=None)
    def test_reader_matches_the_oracle(self, payload):
        blob = encode_blob("fuzz", payload)
        kind, read = read_blob(blob)
        assert (kind, _typed(read)) == ("fuzz", _typed(decode_blob(blob)[1]))


class TestWriter:
    @given(
        payload=st.dictionaries(st.text(max_size=8), codec_values, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_filled_template_is_the_oracle_encoding(self, payload, data):
        open_keys = data.draw(st.sets(st.sampled_from(sorted(payload) or [""])))
        open_keys &= set(payload)
        template = {
            key: Hole(key) if key in open_keys else value
            for key, value in payload.items()
        }
        write = blob_writer("fuzz", {"outer": [template, 7]})
        filled = write({key: value_bytes(payload[key]) for key in open_keys})
        assert filled == encode_blob("fuzz", {"outer": [payload, 7]})

    def test_holes_outside_a_template_are_rejected(self):
        with pytest.raises(CkptError, match="cannot encode"):
            encode_blob("k", [Hole("x")])

    def test_ints_encode_exactly_on_both_sides_of_the_table(self):
        # The table's edges, each varint length's, and every int of the
        # table.
        edges = [1023, 1024, 8191, 8192, 2**20 - 1, 2**20, 2**27, 2**63]
        for value in (*edges, *(-value for value in edges), -1025, *range(-1024, 1024)):
            zigzag, groups = (value << 1) if value >= 0 else ((-value << 1) - 1), []
            while zigzag >= 0x80:
                groups.append(zigzag & 0x7F | 0x80)
                zigzag >>= 7
            assert int_bytes(value) == b"i" + bytes([*groups, zigzag])
            assert decode_blob(codec._frame("k", int_bytes(value)))[1] == value
        values = [2**70, -(2**70), 5, -5, 123456789]
        body = b"".join(int_bytes(value) for value in values)
        blob = codec._frame("k", list_header(len(values)) + body)
        assert decode_blob(blob)[1] == values

    def test_bools_are_not_the_cached_ints(self):
        int_bytes(1)
        int_bytes(0)
        assert value_bytes(True) == b"T"
        assert value_bytes(False) == b"F"
        assert value_bytes(1) == b"i\x02"


class TestDigest:
    def test_digest_is_stable_and_short(self):
        blob = encode_blob("k", [1, 2, 3])
        assert blob_digest(blob) == blob_digest(blob)
        assert len(blob_digest(blob)) == 24
        assert blob_digest(blob) != blob_digest(encode_blob("k", [1, 2, 4]))


def _typed(value):
    """Value annotated with its type tree, so 1 != 1.0 and [] != ()."""
    if isinstance(value, list):
        return [_typed(item) for item in value]
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    return (type(value).__name__, value)
