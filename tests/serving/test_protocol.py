"""Wire-format edge cases: partial frames, bounds, EOF semantics."""

import asyncio
import io
import socket
import struct

import numpy as np
import pytest

from repro.serving.protocol import (
    MAX_HEADER_BYTES,
    IncompleteFrame,
    PayloadTooLarge,
    ProtocolError,
    decode_array,
    encode_array,
    encode_frame,
    read_frame,
    read_frame_sync,
    write_frame_sync,
)

_PREAMBLE = struct.Struct("<4sIQ")


def _reader_with(*chunks, eof=True):
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


class TestAsyncReadFrame:
    def test_roundtrip(self, run_async):
        rows = np.arange(12.0).reshape(3, 4)
        frame = encode_frame({"op": "score", "id": 7}, encode_array(rows))

        async def scenario():
            return await read_frame(_reader_with(frame))

        header, payload = run_async(scenario())
        assert header == {"op": "score", "id": 7}
        np.testing.assert_array_equal(decode_array(payload), rows)

    def test_partial_delivery_byte_by_byte(self, run_async):
        """A frame trickling in one byte at a time still parses whole."""
        rows = np.ones((2, 3))
        frame = encode_frame({"op": "score"}, encode_array(rows))

        async def scenario():
            reader = asyncio.StreamReader()

            async def drip():
                for i in range(len(frame)):
                    reader.feed_data(frame[i : i + 1])
                    if i % 7 == 0:
                        await asyncio.sleep(0)
                reader.feed_eof()

            feed = asyncio.get_running_loop().create_task(drip())
            result = await read_frame(reader)
            await feed
            return result

        header, payload = run_async(scenario())
        assert header == {"op": "score"}
        np.testing.assert_array_equal(decode_array(payload), rows)

    def test_two_frames_back_to_back(self, run_async):
        f1 = encode_frame({"id": 1})
        f2 = encode_frame({"id": 2}, encode_array(np.zeros((1, 1))))

        async def scenario():
            reader = _reader_with(f1 + f2)
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        (h1, p1), (h2, p2), tail = run_async(scenario())
        assert (h1["id"], h2["id"]) == (1, 2)
        assert p1 == b"" and p2 != b""
        assert tail is None

    def test_clean_eof_returns_none(self, run_async):
        async def scenario():
            return await read_frame(_reader_with())

        assert run_async(scenario()) is None

    def test_eof_mid_preamble(self, run_async):
        frame = encode_frame({"op": "ping"})

        async def scenario():
            await read_frame(_reader_with(frame[:5]))

        with pytest.raises(IncompleteFrame) as err:
            run_async(scenario())
        assert not err.value.clean_eof

    def test_eof_mid_payload(self, run_async):
        frame = encode_frame({"op": "score"}, encode_array(np.ones((4, 4))))

        async def scenario():
            await read_frame(_reader_with(frame[:-3]))

        with pytest.raises(IncompleteFrame):
            run_async(scenario())

    def test_bad_magic(self, run_async):
        frame = b"XXXX" + encode_frame({"op": "ping"})[4:]

        async def scenario():
            await read_frame(_reader_with(frame))

        with pytest.raises(ProtocolError, match="magic"):
            run_async(scenario())

    def test_oversized_payload_rejected_before_body(self, run_async):
        """The bound trips on the declared length — no body bytes needed."""
        declared = 10_000_000
        preamble = _PREAMBLE.pack(b"RPS1", 2, declared)

        async def scenario():
            # Only the preamble and header are ever fed; if the reader
            # tried to buffer the declared body this would hang (and the
            # watchdog would catch it).
            await read_frame(_reader_with(preamble + b"{}"), max_payload=1024)

        with pytest.raises(PayloadTooLarge) as err:
            run_async(scenario())
        assert err.value.declared == declared
        assert err.value.limit == 1024

    def test_oversized_header_rejected(self, run_async):
        preamble = _PREAMBLE.pack(b"RPS1", MAX_HEADER_BYTES + 1, 0)

        async def scenario():
            await read_frame(_reader_with(preamble))

        with pytest.raises(PayloadTooLarge, match="header"):
            run_async(scenario())

    def test_header_must_be_json(self, run_async):
        body = b"not json!!"
        frame = _PREAMBLE.pack(b"RPS1", len(body), 0) + body

        async def scenario():
            await read_frame(_reader_with(frame))

        with pytest.raises(ProtocolError, match="JSON"):
            run_async(scenario())

    def test_header_must_be_object(self, run_async):
        body = b"[1, 2]"
        frame = _PREAMBLE.pack(b"RPS1", len(body), 0) + body

        async def scenario():
            await read_frame(_reader_with(frame))

        with pytest.raises(ProtocolError, match="object"):
            run_async(scenario())


class TestArrayCodec:
    def test_roundtrip_preserves_dtype_shape_bytes(self):
        rows = np.linspace(0, 1, 10).reshape(5, 2)
        out = decode_array(encode_array(rows))
        assert out.dtype == rows.dtype and out.shape == rows.shape
        assert out.tobytes() == rows.tobytes()

    def test_pickled_payload_rejected(self):
        """An object-dtype payload must never deserialise."""
        buf = io.BytesIO()
        np.save(buf, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(ProtocolError, match="not a valid .npy"):
            decode_array(buf.getvalue())

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_array(b"\x00" * 32)


def _npy(array, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


_CODEC_ARRAYS = {
    "0d": np.array(3.5),
    "empty": np.empty((0, 12)),
    "1x12": np.arange(12.0).reshape(1, 12),
    "256x12": np.linspace(-1.0, 1.0, 256 * 12).reshape(256, 12),
    "f-order": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "strided": np.arange(20.0).reshape(4, 5)[:, ::2],
    "float32": np.arange(6, dtype=np.float32).reshape(2, 3),
    "big-endian": np.arange(5, dtype=">i4"),
    "int64": np.arange(4, dtype=np.int64),
    "bool": np.array([True, False, True]),
    "complex": np.array([1 + 2j, -3j]),
}


class TestCachedCodec:
    """The header caches return ``np.save``'s bytes and ``np.load``'s
    arrays, on the first call (which fills them) and on later hits."""

    @pytest.mark.parametrize("name", sorted(_CODEC_ARRAYS))
    def test_encoded_bytes_equal_np_save(self, name):
        array = _CODEC_ARRAYS[name]
        want = _npy(array, allow_pickle=False)
        for _ in range(3):
            assert encode_array(array) == want

    @pytest.mark.parametrize("name", sorted(_CODEC_ARRAYS))
    def test_decoded_array_equals_np_load(self, name):
        payload = _npy(_CODEC_ARRAYS[name])
        want = np.load(io.BytesIO(payload), allow_pickle=False)
        for _ in range(3):
            got = decode_array(payload)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.writeable
            got[...] = 0  # owns its memory: the payload is untouched
        assert np.array_equal(
            np.load(io.BytesIO(payload), allow_pickle=False), want
        )

    def test_version_2_header_falls_back_to_np_load(self):
        array = np.arange(6.0).reshape(2, 3)
        buf = io.BytesIO()
        np.lib.format.write_array(buf, array, version=(2, 0))
        for _ in range(2):
            np.testing.assert_array_equal(decode_array(buf.getvalue()), array)

    def test_truncated_payload_rejected_on_both_paths(self):
        payload = _npy(np.arange(91.0).reshape(7, 13))  # a shape no other test uses
        for _ in range(2):  # the second call hits the header cache
            with pytest.raises(ProtocolError, match="not a valid .npy"):
                decode_array(payload[:-8])
            decode_array(payload)

    def test_object_payload_rejected_on_both_paths(self):
        payload = _npy(np.array([{"a": 1}, None], dtype=object))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="not a valid .npy"):
                decode_array(payload)

    def test_bad_magic_rejected_on_both_paths(self):
        payload = bytearray(_npy(np.arange(3.0)))
        decode_array(bytes(payload))  # caches the good header
        payload[1:6] = b"NUMPZ"
        for _ in range(2):
            with pytest.raises(ProtocolError):
                decode_array(bytes(payload))


class TestSyncFrames:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            rows = np.full((3, 2), 7.0)
            write_frame_sync(left, {"op": "score", "tenant": "t"}, encode_array(rows))
            header, payload = read_frame_sync(right)
            assert header["tenant"] == "t"
            np.testing.assert_array_equal(decode_array(payload), rows)
        finally:
            left.close()
            right.close()

    def test_clean_eof_flag(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(IncompleteFrame) as err:
                read_frame_sync(right)
            assert err.value.clean_eof
        finally:
            right.close()

    def test_truncated_frame_not_clean(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"op": "ping"})
            left.sendall(frame[:6])
            left.close()
            with pytest.raises(IncompleteFrame) as err:
                read_frame_sync(right)
            assert not err.value.clean_eof
        finally:
            right.close()
