"""Wire protocol of the scoring service: length-prefixed JSON/npy frames.

Every message on a connection — request or response, either direction —
is one *frame*:

``
+--------+------------+-------------+---------------+----------------+
| magic  | header_len | payload_len | header (JSON) | payload (.npy) |
| 4 B    | uint32 LE  | uint64 LE   | header_len B  | payload_len B  |
+--------+------------+-------------+---------------+----------------+
``

The header is a UTF-8 JSON object carrying the control fields (``op``,
``id``, ``tenant``, ``deadline_ms``, ``status`` …); the payload is a
standard ``.npy`` serialisation of the request rows or the response
scores, or empty. ``.npy`` rather than raw bytes so dtype and shape
travel with the data and the decoder never guesses; ``allow_pickle`` is
always off, so a frame can carry numbers but never code.

Both declared lengths are bounded *before* any body byte is read:
``header_len`` by :data:`MAX_HEADER_BYTES`, ``payload_len`` by the
reader's ``max_payload`` argument. An oversized declaration raises
:class:`PayloadTooLarge` with nothing consumed past the preamble, so
the server can answer with a 413-style rejection and close without
buffering an attacker-sized body. A connection that ends mid-frame
raises :class:`IncompleteFrame`; a connection that ends cleanly
*between* frames reads as ``None`` (async) / raises with
``clean_eof=True`` (sync).
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import socket
import struct

import numpy as np

__all__ = [
    "DEFAULT_MAX_PAYLOAD",
    "MAX_HEADER_BYTES",
    "IncompleteFrame",
    "PayloadTooLarge",
    "ProtocolError",
    "decode_array",
    "encode_array",
    "encode_frame",
    "read_frame",
    "read_frame_sync",
    "write_frame_sync",
]

_MAGIC = b"RPS1"
_PREAMBLE = struct.Struct("<4sIQ")

#: Upper bound on the JSON header; control fields are tiny, so anything
#: near this is a corrupt or hostile frame.
MAX_HEADER_BYTES = 1 << 20
#: Default upper bound on a frame payload (request rows / result scores).
DEFAULT_MAX_PAYLOAD = 64 << 20


class ProtocolError(ValueError):
    """A frame that violates the wire format (bad magic, bad JSON …)."""


class IncompleteFrame(ProtocolError):
    """The peer closed the connection in the middle of a frame.

    ``clean_eof`` distinguishes a connection closed *between* frames
    (normal client hang-up) from one truncated mid-frame.
    """

    def __init__(self, message: str, *, clean_eof: bool = False):
        super().__init__(message)
        self.clean_eof = clean_eof


class PayloadTooLarge(ProtocolError):
    """A frame declared a header or payload beyond the reader's bound."""

    def __init__(self, declared: int, limit: int, what: str = "payload"):
        super().__init__(
            f"declared {what} of {declared} bytes exceeds the "
            f"{limit}-byte limit"
        )
        self.declared = declared
        self.limit = limit


#: ``.npy`` headers kept per codec cache; a server sees a handful of
#: (dtype, shape) pairs, so a full cache is simply cleared.
_HEADER_CACHE_MAX = 256
_NPY_MAGIC = b"\x93NUMPY"
_NPY_V1_PREAMBLE = struct.Struct("<6sBBH")  # magic, major, minor, header_len
# (dtype, shape, fortran) -> header bytes, exactly as np.save writes them.
_encode_headers: dict[tuple, bytes] = {}
# v1.0 magic + header bytes -> (dtype, shape, fortran) as np.load read them.
_decode_headers: dict[bytes, tuple[np.dtype, tuple, bool]] = {}


def _cache(cache: dict, key, value) -> None:
    if len(cache) >= _HEADER_CACHE_MAX:
        cache.clear()
    cache[key] = value


def encode_array(array) -> bytes:
    """Serialise an ndarray to ``.npy`` bytes (dtype + shape included).

    The bytes are ``np.save``'s. Only the first array of each (dtype,
    shape, layout) goes through ``np.save``; later ones reuse its header
    and append the raw data, in the order ``np.save`` writes it.
    """
    array = np.asarray(array)
    fortran = not array.flags.c_contiguous and array.flags.f_contiguous
    key = (array.dtype, array.shape, fortran)
    header = _encode_headers.get(key)
    if header is None:
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        encoded = buf.getvalue()
        _cache(_encode_headers, key, encoded[: len(encoded) - array.nbytes])
        return encoded
    return header + array.tobytes(order="F" if fortran else "C")


def decode_array(payload: bytes) -> np.ndarray:
    """Decode ``.npy`` payload bytes back into a writable ndarray.

    ``allow_pickle=False`` unconditionally: frames carry data, never
    objects, so a crafted payload cannot execute on load. The first
    payload with a given v1.0 header goes through ``np.load``, which
    validates it; later ones with the same header bytes are read
    straight off the buffer. Other versions always take ``np.load``.
    """
    key = b""
    if len(payload) >= _NPY_V1_PREAMBLE.size:
        magic, major, minor, header_len = _NPY_V1_PREAMBLE.unpack_from(payload)
        if magic == _NPY_MAGIC and (major, minor) == (1, 0):
            key = bytes(payload[: _NPY_V1_PREAMBLE.size + header_len])
    known = _decode_headers.get(key) if key else None
    if known is not None:
        dtype, shape, fortran = known
        count = math.prod(shape)
        if len(payload) - len(key) < count * dtype.itemsize:
            raise ProtocolError(
                f"payload is not a valid .npy array: {len(payload) - len(key)} "
                f"data bytes for {count} items of {dtype}"
            )
        flat = np.frombuffer(payload, dtype=dtype, count=count, offset=len(key))
        if fortran:
            return flat.reshape(shape[::-1]).transpose().copy(order="K")
        return flat.reshape(shape).copy()
    try:
        array = np.load(io.BytesIO(payload), allow_pickle=False)
    except ValueError as exc:
        raise ProtocolError(f"payload is not a valid .npy array: {exc}") from exc
    if key and array.dtype.itemsize > 0:
        fortran = not array.flags.c_contiguous and array.flags.f_contiguous
        _cache(_decode_headers, key, (array.dtype, array.shape, fortran))
    return array


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """One wire frame: preamble + JSON header + raw payload bytes."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise PayloadTooLarge(len(header_bytes), MAX_HEADER_BYTES, "header")
    return (
        _PREAMBLE.pack(_MAGIC, len(header_bytes), len(payload))
        + header_bytes
        + payload
    )


def _parse_preamble(raw: bytes, max_payload: int) -> tuple[int, int]:
    magic, header_len, payload_len = _PREAMBLE.unpack(raw)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if header_len > MAX_HEADER_BYTES:
        raise PayloadTooLarge(header_len, MAX_HEADER_BYTES, "header")
    if payload_len > max_payload:
        raise PayloadTooLarge(payload_len, max_payload)
    return header_len, payload_len


def _parse_header(header_bytes: bytes) -> dict:
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


async def read_frame(
    reader: asyncio.StreamReader, *, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[dict, bytes] | None:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`IncompleteFrame` when the peer vanishes mid-frame and
    :class:`PayloadTooLarge` as soon as an oversized declaration is seen
    — before any body byte is read.
    """
    try:
        raw = await reader.readexactly(_PREAMBLE.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise IncompleteFrame(
            f"connection closed inside a frame preamble "
            f"({len(exc.partial)}/{_PREAMBLE.size} bytes)"
        ) from exc
    header_len, payload_len = _parse_preamble(raw, max_payload)
    try:
        header_bytes = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len) if payload_len else b""
    except asyncio.IncompleteReadError as exc:
        raise IncompleteFrame(
            "connection closed inside a frame body"
        ) from exc
    return _parse_header(header_bytes), payload


def _recv_exactly(sock: socket.socket, n: int, *, at_start: bool) -> bytes:
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            raise IncompleteFrame(
                f"connection closed after {got}/{n} bytes",
                clean_eof=at_start and got == 0,
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame_sync(
    sock: socket.socket, *, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[dict, bytes]:
    """Blocking counterpart of :func:`read_frame` for plain sockets.

    Clean EOF between frames raises :class:`IncompleteFrame` with
    ``clean_eof=True`` (a blocking client always expects a reply).
    """
    raw = _recv_exactly(sock, _PREAMBLE.size, at_start=True)
    header_len, payload_len = _parse_preamble(raw, max_payload)
    header_bytes = _recv_exactly(sock, header_len, at_start=False)
    payload = (
        _recv_exactly(sock, payload_len, at_start=False) if payload_len else b""
    )
    return _parse_header(header_bytes), payload


def write_frame_sync(
    sock: socket.socket, header: dict, payload: bytes = b""
) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(header, payload))
