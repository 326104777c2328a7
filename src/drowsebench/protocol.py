"""Binary codec for the frame-streaming protocol.

Every message starts with the magic bytes ``FRM1`` followed by a fixed
header and an optional payload.  All integers are little-endian:

    magic               4 bytes   b"FRM1"
    msg_type            u8        0x01 frame, 0x02 echo
    frame_id            u64
    capture_ts_us       u64       sender's monotonic clock, microseconds
    width               u16
    height              u16
    pixel_format        u8        0x00 rgb24, 0x01 empty
    payload_len         u32
    payload             payload_len bytes
    server_recv_ts_us   u64       echo messages only
    server_send_ts_us   u64       echo messages only

RGB24 frames carry exactly ``width * height * 3`` payload bytes; empty
frames carry no payload and are useful for header-only protocol tests.
Echo messages repeat the original frame fields and append the server's
receive and send timestamps.  Client and server clocks are never
compared directly; each side only differences its own timestamps.

Besides the message-level codec (``encode_frame``/``decode_frame`` and
the socket wrappers ``read_frame``/``write_frame``), the module exposes
what a hot path needs to work on wire bytes in place: ``recv_message``
reads one checked message into a reused buffer, and ``MSG_IDS`` and
``ECHO_TRAILER`` pack and unpack the fields that change per message.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from enum import IntEnum

MAGIC = b"FRM1"

_HEADER = struct.Struct("<BQQHHBI")

HEADER_SIZE = len(MAGIC) + _HEADER.size

# The per-message fields, for patching encoded messages in place.
MSG_IDS = struct.Struct("<BQQ")  # msg_type, frame_id, capture_ts_us
MSG_IDS_OFFSET = len(MAGIC)
ECHO_TRAILER = struct.Struct("<QQ")  # server_recv_ts_us, server_send_ts_us
ECHO_TRAILER_SIZE = ECHO_TRAILER.size

_U64_MAX = 2**64 - 1
_U32_MAX = 2**32 - 1
_U16_MAX = 2**16 - 1


class MessageType(IntEnum):
    FRAME = 0x01
    ECHO = 0x02


class PixelFormat(IntEnum):
    RGB24 = 0x00
    EMPTY = 0x01


class CodecError(ValueError):
    """Base class for malformed or inconsistent messages."""


class BadMagicError(CodecError):
    """Buffer does not start with the FRM1 magic."""


class TruncatedError(CodecError):
    """Buffer ends before the message is complete."""


class UnknownMessageTypeError(CodecError):
    """msg_type byte is not a known message type."""


class UnknownPixelFormatError(CodecError):
    """pixel_format byte is not a known pixel format."""


class PayloadSizeError(CodecError):
    """Payload length is inconsistent with the pixel format and dimensions."""


def expected_payload_len(pixel_format: PixelFormat, width: int, height: int) -> int:
    if pixel_format is PixelFormat.RGB24:
        return width * height * 3
    return 0


def _check_magic(data) -> None:
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {bytes(data[:len(MAGIC)])!r}")


def _unpack_header(data) -> tuple[MessageType, int, int, int, int, PixelFormat, int]:
    """The header fields after the magic, with the msg_type and pixel_format bytes checked."""
    raw_type, frame_id, capture_ts, width, height, raw_pf, payload_len = _HEADER.unpack_from(
        data, len(MAGIC)
    )
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise UnknownMessageTypeError(f"unknown msg_type byte 0x{raw_type:02x}") from None
    try:
        pixel_format = PixelFormat(raw_pf)
    except ValueError:
        raise UnknownPixelFormatError(f"unknown pixel_format byte 0x{raw_pf:02x}") from None
    return msg_type, frame_id, capture_ts, width, height, pixel_format, payload_len


@dataclass(frozen=True)
class FrameMessage:
    """One protocol message, either an outgoing frame or its echo."""

    msg_type: MessageType
    frame_id: int
    capture_ts_us: int
    width: int
    height: int
    pixel_format: PixelFormat
    payload: bytes = b""
    server_recv_ts_us: int | None = None
    server_send_ts_us: int | None = None

    def validate(self) -> None:
        if self.msg_type not in (MessageType.FRAME, MessageType.ECHO):
            raise UnknownMessageTypeError(f"unknown msg_type {self.msg_type!r}")
        if self.pixel_format not in (PixelFormat.RGB24, PixelFormat.EMPTY):
            raise UnknownPixelFormatError(f"unknown pixel_format {self.pixel_format!r}")
        if not 0 <= self.frame_id <= _U64_MAX:
            raise CodecError(f"frame_id {self.frame_id} out of u64 range")
        if not 0 <= self.capture_ts_us <= _U64_MAX:
            raise CodecError(f"capture_ts_us {self.capture_ts_us} out of u64 range")
        if not 0 <= self.width <= _U16_MAX or not 0 <= self.height <= _U16_MAX:
            raise CodecError(f"dimensions {self.width}x{self.height} out of u16 range")
        if len(self.payload) > _U32_MAX:
            raise PayloadSizeError("payload exceeds u32 length field")
        expected = expected_payload_len(self.pixel_format, self.width, self.height)
        if len(self.payload) != expected:
            raise PayloadSizeError(
                f"{self.pixel_format.name} {self.width}x{self.height} payload must be "
                f"{expected} bytes, got {len(self.payload)}"
            )
        if self.msg_type is MessageType.ECHO:
            if self.server_recv_ts_us is None or self.server_send_ts_us is None:
                raise CodecError("echo message requires server timestamps")
            if not 0 <= self.server_recv_ts_us <= _U64_MAX:
                raise CodecError("server_recv_ts_us out of u64 range")
            if not 0 <= self.server_send_ts_us <= _U64_MAX:
                raise CodecError("server_send_ts_us out of u64 range")
            if self.server_recv_ts_us > self.server_send_ts_us:
                raise CodecError("server_recv_ts_us must not exceed server_send_ts_us")
        elif self.server_recv_ts_us is not None or self.server_send_ts_us is not None:
            raise CodecError("frame message must not carry server timestamps")


def encode_frame(msg: FrameMessage) -> bytes:
    """Serialize a message to wire bytes, validating its invariants."""
    msg.validate()
    parts = [
        MAGIC,
        _HEADER.pack(
            msg.msg_type,
            msg.frame_id,
            msg.capture_ts_us,
            msg.width,
            msg.height,
            msg.pixel_format,
            len(msg.payload),
        ),
        msg.payload,
    ]
    if msg.msg_type is MessageType.ECHO:
        parts.append(ECHO_TRAILER.pack(msg.server_recv_ts_us, msg.server_send_ts_us))
    return b"".join(parts)


def decode_frame(data: bytes) -> FrameMessage:
    """Parse one complete message from ``data``.

    The buffer must contain exactly one message; trailing bytes are
    rejected.  Distinct errors are raised for a bad magic, a truncated
    buffer, and unknown msg_type / pixel_format bytes.
    """
    if len(data) < len(MAGIC):
        raise TruncatedError(f"buffer of {len(data)} bytes is shorter than the magic")
    _check_magic(data)
    if len(data) < HEADER_SIZE:
        raise TruncatedError(f"buffer of {len(data)} bytes is shorter than the header")
    msg_type, frame_id, capture_ts, width, height, pixel_format, payload_len = _unpack_header(data)

    offset = HEADER_SIZE
    if len(data) < offset + payload_len:
        raise TruncatedError(
            f"header declares {payload_len} payload bytes, only {len(data) - offset} present"
        )
    payload = bytes(data[offset : offset + payload_len])
    offset += payload_len

    server_recv = server_send = None
    if msg_type is MessageType.ECHO:
        if len(data) < offset + ECHO_TRAILER_SIZE:
            raise TruncatedError("echo message is missing its server timestamps")
        server_recv, server_send = ECHO_TRAILER.unpack_from(data, offset)
        offset += ECHO_TRAILER_SIZE
    if len(data) != offset:
        raise CodecError(f"{len(data) - offset} trailing bytes after message")

    msg = FrameMessage(
        msg_type=msg_type,
        frame_id=frame_id,
        capture_ts_us=capture_ts,
        width=width,
        height=height,
        pixel_format=pixel_format,
        payload=payload,
        server_recv_ts_us=server_recv,
        server_send_ts_us=server_send,
    )
    msg.validate()
    return msg


def _recv_exact(sock: socket.socket, buf: bytearray, start: int, stop: int) -> bool:
    """Fill ``buf[start:stop]`` from the socket, growing ``buf`` as bytes arrive.

    ``buf`` grows to at most twice the bytes received so far, so a header
    that declares a 4 GiB payload costs the reader no more memory than
    the peer actually sends.  Returns False on a clean EOF before the
    first byte of a message, ``buf[0]``; raises TruncatedError if the
    peer closes mid-message.
    """
    while start < stop:
        if len(buf) <= start:
            buf.extend(bytes(min(stop, max(2 * start, HEADER_SIZE)) - len(buf)))
        with memoryview(buf) as view:
            got = sock.recv_into(view[start:stop])
        if not got:
            if start == 0:
                return False
            raise TruncatedError("connection closed mid-message")
        start += got
    return True


def recv_message(
    sock: socket.socket, buf: bytearray, expect: MessageType | None = None
) -> int:
    """Read one message into the front of ``buf``; its length, or 0 on clean EOF.

    ``buf`` is meant to be reused for every message of a connection: it
    only grows, and keeps room for an echo trailer after the message, so
    a relay can append one in place.  The header is checked before the
    body is read: the magic, the msg_type (which must be ``expect`` when
    that is given), the pixel format, and a payload_len that matches the
    dimensions.
    """
    if not _recv_exact(sock, buf, 0, HEADER_SIZE):
        return 0
    _check_magic(buf)
    msg_type, _, _, width, height, pixel_format, payload_len = _unpack_header(buf)
    if expect is not None and msg_type is not expect:
        raise CodecError(f"{msg_type.name} message where {expect.name} was expected")
    expected = expected_payload_len(pixel_format, width, height)
    if payload_len != expected:
        raise PayloadSizeError(f"header declares {payload_len} payload bytes, expected {expected}")
    n = HEADER_SIZE + payload_len
    if msg_type is MessageType.ECHO:
        n += ECHO_TRAILER_SIZE
    _recv_exact(sock, buf, HEADER_SIZE, n)
    if len(buf) < n + ECHO_TRAILER_SIZE:
        buf.extend(bytes(n + ECHO_TRAILER_SIZE - len(buf)))
    return n


def read_frame(sock: socket.socket) -> FrameMessage | None:
    """Read one message from a stream socket, or None on clean EOF."""
    buf = bytearray()
    n = recv_message(sock, buf)
    if not n:
        return None
    with memoryview(buf) as view:
        return decode_frame(view[:n])


def write_frame(sock: socket.socket, msg: FrameMessage) -> None:
    sock.sendall(encode_frame(msg))
