import dataclasses
import random
import socket
import struct

import pytest

from drowsebench.protocol import (
    ECHO_TRAILER_SIZE,
    HEADER_SIZE,
    MAGIC,
    BadMagicError,
    CodecError,
    FrameMessage,
    MessageType,
    PayloadSizeError,
    PixelFormat,
    TruncatedError,
    UnknownMessageTypeError,
    UnknownPixelFormatError,
    decode_frame,
    encode_frame,
    expected_payload_len,
    read_frame,
    recv_header,
    recv_message,
)


def tiny_frame(**overrides) -> FrameMessage:
    fields = dict(
        msg_type=MessageType.FRAME,
        frame_id=0,
        capture_ts_us=0,
        width=2,
        height=1,
        pixel_format=PixelFormat.RGB24,
        payload=b"\xaa" * 6,
    )
    fields.update(overrides)
    return FrameMessage(**fields)


def tiny_echo(**overrides) -> FrameMessage:
    fields = dict(
        msg_type=MessageType.ECHO,
        server_recv_ts_us=100,
        server_send_ts_us=120,
    )
    fields.update(overrides)
    return tiny_frame(**fields)


class TestEncode:
    def test_golden_bytes_frame(self):
        msg = FrameMessage(
            msg_type=MessageType.FRAME,
            frame_id=1,
            capture_ts_us=2,
            width=2,
            height=1,
            pixel_format=PixelFormat.RGB24,
            payload=b"\xaa" * 6,
        )
        expected = (
            b"FRM1"
            + b"\x01"
            + (1).to_bytes(8, "little")
            + (2).to_bytes(8, "little")
            + (2).to_bytes(2, "little")
            + (1).to_bytes(2, "little")
            + b"\x00"
            + (6).to_bytes(4, "little")
            + b"\xaa" * 6
        )
        assert encode_frame(msg) == expected

    def test_frame_length_is_header_plus_payload(self):
        assert len(encode_frame(tiny_frame())) == HEADER_SIZE + 6

    def test_echo_appends_server_timestamps(self):
        wire = encode_frame(tiny_echo())
        assert len(wire) == HEADER_SIZE + 6 + ECHO_TRAILER_SIZE
        assert wire[-16:-8] == (100).to_bytes(8, "little")
        assert wire[-8:] == (120).to_bytes(8, "little")

    def test_rgb24_payload_must_match_dimensions(self):
        with pytest.raises(PayloadSizeError):
            encode_frame(tiny_frame(payload=b"\xaa" * 5))

    def test_empty_format_forbids_payload(self):
        with pytest.raises(PayloadSizeError):
            encode_frame(tiny_frame(pixel_format=PixelFormat.EMPTY, payload=b"x"))

    def test_empty_format_roundtrip(self):
        msg = tiny_frame(pixel_format=PixelFormat.EMPTY, payload=b"", width=1280, height=720)
        assert decode_frame(encode_frame(msg)) == msg

    def test_frame_must_not_carry_server_timestamps(self):
        with pytest.raises(CodecError):
            encode_frame(tiny_frame(server_recv_ts_us=1, server_send_ts_us=2))

    def test_echo_requires_server_timestamps(self):
        with pytest.raises(CodecError):
            encode_frame(tiny_frame(msg_type=MessageType.ECHO))

    def test_echo_recv_after_send_rejected(self):
        with pytest.raises(CodecError):
            encode_frame(tiny_echo(server_recv_ts_us=121, server_send_ts_us=120))

    def test_u64_overflow_rejected(self):
        with pytest.raises(CodecError):
            encode_frame(tiny_frame(frame_id=2**64))

    def test_u16_overflow_rejected(self):
        with pytest.raises(CodecError):
            encode_frame(tiny_frame(width=70000, payload=b"\xaa" * (70000 * 1 * 3)))

    def test_plain_int_fields_encode_as_their_enum_members(self):
        # a plain 2 is an echo: the trailer is written and the bytes decode
        for msg in (tiny_echo(), tiny_frame(), tiny_frame(pixel_format=PixelFormat.EMPTY,
                                                          payload=b"")):
            plain = dataclasses.replace(
                msg, msg_type=int(msg.msg_type), pixel_format=int(msg.pixel_format)
            )
            assert encode_frame(plain) == encode_frame(msg)
            assert decode_frame(encode_frame(plain)) == msg

    def test_expected_payload_len_of_plain_int_format(self):
        assert expected_payload_len(0, 2, 1) == expected_payload_len(PixelFormat.RGB24, 2, 1) == 6
        assert expected_payload_len(1, 2, 1) == 0

    def test_plain_int_pixel_format_payload_size_checked(self):
        with pytest.raises(PayloadSizeError, match="^RGB24 2x1 payload must be 6 bytes, got 5$"):
            encode_frame(tiny_frame(pixel_format=0, payload=b"\xaa" * 5))

    @pytest.mark.parametrize("field,value,error", [
        ("msg_type", 3, UnknownMessageTypeError),
        ("msg_type", "frame", UnknownMessageTypeError),
        ("pixel_format", 2, UnknownPixelFormatError),
        ("pixel_format", None, UnknownPixelFormatError),
    ])
    def test_unknown_enum_values_rejected(self, field, value, error):
        with pytest.raises(error):
            encode_frame(tiny_frame(**{field: value}))


class TestDecode:
    def test_roundtrip_frame(self):
        msg = tiny_frame()
        assert decode_frame(encode_frame(msg)) == msg

    def test_roundtrip_echo(self):
        msg = tiny_echo()
        assert decode_frame(encode_frame(msg)) == msg

    def test_echo_recv_after_send_rejected(self):
        wire = bytearray(encode_frame(tiny_echo()))  # received at 100, sent at 120
        struct.pack_into("<Q", wire, len(wire) - ECHO_TRAILER_SIZE, 121)
        with pytest.raises(CodecError, match="^server_recv_ts_us must not exceed server_send"):
            decode_frame(bytes(wire))

    def test_bad_magic(self):
        wire = bytearray(encode_frame(tiny_frame()))
        wire[:4] = b"XXXX"
        with pytest.raises(BadMagicError):
            decode_frame(bytes(wire))

    def test_shorter_than_magic(self):
        with pytest.raises(TruncatedError):
            decode_frame(b"FR")

    def test_truncated_header(self):
        wire = encode_frame(tiny_frame())
        with pytest.raises(TruncatedError):
            decode_frame(wire[: HEADER_SIZE - 3])

    def test_truncated_payload(self):
        wire = encode_frame(tiny_frame())
        with pytest.raises(TruncatedError):
            decode_frame(wire[:-1])

    def test_payload_len_exceeds_buffer(self):
        import struct

        # rejected at the header, as the socket reader rejects it
        header = struct.pack("<BQQHHBI", 0x01, 0, 0, 2, 1, 0x00, 100)
        with pytest.raises(PayloadSizeError):
            decode_frame(MAGIC + header + b"\xaa" * 6)

    def test_echo_missing_trailer(self):
        wire = encode_frame(tiny_echo())
        with pytest.raises(TruncatedError):
            decode_frame(wire[:-4])

    def test_unknown_msg_type(self):
        wire = bytearray(encode_frame(tiny_frame()))
        wire[4] = 0x7F
        with pytest.raises(UnknownMessageTypeError):
            decode_frame(bytes(wire))

    def test_unknown_pixel_format(self):
        wire = bytearray(encode_frame(tiny_frame()))
        wire[25] = 0x09
        with pytest.raises(UnknownPixelFormatError):
            decode_frame(bytes(wire))

    def test_trailing_bytes_rejected(self):
        wire = encode_frame(tiny_frame())
        with pytest.raises(CodecError):
            decode_frame(wire + b"\x00")

    def test_payload_len_inconsistent_with_dimensions(self):
        import struct

        # well-formed framing, but 3 payload bytes for a 2x1 rgb24 frame
        header = struct.pack("<BQQHHBI", 0x01, 0, 0, 2, 1, 0x00, 3)
        with pytest.raises(PayloadSizeError):
            decode_frame(MAGIC + header + b"\xaa" * 3)


class TestReadFrame:
    def test_payload_len_checked_before_body(self):
        # a 1x1 rgb24 frame needs 3 bytes; a header declaring 2**32 - 1 is
        # rejected without reading (or waiting for) any of them
        header = MAGIC + struct.pack("<BQQHHBI", 0x01, 0, 0, 1, 1, 0x00, 2**32 - 1)
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)  # a reader that waits for the body fails instead of hanging
            a.sendall(header + b"next")
            with pytest.raises(PayloadSizeError, match="declares 4294967295 payload bytes"):
                read_frame(b)
            assert b.recv(16) == b"next"

    def test_unknown_pixel_format_at_header(self):
        header = MAGIC + struct.pack("<BQQHHBI", 0x01, 0, 0, 1, 1, 0x09, 3)
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(header)
            with pytest.raises(UnknownPixelFormatError):
                read_frame(b)


def random_message(rng: random.Random) -> FrameMessage:
    pixel_format = rng.choice([PixelFormat.RGB24, PixelFormat.EMPTY])
    if pixel_format is PixelFormat.RGB24:
        width, height = rng.randint(1, 8), rng.randint(1, 8)
        payload = rng.randbytes(width * height * 3)
    else:
        width, height = rng.randint(0, 65535), rng.randint(0, 65535)
        payload = b""
    msg_type = rng.choice([MessageType.FRAME, MessageType.ECHO])
    recv = send = None
    if msg_type is MessageType.ECHO:
        recv = rng.randrange(2**63)
        send = recv + rng.randrange(2**20)
    return FrameMessage(
        msg_type=msg_type,
        frame_id=rng.randrange(2**64),
        capture_ts_us=rng.randrange(2**64),
        width=width,
        height=height,
        pixel_format=pixel_format,
        payload=payload,
        server_recv_ts_us=recv,
        server_send_ts_us=send,
    )


def test_randomized_roundtrip():
    rng = random.Random(0xC0DEC)
    for _ in range(300):
        msg = random_message(rng)
        wire = encode_frame(msg)
        assert decode_frame(wire) == msg
        assert encode_frame(decode_frame(wire)) == wire


class TestRecvMessage:
    def test_lying_header_costs_only_the_bytes_sent(self):
        # 65535x21845 rgb24 is a consistent 4 GiB header; the peer then
        # sends 1000 bytes and closes
        header = MAGIC + struct.pack("<BQQHHBI", 0x01, 0, 0, 65535, 21845, 0x00,
                                     65535 * 21845 * 3)
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(header + b"\xaa" * 1000)
            a.shutdown(socket.SHUT_WR)
            buf = bytearray()
            with pytest.raises(TruncatedError):
                recv_message(b, buf)
            assert len(buf) <= 2 * (HEADER_SIZE + 1000)

    def test_buffer_is_reused_across_messages(self):
        small = encode_frame(tiny_frame(frame_id=2))
        big = encode_frame(tiny_echo(frame_id=1, width=4, height=4, payload=b"\x01" * 48))
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(big + small)
            a.shutdown(socket.SHUT_WR)
            buf = bytearray()
            n = recv_message(b, buf)
            assert buf[:n] == big and len(buf) >= n + ECHO_TRAILER_SIZE
            capacity = len(buf)
            n = recv_message(b, buf)
            assert buf[:n] == small and len(buf) == capacity
            assert recv_message(b, buf) == 0

    def test_header_reader_leaves_the_payload_on_the_socket(self):
        wire = encode_frame(tiny_frame(frame_id=5, capture_ts_us=9))
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(wire)
            a.shutdown(socket.SHUT_WR)
            buf = bytearray()
            assert recv_header(b, buf) == (
                MessageType.FRAME, 5, 9, 2, 1, PixelFormat.RGB24, 6, len(wire))
            assert buf[:HEADER_SIZE] == wire[:HEADER_SIZE]
            assert b.recv(1024) == wire[HEADER_SIZE:]
            assert recv_header(b, buf) is None

    def test_expect_rejects_other_types_at_the_header(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(encode_frame(tiny_echo()))
            with pytest.raises(CodecError, match="ECHO message where FRAME was expected"):
                recv_message(b, bytearray(), expect=MessageType.FRAME)
            # the body is left unread
            assert len(b.recv(1024)) == 6 + ECHO_TRAILER_SIZE


def fuzz_strategies():
    """Hypothesis, its strategies, and strategies for messages and for wire bytes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    u64 = st.integers(0, 2**64 - 1)

    @st.composite
    def messages(draw) -> FrameMessage:
        pixel_format = draw(st.sampled_from(PixelFormat))
        if pixel_format is PixelFormat.RGB24:
            width, height = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        else:
            width, height = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
        size = expected_payload_len(pixel_format, width, height)
        payload = draw(st.binary(min_size=size, max_size=size))
        msg_type = draw(st.sampled_from(MessageType))
        recv = send = None
        if msg_type is MessageType.ECHO:
            recv = draw(u64)
            send = draw(st.integers(recv, 2**64 - 1))
        return FrameMessage(msg_type, draw(u64), draw(u64), width, height, pixel_format,
                            payload, recv, send)

    # arbitrary bytes, and arbitrary bytes behind the magic, which reach the header checks
    wire_bytes = st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(MAGIC.__add__))
    return hypothesis, st, messages(), wire_bytes


class TestFuzz:
    def test_decode_raises_only_codec_errors(self):
        hypothesis, _, _, wire_bytes = fuzz_strategies()

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(wire_bytes)
        def check(data):
            try:
                decode_frame(data)
            except CodecError:
                pass

        check()

    def test_decode_inverts_encode(self):
        hypothesis, _, messages, _ = fuzz_strategies()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(messages)
        def check(msg):
            wire = encode_frame(msg)
            assert decode_frame(wire) == msg
            assert decode_frame(memoryview(wire)) == msg

        check()

    def test_socket_reader_returns_or_raises_codec_errors(self):
        hypothesis, st, messages, wire_bytes = fuzz_strategies()

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.one_of(wire_bytes, messages.map(encode_frame)), max_size=4))
        def check(chunks):
            a, b = socket.socketpair()
            with a, b:
                b.settimeout(5)
                a.sendall(b"".join(chunks))
                a.shutdown(socket.SHUT_WR)
                try:
                    while read_frame(b) is not None:
                        pass
                except CodecError:
                    pass

        check()

    def test_decode_rejects_a_header_as_the_socket_reader_does(self):
        hypothesis, st, messages, _ = fuzz_strategies()
        wires = messages.map(encode_frame)
        # bytes that hold a complete header: arbitrary ones, arbitrary ones
        # behind the magic, encoded messages cut or extended, and encoded
        # messages with one header byte after the magic replaced
        headers = st.one_of(
            st.binary(min_size=HEADER_SIZE, max_size=200),
            st.binary(min_size=HEADER_SIZE - len(MAGIC), max_size=200).map(MAGIC.__add__),
            st.builds(lambda wire, n, tail: wire[:n] + tail,
                      wires, st.integers(HEADER_SIZE, 300), st.binary(max_size=20)),
            st.builds(lambda wire, i, byte: wire[:i] + bytes([byte]) + wire[i + 1 :],
                      wires, st.integers(len(MAGIC), HEADER_SIZE - 1), st.integers(0, 255)),
        )

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(headers)
        def check(data):
            a, b = socket.socketpair()
            with a, b:
                b.settimeout(5)
                a.sendall(data)
                a.shutdown(socket.SHUT_WR)
                try:
                    recv_message(b, bytearray())
                except CodecError as exc:
                    expected = type(exc)
                else:
                    return
            with pytest.raises(CodecError) as info:
                decode_frame(data)
            assert info.type is expected

        check()
