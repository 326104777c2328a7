import dataclasses
import math
import os
import socket
import struct
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from drowsebench import transport
from drowsebench.cli import main
from drowsebench.protocol import (
    ECHO_TRAILER_SIZE,
    HEADER_SIZE,
    MAGIC,
    CodecError,
    FrameMessage,
    MessageType,
    PixelFormat,
    encode_frame,
    expected_payload_len,
    read_frame,
)
from drowsebench.transport import (
    EchoServer,
    IntervalStats,
    ProtocolError,
    RoundTripRecord,
    interval_stats,
    raw_bandwidth,
    read_rtt_csv,
    stream_and_measure,
    write_rtt_csv,
)


@pytest.fixture(scope="module")
def echo_address():
    with EchoServer() as server:
        yield server.address


def record(frame_id, recv, inter, send=0, rtt=1):
    return RoundTripRecord(
        frame_id=frame_id, send_ts_us=send, recv_ts_us=recv, rtt_us=rtt, inter_arrival_us=inter
    )


class TestIntervalStats:
    def test_hand_example(self):
        records = [record(0, 0, None), record(1, 30000, 30000), record(2, 70000, 40000)]
        stats = interval_stats(records)
        assert stats == IntervalStats(
            count=2, mean_us=35000.0, std_us=5000.0, median_us=35000.0,
            min_us=30000, max_us=40000,
        )

    def test_mean_telescopes_to_span(self):
        import random

        rng = random.Random(7)
        recv = 0
        records = [record(0, 0, None)]
        for i in range(1, 50):
            gap = rng.randint(1, 5000)
            recv += gap
            records.append(record(i, recv, gap))
        stats = interval_stats(records)
        span = records[-1].recv_ts_us - records[0].recv_ts_us
        assert stats.mean_us * stats.count == pytest.approx(span)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            interval_stats([record(0, 0, None)])


class TestRawBandwidth:
    def test_hd_rate_is_exact_product(self):
        assert raw_bandwidth(1280, 720, 24, 30) == 663_552_000

    def test_low_res_rate(self):
        assert raw_bandwidth(320, 240, 24, 30) == 55_296_000

    def test_unit_product(self):
        assert raw_bandwidth(1, 1, 1, 1) == 1

    def test_fractional_fps(self):
        assert raw_bandwidth(1280, 720, 24, 29.97) == 662_888_448
        # an int, so JSON output at an integral fps reads 663552000, not 663552000.0
        assert repr(raw_bandwidth(1280, 720, 24, 30.0)) == "663552000"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            raw_bandwidth(0, 720, 24, 30)
        with pytest.raises(ValueError):
            raw_bandwidth(1280, 720, 24, -1)


class TestStreamAndMeasure:
    def test_session_records(self, echo_address):
        host, port = echo_address
        records = stream_and_measure(host, port, fps=200, n_frames=20, width=32, height=24)
        assert [r.frame_id for r in records] == list(range(20))
        assert records[0].inter_arrival_us is None
        assert all(r.inter_arrival_us is not None for r in records[1:])
        assert all(r.rtt_us >= 0 for r in records)
        recvs = [r.recv_ts_us for r in records]
        assert recvs == sorted(recvs)
        gaps = [r.inter_arrival_us for r in records[1:]]
        assert sum(gaps) == recvs[-1] - recvs[0]

    def test_pacing_tracks_ideal_timeline(self, echo_address):
        host, port = echo_address
        fps, n = 100, 30
        records = stream_and_measure(host, port, fps=fps, n_frames=n, width=16, height=16)
        period = 1e6 / fps
        t0 = records[0].send_ts_us
        errors = [r.send_ts_us - (t0 + r.frame_id * period) for r in records]
        # within a scheduler quantum of the ideal send time, with no drift
        assert max(abs(e) for e in errors) < 15_000
        assert abs(errors[-1]) <= max(abs(e) for e in errors[: n // 2]) + 15_000

    def test_empty_pixel_format(self, echo_address):
        host, port = echo_address
        records = stream_and_measure(
            host, port, fps=500, n_frames=10, width=640, height=480,
            pixel_format=PixelFormat.EMPTY,
        )
        assert len(records) == 10

    def test_two_frames_minimum(self, echo_address):
        host, port = echo_address
        records = stream_and_measure(host, port, fps=100, n_frames=2, width=8, height=8)
        assert interval_stats(records).count == 1

    def test_rejects_bad_arguments(self, echo_address):
        host, port = echo_address
        with pytest.raises(ValueError):
            stream_and_measure(host, port, fps=0, n_frames=10, width=8, height=8)
        with pytest.raises(ValueError):
            stream_and_measure(host, port, fps=30, n_frames=1, width=8, height=8)

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fps(self, echo_address, fps):
        with pytest.raises(ValueError, match="^fps must be positive and finite, got"):
            stream_and_measure(*echo_address, fps=fps, n_frames=10, width=8, height=8)

    @pytest.mark.parametrize("width,height", [(70000, 1), (65535, 65535)])
    def test_header_ranges_are_checked_before_the_payload_exists(
        self, monkeypatch, width, height
    ):
        # 70000 overflows the u16 width; 65535x65535 rgb24 is a 12.9 GB payload,
        # beyond the u32 payload_len.  Both fail before any connection is made.
        def allocate(n):
            raise AssertionError(f"built a {n}-byte payload")

        monkeypatch.setattr("drowsebench.transport._test_pattern", allocate)
        with pytest.raises(CodecError, match="^field out of range of its wire type: "):
            stream_and_measure("127.0.0.1", 9, fps=30, n_frames=2, width=width, height=height)

    def test_connection_refused(self):
        # grab a port that nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            stream_and_measure("127.0.0.1", port, fps=100, n_frames=2, width=8, height=8)


class TestEchoServer:
    def test_concurrent_sessions(self, echo_address):
        host, port = echo_address
        results = {}

        def run(key):
            results[key] = stream_and_measure(
                host, port, fps=300, n_frames=15, width=16, height=12
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(len(results[i]) == 15 for i in range(2))

    def test_malformed_input_drops_connection(self, echo_address):
        with socket.create_connection(echo_address) as sock:
            sock.sendall(b"JUNKJUNKJUNK" + b"\x00" * 30)
            sock.settimeout(5.0)
            assert_closed_without_reply(sock)

    def test_echo_payload_matches_sent_payload(self, echo_address):
        # stream_and_measure compares every echo byte for byte with the
        # frame it sent; a full session is the end-to-end integrity check
        host, port = echo_address
        records = stream_and_measure(host, port, fps=400, n_frames=8, width=24, height=24)
        assert len(records) == 8

    def test_echo_bytes_are_the_frame_with_a_trailer(self, echo_address):
        frame = FrameMessage(MessageType.FRAME, 7, 123, 4, 2, PixelFormat.RGB24, bytes(range(24)))
        with connect(echo_address) as sock:
            sock.sendall(encode_frame(frame))
            reply = recv_exactly(sock, HEADER_SIZE + 24 + ECHO_TRAILER_SIZE)
        recv_ts, send_ts = struct.unpack("<QQ", reply[-ECHO_TRAILER_SIZE:])
        assert recv_ts <= send_ts
        assert reply == encode_frame(dataclasses.replace(
            frame, msg_type=MessageType.ECHO, server_recv_ts_us=recv_ts, server_send_ts_us=send_ts
        ))

    def test_growing_frames_on_one_connection(self, echo_address):
        # each frame outgrows the connection's receive buffer
        sizes = [(1280, 720, PixelFormat.EMPTY), (8, 8, PixelFormat.RGB24),
                 (320, 240, PixelFormat.RGB24), (1280, 720, PixelFormat.RGB24)]
        frames = [
            FrameMessage(MessageType.FRAME, k, k, w, h, fmt,
                         pattern(expected_payload_len(fmt, w, h), k))
            for k, (w, h, fmt) in enumerate(sizes)
        ]
        with connect(echo_address) as sock:
            sender = threading.Thread(
                target=lambda: [sock.sendall(encode_frame(f)) for f in frames])
            sender.start()
            echoes = [read_frame(sock) for _ in frames]
            sender.join(timeout=10)
            assert not sender.is_alive()
        for frame, echo in zip(frames, echoes):
            assert echo == dataclasses.replace(
                frame, msg_type=MessageType.ECHO, server_recv_ts_us=echo.server_recv_ts_us,
                server_send_ts_us=echo.server_send_ts_us,
            )

    @pytest.mark.parametrize("wire", [
        pytest.param(MAGIC + struct.pack("<BQQHHBI", 0x7F, 0, 0, 1, 1, 0x00, 3) + b"abc",
                     id="unknown-msg-type"),
        pytest.param(encode_frame(FrameMessage(MessageType.ECHO, 0, 0, 1, 1, PixelFormat.RGB24,
                                               b"abc", 1, 2)), id="echo-type"),
        pytest.param(MAGIC + struct.pack("<BQQHHBI", 0x01, 0, 0, 2, 1, 0x00, 3) + b"abc",
                     id="payload-len-mismatch"),
    ])
    def test_rejected_header_gets_no_reply(self, echo_address, wire):
        with connect(echo_address) as sock:
            sock.sendall(wire)
            assert_closed_without_reply(sock)

    def test_frame_cut_off_mid_payload_gets_a_prefix_of_its_echo(self, echo_address):
        # the splice relay has forwarded the header and the 5000 bytes when
        # the payload ends; the copy relay has sent nothing yet
        wire = cut_off_frame()
        with connect(echo_address) as sock:
            sock.sendall(wire)
            sock.shutdown(socket.SHUT_WR)
            reply = recv_until_eof(sock)
        assert len(reply) <= len(wire)
        assert echo_of(wire).startswith(reply)

    def test_stop_while_a_frame_is_mid_payload(self, monkeypatch):
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        with EchoServer() as server, connect(server.address) as sock:
            sock.sendall(cut_off_frame())
            time.sleep(0.2)  # the handler now waits for the rest of the payload
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 5.0
            join_handlers()
            reply = recv_until_eof(sock)
        assert echo_of(cut_off_frame()).startswith(reply)
        assert thread_errors == []

    def test_ipv6_loopback_session(self, ipv6_loopback):
        with EchoServer(ipv6_loopback) as server:
            host, port = server.address
            assert host == "::1"
            records = stream_and_measure(host, port, 200, 3, 16, 12)
        assert [r.frame_id for r in records] == [0, 1, 2]

    def test_sessions_leave_no_descriptor_open(self):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("needs /proc/self/fd")
        with EchoServer() as server:
            join_handlers()
            before = len(os.listdir(fds))
            stream_and_measure(*server.address, fps=400, n_frames=4, width=64, height=64)
            for wire in (cut_off_frame(), b"JUNK" + bytes(HEADER_SIZE - 4)):
                with connect(server.address) as sock:
                    sock.sendall(wire)
                    sock.shutdown(socket.SHUT_WR)
                    recv_until_eof(sock)
            join_handlers()
            assert len(os.listdir(fds)) == before


class CopyRelay:
    """Runs the inherited tests against the copy relay, the fallback where os.splice is missing."""

    @pytest.fixture(scope="class", autouse=True)
    def copy_relay(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_SPLICE", False)
            yield

    @pytest.fixture(scope="class")
    def echo_address(self, copy_relay):
        with EchoServer() as server:
            yield server.address


class TestStreamAndMeasureCopyRelay(CopyRelay, TestStreamAndMeasure):
    pass


class TestEchoServerCopyRelay(CopyRelay, TestEchoServer):
    pass


@pytest.mark.skipif(not hasattr(os, "splice"), reason="os.splice is Linux-only")
def test_splice_relay_keeps_the_payload_out_of_the_process():
    wire = encode_frame(FrameMessage(MessageType.FRAME, 1, 2, 1280, 720, PixelFormat.RGB24,
                                     pattern(1280 * 720 * 3, 1)))
    reply = bytearray(len(wire) + ECHO_TRAILER_SIZE)
    with EchoServer() as server:
        with connect(server.address) as sock:  # the first connection warms up the server
            echo_into(sock, wire, reply)
        with connect(server.address) as sock:
            tracemalloc.start()
            try:
                echo_into(sock, wire, reply)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert reply.startswith(echo_of(wire))
    # the copy relay reads the 2.7 MB frame into a buffer: about 3.4 MiB
    assert peak < 64 * 1024


@pytest.mark.skipif(not hasattr(os, "splice"), reason="os.splice is Linux-only")
def test_relay_pipe_keeps_its_default_size_where_it_cannot_grow(monkeypatch):
    import fcntl

    real_fcntl = fcntl.fcntl
    refused = []

    def refuse_to_resize(fd, cmd, *args):
        if cmd == fcntl.F_SETPIPE_SZ:
            refused.append(fd)
            raise PermissionError("beyond the user's pipe quota")
        return real_fcntl(fd, cmd, *args)

    monkeypatch.setattr(fcntl, "fcntl", refuse_to_resize)
    read_end, write_end, size = transport._open_pipe()
    try:
        assert size == real_fcntl(write_end, fcntl.F_GETPIPE_SZ) < transport._PIPE_SIZE
    finally:
        os.close(read_end)
        os.close(write_end)
    wire = encode_frame(FrameMessage(MessageType.FRAME, 1, 2, 1280, 720, PixelFormat.RGB24,
                                     pattern(1280 * 720 * 3, 1)))
    reply = bytearray(len(wire) + ECHO_TRAILER_SIZE)
    with EchoServer() as server, connect(server.address) as sock:
        echo_into(sock, wire, reply)
    assert len(refused) == 2  # this test's pipe and the relay's
    assert reply.startswith(echo_of(wire))


def assert_closed_without_reply(sock: socket.socket) -> None:
    try:
        data = sock.recv(1024)
    except ConnectionResetError:
        data = b""  # close with unread bytes shows up as a reset
    assert data == b""


def join_handlers() -> None:
    """Wait for every echo server's connection handlers to finish."""
    for thread in threading.enumerate():
        if thread.name == "echo-conn":
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def cut_off_frame() -> bytes:
    """The header and the first 5000 of the 12288 payload bytes of a 64x64 frame."""
    frame = FrameMessage(MessageType.FRAME, 3, 9, 64, 64, PixelFormat.RGB24, pattern(12288, 3))
    return encode_frame(frame)[: HEADER_SIZE + 5000]


def echo_of(wire: bytes) -> bytes:
    """Frame bytes with msg_type set to ECHO: an echo without its trailer."""
    echo = bytearray(wire)
    echo[4] = MessageType.ECHO
    return bytes(echo)


def echo_into(sock: socket.socket, wire: bytes, reply: bytearray) -> None:
    """Send ``wire`` from a second thread while its echo fills ``reply``."""
    sender = threading.Thread(target=sock.sendall, args=(wire,))
    sender.start()
    got = 0
    with memoryview(reply) as view:
        while got < len(reply):
            n = sock.recv_into(view[got:])
            if not n:
                raise EOFError(f"closed after {got} of {len(reply)} bytes")
            got += n
    sender.join(timeout=5.0)
    assert not sender.is_alive()


def recv_until_eof(sock: socket.socket) -> bytes:
    data = bytearray()
    while chunk := sock.recv(65536):
        data += chunk
    return bytes(data)


def connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError(f"closed after {len(data)} of {n} bytes")
        data += chunk
    return bytes(data)


def pattern(n: int, frame_id: int) -> bytes:
    """The client's payload for ``frame_id``: the test pattern, stamped with the id."""
    payload = bytes((i * 31 + 7) & 0xFF for i in range(n))
    return frame_id.to_bytes(8, "little") + payload[8:] if n >= 8 else payload


class FakeServer:
    """Serves one stream_and_measure session by hand, recording every frame it gets.

    Each echo is the frame with its msg_type set to ECHO and a trailer
    appended; ``tamper(k, echo, frames)`` may change echo ``k`` first.
    An echo that ``tamper`` cuts shorter than its frame is the last: the
    server closes the connection after sending it.
    """

    def __init__(self, frame_len: int, tamper=lambda k, echo, frames: None):
        self.frame_len = frame_len
        self.tamper = tamper
        self.frames: list[bytes] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5.0)
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            conn.settimeout(5.0)
            try:
                while True:
                    frame = recv_exactly(conn, self.frame_len)
                    self.frames.append(frame)
                    echo = bytearray(frame)
                    echo[4] = MessageType.ECHO
                    echo += struct.pack("<QQ", 10, 20)
                    self.tamper(len(self.frames) - 1, echo, self.frames)
                    conn.sendall(echo)
                    if len(echo) < len(frame):
                        break
            except (EOFError, OSError):
                pass

    def __enter__(self) -> "FakeServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()


def flip_payload_byte(k, echo, frames):
    if k == 2:
        echo[HEADER_SIZE + 20] ^= 0x01


def stale_stamp(k, echo, frames):
    # frame k's payload stamp echoed for frame k + 1
    if k == 2:
        echo[HEADER_SIZE : HEADER_SIZE + 8] = frames[1][HEADER_SIZE : HEADER_SIZE + 8]


def stale_frame_id(k, echo, frames):
    if k == 2:
        echo[5:13] = frames[1][5:13]


def trailer_backwards(k, echo, frames):
    if k == 2:
        echo[-ECHO_TRAILER_SIZE:] = struct.pack("<QQ", 20, 10)


def cut_off_echo(k, echo, frames):
    if k == 2:
        del echo[40:]


def bad_magic(k, echo, frames):
    if k == 2:
        echo[:4] = b"JUNK"


def as_frame(k, echo, frames):
    if k == 2:
        echo[4] = MessageType.FRAME


def hang_up(k, echo, frames):
    if k == 2:
        raise EOFError  # the server closes the connection instead of echoing frame 2


def echo_the_next_frame_too(k, echo, frames):
    # a well-formed echo of frame 1, sent before the client sends frame 1
    if k == 0:
        echo += echo[:5] + struct.pack("<Q", 1) + echo[13:]


def flip_byte_at(offset):
    def tamper(k, echo, frames):
        if k == 2:
            echo[HEADER_SIZE + offset] ^= 0x01
    return tamper


def client_session(width, height, tamper=lambda k, echo, frames: None, n_frames=5):
    """Stream ``n_frames`` RGB24 frames to a FakeServer; the records and the frames it got."""
    with FakeServer(HEADER_SIZE + width * height * 3, tamper) as server:
        records = stream_and_measure(*server.address, fps=200, n_frames=n_frames,
                                     width=width, height=height, timeout_s=5.0)
    return records, server.frames


class TestClientWire:
    WIDTH, HEIGHT = 4, 3

    def session(self, tamper=lambda k, echo, frames: None):
        with FakeServer(HEADER_SIZE + self.WIDTH * self.HEIGHT * 3, tamper) as server:
            records = stream_and_measure(*server.address, fps=200, n_frames=5,
                                         width=self.WIDTH, height=self.HEIGHT, timeout_s=5.0)
        return records, server.frames

    def test_frames_sent_are_encoded_frames(self):
        records, frames = self.session()
        assert len(frames) == len(records) == 5
        for k, (record, wire) in enumerate(zip(records, frames)):
            assert wire == encode_frame(FrameMessage(
                MessageType.FRAME, k, record.send_ts_us, self.WIDTH, self.HEIGHT,
                PixelFormat.RGB24, pattern(self.WIDTH * self.HEIGHT * 3, k),
            ))

    def test_empty_frames_sent_are_encoded_frames(self):
        with FakeServer(HEADER_SIZE) as server:
            records = stream_and_measure(*server.address, fps=200, n_frames=3, width=640,
                                         height=480, pixel_format=PixelFormat.EMPTY)
        assert server.frames == [
            encode_frame(FrameMessage(MessageType.FRAME, k, r.send_ts_us, 640, 480,
                                      PixelFormat.EMPTY))
            for k, r in enumerate(records)
        ]

    @pytest.mark.parametrize("tamper, message", [
        (flip_payload_byte, "echo of frame 2 differs from the frame sent"),
        (stale_stamp, "echo of frame 2 differs from the frame sent"),
        (stale_frame_id, "echo out of order: expected 2, got 1"),
        (trailer_backwards, "echo of frame 2 was sent before it was received"),
    ])
    def test_tampered_echo_raises(self, tamper, message):
        with pytest.raises(ProtocolError, match=message):
            self.session(tamper)

    def test_receive_error_stops_the_sender(self):
        # 500 frames at 30 fps take 16.7 s to send; the error must not wait for them
        with FakeServer(HEADER_SIZE + self.WIDTH * self.HEIGHT * 3, flip_payload_byte) as server:
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="echo of frame 2 differs"):
                stream_and_measure(*server.address, fps=30, n_frames=500,
                                   width=self.WIDTH, height=self.HEIGHT)
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert len(server.frames) <= 30


class TestMalformedEcho:
    # the echo reader's CodecError would escape a caller that handles ProtocolError
    @pytest.mark.parametrize("tamper, message", [
        (cut_off_echo, "^bad echo after 2 echoes: connection closed mid-message$"),
        (bad_magic, "^bad echo after 2 echoes: bad magic b'JUNK'$"),
    ])
    def test_raises_protocol_error(self, tamper, message):
        with pytest.raises(ProtocolError, match=message):
            client_session(4, 3, tamper)


class TestServerMisbehaves:
    def test_echo_of_a_frame_not_yet_sent(self, capsys):
        # frame 1 is due 0.25 s after frame 0, so its echo comes before it is sent
        with FakeServer(HEADER_SIZE, echo_the_next_frame_too) as server:
            host, port = server.address
            assert main(["stream-bench", "--connect", f"{host}:{port}", "--fps", "4",
                         "--frames", "3", "--res", "2x2", "--pixel-format", "empty"]) == 2
        assert capsys.readouterr().err == "error: echo of frame 1 came before the frame was sent\n"

    def test_message_other_than_an_echo(self):
        with pytest.raises(ProtocolError, match="^expected an echo, got FRAME$"):
            client_session(4, 3, as_frame)

    def test_server_closes_between_echoes(self):
        # frames 20 ms apart: the client reads the close before it sends frame 3
        with FakeServer(HEADER_SIZE + 4 * 3 * 3, hang_up) as server:
            with pytest.raises(ProtocolError,
                               match="^server closed the connection after 2 echoes"):
                stream_and_measure(*server.address, fps=50, n_frames=5, width=4, height=3,
                                   timeout_s=5.0)

    def test_server_stops_answering(self):
        resume = threading.Event()

        def stall(k, echo, frames):
            if k == 2:
                resume.wait(timeout=5.0)

        with FakeServer(HEADER_SIZE + 4 * 3 * 3, stall) as server:
            with pytest.raises(ProtocolError,
                               match="^timed out after 2 echoes waiting for the next one$"):
                stream_and_measure(*server.address, fps=200, n_frames=5, width=4, height=3,
                                   timeout_s=0.2)
            resume.set()


# the client sends and checks the payload after its 8-byte stamp from a tile
# of up to 256 KiB: 640x480 is the stamp, 3 whole tiles and a partial one
TILE = 1 << 18
PAYLOAD_640x480 = 640 * 480 * 3


class TestClientWireAcrossTiles:
    def test_frames_sent_are_encoded_frames(self):
        assert 3 * TILE < PAYLOAD_640x480 - 8 < 4 * TILE
        records, frames = client_session(640, 480, n_frames=3)
        payload = pattern(PAYLOAD_640x480, 0)
        assert len(frames) == len(records) == 3
        for k, (record, wire) in enumerate(zip(records, frames)):
            assert wire == encode_frame(FrameMessage(
                MessageType.FRAME, k, record.send_ts_us, 640, 480, PixelFormat.RGB24,
                k.to_bytes(8, "little") + payload[8:],
            ))

    @pytest.mark.parametrize("offset", [
        pytest.param(8 + TILE + 1000, id="middle-tile"),
        pytest.param(8 + 3 * TILE + 1000, id="partial-tile"),
        pytest.param(PAYLOAD_640x480 - 1, id="last-byte"),
    ])
    def test_flipped_byte_raises(self, offset):
        with pytest.raises(ProtocolError, match="^echo of frame 2 differs from the frame sent$"):
            client_session(640, 480, flip_byte_at(offset))


@pytest.mark.skipif(not hasattr(os, "splice"), reason="the copy relay holds a frame in process")
def test_stream_client_holds_one_frame():
    # a 720p payload is 2.64 MiB: the client's receive buffer holds one echo,
    # and nothing else it keeps is frame-sized
    payload = 1280 * 720 * 3
    with EchoServer() as server:
        stream_and_measure(*server.address, fps=30, n_frames=4, width=1280, height=720)
        tracemalloc.start()
        try:
            stream_and_measure(*server.address, fps=30, n_frames=4, width=1280, height=720)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * payload


class TestRttCsv:
    def test_roundtrip(self, tmp_path):
        records = [record(0, 10, None, send=5, rtt=5), record(1, 45, 35, send=40, rtt=5)]
        path = tmp_path / "rtt.csv"
        write_rtt_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame_id,send_ts_us,recv_ts_us,rtt_us,inter_arrival_us"
        assert lines[1].endswith(",")  # first inter-arrival is empty
        assert read_rtt_csv(path) == records

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_rtt_csv(path)
