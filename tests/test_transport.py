import dataclasses
import math
import socket
import struct
import threading
import time

import pytest

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


def assert_closed_without_reply(sock: socket.socket) -> None:
    try:
        data = sock.recv(1024)
    except ConnectionResetError:
        data = b""  # close with unread bytes shows up as a reset
    assert data == b""


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
