"""Loopback echo server and paced streaming client.

The client sends frames over TCP at a fixed rate and the server echoes
each one back with its receive/send timestamps appended.  Round-trip
time and the gaps between consecutive echo arrivals are recorded per
frame; the inter-arrival distribution is the throughput measurement.

Frames are paced against an ideal timeline (frame k is sent at
``t0 + k / fps``), so a late frame does not push every later frame
late: pacing error stays bounded instead of accumulating.

Neither side decodes or re-encodes a frame on the way.  Each reads into
one buffer per connection with ``recv_message``; the server checks the
header and relays the received bytes with the echo trailer appended,
and the client patches the per-frame fields of one encoded frame in
place and compares each echo byte for byte with what it sent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .protocol import (  # noqa: F401 - perfbench wraps read_frame/write_frame here
    ECHO_TRAILER,
    ECHO_TRAILER_SIZE,
    HEADER_SIZE,
    MSG_IDS,
    MSG_IDS_OFFSET,
    CodecError,
    FrameMessage,
    MessageType,
    PixelFormat,
    encode_frame,
    expected_payload_len,
    read_frame,
    recv_message,
    write_frame,
)
from .report import iter_csv, pstdev, write_csv

log = logging.getLogger(__name__)

RTT_CSV_HEADER = ["frame_id", "send_ts_us", "recv_ts_us", "rtt_us", "inter_arrival_us"]


class ProtocolError(RuntimeError):
    """Session-level violation: out-of-order echo, bad payload, timeout."""


def monotonic_us() -> int:
    return time.monotonic_ns() // 1000


@dataclass(frozen=True)
class RoundTripRecord:
    """One frame's life cycle as seen by the client clock."""

    frame_id: int
    send_ts_us: int
    recv_ts_us: int
    rtt_us: int
    inter_arrival_us: int | None


@dataclass(frozen=True)
class IntervalStats:
    """Summary of the gaps between consecutive echo arrivals."""

    count: int
    mean_us: float
    std_us: float
    median_us: float
    min_us: int
    max_us: int


def interval_stats(records: list[RoundTripRecord]) -> IntervalStats:
    """Population statistics over the inter-arrival gaps.

    Needs at least two records (one gap).  The mean times the gap count
    telescopes back to ``last_recv - first_recv``.
    """
    gaps = [r.inter_arrival_us for r in records if r.inter_arrival_us is not None]
    if not gaps:
        raise ValueError("need at least two records to compute inter-arrival stats")
    return IntervalStats(
        count=len(gaps),
        mean_us=statistics.fmean(gaps),
        std_us=pstdev(gaps),
        median_us=statistics.median(gaps),
        min_us=min(gaps),
        max_us=max(gaps),
    )


def raw_bandwidth(width: int, height: int, bits_per_pixel: int, fps: float) -> int:
    """Uncompressed bit rate of a video stream, in whole bit/s.

    1280x720 at 24 bpp and 30 fps is exactly 663_552_000 bit/s.  Figures
    around 632 Mbit/s are sometimes quoted for that configuration; they
    do not match the product and are not reproduced here.  A fractional
    fps gives the product rounded to the nearest bit/s: 29.97 fps gives
    662_888_448.
    """
    for name, value in (("width", width), ("height", height),
                        ("bits_per_pixel", bits_per_pixel), ("fps", fps)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return round(width * height * bits_per_pixel * fps)


class EchoServer:
    """Threaded TCP server that echoes frames back in arrival order.

    Each connection gets its own handler thread, so one connection's
    replies are serialized while multiple connections run concurrently.
    A frame is not decoded: its header is checked, and the received bytes
    go back with the msg_type set to ECHO and the trailer appended.
    Malformed messages, and messages other than frames, are logged and
    drop the connection.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        # closing the listener does not wake a blocked accept(), so poll
        self._listener.settimeout(0.25)
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()

    @property
    def address(self) -> tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    def start(self) -> "EchoServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="echo-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            conn.setblocking(True)
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._handle, args=(conn, peer), name="echo-conn", daemon=True
            ).start()

    def _handle(self, conn: socket.socket, peer) -> None:
        buf = bytearray()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while n := recv_message(conn, buf, expect=MessageType.FRAME):
                recv_ts = monotonic_us()
                buf[MSG_IDS_OFFSET] = MessageType.ECHO
                ECHO_TRAILER.pack_into(buf, n, recv_ts, monotonic_us())
                with memoryview(buf) as view:
                    conn.sendall(view[: n + ECHO_TRAILER_SIZE])
        except CodecError as exc:
            log.warning("malformed message from %s: %s", peer, exc)
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def stop(self) -> None:
        self._stopping.set()
        self._listener.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "EchoServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_echo_server(host: str, port: int) -> None:
    """Serve echoes on (host, port) until interrupted."""
    server = EchoServer(host, port)
    try:
        server.start()
        bound = server.address
        # flushed, so a parent reading a pipe learns the port; a SIGINT
        # as soon as the port is known still stops the server cleanly
        print(f"echo server listening on {bound[0]}:{bound[1]}", flush=True)
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


def _sleep_until(deadline_us: int) -> None:
    # Coarse sleep, then short naps for the last millisecond.
    while True:
        remaining = deadline_us - monotonic_us()
        if remaining <= 0:
            return
        if remaining > 1500:
            time.sleep((remaining - 1000) / 1e6)
        else:
            time.sleep(0.0001)


_STAMP = struct.Struct("<Q")


def _test_pattern(n: int) -> bytes:
    """``n`` bytes of ``(i * 31 + 7) & 0xFF``, tiled from its 256-byte period."""
    period = bytes((i * 31 + 7) & 0xFF for i in range(256))
    return (period * (n // 256 + 1))[:n]


def _stamp(wire: bytearray, msg_type: MessageType, frame_id: int, capture_ts_us: int) -> None:
    """Patch one frame's fields into encoded wire bytes, in place.

    Payloads of 8 bytes or more also carry the frame id in their first 8
    bytes, so an echo of the wrong frame's payload cannot pass.
    """
    MSG_IDS.pack_into(wire, MSG_IDS_OFFSET, msg_type, frame_id, capture_ts_us)
    if len(wire) >= HEADER_SIZE + _STAMP.size:
        _STAMP.pack_into(wire, HEADER_SIZE, frame_id)


def stream_and_measure(
    host: str,
    port: int,
    fps: float,
    n_frames: int,
    width: int,
    height: int,
    pixel_format: PixelFormat = PixelFormat.RGB24,
    timeout_s: float = 30.0,
) -> list[RoundTripRecord]:
    """Stream ``n_frames`` paced frames to an echo server and measure.

    A sender thread paces frames on the ideal timeline while the caller's
    thread reads echoes, so sending never blocks on receiving.  Every
    echo must come back in order, byte-identical to the frame sent apart
    from its msg_type, with server timestamps that do not run backwards;
    any violation raises ProtocolError and shuts the socket down, so the
    sender stops at its next frame.  Returns one record per frame,
    sorted by frame_id.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")

    payload_len = expected_payload_len(pixel_format, width, height)
    try:  # the header's u16 dimensions and u32 payload_len, before the payload exists
        struct.pack("<HHI", width, height, payload_len)
    except struct.error as exc:
        raise CodecError(f"field out of range of its wire type: {exc}") from None
    wire = bytearray(encode_frame(FrameMessage(
        MessageType.FRAME, 0, 0, width, height, pixel_format, _test_pattern(payload_len)
    )))
    expected = bytearray(wire)  # the receiver's copy: the sender patches ``wire`` meanwhile
    period_us = 1e6 / fps
    send_ts: dict[int, int] = {}
    sender_error: list[BaseException] = []

    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def send_all() -> None:
            try:
                t0 = monotonic_us()
                for k in range(n_frames):
                    _sleep_until(int(t0 + k * period_us))
                    now = monotonic_us()
                    _stamp(wire, MessageType.FRAME, k, now)
                    send_ts[k] = now
                    sock.sendall(wire)
            except BaseException as exc:  # surfaced by the receive loop
                sender_error.append(exc)

        sender = threading.Thread(target=send_all, name="frame-sender", daemon=True)
        sender.start()

        records: list[RoundTripRecord] = []
        prev_recv: int | None = None
        buf = bytearray()
        try:
            for k in range(n_frames):
                n = recv_message(sock, buf)
                recv = monotonic_us()
                if not n:
                    raise ProtocolError(
                        f"server closed the connection after {len(records)} echoes"
                        + (f" (send failed: {sender_error[0]})" if sender_error else "")
                    )
                msg_type, frame_id, _ = MSG_IDS.unpack_from(buf, MSG_IDS_OFFSET)
                if msg_type != MessageType.ECHO:
                    raise ProtocolError(f"expected an echo, got {MessageType(msg_type).name}")
                if frame_id != k:
                    raise ProtocolError(f"echo out of order: expected {k}, got {frame_id}")
                _stamp(expected, MessageType.ECHO, k, send_ts[k])
                # startswith is one memcmp; comparing a memoryview to bytes goes per byte
                if not buf.startswith(expected):
                    raise ProtocolError(f"echo of frame {k} differs from the frame sent")
                server_recv, server_send = ECHO_TRAILER.unpack_from(buf, n - ECHO_TRAILER_SIZE)
                if server_recv > server_send:
                    raise ProtocolError(f"echo of frame {k} was sent before it was received")
                records.append(
                    RoundTripRecord(
                        frame_id=k,
                        send_ts_us=send_ts[k],
                        recv_ts_us=recv,
                        rtt_us=recv - send_ts[k],
                        inter_arrival_us=None if prev_recv is None else recv - prev_recv,
                    )
                )
                prev_recv = recv
        except socket.timeout:
            raise ProtocolError(
                f"timed out after {len(records)} echoes waiting for the next one"
            ) from None
        finally:
            if len(records) < n_frames:  # the receive loop raised
                with contextlib.suppress(OSError):  # the peer may have reset already
                    sock.shutdown(socket.SHUT_RDWR)
            sender.join(timeout=timeout_s)

    if sender_error:
        raise ProtocolError(f"send failed: {sender_error[0]}") from sender_error[0]
    return records


def write_rtt_csv(records: list[RoundTripRecord], path: str | Path) -> None:
    write_csv(path, RTT_CSV_HEADER, map(dataclasses.astuple, records))


def read_rtt_csv(path: str | Path) -> list[RoundTripRecord]:
    return list(
        iter_csv(
            path,
            RTT_CSV_HEADER,
            lambda frame_id, send, recv, rtt, gap: RoundTripRecord(
                int(frame_id), int(send), int(recv), int(rtt), int(gap) if gap else None
            ),
        )
    )
