"""Loopback echo server and paced streaming client.

The client sends frames over TCP at a fixed rate and the server echoes
each one back with its receive/send timestamps appended.  Round-trip
time and the gaps between consecutive echo arrivals are recorded per
frame; the inter-arrival distribution is the throughput measurement.

Frames are paced against an ideal timeline (frame k is sent at
``t0 + k / fps``), so a late frame does not push every later frame
late: pacing error stays bounded instead of accumulating.

Neither side decodes or re-encodes a frame on the way.  The server
reads and checks each header with ``recv_header`` and sends it back
with msg_type set to ECHO.  On Linux it then relays the payload cut
through, socket to pipe to socket with ``os.splice``, as it arrives,
so the bytes never enter the process; the trailer's
``server_recv_ts_us`` is taken once the last payload byte has been
read, and a frame cut off mid-payload gets back the bytes already
relayed and then the close, with no trailer.  Header-only frames, and
platforms without ``os.splice``, take the copy relay: the whole
message is read into one buffer per connection with ``recv_message``
and sent back from it with the trailer appended, so a cut-off frame
gets nothing back.

The client holds no copy of a whole frame.  Its payload is a test
pattern with a 256-byte period, stamped with the frame id in its first
8 bytes.  The client patches the per-frame fields of a small head (the
header and the stamp) in place, and sends the rest of the payload from
one tile of the pattern, piece by piece.  It reads each echo whole into
one buffer and compares it byte for byte, head and then each piece,
with what it sent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .protocol import (  # noqa: F401 - perfbench wraps read_frame/write_frame here
    ECHO_TRAILER,
    ECHO_TRAILER_SIZE,
    HEADER_SIZE,
    MSG_IDS,
    MSG_IDS_OFFSET,
    CodecError,
    MessageType,
    PixelFormat,
    TruncatedError,
    encode_header,
    expected_payload_len,
    read_frame,
    recv_header,
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
    import statistics  # here, not at the top: the echo server never needs it

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
    """TCP server that echoes frames back in arrival order.

    ``serve_forever()`` accepts connections in the thread that calls it
    until ``stop()``; ``with EchoServer() as server:`` runs it on a
    background thread instead.  Each connection gets its own handler
    thread, so one connection's replies are serialized while multiple
    connections run concurrently.  A frame is not decoded: its header is
    checked, and its bytes go back with the msg_type set to ECHO and the
    trailer appended, relayed as the module docstring describes.
    Malformed messages, and messages other than frames, are logged and
    drop the connection.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        # poll: closing the listener does not wake a blocked accept(), and
        # a signal caught by another thread is handled only between polls
        self._listener.settimeout(0.25)
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()

    @property
    def address(self) -> tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    def serve_forever(self) -> None:
        """Accept connections until ``stop()`` closes the listener."""
        while True:
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
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if _SPLICE:
                _splice_relay(conn)
            else:
                _copy_relay(conn)
        except CodecError as exc:
            log.warning("malformed message from %s: %s", peer, exc)
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def stop(self) -> None:
        """Close the listener, wait for the serving loop, then shut every connection."""
        self._listener.close()
        if self._thread is not None:  # no connection is added once it has ended
            self._thread.join(timeout=5.0)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def __enter__(self) -> "EchoServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="echo-accept", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# The echo server relays payloads with os.splice where it exists (Linux);
# tests set this False to run the copy relay there too.
_SPLICE = hasattr(os, "splice")
# A larger pipe moves more of a payload per splice: relaying 720p at 30 fps
# on a 2-vCPU VM, the server spent 0.92 ms of CPU a frame through 1 MiB
# and 1.14 ms through the default 64 KiB.
_PIPE_SIZE = 1 << 20


def _open_pipe() -> tuple[int, int, int]:
    """A pipe for the splice relay: its read end, its write end and its capacity in bytes."""
    import fcntl  # POSIX only, like os.splice; imported where the relay needs it

    read_end, write_end = os.pipe()
    try:
        size = fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
    except OSError:  # beyond the system's pipe-max-size or the user's pipe quota
        size = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
    return read_end, write_end, size


def _echo_in_place(conn: socket.socket, buf: bytearray, n: int, recv_ts: int) -> None:
    """Send the ``n``-byte frame at the front of ``buf`` back as its echo."""
    buf[MSG_IDS_OFFSET] = MessageType.ECHO
    ECHO_TRAILER.pack_into(buf, n, recv_ts, monotonic_us())
    with memoryview(buf) as view:
        conn.sendall(view[: n + ECHO_TRAILER_SIZE])


def _copy_relay(conn: socket.socket) -> None:
    """Echo each frame after reading all of it into one buffer."""
    buf = bytearray()
    while n := recv_message(conn, buf, expect=MessageType.FRAME):
        _echo_in_place(conn, buf, n, monotonic_us())


def _splice_relay(conn: socket.socket) -> None:
    """Echo each frame's payload through a pipe as it arrives; header-only frames in place.

    Each round fills the pipe from the socket and drains it back into
    the socket, so the pipe is empty whenever the relay waits for the
    peer.  The socket's descriptor is looked up at every call, so a
    ``stop()`` that closes it mid-frame ends the relay with an OSError.
    """
    pipe_r, pipe_w, pipe_size = _open_pipe()
    try:
        buf = bytearray(HEADER_SIZE + ECHO_TRAILER_SIZE)
        while header := recv_header(conn, buf, expect=MessageType.FRAME):
            left = header[-2]  # payload_len
            if not left:
                _echo_in_place(conn, buf, HEADER_SIZE, monotonic_us())
                continue
            buf[MSG_IDS_OFFSET] = MessageType.ECHO
            with memoryview(buf) as view:
                conn.sendall(view[:HEADER_SIZE], socket.MSG_MORE)
            while left:
                got = os.splice(conn.fileno(), pipe_w, min(left, pipe_size))
                if not got:
                    raise TruncatedError("connection closed mid-message")
                left -= got
                if not left:
                    recv_ts = monotonic_us()
                while got:  # MORE holds a round's last partial segment for the next one
                    got -= os.splice(pipe_r, conn.fileno(), got, flags=os.SPLICE_F_MORE)
            conn.sendall(ECHO_TRAILER.pack(recv_ts, monotonic_us()))
    finally:
        os.close(pipe_r)
        os.close(pipe_w)


def run_echo_server(host: str, port: int) -> None:
    """Serve echoes on (host, port) in the calling thread until interrupted."""
    server = EchoServer(host, port)
    try:
        bound = server.address
        # flushed, so a parent reading a pipe learns the port; a SIGINT
        # as soon as the port is known still stops the server cleanly
        print(f"echo server listening on {bound[0]}:{bound[1]}", flush=True)
        server.serve_forever()
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
# The payload after its stamp is sent and checked from one tile of at most
# this many bytes, a whole number of the pattern's 256-byte periods.
_TILE = 1 << 18
# Where the platform has it, MSG_MORE holds a frame's leading pieces for its last one.
_MSG_MORE = getattr(socket, "MSG_MORE", 0)


def _test_pattern(n: int) -> tuple[bytes, list[memoryview]]:
    """``n`` bytes of ``(i * 31 + 7) & 0xFF``: its first 8 bytes, then the rest in pieces.

    The pieces are views of one tile of whole 256-byte periods, at most
    ``_TILE`` bytes, so no ``n``-byte buffer is ever built.  Every piece
    is the whole tile but the last.
    """
    period = bytes((i * 31 + 7) & 0xFF for i in range(256))
    lead = period[: min(n, _STAMP.size)]
    rest = n - len(lead)
    if not rest:
        return lead, []
    tile = memoryview((period[_STAMP.size :] + period[: _STAMP.size])
                      * min(_TILE // 256, -(-rest // 256)))
    return lead, [tile[: min(len(tile), rest - at)] for at in range(0, rest, len(tile))]


def _stamp(wire: bytearray, msg_type: MessageType, frame_id: int, capture_ts_us: int) -> None:
    """Patch one frame's fields into its head (the header and the payload's lead), in place.

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
    any violation, a malformed echo included, raises ProtocolError and
    shuts the socket down, so the sender stops at its next frame.
    Returns one record per frame, sorted by frame_id.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")

    payload_len = expected_payload_len(pixel_format, width, height)
    # the header is checked before any payload-sized buffer exists
    head = bytearray(encode_header(MessageType.FRAME, 0, 0, width, height, pixel_format,
                                   payload_len))
    lead, pieces = _test_pattern(payload_len)
    head += lead
    echo_head = bytearray(head)  # the receiver's copy: the sender patches ``head`` meanwhile
    sends = list(zip([head, *pieces], [_MSG_MORE] * len(pieces) + [0]))  # MORE on all but the last
    checks, at = [], 0  # each part of an echo, and where it starts
    for part in [echo_head, *pieces]:
        checks.append((part, at))
        at += len(part)
    buf = bytearray(HEADER_SIZE + payload_len + ECHO_TRAILER_SIZE)
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
                    _stamp(head, MessageType.FRAME, k, now)
                    send_ts[k] = now
                    for part, flags in sends:
                        sock.sendall(part, flags)
            except BaseException as exc:  # surfaced by the receive loop
                sender_error.append(exc)

        sender = threading.Thread(target=send_all, name="frame-sender", daemon=True)
        sender.start()

        records: list[RoundTripRecord] = []
        prev_recv: int | None = None
        try:
            for k in range(n_frames):
                try:
                    n = recv_message(sock, buf)
                except CodecError as exc:
                    raise ProtocolError(f"bad echo after {len(records)} echoes: {exc}") from exc
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
                sent = send_ts.get(k)
                if sent is None:
                    raise ProtocolError(f"echo of frame {k} came before the frame was sent")
                _stamp(echo_head, MessageType.ECHO, k, sent)
                # startswith is one memcmp; comparing a memoryview to bytes goes per byte
                if not all(buf.startswith(part, at) for part, at in checks):
                    raise ProtocolError(f"echo of frame {k} differs from the frame sent")
                server_recv, server_send = ECHO_TRAILER.unpack_from(buf, n - ECHO_TRAILER_SIZE)
                if server_recv > server_send:
                    raise ProtocolError(f"echo of frame {k} was sent before it was received")
                records.append(
                    RoundTripRecord(
                        frame_id=k,
                        send_ts_us=sent,
                        recv_ts_us=recv,
                        rtt_us=recv - sent,
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


def read_rtt_csv(path: str | Path, lines: Iterable[str] | None = None) -> list[RoundTripRecord]:
    """The records of a round-trip CSV; ``lines`` are its lines when open, as for ``iter_csv``.

    Only the first record's inter-arrival may be empty: it has no echo before it.
    """
    records: list[RoundTripRecord] = []

    def parse(frame_id: str, send: str, recv: str, rtt: str, gap: str) -> RoundTripRecord:
        record = RoundTripRecord(int(frame_id), int(send), int(recv), int(rtt),
                                 int(gap) if gap else None)
        if records and not gap:
            raise ValueError("inter_arrival_us is empty after the first row")
        return record

    for record in iter_csv(path, RTT_CSV_HEADER, parse, lines):
        records.append(record)
    return records
