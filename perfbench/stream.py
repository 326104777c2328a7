"""Open-loop loopback stream workloads: ``stream-720p`` and ``stream-empty``.

The server is a separate ``drowsebench echo-server`` process on
127.0.0.1; the client is ``drowsebench.transport.stream_and_measure`` in
this process.  All traffic crosses the host loopback, never a real link.

Frame k is *due* at ``t0 + k / fps``.  ``stream_and_measure`` does not
expose its ``t0``, so it is estimated from outside as
``min_k(send_ts_k - k / fps)``.  The estimate treats the least-late frame
as exactly on time, so every due-time figure is understated by that
frame's true lateness (one pacing nap, about 0.1 ms, plus scheduling
delay).  Latency is then ``recv_ts_k - due_k``: unlike the program's own
``rtt_us``, which starts at the actual send, it counts the time a
generator stall adds to later frames.

On a shared virtual machine the hypervisor steals the benchmark's CPU in
bursts, and a burst can lengthen a session's median latency by a third
(see ``common.stolen_s``).  The gated latency is therefore net of steal:
a thread samples the CPU's stolen time every ``STEAL_SAMPLE_S``, and each
frame's latency is scaled by the share of its sampling window that was
not stolen.  The wall-clock figures are printed beside it.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import (BENCH_DIR, ROOT, WORK, BenchError, child_env, median, percentile,
                    stolen_s)
from tracing import Span, Tracer, install_stream_wrappers, self_ms

HOST = "127.0.0.1"
WARMUP_S = 1.0
SETUP_REPEATS = 9
START_TIMEOUT_S = 30.0
STEAL_SAMPLE_S = 0.1


@dataclass(frozen=True)
class StreamSpec:
    width: int
    height: int
    rgb24: bool
    fps: float


STREAMS = {
    "stream-720p": StreamSpec(1280, 720, True, 30.0),
    "stream-empty": StreamSpec(1280, 720, False, 250.0),
}


def _default_sigint() -> None:
    # A shell that starts the benchmark in the background makes it ignore
    # SIGINT, and children inherit that; SIGINT is how a server is stopped.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """One echo-server child; started on entry, SIGINT-ed and reaped on exit."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), text=True, preexec_fn=_default_sigint,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        prefix = "echo server listening on "
        if not line.startswith(prefix):
            self.stop()
            raise BenchError(f"echo server did not start: {line!r}")
        self.port = int(line[len(prefix):].strip().rpartition(":")[2])
        return self

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __exit__(self, *exc) -> None:
        self.stop()


def plain_server() -> ServerProcess:
    return ServerProcess([sys.executable, "-m", "drowsebench", "echo-server",
                          "--listen", f"{HOST}:0"])


def traced_server(spans_path) -> ServerProcess:
    return ServerProcess([sys.executable, str(BENCH_DIR / "traced_server.py"),
                          str(spans_path)])


def children_cpu_s() -> float:
    """CPU seconds of every reaped child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning echo-server to its listening line plus a first connect.

    Each time is net of the CPU time the hypervisor stole meanwhile.  Also
    returns each of these servers' whole-life CPU seconds: start-up, one
    connection and shutdown, without serving a frame.
    """
    times, cpu = [], []
    for _ in range(SETUP_REPEATS):
        cpu_before = children_cpu_s()
        stolen = stolen_s()
        start = time.perf_counter()
        with plain_server() as server:
            socket.create_connection((HOST, server.port), timeout=START_TIMEOUT_S).close()
            times.append(time.perf_counter() - start - (stolen_s() - stolen))
        cpu.append(children_cpu_s() - cpu_before)
    return times, cpu


class StealSampler:
    """Samples this process's CPU's stolen time on a thread, every ``STEAL_SAMPLE_S``."""

    def __init__(self, clock_us):
        self.clock_us = clock_us
        self.times_us: list[int] = []
        self.stolen: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="steal-sampler", daemon=True)

    def _sample(self) -> None:
        self.times_us.append(self.clock_us())
        self.stolen.append(stolen_s())

    def _run(self) -> None:
        while not self._stop.wait(STEAL_SAMPLE_S):
            self._sample()

    def __enter__(self) -> "StealSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def share(self, t_us: float) -> float:
        """Stolen share of the sampling window that holds ``t_us``."""
        i = min(max(bisect.bisect_right(self.times_us, t_us), 1), len(self.times_us) - 1)
        span_s = (self.times_us[i] - self.times_us[i - 1]) / 1e6
        return min(1.0, (self.stolen[i] - self.stolen[i - 1]) / span_s) if span_s > 0 else 0.0

    def total_share(self) -> float:
        span_s = (self.times_us[-1] - self.times_us[0]) / 1e6
        return (self.stolen[-1] - self.stolen[0]) / span_s if span_s > 0 else 0.0


@dataclass
class StreamRun:
    attempted: int
    failed: int
    error: str | None = None
    latency_ms: list[float] = field(default_factory=list)
    net_latency_ms: list[float] = field(default_factory=list)
    stolen_share: float = 0.0
    rtt_ms: list[float] = field(default_factory=list)
    send_late_ms: list[float] = field(default_factory=list)
    frames_sent_late: int = 0
    warmup: int = 0


def stream_once(spec: StreamSpec, seconds: float, port: int) -> StreamRun:
    """Stream one session and check every echo came back in order and intact.

    ``stream_and_measure`` verifies order and payload CRC itself and
    raises ``ProtocolError`` on the first violation; the frames of a
    session that raised count as failed, since its records are lost.
    """
    from drowsebench.protocol import PixelFormat
    from drowsebench.transport import ProtocolError, monotonic_us, stream_and_measure

    warmup = round(spec.fps * WARMUP_S)
    n = warmup + round(spec.fps * seconds)
    pixel_format = PixelFormat.RGB24 if spec.rgb24 else PixelFormat.EMPTY
    try:
        with StealSampler(monotonic_us) as steal:
            records = stream_and_measure(HOST, port, spec.fps, n, spec.width, spec.height,
                                         pixel_format)
    except (ProtocolError, OSError) as exc:
        return StreamRun(attempted=n, failed=n, error=str(exc))
    if [r.frame_id for r in records] != list(range(n)):
        return StreamRun(attempted=n, failed=n, error="echoes missing or out of order")

    period_us = 1e6 / spec.fps
    t0 = min(r.send_ts_us - k * period_us for k, r in enumerate(records))
    run = StreamRun(attempted=n, failed=0, warmup=warmup, stolen_share=steal.total_share())
    for k, r in enumerate(records):
        due = t0 + k * period_us
        late = (r.send_ts_us - due) / 1000
        run.frames_sent_late += late > period_us / 1000
        if k >= warmup:
            latency = (r.recv_ts_us - due) / 1000
            run.latency_ms.append(latency)
            run.net_latency_ms.append(latency * (1 - steal.share(due)))
            run.rtt_ms.append(r.rtt_us / 1000)
            run.send_late_ms.append(late)
    return run


def run_untraced(spec: StreamSpec, seconds: float) -> tuple[StreamRun, float, float]:
    """One session against a fresh server; also returns client and server CPU seconds.

    The client figure covers the session only; the server figure covers
    its whole life, start-up and shutdown included.
    """
    server_before = children_cpu_s()
    with plain_server() as server:
        client_before = time.process_time()
        run = stream_once(spec, seconds, server.port)
        client_cpu = time.process_time() - client_before
    return run, client_cpu, children_cpu_s() - server_before


def _p50(values) -> float:
    return median(values) if values else 0.0


def _side_metrics(spans: list[Span], side: str, first_frame: int) -> dict[str, float]:
    own = self_ms(spans)
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    for s in spans:
        if s.request is None or s.request < first_frame:
            continue
        by_name.setdefault(s.name, []).append(s.ms)
        self_by_name.setdefault(s.name, []).append(own[s.span_id])
    return {
        f"protocol.{side}_encode_ms": _p50(by_name.get("encode_frame", [])),
        f"protocol.{side}_decode_ms": _p50(by_name.get("decode_frame", [])),
        f"transport.{side}_write_ms": _p50(self_by_name.get("write_frame", [])),
        f"transport.{side}_read_wait_ms": _p50(self_by_name.get("read_frame", [])),
    }


def run_traced(spec: StreamSpec, seconds: float) -> tuple[StreamRun, dict[str, float]]:
    """One traced session: spans on both client and server.

    Returns the run and the stream per-layer metrics.
    """
    from drowsebench import protocol, transport

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"server-spans-{os.getpid()}.json"
    tracer = Tracer()
    try:
        with traced_server(spans_path) as server:
            install_stream_wrappers(tracer, transport, protocol)
            try:
                run = stream_once(spec, seconds, server.port)
            finally:
                tracer.uninstall()
        with open(spans_path) as fh:
            server_spans = [Span(*row) for row in json.load(fh)]
    except (OSError, ValueError) as exc:
        raise BenchError(f"traced echo server left no spans: {exc}") from exc
    finally:
        spans_path.unlink(missing_ok=True)

    first = run.warmup
    client = tracer.spans
    metrics = {}
    metrics.update(_side_metrics(client, "client", first))
    metrics.update(_side_metrics(server_spans, "server", first))
    dwell_us = [s.extra for s in client
                if s.name == "decode_frame" and s.extra is not None and s.request >= first]
    metrics.update({
        "transport.rtt_p50_ms": _p50(run.rtt_ms),
        "transport.rtt_p95_ms": percentile(run.rtt_ms, 95) if run.rtt_ms else 0.0,
        "transport.send_late_p50_ms": _p50(run.send_late_ms),
        "transport.send_late_p95_ms": percentile(run.send_late_ms, 95) if run.send_late_ms else 0.0,
        "transport.send_late_max_ms": max(run.send_late_ms, default=0.0),
        "transport.trailer_dwell_ms": _p50(dwell_us) / 1000,
        "transport.frames_attempted": run.attempted,
        "transport.frames_echoed": run.attempted - run.failed,
        "transport.frames_failed": run.failed,
        "transport.frames_sent_late": run.frames_sent_late,
        "transport.bytes_sent": sum(s.extra or 0 for s in client if s.name == "encode_frame"),
        "transport.bytes_received": sum(s.extra or 0 for s in server_spans
                                        if s.name == "encode_frame"),
        "trace.spans": len(client) + len(server_spans),
    })
    return run, metrics
