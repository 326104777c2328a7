"""Outside-in span recording around the program's public functions.

A ``Tracer`` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and a request identifier
(the frame id, or the job name for CLI jobs).  Parents are tracked per
thread, so the sender and receiver threads of a stream, and the echo
server's connection threads, each keep their own call stack.  Spans stay
in memory until the run ends; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    request: Any = None
    extra: Any = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def as_list(self) -> list:
        return [self.span_id, self.parent_id, self.name, self.start_ns, self.end_ns,
                self.request, self.extra]


def _no_request(args, kwargs, result):
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, Callable]] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None):
        """Record a span around the block; it may set ``request``/``extra`` on the yielded dict."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        info = {"request": request, "extra": None}
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield info
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   info["request"], info["extra"]))

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        request: Callable = _no_request,
        extra: Callable = _no_request,
    ) -> None:
        """Record a span around every call to ``module.attr``.

        ``request(args, kwargs, result)`` names the request the call
        served; ``extra`` may attach one small value read from the call.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as info:
                result = original(*args, **kwargs)
                info["request"] = request(args, kwargs, result)
                info["extra"] = extra(args, kwargs, result)
                return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_ms(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus its direct children's.

    Children run on the parent's thread inside its interval, one after
    another, so their durations add up to the part of it they cover.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] = child_ns.get(s.parent_id, 0) + (s.end_ns - s.start_ns)
    return {s.span_id: (s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)) / 1e6
            for s in spans}


def frame_id_of_arg(index: int) -> Callable:
    """Request id read from the ``index``-th positional argument's frame_id."""
    return lambda args, kwargs, result: args[index].frame_id


def frame_id_of_result(args, kwargs, result):
    return None if result is None else result.frame_id


def install_stream_wrappers(tracer: Tracer, transport, protocol) -> None:
    """Wrap the codec and framing calls one side of a stream makes.

    ``transport`` calls ``read_frame``/``write_frame`` through its own
    module globals, and those call ``decode_frame``/``encode_frame``
    through the protocol module's globals, so wrapping these four
    attributes catches every call on both client and server.  Each
    decoded echo also carries the server's trailer timestamps.
    """

    def trailer(args, kwargs, result):
        if result is None or result.server_recv_ts_us is None:
            return None
        return result.server_send_ts_us - result.server_recv_ts_us

    tracer.wrap(transport, "read_frame", "read_frame", frame_id_of_result)
    tracer.wrap(transport, "write_frame", "write_frame", frame_id_of_arg(1))
    tracer.wrap(protocol, "encode_frame", "encode_frame", frame_id_of_arg(0),
                extra=lambda args, kwargs, result: None if result is None else len(result))
    tracer.wrap(protocol, "decode_frame", "decode_frame", frame_id_of_result,
                extra=trailer)


CLI_LIBRARY_CALLS = (
    "read_ear_csv",
    "detect_blinks",
    "extract_all_features",
    "read_scores_csv",
    "optimize_threshold",
    "compare_to_default",
    "simulate_session",
    "summarize_timings",
)


def install_cli_wrappers(tracer: Tracer, cli) -> None:
    """Wrap the library functions ``drowsebench.cli`` imported by name."""
    for attr in CLI_LIBRARY_CALLS:
        tracer.wrap(cli, attr, attr)
