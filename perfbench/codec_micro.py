"""Isolated microbenchmark of ``encode_frame``/``decode_frame``.

Times single calls at the paper's resolutions, from a header-only frame
to 1920x1080 RGB24, and reports the median microseconds per call and the
wire megabytes per second that implies.  The empty frame shows the
per-message cost; the large ones show the per-byte cost.
"""

from __future__ import annotations

import time

from common import median

RESOLUTIONS = (("empty", 1280, 720, False), ("320x240", 320, 240, True),
               ("1280x720", 1280, 720, True), ("1920x1080", 1920, 1080, True))
BUDGET_S = 0.25
MIN_CALLS = 20


def _time_calls(fn, arg) -> list[float]:
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        fn(arg)
        times.append((time.perf_counter_ns() - start) / 1000)
    return times


def codec_micro() -> dict[str, dict]:
    """``{label: {"ok", "bytes", "encode_us", "decode_us", "encode_MBps", "decode_MBps"}}``.

    ``ok`` is whether ``decode_frame(encode_frame(msg)) == msg``.
    """
    from drowsebench.protocol import (FrameMessage, MessageType, PixelFormat, decode_frame,
                                      encode_frame, expected_payload_len)

    results = {}
    for label, width, height, rgb24 in RESOLUTIONS:
        pixel_format = PixelFormat.RGB24 if rgb24 else PixelFormat.EMPTY
        payload = bytes(range(256)) * (expected_payload_len(pixel_format, width, height) // 256)
        msg = FrameMessage(MessageType.FRAME, 1, 0, width, height, pixel_format, payload)
        wire = encode_frame(msg)
        ok = decode_frame(wire) == msg
        enc = median(_time_calls(encode_frame, msg))
        dec = median(_time_calls(decode_frame, wire))
        results[label] = {"ok": ok, "bytes": len(wire), "encode_us": enc, "decode_us": dec,
                          "encode_MBps": len(wire) / enc, "decode_MBps": len(wire) / dec}
    return results
