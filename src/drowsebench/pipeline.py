"""Frame-processing pipeline simulator and queue-stability analysis.

A frame passes through three stages in fixed order: face detection,
landmark detection, blink detection.  Each frame is timestamped when
processing starts and after each stage, which is all the
instrumentation needed to recover per-stage durations.

``simulate_session`` feeds one worker at a fixed frame rate and serves
frames first in, first out.  Frame k arrives at ``a_k = k / fps``; its
service starts at ``s_k = max(a_k, d_{k-1})`` (Lindley's recursion for
a single-server queue) and ends at ``d_k = s_k + face + landmark +
blink``, each stage time drawn from its profile.  Time is computed, not
measured, so a multi-minute session simulates in milliseconds and is
exactly reproducible from its seed.

The simulator builds no per-frame object.  It draws every Gaussian
stage time in one batch, with the Box-Muller pairs ``random.gauss``
forms, so the draws equal sequential ``gauss`` calls; it runs the
recursion over plain lists and keeps the four timestamp columns in the
``SessionTrace``.

A frame's timings take one form past the trace: four duration columns
in ms (face, landmark, blink, total), entry k for frame k.
``SessionTrace.durations_ms()`` computes them from the timestamps,
``write_timings_csv`` writes them with a frame id, ``read_timings_csv``
reads them back, and ``summarize_timings`` is the one summary of them:
the mean and the population standard deviation of each column
(``report.pstdev``, correctly rounded; on Python 3.11+ it equals
``statistics.pstdev``).
"""

from __future__ import annotations

import json
import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .report import iter_csv, pstdev, write_csv

TIMING_CSV_HEADER = ["frame_id", "face_ms", "landmark_ms", "blink_ms", "total_ms"]


class StageName(str, Enum):
    FACE = "face"
    LANDMARK = "landmark"
    BLINK = "blink"


STAGE_ORDER = (StageName.FACE, StageName.LANDMARK, StageName.BLINK)


class Distribution(str, Enum):
    DETERMINISTIC = "deterministic"
    TRUNC_NORMAL = "trunc_normal"


@dataclass(frozen=True)
class StageProfile:
    """Service-time distribution of one synthetic stage, in milliseconds.

    ``mean_ms``/``std_ms`` are the moments of the sampled distribution
    itself, so long-run averages converge to ``mean_ms`` exactly.
    ``name`` and ``dist`` may be given as their string values.
    """

    name: StageName
    mean_ms: float
    std_ms: float = 0.0
    dist: Distribution = Distribution.TRUNC_NORMAL

    def __post_init__(self):
        object.__setattr__(self, "name", StageName(self.name))
        object.__setattr__(self, "dist", Distribution(self.dist))
        if not math.isfinite(self.mean_ms) or self.mean_ms <= 0:
            raise ValueError(
                f"stage {self.name.value}: mean_ms must be positive and finite, got {self.mean_ms}"
            )
        if not math.isfinite(self.std_ms) or self.std_ms < 0:
            raise ValueError(
                f"stage {self.name.value}: std_ms must be non-negative and finite, "
                f"got {self.std_ms}"
            )
        if self.dist is Distribution.DETERMINISTIC and self.std_ms != 0:
            raise ValueError(
                f"stage {self.name.value}: a deterministic stage needs std_ms 0, got {self.std_ms}"
            )


def clamped_normal_moments(a: float, b: float) -> tuple[float, float]:
    """Mean and std of max(N(a, b^2), 0)."""
    if b == 0 or a > 8.0 * b:
        # clamping moves neither moment by 1e-13 relative here, and the
        # closed form below would lose a narrow std to cancellation
        return max(a, 0.0), b
    alpha = a / b
    cdf = 0.5 * (1.0 + math.erf(alpha / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
    mean = a * cdf + b * pdf
    second = (a * a + b * b) * cdf + a * b * pdf
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def clamped_normal_params(mean: float, std: float) -> tuple[float, float]:
    """Gaussian (a, b) such that max(N(a, b^2), 0) has the given moments.

    Clamping negative draws to zero shifts the moments when std is large
    relative to mean, so the underlying Gaussian is solved for rather
    than used as-is; when mean >= 8 * std the answer is (mean, std).
    Otherwise alpha = a / b is bisected on [-4, 8] until the std/mean
    ratio of ``clamped_normal_moments(alpha, 1.0)`` matches std / mean,
    and b scales that unit-width mean onto ``mean``.  A std / mean at or
    above the ratio at alpha = -4 raises ValueError.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0 or mean / std >= 8.0:
        return mean, std

    target = std / mean

    def ratio(alpha: float) -> float:
        m, s = clamped_normal_moments(alpha, 1.0)
        return s / m

    lo, hi = -4.0, 8.0
    if target >= ratio(lo):
        raise ValueError(f"std/mean ratio {target:.3f} too large for a clamped normal")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ratio(mid) > target:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    b = mean / clamped_normal_moments(alpha, 1.0)[0]
    return alpha * b, b


def _in_stage_order(profiles: Iterable[StageProfile]) -> list[StageProfile]:
    """The set as ``[face, landmark, blink]``; each must appear once."""
    profiles = list(profiles)
    by_name = {p.name: p for p in profiles}
    missing = [name.value for name in STAGE_ORDER if name not in by_name]
    if missing:
        raise ValueError(f"missing stages: {', '.join(missing)}")
    if len(profiles) != len(STAGE_ORDER):
        names = ", ".join(p.name.value for p in profiles)
        raise ValueError(f"stage set must define face, landmark and blink once each: {names}")
    return [by_name[name] for name in STAGE_ORDER]


def _normal_draws(rng: random.Random, count: int) -> list[float]:
    """``count`` standard normal draws, equal to as many ``rng.gauss(0.0, 1.0)`` calls.

    Forms the Box-Muller pairs exactly as ``random.gauss`` does (cos
    first, then sin) from ``2 * ceil(count / 2)`` ``rng.random()``
    values.  ``rng`` must hold no pending ``gauss`` draw; a fresh
    ``random.Random(seed)`` holds none.
    """
    rand = rng.random
    cos, sin, log, sqrt, tau = math.cos, math.sin, math.log, math.sqrt, math.tau
    draws: list[float] = []
    extend = draws.extend
    for _ in range((count + 1) // 2):
        x2pi = rand() * tau
        g2rad = sqrt(-2.0 * log(1.0 - rand()))
        extend((cos(x2pi) * g2rad, sin(x2pi) * g2rad))
    del draws[count:]
    return draws


def _stage_columns(
    profiles: list[StageProfile], n_frames: int, rng: random.Random
) -> list[Iterable[float]]:
    """Per-stage service times (microseconds) of ``n_frames`` frames.

    Matches drawing ``max(0.0, rng.gauss(a, b))`` for each Gaussian stage
    in turn, frame by frame; a deterministic stage draws nothing.
    """
    drawing = [p for p in profiles if p.dist is not Distribution.DETERMINISTIC]
    draws = _normal_draws(rng, n_frames * len(drawing))
    drawn = {}
    for slot, profile in enumerate(drawing):
        a, b = clamped_normal_params(profile.mean_ms, profile.std_ms)
        # (v if v > 0.0 else 0.0) is max(0.0, v) without the call
        drawn[profile] = [
            (v if (v := a + x * b) > 0.0 else 0.0) * 1000.0 for x in draws[slot :: len(drawing)]
        ]
    return [drawn[p] if p in drawn else repeat(p.mean_ms * 1000.0, n_frames) for p in profiles]


@dataclass(frozen=True)
class StatPair:
    mean_ms: float
    std_ms: float


@dataclass(frozen=True)
class TimingSummary:
    count: int
    face: StatPair
    landmark: StatPair
    blink: StatPair
    total: StatPair


def _durations_ms(begin: Iterable[float], end: Iterable[float]) -> list[float]:
    return [(e - b) / 1000.0 for b, e in zip(begin, end, strict=True)]


def summarize_timings(durations: Sequence[Sequence[float]]) -> TimingSummary:
    """Mean and population standard deviation (``report.pstdev``) of each duration column.

    ``durations`` holds the face, landmark, blink and total columns in
    ms, as ``SessionTrace.durations_ms()`` returns them and as the last
    four columns of ``read_timings_csv``.  Columns of unequal length
    raise ``ValueError``.
    """
    count = len(durations[0])
    if any(len(column) != count for column in durations):
        raise ValueError(f"duration columns differ in length: {[len(c) for c in durations]}")
    if not count:
        raise ValueError("no records to summarize")
    face, landmark, blink, total = (
        StatPair(statistics.fmean(column), pstdev(column)) for column in durations
    )
    return TimingSummary(count, face, landmark, blink, total)


@dataclass(frozen=True)
class StabilityVerdict:
    """Whether a stage set keeps up with the frame rate.

    The queue is stable when the mean service time is shorter than the
    frame period, i.e. utilisation is below 1.  Above 1 the backlog
    grows at ``fps - 1000 / mean`` frames per second.  At exactly 1 the
    growth rate is 0 but the queue is not stable: with any spread in
    service time the backlog is null-recurrent and wanders like the
    square root of the frame count.
    """

    stable: bool
    backlog_growth_rate: float
    service_ms: float
    budget_ms: float


def queue_stability(profiles: Iterable[StageProfile], fps: float) -> StabilityVerdict:
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    service_ms = sum(p.mean_ms for p in _in_stage_order(profiles))
    budget_ms = 1000.0 / fps
    growth = max(0.0, fps - 1000.0 / service_ms)
    return StabilityVerdict(
        stable=service_ms < budget_ms,
        backlog_growth_rate=growth,
        service_ms=service_ms,
        budget_ms=budget_ms,
    )


@dataclass(frozen=True)
class SessionTrace:
    """Outcome of a simulated fixed-rate session.

    Columns cover every arrived frame, including ones still queued when
    the session clock ran out; ``completed``/``backlog`` split them at
    the session end.  Entry k of each ``*_ts_us`` column is a timestamp
    of frame k in microseconds: ``recv_ts_us`` when processing starts,
    and each ``*_done_ts_us`` right after its stage.
    ``queue_length_at_arrival[k]`` counts frames still in the system
    (queued or in service) when frame k arrived.
    """

    fps: float
    duration_s: float
    recv_ts_us: tuple[float, ...]
    face_done_ts_us: tuple[float, ...]
    landmark_done_ts_us: tuple[float, ...]
    blink_done_ts_us: tuple[float, ...]
    queue_length_at_arrival: tuple[int, ...]

    def durations_ms(self) -> list[list[float]]:
        """The face, landmark, blink and total duration columns in ms."""
        recv, face = self.recv_ts_us, self.face_done_ts_us
        landmark, blink = self.landmark_done_ts_us, self.blink_done_ts_us
        return [
            _durations_ms(recv, face),
            _durations_ms(face, landmark),
            _durations_ms(landmark, blink),
            _durations_ms(recv, blink),
        ]

    @property
    def arrived(self) -> int:
        return len(self.recv_ts_us)

    @property
    def completed(self) -> int:
        # FIFO service: completion times never decrease
        return bisect_right(self.blink_done_ts_us, self.duration_s * 1e6)

    @property
    def backlog(self) -> int:
        return self.arrived - self.completed

    @property
    def max_queue_length(self) -> int:
        return max(self.queue_length_at_arrival, default=0)


def simulate_session(
    fps: float,
    duration_s: float,
    profiles: Iterable[StageProfile],
    seed: int,
) -> SessionTrace:
    """Simulate a single-worker FIFO pipeline fed at ``fps`` for ``duration_s``.

    Frames arrive every 1/fps and are served in order by one worker
    running the three stages, each stage time drawn from its profile in
    the order face, landmark, blink from one ``random.Random(seed)``.
    The same seed always yields the same trace.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
    stages = _in_stage_order(profiles)
    n_frames = round(fps * duration_s)
    face, landmark, blink = _stage_columns(stages, n_frames, random.Random(seed))
    period_us = 1e6 / fps
    recv: list[float] = []
    face_done: list[float] = []
    landmark_done: list[float] = []
    blink_done: list[float] = []
    queue_lengths: list[int] = []
    finished = 0  # frames whose service ended at or before the current arrival
    done_us = 0.0
    for k, face_us, landmark_us, blink_us in zip(range(n_frames), face, landmark, blink):
        arrival_us = k * period_us
        while finished < k and blink_done[finished] <= arrival_us:
            finished += 1
        queue_lengths.append(k - finished)
        # chain the stage timestamps: summing the three samples first would
        # round differently and change seeded traces
        start_us = done_us if done_us > arrival_us else arrival_us  # max(arrival_us, done_us)
        face_end = start_us + face_us
        landmark_end = face_end + landmark_us
        done_us = landmark_end + blink_us
        recv.append(start_us)
        face_done.append(face_end)
        landmark_done.append(landmark_end)
        blink_done.append(done_us)

    return SessionTrace(
        fps=fps,
        duration_s=duration_s,
        recv_ts_us=tuple(recv),
        face_done_ts_us=tuple(face_done),
        landmark_done_ts_us=tuple(landmark_done),
        blink_done_ts_us=tuple(blink_done),
        queue_length_at_arrival=tuple(queue_lengths),
    )


def load_stage_sets(path: str | Path) -> dict[str, list[StageProfile]]:
    """Load stage profiles from a JSON file.

    Accepts either a single stage set ``{"stages": [...]}`` (returned
    under the key "default") or a device file mapping resolutions to
    stage sets: ``{"device": ..., "resolutions": {"320x240": {"stages":
    [...]}, ...}}``.  Each set comes back in face, landmark, blink order;
    a stage time is a JSON number, never a bool or a string.
    """
    def parse_stage(entry: dict) -> StageProfile:
        name = StageName(entry["name"])
        mean_ms, std_ms = entry["mean_ms"], entry.get("std_ms", 0.0)
        for key, value in (("mean_ms", mean_ms), ("std_ms", std_ms)):
            if type(value) not in (int, float):  # not isinstance(): a bool is an int
                raise ValueError(
                    f"stage {name.value}: {key} must be a JSON number, got {json.dumps(value)}")
        return StageProfile(name, float(mean_ms), float(std_ms), entry.get("dist", "trunc_normal"))

    def parse_set(obj) -> list[StageProfile]:
        if not all(isinstance(entry, dict) for entry in obj["stages"]):
            raise ValueError("every stage entry must be a JSON object")
        return _in_stage_order(map(parse_stage, obj["stages"]))

    try:
        with open(path) as fh:
            doc = json.load(fh)
        if "stages" in doc:
            return {"default": parse_set(doc)}
        if "resolutions" in doc:
            return {res: parse_set(obj) for res, obj in doc["resolutions"].items()}
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: expected a 'stages' or 'resolutions' key")


def average_stage_set(stage_sets: Mapping[str, list[StageProfile]]) -> list[StageProfile]:
    """Per-stage average of several stage sets (mean of means and of stds)."""
    if not stage_sets:
        raise ValueError("no stage sets to average")
    return [
        StageProfile(
            name=rows[0].name,
            mean_ms=statistics.fmean(p.mean_ms for p in rows),
            std_ms=statistics.fmean(p.std_ms for p in rows),
            dist=(
                Distribution.DETERMINISTIC
                if all(p.dist is Distribution.DETERMINISTIC for p in rows)
                else Distribution.TRUNC_NORMAL
            ),
        )
        for rows in zip(*map(_in_stage_order, stage_sets.values()))
    ]


def write_timings_csv(durations: Sequence[Sequence[float]], path: str | Path) -> None:
    """Export the four duration columns in ms, each row after its frame id 0, 1, ..."""
    write_csv(path, TIMING_CSV_HEADER, zip(range(len(durations[0])), *durations, strict=True))


def read_timings_csv(path: str | Path, lines: Iterable[str] | None = None) -> list[list]:
    """The five columns of ``TIMING_CSV_HEADER`` in a CSV file; every duration must be finite.

    ``lines`` are the file's lines when it is already open, as for ``iter_csv``.
    """

    def parse(frame_id: str, *durations: str) -> list:
        row = [int(frame_id)]
        for name, text in zip(TIMING_CSV_HEADER[1:], durations):
            row.append(float(text))
            if not math.isfinite(row[-1]):
                raise ValueError(f"{name} must be finite, got {row[-1]}")
        return row

    columns: list[list] = [[] for _ in TIMING_CSV_HEADER]
    for row in iter_csv(path, TIMING_CSV_HEADER, parse, lines):
        for column, value in zip(columns, row):
            column.append(value)
    return columns
