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
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .report import read_csv, write_csv

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
    """

    name: StageName
    mean_ms: float
    std_ms: float = 0.0
    dist: Distribution = Distribution.TRUNC_NORMAL

    def __post_init__(self):
        if not math.isfinite(self.mean_ms) or self.mean_ms <= 0:
            raise ValueError(
                f"stage {self.name}: mean_ms must be positive and finite, got {self.mean_ms}"
            )
        if not math.isfinite(self.std_ms) or self.std_ms < 0:
            raise ValueError(
                f"stage {self.name}: std_ms must be non-negative and finite, got {self.std_ms}"
            )


@dataclass(frozen=True)
class TimingRecord:
    """Timestamps (microseconds) of one frame's trip through the stages.

    ``recv_ts_us`` is taken when processing starts; each ``*_done``
    timestamp is taken right after its stage.
    """

    frame_id: int
    recv_ts_us: float
    face_done_ts_us: float
    landmark_done_ts_us: float
    blink_done_ts_us: float

    @property
    def face_ms(self) -> float:
        return (self.face_done_ts_us - self.recv_ts_us) / 1000.0

    @property
    def landmark_ms(self) -> float:
        return (self.landmark_done_ts_us - self.face_done_ts_us) / 1000.0

    @property
    def blink_ms(self) -> float:
        return (self.blink_done_ts_us - self.landmark_done_ts_us) / 1000.0

    @property
    def total_ms(self) -> float:
        return (self.blink_done_ts_us - self.recv_ts_us) / 1000.0


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clamped_normal_moments(a: float, b: float) -> tuple[float, float]:
    """Mean and std of max(N(a, b^2), 0)."""
    if b == 0:
        m = max(a, 0.0)
        return m, 0.0
    alpha = a / b
    mean = a * _norm_cdf(alpha) + b * _norm_pdf(alpha)
    second = (a * a + b * b) * _norm_cdf(alpha) + a * b * _norm_pdf(alpha)
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def clamped_normal_params(mean: float, std: float) -> tuple[float, float]:
    """Gaussian (a, b) such that max(N(a, b^2), 0) has the given moments.

    Clamping negative draws to zero shifts the moments when std is large
    relative to mean, so the underlying Gaussian is solved for rather
    than used as-is; with std << mean the answer is (mean, std).
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0 or mean / std >= 8.0:
        return mean, std

    target = std / mean

    def ratio(alpha: float) -> float:
        g = alpha * _norm_cdf(alpha) + _norm_pdf(alpha)
        m2 = (alpha * alpha + 1.0) * _norm_cdf(alpha) + alpha * _norm_pdf(alpha)
        return math.sqrt(max(m2 - g * g, 0.0)) / g

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
    b = mean / (alpha * _norm_cdf(alpha) + _norm_pdf(alpha))
    return alpha * b, b


def _stage_map(profiles: Iterable[StageProfile]) -> dict[StageName, StageProfile]:
    """Profiles keyed by stage; face, landmark and blink must appear once each."""
    profiles = list(profiles)
    by_name = {p.name: p for p in profiles}
    missing = [name.value for name in STAGE_ORDER if name not in by_name]
    if missing:
        raise ValueError(f"missing stages: {', '.join(missing)}")
    if len(profiles) != len(STAGE_ORDER):
        names = ", ".join(p.name.value for p in profiles)
        raise ValueError(f"stage set must define face, landmark and blink once each: {names}")
    return by_name


def make_sampler(profile: StageProfile, rng: random.Random) -> Callable[[], float]:
    """Service-time sampler (milliseconds) for one stage profile."""
    if profile.dist is Distribution.DETERMINISTIC:
        return lambda: profile.mean_ms
    a, b = clamped_normal_params(profile.mean_ms, profile.std_ms)
    return lambda: max(0.0, rng.gauss(a, b))


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


def summarize_timings(records: Iterable[TimingRecord]) -> TimingSummary:
    """Per-stage and total duration statistics."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")

    def stat(values: list[float]) -> StatPair:
        return StatPair(statistics.fmean(values), statistics.pstdev(values))

    return TimingSummary(
        count=len(records),
        face=stat([r.face_ms for r in records]),
        landmark=stat([r.landmark_ms for r in records]),
        blink=stat([r.blink_ms for r in records]),
        total=stat([r.total_ms for r in records]),
    )


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
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    service_ms = sum(p.mean_ms for p in _stage_map(profiles).values())
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

    Records cover every arrived frame, including ones still queued when
    the session clock ran out; ``completed``/``backlog`` split them at
    the session end.  ``queue_length_at_arrival[k]`` counts frames still
    in the system (queued or in service) when frame k arrived.
    """

    fps: float
    duration_s: float
    records: tuple[TimingRecord, ...]
    queue_length_at_arrival: tuple[int, ...]

    @property
    def arrived(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        end_us = self.duration_s * 1e6
        return sum(1 for r in self.records if r.blink_done_ts_us <= end_us)

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
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    by_name = _stage_map(profiles)
    rng = random.Random(seed)
    face, landmark, blink = (make_sampler(by_name[name], rng) for name in STAGE_ORDER)
    n_frames = round(fps * duration_s)
    period_us = 1e6 / fps
    records: list[TimingRecord] = []
    queue_lengths: list[int] = []
    finished = 0  # frames whose service ended at or before the current arrival
    done_us = 0.0
    for k in range(n_frames):
        arrival_us = k * period_us
        while finished < k and records[finished].blink_done_ts_us <= arrival_us:
            finished += 1
        queue_lengths.append(k - finished)
        # chain the stage timestamps: summing the three samples first would
        # round differently and change seeded traces
        start_us = max(arrival_us, done_us)
        face_us = start_us + face() * 1000.0
        landmark_us = face_us + landmark() * 1000.0
        done_us = landmark_us + blink() * 1000.0
        records.append(TimingRecord(k, start_us, face_us, landmark_us, done_us))

    return SessionTrace(
        fps=fps,
        duration_s=duration_s,
        records=tuple(records),
        queue_length_at_arrival=tuple(queue_lengths),
    )


def load_stage_sets(path: str | Path) -> dict[str, list[StageProfile]]:
    """Load stage profiles from a JSON file.

    Accepts either a single stage set ``{"stages": [...]}`` (returned
    under the key "default") or a device file mapping resolutions to
    stage sets: ``{"device": ..., "resolutions": {"320x240": {"stages":
    [...]}, ...}}``.
    """
    def parse_set(obj) -> list[StageProfile]:
        if not all(isinstance(entry, dict) for entry in obj["stages"]):
            raise ValueError("every stage entry must be a JSON object")
        profiles = [
            StageProfile(
                name=StageName(entry["name"]),
                mean_ms=float(entry["mean_ms"]),
                std_ms=float(entry.get("std_ms", 0.0)),
                dist=Distribution(entry.get("dist", "trunc_normal")),
            )
            for entry in obj["stages"]
        ]
        _stage_map(profiles)
        return profiles

    try:
        with open(path) as fh:
            doc = json.load(fh)
        if "stages" in doc:
            return {"default": parse_set(doc)}
        if "resolutions" in doc:
            return {res: parse_set(obj) for res, obj in doc["resolutions"].items()}
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: expected a 'stages' or 'resolutions' key")


def average_stage_set(stage_sets: Mapping[str, list[StageProfile]]) -> list[StageProfile]:
    """Per-stage average of several stage sets (mean of means and of stds)."""
    if not stage_sets:
        raise ValueError("no stage sets to average")
    sets = list(stage_sets.values())
    averaged = []
    for name in STAGE_ORDER:
        rows = [_stage_map(s)[name] for s in sets]
        averaged.append(
            StageProfile(
                name=name,
                mean_ms=statistics.fmean(p.mean_ms for p in rows),
                std_ms=statistics.fmean(p.std_ms for p in rows),
                dist=rows[0].dist,
            )
        )
    return averaged


def write_timings_csv(records: Iterable[TimingRecord], path: str | Path) -> None:
    """Export per-frame stage durations."""
    write_csv(
        path,
        TIMING_CSV_HEADER,
        ((r.frame_id, r.face_ms, r.landmark_ms, r.blink_ms, r.total_ms) for r in records),
    )


def read_timings_csv(path: str | Path) -> list[dict[str, float]]:
    return read_csv(
        path,
        TIMING_CSV_HEADER,
        lambda frame_id, *ms: dict(zip(TIMING_CSV_HEADER, (int(frame_id), *map(float, ms)))),
    )
