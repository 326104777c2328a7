"""Eye-aspect-ratio blink detection and per-blink feature extraction.

The eye aspect ratio (EAR) of six eye landmarks p1..p6 is

    ear = (|p2 - p6| + |p3 - p5|) / (2 |p1 - p4|)

with p1/p4 the horizontal corners.  It is invariant under translation,
rotation and uniform scaling, sits around 0.2-0.4 for an open eye and
drops toward zero when the eye closes.  A blink is a run of consecutive
below-threshold samples; its features (amplitude, closing velocity,
duration, recent frequency) are normalized against a per-subject
baseline built from the first third of the blinks.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .report import read_csv, write_csv

EAR_CSV_HEADER = ["frame_id", "ts_us", "ear"]
FEATURES_CSV_HEADER = ["blink_id", "amplitude", "velocity", "duration_s", "freq_per_min"]

FEATURE_NAMES = ("amplitude", "velocity", "duration_s", "freq_per_min")

Point = tuple[float, float]


class DegenerateEyeError(ValueError):
    """The horizontal eye corners coincide, so the EAR is undefined."""


@dataclass(frozen=True)
class EyeLandmarks:
    """Six eye landmarks: p1/p4 horizontal corners, p2/p3 top, p5/p6 bottom."""

    p1: Point
    p2: Point
    p3: Point
    p4: Point
    p5: Point
    p6: Point

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "EyeLandmarks":
        if len(points) != 6:
            raise ValueError(f"expected 6 landmarks, got {len(points)}")
        return cls(*[(float(x), float(y)) for x, y in points])


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def eye_ear(eye: EyeLandmarks) -> float:
    """EAR of a single eye."""
    horizontal = _dist(eye.p1, eye.p4)
    if horizontal == 0.0:
        raise DegenerateEyeError("p1 and p4 coincide")
    return (_dist(eye.p2, eye.p6) + _dist(eye.p3, eye.p5)) / (2.0 * horizontal)


def ear(left: EyeLandmarks, right: EyeLandmarks) -> float:
    """Mean EAR of both eyes."""
    return (eye_ear(left) + eye_ear(right)) / 2.0


@dataclass(frozen=True)
class EarSample:
    frame_id: int
    ts_us: int
    ear: float

    def __post_init__(self):
        if not math.isfinite(self.ear) or self.ear < 0:
            raise ValueError(f"ear must be finite and non-negative, got {self.ear}")


@dataclass(frozen=True)
class Blink:
    """One detected blink, in frame ids of the source series.

    start/end are the nearest at-or-above-threshold samples bracketing
    the closed run (clamped to the series edges), apex is the earliest
    minimum-EAR frame of the run, and baseline_ear is the median EAR of
    up to 10 samples preceding start.
    """

    start_frame: int
    apex_frame: int
    end_frame: int
    min_ear: float
    baseline_ear: float


@dataclass(frozen=True)
class BlinkDetectionConfig:
    close_threshold: float = 0.2
    min_closed_frames: int = 2

    def __post_init__(self):
        if self.close_threshold <= 0:
            raise ValueError(f"close_threshold must be positive, got {self.close_threshold}")
        if self.min_closed_frames < 1:
            raise ValueError(f"min_closed_frames must be >= 1, got {self.min_closed_frames}")


def detect_blinks(
    series: Sequence[EarSample],
    config: BlinkDetectionConfig = BlinkDetectionConfig(),
) -> list[Blink]:
    """Find blinks as maximal runs of below-threshold samples.

    A run must span at least ``min_closed_frames`` samples with
    ``ear < close_threshold``.  Returned blinks are sorted and
    non-overlapping by construction.
    """
    if not series:
        raise ValueError("empty EAR series")
    values = [s.ear for s in series]
    n = len(values)

    blinks: list[Blink] = []
    i = 0
    while i < n:
        if values[i] >= config.close_threshold:
            i += 1
            continue
        j = i
        while j + 1 < n and values[j + 1] < config.close_threshold:
            j += 1
        if j - i + 1 >= config.min_closed_frames:
            start = max(i - 1, 0)
            end = min(j + 1, n - 1)
            apex = min(range(i, j + 1), key=lambda k: (values[k], k))
            min_ear = values[apex]
            preceding = values[max(0, start - 10) : start]
            baseline = statistics.median(preceding) if preceding else values[start]
            blinks.append(
                Blink(
                    start_frame=series[start].frame_id,
                    apex_frame=series[apex].frame_id,
                    end_frame=series[end].frame_id,
                    min_ear=min_ear,
                    baseline_ear=max(baseline, min_ear),
                )
            )
        i = j + 1
    return blinks


@dataclass(frozen=True)
class BlinkFeatures:
    """Per-blink features: EAR units, seconds, blinks per minute."""

    amplitude: float
    velocity: float
    duration_s: float
    freq_per_min: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.amplitude, self.velocity, self.duration_s, self.freq_per_min)


def extract_all_features(
    blinks: Sequence[Blink], series: Sequence[EarSample], fps: float
) -> list[BlinkFeatures]:
    """Features for a chronological list of blinks from one series.

    Frequency counts the blink itself plus the earlier apexes (at
    ``frame / fps`` seconds) in the trailing window ``(apex - 60 s, apex]``.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    for earlier, later in zip(blinks, blinks[1:]):
        if later.apex_frame <= earlier.apex_frame:
            raise ValueError(f"apex_frame {later.apex_frame} does not follow {earlier.apex_frame}")
    index_of = {s.frame_id: k for k, s in enumerate(series)}
    features = []
    window: deque[float] = deque()  # earlier apex times, oldest first
    for blink in blinks:
        try:
            start = index_of[blink.start_frame]
            apex = index_of[blink.apex_frame]
        except KeyError as exc:
            raise ValueError(f"blink frame {exc} not present in series") from None

        drops = [series[k].ear - series[k + 1].ear for k in range(start, apex)]
        apex_time_s = blink.apex_frame / fps
        while window and window[0] <= apex_time_s - 60.0:
            window.popleft()
        features.append(
            BlinkFeatures(
                amplitude=blink.baseline_ear - blink.min_ear,
                velocity=max(drops, default=0.0) * fps,
                duration_s=(blink.end_frame - blink.start_frame + 1) / fps,
                freq_per_min=float(len(window) + 1),
            )
        )
        window.append(apex_time_s)
    return features


@dataclass(frozen=True)
class BaselineStats:
    """Alert-phase feature statistics used for normalization.

    Built from the first third (rounded up) of the blinks, which the
    calibration protocol guarantees were recorded while alert.
    """

    mean: BlinkFeatures
    std: BlinkFeatures
    source_count: int


def baseline_stats(features: Sequence[BlinkFeatures]) -> BaselineStats:
    if not features:
        raise ValueError("no features to build a baseline from")
    head = features[: math.ceil(len(features) / 3)]
    columns = list(zip(*(f.as_tuple() for f in head)))
    means = [statistics.fmean(col) for col in columns]
    stds = [statistics.pstdev(col) for col in columns]
    return BaselineStats(
        mean=BlinkFeatures(*means), std=BlinkFeatures(*stds), source_count=len(head)
    )


@dataclass(frozen=True)
class NormalizedFeatures:
    """Z-scores of one blink's features against the alert baseline.

    Features whose baseline std is zero normalize to 0 and are listed
    in ``degenerate``.
    """

    amplitude: float
    velocity: float
    duration_s: float
    freq_per_min: float
    degenerate: tuple[str, ...] = ()


def normalize_features(features: BlinkFeatures, baseline: BaselineStats) -> NormalizedFeatures:
    scores = []
    degenerate = []
    for name, value, mean, std in zip(
        FEATURE_NAMES, features.as_tuple(), baseline.mean.as_tuple(), baseline.std.as_tuple()
    ):
        if std == 0:
            scores.append(0.0)
            degenerate.append(name)
        else:
            scores.append((value - mean) / std)
    return NormalizedFeatures(*scores, degenerate=tuple(degenerate))


def denormalize_features(normalized: NormalizedFeatures, baseline: BaselineStats) -> BlinkFeatures:
    """Inverse of normalize_features for non-degenerate baselines."""
    values = []
    for name, score, mean, std in zip(
        FEATURE_NAMES,
        (normalized.amplitude, normalized.velocity, normalized.duration_s,
         normalized.freq_per_min),
        baseline.mean.as_tuple(),
        baseline.std.as_tuple(),
    ):
        if name in normalized.degenerate:
            values.append(mean)
        else:
            values.append(mean + score * std)
    return BlinkFeatures(*values)


def write_ear_csv(series: Iterable[EarSample], path: str | Path) -> None:
    write_csv(path, EAR_CSV_HEADER, ((s.frame_id, s.ts_us, s.ear) for s in series))


def read_ear_csv(path: str | Path) -> list[EarSample]:
    """EAR samples of a CSV file; ``frame_id`` must increase from row to row."""
    last_frame_id = None

    def parse(frame_id: str, ts_us: str, ear: str) -> EarSample:
        nonlocal last_frame_id
        sample = EarSample(int(frame_id), int(ts_us), float(ear))
        if last_frame_id is not None and sample.frame_id <= last_frame_id:
            raise ValueError(f"frame_id {sample.frame_id} does not follow {last_frame_id}")
        last_frame_id = sample.frame_id
        return sample

    return read_csv(path, EAR_CSV_HEADER, parse)


def write_features_csv(features: Iterable[BlinkFeatures], path: str | Path) -> None:
    write_csv(path, FEATURES_CSV_HEADER, ((i, *f.as_tuple()) for i, f in enumerate(features)))
