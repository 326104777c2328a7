"""Eye-aspect-ratio blink detection and per-blink feature extraction.

The ``ear`` column of an EAR CSV is the eye aspect ratio of six eye
landmarks p1..p6, computed upstream of this package:

    ear = (|p2 - p6| + |p3 - p5|) / (2 |p1 - p4|)

with p1/p4 the horizontal corners.  It is invariant under translation,
rotation and uniform scaling, sits around 0.2-0.4 for an open eye and
drops toward zero when the eye closes.  A blink is a run of consecutive
below-threshold samples; its features are amplitude, closing velocity,
duration and recent frequency.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .report import iter_csv, write_csv

EAR_CSV_HEADER = ["frame_id", "ts_us", "ear"]
FEATURES_CSV_HEADER = ["blink_id", "amplitude", "velocity", "duration_s", "freq_per_min"]


@dataclass(frozen=True, slots=True)
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
        if not 0 < self.close_threshold < math.inf:
            raise ValueError(
                f"close_threshold must be positive and finite, got {self.close_threshold}"
            )
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

    return list(iter_csv(path, EAR_CSV_HEADER, parse))


def write_features_csv(features: Iterable[BlinkFeatures], path: str | Path) -> None:
    write_csv(path, FEATURES_CSV_HEADER, ((i, *astuple(f)) for i, f in enumerate(features)))
