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
import operator
import statistics
from bisect import bisect_left
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .report import read_columns, write_csv

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
class EarSeries(Sequence[EarSample]):
    """An EAR series as three columns; entry k of each is sample k.

    It reads as a sequence of ``EarSample``: ``len(series)``,
    ``series[k]`` and iteration build the samples from the columns, and
    ``series[a:b:c]`` with a positive step is the series of the sliced
    columns.  ``EarSeries.of`` and ``read_ear_csv`` build one with frame
    ids that strictly increase.
    """

    frame_id: tuple[int, ...]
    ts_us: tuple[int, ...]
    ear: tuple[float, ...]

    @classmethod
    def of(cls, samples: Iterable[EarSample]) -> "EarSeries":
        """The series of ``samples``, read once; their frame ids must strictly increase."""
        samples = list(samples)
        frame_ids = tuple([s.frame_id for s in samples])
        for earlier, later in zip(frame_ids, frame_ids[1:]):
            if later <= earlier:
                raise ValueError(f"frame_id {later} does not follow {earlier}")
        return cls(frame_ids, tuple([s.ts_us for s in samples]), tuple([s.ear for s in samples]))

    def __len__(self) -> int:
        return len(self.frame_id)

    def __getitem__(self, k: int | slice) -> EarSample | EarSeries:
        if isinstance(k, slice):
            if k.step is not None and k.step < 0:
                raise ValueError(f"slice step must be positive to keep frame ids increasing, "
                                 f"got {k.step}")
            return EarSeries(self.frame_id[k], self.ts_us[k], self.ear[k])
        return EarSample(self.frame_id[k], self.ts_us[k], self.ear[k])

    def __iter__(self):
        return map(EarSample, self.frame_id, self.ts_us, self.ear)


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
    series: EarSeries,
    config: BlinkDetectionConfig = BlinkDetectionConfig(),
) -> list[Blink]:
    """Find blinks as maximal runs of below-threshold samples.

    A run must span at least ``min_closed_frames`` samples with
    ``ear < close_threshold``.  Returned blinks are sorted and
    non-overlapping by construction.
    """
    if not series:
        raise ValueError("empty EAR series")
    frame_ids, values = series.frame_id, series.ear
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
                    start_frame=frame_ids[start],
                    apex_frame=frame_ids[apex],
                    end_frame=frame_ids[end],
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
    blinks: Sequence[Blink], series: EarSeries, fps: float
) -> list[BlinkFeatures]:
    """Features for a chronological list of blinks from one series.

    Each blink frame is found by bisection on the series' strictly
    increasing frame ids.  Frequency counts the blink itself plus the
    earlier apexes (at ``frame / fps`` seconds) in the trailing window
    ``(apex - 60 s, apex]``.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    for earlier, later in zip(blinks, blinks[1:]):
        if later.apex_frame <= earlier.apex_frame:
            raise ValueError(f"apex_frame {later.apex_frame} does not follow {earlier.apex_frame}")
    frame_ids, ears = series.frame_id, series.ear

    def index_of(frame: int) -> int:
        k = bisect_left(frame_ids, frame)
        if k == len(frame_ids) or frame_ids[k] != frame:
            raise ValueError(f"blink frame {frame} not present in series")
        return k

    features = []
    window: deque[float] = deque()  # earlier apex times, oldest first
    for blink in blinks:
        start = index_of(blink.start_frame)
        apex = index_of(blink.apex_frame)
        drops = [ears[k] - ears[k + 1] for k in range(start, apex)]
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


def write_ear_csv(series: EarSeries, path: str | Path) -> None:
    write_csv(path, EAR_CSV_HEADER, zip(series.frame_id, series.ts_us, series.ear))


def read_ear_csv(path: str | Path) -> EarSeries:
    """The EAR series of a CSV file; ``frame_id`` must increase from row to row."""
    last_frame_id = None  # of the rows parsed one by one

    def parse(frame_id: str, ts_us: str, ear: str) -> tuple[int, int, float]:
        nonlocal last_frame_id
        sample = EarSample(int(frame_id), int(ts_us), float(ear))
        if last_frame_id is not None and sample.frame_id <= last_frame_id:
            raise ValueError(f"frame_id {sample.frame_id} does not follow {last_frame_id}")
        last_frame_id = sample.frame_id
        return sample.frame_id, sample.ts_us, sample.ear

    last_chunk_id = -math.inf  # of the chunks parsed column by column

    def parse_chunk(frame_id: list[str], ts_us: list[str], ear: list[str]) -> tuple[list, ...]:
        nonlocal last_chunk_id
        frame_ids = list(map(int, frame_id))
        ears = list(map(float, ear))
        # a NaN or an infinity makes the sum NaN or infinite
        if not (math.isfinite(sum(ears)) and min(ears) >= 0):
            raise ValueError("an EAR is negative or not finite")
        if not (last_chunk_id < frame_ids[0] and all(map(operator.lt, frame_ids, frame_ids[1:]))):
            raise ValueError("frame ids do not increase")
        last_chunk_id = frame_ids[-1]
        return frame_ids, list(map(int, ts_us)), ears

    return EarSeries(*map(tuple, read_columns(path, EAR_CSV_HEADER, parse, parse_chunk)))


def write_features_csv(features: Iterable[BlinkFeatures], path: str | Path) -> None:
    write_csv(path, FEATURES_CSV_HEADER, ((i, *astuple(f)) for i, f in enumerate(features)))
