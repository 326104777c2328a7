"""Eye-aspect-ratio blink detection and per-blink feature extraction.

The ``ear`` column of an EAR CSV is the eye aspect ratio of six eye
landmarks p1..p6, computed upstream of this package:

    ear = (|p2 - p6| + |p3 - p5|) / (2 |p1 - p4|)

with p1/p4 the horizontal corners.  It is invariant under translation,
rotation and uniform scaling, sits around 0.2-0.4 for an open eye and
drops toward zero when the eye closes.  A blink is a run of consecutive
below-threshold samples; its features are amplitude, closing velocity,
duration and recent frequency.  An ``EarSeries`` has one constructor,
which takes its three columns and checks that its frame ids strictly
increase, as feature extraction bisects on them; ``read_ear_csv`` and
``synth.gen_ear_series`` both build the columns and call it.
"""

from __future__ import annotations

import math
import operator
import statistics
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import astuple, dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .report import read_columns, write_csv

EAR_CSV_HEADER = ["frame_id", "ts_us", "ear"]
FEATURES_CSV_HEADER = ["blink_id", "amplitude", "velocity", "duration_s", "freq_per_min"]


# the columns of an EarSeries and the array typecode of each: "q" is a
# signed 64-bit integer, "d" a double
_COLUMN_TYPECODES = {"frame_id": "q", "ts_us": "q", "ear": "d"}
_INT64 = range(-(1 << 63), 1 << 63)


@dataclass(frozen=True)
class EarSeries:
    """An EAR series as three typed columns; entry k of each is sample k.

    ``frame_id`` and ``ts_us`` are ``array('q')`` (signed 64-bit
    integers) and ``ear`` is ``array('d')``, 8 bytes a value; a column
    given as any other sequence is copied into an array of its type.
    The columns must have one length, and the frame ids must strictly
    increase; ``len(series)`` is that length.  A series cannot be
    hashed, and its columns must not be changed in place.
    """

    frame_id: array
    ts_us: array
    ear: array

    # array columns cannot be hashed, so neither can a series
    __hash__ = None

    def __post_init__(self):
        for name, typecode in _COLUMN_TYPECODES.items():
            column = getattr(self, name)
            if not (isinstance(column, array) and column.typecode == typecode):
                object.__setattr__(self, name, array(typecode, column))
        lengths = [len(getattr(self, name)) for name in _COLUMN_TYPECODES]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        ids = self.frame_id
        # checked at C level; only a failure walks the pairs to name the first bad one
        if not all(map(operator.lt, ids, ids[1:])):
            earlier, later = next((a, b) for a, b in zip(ids, ids[1:]) if b <= a)
            raise ValueError(f"frame_id {later} does not follow {earlier}")

    def __len__(self) -> int:
        return len(self.frame_id)


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
    # the closed samples, found in one pass at C level rather than a Python loop
    closed = compress(range(n), map(operator.lt, values, repeat(config.close_threshold)))

    blinks: list[Blink] = []
    for i, j in _runs(closed):
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
    return blinks


def _runs(indices: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The first and last of each maximal run of consecutive integers in increasing ``indices``."""
    first = last = None
    for k in indices:
        if last is None or k != last + 1:
            if last is not None:
                yield first, last
            first = k
        last = k
    if last is not None:
        yield first, last


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
    """The EAR series of a CSV file; ``frame_id`` must increase from row to row.

    ``frame_id`` and ``ts_us`` must fit a signed 64-bit integer, and
    each ``ear`` must be finite and non-negative.
    """
    last_frame_id = None  # of the rows parsed one by one

    def parse(frame_id: str, ts_us: str, ear: str) -> tuple[int, int, float]:
        nonlocal last_frame_id
        frame_id, ts_us, ear = int(frame_id), int(ts_us), float(ear)
        if not math.isfinite(ear) or ear < 0:
            raise ValueError(f"ear must be finite and non-negative, got {ear}")
        for name, value in (("frame_id", frame_id), ("ts_us", ts_us)):
            if value not in _INT64:
                raise ValueError(f"{name} {value} does not fit a signed 64-bit integer")
        if last_frame_id is not None and frame_id <= last_frame_id:
            raise ValueError(f"frame_id {frame_id} does not follow {last_frame_id}")
        last_frame_id = frame_id
        return frame_id, ts_us, ear

    last_chunk_id = -math.inf  # of the chunks parsed column by column

    def parse_chunk(frame_id: list[str], ts_us: list[str], ear: list[str]) -> tuple[array, ...]:
        nonlocal last_chunk_id
        frame_ids = list(map(int, frame_id))
        ears = list(map(float, ear))
        # a NaN or an infinity makes the sum NaN or infinite
        if not (math.isfinite(sum(ears)) and min(ears) >= 0):
            raise ValueError("an EAR is negative or not finite")
        if not (last_chunk_id < frame_ids[0] and all(map(operator.lt, frame_ids, frame_ids[1:]))):
            raise ValueError("frame ids do not increase")
        last_chunk_id = frame_ids[-1]
        # an array built from a list converts each value in one pass; an id or
        # timestamp out of the 64-bit range raises OverflowError, which
        # read_columns answers by reading the file row by row
        return array("q", frame_ids), array("q", list(map(int, ts_us))), array("d", ears)

    def new_columns() -> list[array]:
        return [array(typecode) for typecode in _COLUMN_TYPECODES.values()]

    return EarSeries(*read_columns(path, EAR_CSV_HEADER, parse, parse_chunk, new_columns))


def write_features_csv(features: Iterable[BlinkFeatures], path: str | Path) -> None:
    write_csv(path, FEATURES_CSV_HEADER, ((i, *astuple(f)) for i, f in enumerate(features)))
