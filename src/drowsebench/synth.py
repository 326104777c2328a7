"""Seeded generators for EAR traces and labeled score datasets.

Scripted EAR traces come with exact ground truth, which makes them
usable as oracles for the blink detector: every scripted blink is a
linear descent from its baseline to a trough, a plateau while the eye
is closed, and a symmetric ascent back to the baseline.  Score datasets
draw per-class Gaussians clamped to the 0-10 scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .blink import Blink, EarSeries
from .decision import Label, ScoredSequence


@dataclass(frozen=True)
class ScriptedBlink:
    """One scripted blink.

    The eye leaves ``baseline_ear`` right after ``onset_frame``, reaches
    ``trough_ear`` after ``descent_frames`` samples, stays there for
    ``closed_frames`` samples in total, and climbs back symmetrically.
    """

    onset_frame: int
    closed_frames: int
    trough_ear: float
    baseline_ear: float
    descent_frames: int

    def __post_init__(self):
        if self.onset_frame < 0:
            raise ValueError(f"onset_frame must be >= 0, got {self.onset_frame}")
        if self.closed_frames < 1:
            raise ValueError(f"closed_frames must be >= 1, got {self.closed_frames}")
        if self.descent_frames < 1:
            raise ValueError(f"descent_frames must be >= 1, got {self.descent_frames}")
        if not self.baseline_ear < math.inf:
            raise ValueError(f"baseline_ear must be finite, got {self.baseline_ear}")
        if not 0 <= self.trough_ear < self.baseline_ear:
            raise ValueError(
                f"need 0 <= trough_ear < baseline_ear, got "
                f"{self.trough_ear} / {self.baseline_ear}"
            )

    @property
    def apex_frame(self) -> int:
        return self.onset_frame + self.descent_frames

    @property
    def end_frame(self) -> int:
        return self.onset_frame + 2 * self.descent_frames + self.closed_frames - 1


@dataclass(frozen=True)
class BlinkScript:
    """A whole trace: scripted blinks over a resting-level background."""

    blinks: tuple[ScriptedBlink, ...]
    fps: float
    total_frames: int
    noise_std: float = 0.0
    seed: int = 0
    open_ear: float = 0.35

    def __post_init__(self):
        object.__setattr__(self, "blinks", tuple(self.blinks))
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        if self.total_frames < 1:
            raise ValueError(f"total_frames must be >= 1, got {self.total_frames}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be non-negative and finite, got {self.noise_std}")
        if not 0 <= self.open_ear < math.inf:
            raise ValueError(f"open_ear must be non-negative and finite, got {self.open_ear}")
        prev = None
        for blink in self.blinks:
            if prev is not None and blink.onset_frame <= prev.end_frame:
                raise ValueError(
                    f"blink at frame {blink.onset_frame} overlaps the one ending "
                    f"at frame {prev.end_frame}"
                )
            prev = blink
        if self.blinks and self.blinks[-1].end_frame >= self.total_frames:
            raise ValueError(
                f"total_frames={self.total_frames} does not cover the blink ending "
                f"at frame {self.blinks[-1].end_frame}"
            )


def _scripted_values(script: BlinkScript) -> list[float]:
    values = [script.open_ear] * script.total_frames
    region_start = 0
    for blink in script.blinks:
        base, trough, d = blink.baseline_ear, blink.trough_ear, blink.descent_frames
        for k in range(region_start, blink.onset_frame + 1):
            values[k] = base
        for i in range(1, d + 1):
            values[blink.onset_frame + i] = base + (trough - base) * i / d
        for k in range(blink.apex_frame, blink.apex_frame + blink.closed_frames):
            values[k] = trough
        rise_from = blink.apex_frame + blink.closed_frames - 1
        for j in range(1, d + 1):
            values[rise_from + j] = trough + (base - trough) * j / d
        region_start = blink.end_frame + 1
    if script.blinks:
        for k in range(region_start, script.total_frames):
            values[k] = script.blinks[-1].baseline_ear
    return values


def gen_ear_series(script: BlinkScript) -> tuple[EarSeries, list[Blink]]:
    """Render a script into an EAR series plus its ground-truth blinks.

    With ``noise_std == 0`` the series is exactly the scripted waveform
    regardless of seed; otherwise seeded Gaussian noise is added and
    samples are clamped to stay non-negative.
    """
    values = _scripted_values(script)
    if script.noise_std > 0:
        rng = random.Random(script.seed)
        values = [max(0.0, v + rng.gauss(0.0, script.noise_std)) for v in values]
    n = script.total_frames
    series = EarSeries(range(n), [round(k * 1e6 / script.fps) for k in range(n)], values)
    truth = [
        Blink(
            start_frame=b.onset_frame,
            apex_frame=b.apex_frame,
            end_frame=b.end_frame,
            min_ear=b.trough_ear,
            baseline_ear=b.baseline_ear,
        )
        for b in script.blinks
    ]
    return series, truth


# shape of every blink in an evenly spaced script
SCRIPT_BASELINE_EAR = 0.35
SCRIPT_TROUGH_EAR = 0.10
SCRIPT_DESCENT_FRAMES = 3
SCRIPT_CLOSED_FRAMES = 4
SCRIPT_SPACING_FRAMES = 40


def evenly_spaced_script(
    n_blinks: int,
    fps: float = 30.0,
    total_frames: int | None = None,
    noise_std: float = 0.0,
    seed: int = 0,
) -> BlinkScript:
    """Convenience script with ``n_blinks`` identical, well-separated blinks."""
    if n_blinks < 0:
        raise ValueError(f"n_blinks must be >= 0, got {n_blinks}")
    blinks = [
        ScriptedBlink(
            onset_frame=20 + i * SCRIPT_SPACING_FRAMES,
            closed_frames=SCRIPT_CLOSED_FRAMES,
            trough_ear=SCRIPT_TROUGH_EAR,
            baseline_ear=SCRIPT_BASELINE_EAR,
            descent_frames=SCRIPT_DESCENT_FRAMES,
        )
        for i in range(n_blinks)
    ]
    needed = (blinks[-1].end_frame + 21) if blinks else 60
    return BlinkScript(
        blinks=tuple(blinks),
        fps=fps,
        total_frames=max(total_frames or 0, needed),
        noise_std=noise_std,
        seed=seed,
        open_ear=SCRIPT_BASELINE_EAR,
    )


@dataclass(frozen=True)
class ScoreDatasetSpec:
    """Two clamped Gaussian score clusters, one per class."""

    n_alert: int
    n_drowsy: int
    alert_mean: float = 2.0
    alert_std: float = 1.0
    drowsy_mean: float = 8.0
    drowsy_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_alert < 0 or self.n_drowsy < 0:
            raise ValueError("class counts must be non-negative")
        if self.n_alert + self.n_drowsy == 0:
            raise ValueError("dataset must hold at least one sequence")
        moments = (self.alert_mean, self.alert_std, self.drowsy_mean, self.drowsy_std)
        if not all(map(math.isfinite, moments)):
            raise ValueError(f"class means and stds must be finite, got {moments}")
        if self.alert_std < 0 or self.drowsy_std < 0:
            raise ValueError("stds must be non-negative")


def gen_score_dataset(spec: ScoreDatasetSpec) -> list[ScoredSequence]:
    """Draw a labeled score dataset; same spec, same dataset."""
    rng = random.Random(spec.seed)
    sequences = []
    next_id = 0
    for count, mean, std, label in (
        (spec.n_alert, spec.alert_mean, spec.alert_std, Label.ALERT),
        (spec.n_drowsy, spec.drowsy_mean, spec.drowsy_std, Label.DROWSY),
    ):
        for _ in range(count):
            score = min(10.0, max(0.0, rng.gauss(mean, std)))
            sequences.append(ScoredSequence(id=next_id, score=score, label=label))
            next_id += 1
    return sequences
