"""Cost-sensitive threshold selection and weighted ensemble voting.

Scores live on a 0-10 scale where 0 is fully alert and 10 is fully
drowsy.  A sequence is classified Drowsy when its score reaches the
threshold.  Because a missed drowsy episode is worse than a false
alarm, thresholds are picked by minimizing a weighted cost
``w_fn * fnr + w_fp * fpr`` (defaults 2 and 1) over a fixed grid of 21
thresholds from 10/3 to 10 in steps of 1/3.

Several models vote with weights ``2 * tpr + tnr``; the ensemble says
Drowsy when the weighted share of Drowsy votes exceeds one half.
"""

from __future__ import annotations

import contextlib
import json
import math
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .report import read_csv, write_csv

SCORES_CSV_HEADER = ["id", "score", "label"]
CURVE_CSV_HEADER = ["threshold", "fpr", "fnr", "cost"]

DEFAULT_THRESHOLD = 20.0 / 3.0
DEFAULT_W_FN = 2.0
DEFAULT_W_FP = 1.0


class DegenerateDataError(ValueError):
    """Input data cannot support the requested computation."""


class Label(IntEnum):
    ALERT = 0
    DROWSY = 10


@dataclass(frozen=True)
class ScoredSequence:
    """One scored observation window with its ground-truth label."""

    id: int
    score: float
    label: Label

    def __post_init__(self):
        if not 0.0 <= self.score <= 10.0:
            raise ValueError(f"score must be within [0, 10], got {self.score}")


def threshold_grid() -> list[float]:
    """The 21 candidate thresholds (10 + k) / 3 for k = 0..20."""
    return [(10 + k) / 3 for k in range(21)]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


_SHARED_TALLY: ContextVar[tuple[Sequence[ScoredSequence], Callable] | None] = ContextVar(
    "_SHARED_TALLY", default=None
)


@contextlib.contextmanager
def _one_tally(sequences: Sequence[ScoredSequence]):
    """Within the block, every call on this very ``sequences`` object reuses one tally.

    ``optimize_threshold``, ``compare_to_default`` and ``sweep`` each need
    the same sorted classes; a caller that runs all three on one dataset
    sorts it once.  The dataset must not change inside the block.
    """
    token = _SHARED_TALLY.set((sequences, _tally(sequences)))
    try:
        yield
    finally:
        _SHARED_TALLY.reset(token)


def _tally(sequences: Sequence[ScoredSequence]) -> Callable[[float], ConfusionMatrix]:
    """Confusion matrix at any threshold, off one sort of each class's scores.

    A sequence is predicted Drowsy when its score reaches the threshold,
    so the misses are the drowsy scores below it, counted by bisection.
    """
    shared = _SHARED_TALLY.get()
    if shared is not None and shared[0] is sequences:
        return shared[1]
    if not sequences:
        raise ValueError("empty dataset")
    drowsy = sorted(seq.score for seq in sequences if seq.label is Label.DROWSY)
    alert = sorted(seq.score for seq in sequences if seq.label is not Label.DROWSY)

    def at(threshold: float) -> ConfusionMatrix:
        if math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        fn = bisect_left(drowsy, threshold)
        tn = bisect_left(alert, threshold)
        return ConfusionMatrix(tp=len(drowsy) - fn, fp=len(alert) - tn, tn=tn, fn=fn)

    return at


def confusion(sequences: Sequence[ScoredSequence], threshold: float) -> ConfusionMatrix:
    """Tally predictions at a threshold; Drowsy is the positive class."""
    return _tally(sequences)(threshold)


@dataclass(frozen=True)
class Rates:
    """Error/success rates of a confusion matrix.

    Rates whose denominator is empty are reported as 0 with the matching
    ``has_positives``/``has_negatives`` flag cleared; when defined,
    ``tpr + fnr == 1`` and ``tnr + fpr == 1``.
    """

    fpr: float
    fnr: float
    tpr: float
    tnr: float
    has_positives: bool
    has_negatives: bool

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix) -> "Rates":
        positives = cm.tp + cm.fn
        negatives = cm.fp + cm.tn
        fnr = cm.fn / positives if positives else 0.0
        fpr = cm.fp / negatives if negatives else 0.0
        return cls(
            fpr=fpr,
            fnr=fnr,
            tpr=1.0 - fnr if positives else 0.0,
            tnr=1.0 - fpr if negatives else 0.0,
            has_positives=positives > 0,
            has_negatives=negatives > 0,
        )


def cost(rates: Rates, w_fn: float = DEFAULT_W_FN, w_fp: float = DEFAULT_W_FP) -> float:
    """Weighted misclassification cost ``w_fn * fnr + w_fp * fpr``."""
    if w_fn < 0 or w_fp < 0:
        raise ValueError(f"weights must be non-negative, got w_fn={w_fn}, w_fp={w_fp}")
    return w_fn * rates.fnr + w_fp * rates.fpr


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    fpr: float
    fnr: float
    cost: float


@dataclass(frozen=True)
class ThresholdCurve:
    points: tuple[CurvePoint, ...]
    w_fn: float
    w_fp: float

    def __post_init__(self):
        thresholds = [p.threshold for p in self.points]
        if thresholds != sorted(thresholds) or len(set(thresholds)) != len(thresholds):
            raise ValueError("curve thresholds must be strictly increasing")


def _curve(
    tally: Callable[[float], ConfusionMatrix],
    grid: Sequence[float] | None,
    w_fn: float,
    w_fp: float,
) -> ThresholdCurve:
    points = []
    for threshold in threshold_grid() if grid is None else grid:
        rates = Rates.from_confusion(tally(threshold))
        points.append(
            CurvePoint(
                threshold=threshold,
                fpr=rates.fpr,
                fnr=rates.fnr,
                cost=cost(rates, w_fn, w_fp),
            )
        )
    return ThresholdCurve(points=tuple(points), w_fn=w_fn, w_fp=w_fp)


def sweep(
    sequences: Sequence[ScoredSequence],
    grid: Sequence[float] | None = None,
    w_fn: float = DEFAULT_W_FN,
    w_fp: float = DEFAULT_W_FP,
) -> ThresholdCurve:
    """Evaluate rates and cost at every grid threshold, in grid order."""
    return _curve(_tally(sequences), grid, w_fn, w_fp)


def optimize_threshold(
    sequences: Sequence[ScoredSequence],
    grid: Sequence[float] | None = None,
    w_fn: float = DEFAULT_W_FN,
    w_fp: float = DEFAULT_W_FP,
) -> tuple[float, Rates]:
    """Smallest grid threshold with minimal cost, plus its rates.

    Requires both classes in the dataset; otherwise one error rate is
    vacuous and every threshold ties.
    """
    tally = _tally(sequences)
    labels = {seq.label for seq in sequences}
    if len(labels) < 2:
        raise DegenerateDataError(
            f"dataset holds only {next(iter(labels)).name} sequences; need both classes"
        )
    # min keeps the first of equal costs, and grid thresholds increase
    best = min(_curve(tally, grid, w_fn, w_fp).points, key=lambda point: point.cost)
    return best.threshold, Rates.from_confusion(tally(best.threshold))


def percent_change(old: float, new: float) -> float | None:
    """Relative change in percent, or None when the old value is zero."""
    if old == 0:
        return None
    return (new - old) / old * 100.0


@dataclass(frozen=True)
class ThresholdComparison:
    """Operating points at an optimized and a default threshold."""

    optimal_threshold: float
    default_threshold: float
    optimal_cost: float
    optimal_fpr: float
    optimal_fnr: float
    default_cost: float
    default_fpr: float
    default_fnr: float
    fpr_change_pct: float | None
    fnr_change_pct: float | None


def compare_to_default(
    sequences: Sequence[ScoredSequence],
    optimal_threshold: float,
    default_threshold: float = DEFAULT_THRESHOLD,
    w_fn: float = DEFAULT_W_FN,
    w_fp: float = DEFAULT_W_FP,
) -> ThresholdComparison:
    tally = _tally(sequences)
    opt = Rates.from_confusion(tally(optimal_threshold))
    dft = Rates.from_confusion(tally(default_threshold))
    return ThresholdComparison(
        optimal_threshold=optimal_threshold,
        default_threshold=default_threshold,
        optimal_cost=cost(opt, w_fn, w_fp),
        optimal_fpr=opt.fpr,
        optimal_fnr=opt.fnr,
        default_cost=cost(dft, w_fn, w_fp),
        default_fpr=dft.fpr,
        default_fnr=dft.fnr,
        fpr_change_pct=percent_change(dft.fpr, opt.fpr),
        fnr_change_pct=percent_change(dft.fnr, opt.fnr),
    )


@dataclass(frozen=True)
class ModelStats:
    """Validation performance of one ensemble member."""

    model_id: int
    tpr: float
    tnr: float
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.tpr <= 1.0 or not 0.0 <= self.tnr <= 1.0:
            raise ValueError(f"model {self.model_id}: tpr/tnr must be within [0, 1]")


def model_weight(stats: ModelStats) -> float:
    """Vote weight ``2 * tpr + tnr``: misses are twice as costly."""
    return 2.0 * stats.tpr + stats.tnr


@dataclass(frozen=True)
class VoteResult:
    weights: tuple[float, ...]
    total_weight: float
    prediction: float
    decision: Label


def weighted_vote(weights: Sequence[float], decisions: Sequence[int]) -> VoteResult:
    """Combine binary decisions with the given non-negative weights.

    The prediction is the weight share of Drowsy votes; the ensemble
    answers Drowsy when it exceeds 0.5.  An all-zero weight vector is
    degenerate.
    """
    if len(weights) != len(decisions):
        raise ValueError(f"{len(weights)} weights for {len(decisions)} decisions")
    if not weights:
        raise ValueError("empty ensemble")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if any(d not in (0, 1) for d in decisions):
        raise ValueError(f"decisions must be 0 or 1, got {list(decisions)}")
    total = sum(weights)
    if total == 0:
        raise DegenerateDataError("ensemble weights sum to zero")
    # single division keeps the prediction inside [0, 1] and makes
    # unanimous votes land on exactly 0 or 1
    drowsy_weight = sum(w * d for w, d in zip(weights, decisions))
    prediction = drowsy_weight / total
    return VoteResult(
        weights=tuple(weights),
        total_weight=total,
        prediction=prediction,
        decision=Label.DROWSY if prediction > 0.5 else Label.ALERT,
    )


def vote(decisions: Sequence[int], stats: Sequence[ModelStats]) -> VoteResult:
    """Weighted ensemble vote with weights derived from model stats."""
    return weighted_vote([model_weight(s) for s in stats], decisions)


def write_scores_csv(sequences: Iterable[ScoredSequence], path: str | Path) -> None:
    write_csv(path, SCORES_CSV_HEADER, ((s.id, s.score, int(s.label)) for s in sequences))


def read_scores_csv(path: str | Path) -> list[ScoredSequence]:
    return read_csv(
        path,
        SCORES_CSV_HEADER,
        lambda seq_id, score, label: ScoredSequence(int(seq_id), float(score), Label(int(label))),
    )


def write_curve_csv(curve: ThresholdCurve, path: str | Path) -> None:
    write_csv(path, CURVE_CSV_HEADER, ((p.threshold, p.fpr, p.fnr, p.cost) for p in curve.points))


def write_model_stats_json(stats: Iterable[ModelStats], path: str | Path) -> None:
    doc = [
        {"model_id": s.model_id, "tpr": s.tpr, "tnr": s.tnr, "threshold": s.threshold}
        for s in stats
    ]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_model_stats_json(path: str | Path) -> list[ModelStats]:
    """Model stats from a JSON list of objects; any defect names the file."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, list) or not all(isinstance(entry, dict) for entry in doc):
            raise ValueError("expected a JSON list of model stats objects")
        return [
            ModelStats(
                model_id=int(entry["model_id"]),
                tpr=float(entry["tpr"]),
                tnr=float(entry["tnr"]),
                threshold=float(entry["threshold"]),
            )
            for entry in doc
        ]
    except KeyError as exc:
        raise ValueError(f"{path}: model stats entry lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
