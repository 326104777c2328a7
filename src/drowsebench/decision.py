"""Cost-sensitive threshold selection and weighted ensemble voting.

Scores live on a 0-10 scale where 0 is fully alert and 10 is fully
drowsy.  A sequence is classified Drowsy when its score reaches the
threshold.  Because a missed drowsy episode is worse than a false
alarm, thresholds are picked by minimizing a weighted cost
``w_fn * fnr + w_fp * fpr`` (defaults 2 and 1) over a fixed grid of 21
thresholds from 10/3 to 10 in steps of 1/3.

A ``ScoreTally`` sorts each class's scores where it is built, checks
them as ``ScoredSequence`` checks its score, and reads the confusion
matrix at any threshold off them by bisection.  ``sweep``,
``optimize_threshold`` and ``compare_to_default`` take a tally, so
several of them on one dataset share one sort.  A tally has one
constructor, ``ScoreTally(drowsy, alert)``; ``read_scores_csv`` folds a
scores CSV's columns straight into one, with no ``ScoredSequence`` per
row.

Several models vote with weights ``2 * tpr + tnr``; the ensemble says
Drowsy when the weighted share of Drowsy votes exceeds one half.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, Sequence

from .report import DegenerateDataError, read_columns, write_csv

SCORES_CSV_HEADER = ["id", "score", "label"]
CURVE_CSV_HEADER = ["threshold", "fpr", "fnr", "cost"]

DEFAULT_THRESHOLD = 20.0 / 3.0
DEFAULT_W_FN = 2.0
DEFAULT_W_FP = 1.0


class Label(IntEnum):
    ALERT = 0
    DROWSY = 10


def _check_score(score: float) -> None:
    if not 0.0 <= score <= 10.0:
        raise ValueError(f"score must be within [0, 10], got {score}")


@dataclass(frozen=True, slots=True)
class ScoredSequence:
    """One scored observation window with its ground-truth label, kept as a ``Label``."""

    id: int
    score: float
    label: Label

    def __post_init__(self):
        _check_score(self.score)
        object.__setattr__(self, "label", Label(self.label))


def threshold_grid() -> list[float]:
    """The 21 candidate thresholds (10 + k) / 3 for k = 0..20."""
    return [(10 + k) / 3 for k in range(21)]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class ScoreTally:
    """Each class's scores, sorted once: the confusion matrix at any threshold.

    ``drowsy`` and ``alert`` may be any iterables; each is kept sorted in a
    tuple.  Each score must be within [0, 10], as a ``ScoredSequence``'s,
    and a tally with no scores is degenerate.  A sequence is
    predicted Drowsy when its score reaches the threshold, so the misses
    are the drowsy scores below it, counted by bisection.  ``source``
    names where the scores came from in error messages.
    """

    drowsy: tuple[float, ...]
    alert: tuple[float, ...]
    source: object = field(default="dataset", compare=False)

    def __post_init__(self):
        for name in ("drowsy", "alert"):
            scores = tuple(sorted(getattr(self, name)))
            object.__setattr__(self, name, scores)
            # one C-level pass: the sorted ends bound the rest, and a NaN, which
            # sorts anywhere, makes the sum NaN; only a failure walks the scores
            if scores and not (0 <= scores[0] and scores[-1] <= 10 and sum(scores) >= 0):
                for score in scores:
                    _check_score(score)
        if not self.drowsy and not self.alert:
            raise DegenerateDataError(f"{self.source} holds no scored sequences")

    def at(self, threshold: float) -> ConfusionMatrix:
        """Tally predictions at a threshold; Drowsy is the positive class."""
        if math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        fn = bisect_left(self.drowsy, threshold)
        tn = bisect_left(self.alert, threshold)
        return ConfusionMatrix(tp=len(self.drowsy) - fn, fp=len(self.alert) - tn, tn=tn, fn=fn)


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
    """Weighted misclassification cost ``w_fn * fnr + w_fp * fpr``; OverflowError past a float."""
    if not (0 <= w_fn < math.inf and 0 <= w_fp < math.inf):
        raise ValueError(f"weights must be non-negative and finite, got w_fn={w_fn}, w_fp={w_fp}")
    total = w_fn * rates.fnr + w_fp * rates.fpr
    if not math.isfinite(total):
        raise OverflowError(f"cost {w_fn:g}*fnr + {w_fp:g}*fpr overflows a float")
    return total


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    fpr: float
    fnr: float
    cost: float


def _point(tally: ScoreTally, threshold: float, w_fn: float, w_fp: float) -> CurvePoint:
    """The operating point at ``threshold``: its error rates and their cost."""
    rates = Rates.from_confusion(tally.at(threshold))
    return CurvePoint(threshold, rates.fpr, rates.fnr, cost(rates, w_fn, w_fp))


@dataclass(frozen=True)
class ThresholdCurve:
    points: tuple[CurvePoint, ...]


def sweep(
    tally: ScoreTally, w_fn: float = DEFAULT_W_FN, w_fp: float = DEFAULT_W_FP
) -> ThresholdCurve:
    """Evaluate rates and cost at every grid threshold, in grid order."""
    return ThresholdCurve(tuple(_point(tally, t, w_fn, w_fp) for t in threshold_grid()))


def optimize_threshold(
    tally: ScoreTally, w_fn: float = DEFAULT_W_FN, w_fp: float = DEFAULT_W_FP
) -> tuple[float, Rates]:
    """Smallest grid threshold with minimal cost, plus its rates.

    Requires both classes in the dataset; otherwise one error rate is
    vacuous and every threshold ties.
    """
    if not tally.drowsy or not tally.alert:
        only = Label.ALERT if tally.alert else Label.DROWSY
        raise DegenerateDataError(
            f"{tally.source} holds only {only.name} sequences; need both classes"
        )
    # min keeps the first of equal costs, and grid thresholds increase
    best = min(sweep(tally, w_fn, w_fp).points, key=lambda point: point.cost)
    return best.threshold, Rates.from_confusion(tally.at(best.threshold))


def percent_change(old: float, new: float) -> float | None:
    """Relative change in percent, or None when the old value is zero."""
    if old == 0:
        return None
    return (new - old) / old * 100.0


@dataclass(frozen=True)
class ThresholdComparison:
    """Operating points at an optimized and a default threshold."""

    optimal: CurvePoint
    default: CurvePoint
    fpr_change_pct: float | None
    fnr_change_pct: float | None


def compare_to_default(
    tally: ScoreTally,
    optimal_threshold: float,
    w_fn: float = DEFAULT_W_FN,
    w_fp: float = DEFAULT_W_FP,
) -> ThresholdComparison:
    """Rates and cost at ``optimal_threshold`` against ``DEFAULT_THRESHOLD``."""
    opt = _point(tally, optimal_threshold, w_fn, w_fp)
    dft = _point(tally, DEFAULT_THRESHOLD, w_fn, w_fp)
    return ThresholdComparison(
        optimal=opt,
        default=dft,
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
        if not 0.0 <= self.threshold <= 10.0:  # on the score scale, as a score is
            raise ValueError(f"model {self.model_id}: threshold must be within [0, 10], "
                             f"got {self.threshold}")


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
    """Combine binary decisions with the given non-negative, finite weights.

    The prediction is the weight share of Drowsy votes; the ensemble
    answers Drowsy when it exceeds 0.5.  An all-zero weight vector is
    degenerate.
    """
    if len(weights) != len(decisions):
        raise ValueError(f"{len(weights)} weights for {len(decisions)} decisions")
    if not weights:
        raise ValueError("empty ensemble")
    if not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be non-negative and finite")
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


def _parse_score_chunk(seq_id: list[str], score: list[str], label: list[str]) -> tuple:
    """A chunk of scores CSV columns converted: the scores, and whether each is drowsy.

    ``ScoreTally`` checks the scores; the labels of other spellings take the row path.
    """
    sum(map(int, seq_id))  # each id must parse, and is not kept
    if not {"0", "10"}.issuperset(label):
        raise ValueError("a label is not 0 or 10")
    return array("d", list(map(float, score))), bytearray(map(operator.eq, label, repeat("10")))


def read_scores_csv(path: str | Path) -> ScoreTally:
    """The tally of a scores CSV's drowsy and alert scores, folded from its columns.

    No ``ScoredSequence`` is built and no id is kept; a file with no rows
    is degenerate.
    """
    def parse(seq_id: str, score: str, label: str) -> tuple[float, bool]:
        """One row, checked in the order id, score, label, score range."""
        int(seq_id)
        row = float(score), Label(int(label)) is Label.DROWSY
        _check_score(row[0])
        return row

    def tally(scores: array, drowsy: bytearray) -> ScoreTally:
        return ScoreTally(compress(scores, drowsy), compress(scores, map(operator.not_, drowsy)),
                          path)

    return read_columns(path, SCORES_CSV_HEADER, parse, _parse_score_chunk, tally)


def write_curve_csv(curve: ThresholdCurve, path: str | Path) -> None:
    write_csv(path, CURVE_CSV_HEADER, ((p.threshold, p.fpr, p.fnr, p.cost) for p in curve.points))


def read_model_stats_json(path: str | Path) -> list[ModelStats]:
    """Model stats from a JSON list of objects; any defect names the file.

    ``model_id`` must be a JSON integer, and ``tpr``, ``tnr`` and
    ``threshold`` JSON numbers; a bool or a string is neither.
    """
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, list) or not all(isinstance(entry, dict) for entry in doc):
            raise ValueError("expected a JSON list of model stats objects")
        for entry in doc:
            for key in ("model_id", "tpr", "tnr", "threshold"):
                kind, kinds = (("integer", (int,)) if key == "model_id"
                               else ("number", (int, float)))
                # type(), not isinstance(): a bool is an int, but a JSON true is no number
                if type(entry[key]) not in kinds:
                    raise ValueError(
                        f"model stats {key} must be a JSON {kind}, got {json.dumps(entry[key])}")
        return [ModelStats(entry["model_id"], float(entry["tpr"]), float(entry["tnr"]),
                           float(entry["threshold"])) for entry in doc]
    except KeyError as exc:
        raise ValueError(f"{path}: model stats entry lacks {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
