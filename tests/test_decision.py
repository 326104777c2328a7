import dataclasses
import json
import math

import pytest

from drowsebench.decision import (
    DEFAULT_THRESHOLD,
    ConfusionMatrix,
    CurvePoint,
    DegenerateDataError,
    Label,
    ModelStats,
    Rates,
    ScoredSequence,
    ScoreTally,
    compare_to_default,
    cost,
    model_weight,
    optimize_threshold,
    percent_change,
    read_model_stats_json,
    read_score_tally,
    read_scores_csv,
    sweep,
    threshold_grid,
    vote,
    weighted_vote,
    write_curve_csv,
    write_scores_csv,
)
from drowsebench.synth import ScoreDatasetSpec, gen_score_dataset


def dataset(*groups):
    """Build sequences from (count, score, label) groups."""
    sequences = []
    for count, score, label in groups:
        for _ in range(count):
            sequences.append(ScoredSequence(id=len(sequences), score=score, label=label))
    return sequences


def tally_of(sequences):
    """The tally of ``sequences``, their drowsy and alert scores given to the constructor."""
    return ScoreTally([s.score for s in sequences if s.label is Label.DROWSY],
                      [s.score for s in sequences if s.label is not Label.DROWSY])


FOUR_POINT = dataset(
    (1, 2.0, Label.ALERT), (1, 4.0, Label.ALERT), (1, 6.0, Label.DROWSY), (1, 8.0, Label.DROWSY)
)

# 100 alert / 1000 drowsy sequences concentrated on three score values,
# shaped so the optimum beats the default on misses but not false alarms
SKEWED = dataset(
    (69, 4.0, Label.ALERT),
    (10, 6.0, Label.ALERT),
    (21, 7.0, Label.ALERT),
    (43, 4.0, Label.DROWSY),
    (71, 6.0, Label.DROWSY),
    (886, 7.0, Label.DROWSY),
)


class TestGrid:
    def test_grid_shape(self):
        grid = threshold_grid()
        assert len(grid) == 21
        assert grid[0] == 10 / 3
        assert grid[-1] == 10.0
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(b - a == pytest.approx(1 / 3) for a, b in zip(grid, grid[1:]))

    def test_default_threshold_is_on_grid(self):
        assert DEFAULT_THRESHOLD in threshold_grid()


class TestConfusion:
    def test_four_point_tally(self):
        cm = tally_of(FOUR_POINT).at(10 / 3)
        assert cm == ConfusionMatrix(tp=2, fp=1, tn=1, fn=0)

    def test_threshold_is_inclusive(self):
        # the 4.0 alert reaches a 4.0 threshold, so it is a false alarm
        assert tally_of(FOUR_POINT).at(4.0) == ConfusionMatrix(tp=2, fp=1, tn=1, fn=0)
        assert tally_of(FOUR_POINT).at(3.999) == ConfusionMatrix(tp=2, fp=1, tn=1, fn=0)
        assert tally_of(FOUR_POINT).at(4.001) == ConfusionMatrix(tp=2, fp=0, tn=2, fn=0)
        top = dataset((1, 10.0, Label.DROWSY))
        assert tally_of(top).at(10.0) == ConfusionMatrix(tp=1, fp=0, tn=0, fn=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tally_of([]).at(5.0)

    def test_empty_tally_rejected_where_it_is_built(self):
        with pytest.raises(DegenerateDataError, match="^dataset holds no scored sequences$"):
            ScoreTally((), ())
        with pytest.raises(DegenerateDataError, match="^scores.csv holds no scored sequences$"):
            ScoreTally(iter(()), [], "scores.csv")

    def test_constructor_sorts_each_class(self):
        # left unsorted, bisection would count both drowsy scores as misses
        tally = ScoreTally((9.0, 1.0), (0.5, 8.0))
        assert (tally.drowsy, tally.alert) == ((1.0, 9.0), (0.5, 8.0))
        assert tally.at(5.0) == ConfusionMatrix(tp=1, fp=1, tn=1, fn=1)

    def test_constructor_sorts_shuffled_scores(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        grid = threshold_grid()
        scores = st.one_of(st.sampled_from(grid), st.floats(0.0, 10.0))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(scores, max_size=30), st.lists(scores, max_size=30),
                          st.randoms(use_true_random=False))
        def check(drowsy, alert, rng):
            hypothesis.assume(drowsy or alert)
            shuffled = [rng.sample(column, len(column)) for column in (drowsy, alert)]
            tally = ScoreTally(*(iter(column) for column in shuffled))
            assert tally == ScoreTally(sorted(drowsy), sorted(alert))
            for t in grid:
                fn = sum(score < t for score in drowsy)
                tn = sum(score < t for score in alert)
                assert tally.at(t) == ConfusionMatrix(
                    tp=len(drowsy) - fn, fp=len(alert) - tn, tn=tn, fn=fn)

        check()

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            tally_of(FOUR_POINT).at(math.nan)

    def test_tally_matches_brute_force(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        grid = threshold_grid()
        on_grid = st.sampled_from(grid)
        # scores on a grid point, one ulp either side of it, or anywhere in [0, 10]
        scores = st.one_of(
            on_grid,
            st.builds(math.nextafter, on_grid, st.sampled_from([0.0, 10.0])),
            st.floats(0.0, 10.0),
        )
        labels = st.sampled_from(list(Label))

        def brute(data, threshold):
            drowsy = [s.score >= threshold for s in data if s.label is Label.DROWSY]
            alert = [s.score >= threshold for s in data if s.label is not Label.DROWSY]
            return ConfusionMatrix(
                tp=sum(drowsy), fp=sum(alert), tn=alert.count(False), fn=drowsy.count(False)
            )

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.lists(st.tuples(scores, labels), min_size=1, max_size=30), st.booleans()
        )
        def check(pairs, single_class):
            if single_class:
                pairs = [(score, pairs[0][1]) for score, _ in pairs]
            data = [ScoredSequence(i, score, label) for i, (score, label) in enumerate(pairs)]
            expected = {t: brute(data, t) for t in grid}
            given = tally_of(data)
            assert {t: given.at(t) for t in grid} == expected
            for point in sweep(given).points:
                rates = Rates.from_confusion(expected[point.threshold])
                assert (point.fpr, point.fnr, point.cost) == (
                    rates.fpr, rates.fnr, cost(rates)
                )
            cmp = compare_to_default(given, grid[3])
            opt = Rates.from_confusion(expected[grid[3]])
            dft = Rates.from_confusion(expected[DEFAULT_THRESHOLD])
            assert cmp.optimal == CurvePoint(grid[3], opt.fpr, opt.fnr, cost(opt))
            assert cmp.default == CurvePoint(DEFAULT_THRESHOLD, dft.fpr, dft.fnr, cost(dft))
            if single_class:
                with pytest.raises(DegenerateDataError, match=f"only {pairs[0][1].name} "):
                    optimize_threshold(given)

        check()

    def test_rates_identities(self):
        rates = Rates.from_confusion(ConfusionMatrix(tp=2, fp=1, tn=1, fn=0))
        assert (rates.fpr, rates.fnr, rates.tpr, rates.tnr) == (0.5, 0.0, 1.0, 0.5)
        assert rates.tpr + rates.fnr == 1.0
        assert rates.tnr + rates.fpr == 1.0
        assert rates.has_positives and rates.has_negatives

    def test_rates_degenerate_flags(self):
        no_positives = Rates.from_confusion(ConfusionMatrix(tp=0, fp=1, tn=1, fn=0))
        assert not no_positives.has_positives
        assert (no_positives.fnr, no_positives.tpr) == (0.0, 0.0)
        no_negatives = Rates.from_confusion(ConfusionMatrix(tp=1, fp=0, tn=0, fn=1))
        assert not no_negatives.has_negatives
        assert (no_negatives.fpr, no_negatives.tnr) == (0.0, 0.0)


def rates_for(fnr, fpr):
    return Rates(
        fpr=fpr, fnr=fnr, tpr=1 - fnr, tnr=1 - fpr, has_positives=True, has_negatives=True
    )


class TestCost:
    @pytest.mark.parametrize(
        "fnr,fpr,expected",
        [
            (0.061, 0.35, 0.472),
            (0.041, 0.22, 0.302),
            (0.043, 0.31, 0.396),
            (0.055, 0.36, 0.470),
            (0.064, 0.30, 0.428),
        ],
    )
    def test_misses_cost_double(self, fnr, fpr, expected):
        assert cost(rates_for(fnr, fpr)) == pytest.approx(expected)

    def test_custom_weights(self):
        assert cost(rates_for(0.1, 0.2), w_fn=1.0, w_fp=1.0) == pytest.approx(0.3)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            cost(rates_for(0.1, 0.2), w_fn=-1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["w_fn", "w_fp"])
    def test_non_finite_weights_rejected(self, name, weight):
        # a NaN cost would make every threshold tie, so min would keep the first
        with pytest.raises(ValueError, match="weights must be non-negative and finite"):
            cost(rates_for(0.1, 0.2), **{name: weight})


@pytest.mark.parametrize("weights", [{"w_fn": math.nan}, {"w_fp": math.inf}, {"w_fn": -1.0}])
def test_every_cost_caller_rejects_bad_weights(weights):
    data = tally_of(gen_score_dataset(ScoreDatasetSpec(50, 50, seed=1)))
    assert optimize_threshold(data)[0] == pytest.approx(14 / 3)
    calls = [
        lambda: sweep(data, **weights),
        lambda: optimize_threshold(data, **weights),
        lambda: compare_to_default(data, 14 / 3, **weights),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weights must be non-negative and finite"):
            call()


class TestSweep:
    def test_covers_grid_in_order(self):
        curve = sweep(tally_of(FOUR_POINT))
        assert [p.threshold for p in curve.points] == threshold_grid()

    def test_rates_are_monotone_in_threshold(self):
        for data in (FOUR_POINT, SKEWED):
            points = sweep(tally_of(data)).points
            for a, b in zip(points, points[1:]):
                assert b.fpr <= a.fpr
                assert b.fnr >= a.fnr


class TestOptimize:
    def test_four_point_optimum(self):
        threshold, rates = optimize_threshold(tally_of(FOUR_POINT))
        # cost is zero on (4, 6]; the first such grid point wins
        assert threshold == (10 + 3) / 3
        assert (rates.fpr, rates.fnr) == (0.0, 0.0)

    def test_all_tie_returns_first_grid_point(self):
        data = dataset((5, 0.0, Label.ALERT), (5, 10.0, Label.DROWSY))
        threshold, rates = optimize_threshold(tally_of(data))
        assert threshold == 10 / 3
        assert (rates.fpr, rates.fnr) == (0.0, 0.0)

    def test_separation_at_grid_top(self):
        # only the last grid point clears alert scores sitting just below 10
        data = dataset((5, 9.9, Label.ALERT), (5, 10.0, Label.DROWSY))
        threshold, rates = optimize_threshold(tally_of(data))
        assert threshold == 10.0
        assert (rates.fpr, rates.fnr) == (0.0, 0.0)

    def test_single_class_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            optimize_threshold(tally_of(dataset((10, 5.0, Label.ALERT))))
        with pytest.raises(DegenerateDataError):
            optimize_threshold(tally_of(dataset((10, 5.0, Label.DROWSY))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimize_threshold(tally_of([]))


class TestPercentChange:
    def test_values(self):
        assert percent_change(0.5, 0.25) == pytest.approx(-50.0)
        assert percent_change(0.2, 0.3) == pytest.approx(50.0)
        assert percent_change(0.3, 0.3) == 0.0

    def test_zero_base_is_undefined(self):
        assert percent_change(0.0, 0.1) is None


class TestCompareToDefault:
    def test_skewed_dataset(self):
        threshold, _ = optimize_threshold(tally_of(SKEWED))
        assert threshold == pytest.approx(13 / 3)
        cmp = compare_to_default(tally_of(SKEWED), threshold)
        assert cmp.optimal.threshold == threshold
        assert cmp.default.threshold == DEFAULT_THRESHOLD
        assert cmp.optimal.fpr == pytest.approx(0.31)
        assert cmp.optimal.fnr == pytest.approx(0.043)
        assert cmp.default.fpr == pytest.approx(0.21)
        assert cmp.default.fnr == pytest.approx(0.114)
        assert cmp.optimal.cost == pytest.approx(0.396)
        assert cmp.default.cost == pytest.approx(0.438)
        assert cmp.fpr_change_pct == pytest.approx(47.619, abs=1e-3)
        assert cmp.fnr_change_pct == pytest.approx(-62.2807, abs=1e-3)

    def test_change_none_when_default_rate_zero(self):
        data = dataset((5, 0.0, Label.ALERT), (5, 10.0, Label.DROWSY))
        cmp = compare_to_default(tally_of(data), 10 / 3)
        assert cmp.fpr_change_pct is None
        assert cmp.fnr_change_pct is None


class TestEnsemble:
    def test_model_weight(self):
        stats = ModelStats(model_id=1, tpr=0.959, tnr=0.78, threshold=5.0)
        assert model_weight(stats) == pytest.approx(2.698)

    def test_model_stats_validation(self):
        with pytest.raises(ValueError):
            ModelStats(model_id=1, tpr=1.2, tnr=0.5, threshold=5.0)
        with pytest.raises(ValueError):
            ModelStats(model_id=1, tpr=0.5, tnr=-0.1, threshold=5.0)

    def test_three_model_vote(self):
        result = weighted_vote([2.3, 2.1, 2.3], [1, 0, 1])
        assert result.total_weight == pytest.approx(6.7)
        assert result.prediction == pytest.approx(4.6 / 6.7, abs=1e-12)
        assert result.decision is Label.DROWSY

    def test_vote_derives_weights_from_stats(self):
        stats = [
            ModelStats(model_id=1, tpr=0.9, tnr=0.5, threshold=5.0),
            ModelStats(model_id=2, tpr=0.8, tnr=0.5, threshold=5.0),
            ModelStats(model_id=3, tpr=0.9, tnr=0.5, threshold=5.0),
        ]
        result = vote([1, 0, 1], stats)
        assert result.weights == pytest.approx((2.3, 2.1, 2.3))
        assert result.prediction == pytest.approx(4.6 / 6.7, abs=1e-12)

    def test_unanimity_is_exact(self):
        assert weighted_vote([1.5, 2.5], [1, 1]).prediction == 1.0
        assert weighted_vote([1.5, 2.5], [0, 0]).prediction == 0.0

    def test_tie_is_alert(self):
        result = weighted_vote([1.0, 1.0], [1, 0])
        assert result.prediction == 0.5
        assert result.decision is Label.ALERT

    def test_weight_scale_invariance(self):
        weights = [2.3, 2.1, 2.3, 0.5]
        decisions = [1, 0, 1, 1]
        base = weighted_vote(weights, decisions).prediction
        scaled = weighted_vote([w * 7 for w in weights], decisions).prediction
        assert abs(base - scaled) <= 1e-12

    def test_vote_errors(self):
        with pytest.raises(ValueError):
            weighted_vote([1.0], [1, 0])
        with pytest.raises(ValueError):
            weighted_vote([], [])
        # a NaN or infinite weight would make the prediction NaN, outside [0, 1]
        for weight in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="weights must be non-negative and finite"):
                weighted_vote([weight, 2.0], [1, 0])
        with pytest.raises(ValueError):
            weighted_vote([1.0, 2.0], [1, 2])
        with pytest.raises(DegenerateDataError):
            weighted_vote([0.0, 0.0], [1, 0])


class TestScoredSequence:
    def test_score_range(self):
        ScoredSequence(id=0, score=0.0, label=Label.ALERT)
        ScoredSequence(id=1, score=10.0, label=Label.DROWSY)
        with pytest.raises(ValueError):
            ScoredSequence(id=2, score=-0.1, label=Label.ALERT)
        with pytest.raises(ValueError):
            ScoredSequence(id=3, score=10.1, label=Label.DROWSY)

    def test_label_wire_values(self):
        assert int(Label.ALERT) == 0
        assert int(Label.DROWSY) == 10

    def test_a_plain_int_label_becomes_its_label(self, tmp_path):
        seq = ScoredSequence(0, 5.0, 10)
        assert seq.label is Label.DROWSY
        assert ScoredSequence(1, 5.0, 0).label is Label.ALERT
        # counted the same before and after a round trip through a file
        path = tmp_path / "scores.csv"
        write_scores_csv([seq], path)
        assert tally_of([seq]) == tally_of(read_scores_csv(path))
        assert tally_of([seq]) == ScoreTally((5.0,), ())

    def test_a_label_that_is_neither_class_is_rejected(self):
        with pytest.raises(ValueError, match="^7 is not a valid Label$"):
            ScoredSequence(0, 1.0, 7)


class TestSerialization:
    def test_scores_roundtrip(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(FOUR_POINT, path)
        assert read_scores_csv(path) == FOUR_POINT

    def test_scores_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_scores_csv(path)

    @pytest.mark.parametrize("seed", range(3))
    def test_folded_tally_equals_tally_of_read_rows(self, seed, tmp_path):
        path = tmp_path / "scores.csv"
        spec = ScoreDatasetSpec(
            n_alert=300, n_drowsy=200, alert_mean=4.0, alert_std=3.0,
            drowsy_mean=6.0, drowsy_std=3.0, seed=seed,
        )
        write_scores_csv(gen_score_dataset(spec), path)
        # a blank line, signed zeros, and labels in other forms that int() reads
        with open(path, "a") as fh:
            fh.write("\n900,0.0,00\n901,10,+10\n902,-0.0, 0\n903,3.5,1_0\n")
        tally = read_score_tally(path)
        assert tally == tally_of(read_scores_csv(path))
        assert len(tally.drowsy) + len(tally.alert) == 504

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("x,5.0,0", "invalid literal for int() with base 10: 'x'"),
            ("x,abc,7", "invalid literal for int() with base 10: 'x'"),
            ("1,abc,0", "could not convert string to float: 'abc'"),
            ("1,abc,7", "could not convert string to float: 'abc'"),
            ("1,5.0,5", "5 is not a valid Label"),
            ("1,5.0,y", "invalid literal for int() with base 10: 'y'"),
            ("1,11.0,7", "7 is not a valid Label"),
            ("1,11.0,0", "score must be within [0, 10], got 11.0"),
            ("1,nan,10", "score must be within [0, 10], got nan"),
            ("1,5.0", "expected 3 fields, got 2"),
        ],
    )
    def test_bad_row_reads_the_same_through_both_readers(self, row, reason, tmp_path):
        # errors take the order id, score, label, score range
        path = tmp_path / "scores.csv"
        path.write_text(f"id,score,label\n0,2.0,0\n{row}\n3,8.0,10\n")
        messages = []
        for read in (read_scores_csv, read_score_tally):
            with pytest.raises(ValueError) as info:
                read(path)
            messages.append(str(info.value))
        assert messages == [f"{path} line 3: {reason}"] * 2

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(sweep(tally_of(FOUR_POINT)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,fnr,cost"
        assert len(lines) == 22

    def test_model_stats_roundtrip(self, tmp_path):
        stats = [
            ModelStats(model_id=1, tpr=0.9, tnr=0.5, threshold=13 / 3),
            ModelStats(model_id=2, tpr=0.8, tnr=0.7, threshold=5.0),
        ]
        path = tmp_path / "models.json"
        path.write_text(json.dumps([dataclasses.asdict(s) for s in stats]))
        assert read_model_stats_json(path) == stats

    def test_model_stats_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model_id": 1}')
        with pytest.raises(ValueError):
            read_model_stats_json(path)
