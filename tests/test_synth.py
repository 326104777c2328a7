import math

import pytest

from drowsebench.blink import BlinkDetectionConfig, detect_blinks
from drowsebench.decision import Label, ScoreTally, optimize_threshold
from drowsebench.synth import (
    BlinkScript,
    ScoreDatasetSpec,
    ScriptedBlink,
    evenly_spaced_script,
    gen_ear_series,
    gen_score_dataset,
)


def blink(onset=20, closed=4, trough=0.10, baseline=0.35, descent=3):
    return ScriptedBlink(
        onset_frame=onset,
        closed_frames=closed,
        trough_ear=trough,
        baseline_ear=baseline,
        descent_frames=descent,
    )


class TestScriptedBlink:
    def test_apex_and_end(self):
        b = blink(onset=20, closed=4, descent=3)
        assert b.apex_frame == 23
        assert b.end_frame == 29  # 20 + 2*3 + 4 - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            blink(onset=-1)
        with pytest.raises(ValueError):
            blink(closed=0)
        with pytest.raises(ValueError):
            blink(descent=0)
        with pytest.raises(ValueError):
            blink(trough=0.35, baseline=0.35)
        with pytest.raises(ValueError):
            blink(trough=-0.01)
        for baseline in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^baseline_ear must be finite, got {baseline}"):
                blink(baseline=baseline)


class TestBlinkScript:
    def test_rejects_overlapping_blinks(self):
        first = blink(onset=10)
        with pytest.raises(ValueError):
            BlinkScript(
                blinks=(first, blink(onset=first.end_frame)), fps=30, total_frames=200
            )

    def test_rejects_uncovered_blink(self):
        b = blink(onset=10)
        with pytest.raises(ValueError):
            BlinkScript(blinks=(b,), fps=30, total_frames=b.end_frame)
        BlinkScript(blinks=(b,), fps=30, total_frames=b.end_frame + 1)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            BlinkScript(blinks=(), fps=0, total_frames=10)
        with pytest.raises(ValueError):
            BlinkScript(blinks=(), fps=30, total_frames=0)
        with pytest.raises(ValueError):
            BlinkScript(blinks=(), fps=30, total_frames=10, noise_std=-0.1)
        for open_ear in (-1.0, math.nan, math.inf):
            with pytest.raises(
                ValueError, match=f"^open_ear must be non-negative and finite, got {open_ear}"
            ):
                BlinkScript(blinks=(), fps=30, total_frames=10, open_ear=open_ear)

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fps(self, fps):
        with pytest.raises(ValueError, match="^fps must be positive and finite, got"):
            BlinkScript(blinks=(), fps=fps, total_frames=10)

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, noise_std):
        with pytest.raises(ValueError, match="^noise_std must be non-negative and finite, got"):
            BlinkScript(blinks=(), fps=30, total_frames=10, noise_std=noise_std)


class TestGenEarSeries:
    def test_blink_free_script_is_flat(self):
        script = evenly_spaced_script(0)
        series, truth = gen_ear_series(script)
        assert truth == []
        assert len(series) == 60
        assert all(ear == script.open_ear for ear in series.ear)

    def test_noise_free_output_ignores_seed(self):
        base = dict(blinks=(blink(),), fps=30, total_frames=60, noise_std=0.0)
        a, _ = gen_ear_series(BlinkScript(seed=1, **base))
        b, _ = gen_ear_series(BlinkScript(seed=2, **base))
        assert a == b

    def test_noise_is_seeded_and_clamped(self):
        base = dict(blinks=(), fps=30, total_frames=60, noise_std=0.5, open_ear=0.35)
        a, _ = gen_ear_series(BlinkScript(seed=9, **base))
        b, _ = gen_ear_series(BlinkScript(seed=9, **base))
        c, _ = gen_ear_series(BlinkScript(seed=10, **base))
        assert a == b
        assert a != c
        values = list(a.ear)
        assert min(values) == 0.0  # heavy noise must have been clamped somewhere
        assert all(v >= 0.0 for v in values)

    def test_waveform_hand_values(self):
        b = blink(onset=10, closed=3, trough=0.10, baseline=0.35, descent=5)
        series, _ = gen_ear_series(BlinkScript(blinks=(b,), fps=30, total_frames=40))
        values = list(series.ear)
        assert values[:11] == [0.35] * 11  # baseline through the onset shoulder
        assert values[11:16] == pytest.approx([0.30, 0.25, 0.20, 0.15, 0.10])
        assert values[15:18] == [0.10] * 3  # closed plateau
        assert values[18:23] == pytest.approx([0.15, 0.20, 0.25, 0.30, 0.35])
        assert b.end_frame == 22
        assert values[23:] == [0.35] * 17

    def test_trough_is_exact_at_apex(self):
        b = blink(trough=0.07)
        series, truth = gen_ear_series(BlinkScript(blinks=(b,), fps=30, total_frames=60))
        assert series.ear[b.apex_frame] == 0.07
        assert truth[0].min_ear == 0.07

    def test_timestamps_follow_frame_rate(self):
        series, _ = gen_ear_series(evenly_spaced_script(0, fps=30))
        assert series.ts_us[:4].tolist() == [0, 33333, 66667, 100000]

    def test_detector_recovers_script_exactly(self):
        blinks = (
            blink(onset=15, closed=2, trough=0.05, baseline=0.32, descent=2),
            blink(onset=50, closed=5, trough=0.12, baseline=0.32, descent=4),
            blink(onset=100, closed=3, trough=0.08, baseline=0.32, descent=6),
        )
        script = BlinkScript(blinks=blinks, fps=30, total_frames=140)
        series, truth = gen_ear_series(script)
        # threshold in the open band: above every ramp sample, at or
        # below the baseline
        shoulder_gap = min((b.baseline_ear - b.trough_ear) / b.descent_frames for b in blinks)
        config = BlinkDetectionConfig(close_threshold=0.32 - shoulder_gap / 2)
        assert detect_blinks(series, config) == truth

    def test_evenly_spaced_script_layout(self):
        script = evenly_spaced_script(3)
        assert [b.onset_frame for b in script.blinks] == [20, 60, 100]
        assert script.total_frames == script.blinks[-1].end_frame + 21
        series, truth = gen_ear_series(script)
        # the default 0.2 threshold sits below the first ramp step, so
        # detected shoulders land one frame inside the scripted ones;
        # apex, trough and count still line up
        detected = detect_blinks(series)
        assert [(b.apex_frame, b.min_ear) for b in detected] == [
            (b.apex_frame, b.min_ear) for b in truth
        ]
        # a threshold above every ramp sample recovers the script exactly
        config = BlinkDetectionConfig(close_threshold=0.35 - 0.25 / 6)
        assert detect_blinks(series, config) == truth


class TestScoreDataset:
    def test_counts_labels_and_ids(self):
        data = gen_score_dataset(ScoreDatasetSpec(n_alert=3, n_drowsy=2, seed=5))
        assert [s.id for s in data] == [0, 1, 2, 3, 4]
        assert [s.label for s in data] == [Label.ALERT] * 3 + [Label.DROWSY] * 2
        assert all(0.0 <= s.score <= 10.0 for s in data)

    def test_deterministic_per_spec(self):
        spec = ScoreDatasetSpec(n_alert=20, n_drowsy=20, seed=123)
        assert gen_score_dataset(spec) == gen_score_dataset(spec)
        other = ScoreDatasetSpec(n_alert=20, n_drowsy=20, seed=124)
        assert gen_score_dataset(spec) != gen_score_dataset(other)

    def test_scores_clamped_to_scale(self):
        data = gen_score_dataset(
            ScoreDatasetSpec(
                n_alert=10, n_drowsy=10, alert_mean=-5.0, alert_std=0.1,
                drowsy_mean=15.0, drowsy_std=0.1, seed=0,
            )
        )
        assert all(s.score == 0.0 for s in data if s.label is Label.ALERT)
        assert all(s.score == 10.0 for s in data if s.label is Label.DROWSY)

    def test_single_class_dataset(self):
        data = gen_score_dataset(ScoreDatasetSpec(n_alert=0, n_drowsy=4, seed=1))
        assert len(data) == 4
        assert all(s.label is Label.DROWSY for s in data)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScoreDatasetSpec(n_alert=-1, n_drowsy=5)
        with pytest.raises(ValueError):
            ScoreDatasetSpec(n_alert=0, n_drowsy=0)
        with pytest.raises(ValueError):
            ScoreDatasetSpec(n_alert=1, n_drowsy=1, alert_std=-1.0)

    @pytest.mark.parametrize("field", ["alert_mean", "alert_std", "drowsy_mean", "drowsy_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite_moments(self, field, value):
        with pytest.raises(ValueError, match="^class means and stds must be finite"):
            ScoreDatasetSpec(n_alert=1, n_drowsy=1, **{field: value})

    def test_separable_classes_optimize_cleanly(self):
        spec = ScoreDatasetSpec(
            n_alert=200, n_drowsy=200, alert_mean=2.0, alert_std=0.5,
            drowsy_mean=8.0, drowsy_std=0.5, seed=7,
        )
        data = gen_score_dataset(spec)
        tally = ScoreTally([s.score for s in data if s.label is Label.DROWSY],
                           [s.score for s in data if s.label is Label.ALERT])
        _, rates = optimize_threshold(tally)
        assert 2 * rates.fnr + rates.fpr < 0.05
