import csv
import math
import re
import statistics
import sys
from array import array

import pytest

from drowsebench.blink import (
    Blink,
    BlinkDetectionConfig,
    BlinkFeatures,
    EarSeries,
    detect_blinks,
    extract_all_features,
    read_ear_csv,
    write_ear_csv,
    write_features_csv,
)
from drowsebench.synth import evenly_spaced_script, gen_ear_series


def series_of(values, fps=30.0, first=0):
    n = len(values)
    return EarSeries(range(first, first + n), [round(k * 1e6 / fps) for k in range(n)], values)


class TestEarSeries:
    # built unchecked, (0, 5, 1, 2, 3) would fail only in feature extraction,
    # with "blink frame 5 not present in series"
    @pytest.mark.parametrize("frame_ids, pair", [((0, 1, 1), (1, 1)), ((0, 2, 1), (2, 1)),
                                                 ((3, 2, 1), (3, 2)), ((0, 5, 1, 2, 3), (5, 1))])
    def test_rejects_frame_ids_that_do_not_increase(self, frame_ids, pair):
        n = len(frame_ids)
        message = f"^frame_id {pair[1]} does not follow {pair[0]}$"
        for column in (frame_ids, array("q", frame_ids)):
            with pytest.raises(ValueError, match=message):
                EarSeries(column, range(n), [0.3] * n)

    @pytest.mark.parametrize("lengths", [(2, 1, 2), (3, 3, 0), (0, 1, 1)])
    def test_rejects_columns_of_unequal_length(self, lengths):
        columns = [range(lengths[0]), range(lengths[1]), [0.3] * lengths[2]]
        message = re.escape(f"columns differ in length: {list(lengths)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            EarSeries(*columns)

    # unchecked, this series gave one blink with min_ear=-1.0 and lost the
    # closed run at frames 1-3, which the NaN split
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejects_an_ear_that_is_not_finite_and_non_negative(self, bad):
        ear = [0.3, 0.1, bad, 0.1, 0.3, -1.0, -1.0, 0.3]
        with pytest.raises(ValueError, match=f"^ear must be finite and non-negative, got {bad}$"):
            EarSeries(range(8), range(8), ear)

    def test_accepts_negative_zero_and_the_largest_ear(self):
        # as in read_ear_csv, -0.0 is not below 0
        ear = [-0.0, sys.float_info.max, sys.float_info.max]
        assert EarSeries(range(3), range(3), ear).ear.tolist() == ear

    def test_columns_are_typed_arrays_and_a_series_is_unhashable(self):
        series = EarSeries((0, 1), (0, 33), (0.3, 0.2))
        assert [(c.typecode, c.tolist()) for c in (series.frame_id, series.ts_us, series.ear)] == [
            ("q", [0, 1]), ("q", [0, 33]), ("d", [0.3, 0.2])
        ]
        with pytest.raises(TypeError, match="unhashable type: 'EarSeries'"):
            hash(series)


class TestDetectBlinks:
    def test_constant_open_series(self):
        assert detect_blinks(series_of([0.35] * 50)) == []

    def test_single_square_dip(self):
        values = [0.35] * 20 + [0.10] * 5 + [0.35] * 20
        blinks = detect_blinks(series_of(values))
        assert blinks == [
            Blink(start_frame=19, apex_frame=20, end_frame=25, min_ear=0.10, baseline_ear=0.35)
        ]
        # closed run sits strictly between the shoulders
        assert blinks[0].end_frame - blinks[0].start_frame - 1 == 5

    def test_min_closed_frames_filters_single_frame_dips(self):
        values = [0.35] * 10 + [0.1] + [0.35] * 10
        assert detect_blinks(series_of(values)) == []
        blinks = detect_blinks(series_of(values), BlinkDetectionConfig(min_closed_frames=1))
        assert len(blinks) == 1
        assert (blinks[0].start_frame, blinks[0].apex_frame, blinks[0].end_frame) == (9, 10, 11)

    def test_shoulders_clamp_to_series_edges(self):
        starts_closed = detect_blinks(series_of([0.1, 0.1] + [0.35] * 10))
        assert (starts_closed[0].start_frame, starts_closed[0].end_frame) == (0, 2)
        assert starts_closed[0].baseline_ear == 0.1  # no preceding samples to use

        ends_closed = detect_blinks(series_of([0.35] * 10 + [0.1, 0.1]))
        assert (ends_closed[0].start_frame, ends_closed[0].end_frame) == (9, 11)

    def test_adjacent_blinks_share_one_open_sample(self):
        values = [0.35] * 5 + [0.1, 0.1] + [0.35] + [0.1, 0.1] + [0.35] * 5
        blinks = detect_blinks(series_of(values))
        assert len(blinks) == 2
        assert (blinks[0].start_frame, blinks[0].end_frame) == (4, 7)
        assert (blinks[1].start_frame, blinks[1].end_frame) == (7, 10)

    def test_apex_is_earliest_minimum(self):
        values = [0.35] * 5 + [0.1, 0.05, 0.05, 0.1] + [0.35] * 5
        blinks = detect_blinks(series_of(values))
        assert blinks[0].apex_frame == 6
        assert blinks[0].min_ear == 0.05

    def test_baseline_clamped_to_min_ear(self):
        # the shallow second dip's preceding window is dominated by the
        # deep first dip, so the raw median would undershoot its trough
        values = [0.35] * 3 + [0.05] * 6 + [0.35] + [0.15] * 3 + [0.35] * 5
        blinks = detect_blinks(series_of(values))
        assert len(blinks) == 2
        assert blinks[0].baseline_ear == 0.35
        assert blinks[1].min_ear == 0.15
        assert blinks[1].baseline_ear == 0.15

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            detect_blinks(EarSeries((), (), ()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlinkDetectionConfig(close_threshold=0.0)
        with pytest.raises(ValueError):
            BlinkDetectionConfig(min_closed_frames=0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_close_threshold_must_be_positive_and_finite(self, threshold):
        with pytest.raises(ValueError, match="close_threshold must be positive and finite"):
            BlinkDetectionConfig(close_threshold=threshold)

    def test_matches_brute_force_runs_on_random_series(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def cases(draw):
            threshold = draw(st.sampled_from([0.15, 0.2, 0.3]))
            # samples exactly at the threshold are open
            value = st.one_of(st.sampled_from([0.0, threshold, 0.1, 0.35]), st.floats(0.0, 0.5))
            ear = draw(st.lists(value, min_size=1, max_size=40))
            first, step = draw(st.integers(-5, 5)), draw(st.integers(1, 3))
            frame_ids = [first + step * k for k in range(len(ear))]
            ts_us = [33333 * k for k in range(len(ear))]
            if draw(st.booleans()):
                series = EarSeries(tuple(frame_ids), tuple(ts_us), tuple(ear))
            else:
                series = EarSeries(array("q", frame_ids), array("q", ts_us), array("d", ear))
            config = BlinkDetectionConfig(threshold, draw(st.integers(1, 4)))
            return ear, frame_ids, config, series

        def brute_force_blinks(ear, frame_ids, config):
            """Every span (i, j) that is closed throughout and open, or the edge, beyond it."""
            n, closed = len(ear), [e < config.close_threshold for e in ear]
            blinks = []
            for i in range(n):
                for j in range(i + config.min_closed_frames - 1, n):
                    if (all(closed[i : j + 1]) and (i == 0 or not closed[i - 1])
                            and (j == n - 1 or not closed[j + 1])):
                        start, end = max(i - 1, 0), min(j + 1, n - 1)
                        min_ear = min(ear[i : j + 1])
                        apex = ear.index(min_ear, i)
                        preceding = ear[max(0, start - 10) : start] or [ear[start]]
                        blinks.append(Blink(frame_ids[start], frame_ids[apex], frame_ids[end],
                                            min_ear, max(statistics.median(preceding), min_ear)))
            return blinks

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(cases())
        # runs touching both ends, and a run of one sample at each end
        @hypothesis.example(([0.1, 0.1, 0.35, 0.1], [0, 1, 2, 3], BlinkDetectionConfig(0.2, 1),
                             EarSeries((0, 1, 2, 3), (0, 1, 2, 3), (0.1, 0.1, 0.35, 0.1))))
        @hypothesis.example(([0.1], [7], BlinkDetectionConfig(0.2, 1),
                             EarSeries((7,), (0,), (0.1,))))
        def check(case):
            ear, frame_ids, config, series = case
            assert detect_blinks(series, config) == brute_force_blinks(ear, frame_ids, config)

        check()


# Oracle for the property test below: the straightforward per-blink
# computation, which rebuilds the index and rescans every earlier apex.
def reference_extract_features(
    blink: Blink,
    series,
    fps: float,
    recent_apex_times_s=(),
) -> BlinkFeatures:
    """Compute one blink's features from its source series.

    ``recent_apex_times_s`` holds apex times (seconds, ``frame / fps``)
    of earlier blinks; frequency counts those within the trailing 60 s
    window plus this blink itself.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    index_of = {frame_id: k for k, frame_id in enumerate(series.frame_id)}
    try:
        start = index_of[blink.start_frame]
        apex = index_of[blink.apex_frame]
    except KeyError as exc:
        raise ValueError(f"blink frame {exc} not present in series") from None

    amplitude = blink.baseline_ear - blink.min_ear
    drops = [series.ear[k] - series.ear[k + 1] for k in range(start, apex)]
    velocity = max(drops, default=0.0) * fps
    duration_s = (blink.end_frame - blink.start_frame + 1) / fps

    apex_time_s = blink.apex_frame / fps
    recent = sum(1 for t in recent_apex_times_s if apex_time_s - 60.0 < t <= apex_time_s)
    return BlinkFeatures(
        amplitude=amplitude,
        velocity=velocity,
        duration_s=duration_s,
        freq_per_min=float(recent + 1),
    )


def reference_extract_all_features(blinks, series, fps):
    """The per-blink oracle: one full lookup and window rescan per blink."""
    features = []
    apex_times: list[float] = []
    for blink in blinks:
        features.append(reference_extract_features(blink, series, fps, apex_times))
        apex_times.append(blink.apex_frame / fps)
    return features


class TestExtractFeatures:
    def hand_fixture(self):
        values = [0.35] * 10 + [0.30, 0.25, 0.20, 0.15, 0.10]
        blink = Blink(
            start_frame=10, apex_frame=14, end_frame=14, min_ear=0.10, baseline_ear=0.35
        )
        return blink, series_of(values)

    def test_hand_computed_features(self):
        blink, series = self.hand_fixture()
        [feats] = extract_all_features([blink], series, fps=30.0)
        assert feats.amplitude == pytest.approx(0.25)
        assert feats.velocity == pytest.approx(0.05 * 30)
        assert feats.duration_s == pytest.approx(5 / 30)
        assert feats.freq_per_min == 1.0

    def test_frequency_counts_trailing_minute(self):
        # apexes at 59, 60, 60.1, 90 and 120 s; each window is (apex - 60, apex],
        # so at 120 s the blinks exactly 60 s old or older fall out
        values = [0.35] * 3602
        for apex in (1770, 1800, 1803, 2700, 3600):
            values[apex : apex + 2] = [0.1, 0.15]
        series = series_of(values)
        blinks = detect_blinks(series)
        assert [b.apex_frame / 30.0 for b in blinks] == [59.0, 60.0, 60.1, 90.0, 120.0]
        feats = extract_all_features(blinks, series, fps=30.0)
        assert [f.freq_per_min for f in feats] == [1.0, 2.0, 3.0, 4.0, 3.0]

    def test_apex_at_start_has_zero_velocity(self):
        series = series_of([0.35] * 4 + [0.1, 0.1, 0.35])
        blink = Blink(start_frame=4, apex_frame=4, end_frame=6, min_ear=0.1, baseline_ear=0.35)
        assert extract_all_features([blink], series, fps=30.0)[0].velocity == 0.0

    def test_errors(self):
        blink, series = self.hand_fixture()
        for fps in (0, -30.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="fps must be positive and finite"):
                extract_all_features([blink], series, fps=fps)
        with pytest.raises(ValueError, match="blink frame 10 not present in series"):
            extract_all_features([blink], series_of([0.35] * 5), fps=30.0)
        with pytest.raises(ValueError, match="apex_frame 14 does not follow 14"):
            extract_all_features([blink, blink], series, fps=30.0)
        earlier = Blink(start_frame=9, apex_frame=13, end_frame=14, min_ear=0.15,
                        baseline_ear=0.35)
        with pytest.raises(ValueError, match="apex_frame 13 does not follow 14"):
            extract_all_features([blink, earlier], series, fps=30.0)

    def test_extract_all_accumulates_frequency(self):
        series, truth = gen_ear_series(evenly_spaced_script(3))
        feats = extract_all_features(truth, series, fps=30.0)
        assert [f.freq_per_min for f in feats] == [1.0, 2.0, 3.0]

    def test_matches_per_blink_reference_on_random_series(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        open_ear = st.sampled_from([0.2, 0.25, 0.3, 0.35, 0.4])
        closed_ear = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.19]), st.floats(0.0, 0.199))

        @st.composite
        def recordings(draw):
            # integer and non-integer fps; at 0.5, 1.5, 7.5 and 29.95 fps a
            # whole number of frames spans exactly 60 s
            fps = draw(st.sampled_from([0.5, 1.5, 7.5, 29.95, 29.97, 30.0]))
            minute = round(60 * fps)
            values: list[float] = []
            last_apex = None
            for _ in range(draw(st.integers(0, 6))):
                if last_apex is not None and draw(st.booleans()):
                    # next apex exactly one minute of frames after the last;
                    # the run opens on its strict minimum so that is its apex
                    gap = max(last_apex + minute - len(values), 0)
                    values += [draw(open_ear)] * gap
                    run = [0.0] + draw(st.lists(st.floats(0.01, 0.199), max_size=3))
                else:
                    # gaps of 0 merge runs or touch the series start, 1 makes
                    # adjacent blinks share an open sample, < 10 shortens the
                    # baseline window
                    values += draw(st.lists(open_ear, max_size=12))
                    run = draw(st.lists(closed_ear, min_size=1, max_size=4))
                last_apex = len(values) + run.index(min(run))
                values += run
            values += draw(st.lists(open_ear, min_size=0 if values else 1, max_size=12))
            first = draw(st.integers(0, 5000))
            series = series_of(values, fps, first)
            config = BlinkDetectionConfig(min_closed_frames=draw(st.integers(1, 3)))
            return series, fps, config

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(recordings())
        def check(recording):
            series, fps, config = recording
            blinks = detect_blinks(series, config)
            assert extract_all_features(blinks, series, fps) == reference_extract_all_features(
                blinks, series, fps
            )

        check()


def features(a, v, d, f):
    return BlinkFeatures(amplitude=a, velocity=v, duration_s=d, freq_per_min=f)


class TestCsv:
    def test_ear_roundtrip(self, tmp_path):
        series = series_of([0.35, 0.2, 0.1])
        path = tmp_path / "ear.csv"
        write_ear_csv(series, path)
        assert read_ear_csv(path) == series

    def test_ear_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_ear_csv(path)

    def test_ear_bad_rows_name_their_line(self, tmp_path):
        path = tmp_path / "ear.csv"
        for bad_row, message in [
            ("2,66667", "expected 3 fields, got 2"),
            ("x,66667,0.3", "invalid literal"),
            ("2,66667,inf", "ear must be finite and non-negative, got inf"),
            ("2,66667,-0.1", "ear must be finite and non-negative, got -0.1"),
            ("1,66667,0.3", "frame_id 1 does not follow 1"),
        ]:
            path.write_text(f"frame_id,ts_us,ear\n0,0,0.3\n1,33333,0.3\n{bad_row}\n")
            with pytest.raises(ValueError, match="^" + re.escape(f"{path} line 4: {message}")):
                read_ear_csv(path)

    def test_features_rows_are_enumerated(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv([features(0.2, 1.0, 0.1, 1.0), features(0.3, 2.0, 0.2, 2.0)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["blink_id", "amplitude", "velocity", "duration_s", "freq_per_min"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert float(rows[2][1]) == 0.3
