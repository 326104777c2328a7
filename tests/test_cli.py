import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import drowsebench
from drowsebench.blink import EarSample, read_ear_csv, write_ear_csv
from drowsebench.cli import main
from drowsebench.decision import Label, ModelStats, ScoredSequence, write_model_stats_json
from drowsebench.decision import read_scores_csv, write_scores_csv
from drowsebench.pipeline import TimingRecord, read_timings_csv, write_timings_csv
from drowsebench.transport import RoundTripRecord, read_rtt_csv, write_rtt_csv

MEAN_STD = re.compile(r"\d+\.\d{3} ± \d+\.\d{3}")


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def write_skewed_scores(path):
    """65 alert at 0 / 35 at 10; 61 drowsy at 0 / 939 at 3.5."""
    sequences = []
    groups = [
        (65, 0.0, Label.ALERT),
        (35, 10.0, Label.ALERT),
        (61, 0.0, Label.DROWSY),
        (939, 3.5, Label.DROWSY),
    ]
    for count, score, label in groups:
        for _ in range(count):
            sequences.append(ScoredSequence(id=len(sequences), score=score, label=label))
    write_scores_csv(sequences, path)


def single_set_profile(tmp_path):
    path = tmp_path / "stages.json"
    path.write_text(
        '{"stages": ['
        '{"name": "face", "mean_ms": 17.177, "std_ms": 0.816},'
        '{"name": "landmark", "mean_ms": 2.543, "std_ms": 0.121},'
        '{"name": "blink", "mean_ms": 0.835, "std_ms": 0.063}]}'
    )
    return path


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["no-such-command"],
            ["echo-server"],
            ["stream-bench"],
            ["stream-bench", "--connect", "h:1", "--loopback"],
            ["stream-bench", "--loopback", "--res", "640"],
            ["stream-bench", "--loopback", "--fps", "0"],
            ["stream-bench", "--loopback", "--frames", "1"],
            ["stream-bench", "--connect", "nohost"],
            ["vote", "--stats", "x.json"],
            ["gen", "ear", "--blinks", "1", "--fps", "inf", "--out", "x.csv"],
            ["pipeline-bench", "--profile", "x.json", "--fps", "nan"],
            ["optimize", "--scores", "x.csv", "--w-fn", "nan"],
            ["optimize", "--scores", "x.csv", "--w-fp", "inf"],
        ],
    )
    def test_exit_code_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage" in capsys.readouterr().err


TIMINGS = [TimingRecord(0, 0.0, 2000.0, 3000.0, 3500.0),
           TimingRecord(1, 33333.0, 35500.0, 36750.0, 37000.0)]

# writer, records, reader, what it reads back, and the command that reads the file
CSV_FORMATS = {
    "ear": (
        write_ear_csv,
        [EarSample(k, k * 33333, ear) for k, ear in enumerate([0.3, 0.1, 0.1, 0.3])],
        read_ear_csv,
        None,
        ["detect", "--in"],
    ),
    "scores": (
        write_scores_csv,
        [ScoredSequence(0, 2.0, Label.ALERT), ScoredSequence(1, 8.0, Label.DROWSY),
         ScoredSequence(2, 4.5, Label.ALERT)],
        read_scores_csv,
        None,
        ["optimize", "--scores"],
    ),
    "timings": (
        write_timings_csv,
        TIMINGS,
        read_timings_csv,
        [{"frame_id": r.frame_id, "face_ms": r.face_ms, "landmark_ms": r.landmark_ms,
          "blink_ms": r.blink_ms, "total_ms": r.total_ms} for r in TIMINGS],
        ["report", "--in"],
    ),
    "rtt": (
        write_rtt_csv,
        [RoundTripRecord(0, 5, 10, 5, None), RoundTripRecord(1, 40, 45, 5, 35),
         RoundTripRecord(2, 70, 81, 11, 36)],
        read_rtt_csv,
        None,
        ["report", "--in"],
    ),
}


@pytest.mark.parametrize("fmt", CSV_FORMATS)
def test_csv_rules(fmt, tmp_path, capsys):
    write, records, read, parsed, command = CSV_FORMATS[fmt]
    parsed = records if parsed is None else parsed
    path = tmp_path / f"{fmt}.csv"
    write(records, path)
    assert read(path) == parsed
    assert main([*command, str(path)]) == 0
    header, *rows = path.read_text().splitlines()

    # blank lines are skipped wherever they are
    path.write_text("\n".join([header, "", rows[0], "", *rows[1:], ""]) + "\n")
    assert read(path) == parsed
    assert main([*command, str(path)]) == 0
    capsys.readouterr()

    width = len(header.split(","))
    for bad_row, got in [(rows[1].rsplit(",", 1)[0], width - 1), (rows[1] + ",7", width + 1)]:
        path.write_text("\n".join([header, rows[0], bad_row, *rows[2:]]) + "\n")
        assert main([*command, str(path)]) == 2
        assert f"error: {path} line 3: expected {width} fields, got {got}\n" in (
            capsys.readouterr().err
        )

    path.write_text("\n".join(["a,b,c", *rows]) + "\n")
    with pytest.raises(ValueError, match="^unexpected header"):
        read(path)
    assert main([*command, str(path)]) == 2


class TestStreamBench:
    def test_loopback_run(self, capsys):
        rc = main(["stream-bench", "--loopback", "--fps", "200", "--frames", "10",
                   "--res", "16x12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stream-bench: 10 frames at 200.0 fps" in out
        assert "16x12" in out
        assert "0.922" in out  # 16*12*24*200 bits = 0.9216 Mbit/s

    def test_json_output(self, capsys):
        rc = main(["stream-bench", "--loopback", "--fps", "200", "--frames", "10",
                   "--res", "16x12", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["resolutions"][0]
        assert entry["resolution"] == "16x12"
        assert entry["inter_arrival_us"]["count"] == 9
        assert entry["raw_bandwidth_bps"] == 921_600

    def test_out_prefix_writes_csv(self, tmp_path, capsys):
        prefix = tmp_path / "rtt"
        rc = main(["stream-bench", "--loopback", "--fps", "200", "--frames", "10",
                   "--res", "16x12,8x8", "--out", str(prefix)])
        assert rc == 0
        for res in ("16x12", "8x8"):
            records = read_rtt_csv(tmp_path / f"rtt-{res}.csv")
            assert len(records) == 10

    def test_dead_endpoint(self, capsys):
        rc = main(["stream-bench", "--connect", f"127.0.0.1:{free_port()}",
                   "--fps", "100", "--frames", "2", "--res", "8x8"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPipelineBench:
    def test_missing_profile_file(self, capsys):
        assert main(["pipeline-bench", "--profile", "/no/such/file.json"]) == 2

    def test_single_set_run(self, tmp_path, capsys):
        profile = single_set_profile(tmp_path)
        rc = main(["pipeline-bench", "--profile", str(profile), "--frames", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "default" in out
        assert "stable" in out and "unstable" not in out
        assert "average" not in out  # only added for multi-set files

    def test_device_file_adds_average_row(self, profiles_dir, capsys):
        rc = main(["pipeline-bench", "--profile", str(profiles_dir / "jetson-nano.json"),
                   "--frames", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("320x240", "640x480", "960x540", "1280x720", "average"):
            assert name in out
        assert "unstable" in out  # 30 fps is beyond this device everywhere

    def test_deterministic_output(self, profiles_dir, capsys):
        argv = ["pipeline-bench", "--profile", str(profiles_dir / "mini-pc.json"),
                "--frames", "45", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_and_out(self, tmp_path, capsys):
        profile = single_set_profile(tmp_path)
        prefix = tmp_path / "timings"
        rc = main(["pipeline-bench", "--profile", str(profile), "--frames", "40",
                   "--json", "--out", str(prefix)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["profile"] for p in payload["profiles"]] == ["default"]
        assert payload["profiles"][0]["stable"] is True
        rows = read_timings_csv(tmp_path / "timings-default.csv")
        assert len(rows) == 40

    def test_non_finite_profile_is_rejected(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; neither is a service time
        path = tmp_path / "nan.json"
        path.write_text(
            '{"stages": [{"name": "face", "mean_ms": NaN},'
            ' {"name": "landmark", "mean_ms": 2.0},'
            ' {"name": "blink", "mean_ms": 1.0, "std_ms": Infinity}]}'
        )
        assert main(["pipeline-bench", "--profile", str(path)]) == 2
        assert "mean_ms must be positive and finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"stages": [{"mean_ms": 1.0}]}', "missing key 'name'"),
            ('{"stages": [1, 2, 3]}', "every stage entry must be a JSON object"),
            ('{"resolutions": {"320x240": [1]}}', "list indices must be integers"),
            ('{"stages": [', "Expecting value"),
        ],
    )
    def test_malformed_profile_names_the_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["pipeline-bench", "--profile", str(path)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err


def write_ear_rows(path, rows):
    path.write_text("frame_id,ts_us,ear\n" + "".join(f"{f},{t},{e}\n" for f, t, e in rows))


class TestDetect:
    def test_gen_then_detect(self, tmp_path, capsys):
        ear_csv = tmp_path / "ear.csv"
        assert main(["gen", "ear", "--blinks", "3", "--out", str(ear_csv)]) == 0
        assert "(3 blinks)" in capsys.readouterr().out

        features_csv = tmp_path / "features.csv"
        rc = main(["detect", "--in", str(ear_csv), "--out", str(features_csv)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "detect: 3 blinks in 130 samples" in out
        assert f"wrote 3 feature rows to {features_csv}" in out
        assert features_csv.read_text().count("\n") == 4  # header + 3 rows

    def test_empty_series_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("frame_id,ts_us,ear\n")
        assert main(["detect", "--in", str(path)]) == 3

    def test_bad_threshold_is_usage_error(self, tmp_path):
        ear_csv = tmp_path / "ear.csv"
        assert main(["gen", "ear", "--blinks", "1", "--out", str(ear_csv)]) == 0
        assert main(["detect", "--in", str(ear_csv), "--close-threshold", "0"]) == 1
        for fps in ("nan", "inf"):
            assert main(["detect", "--in", str(ear_csv), "--fps", fps]) == 1

    def test_missing_file(self):
        assert main(["detect", "--in", "/no/such/ear.csv"]) == 2

    def test_json_blink_fields(self, tmp_path, capsys):
        ear_csv = tmp_path / "ear.csv"
        assert main(["gen", "ear", "--blinks", "2", "--out", str(ear_csv)]) == 0
        capsys.readouterr()
        assert main(["detect", "--in", str(ear_csv), "--json"]) == 0
        blinks = json.loads(capsys.readouterr().out)["blinks"]
        assert [b["blink_id"] for b in blinks] == [0, 1]
        assert list(blinks[0]) == [
            "blink_id", "start_frame", "apex_frame", "end_frame", "min_ear", "baseline_ear",
            "amplitude", "velocity", "duration_s", "freq_per_min",
        ]

    def test_non_finite_ear_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_ear_rows(path, [(0, 0, 0.3), (1, 33333, 0.1), (2, 66667, "nan"), (3, 100000, 0.3)])
        assert main(["detect", "--in", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} line 4: ear must be finite and non-negative, got nan" in captured.err

    def test_frame_ids_must_increase(self, tmp_path, capsys):
        # two recordings pasted together: the second restarts at frame 0
        first = [(k, k * 33333, 0.1 if k in (8, 9) else 0.3) for k in range(20)]
        second = [(k, k * 33333, 0.05 if k in (8, 9) else 0.35) for k in range(20)]
        path = tmp_path / "pasted.csv"
        write_ear_rows(path, first + second)
        assert main(["detect", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} line 22: frame_id 0 does not follow 19" in captured.err


class TestGen:
    def test_ear_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "ear", "--blinks", "2", "--noise", "0.02", "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["gen", "ear", "--blinks", "2", "--noise", "0.02", "--seed", "5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scores(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        rc = main(["gen", "scores", "--alert", "7,2,1", "--drowsy", "5,8,1",
                   "--out", str(path)])
        assert rc == 0
        assert "wrote 12 scored sequences" in capsys.readouterr().out

    def test_bad_class_specs(self, tmp_path):
        path = tmp_path / "scores.csv"
        assert main(["gen", "scores", "--alert", "x,y", "--drowsy", "5,8,1",
                     "--out", str(path)]) == 1
        assert main(["gen", "scores", "--alert", "0,2,1", "--drowsy", "0,8,1",
                     "--out", str(path)]) == 1
        assert main(["gen", "ear", "--blinks", "-1", "--out", str(path)]) == 1


class TestOptimize:
    def test_skewed_fixture_table(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_skewed_scores(scores)
        rc = main(["optimize", "--scores", str(scores)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3.33" in out  # every grid point ties, first one wins
        assert "0.47" in out  # cost 2*0.061 + 0.35 rendered at 2 decimals

    def test_json_values(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_skewed_scores(scores)
        assert main(["optimize", "--scores", str(scores), "--json"]) == 0
        model = json.loads(capsys.readouterr().out)["models"][0]
        assert model["optimal_threshold"] == pytest.approx(10 / 3)
        assert model["optimal"]["cost"] == pytest.approx(0.472)
        assert model["optimal"]["fnr"] == pytest.approx(0.061)
        assert model["optimal"]["fpr"] == pytest.approx(0.35)

    def test_curve_out_files(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_skewed_scores(scores)
        prefix = tmp_path / "curve"
        assert main(["optimize", "--scores", str(scores), "--curve-out", str(prefix)]) == 0
        assert (tmp_path / "curve.csv").read_text().count("\n") == 22

        assert main(["optimize", "--scores", str(scores), "--scores", str(scores),
                     "--curve-out", str(prefix)]) == 0
        assert (tmp_path / "curve-model1.csv").exists()
        assert (tmp_path / "curve-model2.csv").exists()

    def test_sorts_each_model_once(self, tmp_path, capsys, monkeypatch):
        # optimize, the default comparison and the curve share one tally per
        # model, and a tally sorts the drowsy and the alert scores once each
        import drowsebench.decision as decision

        sorts = []
        monkeypatch.setattr(decision, "sorted", lambda xs: sorts.append(sorted(xs)) or sorts[-1],
                            raising=False)
        scores = tmp_path / "scores.csv"
        write_skewed_scores(scores)
        assert main(["optimize", "--scores", str(scores), "--scores", str(scores),
                     "--curve-out", str(tmp_path / "curve")]) == 0
        # each curve also checks that its thresholds are sorted
        assert len([s for s in sorts if s != decision.threshold_grid()]) == 2 * 2

    def test_single_class_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "alert-only.csv"
        write_scores_csv(
            [ScoredSequence(id=i, score=1.0, label=Label.ALERT) for i in range(5)], path
        )
        assert main(["optimize", "--scores", str(path)]) == 3

    def test_missing_file(self):
        assert main(["optimize", "--scores", "/no/such/scores.csv"]) == 2

    def test_readme_label_encoding(self, tmp_path, capsys):
        # README "File formats": id,score,label with label 0 alert, 10 drowsy
        path = tmp_path / "scores.csv"
        path.write_text("id,score,label\n0,2.5,0\n1,3.0,0\n2,7.5,10\n3,8.0,10\n")
        assert main(["optimize", "--scores", str(path), "--json"]) == 0
        model = json.loads(capsys.readouterr().out)["models"][0]
        assert (model["optimal"]["fpr"], model["optimal"]["fnr"]) == (0.0, 0.0)


class TestVote:
    def stats_file(self, tmp_path, stats):
        path = tmp_path / "models.json"
        write_model_stats_json(stats, path)
        return path

    def test_three_model_vote(self, tmp_path, capsys):
        path = self.stats_file(
            tmp_path,
            [
                ModelStats(model_id=1, tpr=0.9, tnr=0.5, threshold=5.0),
                ModelStats(model_id=2, tpr=0.8, tnr=0.5, threshold=5.0),
                ModelStats(model_id=3, tpr=0.9, tnr=0.5, threshold=5.0),
            ],
        )
        rc = main(["vote", "--stats", str(path), "--decisions", "1,0,1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == pytest.approx([2.3, 2.1, 2.3])
        assert payload["prediction"] == pytest.approx(4.6 / 6.7)
        assert payload["decision"] == "drowsy"

    def test_mismatched_decisions(self, tmp_path, capsys):
        path = self.stats_file(tmp_path, [ModelStats(model_id=1, tpr=0.9, tnr=0.5,
                                                     threshold=5.0)])
        assert main(["vote", "--stats", str(path), "--decisions", "1,0"]) == 1
        assert main(["vote", "--stats", str(path), "--decisions", "2"]) == 1

    def test_zero_weight_ensemble_is_degenerate(self, tmp_path, capsys):
        path = self.stats_file(
            tmp_path, [ModelStats(model_id=1, tpr=0.0, tnr=0.0, threshold=5.0)]
        )
        assert main(["vote", "--stats", str(path), "--decisions", "1"]) == 3

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('[{"model_id": 1, "tpr": 0.9, "threshold": 5.0}]', "model stats entry lacks 'tnr'"),
            ("[1]", "expected a JSON list of model stats objects"),
        ],
    )
    def test_malformed_stats_file_names_it(self, tmp_path, capsys, doc, message):
        path = tmp_path / "models.json"
        path.write_text(doc)
        assert main(["vote", "--stats", str(path), "--decisions", "1"]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_missing_stats_file(self):
        assert main(["vote", "--stats", "/no/such.json", "--decisions", "1"]) == 2


class TestReport:
    def test_timing_report_matches_bench_output(self, tmp_path, capsys):
        profile = single_set_profile(tmp_path)
        prefix = tmp_path / "timings"
        assert main(["pipeline-bench", "--profile", str(profile), "--frames", "50",
                     "--out", str(prefix)]) == 0
        bench_cells = MEAN_STD.findall(capsys.readouterr().out)

        assert main(["report", "--in", str(tmp_path / "timings-default.csv")]) == 0
        report_out = capsys.readouterr().out
        assert "timing summary" in report_out
        assert MEAN_STD.findall(report_out) == bench_cells

    def test_rtt_report(self, tmp_path, capsys):
        prefix = tmp_path / "rtt"
        assert main(["stream-bench", "--loopback", "--fps", "200", "--frames", "10",
                     "--res", "8x8", "--out", str(prefix), "--json"]) == 0
        (bench,) = json.loads(capsys.readouterr().out)["resolutions"]
        assert main(["report", "--in", str(tmp_path / "rtt-8x8.csv")]) == 0
        out = capsys.readouterr().out
        assert "round-trip summary" in out
        assert "inter-arrival" in out
        assert re.search(rf"^rtt p99 +{bench['rtt_us']['p99'] / 1000:.3f}$", out, re.M)

        # RTT CSVs hold integers, so the summary round-trips exactly
        assert main(["report", "--in", str(tmp_path / "rtt-8x8.csv"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 10
        assert report["inter_arrival_us"] == bench["inter_arrival_us"]
        assert report["rtt_us"] == bench["rtt_us"]
        rtt = bench["rtt_us"]
        assert set(rtt) == {"mean", "std", "p50", "p95", "p99", "max"}
        assert rtt["p50"] <= rtt["p95"] <= rtt["p99"] <= rtt["max"]

    def test_unknown_header(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["report", "--in", str(path)]) == 2

    def test_empty_timing_csv_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("frame_id,face_ms,landmark_ms,blink_ms,total_ms\n")
        assert main(["report", "--in", str(path)]) == 3


def test_module_entry_point():
    # run the package under test, which pytest may have put on sys.path itself
    src = str(Path(drowsebench.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "drowsebench", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout
