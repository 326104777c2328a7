import hashlib
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import drowsebench
from drowsebench.blink import EarSample, read_ear_csv, write_ear_csv
from drowsebench.cli import main
from drowsebench.decision import Label, ScoredSequence
from drowsebench.decision import read_scores_csv, write_scores_csv
from drowsebench.pipeline import TimingRecord, read_timings_csv, write_timings_csv
from drowsebench.protocol import FrameMessage, MessageType, PixelFormat, encode_frame, read_frame
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
            ["detect", "--in", "x.csv", "--close-threshold", "nan", "--min-closed-frames", "1"],
            ["detect", "--in", "x.csv", "--close-threshold", "inf", "--min-closed-frames", "1"],
            ["gen", "ear", "--blinks", "1", "--frames", "0", "--out", "x.csv"],
            ["gen", "ear", "--blinks", "1", "--frames", "-5", "--out", "x.csv"],
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
    short = rows[1].rsplit(",", 1)[0]
    for bad_row, reason in [
        (short, f"expected {width} fields, got {width - 1}\n"),
        (rows[1] + ",7", f"expected {width} fields, got {width + 1}\n"),
        # a non-finite value where a number belongs
        (short + ",nan", ""),
        (short + ",inf", ""),
    ]:
        path.write_text("\n".join([header, rows[0], bad_row, *rows[2:]]) + "\n")
        assert main([*command, str(path)]) == 2
        assert f"error: {path} line 3: {reason}" in capsys.readouterr().err

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

    def test_fractional_fps_bandwidth(self, capsys):
        rc = main(["stream-bench", "--loopback", "--fps", "2.5", "--frames", "2",
                   "--res", "8x8", "--json"])
        assert rc == 0
        entry = json.loads(capsys.readouterr().out)["resolutions"][0]
        assert entry["raw_bandwidth_bps"] == 3840  # 8*8*24*2.5, not at round(2.5) == 2 fps

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

    def test_oversized_frame_exits_2_before_its_payload_exists(self, monkeypatch, capsys):
        # 65535x65535 rgb24 is a 12.9 GB payload, beyond the u32 payload_len
        def allocate(n):
            raise AssertionError(f"built a {n}-byte payload")

        monkeypatch.setattr("drowsebench.transport._test_pattern", allocate)
        rc = main(["stream-bench", "--loopback", "--frames", "2", "--res", "65535x65535"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field out of range of its wire type: ")


# SHA-256 of `pipeline-bench --frames 3000 --seed 3` output: the table on
# stdout, the --json document and each --out timing CSV.  A change in the
# sampling order, the float rounding or the summary statistics changes them.
GOLDEN_PIPELINE_BENCH_SHA256 = {
    "jetson-nano": {
        "table":
            "edcb3ace3c83e5a4b7d088b56bd30e6adf70755fb222473df6904cb1c1e116cf",
        "json":
            "b522c05cfe1c83f6ac9724b15ad15318c2afd08264c581681ae73efd9eb1dfce",
        "1280x720.csv":
            "54bba43e934c258dce052c262544ccf6bfff66039dc377fded326becb3dc367d",
        "320x240.csv":
            "ccb0be93a8979f698236dedcdd52432d76340be827006b27515918c28db7dee9",
        "640x480.csv":
            "d5cf3c7ee237458675ec52ed0833bb8ec1bf055cbb1c7f0fe3d7092e75e134a7",
        "960x540.csv":
            "ea33eee274870d56dd4a92b72a88ad1d614075e9ac612dcb22805a980c0597b0",
        "average.csv":
            "273e096f2c1c0231730612c420950e6bc85a5e243560d02b6024f7142d640f38",
    },
    "desktop-pc": {
        "table":
            "63927549d70f54d4b57ebae5d9d8f7a0a446285e0013f860f2a47a7a51c6b5f1",
        "json":
            "60eed1d5a1e539272d197807cc8e88c514c37ec4693cb2e66b652dfb5610fd2c",
        "1280x720.csv":
            "a6e5dd4b11d1c961febbc2dc729d7597a963c94b347f4f1f5a3e62c575487df5",
        "320x240.csv":
            "01a2f6a59eebe15b5312e19c36c450a2faeeb011e874c015e86e8cfc13cd62ce",
        "640x480.csv":
            "f77a66e440aac8806e8a8e9fcd9576c710b05a8fd8a415cbf2b7dfe59b6255db",
        "960x540.csv":
            "f04589a57068b365ad474b9448b189bec63934a76263b819dd4fd7d880b343b6",
        "average.csv":
            "fb26ca5f6a63d01a2564adc4c3a4286c01176a0fce1ecbb609e17147850a55a3",
    },
}



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

    def test_device_file_with_no_stage_sets_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"resolutions": {}}')
        assert main(["pipeline-bench", "--profile", str(path)]) == 3
        assert capsys.readouterr() == ("", f"degenerate data: {path} holds no stage sets\n")

    def test_overflowing_stage_time_exits_2(self, tmp_path, capsys):
        # 1e306 ms is finite; in microseconds it is inf, which pstdev cannot sum
        path = tmp_path / "huge.json"
        path.write_text('{"stages": [{"name": "face", "mean_ms": 1e306},'
                        ' {"name": "landmark", "mean_ms": 1.0},'
                        ' {"name": "blink", "mean_ms": 1.0}]}')
        assert main(["pipeline-bench", "--profile", str(path), "--frames", "3"]) == 2
        out, err = capsys.readouterr()
        assert (out, err.partition(" ")[0]) == ("", "error:")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ('{"stages": [{"mean_ms": 1.0}]}', "missing key 'name'"),
            ('{"stages": [1, 2, 3]}', "every stage entry must be a JSON object"),
            ('{"resolutions": {"320x240": [1]}}', "list indices must be integers"),
            ('{"stages": [', "Expecting value"),
            (
                '{"stages": [{"name": "face", "mean_ms": 5.0},'
                ' {"name": "landmark", "mean_ms": 2.0},'
                ' {"name": "blink", "mean_ms": 1.0, "std_ms": 0.2, "dist": "deterministic"}]}',
                "stage blink: a deterministic stage needs std_ms 0, got 0.2",
            ),
        ],
    )
    def test_malformed_profile_names_the_file(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["pipeline-bench", "--profile", str(path)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("device", sorted(GOLDEN_PIPELINE_BENCH_SHA256))
    def test_seeded_output_matches_recorded_digests(self, profiles_dir, tmp_path, capsys, device):
        def sha256(data):
            return hashlib.sha256(data).hexdigest()

        prefix = tmp_path / "timings"
        argv = ["pipeline-bench", "--profile", str(profiles_dir / f"{device}.json"),
                "--frames", "3000", "--seed", "3", "--out", str(prefix)]
        digests = {}
        for name, extra in (("table", []), ("json", ["--json"])):
            assert main(argv + extra) == 0
            digests[name] = sha256(capsys.readouterr().out.encode())
        for path in tmp_path.glob("timings-*.csv"):
            digests[path.name.removeprefix("timings-")] = sha256(path.read_bytes())
        assert digests == GOLDEN_PIPELINE_BENCH_SHA256[device]


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

    @pytest.mark.parametrize(
        "flag, spec", [("--alert", "5,nan,1"), ("--alert", "5,2,inf"), ("--drowsy", "5,-inf,1")]
    )
    def test_non_finite_class_spec_is_a_usage_error(self, flag, spec, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        specs = {"--alert": "5,2,1", "--drowsy": "5,8,1", flag: spec}
        argv = ["gen", "scores", *(item for pair in specs.items() for item in pair)]
        assert main([*argv, "--out", str(path)]) == 1
        assert f"usage error: {flag} expects a finite MEAN and STD" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_a_usage_error(self, noise, tmp_path, capsys):
        path = tmp_path / "ear.csv"
        assert main(["gen", "ear", "--blinks", "2", "--noise", noise, "--out", str(path)]) == 1
        assert f"usage error: --noise must be >= 0 and finite, got {noise}" in capsys.readouterr().err
        assert not path.exists()


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
        assert len(sorts) == 2 * 2

    def test_single_class_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "alert-only.csv"
        write_scores_csv(
            [ScoredSequence(id=i, score=1.0, label=Label.ALERT) for i in range(5)], path
        )
        assert main(["optimize", "--scores", str(path)]) == 3

    def test_missing_file(self):
        assert main(["optimize", "--scores", "/no/such/scores.csv"]) == 2

    def test_header_only_file_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("id,score,label\n")
        assert main(["optimize", "--scores", str(path)]) == 3
        assert capsys.readouterr().err == f"degenerate data: {path} holds no scored sequences\n"

    def test_readme_label_encoding(self, tmp_path, capsys):
        # README "File formats": id,score,label with label 0 alert, 10 drowsy
        path = tmp_path / "scores.csv"
        path.write_text("id,score,label\n0,2.5,0\n1,3.0,0\n2,7.5,10\n3,8.0,10\n")
        assert main(["optimize", "--scores", str(path), "--json"]) == 0
        model = json.loads(capsys.readouterr().out)["models"][0]
        assert (model["optimal"]["fpr"], model["optimal"]["fnr"]) == (0.0, 0.0)


class TestVote:
    def stats_file(self, tmp_path, stats):
        # README "vote": a JSON list of {model_id, tpr, tnr, threshold} objects
        path = tmp_path / "models.json"
        path.write_text(json.dumps(stats))
        return path

    def test_three_model_vote(self, tmp_path, capsys):
        path = self.stats_file(
            tmp_path,
            [
                {"model_id": 1, "tpr": 0.9, "tnr": 0.5, "threshold": 5.0},
                {"model_id": 2, "tpr": 0.8, "tnr": 0.5, "threshold": 5.0},
                {"model_id": 3, "tpr": 0.9, "tnr": 0.5, "threshold": 5.0},
            ],
        )
        rc = main(["vote", "--stats", str(path), "--decisions", "1,0,1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == pytest.approx([2.3, 2.1, 2.3])
        assert payload["prediction"] == pytest.approx(4.6 / 6.7)
        assert payload["decision"] == "drowsy"

    def test_mismatched_decisions(self, tmp_path, capsys):
        path = self.stats_file(tmp_path, [{"model_id": 1, "tpr": 0.9, "tnr": 0.5,
                                           "threshold": 5.0}])
        assert main(["vote", "--stats", str(path), "--decisions", "1,0"]) == 1
        assert main(["vote", "--stats", str(path), "--decisions", "2"]) == 1

    def test_zero_weight_ensemble_is_degenerate(self, tmp_path, capsys):
        path = self.stats_file(
            tmp_path, [{"model_id": 1, "tpr": 0.0, "tnr": 0.0, "threshold": 5.0}]
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

    def test_empty_stats_list_is_degenerate(self, tmp_path, capsys):
        path = self.stats_file(tmp_path, [])
        assert main(["vote", "--stats", str(path), "--decisions", "1"]) == 3
        assert capsys.readouterr() == ("", f"degenerate data: {path} holds no model stats\n")

    def test_missing_stats_file(self):
        assert main(["vote", "--stats", "/no/such.json", "--decisions", "1"]) == 2


@pytest.mark.parametrize(
    "command", ["stream-bench", "pipeline-bench", "detect", "optimize", "report"]
)
def test_json_stdout_is_one_document_next_to_file_output(command, tmp_path, capsys):
    ear_csv, scores_csv, timings_csv = (tmp_path / name for name in ("ear", "scores", "timings"))
    assert main(["gen", "ear", "--blinks", "2", "--out", str(ear_csv)]) == 0
    write_skewed_scores(scores_csv)
    write_timings_csv([TimingRecord(k, 0.0, 1000.0, 2000.0, 2500.0) for k in range(3)],
                      timings_csv)
    argv, written = {
        "stream-bench": (["--loopback", "--fps", "200", "--frames", "4", "--res", "8x8",
                          "--out", str(tmp_path / "rtt")], "rtt-8x8.csv"),
        "pipeline-bench": (["--profile", str(single_set_profile(tmp_path)), "--frames", "20",
                            "--out", str(tmp_path / "sim")], "sim-default.csv"),
        "detect": (["--in", str(ear_csv), "--out", str(tmp_path / "features.csv")],
                   "features.csv"),
        "optimize": (["--scores", str(scores_csv), "--curve-out", str(tmp_path / "curve")],
                     "curve.csv"),
        "report": (["--in", str(timings_csv)], None),
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--json"]) == 0
    # json.loads rejects anything printed before or after the one document
    assert isinstance(json.loads(capsys.readouterr().out), dict)
    assert written is None or (tmp_path / written).exists()


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

    @pytest.mark.parametrize(
        "text",
        [
            # fsum of the two durations overflows
            "frame_id,face_ms,landmark_ms,blink_ms,total_ms\n"
            "0,1e308,1,1,1e308\n1,1e308,1,1,1e308\n",
            # the rtt percentiles' integer division overflows a float
            "frame_id,send_ts_us,recv_ts_us,rtt_us,inter_arrival_us\n"
            f"0,0,1,5,\n1,10,11,{'9' * 309},10\n",
        ],
        ids=["timing", "rtt"],
    )
    def test_finite_but_overflowing_values_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "huge.csv"
        path.write_text(text)
        assert main(["report", "--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err.partition(" ")[0]) == ("", "error:")


def package_env() -> dict:
    """The environment for a child that runs the package under test.

    pytest may have put the package on its own sys.path, so the child
    gets it on PYTHONPATH.
    """
    src = str(Path(drowsebench.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "drowsebench", "--help"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout


@pytest.mark.parametrize("live", [False, True], ids=["closed", "live"])
def test_echo_server_announces_its_port_through_a_pipe(live):
    """SIGINT stops the server, also while a handler thread is blocked in recv.

    With ``live`` the client's connection stays open across the SIGINT,
    and the server's shutdown closes it.
    """
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "drowsebench", "echo-server", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        # a shell that starts the tests in the background makes them ignore
        # SIGINT, and children inherit that
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no listening line within 5 s"
        line = proc.stdout.readline()
        match = re.fullmatch(r"echo server listening on 127\.0\.0\.1:(\d+)\n", line)
        assert match, line
        with socket.create_connection(("127.0.0.1", int(match.group(1))), timeout=5) as client:
            if live:  # an echo shows a handler thread serves the connection
                client.sendall(encode_frame(FrameMessage(
                    MessageType.FRAME, 1, 0, 2, 1, PixelFormat.RGB24, bytes(6))))
                assert read_frame(client).msg_type == MessageType.ECHO
            else:
                client.close()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5) == 0
            if live:
                assert client.recv(1) == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
