import hashlib
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import drowsebench
from drowsebench.blink import EarSeries, read_ear_csv, write_ear_csv
from drowsebench.cli import main
from drowsebench.decision import Label, ScoredSequence
from drowsebench.decision import read_scores_csv, write_scores_csv
from drowsebench.pipeline import read_timings_csv, write_timings_csv
from drowsebench.protocol import (
    HEADER_SIZE,
    FrameMessage,
    MessageType,
    PixelFormat,
    encode_frame,
    read_frame,
)
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
            ["stream-bench", "--loopback", "--res", ""],
            ["stream-bench", "--loopback", "--res", ","],
            ["stream-bench", "--loopback", "--res", "0x5"],
            ["stream-bench", "--loopback", "--fps", "abc"],
            ["pipeline-bench", "--profile", "x.json", "--frames", "0"],
            ["gen", "scores", "--alert", "a,1,1", "--drowsy", "1,8,1", "--out", "x.csv"],
        ],
    )
    def test_exit_code_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage" in capsys.readouterr().err


# face, landmark, blink and total duration columns of two frames
TIMINGS = [[2.0, 2.167], [1.0, 1.25], [0.5, 0.25], [3.5, 3.667]]

# writer, records, reader, what it reads back, and the command that reads the file
CSV_FORMATS = {
    "ear": (
        write_ear_csv,
        EarSeries(range(4), [k * 33333 for k in range(4)], [0.3, 0.1, 0.1, 0.3]),
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
        [[0, 1], *TIMINGS],
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

    def test_frames_larger_than_the_relay_pipe(self, tmp_path, capsys):
        # a 1080p payload is 6.2 MB, six times the echo server's 1 MiB pipe
        prefix = tmp_path / "rtt"
        rc = main(["stream-bench", "--loopback", "--fps", "30", "--frames", "3",
                   "--res", "1920x1080", "--json", "--out", str(prefix)])
        assert rc == 0
        entry = json.loads(capsys.readouterr().out)["resolutions"][0]
        assert entry["resolution"] == "1920x1080"
        assert entry["inter_arrival_us"]["count"] == 2
        records = read_rtt_csv(tmp_path / "rtt-1920x1080.csv")
        assert [r.frame_id for r in records] == [0, 1, 2]

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

    def test_cut_off_echo_exits_2(self, capsys):
        # the server sends 40 bytes of the first frame's echo, then closes
        frame_len = HEADER_SIZE + 8 * 8 * 3
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5.0)

            def serve():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    got = b""
                    while len(got) < frame_len and (chunk := conn.recv(frame_len - len(got))):
                        got += chunk
                    conn.sendall(got[:40])

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            rc = main(["stream-bench", "--connect", f"127.0.0.1:{listener.getsockname()[1]}",
                       "--fps", "100", "--frames", "2", "--res", "8x8"])
            server.join(timeout=5.0)
            assert not server.is_alive()
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bad echo after 0 echoes: connection closed mid-message\n")

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
        frame_ids, *_ = read_timings_csv(tmp_path / "timings-default.csv")
        assert frame_ids == list(range(40))

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

    def test_stage_set_named_average_is_rejected(self, tmp_path, capsys):
        # the average row would silently replace a set of that name
        stages = ('{"stages": [{"name": "face", "mean_ms": %s}, {"name": "landmark", '
                  '"mean_ms": 1.0}, {"name": "blink", "mean_ms": 1.0}]}')
        path = tmp_path / "device.json"
        path.write_text('{"resolutions": {"average": %s, "640x480": %s}}'
                        % (stages % 100.0, stages % 2.0))
        assert main(["pipeline-bench", "--profile", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: stage set name 'average' is reserved for the average row\n")
        # a lone set gets no average row, so its name clashes with nothing
        path.write_text('{"resolutions": {"average": %s}}' % (stages % 100.0))
        assert main(["pipeline-bench", "--profile", str(path), "--json"]) == 0
        assert [p["profile"] for p in json.loads(capsys.readouterr().out)["profiles"]] == [
            "average"]

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

    @pytest.mark.parametrize("first_row", ["0,0,0.3", '"0",0,0.3'])
    def test_reads_a_pipe(self, capsys, first_row):
        # a quoted field sends the reader to the row path, which cannot
        # read a pipe a second time
        text = f"frame_id,ts_us,ear\n{first_row}\n1,33333,0.1\n2,66667,0.1\n3,100000,0.3\n"
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            assert main(["detect", "--in", f"/dev/fd/{read_end}"]) == 0
        finally:
            os.close(read_end)
        assert "detect: 1 blinks in 4 samples" in capsys.readouterr().out


# SHA-256 of `detect` on `gen ear --blinks 60 --frames 12000 --noise 0.03
# --seed S` and of `optimize` on `gen scores --alert 2500,3.0,1.8 --drowsy
# 1500,6.5,1.8 --seed S`: the detect table and --json stdout, its --out
# features CSV, the optimize --json stdout and its --curve-out CSV.  Both
# inputs span several 64 KiB read chunks.  A change in parsing, detection,
# features or the sweep changes them.
GOLDEN_DETECT_SHA256 = {
    0: {
        "ear.csv":
            "9e74b1ab56b6bf675050b4219d1e6406b7739227e54e98ecd96cf85240a16903",
        "table":
            "6ae744ed2723fa3a39f807c939b9eabf04ab17a06abfc542592099c4d2140f83",
        "json":
            "dc6b3f23626442b3d15eb6e71980037082ae9b2ca2739cc2f8d07e0d8c8b3234",
        "features.csv":
            "f3407f0c7bb6451757218d9ca75d53f4b7a2bd18bda5ac08b43230ecab00fd3d",
    },
    1: {
        "ear.csv":
            "80dbc64cca11dd24877202ce36cf8e25e7d424205a8d548c13f931685790fb79",
        "table":
            "c077e2717b96c32f3f8324a8a959aef9b742b1b1b1b67767aaf8b7952b2861be",
        "json":
            "fca8ef551b94779ab6e6ebb6a174081aa4ffd5a7ef0890e67d930a69b6b4225f",
        "features.csv":
            "67ac670404faa85fab499db666c3c6b49aa72fc243492297be6194ee7e0ff79f",
    },
    2: {
        "ear.csv":
            "4abffd1188835aa52301d9b0963de6956bf134a2d142f68ae2172e146dd875c2",
        "table":
            "c2a19bcc825c00e33c620749108855f9d3808560b9537755373d910863c35a3b",
        "json":
            "c72e5955c10b85232715a1430618af47a697670d1434e0cc6c1ab6fad190857d",
        "features.csv":
            "b1ac9c15a666d732ca05abd51c805ce6a1e03d05ee472f2bf7c4eaa7f86ce152",
    },
    3: {
        "ear.csv":
            "4bc64879ddb99e2036cdb5cb5e198279483d8f84c882daddd47e888b2ef3bee7",
        "table":
            "57e0325691bd82fbdcfb94e3082c9b8d91025d03bdfdf7b93dbd2c87e6dc41fd",
        "json":
            "e7bc2592f032fcee5f785bc5f0ae19d99e924de100b1743e1cf357ce51a7dbda",
        "features.csv":
            "20ac3ce05d4f9033dc42b317d0c61d2ea76bbe1038e3450c1e3d9fb30c93712e",
    },
    4: {
        "ear.csv":
            "9cb3dcd8b79ede94c44296c138eb3acbd2ca9fede9e498f9786b2dd15da32c49",
        "table":
            "6db16ee3bd407edd6c98eb7583f1dca42991fecbcf67bfd305a84539540e09b4",
        "json":
            "bbcd1c66a80dc078f1d9c016e6f4bae219eb5adcfff6bacee0f8f92d7f5f5ebf",
        "features.csv":
            "8220a8c09fe11dd403063122bc630c065978e49d52f8975502fad201f640ef7a",
    },
}
GOLDEN_OPTIMIZE_SHA256 = {
    0: {
        "json":
            "fe0c7cae7ef8815ac368449496ccc5beee1a2c81a38806f3cf7c5ccd2f9d966b",
        "curve.csv":
            "1377421dbc8ea7802912b7dc0e7b8f8297d4a84adfded447541c22b5b346d688",
    },
    1: {
        "json":
            "4e35d40703f1961a91bafbb62c898ce277ae515547123108d1ab6b99b90a32c6",
        "curve.csv":
            "ae265544c618f3dd1be3bb87d51d3726ab38c7331e6ca8c9612eac9c0b4a10ff",
    },
    2: {
        "json":
            "9f032bcfb32c7ba7c335300b3d9257f26907c706c9fd9fcdb455c23c512183bd",
        "curve.csv":
            "fd4aff03786d5714fcd6fb529b648e68a68180b545f71224b8fb4c8bdefb8093",
    },
    3: {
        "json":
            "491d30cc045bb011467ff8eab72f16f3a313a4f1fc8e2ab37d9ae1264c9215dc",
        "curve.csv":
            "424933f2d1cc8adf878f7e90f3da0b4b4e7423160fcbdb60a60c95dcb9a26c74",
    },
    4: {
        "json":
            "0eb1fbb20443d8bd07bf40275afe92dac3620011e5b091d73db35a8aa6b54c06",
        "curve.csv":
            "dcc2e0a028839da03a23ddc9b83936fe967f57a5072e9363fd7bb6bfb9775d22",
    },
}

# SHA-256 of `report` on each --out timing CSV of `pipeline-bench --frames
# 3000 --seed 3`: the table, with the input path in its title replaced
# by the file name, and the --json document.  A change in reading the
# CSV or in the timing summary changes them.
GOLDEN_REPORT_SHA256 = {
    "desktop-pc": {
        "1280x720.csv json":
            "769efbb76f595950171e722bc815272847d7bcaa144b6a9fa0db8382e9c81ea8",
        "1280x720.csv table":
            "c94aa6f8a21c4167ebf2ec5e1875cd614b0f5ce952dfe552cc6d8d870307dec3",
        "320x240.csv json":
            "2f8f4611d91bd4ac3db847f9403a79e9d655b2019fe9d84869140f886290e0c6",
        "320x240.csv table":
            "7179ad8c3d88aad31da54d42231cd709242edbd08c457538d163034060f33a84",
        "640x480.csv json":
            "52fdecc07cb811e67ddcb7ec05fb6bc91aa695eb88cdb99d2bc888a54606335f",
        "640x480.csv table":
            "f6423115a50a121ff9dbd82499aa5e88c3e66692d8229232e40b8b4e7a0d5b91",
        "960x540.csv json":
            "23cd076999ad118d66459795516b3c0821210058d27c1dafbe62d7ba5d421216",
        "960x540.csv table":
            "ed96b3959b60e7048964c0b475723e0bf436662cb05c61eb28de20e4a205fa82",
        "average.csv json":
            "bdab39abb93cd48a0f0acc60fa8c6cc82665bd38461781aa3e97f433593ef303",
        "average.csv table":
            "33254c031aa01bc3c072ecb9d9f31909ad1c70942718fb3ea48c7a4a80188d88",
    },
    "jetson-nano": {
        "1280x720.csv json":
            "cd5b661353aa918ff600ca3e30279849d2e633a4e559380be6616a59f204889a",
        "1280x720.csv table":
            "9783f1ee9e4e72414b7e28e89502ea76e938bfcf2ce5b66fb8a8578246b33dad",
        "320x240.csv json":
            "286e3bf12db88470dbfe3f82bc05e2da5b0116e98a8ad38302f3fdda259b34b2",
        "320x240.csv table":
            "ae63ad61d378c730abf47ed292307ec0c65eb5021d447e8ce5fa9c99289ac29f",
        "640x480.csv json":
            "86f5dde0064c3fbd0d89d7f46564be59743ff408fd1c3e99a2ac35094d89d8b4",
        "640x480.csv table":
            "e9e916d8dc7c7547568dda986a4e81436a5b403de4656ac3f806f16a38376584",
        "960x540.csv json":
            "a0ab1998bdcd25d794640e75738b31a22c0ca5046e0aa4606e691635bda4adfd",
        "960x540.csv table":
            "cfadb126226f2495c6f8ae87af499f25c59707a7cb9bf2f876ee6572dc5fc2ea",
        "average.csv json":
            "8e8c869035541cdc422ba8359933cd80fe72afaa49a5446a0e307406ed4362cc",
        "average.csv table":
            "e7b38243579426d1cdf7ea5d96d6ebae863b84a1411c74ac30c33325de493af9",
    },
    "mini-pc": {
        "1280x720.csv json":
            "3aba434e44301ec9bcd516de5ecbf754ee0a33a079be14f4ba196e819a106e38",
        "1280x720.csv table":
            "5523b76d0030a1e2d7eb2c665f108e574592fbae64e021775fdf87100e4bab8e",
        "320x240.csv json":
            "b6e7e461a43c1ac4db24e40a4e06c71a234c13065fd061365311a5c536a1dceb",
        "320x240.csv table":
            "7ec0d7d548fb9cc65cee0158b498109da0e60626a4688ae84bf025f084dbe52b",
        "640x480.csv json":
            "e1599d34b251cfbc0f591c7aa427f5fede80c2a925bb84e1309f902e18b30174",
        "640x480.csv table":
            "f7a35a15da0d8b4d6026058599af808727c7171c11f3e1d39bd85066c433309e",
        "960x540.csv json":
            "d4181c42a596fe99df55225addb624a04657ffc6828678d1420f84849184835f",
        "960x540.csv table":
            "752ef93b1295ddd4cd2fa507539f096e6c52fa2fe26ae7e77ab00527773bd9b5",
        "average.csv json":
            "3d7ed96a800e6514a67e90881ef13998e5f9baf403fcf8c22dd0ac835145a17d",
        "average.csv table":
            "6abba100f79dfff1a3021a6723dd55abfb56feb1762217aa2f7ad3671d4d87c2",
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", range(5))
def test_detect_output_matches_recorded_digests(tmp_path, capsys, seed):
    ear = tmp_path / "ear.csv"
    features = tmp_path / "features.csv"
    assert main(["gen", "ear", "--blinks", "60", "--frames", "12000", "--noise", "0.03",
                 "--seed", str(seed), "--out", str(ear)]) == 0
    capsys.readouterr()
    digests = {"ear.csv": sha256(ear.read_bytes())}
    # the table run has no --out: its "wrote" line would name tmp_path
    for name, extra in (("table", []), ("json", ["--json", "--out", str(features)])):
        assert main(["detect", "--in", str(ear), *extra]) == 0
        digests[name] = sha256(capsys.readouterr().out.encode())
    digests["features.csv"] = sha256(features.read_bytes())
    assert digests == GOLDEN_DETECT_SHA256[seed]


@pytest.mark.parametrize("seed", range(5))
def test_optimize_output_matches_recorded_digests(tmp_path, capsys, seed):
    scores = tmp_path / "scores.csv"
    assert main(["gen", "scores", "--alert", "2500,3.0,1.8", "--drowsy", "1500,6.5,1.8",
                 "--seed", str(seed), "--out", str(scores)]) == 0
    capsys.readouterr()
    assert main(["optimize", "--scores", str(scores), "--json",
                 "--curve-out", str(tmp_path / "curve")]) == 0
    # the report names its input file, which lives under tmp_path
    out = capsys.readouterr().out.replace(json.dumps(str(scores)), '"scores.csv"')
    digests = {"json": sha256(out.encode()),
               "curve.csv": sha256((tmp_path / "curve.csv").read_bytes())}
    assert digests == GOLDEN_OPTIMIZE_SHA256[seed]


@pytest.mark.parametrize("device", sorted(GOLDEN_REPORT_SHA256))
def test_report_output_matches_recorded_digests(profiles_dir, tmp_path, capsys, device):
    assert main(["pipeline-bench", "--profile", str(profiles_dir / f"{device}.json"),
                 "--frames", "3000", "--seed", "3", "--out", str(tmp_path / "timings")]) == 0
    capsys.readouterr()
    digests = {}
    for path in sorted(tmp_path.glob("timings-*.csv")):
        name = path.name.removeprefix("timings-")
        for kind, extra in (("table", []), ("json", ["--json"])):
            assert main(["report", "--in", str(path), *extra]) == 0
            # the table's title names its input file, which lives under tmp_path
            out = capsys.readouterr().out.replace(str(path), name)
            digests[f"{name} {kind}"] = sha256(out.encode())
    assert digests == GOLDEN_REPORT_SHA256[device]


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

    def test_single_class_error_names_the_file(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        write_skewed_scores(good)
        bad = tmp_path / "drowsy-only.csv"
        write_scores_csv(
            [ScoredSequence(id=i, score=8.0, label=Label.DROWSY) for i in range(5)], bad
        )
        assert main(["optimize", "--scores", str(good), "--scores", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"degenerate data: {bad} holds only DROWSY sequences; need both classes\n"
        )

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

    def test_decisions_that_do_not_parse(self, tmp_path, capsys):
        path = self.stats_file(tmp_path, [{"model_id": 1, "tpr": 0.9, "tnr": 0.5,
                                           "threshold": 5.0}])
        assert main(["vote", "--stats", str(path), "--decisions", "x"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --decisions expects a comma list of 0/1, got 'x'\n")

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
    write_timings_csv([[1.0] * 3, [1.0] * 3, [0.5] * 3, [2.5] * 3], timings_csv)
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
        argv = ["pipeline-bench", "--profile", str(profile), "--frames", "50",
                "--out", str(prefix)]
        assert main(argv) == 0
        bench_cells = MEAN_STD.findall(capsys.readouterr().out)
        assert main([*argv, "--json"]) == 0
        (bench,) = json.loads(capsys.readouterr().out)["profiles"]

        csv_path = str(tmp_path / "timings-default.csv")
        assert main(["report", "--in", csv_path]) == 0
        report_out = capsys.readouterr().out
        assert "timing summary" in report_out
        assert MEAN_STD.findall(report_out) == bench_cells
        # the CSV holds each duration's repr, so the summary round-trips exactly
        assert main(["report", "--in", csv_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stages"] == bench["stages"]

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

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    @pytest.mark.parametrize("fmt", ["timings", "rtt"])
    def test_reads_a_pipe(self, tmp_path, capsys, fmt, flags):
        write, records, *_ = CSV_FORMATS[fmt]
        path = tmp_path / f"{fmt}.csv"
        write(records, path)
        assert main(["report", "--in", str(path), *flags]) == 0
        from_file = capsys.readouterr().out
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes())
            os.close(write_end)
            pipe = f"/dev/fd/{read_end}"
            assert main(["report", "--in", pipe, *flags]) == 0
        finally:
            os.close(read_end)
        assert capsys.readouterr().out == from_file.replace(str(path), pipe)

    def test_unknown_header(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["report", "--in", str(path)]) == 2

    def test_one_record_rtt_csv_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "rtt.csv"
        write_rtt_csv([RoundTripRecord(0, 5, 10, 5, None)], path)
        assert main(["report", "--in", str(path)]) == 3
        assert capsys.readouterr() == (
            "", f"degenerate data: {path} holds fewer than two records\n")

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


@pytest.mark.parametrize("command", ["stream-bench", "echo-server"])
def test_link_side_error_in_a_fresh_process_exits_2_with_one_line(command):
    # a fresh process has imported only the link-side modules when main()
    # sorts the exception, so an in-process run cannot show this
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        endpoint = f"127.0.0.1:{holder.getsockname()[1]}"
        if command == "echo-server":
            holder.listen()
            argv = ["echo-server", "--listen", endpoint]
        else:  # bound but not listening: the connect is refused
            argv = ["stream-bench", "--connect", endpoint, "--frames", "2", "--res", "2x2"]
        proc = subprocess.run([sys.executable, "-m", "drowsebench", *argv],
                              capture_output=True, text=True, env=package_env(), timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr


def test_echo_server_imports_only_the_link_side():
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "drowsebench", "echo-server",
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=package_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no listening line within 5 s"
        assert proc.stdout.readline().startswith("echo server listening on ")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    # "import time: self | cumulative | name", the name indented by depth
    imported = {line.rpartition("|")[2].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    assert {"drowsebench.protocol", "drowsebench.transport", "drowsebench.cli"} <= imported
    unused = {"drowsebench.blink", "drowsebench.decision", "drowsebench.pipeline",
              "drowsebench.synth", "statistics", "json"}
    assert imported & unused == set()


EXPORTS = """
    Blink BlinkDetectionConfig BlinkFeatures BlinkScript ConfusionMatrix Distribution
    EarSeries EchoServer FrameMessage IntervalStats Label MessageType ModelStats PixelFormat
    Rates RoundTripRecord ScoreDatasetSpec ScoreTally ScoredSequence ScriptedBlink
    SessionTrace StabilityVerdict StageName StageProfile ThresholdCurve TimingSummary
    VoteResult compare_to_default cost decode_frame detect_blinks encode_frame
    extract_all_features gen_ear_series gen_score_dataset interval_stats load_stage_sets
    model_weight optimize_threshold queue_stability raw_bandwidth simulate_session
    stream_and_measure summarize_timings sweep threshold_grid vote weighted_vote
""".split()


def test_a_fresh_package_import_loads_no_submodule_and_lists_the_exports():
    code = ("import json, sys, drowsebench; print(json.dumps(["
            "[n for n in dir(drowsebench) if not n.startswith('_')],"
            "sorted(m for m in sys.modules if m.startswith('drowsebench.'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), check=True, timeout=30)
    public, submodules = json.loads(proc.stdout)
    assert (len(EXPORTS), sorted(public), submodules) == (48, sorted(EXPORTS), [])


# perfbench/tracing.py wraps library names with setattr(cli, name, ...)
# before any command runs; each command must then call the wrapper
TRACED_RUN = """
import sys
from drowsebench import cli

calls = {}


def count(name):
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    setattr(cli, name, wrapper)


if sys.argv[1] == "wrap":
    count("detect_blinks")
    count("simulate_session")
codes = [cli.main(["detect", "--in", sys.argv[2]]),
         cli.main(["pipeline-bench", "--profile", sys.argv[3], "--frames", "30"])]
print(codes, sorted(calls.items()), file=sys.stderr)
"""


def test_commands_call_the_library_names_a_tracer_set_on_cli(tmp_path):
    ear = tmp_path / "ear.csv"
    assert main(["gen", "ear", "--blinks", "3", "--out", str(ear)]) == 0
    profile = single_set_profile(tmp_path)
    runs = {
        mode: subprocess.run([sys.executable, "-c", TRACED_RUN, mode, str(ear), str(profile)],
                             capture_output=True, text=True, env=package_env(), timeout=60)
        for mode in ("plain", "wrap")
    }
    assert runs["plain"].stderr == "[0, 0] []\n"
    assert runs["wrap"].stderr == "[0, 0] [('detect_blinks', 1), ('simulate_session', 1)]\n"
    assert runs["wrap"].stdout == runs["plain"].stdout
    assert "3 blinks" in runs["plain"].stdout
