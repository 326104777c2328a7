"""drowsebench performance benchmark: one entry point for every workload.

Usage:
    python3 perfbench/run.py --workload {stream-720p,stream-empty,offline}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the program is imported from ``src/`` next to this
directory and started as ``python3 -m drowsebench`` with that ``src/`` on
``PYTHONPATH``.  Every end-to-end metric is printed by name, unit and
sample count, then the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced pass, plus the
tracing overhead against an untraced pass of the same run.  Per-layer
metrics of a layer the workload bypasses read 0.  ``--size tiny`` shrinks
the offline inputs for the smoke test.  See README.md for what each
metric means and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time

from common import BenchError, import_program, median, peak_rss_mb, percentile, pin_to_one_cpu

WORKLOADS = ("stream-720p", "stream-empty", "offline")

END_TO_END = {
    "latency_p50_ms": "ms",
    "cpu_ms_per_request": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

RES = ("empty", "320x240", "1280x720", "1920x1080")
OFFLINE_JOBS = ("detect_dense", "detect_sparse", "optimize", "pipeline_unstable",
                "pipeline_stable")
PER_LAYER = {
    **{f"protocol.{op}_frame_us.{res}": "us" for op in ("encode", "decode") for res in RES},
    **{f"protocol.{side}_{op}_ms": "ms" for side in ("client", "server")
       for op in ("encode", "decode")},
    **{f"transport.{side}_{op}_ms": "ms" for op in ("write", "read_wait")
       for side in ("client", "server")},
    "transport.rtt_p50_ms": "ms",
    "transport.rtt_p95_ms": "ms",
    "transport.send_late_p50_ms": "ms",
    "transport.send_late_p95_ms": "ms",
    "transport.send_late_max_ms": "ms",
    "transport.trailer_dwell_ms": "ms",
    "transport.frames_attempted": "count",
    "transport.frames_echoed": "count",
    "transport.frames_failed": "count",
    "transport.frames_sent_late": "count",
    "transport.bytes_sent": "bytes",
    "transport.bytes_received": "bytes",
    "frame_latency_p50_ms": "ms",
    "frame_latency_p95_ms": "ms",
    **{f"blink.{m}.{t}": u for m, u in (("read_ear_csv_samples_per_s", "1/s"),
                                         ("detect_blinks_samples_per_s", "1/s"),
                                         ("extract_all_features_blinks_per_s", "1/s"),
                                         ("blinks_found", "count"))
       for t in ("dense", "sparse")},
    "decision.read_scores_csv_rows_per_s": "1/s",
    "decision.optimize_threshold_sequences_per_s": "1/s",
    "decision.compare_to_default_s": "s",
    **{f"pipeline.{m}.{k}": u for m, u in (("simulate_session_frames_per_s", "1/s"),
                                            ("summarize_timings_frames_per_s", "1/s"),
                                            ("backlog", "count"), ("max_queue", "count"))
       for k in ("unstable", "stable")},
    **{f"cli.self_s.{job}": "s" for job in OFFLINE_JOBS},
    "synth.gen_s": "s",
    "detect_dense_samples_per_s": "1/s",
    "detect_sparse_samples_per_s": "1/s",
    "optimize_sequences_per_s": "1/s",
    "pipeline_unstable_frames_per_s": "1/s",
    "pipeline_stable_frames_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class Report:
    """Human-readable lines on stdout, then the one-line JSON result."""

    def __init__(self, units: dict[str, str]):
        self.units = units
        self.metrics: dict[str, dict] = {}

    def line(self, name: str, value: float, unit: str, n: int | None = None, note: str = ""):
        count = f"n={n}" if n is not None else ""
        print(f"{name:<44} {value:>14.6g} {unit:<6} {count:<8} {note}".rstrip())

    def metric(self, name: str, value: float, n: int | None = None, note: str = ""):
        self.line(name, value, self.units[name], n, note)
        self.metrics[name] = {"value": value, "unit": self.units[name]}

    def fill_bypassed(self) -> None:
        """Report 0 for every metric of a layer this workload never called."""
        for name in self.units:
            if name not in self.metrics:
                self.metric(name, 0, note="layer bypassed by this workload")

    def result(self, correct: bool, attempted: int, failed: int) -> None:
        missing = set(self.units) - set(self.metrics)
        if missing:
            raise BenchError(f"metrics not measured: {sorted(missing)}")
        print(f"{'failed_ratio':<44} {failed / attempted:>14.6g} {'':<6} n={attempted}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": self.metrics}))


def codec_metrics(report: Report) -> tuple[int, int]:
    """Codec microbenchmark metrics; returns (resolutions tried, round trips failed)."""
    from codec_micro import codec_micro

    results = codec_micro()
    for label, r in results.items():
        report.metric(f"protocol.encode_frame_us.{label}", r["encode_us"],
                      note=f"{r['bytes']} wire bytes, {r['encode_MBps']:.0f} MB/s")
        report.metric(f"protocol.decode_frame_us.{label}", r["decode_us"],
                      note=f"{r['decode_MBps']:.0f} MB/s")
    failed = [label for label, r in results.items() if not r["ok"]]
    for label in failed:
        print(f"# codec round trip failed at {label}", file=sys.stderr)
    return len(results), len(failed)


def stream_workload(name: str, seconds: float, trace: bool) -> None:
    import stream

    spec = stream.STREAMS[name]
    sizes = {"width": spec.width, "height": spec.height, "fps": spec.fps, "rgb24": spec.rgb24,
             "warmup_s": stream.WARMUP_S}
    print(f"# sizes {json.dumps(sizes)}")
    if not trace:
        report = Report(END_TO_END)
        setup, setup_cpu = stream.measure_setup()
        run, client_cpu, server_cpu = stream.run_untraced(spec, seconds)
        server_cpu -= median(setup_cpu)
        rss = peak_rss_mb(resource.RUSAGE_SELF) + peak_rss_mb(resource.RUSAGE_CHILDREN)
        lat = run.latency_ms
        if lat:
            report.metric("latency_p50_ms", median(run.net_latency_ms), len(lat),
                          "due time -> verified echo, net of CPU steal")
            report.line("frame_latency_p50_ms", median(lat), "ms", len(lat),
                        f"wall clock; {run.stolen_share:.1%} of the session stolen")
            report.line("frame_latency_p95_ms", percentile(lat, 95), "ms", len(lat),
                        "wall clock, reported, not gated")
            report.line("frame_latency_p99_ms", percentile(lat, 99), "ms", len(lat))
            report.line("transport.rtt_p50_ms", median(run.rtt_ms), "ms", len(lat),
                        "program's rtt_us, from the actual send")
            report.line("transport.send_late_p95_ms", percentile(run.send_late_ms, 95), "ms",
                        len(lat), "t0 bias: least-late frame counted on time")
            report.line("transport.send_late_max_ms", max(run.send_late_ms), "ms", len(lat))
        else:
            report.metric("latency_p50_ms", 0.0, 0, "no frame echoed")
        if run.frames_sent_late:
            print(f"# generator behind schedule: {run.frames_sent_late} frames sent more "
                  f"than one period late")
        report.metric("cpu_ms_per_request", (client_cpu + server_cpu) * 1000 / run.attempted,
                      run.attempted,
                      f"client {client_cpu:.3f} s + server {server_cpu:.3f} s CPU")
        report.metric("setup_s", median(setup), len(setup),
                      "spawn echo-server -> listening line + first connect, net of steal")
        report.metric("peak_rss_mb", rss, 2, "client + echo-server peaks")
        if run.error:
            print(f"# stream failed: {run.error}", file=sys.stderr)
        report.result(run.failed == 0 and run.error is None, run.attempted, run.failed)
        return

    report = Report(PER_LAYER)
    plain, _, _ = stream.run_untraced(spec, seconds / 2)
    traced, layers = stream.run_traced(spec, seconds / 2)
    codec_tried, codec_failed = codec_metrics(report)
    for key, value in layers.items():
        report.metric(key, value)
    if plain.latency_ms and traced.latency_ms:
        untraced_p50 = median(plain.latency_ms)
        report.metric("frame_latency_p50_ms", untraced_p50, len(plain.latency_ms), "untraced")
        report.metric("frame_latency_p95_ms", percentile(plain.latency_ms, 95),
                      len(plain.latency_ms), "untraced")
        report.metric("trace.overhead_pct",
                      (median(traced.net_latency_ms) / median(plain.net_latency_ms) - 1) * 100,
                      note="traced vs untraced latency p50, net of steal")
    report.fill_bypassed()
    failed = plain.failed + traced.failed + codec_failed
    report.result(failed == 0, plain.attempted + traced.attempted + codec_tried, failed)


def offline_workload(seed: int, seconds: float, trace: bool, size: str) -> None:
    import offline
    from drowsebench import cli

    inputs, work = offline.generate_inputs(seed, size)
    try:
        jobs = offline.build_jobs(inputs, seed, size)
        print(f"# sizes {json.dumps({job.name: job.units for job in jobs})}")
        if not trace:
            report = Report(END_TO_END)
            setup, bare = offline.measure_import()
            calls = offline.run_rounds(cli, jobs, seconds)
            walls = offline.job_times(calls, "wall_s")
            cpus = offline.job_times(calls, "cpu_s")
            rounds = len(calls) // len(jobs)
            report.metric("latency_p50_ms",
                          offline.composite(offline.job_times(calls, "net_s")) * 1000, len(calls),
                          "geometric mean over jobs of median cli.main wall time net of steal")
            report.line("latency_p50_ms (wall clock)", offline.composite(walls) * 1000, "ms",
                        len(calls), f"{offline.stolen_share(calls):.1%} of job time stolen")
            report.metric("cpu_ms_per_request", offline.composite(cpus) * 1000, len(calls),
                          "geometric mean over jobs of median cli.main CPU time")
            for job in jobs:
                times = ", ".join(f"{t:.4f}" for t in walls[job.name])
                print(f"#   {job.name}: {job.units} units, call wall s: {times}")
            for key, value in offline.job_rates(calls, jobs).items():
                report.line(key, value, "1/s", rounds)
            report.metric("setup_s", median(setup), len(setup),
                          f"cold import drowsebench.cli, net of steal; bare interpreter "
                          f"{median(bare):.4f} s")
            report.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), 1,
                          "process running the cli.main jobs")
            report.line("synth.gen_s", inputs["synth_gen_s"], "s", note="set-up, not gated")
        else:
            report = Report(PER_LAYER)
            plain = offline.run_rounds(cli, jobs, seconds / 2)
            traced, layers = offline.traced_pass(cli, jobs, seconds / 2, inputs)
            codec_tried, codec_failed = codec_metrics(report)
            for key, value in layers.items():
                report.metric(key, value)
            for key, value in offline.job_rates(plain, jobs).items():
                report.metric(key, value, len(plain) // len(jobs), "untraced")
            overhead = (offline.composite(offline.job_times(traced, "net_s"))
                        / offline.composite(offline.job_times(plain, "net_s")) - 1) * 100
            report.metric("trace.overhead_pct", overhead,
                          note="traced vs untraced job time, net of steal")
            report.fill_bypassed()
            calls = plain + traced
        errors = [c for c in calls if c.error]
        for c in errors:
            print(f"# {c.job} failed: {c.error}", file=sys.stderr)
        failed = len(errors) + (codec_failed if trace else 0)
        report.result(failed == 0, len(calls) + (codec_tried if trace else 0), failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # On SIGTERM unwind normally, so every echo-server child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        drowsebench = import_program()
        cpu = pin_to_one_cpu()
        meta = {
            "drowsebench": drowsebench.__version__,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "pinned_cpu": cpu,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
        }
        print(f"# meta {json.dumps(meta)}", flush=True)
        start = time.perf_counter()
        if args.workload == "offline":
            offline_workload(args.seed, args.seconds, bool(args.trace), args.size)
        else:
            stream_workload(args.workload, args.seconds, bool(args.trace))
        print(f"# run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
