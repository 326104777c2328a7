"""Command-line front end for the benchmark and decision toolkit.

Subcommands:

    echo-server     serve frame echoes until interrupted
    stream-bench    paced streaming against an echo server, per resolution
    pipeline-bench  simulate the staged pipeline from a profile file
    detect          EAR series CSV -> blinks and per-blink features
    optimize        pick cost-minimal thresholds for score CSVs
    vote            weighted ensemble vote from model stats
    gen             synthesize EAR series or score datasets
    report          re-render an exported CSV as a summary table

Exit codes: 0 success, 1 usage error, 2 runtime or I/O error,
3 degenerate input data.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import math
import sys

from .protocol import PixelFormat
from .report import DegenerateDataError, ReportTable, mean_std_cell, pstdev, read_header
from .transport import (
    RTT_CSV_HEADER,
    EchoServer,
    ProtocolError,
    interval_stats,
    raw_bandwidth,
    read_rtt_csv,
    run_echo_server,
    stream_and_measure,
    write_rtt_csv,
)

# The offline subcommands' library, by module.  echo-server and
# stream-bench never import these modules; main() binds the names into
# this module's namespace before any other subcommand runs.  They are
# bound as module globals, not imported inside each subcommand, because
# perfbench's tracer wraps them with ``setattr(cli, name, wrapper)`` and
# the subcommands must call the wrapper.  So ``__getattr__`` makes each
# name readable before any subcommand has run, and ``_library`` never
# replaces a name that is already set.
_LIBRARY = {
    "blink": ("BlinkDetectionConfig", "detect_blinks", "extract_all_features", "read_ear_csv",
              "write_ear_csv", "write_features_csv"),
    "decision": ("DEFAULT_W_FN", "DEFAULT_W_FP", "compare_to_default", "optimize_threshold",
                 "read_model_stats_json", "read_scores_csv", "sweep", "threshold_grid", "vote",
                 "write_curve_csv", "write_scores_csv"),
    "pipeline": ("TIMING_CSV_HEADER", "TimingSummary", "average_stage_set", "load_stage_sets",
                 "queue_stability", "read_timings_csv", "simulate_session", "summarize_timings",
                 "write_timings_csv"),
    "synth": ("ScoreDatasetSpec", "evenly_spaced_script", "gen_ear_series", "gen_score_dataset"),
}


def _library() -> None:
    namespace = globals()
    for module, names in _LIBRARY.items():
        library = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(library, name))


def __getattr__(name: str):
    if any(name in names for names in _LIBRARY.values()):
        _library()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _positive_float(text: str) -> float:
    """argparse ``type`` for a rate such as ``--fps``: positive and finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive, finite number, got {text!r}")
    return value


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):  # an IPv6 host, as in [::1]:7600
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not 0 <= port <= 65535:
        raise UsageError(f"expected HOST:PORT, got {text!r}")
    return host, port


def _parse_resolutions(text: str) -> list[tuple[int, int]]:
    resolutions = []
    for item in text.split(","):
        w, _, h = item.partition("x")  # without an "x", h is empty and int(h) raises
        try:
            resolutions.append((int(w), int(h)))
        except ValueError:
            raise UsageError(f"expected WIDTHxHEIGHT, got {item!r}") from None
        if resolutions[-1][0] <= 0 or resolutions[-1][1] <= 0:
            raise UsageError(f"expected WIDTHxHEIGHT, got {item!r}")
    return resolutions


def _parse_class_spec(text: str, flag: str) -> tuple[int, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects COUNT,MEAN,STD, got {text!r}")
    try:
        count, mean, std = int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise UsageError(f"{flag} expects COUNT,MEAN,STD, got {text!r}") from None
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise UsageError(f"{flag} expects a finite MEAN and STD, got {text!r}")
    return count, mean, std


def _parse_decisions(text: str) -> list[int]:
    try:
        decisions = [int(item) for item in text.split(",")]
    except ValueError:
        raise UsageError(f"--decisions expects a comma list of 0/1, got {text!r}") from None
    if any(d not in (0, 1) for d in decisions):
        raise UsageError(f"--decisions expects a comma list of 0/1, got {text!r}")
    return decisions


def _emit(args, table: ReportTable, payload: dict) -> None:
    if args.json:
        import json  # here, like statistics below: echo-server never loads it

        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(table.render())


def _stages_json(summary: TimingSummary) -> dict:
    """``{stage: {"mean_ms", "std_ms"}}`` for face, landmark, blink and total."""
    stages = dataclasses.asdict(summary)
    del stages["count"]
    return stages


def _stage_cells(stages: dict) -> list[str]:
    """One ``mean ± std`` cell per stage of ``_stages_json``."""
    return [mean_std_cell(stat["mean_ms"], stat["std_ms"]) for stat in stages.values()]


def _round_trip_cells(summary: dict) -> list[str]:
    """The inter-arrival ``mean ± std`` and median and the RTT ``mean ± std`` and p99, in ms."""
    gaps, rtt = summary["inter_arrival_us"], summary["rtt_us"]
    return [
        mean_std_cell(gaps["mean"] / 1000, gaps["std"] / 1000),
        f"{gaps['median'] / 1000:.3f}",
        mean_std_cell(rtt["mean"] / 1000, rtt["std"] / 1000),
        f"{rtt['p99'] / 1000:.3f}",
    ]


def _round_trip_json(records) -> dict:
    """``inter_arrival_us`` and ``rtt_us`` summaries of one round-trip run.

    RTT percentiles interpolate linearly between the nearest ranks.
    """
    import statistics  # it loads fractions and decimal too

    stats = interval_stats(records)
    rtts = [r.rtt_us for r in records]
    cuts = statistics.quantiles(rtts, n=100, method="inclusive")
    return {
        "inter_arrival_us": {
            "count": stats.count,
            "mean": stats.mean_us,
            "std": stats.std_us,
            "median": stats.median_us,
            "min": stats.min_us,
            "max": stats.max_us,
        },
        "rtt_us": {
            "mean": statistics.fmean(rtts),
            "std": pstdev(rtts),
            "p50": cuts[49],
            "p95": cuts[94],
            "p99": cuts[98],
            "max": max(rtts),
        },
    }


def cmd_echo_server(args) -> int:
    host, port = _parse_endpoint(args.listen)
    run_echo_server(host, port)
    return 0


def cmd_stream_bench(args) -> int:
    if bool(args.connect) == bool(args.loopback):
        raise UsageError("exactly one of --connect or --loopback is required")
    if args.frames < 2:
        raise UsageError(f"--frames must be at least 2, got {args.frames}")
    resolutions = _parse_resolutions(args.res)
    pixel_format = PixelFormat.RGB24 if args.pixel_format == "rgb24" else PixelFormat.EMPTY

    with contextlib.ExitStack() as stack:
        if args.loopback:
            host, port = stack.enter_context(EchoServer()).address
        else:
            host, port = _parse_endpoint(args.connect)

        table = ReportTable(
            title=(
                f"stream-bench: {args.frames} frames at {args.fps} fps, "
                f"{pixel_format.name.lower()} payload via {host}:{port}"
            ),
            headers=["resolution", "frames", "inter-arrival ms", "median ms",
                     "rtt ms", "rtt p99 ms", "raw Mbit/s"],
        )
        payload = {
            "fps": args.fps,
            "frames": args.frames,
            "pixel_format": pixel_format.name.lower(),
            "resolutions": [],
        }
        for width, height in resolutions:
            records = stream_and_measure(
                host, port, args.fps, args.frames, width, height, pixel_format
            )
            summary = _round_trip_json(records)
            bandwidth = raw_bandwidth(width, height, 24, args.fps)
            table.add_row(f"{width}x{height}", len(records), *_round_trip_cells(summary),
                          f"{bandwidth / 1e6:.3f}")
            payload["resolutions"].append(
                {
                    "resolution": f"{width}x{height}",
                    **summary,
                    "raw_bandwidth_bps": bandwidth,
                }
            )
            if args.out:
                write_rtt_csv(records, f"{args.out}-{width}x{height}.csv")
        _emit(args, table, payload)
    return 0


def cmd_pipeline_bench(args) -> int:
    if args.frames < 1:
        raise UsageError(f"--frames must be at least 1, got {args.frames}")
    stage_sets = load_stage_sets(args.profile)
    if not stage_sets:
        raise DegenerateDataError(f"{args.profile} holds no stage sets")
    if len(stage_sets) > 1:
        if "average" in stage_sets:
            raise ValueError(
                f"{args.profile}: stage set name 'average' is reserved for the average row"
            )
        stage_sets["average"] = average_stage_set(stage_sets)
    duration_s = args.frames / args.fps

    table = ReportTable(
        title=f"pipeline-bench: {args.frames} frames at {args.fps} fps, seed {args.seed}",
        headers=["profile", "face ms", "landmark ms", "blink ms", "total ms",
                 "max queue", "verdict"],
    )
    payload = {"fps": args.fps, "frames": args.frames, "seed": args.seed, "profiles": []}
    for index, (name, profiles) in enumerate(stage_sets.items()):
        trace = simulate_session(args.fps, duration_s, profiles, args.seed + index)
        durations = trace.durations_ms()
        stages = _stages_json(summarize_timings(durations))
        verdict = queue_stability(profiles, args.fps)
        if verdict.stable:
            verdict_text = (
                f"stable (service {verdict.service_ms:.3f} ms < "
                f"budget {verdict.budget_ms:.3f} ms)"
            )
        else:
            verdict_text = f"unstable (backlog +{verdict.backlog_growth_rate:.2f} frames/s)"
        table.add_row(name, *_stage_cells(stages), trace.max_queue_length, verdict_text)
        payload["profiles"].append(
            {
                "profile": name,
                "stages": stages,
                "max_queue_length": trace.max_queue_length,
                "backlog": trace.backlog,
                "stable": verdict.stable,
                "backlog_growth_rate": verdict.backlog_growth_rate,
            }
        )
        if args.out:
            write_timings_csv(durations, f"{args.out}-{name}.csv")
        del trace, durations  # free this set's columns before the next set is simulated
    _emit(args, table, payload)
    return 0


def cmd_detect(args) -> int:
    try:
        config = BlinkDetectionConfig(
            close_threshold=args.close_threshold, min_closed_frames=args.min_closed_frames
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    series = read_ear_csv(args.infile)
    if not series:
        raise DegenerateDataError(f"{args.infile} holds no EAR samples")

    blinks = detect_blinks(series, config)
    features = extract_all_features(blinks, series, args.fps)
    table = ReportTable(
        title=f"detect: {len(blinks)} blinks in {len(series)} samples",
        headers=["blink_id", "start", "apex", "end", "amplitude", "velocity",
                 "duration_s", "freq_per_min"],
    )
    payload = {"samples": len(series), "blinks": []}
    for blink_id, (blink, feats) in enumerate(zip(blinks, features)):
        table.add_row(
            blink_id,
            blink.start_frame,
            blink.apex_frame,
            blink.end_frame,
            f"{feats.amplitude:.3f}",
            f"{feats.velocity:.3f}",
            f"{feats.duration_s:.3f}",
            f"{feats.freq_per_min:.1f}",
        )
        payload["blinks"].append(
            {"blink_id": blink_id, **vars(blink), **vars(feats)}
        )
    _emit(args, table, payload)
    if args.out:
        write_features_csv(features, args.out)
        # --json keeps stdout one JSON document
        print(
            f"wrote {len(features)} feature rows to {args.out}",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0


def cmd_optimize(args) -> int:
    w_fn = DEFAULT_W_FN if args.w_fn is None else args.w_fn
    w_fp = DEFAULT_W_FP if args.w_fp is None else args.w_fp
    if not (0 <= w_fn < math.inf and 0 <= w_fp < math.inf):
        raise UsageError("cost weights must be non-negative and finite")
    grid = threshold_grid()
    table = ReportTable(
        title=f"optimize: cost = {w_fn:g}*fn + {w_fp:g}*fp over {len(grid)} thresholds",
        headers=["model", "opt t", "cost", "fp", "fn",
                 "def t", "cost", "fp", "fn", "fp change", "fn change"],
    )
    payload = {"w_fn": w_fn, "w_fp": w_fp, "models": []}
    for model_id, path in enumerate(args.scores, start=1):
        tally = read_scores_csv(path)
        threshold, _ = optimize_threshold(tally, w_fn, w_fp)
        cmp = compare_to_default(tally, threshold, w_fn, w_fp)
        curve = sweep(tally, w_fn, w_fp) if args.curve_out else None

        def pct(value: float | None) -> str:
            return "n/a" if value is None else f"{value:+.1f}%"

        opt, dft = cmp.optimal, cmp.default
        table.add_row(
            model_id,
            f"{opt.threshold:.2f}", f"{opt.cost:.2f}", f"{opt.fpr:.2f}", f"{opt.fnr:.3f}",
            f"{dft.threshold:.2f}", f"{dft.cost:.2f}", f"{dft.fpr:.2f}", f"{dft.fnr:.3f}",
            pct(cmp.fpr_change_pct),
            pct(cmp.fnr_change_pct),
        )
        payload["models"].append(
            {
                "model_id": model_id,
                "file": str(path),
                "optimal_threshold": opt.threshold,
                "optimal": {"cost": opt.cost, "fpr": opt.fpr, "fnr": opt.fnr},
                "default_threshold": dft.threshold,
                "default": {"cost": dft.cost, "fpr": dft.fpr, "fnr": dft.fnr},
                "fpr_change_pct": cmp.fpr_change_pct,
                "fnr_change_pct": cmp.fnr_change_pct,
            }
        )
        if curve is not None:
            suffix = f"-model{model_id}" if len(args.scores) > 1 else ""
            write_curve_csv(curve, f"{args.curve_out}{suffix}.csv")
        del tally  # free this file's scores before the next file is read
    _emit(args, table, payload)
    return 0


def cmd_vote(args) -> int:
    import json

    stats = read_model_stats_json(args.stats)
    if not stats:
        raise DegenerateDataError(f"{args.stats} holds no model stats")
    decisions = _parse_decisions(args.decisions)
    if len(decisions) != len(stats):
        raise UsageError(f"{len(decisions)} decisions for {len(stats)} models")
    result = vote(decisions, stats)
    print(
        json.dumps(
            {
                "weights": list(result.weights),
                "total_weight": result.total_weight,
                "prediction": result.prediction,
                "decision": result.decision.name.lower(),
            },
            indent=2,
        )
    )
    return 0


def cmd_gen(args) -> int:
    if args.what == "ear":
        if args.blinks < 0:
            raise UsageError(f"--blinks must be >= 0, got {args.blinks}")
        if not 0 <= args.noise < math.inf:
            raise UsageError(f"--noise must be >= 0 and finite, got {args.noise}")
        if args.frames is not None and args.frames < 1:
            raise UsageError(f"--frames must be at least 1, got {args.frames}")
        script = evenly_spaced_script(
            n_blinks=args.blinks,
            fps=args.fps,
            total_frames=args.frames,
            noise_std=args.noise,
            seed=args.seed,
        )
        series, truth = gen_ear_series(script)
        write_ear_csv(series, args.out)
        print(f"wrote {len(series)} EAR samples ({len(truth)} blinks) to {args.out}")
    else:
        n_alert, alert_mean, alert_std = _parse_class_spec(args.alert, "--alert")
        n_drowsy, drowsy_mean, drowsy_std = _parse_class_spec(args.drowsy, "--drowsy")
        try:
            spec = ScoreDatasetSpec(
                n_alert=n_alert,
                n_drowsy=n_drowsy,
                alert_mean=alert_mean,
                alert_std=alert_std,
                drowsy_mean=drowsy_mean,
                drowsy_std=drowsy_std,
                seed=args.seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        sequences = gen_score_dataset(spec)
        write_scores_csv(sequences, args.out)
        print(f"wrote {len(sequences)} scored sequences to {args.out}")
    return 0


def cmd_report(args) -> int:
    # the input is read once, header and all, so it may be a pipe
    with open(args.infile, newline="") as fh:
        header, lines = read_header(fh)
        if header == TIMING_CSV_HEADER:
            return _report_timings(args, read_timings_csv(args.infile, lines))
        if header == RTT_CSV_HEADER:
            return _report_round_trips(args, read_rtt_csv(args.infile, lines))
        # neither reader ran, so the lines still start at the header line
        raise ValueError(f"{args.infile}: unrecognized CSV header {next(lines).strip()!r}")


def _report_timings(args, columns: list[list]) -> int:
    """``report`` on the columns of a timing CSV."""
    frame_ids, *durations = columns
    if not frame_ids:
        raise DegenerateDataError(f"{args.infile} holds no timing rows")
    stages = _stages_json(summarize_timings(durations))
    table = ReportTable(
        title=f"timing summary of {args.infile} ({len(frame_ids)} frames)",
        headers=["stage", "duration ms"],
    )
    for stage, cell in zip(stages, _stage_cells(stages)):
        table.add_row(stage, cell)
    _emit(args, table, {"frames": len(frame_ids), "stages": stages})
    return 0


def _report_round_trips(args, records: list) -> int:
    """``report`` on the records of a round-trip CSV."""
    if len(records) < 2:
        raise DegenerateDataError(f"{args.infile} holds fewer than two records")
    summary = _round_trip_json(records)
    table = ReportTable(
        title=f"round-trip summary of {args.infile} ({len(records)} frames)",
        headers=["metric", "value ms"],
    )
    metrics = ("inter-arrival", "inter-arrival median", "rtt", "rtt p99")
    for metric, cell in zip(metrics, _round_trip_cells(summary)):
        table.add_row(metric, cell)
    _emit(args, table, {"frames": len(records), **summary})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="drowsebench",
        description="Benchmark and decision toolkit for a real-time blink pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("echo-server", help="serve frame echoes until interrupted")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.set_defaults(func=cmd_echo_server)

    p = sub.add_parser("stream-bench", help="paced streaming benchmark")
    p.add_argument("--connect", metavar="HOST:PORT")
    p.add_argument("--loopback", action="store_true",
                   help="benchmark against an in-process echo server")
    p.add_argument("--fps", type=_positive_float, default=30.0)
    p.add_argument("--frames", type=int, default=500)
    p.add_argument("--res", default="320x240,640x480,960x540,1280x720",
                   help="comma list of WIDTHxHEIGHT")
    p.add_argument("--pixel-format", choices=["rgb24", "empty"], default="rgb24")
    p.add_argument("--out", metavar="PREFIX", help="write per-resolution round-trip CSVs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stream_bench)

    p = sub.add_parser("pipeline-bench", help="simulate the staged pipeline")
    p.add_argument("--profile", required=True, help="stage profile JSON file")
    p.add_argument("--fps", type=_positive_float, default=30.0)
    p.add_argument("--frames", type=int, default=450)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PREFIX", help="write per-profile timing CSVs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pipeline_bench)

    p = sub.add_parser("detect", help="detect blinks in an EAR series CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="EAR_CSV")
    p.add_argument("--fps", type=_positive_float, default=30.0)
    p.add_argument("--close-threshold", type=float, default=0.2)
    p.add_argument("--min-closed-frames", type=int, default=2)
    p.add_argument("--out", metavar="FEATURES_CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("optimize", help="cost-minimal thresholds for score CSVs")
    p.add_argument("--scores", action="append", required=True, metavar="SCORES_CSV",
                   help="repeat for several models")
    # unset, cmd_optimize takes decision's defaults: parsing imports no decision
    p.add_argument("--w-fn", type=float)
    p.add_argument("--w-fp", type=float)
    p.add_argument("--curve-out", metavar="PREFIX", help="write threshold sweep CSVs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("vote", help="weighted ensemble vote")
    p.add_argument("--stats", required=True, metavar="STATS_JSON")
    p.add_argument("--decisions", required=True, metavar="D1,D2,...")
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("gen", help="synthesize benchmark inputs")
    gen_sub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)

    g = gen_sub.add_parser("ear", help="scripted EAR series")
    g.add_argument("--blinks", type=int, required=True)
    g.add_argument("--fps", type=_positive_float, default=30.0)
    g.add_argument("--frames", type=int, help="minimum series length")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, metavar="EAR_CSV")
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("scores", help="labeled score dataset")
    g.add_argument("--alert", required=True, metavar="COUNT,MEAN,STD")
    g.add_argument("--drowsy", required=True, metavar="COUNT,MEAN,STD")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, metavar="SCORES_CSV")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("report", help="summarize an exported CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.func not in (cmd_echo_server, cmd_stream_bench):
            _library()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 3
    except (OSError, ProtocolError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
