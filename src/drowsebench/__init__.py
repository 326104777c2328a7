"""Benchmark and decision toolkit for a real-time blink-based pipeline.

Modules:

    protocol   binary frame-message codec
    transport  echo server, paced streaming client, throughput stats
    pipeline   staged processing simulator and queue-stability analysis
    blink      blink detection, feature extraction
    decision   threshold optimization and weighted ensemble voting
    synth      seeded generators for EAR traces and score datasets
    report     fixed-width report tables, the population std, the CSV
               readers and writer, the degenerate-data error
    cli        the ``drowsebench`` command-line front end

``import drowsebench`` imports none of them.  Each name below loads its
module on first use (``drowsebench.X`` or ``from drowsebench import X``),
so the echo server and the stream client never load the offline
modules; ``dir(drowsebench)`` lists every name before it is loaded.
"""

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in [
        ("blink", ("Blink", "BlinkDetectionConfig", "BlinkFeatures", "EarSeries",
                   "detect_blinks", "extract_all_features")),
        ("decision", ("ConfusionMatrix", "Label", "ModelStats", "Rates", "ScoredSequence",
                      "ScoreTally", "ThresholdCurve", "VoteResult", "compare_to_default",
                      "cost", "model_weight", "optimize_threshold", "sweep", "threshold_grid",
                      "vote", "weighted_vote")),
        ("pipeline", ("Distribution", "SessionTrace", "StabilityVerdict", "StageName",
                      "StageProfile", "TimingSummary", "load_stage_sets", "queue_stability",
                      "simulate_session", "summarize_timings")),
        ("protocol", ("FrameMessage", "MessageType", "PixelFormat", "decode_frame",
                      "encode_frame")),
        ("synth", ("BlinkScript", "ScoreDatasetSpec", "ScriptedBlink", "gen_ear_series",
                   "gen_score_dataset")),
        ("transport", ("EchoServer", "IntervalStats", "RoundTripRecord", "interval_stats",
                       "raw_bandwidth", "stream_and_measure")),
    ]
    for name in names
}
__all__ = sorted(_EXPORTS)  # ``from drowsebench import *`` loads every module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find the name without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
