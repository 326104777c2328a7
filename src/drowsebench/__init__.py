"""Benchmark and decision toolkit for a real-time blink-based pipeline.

Modules:

    protocol   binary frame-message codec
    transport  echo server, paced streaming client, throughput stats
    pipeline   staged processing simulator and queue-stability analysis
    blink      blink detection, feature extraction
    decision   threshold optimization and weighted ensemble voting
    synth      seeded generators for EAR traces and score datasets
    report     fixed-width report tables, the population std, the CSV
               readers and writer
    cli        the ``drowsebench`` command-line front end
"""

__version__ = "0.1.0"

from .blink import (  # noqa: F401
    Blink,
    BlinkDetectionConfig,
    BlinkFeatures,
    EarSeries,
    detect_blinks,
    extract_all_features,
)
from .decision import (  # noqa: F401
    ConfusionMatrix,
    Label,
    ModelStats,
    Rates,
    ScoredSequence,
    ScoreTally,
    ThresholdCurve,
    VoteResult,
    compare_to_default,
    cost,
    model_weight,
    optimize_threshold,
    sweep,
    threshold_grid,
    vote,
    weighted_vote,
)
from .pipeline import (  # noqa: F401
    Distribution,
    SessionTrace,
    StabilityVerdict,
    StageName,
    StageProfile,
    TimingSummary,
    load_stage_sets,
    queue_stability,
    simulate_session,
    summarize_timings,
)
from .protocol import (  # noqa: F401
    FrameMessage,
    MessageType,
    PixelFormat,
    decode_frame,
    encode_frame,
)
from .synth import (  # noqa: F401
    BlinkScript,
    ScoreDatasetSpec,
    ScriptedBlink,
    gen_ear_series,
    gen_score_dataset,
)
from .transport import (  # noqa: F401
    EchoServer,
    IntervalStats,
    RoundTripRecord,
    interval_stats,
    raw_bandwidth,
    stream_and_measure,
)
