"""Release acceptance suite: one test per criterion, numbered 01-12.

Each test prints a single ``[NN] name: PASS/FAIL (detail)`` line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import random
import statistics
import time

from drowsebench.blink import BlinkDetectionConfig, detect_blinks, extract_all_features
from drowsebench.decision import (
    Label,
    Rates,
    ScoredSequence,
    ScoreTally,
    compare_to_default,
    cost,
    optimize_threshold,
    sweep,
    threshold_grid,
    weighted_vote,
)
from drowsebench.pipeline import (
    average_stage_set,
    load_stage_sets,
    simulate_session,
    summarize_timings,
)
from drowsebench.protocol import (
    FrameMessage,
    MessageType,
    PixelFormat,
    decode_frame,
    encode_frame,
    expected_payload_len,
)
from drowsebench.synth import (
    BlinkScript,
    ScoreDatasetSpec,
    ScriptedBlink,
    gen_ear_series,
    gen_score_dataset,
)
from drowsebench.transport import EchoServer, interval_stats, raw_bandwidth, stream_and_measure


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_01_throughput_reproduction():
    t0 = time.perf_counter()
    with EchoServer() as server:
        host, port = server.address
        records = stream_and_measure(
            host, port, fps=30.0, n_frames=500, width=1280, height=720
        )
    elapsed = time.perf_counter() - t0
    stats = interval_stats(records)
    period_us = 1e6 / 30
    ok = abs(stats.median_us - period_us) <= 1000 and abs(stats.mean_us - period_us) <= 1000
    _verdict(
        1, "throughput-reproduction", ok,
        f"inter-arrival median {stats.median_us / 1000:.3f} ms, "
        f"mean {stats.mean_us / 1000:.3f} ms, std {stats.std_us / 1000:.3f} ms, "
        f"{elapsed:.1f} s wall",
    )


def test_02_realtime_budget_dichotomy(profiles_dir):
    t0 = time.perf_counter()
    mini = average_stage_set(load_stage_sets(profiles_dir / "mini-pc.json"))
    jetson = average_stage_set(load_stage_sets(profiles_dir / "jetson-nano.json"))
    mini_trace = simulate_session(30, 15, mini, seed=21)  # 450 frames
    jetson_trace = simulate_session(30, 10, jetson, seed=22)  # 300 frames
    elapsed = time.perf_counter() - t0

    expected_backlog = (30 - 1000 / 94.27) * 10
    lo, hi = 0.9 * expected_backlog, 1.1 * expected_backlog
    ok = (
        mini_trace.max_queue_length <= 3
        and lo <= jetson_trace.backlog <= hi
        and elapsed < 1.0
    )
    _verdict(
        2, "realtime-budget-dichotomy", ok,
        f"mini max queue {mini_trace.max_queue_length} <= 3, jetson backlog "
        f"{jetson_trace.backlog} in [{lo:.1f}, {hi:.1f}], {elapsed * 1000:.0f} ms wall",
    )


def test_03_timing_recovery(profiles_dir):
    failures = []
    worst = 0.0
    stages_checked = 0
    seed = 300
    for device in ("desktop-pc", "jetson-nano", "mini-pc"):
        for res, profiles in sorted(load_stage_sets(profiles_dir / f"{device}.json").items()):
            trace = simulate_session(30, 15, profiles, seed=seed)  # 450 frames
            seed += 1
            summary = summarize_timings(trace.durations_ms())
            by_stage = dict(
                zip(("face", "landmark", "blink"), (summary.face, summary.landmark,
                                                    summary.blink))
            )
            for p in profiles:
                stages_checked += 1
                tolerance = 3 * p.std_ms / math.sqrt(450)
                error = abs(by_stage[p.name.value].mean_ms - p.mean_ms)
                if tolerance:
                    worst = max(worst, error / tolerance)
                if error > tolerance:
                    failures.append(
                        f"{device}/{res}/{p.name.value}: error {error:.4f} ms > "
                        f"tolerance {tolerance:.4f} ms"
                    )
    _verdict(
        3, "timing-recovery", not failures,
        failures[0] if failures
        else f"{stages_checked} stage means within 3*std/sqrt(450), "
             f"worst at {worst:.0%} of tolerance",
    )


def test_04_cost_fixtures():
    # per-model miss/false-alarm rates with their expected cost cells;
    # the quoted cost for model 4 contradicts its own rates under the
    # 2*fn + fp formula, so the formula value is what the fixture checks
    rows = [
        (1, 0.061, 0.35, 0.47),
        (2, 0.041, 0.22, 0.30),
        (3, 0.043, 0.31, 0.40),
        (4, 0.055, 0.36, 0.470),
        (5, 0.064, 0.30, 0.43),
    ]
    failures = []
    for model_id, fnr, fpr, expected in rows:
        rates = Rates(
            fpr=fpr, fnr=fnr, tpr=1 - fnr, tnr=1 - fpr,
            has_positives=True, has_negatives=True,
        )
        got = cost(rates)
        if abs(got - expected) > 0.005:
            failures.append(f"model {model_id}: cost {got:.3f}, expected {expected} +- 0.005")
    _verdict(
        4, "cost-fixtures", not failures,
        failures[0] if failures else "five models within +-0.005",
    )


def _score_groups(*groups):
    sequences = []
    for count, score, label in groups:
        for _ in range(count):
            sequences.append(ScoredSequence(id=len(sequences), score=score, label=label))
    return sequences


def _tally(sequences):
    return ScoreTally([s.score for s in sequences if s.label is Label.DROWSY],
                      [s.score for s in sequences if s.label is not Label.DROWSY])


def test_05_percent_change_claims():
    # operating points: default (fpr 0.21, fnr 0.114), optimal
    # (fpr 0.31, fnr 0.043)
    data = _score_groups(
        (69, 4.0, Label.ALERT),
        (10, 6.0, Label.ALERT),
        (21, 7.0, Label.ALERT),
        (43, 4.0, Label.DROWSY),
        (71, 6.0, Label.DROWSY),
        (886, 7.0, Label.DROWSY),
    )
    threshold, _ = optimize_threshold(_tally(data))
    cmp = compare_to_default(_tally(data), threshold)
    ok = (
        cmp.fpr_change_pct is not None
        and cmp.fnr_change_pct is not None
        and abs(cmp.fpr_change_pct - 47.6) <= 0.1
        and abs(cmp.fnr_change_pct - (-62.3)) <= 0.1
    )
    _verdict(
        5, "percent-change-claims", ok,
        f"fp change {cmp.fpr_change_pct:+.2f}% (target +47.6 +- 0.1), "
        f"fn change {cmp.fnr_change_pct:+.2f}% (target -62.3 +- 0.1)",
    )


_corpus_cache: list[list[ScoredSequence]] | None = None


def _score_corpus() -> list[list[ScoredSequence]]:
    """120 seeded datasets, n = 50-400, both classes always present."""
    global _corpus_cache
    if _corpus_cache is None:
        meta = random.Random(0xA11CE)
        datasets = []
        for _ in range(120):
            n = meta.randint(50, 400)
            n_alert = meta.randint(1, n - 1)
            spec = ScoreDatasetSpec(
                n_alert=n_alert,
                n_drowsy=n - n_alert,
                alert_mean=meta.uniform(0.5, 6.0),
                alert_std=meta.uniform(0.2, 2.5),
                drowsy_mean=meta.uniform(4.0, 9.5),
                drowsy_std=meta.uniform(0.2, 2.5),
                seed=meta.randrange(2**31),
            )
            datasets.append(gen_score_dataset(spec))
        _corpus_cache = datasets
    return _corpus_cache


def _manual_cost(sequences, threshold):
    fp = fn = positives = negatives = 0
    for s in sequences:
        predicted = s.score >= threshold
        if s.label is Label.DROWSY:
            positives += 1
            fn += not predicted
        else:
            negatives += 1
            fp += predicted
    return 2.0 * (fn / positives) + 1.0 * (fp / negatives)


def test_06_optimizer_oracle_equivalence():
    grid = threshold_grid()
    failures = []
    for i, data in enumerate(_score_corpus()):
        oracle_costs = [_manual_cost(data, t) for t in grid]
        oracle_best = min(oracle_costs)
        threshold, rates = optimize_threshold(_tally(data))
        got = cost(rates)
        idx = grid.index(threshold)
        if got != oracle_best:
            failures.append(f"dataset {i}: cost {got!r} != oracle {oracle_best!r}")
        elif oracle_costs[idx] != oracle_best:
            failures.append(f"dataset {i}: returned threshold is not a minimizer")
        elif any(c == oracle_best for c in oracle_costs[:idx]):
            failures.append(f"dataset {i}: a smaller grid threshold ties {threshold:.3f}")
    _verdict(
        6, "optimizer-oracle-equivalence", not failures,
        failures[0] if failures
        else f"{len(_score_corpus())} datasets match exhaustive enumeration exactly",
    )


def test_07_sweep_monotonicity():
    violations = 0
    steps = 0
    for data in _score_corpus():
        points = sweep(_tally(data)).points
        for a, b in zip(points, points[1:]):
            steps += 1
            if b.fpr > a.fpr or b.fnr < a.fnr:
                violations += 1
    _verdict(
        7, "sweep-monotonicity", violations == 0,
        f"{violations} violations over {steps} grid steps in "
        f"{len(_score_corpus())} datasets",
    )


def test_08_voting_properties():
    rng = random.Random(0xEB5)
    failures = []
    for i in range(1000):
        n = rng.randint(1, 9)
        weights = [rng.uniform(0.01, 5.0) for _ in range(n)]
        decisions = [rng.randint(0, 1) for _ in range(n)]
        p = weighted_vote(weights, decisions).prediction
        if not 0.0 <= p <= 1.0:
            failures.append(f"ensemble {i}: P={p!r} outside [0, 1]")
            continue
        for j in range(n):
            if decisions[j] == 0:
                flipped = list(decisions)
                flipped[j] = 1
                if weighted_vote(weights, flipped).prediction < p:
                    failures.append(f"ensemble {i}: flipping vote {j} decreased P")
                    break
        if weighted_vote(weights, [1] * n).prediction != 1.0:
            failures.append(f"ensemble {i}: unanimous drowsy P != 1.0")
        if weighted_vote(weights, [0] * n).prediction != 0.0:
            failures.append(f"ensemble {i}: unanimous alert P != 0.0")
        scaled = weighted_vote([w * 7 for w in weights], decisions).prediction
        if abs(scaled - p) > 1e-12:
            failures.append(f"ensemble {i}: scaling weights by 7 moved P by {abs(scaled - p)}")
    _verdict(
        8, "voting-properties", not failures,
        failures[0] if failures else "1000 ensembles satisfy all four properties",
    )


def test_09_grid_exactness():
    grid = threshold_grid()
    ok = len(grid) == 21 and abs(grid[0] - 10 / 3) <= 1e-12 and grid[-1] == 10.0
    _verdict(
        9, "grid-exactness", ok,
        f"len {len(grid)}, first {grid[0]!r}, last {grid[-1]!r}",
    )


def test_10_blink_pipeline_oracle():
    rng = random.Random(0x3AB)
    failures = []
    for i in range(50):
        fps = rng.choice([24.0, 30.0, 60.0])
        baseline = rng.uniform(0.25, 0.40)
        blinks = []
        onset = rng.randint(12, 25)
        for _ in range(rng.randint(1, 6)):
            blink = ScriptedBlink(
                onset_frame=onset,
                closed_frames=rng.randint(1, 8),
                trough_ear=rng.uniform(0.01, baseline - 0.12),
                baseline_ear=baseline,
                descent_frames=rng.randint(2, 6),
            )
            blinks.append(blink)
            onset = blink.end_frame + rng.randint(12, 40)
        script = BlinkScript(
            blinks=tuple(blinks), fps=fps, total_frames=blinks[-1].end_frame + 15
        )
        series, truth = gen_ear_series(script)

        # threshold in the open band: above every ramp sample, below the
        # baseline, so detected shoulders coincide with scripted ones
        step = min((b.baseline_ear - b.trough_ear) / b.descent_frames for b in blinks)
        detected = detect_blinks(
            series, BlinkDetectionConfig(close_threshold=baseline - step / 2)
        )
        if detected != truth:
            failures.append(f"script {i}: {len(detected)} detected vs {len(truth)} scripted")
            continue

        features = extract_all_features(detected, series, fps)
        for b, f in zip(blinks, features):
            amplitude = b.baseline_ear - b.trough_ear
            duration = (2 * b.descent_frames + b.closed_frames) / fps
            velocity = amplitude / b.descent_frames * fps
            if (
                abs(f.amplitude - amplitude) > 1e-9
                or abs(f.duration_s - duration) > 1e-9
                or abs(f.velocity - velocity) > 1e-9
            ):
                failures.append(f"script {i}: features disagree with hand formulas")
                break
    _verdict(
        10, "blink-pipeline-oracle", not failures,
        failures[0] if failures else "50 scripted traces recovered exactly",
    )


def _random_message(rng: random.Random) -> FrameMessage:
    if rng.random() < 0.5:
        pixel_format = PixelFormat.RGB24
        width, height = rng.randint(1, 8), rng.randint(1, 8)
        payload = rng.randbytes(expected_payload_len(pixel_format, width, height))
    else:
        pixel_format = PixelFormat.EMPTY
        width, height = rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF)
        payload = b""
    if rng.random() < 0.5:
        msg_type, recv, send = MessageType.FRAME, None, None
    else:
        msg_type = MessageType.ECHO
        recv = rng.randrange(2**63)
        send = recv + rng.randrange(1000)
    return FrameMessage(
        msg_type=msg_type,
        frame_id=rng.randrange(2**64),
        capture_ts_us=rng.randrange(2**64),
        width=width,
        height=height,
        pixel_format=pixel_format,
        payload=payload,
        server_recv_ts_us=recv,
        server_send_ts_us=send,
    )


def test_11_codec_roundtrip():
    rng = random.Random(0xC0DE)
    mismatches = 0
    for _ in range(1000):
        msg = _random_message(rng)
        wire = encode_frame(msg)
        back = decode_frame(wire)
        if back != msg or encode_frame(back) != wire:
            mismatches += 1
    _verdict(
        11, "codec-roundtrip", mismatches == 0,
        f"1000 randomized messages, {mismatches} mismatches",
    )


def test_12_bandwidth_check():
    value = raw_bandwidth(1280, 720, 24, 30)
    documented = "632" in (raw_bandwidth.__doc__ or "")
    _verdict(
        12, "bandwidth-check", value == 663_552_000 and documented,
        f"{value} bit/s, unmatched ~632 Mbit/s figure noted in docs: {documented}",
    )
