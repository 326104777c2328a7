"""Generate the offline workload's inputs and their reference answers.

Usage: python3 perfbench/gen_inputs.py OUT_DIR SEED SIZE

Runs as a child process so the memory the generators use never counts
towards the peak RSS of the process that runs the CLI jobs.  Writes the
EAR and score CSVs through the program's own writers, plus
``inputs.json`` holding the ground truth and reference answers:

- the scripted blinks of each EAR trace (``synth`` ground truth), and a
  close threshold inside the open band so detection must reproduce them
  exactly;
- the cost-minimal threshold of each score file, found by brute force
  over ``threshold_grid()`` here rather than by the program's optimizer.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from common import import_program

FPS = 30.0
W_FN = 2.0
W_FP = 1.0

# name -> (blinks, samples, onset spacing) per size
TRACES = {
    "full": {"dense": (1000, 40_000, 40), "sparse": (50, 160_000, 3200)},
    "tiny": {"dense": (50, 2_000, 40), "sparse": (5, 16_000, 3200)},
}
SEQUENCES_PER_CLASS = {"full": 50_000, "tiny": 500}
MODELS = 2


def blink_script(rng: random.Random, n_blinks: int, samples: int, spacing: int):
    """Blinks of random depth and shape, one per ``spacing`` samples.

    Every blink lasts at most 14 samples and starts at most 6 samples
    after its slot, so at least 10 open samples precede each one.
    """
    from drowsebench.synth import BlinkScript, ScriptedBlink

    baseline = rng.uniform(0.28, 0.38)
    blinks = tuple(
        ScriptedBlink(
            onset_frame=20 + i * spacing + rng.randint(0, 6),
            closed_frames=rng.randint(1, 6),
            trough_ear=rng.uniform(0.02, baseline - 0.12),
            baseline_ear=baseline,
            descent_frames=rng.randint(2, 4),
        )
        for i in range(n_blinks)
    )
    return BlinkScript(blinks=blinks, fps=FPS, total_frames=samples, open_ear=baseline)


def open_band_threshold(script) -> float:
    """A close threshold above every ramp sample and below the baseline."""
    step = min((b.baseline_ear - b.trough_ear) / b.descent_frames for b in script.blinks)
    return script.blinks[0].baseline_ear - step / 2


def brute_force_optimum(sequences, grid, w_fn: float, w_fp: float) -> dict:
    """Smallest grid threshold of least cost ``w_fn * fnr + w_fp * fpr``."""
    from drowsebench.decision import Label

    drowsy = [s.score for s in sequences if s.label is Label.DROWSY]
    alert = [s.score for s in sequences if s.label is not Label.DROWSY]
    best = None
    for t in grid:
        fnr = sum(1 for x in drowsy if x < t) / len(drowsy)
        fpr = sum(1 for x in alert if x >= t) / len(alert)
        c = w_fn * fnr + w_fp * fpr
        if best is None or c < best["cost"]:
            best = {"threshold": t, "cost": c, "fpr": fpr, "fnr": fnr}
    return best


def main(out_dir: str, seed: int, size: str) -> int:
    import_program()
    from drowsebench.blink import write_ear_csv
    from drowsebench.decision import threshold_grid, write_scores_csv
    from drowsebench.synth import ScoreDatasetSpec, gen_ear_series, gen_score_dataset

    out = Path(out_dir)
    rng = random.Random(seed)
    doc = {"fps": FPS, "w_fn": W_FN, "w_fp": W_FP, "traces": {}, "scores": []}
    gen_s = 0.0
    for name, (n_blinks, samples, spacing) in TRACES[size].items():
        script = blink_script(rng, n_blinks, samples, spacing)
        start = time.perf_counter()
        series, truth = gen_ear_series(script)
        gen_s += time.perf_counter() - start
        path = out / f"{name}.csv"
        write_ear_csv(series, path)
        doc["traces"][name] = {
            "path": str(path),
            "samples": len(series),
            "close_threshold": open_band_threshold(script),
            "truth": [[b.start_frame, b.apex_frame, b.end_frame, b.min_ear, b.baseline_ear]
                      for b in truth],
        }
    n = SEQUENCES_PER_CLASS[size]
    for model in range(1, MODELS + 1):
        spec = ScoreDatasetSpec(
            n_alert=n,
            n_drowsy=n,
            alert_mean=rng.uniform(2.0, 3.5),
            alert_std=rng.uniform(1.0, 2.0),
            drowsy_mean=rng.uniform(6.0, 7.5),
            drowsy_std=rng.uniform(1.0, 2.0),
            seed=rng.randrange(2**31),
        )
        start = time.perf_counter()
        sequences = gen_score_dataset(spec)
        gen_s += time.perf_counter() - start
        path = out / f"scores-{model}.csv"
        write_scores_csv(sequences, path)
        doc["scores"].append({
            "path": str(path),
            "sequences": len(sequences),
            "optimum": brute_force_optimum(sequences, threshold_grid(), W_FN, W_FP),
        })
    doc["synth_gen_s"] = gen_s
    with open(out / "inputs.json", "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
