"""Closed-loop offline workload: CLI jobs run in-process through ``cli.main``.

Inputs are generated beforehand from the seed by ``gen_inputs.py`` in a
child process.  One round runs the five jobs one after another; rounds
repeat while another fits in the measured time.  Each job's output is
parsed from its ``--json`` report and checked:

- ``detect``: blink count and every blink's start, apex, end, minimum
  and baseline equal the ``synth`` ground truth;
- ``optimize``: chosen threshold, cost and rates equal the brute-force
  reference computed in ``gen_inputs.py``;
- ``pipeline-bench``: backlog and max queue length of every stage set
  equal the values recorded in ``pipeline_expected.json``.

This workload never touches ``protocol`` or ``transport``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from common import BENCH_DIR, PROFILES, WORK, BenchError, child_env, geomean, median, stolen_s
from tracing import Tracer, install_cli_wrappers, self_ms

PIPELINE_FRAMES = {"full": 20_000, "tiny": 300}
PIPELINE_SEEDS = 8  # seeds with recorded pipeline-bench outcomes
IMPORT_REPEATS = 5
GEN_TIMEOUT_S = 120


@dataclass
class Job:
    name: str
    argv: list[str]
    units: int
    rate_name: str
    check: Callable[[dict], str | None]


def generate_inputs(seed: int, size: str) -> tuple[dict, str]:
    """Run the generator child; returns the inputs document and its directory."""
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"offline-{seed}-", dir=WORK)
    try:
        subprocess.run([sys.executable, str(BENCH_DIR / "gen_inputs.py"), work, str(seed), size],
                       cwd=BENCH_DIR.parent, env=child_env(), check=True, timeout=GEN_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        with open(f"{work}/inputs.json") as fh:
            return json.load(fh), work
    except (subprocess.SubprocessError, OSError) as exc:
        shutil.rmtree(work, ignore_errors=True)
        raise BenchError(f"input generation failed: {exc}") from exc


def measure_import() -> tuple[list[float], list[float]]:
    """Seconds, net of steal, of a cold ``import drowsebench.cli`` and of a bare interpreter."""
    def spawn(code: str) -> float:
        stolen = stolen_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
        return time.perf_counter() - start - (stolen_s() - stolen)

    cli = [spawn("import drowsebench.cli") for _ in range(IMPORT_REPEATS)]
    bare = [spawn("pass") for _ in range(IMPORT_REPEATS)]
    return cli, bare


def _check_detect(trace: dict) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        if doc["samples"] != trace["samples"]:
            return f"read {doc['samples']} samples, expected {trace['samples']}"
        got = [[b["start_frame"], b["apex_frame"], b["end_frame"], b["min_ear"], b["baseline_ear"]]
               for b in doc["blinks"]]
        if len(got) != len(trace["truth"]):
            return f"{len(got)} blinks detected, {len(trace['truth'])} scripted"
        for k, (g, t) in enumerate(zip(got, trace["truth"])):
            if g != t:
                return f"blink {k} is {g}, scripted {t}"
        return None
    return check


def _check_optimize(scores: list[dict]) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        if len(doc["models"]) != len(scores):
            return f"{len(doc['models'])} models reported, {len(scores)} given"
        for model, ref in zip(doc["models"], scores):
            want = ref["optimum"]
            got = {"threshold": model["optimal_threshold"], **model["optimal"]}
            if got != want:
                return f"model {model['model_id']}: {got} != brute force {want}"
        return None
    return check


def _check_pipeline(expected: list) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        got = [[p["profile"], p["backlog"], p["max_queue_length"]] for p in doc["profiles"]]
        return None if got == expected else f"{got} != recorded {expected}"
    return check


def build_jobs(inputs: dict, seed: int, size: str) -> list[Job]:
    with open(BENCH_DIR / "pipeline_expected.json") as fh:
        recorded = json.load(fh)
    fps = str(inputs["fps"])
    jobs = []
    for name in ("dense", "sparse"):
        trace = inputs["traces"][name]
        jobs.append(Job(
            f"detect_{name}",
            ["detect", "--in", trace["path"], "--fps", fps,
             "--close-threshold", repr(trace["close_threshold"]), "--json"],
            trace["samples"], f"detect_{name}_samples_per_s", _check_detect(trace)))
    argv = ["optimize"]
    for s in inputs["scores"]:
        argv += ["--scores", s["path"]]
    argv += ["--w-fn", repr(inputs["w_fn"]), "--w-fp", repr(inputs["w_fp"]), "--json"]
    jobs.append(Job("optimize", argv, sum(s["sequences"] for s in inputs["scores"]),
                    "optimize_sequences_per_s", _check_optimize(inputs["scores"])))
    frames = PIPELINE_FRAMES[size]
    pipeline_seed = seed % PIPELINE_SEEDS
    for kind, profile in (("unstable", "jetson-nano"), ("stable", "desktop-pc")):
        expected = recorded[f"{profile}/{frames}/{pipeline_seed}"]
        jobs.append(Job(
            f"pipeline_{kind}",
            ["pipeline-bench", "--profile", str(PROFILES / f"{profile}.json"),
             "--frames", str(frames), "--seed", str(pipeline_seed), "--json"],
            frames * len(expected), f"pipeline_{kind}_frames_per_s",
            _check_pipeline(expected)))
    return jobs


@dataclass
class JobCall:
    job: str
    wall_s: float
    cpu_s: float
    stolen_s: float
    error: str | None
    doc: dict | None

    @property
    def net_s(self) -> float:
        """Wall time less the CPU time the hypervisor stole during the call."""
        return self.wall_s - self.stolen_s


def run_job(cli, job: Job, tracer: Tracer | None = None) -> JobCall:
    """One ``cli.main`` call; its wall, CPU and stolen time exclude parsing and checks.

    An exception escaping ``cli.main`` is a failed job, not a failed run.
    """
    out = io.StringIO()
    span = tracer.span("cli.main", job.name) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), span:
        wall, cpu, stolen = time.perf_counter(), time.process_time(), stolen_s()
        try:
            code = cli.main(list(job.argv))
        except Exception:
            code = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        stolen = stolen_s() - stolen
    if code != 0:
        return JobCall(job.name, wall, cpu, stolen, f"cli.main gave {code}", None)
    try:
        doc = json.loads(out.getvalue())
        error = job.check(doc)
    except (ValueError, KeyError, TypeError) as exc:
        doc, error = None, f"unreadable report: {exc!r}"
    return JobCall(job.name, wall, cpu, stolen, error, doc)


def run_rounds(cli, jobs: list[Job], seconds: float, tracer: Tracer | None = None):
    """Run whole rounds of all jobs; start another only if it fits in ``seconds``."""
    calls: list[JobCall] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        calls.extend(run_job(cli, job, tracer) for job in jobs)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return calls


def job_times(calls: list[JobCall], field: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for c in calls:
        out.setdefault(c.job, []).append(getattr(c, field))
    return out


def stolen_share(calls: list[JobCall]) -> float:
    """Share of the calls' wall time that the hypervisor stole."""
    return sum(c.stolen_s for c in calls) / sum(c.wall_s for c in calls)


def composite(per_job: dict[str, list[float]]) -> float:
    """Geometric mean over jobs of each job's median (seconds)."""
    return geomean([median(v) for v in per_job.values()])


def layer_metrics(tracer: Tracer, calls: list[JobCall], jobs: list[Job], inputs: dict) -> dict:
    """Per-layer offline metrics from the spans of a traced pass."""
    spans = tracer.spans
    own = self_ms(spans)
    job_of = {s.span_id: s.request for s in spans if s.name == "cli.main"}
    busy: dict[tuple[str, str], float] = {}
    for s in spans:
        if s.parent_id in job_of:
            key = (job_of[s.parent_id], s.name)
            busy[key] = busy.get(key, 0.0) + s.ms / 1000
    rounds = len(calls) // len(jobs)
    m: dict[str, float] = {}

    def rate(units: float, job: str, call: str) -> float:
        seconds = busy.get((job, call), 0.0)
        return units * rounds / seconds if seconds else 0.0

    for name in ("dense", "sparse"):
        trace = inputs["traces"][name]
        job = f"detect_{name}"
        m[f"blink.read_ear_csv_samples_per_s.{name}"] = rate(trace["samples"], job, "read_ear_csv")
        m[f"blink.detect_blinks_samples_per_s.{name}"] = rate(trace["samples"], job, "detect_blinks")
        m[f"blink.extract_all_features_blinks_per_s.{name}"] = rate(
            len(trace["truth"]), job, "extract_all_features")
        found = [len(c.doc["blinks"]) for c in calls if c.job == job and c.doc]
        m[f"blink.blinks_found.{name}"] = found[-1] if found else 0
    sequences = sum(s["sequences"] for s in inputs["scores"])
    m["decision.read_scores_csv_rows_per_s"] = rate(sequences, "optimize", "read_scores_csv")
    m["decision.optimize_threshold_sequences_per_s"] = rate(sequences, "optimize",
                                                            "optimize_threshold")
    m["decision.compare_to_default_s"] = busy.get(("optimize", "compare_to_default"), 0.0) / rounds
    for job in jobs:
        if not job.name.startswith("pipeline_"):
            continue
        kind = job.name.removeprefix("pipeline_")
        m[f"pipeline.simulate_session_frames_per_s.{kind}"] = rate(job.units, job.name,
                                                                   "simulate_session")
        m[f"pipeline.summarize_timings_frames_per_s.{kind}"] = rate(job.units, job.name,
                                                                    "summarize_timings")
        docs = [c.doc for c in calls if c.job == job.name and c.doc]
        profiles = docs[-1]["profiles"] if docs else []
        m[f"pipeline.backlog.{kind}"] = sum(p["backlog"] for p in profiles)
        m[f"pipeline.max_queue.{kind}"] = max((p["max_queue_length"] for p in profiles), default=0)
    for job in jobs:
        m[f"cli.self_s.{job.name}"] = median(
            [own[s.span_id] / 1000 for s in spans if s.name == "cli.main" and s.request == job.name])
    m["synth.gen_s"] = inputs["synth_gen_s"]
    m["trace.spans"] = len(spans)
    return m


def traced_pass(cli, jobs: list[Job], seconds: float, inputs: dict):
    tracer = Tracer()
    install_cli_wrappers(tracer, cli)
    try:
        calls = run_rounds(cli, jobs, seconds, tracer)
    finally:
        tracer.uninstall()
    return calls, layer_metrics(tracer, calls, jobs, inputs)


def job_rates(calls: list[JobCall], jobs: list[Job]) -> dict[str, float]:
    """Per-job rates: work completed per second of wall time of one ``cli.main`` call."""
    walls = job_times(calls, "wall_s")
    return {job.rate_name: job.units / median(walls[job.name]) for job in jobs}
