"""Run one sevrel benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gaussian-20m --seed 1 --seconds 20 --trace 0

Run from anywhere; sevrel is imported from the `src` directory next to
`perfbench`, never from an installed copy. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds each study's details and the
machine's description.

--trace 0 gives the end-to-end metrics: the median wall time of one
study after a warm-up study, the projected time until beta_S has a 95%
half-width of 0.05, the peak RSS of a fresh process running one study,
and the median set-up time of fresh interpreters.

--trace 1 gives the per-layer metrics: it alternates an untraced study
with a traced one on the same seed, which must write the same report
bytes, and adds direct measurements of single layers. A traced study is
the same entry-point call with spans around the layer calls it makes. The spans are
written to .perfbench-out/trace-<workload>-seed<seed>.json.

Each study in a run has its own master seed, drawn from --seed, so the
same --seed gives the same studies. A study that raises, exits with an
unexpected code or fails a check counts as failed and adds no time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_STUDIES = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


def import_sevrel() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sevrel

    where = Path(sevrel.__file__).resolve().parent
    if where != src / "sevrel":
        raise ImportError(f"sevrel was imported from {where}, not from {src}")


def study_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**32)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Ledger:
    """Counts studies attempted and failed, and keeps what went wrong."""

    def __init__(self):
        self.problems: list[str] = []
        self.studies: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.studies)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.studies if not s["ok"])

    def record(self, seed: int, kind: str, problems: list[str], **extra) -> bool:
        self.studies.append({"seed": seed, "kind": kind, "ok": not problems, **extra})
        self.problems.extend(f"{kind} study, seed {seed}: {p}" for p in problems)
        return not problems

    def study(self, wl, seed: int, keep_report: bool = False, tracer=None, study: int = 0, reference=None):
        """Time one study through the entry point, then check it.

        With a tracer, the study's layer calls are recorded as spans of
        study number `study`, and the report it writes must equal the
        untraced study's `reference` report.
        Returns (seconds, outcome), or (None, None) if the study failed.
        """
        kind = "entry-point" if tracer is None else "traced"
        try:
            with tracer.tracing(study) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                handle = wl.study(seed)
                seconds = time.perf_counter() - t0
            outcome = wl.check(seed, handle, keep_report)
        except Exception:  # a study that raises is a failed study, not the end of the run
            self.record(seed, kind, [traceback.format_exc()])
            return None, None
        problems = outcome.problems
        if tracer is not None and (reference is None or outcome.report != reference.report):
            problems = problems + ["traced report differs from the untraced report"]
        if not self.record(seed, kind, problems, seconds=seconds, half_width=outcome.half_width):
            return None, None
        return seconds, outcome

    def rss(self, args, seed: int) -> float | None:
        """Peak RSS in MiB of a fresh process running one study."""
        _, proc = child(args, "rss")
        try:
            found = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            found = {"peak_rss_mb": None, "problems": [f"exit code {proc.returncode}:\n{proc.stderr}"]}
        if not self.record(seed, "fresh-process", found["problems"]):
            return None
        return found["peak_rss_mb"]


def child(args, mode: str) -> tuple[float, subprocess.CompletedProcess]:
    """Run this script in a fresh interpreter; returns its wall seconds too."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--scale", repr(args.scale),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    return time.perf_counter() - t0, proc


def setup_seconds(args) -> float:
    seconds, proc = child(args, "setup")
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
    return seconds


def rss_child(wl, seed: int) -> int:
    """Run one study in this fresh process; print its peak RSS and problems."""
    wl.prepare()
    rss_mb = None
    try:
        handle = wl.study(seed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = wl.check(seed, handle).problems
    except Exception:
        problems = [traceback.format_exc()]
    print(json.dumps({"peak_rss_mb": rss_mb, "problems": problems}))
    return 0


def untraced_run(wl, args, ledger: Ledger) -> dict | None:
    from workloads import TARGET_HALF_WIDTH

    seeds = study_seeds(args.workload, args.seed)
    wl.prepare()
    first = next(seeds)
    _, warm = ledger.study(wl, first)
    squares = [warm.half_width**2] if warm else []
    times = []
    start = time.perf_counter()
    while ledger.attempted <= MIN_STUDIES or time.perf_counter() - start < args.seconds:
        seconds, outcome = ledger.study(wl, next(seeds))
        if outcome:
            times.append(seconds)
            squares.append(outcome.half_width**2)
    # the first fresh interpreter also compiles bytecode; leave it out
    setup = [setup_seconds(args) for _ in range(1 + SETUP_REPEATS)][1:]
    rss_mb = ledger.rss(args, first)
    if not times or rss_mb is None:
        return None
    study_s = statistics.median(times)
    return {
        "study_s": (study_s, "s"),
        # hw^2 is averaged over the run's studies: one bootstrap interval
        # from 200 resamples varies by ~15% from seed to seed
        "time_to_precision_s": (study_s * statistics.fmean(squares) / TARGET_HALF_WIDTH**2, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced_run(wl, args, ledger: Ledger) -> dict | None:
    import layers
    from tracing import Tracer
    from workloads import CHUNK, RESAMPLES

    seeds = study_seeds(args.workload, args.seed)
    wl.prepare()
    first = next(seeds)
    ledger.study(wl, first)
    tracer = Tracer()
    untraced, studies, g_chunks, overhead = [], [], [], []
    start = time.perf_counter()
    study = 0
    while study < MIN_STUDIES or time.perf_counter() - start < args.seconds:
        seed = next(seeds)
        seconds, reference = ledger.study(wl, seed, keep_report=True)
        _, traced = ledger.study(wl, seed, keep_report=True, tracer=tracer, study=study, reference=reference)
        if reference:
            untraced.append(seconds)
        if traced:
            # a traced study passed only if its untraced twin did
            overhead.append(tracer.totals(study)["study"] - seconds)
            simulated = tracer.last_arguments["engine.simulate"]
            g_chunks.append(layers.g_chunks_seconds(simulated["model"], simulated["config"]))
            studies.append(study)
        study += 1
    if not studies or not untraced:
        return None

    def med(name):
        return statistics.median(tracer.totals(s).get(name, 0.0) for s in studies)

    def count(name, key):
        return statistics.median_low(tracer.count(s, name, key) for s in studies)

    samples = count("engine.simulate", "samples")
    failures = count("engine.simulate", "failures")
    stored = count("engine.simulate", "stored_deficits")
    simulate_s = med("engine.simulate")
    g_chunks_s = statistics.median(g_chunks)
    calibrated = tracer.last_arguments.get("engine.calibrate_shift")
    if calibrated:
        calibrate_s = med("engine.calibrate_shift")
        probe = (calibrated["model"], calibrated["target_pf"], calibrated["config"])
    else:
        # The entry point does not calibrate: time the layer on this
        # workload's model at one chunk instead.
        simulated = tracer.last_arguments["engine.simulate"]
        config = dataclasses.replace(simulated["config"], sample_count=min(wl.n, CHUNK))
        probe = (simulated["model"], 0.25, config)
        calibrate_s = layers.calibrate_seconds(*probe)
    deficit_us, invert_us = layers.kernel_us()
    sample_ns = layers.sample_ns(CHUNK, first)
    metrics = {
        "engine.simulate_s": (simulate_s, "s"),
        "engine.simulate_ns_per_sample": (simulate_s / samples * 1e9, "ns"),
        "engine.g_chunks_s": (g_chunks_s, "s"),
        "engine.reduce_fold_s": (simulate_s - g_chunks_s, "s"),
        "engine.calibrate_shift_s": (calibrate_s, "s"),
        "engine.calibrate_shift_peak_mb": (layers.calibrate_peak_mb(*probe), "MB"),
        "engine.chunks": (count("engine.simulate", "chunks"), "count"),
        "engine.samples": (samples, "count"),
        "engine.failures": (failures, "count"),
        "engine.stored_deficits": (stored, "count"),
        "engine.failure_ratio": (failures / samples, "ratio"),
        **{f"distributions.{k}.sample_ns": (v, "ns") for k, v in sample_ns.items()},
        "metrics.build_report_s": (med("metrics.build_report"), "s"),
        "metrics.bootstrap_draws": (stored * RESAMPLES, "count"),
        "scenarios.collect_histograms_s": (med("scenarios.collect_histograms"), "s"),
        "report.render_s": (med("report.render"), "s"),
        "report.write_s": (med("report.write"), "s"),
        "report.bytes_written": (count("report.write", "bytes"), "bytes"),
        "config.load_config_ms": (layers.load_config_ms(wl.model_config_path()), "ms"),
        "gaussian.deficit_us": (deficit_us, "us"),
        "gaussian.invert_deficit_us": (invert_us, "us"),
        "trace.study_s": (med("study"), "s"),
        "trace.untraced_study_s": (statistics.median(untraced), "s"),
        # paired by seed, so the difference between seeds drops out
        "trace.overhead_s": (statistics.median(overhead), "s"),
        "trace.study_self_s": (statistics.median(tracer.root_self_time(s) for s in studies), "s"),
    }
    tracer.write(
        str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "metrics": {k: v for k, (v, _) in metrics.items()}},
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gaussian-20m", "rare-mixture-export", "dense-calibrated"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting studies")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every sample count (the smoke test uses < 1)")
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("SEVREL_THREADS", None)
    try:
        import_sevrel()
    except ImportError as exc:
        print(f"perfbench: cannot import sevrel: {exc}", file=sys.stderr)
        return 2
    # imported only now, because they import sevrel
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](workdir, args.scale)
        if args.child == "setup":
            wl.prepare()
            return 0
        if args.child == "rss":
            return rss_child(wl, next(study_seeds(args.workload, args.seed)))
        ledger = Ledger()
        metrics = (traced_run if args.trace else untraced_run)(wl, args, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "studies": ledger.studies,
        "problems": ledger.problems,
    }
    print(json.dumps({"detail": detail}))
    if metrics is None:
        print("perfbench: no study succeeded; no metrics to report", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
