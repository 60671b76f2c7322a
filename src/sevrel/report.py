"""Rendering of run results to the JSON report and the CSV side files.

All writers build the complete output string first and only then touch
the filesystem, so a crashed run never leaves a partial file behind.
Floats go through Python's shortest-roundtrip repr (json) or 17
significant digits (csv), which keeps fixed-seed outputs byte-identical
across runs and platforms.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

from . import gaussian
from .distributions import Gumbel, Lognormal, Mixture, Normal, Pareto
from .engine import LimitStateModel, SimulationConfig, SimulationSummary
from .histogram import Histogram
from .metrics import SeverityReport, WorkflowDecision

SCHEMA_VERSION = 9

__all__ = [
    "SCHEMA_VERSION",
    "distribution_document",
    "model_document",
    "simulation_document",
    "render_json",
    "write_text",
    "histogram_csv",
    "fcurve_csv",
]


def _num(x):
    # json refuses inf/nan; report them as strings rather than lying
    if x is None:
        return None
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def distribution_document(dist) -> dict:
    if isinstance(dist, Normal):
        return {"kind": "normal", "mean": _num(dist.mean), "stddev": _num(dist.stddev)}
    if isinstance(dist, Lognormal):
        return {"kind": "lognormal", "logMean": _num(dist.log_mean), "logStd": _num(dist.log_std)}
    if isinstance(dist, Gumbel):
        return {"kind": "gumbel", "location": _num(dist.location), "scale": _num(dist.scale)}
    if isinstance(dist, Pareto):
        return {"kind": "pareto", "xMin": _num(dist.x_min), "alpha": _num(dist.alpha)}
    if isinstance(dist, Mixture):
        return {
            "kind": "mixture",
            "components": [
                {"weight": _num(w), "distribution": distribution_document(d)}
                for w, d in dist.components
            ],
        }
    raise TypeError(f"unknown distribution {type(dist).__name__}")


def model_document(model: LimitStateModel) -> dict:
    return {
        "shift": _num(model.shift),
        "terms": [
            {
                "name": t.name,
                "coefficient": _num(t.coefficient),
                "distribution": distribution_document(t.distribution),
            }
            for t in model.terms
        ],
    }


def _config_document(config: SimulationConfig) -> dict:
    return {
        "sampleCount": config.sample_count,
        "masterSeed": config.master_seed,
    }


def _summary_document(summary: SimulationSummary) -> dict:
    return {
        "n": summary.n,
        "meanG": _num(summary.mean_g),
        "varG": _num(summary.var_g),
        "minG": _num(summary.min_g),
        "maxG": _num(summary.max_g),
        "failureCount": summary.failure_count,
        "deficitSum": _num(summary.deficit_sum),
        "deficitMin": _num(summary.deficit_min),
        "deficitMax": _num(summary.deficit_max),
        "conditionalStd": _num(summary.conditional_std),
    }


def _metrics_document(report: SeverityReport) -> dict:
    return {
        "pf": _num(report.pf),
        "pfStandardError": _num(report.pf_se),
        "beta": _num(report.beta),
        "betaMoment": _num(report.beta_moment),
        "ef": _num(report.ef),
        "efStar": _num(report.ef_star),
        "efStarCI": [_num(report.ef_star_ci[0]), _num(report.ef_star_ci[1])]
        if report.ef_star_ci
        else None,
        "betaS": _num(report.beta_s),
        "extremeFlag": report.extreme_flag.value if report.extreme_flag else "none",
        "level": report.level.label if report.level is not None else None,
        "gaussianBenchmark": _num(report.gaussian_benchmark),
    }


def simulation_document(
    model: LimitStateModel,
    config: SimulationConfig,
    moments,
    summary: SimulationSummary,
    report: SeverityReport,
    decision: WorkflowDecision | None = None,
    beta_target: float | None = None,
    max_acceptable_level=None,
    scenario_id: str | None = None,
    calibrated_shift: float | None = None,
) -> dict:
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "model": model_document(model),
        "simulation": _config_document(config),
        "analyticMoments": {
            "mean": _num(moments.mean),
            "variance": _num(moments.variance),
            "varianceFinite": moments.variance_finite,
        },
        "summary": _summary_document(summary),
        "metrics": _metrics_document(report),
        "assessment": None,
        "notes": list(report.notes),
    }
    if scenario_id is not None:
        doc["scenario"] = {"id": scenario_id, "calibratedShift": _num(calibrated_shift)}
    if decision is not None:
        doc["assessment"] = {
            "betaTarget": _num(beta_target),
            "maxAcceptableLevel": max_acceptable_level.label
            if max_acceptable_level is not None
            else None,
            "frequencyPass": decision.frequency_pass,
            "severityLevel": decision.severity_level.label
            if decision.severity_level is not None
            else None,
            "verdict": decision.verdict.value,
            "advisory": decision.advisory,
        }
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_text(path: str, text: str) -> None:
    """Write atomically: full content to a sibling temp file, then rename.

    If the write or the rename fails, the temp file is removed and the
    target is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def histogram_csv(histogram: Histogram | None) -> str:
    """One row per bin; a missing histogram (no failures) is the header alone."""
    lines = ["bin_left,bin_right,count"]
    if histogram is not None:
        edges, counts = histogram.edges, histogram.counts
        for i in range(len(counts)):
            lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(counts[i])}")
    return "\n".join(lines) + "\n"


def fcurve_csv() -> str:
    """Deficit map on b in [0.05, 5] step 0.01, with level boundaries marked."""
    boundaries = {300: "level I/II", 200: "level II/III", 100: "level III/IV"}
    lines = ["b,deficit,boundary"]
    for k in range(5, 501):
        b = k / 100.0
        marker = boundaries.get(k, "")
        lines.append(f"{_fmt(b)},{_fmt(gaussian.deficit(b))},{marker}")
    return "\n".join(lines) + "\n"
