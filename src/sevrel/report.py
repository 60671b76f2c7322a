"""Rendering of run results to the JSON report and the CSV side files.

All writers build the complete output string first and only then touch
the filesystem, so a crashed run never leaves a partial file behind.
Floats go through Python's shortest-roundtrip repr (json) or 17
significant digits (csv), which keeps fixed-seed outputs byte-identical
across runs and platforms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os

from . import gaussian
from .distributions import KINDS
from .engine import LimitStateModel, SimulationConfig, SimulationSummary
from .histogram import Histogram
from .metrics import LEVEL_INDICES, SeverityLevel, SeverityReport

SCHEMA_VERSION = 14

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


_KIND_OF = {family: (kind, keys) for kind, (family, keys) in KINDS.items()}


def distribution_document(dist) -> dict:
    """The config form of dist: its kind and its keys, as `config` reads them."""
    if type(dist) not in _KIND_OF:
        raise TypeError(f"unknown distribution {type(dist).__name__}")
    kind, keys = _KIND_OF[type(dist)]
    values = (getattr(dist, field.name) for field in dataclasses.fields(dist))
    return {"kind": kind, **{key: _parameter(value) for key, value in zip(keys, values)}}


def _parameter(value):
    # a number, or the (weight, distribution) components of a mixture
    if isinstance(value, tuple):
        return [{"weight": _num(w), "distribution": distribution_document(d)} for w, d in value]
    return _num(value)


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


def simulation_document(result) -> dict:
    """The report of a `scenarios.ScenarioResult`. A study with an id gets
    a "scenario" block; one with a decision gets its "assessment"."""
    study, moments, decision = result.scenario, result.moments, result.decision
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "model": model_document(result.model),
        "simulation": _config_document(result.config),
        "analyticMoments": {
            "mean": _num(moments.mean),
            "variance": _num(moments.variance),
            "varianceFinite": moments.variance_finite,
        },
        "summary": _summary_document(result.summary),
        "metrics": _metrics_document(result.report),
        "assessment": None,
        "notes": list(result.report.notes),
    }
    if study.scenario_id is not None:
        doc["scenario"] = {"id": study.scenario_id, "calibratedShift": _num(result.calibrated_shift)}
    if decision is not None:
        doc["assessment"] = {
            "betaTarget": _num(study.beta_target),
            "maxAcceptableLevel": study.max_acceptable_level.label,
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
    boundaries = {
        round(100 * b): f"level {level.roman}/{SeverityLevel(level + 1).roman}"
        for level, b in zip(SeverityLevel, LEVEL_INDICES)
    }
    lines = ["b,deficit,boundary"]
    for k in range(5, 501):
        b = k / 100.0
        marker = boundaries.get(k, "")
        lines.append(f"{_fmt(b)},{_fmt(gaussian.deficit(b))},{marker}")
    return "\n".join(lines) + "\n"
