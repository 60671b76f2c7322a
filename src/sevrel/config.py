"""Analysis config files: JSON in, validated model and run settings out.

The file has four sections. "model" and "simulation" are required,
"assessment" and "output" are optional:

    {
      "model": {
        "shift": 0.0,
        "terms": [
          {"name": "capacity", "coefficient": 1.0,
           "distribution": {"kind": "normal", "mean": 10.0, "stddev": 1.0}}
        ]
      },
      "simulation": {"sampleCount": 5000000, "masterSeed": 0},
      "assessment": {"betaTarget": 3.0, "maxAcceptableLevel": "III"},
      "output": {"reportJson": "report.json", "histogramCsv": "g.csv"}
    }

Unknown keys anywhere are an error, reported with their path, so a
typoed optional key cannot silently fall back to a default. So is a
non-finite number (NaN, Infinity, or a literal such as 1e400 or a
400-digit integer that overflows a float). Distribution kinds and their
parameter keys:

    normal     mean, stddev
    lognormal  logMean, logStd  (or: median, cov)
    gumbel     location, scale
    pareto     xMin, alpha
    mixture    components: [{weight, distribution}, ...]
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .distributions import (
    Distribution,
    Gumbel,
    Lognormal,
    Mixture,
    Normal,
    Pareto,
    lognormal_from_median_cov,
)
from .engine import LimitStateModel, SimulationConfig, Term
from .metrics import SeverityLevel

__all__ = ["ConfigError", "OutputPaths", "AnalysisConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Bad config file: syntax error, unknown key, or invalid value."""


@dataclass(frozen=True)
class OutputPaths:
    report_json: str | None = "report.json"
    histogram_csv: str | None = None
    deficit_csv: str | None = None
    fcurve_csv: str | None = None


@dataclass(frozen=True)
class AnalysisConfig:
    model: LimitStateModel
    simulation: SimulationConfig
    beta_target: float | None
    max_acceptable_level: SeverityLevel | None
    output: OutputPaths


_ROMAN = {"I": 1, "II": 2, "III": 3, "IV": 4, "V": 5}


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _number(obj: dict, key: str, path: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing required key {key!r}")
    value = obj[key]
    # bool is an int subclass; a config saying "true" for a number is a mistake
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    # json.loads accepts NaN and Infinity, turns 1e400 into inf, and reads
    # a 400-digit integer as an int that no float can hold
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {number!r}")
    return number


def _integer(obj: dict, key: str, path: str, default=None) -> int:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing required key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return value


def _string(obj: dict, key: str, path: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    return value


def _parse_distribution(value, path: str) -> Distribution:
    obj = _expect_object(value, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}: missing required key 'kind'")
    kind = _string(obj, "kind", path)
    try:
        if kind == "normal":
            _check_keys(obj, {"kind", "mean", "stddev"}, path)
            return Normal(_number(obj, "mean", path), _number(obj, "stddev", path))
        if kind == "lognormal":
            if "median" in obj or "cov" in obj:
                _check_keys(obj, {"kind", "median", "cov"}, path)
                return lognormal_from_median_cov(
                    _number(obj, "median", path), _number(obj, "cov", path)
                )
            _check_keys(obj, {"kind", "logMean", "logStd"}, path)
            return Lognormal(_number(obj, "logMean", path), _number(obj, "logStd", path))
        if kind == "gumbel":
            _check_keys(obj, {"kind", "location", "scale"}, path)
            return Gumbel(_number(obj, "location", path), _number(obj, "scale", path))
        if kind == "pareto":
            _check_keys(obj, {"kind", "xMin", "alpha"}, path)
            return Pareto(_number(obj, "xMin", path), _number(obj, "alpha", path))
        if kind == "mixture":
            _check_keys(obj, {"kind", "components"}, path)
            comps = obj.get("components")
            if not isinstance(comps, list) or not comps:
                raise ConfigError(f"{path}.components: expected a non-empty array")
            parsed = []
            for i, comp in enumerate(comps):
                cpath = f"{path}.components[{i}]"
                cobj = _expect_object(comp, cpath)
                _check_keys(cobj, {"weight", "distribution"}, cpath)
                if "distribution" not in cobj:
                    raise ConfigError(f"{cpath}: missing required key 'distribution'")
                parsed.append(
                    (
                        _number(cobj, "weight", cpath),
                        _parse_distribution(cobj["distribution"], f"{cpath}.distribution"),
                    )
                )
            return Mixture(tuple(parsed))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown distribution kind {kind!r}")


def _parse_model(value, path: str) -> LimitStateModel:
    obj = _expect_object(value, path)
    _check_keys(obj, {"shift", "terms"}, path)
    terms_value = obj.get("terms")
    if not isinstance(terms_value, list) or not terms_value:
        raise ConfigError(f"{path}.terms: expected a non-empty array")
    terms = []
    for i, entry in enumerate(terms_value):
        tpath = f"{path}.terms[{i}]"
        tobj = _expect_object(entry, tpath)
        _check_keys(tobj, {"name", "coefficient", "distribution"}, tpath)
        if "name" not in tobj:
            raise ConfigError(f"{tpath}: missing required key 'name'")
        if "distribution" not in tobj:
            raise ConfigError(f"{tpath}: missing required key 'distribution'")
        terms.append(
            Term(
                name=_string(tobj, "name", tpath),
                coefficient=_number(tobj, "coefficient", tpath),
                distribution=_parse_distribution(tobj["distribution"], f"{tpath}.distribution"),
            )
        )
    shift = _number(obj, "shift", path, default=0.0)
    try:
        return LimitStateModel(terms=tuple(terms), shift=shift)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_simulation(value, path: str) -> SimulationConfig:
    obj = _expect_object(value, path)
    _check_keys(obj, {"sampleCount", "masterSeed", "chunkSize"}, path)
    if _integer(obj, "chunkSize", path, default=1_000_000) != 1_000_000:
        raise ConfigError(f"{path}.chunkSize: must be 1000000; it sets nothing")
    sample_count = _integer(obj, "sampleCount", path)
    master_seed = _integer(obj, "masterSeed", path, default=0)
    try:
        return SimulationConfig(sample_count=sample_count, master_seed=master_seed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_assessment(value, path: str) -> tuple[float | None, SeverityLevel | None]:
    obj = _expect_object(value, path)
    _check_keys(obj, {"betaTarget", "maxAcceptableLevel"}, path)
    beta_target = None
    if "betaTarget" in obj:
        beta_target = _number(obj, "betaTarget", path)
        if beta_target <= 0.0:
            raise ConfigError(f"{path}.betaTarget: must be positive")
    level = None
    if "maxAcceptableLevel" in obj:
        text = _string(obj, "maxAcceptableLevel", path)
        if text not in _ROMAN:
            raise ConfigError(
                f"{path}.maxAcceptableLevel: expected a roman numeral I..V, got {text!r}"
            )
        level = SeverityLevel(_ROMAN[text])
    return beta_target, level


def _parse_output(value, path: str) -> OutputPaths:
    obj = _expect_object(value, path)
    allowed = {"reportJson", "histogramCsv", "deficitCsv", "fcurveCsv"}
    _check_keys(obj, allowed, path)
    kwargs = {}
    mapping = {
        "reportJson": "report_json",
        "histogramCsv": "histogram_csv",
        "deficitCsv": "deficit_csv",
        "fcurveCsv": "fcurve_csv",
    }
    for key, attr in mapping.items():
        if key in obj:
            kwargs[attr] = _string(obj, key, path)
    return OutputPaths(**kwargs)


def parse_config(text: str, source: str = "config") -> AnalysisConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    root = _expect_object(data, source)
    _check_keys(root, {"model", "simulation", "assessment", "output"}, source)
    if "model" not in root:
        raise ConfigError(f"{source}: missing required section 'model'")
    if "simulation" not in root:
        raise ConfigError(f"{source}: missing required section 'simulation'")
    model = _parse_model(root["model"], f"{source}.model")
    simulation = _parse_simulation(root["simulation"], f"{source}.simulation")
    beta_target, max_level = (None, None)
    if "assessment" in root:
        beta_target, max_level = _parse_assessment(root["assessment"], f"{source}.assessment")
    output = OutputPaths()
    if "output" in root:
        output = _parse_output(root["output"], f"{source}.output")
    return AnalysisConfig(
        model=model,
        simulation=simulation,
        beta_target=beta_target,
        max_acceptable_level=max_level,
        output=output,
    )


def load_config(path: str) -> AnalysisConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
