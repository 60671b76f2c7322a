"""Analysis config files: JSON in, the study that runs them out.

`load_config` and `parse_config` return a `(Scenario, OutputPaths)`
pair: the study, with no id and no expectations, and the files to write.
`sevrel simulate` hands the pair to `scenarios.run` and
`scenarios.write_outputs`, as `sevrel scenario` does for a built-in.

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
400-digit integer that overflows a float). The distribution kinds and
their keys are those of `distributions.KINDS`, which the report's
"model" block writes back:

    normal     mean, stddev
    lognormal  logMean, logStd  (or: median, cov)
    gumbel     location, scale
    pareto     xMin, alpha
    mixture    components: [{weight, distribution}, ...]

A lognormal given by median and cov is reported by logMean and logStd.
Without "maxAcceptableLevel" the ceiling is `DEFAULT_MAX_LEVEL`, III.
"""

from __future__ import annotations

import json
import math
import os

from .distributions import KINDS, Distribution, Lognormal, Mixture, lognormal_from_median_cov
from .engine import LimitStateModel, SimulationConfig, Term
from .metrics import DEFAULT_MAX_LEVEL, SeverityLevel
from .scenarios import OutputPaths, Scenario

__all__ = ["ConfigError", "OutputPaths", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Bad config file: syntax error, unknown key, or invalid value."""


_ROMAN = {level.roman: level for level in SeverityLevel}

_OUTPUT_FIELDS = {
    "reportJson": "report_json",
    "histogramCsv": "histogram_csv",
    "deficitCsv": "deficit_csv",
    "fcurveCsv": "fcurve_csv",
}


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


def _parse_components(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty array")
    parsed = []
    for i, comp in enumerate(value):
        cpath = f"{path}[{i}]"
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
    return tuple(parsed)


def _parse_distribution(value, path: str) -> Distribution:
    obj = _expect_object(value, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}: missing required key 'kind'")
    kind = _string(obj, "kind", path)
    if kind not in KINDS:
        raise ConfigError(f"{path}.kind: unknown distribution kind {kind!r}")
    family, keys = KINDS[kind]
    try:
        if family is Lognormal and ("median" in obj or "cov" in obj):
            _check_keys(obj, {"kind", "median", "cov"}, path)
            return lognormal_from_median_cov(_number(obj, "median", path), _number(obj, "cov", path))
        _check_keys(obj, {"kind", *keys}, path)
        if family is Mixture:
            return Mixture(_parse_components(obj.get(keys[0]), f"{path}.{keys[0]}"))
        return family(*(_number(obj, key, path) for key in keys))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


def _parse_assessment(value, path: str) -> tuple[float | None, SeverityLevel]:
    obj = _expect_object(value, path)
    _check_keys(obj, {"betaTarget", "maxAcceptableLevel"}, path)
    beta_target = None
    if "betaTarget" in obj:
        beta_target = _number(obj, "betaTarget", path)
        if beta_target <= 0.0:
            raise ConfigError(f"{path}.betaTarget: must be positive")
    level = DEFAULT_MAX_LEVEL
    if "maxAcceptableLevel" in obj:
        text = _string(obj, "maxAcceptableLevel", path)
        if text not in _ROMAN:
            raise ConfigError(
                f"{path}.maxAcceptableLevel: expected a roman numeral I..V, got {text!r}"
            )
        level = _ROMAN[text]
    return beta_target, level


def _parse_output(value, path: str) -> OutputPaths:
    obj = _expect_object(value, path)
    _check_keys(obj, set(_OUTPUT_FIELDS), path)
    paths = {}
    for key, field in _OUTPUT_FIELDS.items():
        if key in obj:
            paths[field] = _string(obj, key, path)
            if not paths[field]:
                raise ConfigError(f"{path}.{key}: must not be empty")
    return OutputPaths(**paths)


def _check_distinct(output: OutputPaths, path: str, config_file: str | None = None) -> None:
    """Refuse two outputs, or an output and `config_file`, that resolve to
    one file: the later write would replace the earlier one."""
    taken = {} if config_file is None else {os.path.realpath(config_file): "the config file"}
    for key, field in _OUTPUT_FIELDS.items():
        value = getattr(output, field)
        if value is None:
            continue
        resolved = os.path.realpath(value)
        if resolved in taken:
            raise ConfigError(f"{path}.{key}: {value!r} is the same file as {taken[resolved]}")
        taken[resolved] = f"{path}.{key}"


def parse_config(text: str, source: str = "config") -> tuple[Scenario, OutputPaths]:
    """The study a config's text describes, titled `source`, and its outputs."""
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
    beta_target, max_level = None, DEFAULT_MAX_LEVEL
    if "assessment" in root:
        beta_target, max_level = _parse_assessment(root["assessment"], f"{source}.assessment")
    output = OutputPaths()
    if "output" in root:
        output = _parse_output(root["output"], f"{source}.output")
    _check_distinct(output, f"{source}.output")
    study = Scenario(
        scenario_id=None,
        title=source,
        description="",
        model=model,
        sample_count=simulation.sample_count,
        expectations=(),
        beta_target=beta_target,
        max_acceptable_level=max_level,
        default_seed=simulation.master_seed,
    )
    return study, output


def load_config(path: str) -> tuple[Scenario, OutputPaths]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    study, output = parse_config(text, source=path)
    _check_distinct(output, f"{path}.output", config_file=path)
    return study, output
