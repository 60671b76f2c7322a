"""Config parsing tests: happy paths, defaults, and error paths."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sevrel import report
from sevrel.config import ConfigError, OutputPaths, load_config, parse_config
from sevrel.distributions import Gumbel, Lognormal, Mixture, Normal, Pareto, lognormal_from_median_cov
from sevrel.engine import SimulationConfig
from sevrel.metrics import SeverityLevel
from sevrel.scenarios import Scenario


def base_config():
    return {
        "model": {
            "shift": -1.5,
            "terms": [
                {
                    "name": "capacity",
                    "coefficient": 1.0,
                    "distribution": {"kind": "normal", "mean": 10.0, "stddev": 1.0},
                },
                {
                    "name": "demand",
                    "coefficient": -1.0,
                    "distribution": {"kind": "gumbel", "location": 5.0, "scale": 1.2},
                },
            ],
        },
        "simulation": {"sampleCount": 100000, "masterSeed": 7, "chunkSize": 1000000},
        "assessment": {"betaTarget": 3.0, "maxAcceptableLevel": "III"},
        "output": {"reportJson": "out.json", "histogramCsv": "g.csv"},
    }


def parse(data, source="config"):
    return parse_config(json.dumps(data), source=source)


def test_full_config_parses():
    study, output = parse(base_config(), source="analysis.json")
    assert isinstance(study, Scenario)
    assert study.scenario_id is None
    assert study.title == "analysis.json"
    assert study.expectations == ()
    assert study.model.shift == -1.5
    assert [t.name for t in study.model.terms] == ["capacity", "demand"]
    assert study.model.terms[0].distribution == Normal(10.0, 1.0)
    assert study.model.terms[1].distribution == Gumbel(5.0, 1.2)
    assert study.sample_count == 100000
    assert study.default_seed == 7
    assert study.beta_target == 3.0
    assert study.max_acceptable_level is SeverityLevel.HIGH
    assert output.report_json == "out.json"
    assert output.histogram_csv == "g.csv"
    assert output.deficit_csv is None


def test_minimal_config_defaults():
    study, output = parse(
        {
            "model": {
                "terms": [
                    {
                        "name": "m",
                        "coefficient": 1.0,
                        "distribution": {"kind": "normal", "mean": 3.0, "stddev": 1.0},
                    }
                ]
            },
            "simulation": {"sampleCount": 1000},
        }
    )
    assert study.model.shift == 0.0
    assert study.config() == SimulationConfig(sample_count=1000, master_seed=0)
    assert study.beta_target is None
    assert study.max_acceptable_level is SeverityLevel.HIGH
    assert output == OutputPaths()
    assert output.report_json == "report.json"


def test_robust_subsample_cap_is_refused():
    # the robust subsample it sized is gone; an old config that sets it is
    # refused like any other unknown key
    data = base_config()
    data["simulation"]["robustSubsampleCap"] = 100_000
    with pytest.raises(ConfigError, match="config.simulation: unknown key 'robustSubsampleCap'"):
        parse(data)


def test_all_distribution_kinds():
    dists = [
        {"kind": "normal", "mean": 0.0, "stddev": 2.0},
        {"kind": "lognormal", "logMean": 1.0, "logStd": 0.3},
        {"kind": "gumbel", "location": 4.0, "scale": 0.5},
        {"kind": "pareto", "xMin": 1.0, "alpha": 3.0},
        {
            "kind": "mixture",
            "components": [
                {"weight": 0.9, "distribution": {"kind": "normal", "mean": 0.0, "stddev": 1.0}},
                {"weight": 0.1, "distribution": {"kind": "pareto", "xMin": 2.0, "alpha": 4.0}},
            ],
        },
    ]
    data = {
        "model": {
            "terms": [
                {"name": f"t{i}", "coefficient": 1.0, "distribution": d}
                for i, d in enumerate(dists)
            ]
        },
        "simulation": {"sampleCount": 10},
    }
    study, _ = parse(data)
    kinds = [type(t.distribution) for t in study.model.terms]
    assert kinds == [Normal, Lognormal, Gumbel, Pareto, Mixture]


def test_lognormal_median_cov_form():
    data = {
        "model": {
            "terms": [
                {
                    "name": "r",
                    "coefficient": 1.0,
                    "distribution": {"kind": "lognormal", "median": 1520.0, "cov": 0.10},
                }
            ]
        },
        "simulation": {"sampleCount": 10},
    }
    study, _ = parse(data)
    assert study.model.terms[0].distribution == lognormal_from_median_cov(1520.0, 0.10)


def test_lognormal_forms_cannot_mix():
    data = base_config()
    data["model"]["terms"][0]["distribution"] = {"kind": "lognormal", "logMean": 1.0, "cov": 0.1}
    with pytest.raises(ConfigError, match="logMean"):
        parse(data)


def test_json_syntax_error_reports_position():
    with pytest.raises(ConfigError, match=r"line 1 column"):
        parse_config("{bad json", source="broken.json")


def test_source_name_prefixes_errors():
    with pytest.raises(ConfigError, match="myfile.json"):
        parse_config("[]", source="myfile.json")


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config("[1, 2]")


@pytest.mark.parametrize("section", ["model", "simulation"])
def test_required_sections(section):
    data = base_config()
    del data[section]
    with pytest.raises(ConfigError, match=f"missing required section '{section}'"):
        parse(data)


def test_unknown_root_key():
    data = base_config()
    data["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse(data)


def test_unknown_key_deep_in_a_distribution():
    data = base_config()
    data["model"]["terms"][0]["distribution"]["sigma"] = 2.0
    with pytest.raises(ConfigError, match=r"config\.model\.terms\[0\]\.distribution.*sigma"):
        parse(data)


def test_missing_term_name():
    data = base_config()
    del data["model"]["terms"][1]["name"]
    with pytest.raises(ConfigError, match=r"terms\[1\].*'name'"):
        parse(data)


def test_missing_distribution_parameter():
    data = base_config()
    del data["model"]["terms"][0]["distribution"]["stddev"]
    with pytest.raises(ConfigError, match="'stddev'"):
        parse(data)


def test_unknown_distribution_kind():
    data = base_config()
    data["model"]["terms"][0]["distribution"] = {"kind": "weibull", "shape": 2.0}
    with pytest.raises(ConfigError, match="weibull"):
        parse(data)


def test_bool_is_not_a_number():
    data = base_config()
    data["model"]["terms"][0]["coefficient"] = True
    with pytest.raises(ConfigError, match="expected a number, got bool"):
        parse(data)


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="1e400-integer")],
)
@pytest.mark.parametrize(
    "where, path",
    [
        ('"mean": 10.0', r"config\.model\.terms\[0\]\.distribution\.mean"),
        ('"coefficient": -1.0', r"config\.model\.terms\[1\]\.coefficient"),
        ('"shift": -1.5', r"config\.model\.shift"),
        ('"betaTarget": 3.0', r"config\.assessment\.betaTarget"),
    ],
    ids=["mean", "coefficient", "shift", "betaTarget"],
)
def test_non_finite_numbers_are_rejected_with_their_path(literal, where, path):
    # json.loads reads NaN and Infinity literals, 1e400 as inf, and a
    # 400-digit integer as an int too large for a float
    text = json.dumps(base_config())
    assert where in text
    key = where.split(":")[0]
    with pytest.raises(ConfigError, match=path + ": expected a finite number"):
        parse_config(text.replace(where, f"{key}: {literal}"))


def test_huge_finite_numbers_still_parse():
    data = base_config()
    data["model"]["terms"][0]["coefficient"] = 1e308
    assert parse(data)[0].model.terms[0].coefficient == 1e308


def test_sample_count_must_be_integer():
    data = base_config()
    data["simulation"]["sampleCount"] = 1.5
    with pytest.raises(ConfigError, match="expected an integer, got float"):
        parse(data)


def test_invalid_distribution_value_is_wrapped_with_path():
    data = base_config()
    data["model"]["terms"][0]["distribution"]["stddev"] = -1.0
    with pytest.raises(ConfigError, match=r"config\.model\.terms\[0\]\.distribution"):
        parse(data)


def test_bad_mixture_weights_are_wrapped_with_path():
    data = base_config()
    data["model"]["terms"][0]["distribution"] = {
        "kind": "mixture",
        "components": [
            {"weight": 0.5, "distribution": {"kind": "normal", "mean": 0.0, "stddev": 1.0}},
            {"weight": 0.1, "distribution": {"kind": "normal", "mean": 1.0, "stddev": 1.0}},
        ],
    }
    with pytest.raises(ConfigError, match=r"terms\[0\]\.distribution"):
        parse(data)


def test_duplicate_term_names_are_wrapped():
    data = base_config()
    data["model"]["terms"][1]["name"] = "capacity"
    with pytest.raises(ConfigError, match="config.model: .*unique"):
        parse(data)


def test_invalid_simulation_values_are_wrapped():
    data = base_config()
    data["simulation"]["sampleCount"] = 0
    with pytest.raises(ConfigError, match="config.simulation: sample_count must be at least 1"):
        parse(data)


@pytest.mark.parametrize("value", [50_000, 0, 2_000_000])
def test_chunk_size_other_than_the_segment_is_refused(value):
    # the stream is keyed per block; the old key takes only the value the
    # benchmark harness writes
    data = base_config()
    data["simulation"]["chunkSize"] = value
    with pytest.raises(ConfigError, match=r"^config\.simulation\.chunkSize: "):
        parse(data)


def test_empty_terms_rejected():
    data = base_config()
    data["model"]["terms"] = []
    with pytest.raises(ConfigError, match="non-empty array"):
        parse(data)


@pytest.mark.parametrize(
    "roman,level",
    [("I", SeverityLevel.MILD), ("II", SeverityLevel.MODERATE), ("III", SeverityLevel.HIGH),
     ("IV", SeverityLevel.CRITICAL), ("V", SeverityLevel.EXTREME)],
)
def test_roman_levels(roman, level):
    data = base_config()
    data["assessment"]["maxAcceptableLevel"] = roman
    assert parse(data)[0].max_acceptable_level is level


def test_bad_roman_level():
    data = base_config()
    data["assessment"]["maxAcceptableLevel"] = "VI"
    with pytest.raises(ConfigError, match="roman numeral"):
        parse(data)


def test_beta_target_must_be_positive():
    data = base_config()
    data["assessment"]["betaTarget"] = -2.0
    with pytest.raises(ConfigError, match="positive"):
        parse(data)


@pytest.mark.parametrize("key", ["reportJson", "histogramCsv", "deficitCsv", "fcurveCsv"])
def test_empty_output_path_is_refused(key):
    data = base_config()
    data["output"][key] = ""
    with pytest.raises(ConfigError, match=re.escape(f"analysis.json.output.{key}: must not be empty")):
        parse(data, source="analysis.json")


@pytest.mark.parametrize(
    "output, key, other",
    [
        ({"histogramCsv": "h.csv", "deficitCsv": "h.csv"}, "deficitCsv", "histogramCsv"),
        ({"reportJson": "out/../r.json", "fcurveCsv": "r.json"}, "fcurveCsv", "reportJson"),
        # the default reportJson is report.json
        ({"histogramCsv": "./report.json"}, "histogramCsv", "reportJson"),
    ],
    ids=["same-name", "same-file", "the-default-report"],
)
def test_output_paths_that_collide_are_refused(output, key, other):
    data = base_config()
    data["output"] = output
    message = f"analysis.json.output.{key}: {output[key]!r} is the same file as analysis.json.output.{other}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse(data, source="analysis.json")


@pytest.mark.parametrize("output", [{"reportJson": "analysis.json"}, None], ids=["reportJson", "the-default-report"])
def test_an_output_path_that_is_the_config_file_is_refused(tmp_path, monkeypatch, output):
    monkeypatch.chdir(tmp_path)
    data = base_config()
    data.pop("output")
    if output is not None:
        data["output"] = output
    name = "analysis.json" if output is not None else "report.json"
    path = tmp_path / name
    path.write_text(json.dumps(data))
    message = f"{path}.output.reportJson: {name!r} is the same file as the config file"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "analysis.json"
    path.write_text(json.dumps(base_config()))
    study, _ = load_config(str(path))
    assert study.sample_count == 100000


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


# --- property: every document parses to a finite model or names a key path ---


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


# a parameter value: mostly usable, sometimes negative, non-finite, huge,
# or not a number at all
_values = _mostly(
    st.floats(min_value=0.1, max_value=1e3),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.booleans(),
        st.text(max_size=2),
        st.none(),
    ),
)
_PARAMETERS = {
    "normal": ("mean", "stddev"),
    "lognormal": ("logMean", "logStd"),
    "gumbel": ("location", "scale"),
    "pareto": ("xMin", "alpha"),
}


def _leaf(kind, keys):
    parameters = {key: _values for key in keys}
    return _mostly(
        st.fixed_dictionaries({"kind": st.just(kind), **parameters}),
        st.fixed_dictionaries({"kind": st.just(kind)}, optional={**parameters, "typo": _values}),
    )


_leaves = st.one_of(
    *(_leaf(kind, keys) for kind, keys in _PARAMETERS.items()),
    _leaf("lognormal", ("median", "cov")),
)
_bad_distributions = st.one_of(
    st.fixed_dictionaries({"kind": st.one_of(st.just("weibull"), st.integers())}),
    _values,
)


def _mixture(components):
    # equal weights sum to 1; the bad branch draws one weight like any value
    weight = _mostly(st.just(1.0 / len(components)), _values)
    return weight.map(
        lambda w: {
            "kind": "mixture",
            "components": [{"weight": w, "distribution": d} for d in components],
        }
    )


_distributions = _mostly(
    st.one_of(_leaves, st.lists(_leaves, min_size=1, max_size=3).flatmap(_mixture)),
    _bad_distributions,
)
_terms = _mostly(
    st.fixed_dictionaries(
        {"name": st.sampled_from("abcd"), "coefficient": _values, "distribution": _distributions}
    ),
    st.fixed_dictionaries(
        {"name": st.one_of(st.sampled_from("abcd"), st.integers())},
        optional={"coefficient": _values, "distribution": _distributions, "typo": _values},
    ),
)
_documents = st.fixed_dictionaries(
    {
        "model": st.fixed_dictionaries(
            {"terms": _mostly(st.lists(_terms, min_size=1, max_size=3), st.just([]))}, optional={"shift": _values}
        ),
        "simulation": st.fixed_dictionaries(
            {"sampleCount": _mostly(st.integers(min_value=1, max_value=10**6), _values)},
            optional={"masterSeed": st.integers(min_value=-2), "chunkSize": _mostly(st.just(10**6), _values)},
        ),
    },
    optional={
        "assessment": st.fixed_dictionaries(
            {}, optional={"betaTarget": _values, "maxAcceptableLevel": st.sampled_from(["III", "VI", 3])}
        ),
    },
)
# every message opens with the path of the key at fault, from the root
_KEY_PATH = re.compile(r"^config(\.[A-Za-z]+|\[\d+\])*: ")


def _finite_parameters(dist) -> bool:
    if isinstance(dist, Mixture):
        return all(math.isfinite(w) and _finite_parameters(d) for w, d in dist.components)
    return all(math.isfinite(getattr(dist, f.name)) for f in dataclasses.fields(dist))


@given(_documents)
# shrinking these nested documents can take minutes; a failure prints the
# unshrunk document, which names the key at fault anyway
@settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_every_document_parses_to_a_finite_model_or_names_a_key_path(doc):
    try:
        study, _ = parse(doc)
    except ConfigError as exc:
        assert _KEY_PATH.match(str(exc)), str(exc)
        return
    model = study.model
    assert math.isfinite(model.shift)
    for term in model.terms:
        assert math.isfinite(term.coefficient)
        assert _finite_parameters(term.distribution)
    # the report's model block is a config model that parses back to it;
    # a lognormal given by median and cov comes back by logMean and logStd
    again, _ = parse({"model": report.model_document(model), "simulation": {"sampleCount": 1}})
    assert again.model == model
