"""Scenario pipeline tests: structure on small runs, grading on full runs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from sevrel import scenarios
from sevrel.distributions import Mixture, Normal, Pareto
from sevrel.engine import LimitStateModel, Term
from sevrel.histogram import HISTOGRAM_BINS
from sevrel.metrics import DEFAULT_MAX_LEVEL, classify
from sevrel.scenarios import (
    SCENARIO_IDS,
    Expectation,
    Scenario,
    builtin,
    export_result,
    run,
)

EXPECTED_IDS = (
    "example1-gaussian",
    "example2-mild",
    "example3-extreme",
    "case-study",
    "scenarioA",
    "scenarioB",
    "figure-grid-gaussian",
    "figure-grid-mild",
    "figure-grid-heavy",
)


def tiny_scenario(mean=3.5, n=50_000, expectations=()):
    return Scenario(
        scenario_id="inline-test",
        title="inline",
        description="inline scenario for structural tests",
        model=LimitStateModel(terms=(Term("margin", 1.0, Normal(mean, 1.0)),)),
        sample_count=n,
        expectations=tuple(expectations),
    )


def test_a_scenario_refuses_any_other_chunk_size():
    # the old field takes only the value the benchmark harness sets
    assert tiny_scenario().chunk_size == 1_000_000
    assert replace(tiny_scenario(), chunk_size=1_000_000) == tiny_scenario()
    for size in (100_000, 2_000_000):
        with pytest.raises(ValueError, match="chunk_size must be 1000000"):
            replace(tiny_scenario(), chunk_size=size)


def test_registry_ids_and_lookup():
    assert SCENARIO_IDS == EXPECTED_IDS
    for sid in SCENARIO_IDS:
        assert builtin(sid).scenario_id == sid


def test_unknown_id_lists_known_ones():
    with pytest.raises(ValueError, match="example1-gaussian"):
        builtin("not-a-study")


def test_small_run_structure(scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000, histograms=True)
    assert res.summary.n == 200_000
    assert res.config.master_seed == 0

    gh = res.g_histogram
    assert HISTOGRAM_BINS // 2 <= gh.counts.size <= HISTOGRAM_BINS
    assert gh.edges.size == gh.counts.size + 1
    assert np.all(np.diff(gh.edges) > 0)
    assert int(gh.counts.sum()) == res.summary.n
    assert gh.edges[0] == res.summary.min_g
    assert gh.edges[-1] == res.summary.max_g
    # inner edges are multiples of one power-of-two width
    width = gh.edges[2] - gh.edges[1]
    assert np.log2(width) == round(np.log2(width))
    assert np.all(np.diff(gh.edges[1:-1]) == width)

    dh = res.deficit_histogram
    assert dh is not None
    assert dh.counts.size <= HISTOGRAM_BINS
    assert dh.edges.size == dh.counts.size + 1
    assert int(dh.counts.sum()) == res.summary.failure_count
    assert np.all(np.diff(dh.edges) > 0)
    assert dh.edges[0] == res.summary.deficit_min
    assert dh.edges[-1] == res.summary.deficit_max


def test_checks_mirror_expectations(scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000)
    exp = res.scenario.expectations
    assert len(res.checks) == len(exp)
    for c, e in zip(res.checks, exp):
        assert (c.metric, c.expected, c.tolerance, c.provenance) == (
            e.metric,
            e.expected,
            e.tolerance,
            e.provenance,
        )
        assert c.computed is not None


def test_zero_failure_run_is_handled():
    res = run(tiny_scenario(mean=30.0, n=1_000), histograms=True)
    assert res.summary.failure_count == 0
    assert res.report.beta is None
    assert res.deficit_histogram is None
    assert res.decision is None
    assert res.all_passed  # vacuously: no expectations


def test_exact_expectation_failure_is_graded_false():
    exp = [Expectation("betaSDefined", True, None, "construction")]
    res = run(tiny_scenario(mean=30.0, n=1_000, expectations=exp))
    (check,) = res.checks
    assert check.computed is False
    assert not check.passed
    assert not res.all_passed


def test_a_constant_g_fails_before_calibration(monkeypatch):
    # the variance of g does not depend on the shift, so it is checked
    # before the shift is calibrated
    def never(*args, **kwargs):
        raise AssertionError("calibrate_shift ran although g is constant")

    monkeypatch.setattr(scenarios, "calibrate_shift", never)
    model = LimitStateModel(terms=(Term("x", 0.0, Normal(2.0, 1.0)),), shift=1.0)
    study = replace(builtin("scenarioA"), model=model, sample_count=400_000)
    with pytest.raises(ValueError, match="g is constant"):
        run(study)


def test_unknown_metric_is_an_error():
    exp = [Expectation("nonsense", 1.0, 0.1, "reference")]
    with pytest.raises(ValueError, match="nonsense"):
        run(tiny_scenario(n=1_000, expectations=exp))


# --- full-size graded runs --------------------------------------------------

PASSING = (
    "example1-gaussian",
    "example3-extreme",
    "scenarioA",
    "scenarioB",
    "figure-grid-gaussian",
    "figure-grid-mild",
    "figure-grid-heavy",
)


@pytest.mark.parametrize("sid", PASSING)
def test_full_run_passes_all_checks(sid, scenario_cache):
    res = scenario_cache(sid)
    failed = [c for c in res.checks if not c.passed]
    assert not failed, [(c.metric, c.expected, c.computed) for c in failed]


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_full_run_normalises_by_the_exact_sigma(sid, scenario_cache):
    res = scenario_cache(sid)
    rep = res.report
    if res.moments.variance_finite:
        assert rep.ef_star == rep.ef / math.sqrt(res.moments.variance)
        lo, hi = rep.ef_star_ci
        assert lo < rep.ef_star < hi
    else:
        assert rep.ef_star is None and rep.extreme_flag.value == "variance-infinite-or-unstable"


def test_example2_reference_values_fail_as_documented(scenario_cache):
    # the reported triple cannot be reproduced from the stated inputs;
    # the study keeps the reported numbers and fails them visibly
    res = scenario_cache("example2-mild")
    failing = {c.metric for c in res.checks if not c.passed}
    assert failing == {"beta", "efStar", "betaS", "level"}
    # the qualitative claim does hold: severity reads milder than frequency
    by_metric = {c.metric: c for c in res.checks}
    assert by_metric["betaSAboveBeta"].passed


def test_case_study_reference_values_fail_as_documented(scenario_cache):
    # frequency stats land well off the reported ones; severity stats agree
    res = scenario_cache("case-study")
    failing = {c.metric for c in res.checks if not c.passed}
    assert failing - {"level"} == {"pf", "beta"}
    # The exact beta_S, 1.163, lies so near the level boundary at 1.0 that
    # one 2M-sample run's 95% interval straddles it, and the stream picks
    # its level. The mean E_f* of the five seeds that criterion 6 runs
    # (SE 0.0097) is 3.2 SE from the boundary, and grades the level.
    ef_star = np.mean([scenario_cache("case-study", master_seed=s).report.ef_star for s in (None, 1, 2, 3, 4)])
    (level,) = [c.expected for c in res.checks if c.metric == "level"]
    assert classify(ef_star).label == level


def test_heavy_grid_expectations_are_the_exact_values_of_its_inputs():
    # Recomputed without sevrel: g = C - D with C ~ N(18, 1.5) and D ~
    # 0.997 N(5, 2) + 0.003 Pareto(x_min 10, alpha 5). The Normal component
    # has closed forms, D - C ~ N(-13, 2.5); the Pareto one is integrated
    # by adaptive quadrature, split at the capacity's mean.
    model = builtin("figure-grid-heavy").model
    assert [(t.coefficient, t.distribution) for t in model.terms] == [
        (1.0, Normal(18.0, 1.5)),
        (-1.0, Mixture(((0.997, Normal(5.0, 2.0)), (0.003, Pareto(10.0, 5.0))))),
    ]
    capacity, pareto = stats.norm(18.0, 1.5), stats.pareto(5.0, scale=10.0)

    def shortfall(x):  # E[(x - C)^+]
        z = (x - 18.0) / 1.5
        return 1.5 * stats.norm.pdf(z) + (x - 18.0) * stats.norm.cdf(z)

    def over_pareto(f):
        return sum(
            integrate.quad(lambda x: pareto.pdf(x) * f(x), a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in [(10.0, 18.0), (18.0, math.inf)]
        )

    mu, sd = -13.0, 2.5
    pf = 0.997 * stats.norm.cdf(mu / sd) + 0.003 * over_pareto(capacity.cdf)
    normal_shortfall = sd * stats.norm.pdf(mu / sd) + mu * stats.norm.cdf(mu / sd)
    ef = (0.997 * normal_shortfall + 0.003 * over_pareto(shortfall)) / pf
    # the Pareto's mean is alpha x_min / (alpha - 1), its second moment alpha x_min^2 / (alpha - 2)
    mean_d = 0.997 * 5.0 + 0.003 * 12.5
    var_g = 1.5**2 + 0.997 * 29.0 + 0.003 * 500.0 / 3.0 - mean_d**2
    expected = {e.metric: e.expected for e in builtin("figure-grid-heavy").expectations}
    assert abs(expected["beta"] - -stats.norm.ppf(pf)) < 1e-12
    assert abs(expected["efStar"] - ef / math.sqrt(var_g)) < 1e-12


def test_matched_pair_is_calibrated(scenario_cache):
    a = scenario_cache("scenarioA")
    b = scenario_cache("scenarioB")
    assert a.calibrated_shift is not None
    assert b.calibrated_shift is not None
    assert abs(a.report.pf - 0.01) < 4e-4
    assert abs(b.report.pf - 0.01) < 4e-4
    # same failure rate, very different failure depth
    assert b.report.ef_star > a.report.ef_star
    assert a.report.beta_s is not None


# --- exports -----------------------------------------------------------------


def test_export_report_json(tmp_path, scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000)
    path = tmp_path / "report.json"
    export_result(res, "report-json", str(path))
    doc = json.loads(path.read_text())
    assert doc["schemaVersion"] == 14
    assert doc["scenario"]["id"] == "example1-gaussian"
    assert doc["simulation"]["sampleCount"] == 200_000
    # no deficit store since schemaVersion 5, no robust subsample since 6,
    # no chunk size since 9
    assert set(doc["simulation"]) == {"sampleCount", "masterSeed"}
    assert "storedDeficits" not in doc["summary"]
    assert "robustSubsampleSize" not in doc["summary"] and "robustScales" not in doc["summary"]
    assert doc["summary"]["conditionalStd"] == res.summary.conditional_std
    assert doc["summary"]["failureCount"] == res.summary.failure_count
    names = [t["name"] for t in doc["model"]["terms"]]
    assert names == ["capacity", "demand"]


def test_export_names_the_level_its_assessment_applied(tmp_path):
    # a library study with a beta target is assessed at the default
    # ceiling, and its report names the level that was applied
    res = run(replace(builtin("example1-gaussian"), beta_target=3.0), sample_count=200_000)
    path = tmp_path / "report.json"
    export_result(res, "report-json", str(path))
    assessment = json.loads(path.read_text())["assessment"]
    assert assessment["verdict"] == "RejectFrequency"
    assert assessment["maxAcceptableLevel"] == DEFAULT_MAX_LEVEL.label


def test_export_histograms(tmp_path, scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000, histograms=True)
    gpath = tmp_path / "g.csv"
    dpath = tmp_path / "d.csv"
    export_result(res, "histogram-csv", str(gpath))
    export_result(res, "deficit-csv", str(dpath))

    glines = gpath.read_text().splitlines()
    assert glines[0] == "bin_left,bin_right,count"
    assert len(glines) == res.g_histogram.counts.size + 1
    assert sum(int(line.split(",")[2]) for line in glines[1:]) == res.summary.n

    dlines = dpath.read_text().splitlines()
    assert dlines[0] == "bin_left,bin_right,count"
    assert sum(int(line.split(",")[2]) for line in dlines[1:]) == res.summary.failure_count


def test_unbinned_result_refuses_histograms(tmp_path):
    res = run(tiny_scenario())
    assert res.summary.failure_count > 0 and res.summary.g_histogram is None
    reads = (
        lambda: res.g_histogram,
        lambda: res.deficit_histogram,
        lambda: scenarios.collect_histograms(res.summary),
    )
    for read in reads:
        with pytest.raises(ValueError, match="histograms=True"):
            read()
    for fmt in ("histogram-csv", "deficit-csv"):
        path = tmp_path / f"{fmt}.csv"
        with pytest.raises(ValueError, match="histograms=True"):
            export_result(res, fmt, str(path))
        assert not path.exists()
    # the other artifacts need no histograms
    export_result(res, "report-json", str(tmp_path / "report.json"))
    export_result(res, "fcurve-csv", str(tmp_path / "curve.csv"))


def test_export_deficit_csv_without_failures(tmp_path):
    res = run(tiny_scenario(mean=30.0, n=1_000), histograms=True)
    path = tmp_path / "d.csv"
    export_result(res, "deficit-csv", str(path))
    # the same header-only file `sevrel simulate` writes
    assert path.read_text() == "bin_left,bin_right,count\n"


def test_export_fcurve(tmp_path, scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000)
    path = tmp_path / "curve.csv"
    export_result(res, "fcurve-csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "b,deficit,boundary"
    assert len(lines) == 1 + 496  # b from 0.05 to 5.00 in steps of 0.01

    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    b3 = rows["3"]
    assert abs(float(b3[1]) - 0.2831) < 1e-3
    assert b3[2] == "level I/II"
    assert rows["2"][2] == "level II/III"
    assert rows["1"][2] == "level III/IV"
    unmarked = [r for r in rows.values() if r[2] == ""]
    assert len(unmarked) == 496 - 3


def test_export_unknown_format(tmp_path, scenario_cache):
    res = scenario_cache("example1-gaussian", sample_count=200_000)
    with pytest.raises(ValueError, match="format"):
        export_result(res, "pdf", str(tmp_path / "x"))
