"""Metric, classification, and workflow tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sevrel import gaussian
from sevrel.distributions import Mixture, MomentReport, Normal, Pareto
from sevrel.engine import (
    LimitStateModel,
    SimulationConfig,
    Term,
    g_chunks,
    model_moments,
    robust_scales,
    simulate,
)
from sevrel.metrics import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_MAX_LEVEL_CRITICAL,
    LEVEL_THRESHOLDS,
    ExtremeFlag,
    NoFailuresObserved,
    SeverityLevel,
    SeverityReport,
    Verdict,
    assess,
    build_report,
    classify,
    classify_index,
    expected_failure_deficit,
    normalized_deficit,
    reliability_index,
    severity_index,
    variance_unstable,
)


def run(model, n=200_000, seed=0, chunk=100_000):
    cfg = SimulationConfig(sample_count=n, master_seed=seed, chunk_size=chunk)
    return simulate(model, cfg)


def _summary(sub, failure_count, deficit_sum, cfg):
    """A summary whose failure_count deficits all equal their mean."""
    from sevrel.engine import SimulationSummary

    return SimulationSummary(
        n=max(sub.size, 1),
        mean_g=float(sub.mean()) if sub.size else 0.0,
        var_g=float(sub.var(ddof=1)) if sub.size > 1 else 1.0,
        min_g=float(sub.min()) if sub.size else 0.0,
        max_g=float(sub.max()) if sub.size else 0.0,
        failure_count=failure_count,
        deficit_sum=deficit_sum,
        deficit_m2=0.0,
        deficit_min=0.1 if failure_count else None,
        deficit_max=1.0 if failure_count else None,
        robust_subsample=sub,
        config=cfg,
    )


# --- scalar metrics -------------------------------------------------------


def test_reliability_index_reference_points():
    assert abs(reliability_index(0.01) - 2.3263478740408408) < 1e-12
    assert reliability_index(0.5) == 0.0
    assert reliability_index(0.9999) < 0.0


def test_reliability_index_domain():
    with pytest.raises(NoFailuresObserved):
        reliability_index(0.0)
    for bad in (1.0, -0.01, 1.5):
        with pytest.raises(ValueError):
            reliability_index(bad)


def test_expected_failure_deficit():
    s = _summary(np.array([1.0, 2.0, 3.0]), failure_count=4, deficit_sum=10.0,
                 cfg=SimulationConfig(sample_count=3, master_seed=0, chunk_size=3))
    assert expected_failure_deficit(s) == 2.5
    s0 = _summary(np.array([1.0, 2.0, 3.0]), failure_count=0, deficit_sum=0.0,
                  cfg=SimulationConfig(sample_count=3, master_seed=0, chunk_size=3))
    with pytest.raises(NoFailuresObserved):
        expected_failure_deficit(s0)


def test_severity_index_roundtrip_and_flags():
    for b in (0.5, 1.0, 2.5, 4.0):
        si = severity_index(gaussian.deficit(b))
        # solver tolerance is 1e-12 on the deficit axis; the index axis
        # magnifies it by 1/|slope|
        assert abs(si - b) < 1e-12 / abs(gaussian.deficit_slope(b))
    assert severity_index(gaussian.DEFICIT_ENDPOINT) is ExtremeFlag.DEFICIT_BEYOND_ENDPOINT
    assert severity_index(0.9) is ExtremeFlag.DEFICIT_BEYOND_ENDPOINT
    for bad in (0.0, -0.2):
        with pytest.raises(ValueError):
            severity_index(bad)


# --- classification -------------------------------------------------------


def test_thresholds_come_from_the_kernel():
    assert LEVEL_THRESHOLDS == (
        gaussian.deficit(3.0),
        gaussian.deficit(2.0),
        gaussian.deficit(1.0),
        gaussian.DEFICIT_ENDPOINT,
    )
    assert list(LEVEL_THRESHOLDS) == sorted(LEVEL_THRESHOLDS)


def test_classify_buckets_include_lower_bound():
    t1, t2, t3, t4 = LEVEL_THRESHOLDS
    assert classify(t1 - 1e-9) is SeverityLevel.MILD
    assert classify(t1) is SeverityLevel.MODERATE
    assert classify(t2) is SeverityLevel.HIGH
    assert classify(t3) is SeverityLevel.CRITICAL
    assert classify(t4) is SeverityLevel.EXTREME
    assert classify(5.0) is SeverityLevel.EXTREME


def test_classify_accepts_flags_and_rejects_nonpositive():
    assert classify(ExtremeFlag.DEFICIT_BEYOND_ENDPOINT) is SeverityLevel.EXTREME
    assert classify(ExtremeFlag.VARIANCE_INFINITE_OR_UNSTABLE) is SeverityLevel.EXTREME
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError):
            classify(bad)


def test_classify_index_buckets():
    assert classify_index(3.0) is SeverityLevel.MILD
    assert classify_index(2.0) is SeverityLevel.MODERATE
    assert classify_index(1.0) is SeverityLevel.HIGH
    assert classify_index(0.5) is SeverityLevel.CRITICAL
    assert classify_index(2.999) is SeverityLevel.MODERATE
    with pytest.raises(ValueError):
        classify_index(0.0)


def test_classify_and_classify_index_agree_off_boundary():
    # both axes bucket the same way except exactly at the cut points
    for ef in (0.05, 0.15, 0.30, 0.33, 0.45, 0.60, 0.70, 0.78):
        assert classify(ef) is classify_index(gaussian.invert_deficit(ef))


def test_level_labels_and_advice():
    assert SeverityLevel.MILD.label == "I: Mild"
    assert SeverityLevel.EXTREME.label == "V: Extreme"
    assert SeverityLevel.MODERATE < SeverityLevel.HIGH
    for level in SeverityLevel:
        assert level.recommendation


# --- variance stability screen --------------------------------------------


def test_variance_screen_abstains_below_200_points():
    rng = np.random.default_rng(0)
    s = _summary(rng.normal(size=150), 10, 5.0,
                 SimulationConfig(sample_count=150, master_seed=0, chunk_size=150))
    assert variance_unstable(s) is False


def test_variance_screen_passes_stable_sample():
    rng = np.random.default_rng(1)
    s = _summary(rng.normal(size=2_000), 10, 5.0,
                 SimulationConfig(sample_count=2_000, master_seed=0, chunk_size=2_000))
    assert variance_unstable(s) is False


def test_variance_screen_flags_drifting_scale():
    rng = np.random.default_rng(2)
    first = rng.normal(size=1_000)
    second = rng.normal(size=1_000)
    second[:10] = 500.0  # one half picks up deep outliers, MAD does not move
    s = _summary(np.concatenate([first, second]), 10, 5.0,
                 SimulationConfig(sample_count=2_000, master_seed=0, chunk_size=2_000))
    assert variance_unstable(s) is True


def test_variance_screen_abstains_on_degenerate_mad():
    s = _summary(np.zeros(1_000), 10, 5.0,
                 SimulationConfig(sample_count=1_000, master_seed=0, chunk_size=1_000))
    assert variance_unstable(s) is False


def test_normalized_deficit_flags_infinite_analytic_variance():
    rng = np.random.default_rng(3)
    s = _summary(rng.normal(size=1_000), 10, 5.0,
                 SimulationConfig(sample_count=1_000, master_seed=0, chunk_size=1_000))
    assert normalized_deficit(s, MomentReport(0.0, math.inf)) is ExtremeFlag.VARIANCE_INFINITE_OR_UNSTABLE
    value = normalized_deficit(s, MomentReport(0.0, 1.0))
    assert isinstance(value, float)
    assert math.isclose(value, 0.5 / math.sqrt(s.var_g))


# --- report assembly -------------------------------------------------------


def test_report_on_gaussian_margin():
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(2.0, 1.0)),))
    summary = run(model)
    moments = model_moments(model)
    rep = build_report(summary, moments)

    assert rep.n == summary.n
    assert rep.failure_count == summary.failure_count
    assert rep.pf == summary.pf
    assert rep.pf_se == math.sqrt(rep.pf * (1 - rep.pf) / rep.n)
    assert rep.beta is not None and abs(rep.beta - 2.0) < 0.05
    assert rep.beta_moment == summary.mean_g / math.sqrt(summary.var_g)
    assert rep.ef == summary.deficit_sum / summary.failure_count
    assert rep.ef_star == rep.ef / math.sqrt(summary.var_g)
    # severity index inverts the deficit map exactly
    assert rep.beta_s is not None
    assert abs(gaussian.deficit(rep.beta_s) - rep.ef_star) < 1e-12
    # a Gaussian margin must land on the consistency line
    assert abs(rep.beta_s - rep.beta) < 0.15
    assert rep.gaussian_benchmark == gaussian.deficit(rep.beta)
    assert rep.extreme_flag is None
    assert rep.level is classify(rep.ef_star)
    assert rep.notes == ()
    lo, hi = rep.ef_star_ci
    assert lo < rep.ef_star < hi


def test_report_bootstrap_is_reproducible():
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(2.0, 1.0)),))
    summary = run(model, n=100_000)
    moments = model_moments(model)
    a = build_report(summary, moments)
    b = build_report(summary, moments)
    assert a.ef_star_ci == b.ef_star_ci
    assert a == b


def _normal_ci(deficits, sigma):
    k = deficits.size
    m = deficits.mean()
    s = np.std(deficits, ddof=1)
    z = -gaussian.norm_quantile(0.025)
    return ((m - z * s / math.sqrt(k)) / sigma, (m + z * s / math.sqrt(k)) / sigma)


def _deficits(model, summary):
    g = np.concatenate(list(g_chunks(model, summary.config)))
    return -g[g < 0.0]


def _with_deficits(summary, deficits):
    """`summary` as if its failures had been exactly `deficits`."""
    k = deficits.size
    m2 = float(np.square(deficits - deficits.mean()).sum()) if k else 0.0
    return replace(summary, failure_count=k, deficit_sum=float(deficits.sum()), deficit_m2=m2)


def _assert_close(ci, expected, rel):
    assert ci is not None
    for got, want in zip(ci, expected):
        assert got == pytest.approx(want, rel=rel)


@pytest.fixture(scope="module")
def dense_gaussian():
    # Normal(2, 1) margin at n = 1M: ~22.8k failures
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(2.0, 1.0)),))
    summary = run(model, n=1_000_000, chunk=250_000)
    return summary, model_moments(model), _deficits(model, summary)


def test_ef_star_ci_is_the_normal_interval(dense_gaussian):
    summary, moments, deficits = dense_gaussian
    sigma = math.sqrt(summary.var_g)
    rep = build_report(summary, moments)
    _assert_close(rep.ef_star_ci, _normal_ci(deficits, sigma), rel=1e-12)
    # the same formula at every failure count from two up
    for k in (2, 3, 2_339):
        part = _with_deficits(summary, deficits[:k])
        _assert_close(build_report(part, moments).ef_star_ci, _normal_ci(deficits[:k], sigma), rel=1e-12)
    for k in (0, 1):
        assert build_report(_with_deficits(summary, deficits[:k]), moments).ef_star_ci is None
    # the resample count no longer plays any part
    assert build_report(summary, moments, bootstrap_resamples=0).ef_star_ci == rep.ef_star_ci


def test_ef_star_ci_covers_every_failure():
    # ~1.06M failures, more than the deficit store this interval was once
    # drawn from could hold; the last chunk is ragged
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=2_123_457, master_seed=5, chunk_size=300_000)
    summary = simulate(model, cfg)
    rep = build_report(summary, model_moments(model))
    deficits = _deficits(model, summary)
    k = deficits.size
    assert summary.failure_count == k > 1_000_000
    lo, hi = rep.ef_star_ci
    assert (lo + hi) / 2.0 == pytest.approx(rep.ef_star, rel=1e-12)
    sd = float(np.std(deficits, ddof=1))
    expected = -gaussian.norm_quantile(0.025) * sd / math.sqrt(k) / math.sqrt(summary.var_g)
    assert (hi - lo) / 2.0 == pytest.approx(expected, rel=1e-9)
    assert robust_scales(summary).conditional_std == pytest.approx(sd, rel=1e-9)


def test_ef_star_ci_half_width_matches_gaussian_theory(dense_gaussian):
    summary, moments, _ = dense_gaussian
    b = 2.0
    f = gaussian.deficit(b)
    pf = gaussian.norm_cdf(-b)
    # sd of Z - b given Z > b is sqrt(1 - bF - F^2); sigma_g = 1
    expected = 1.96 * math.sqrt((1.0 - b * f - f * f) / (pf * summary.n))
    lo, hi = build_report(summary, moments).ef_star_ci
    assert abs((hi - lo) / 2.0 / expected - 1.0) < 0.05


def test_report_zero_failures():
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(30.0, 1.0)),))
    summary = run(model, n=1_000, chunk=1_000)
    rep = build_report(summary, model_moments(model))
    assert summary.failure_count == 0
    assert rep.pf == 0.0 and rep.pf_se == 0.0
    assert rep.beta is None and rep.ef is None and rep.ef_star is None
    assert rep.beta_s is None and rep.level is None and rep.extreme_flag is None
    assert rep.ef_star_ci is None and rep.gaussian_benchmark is None
    assert rep.beta_moment is not None and abs(rep.beta_moment - 30.0) < 2.0
    assert len(rep.notes) == 1
    assert "1/N" in rep.notes[0] and "N=1000" in rep.notes[0]


def test_report_every_sample_fails():
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(-10.0, 1.0)),))
    summary = run(model, n=10_000, chunk=4_000)
    rep = build_report(summary, model_moments(model))
    assert summary.failure_count == summary.n == 10_000
    assert rep.pf == 1.0 and rep.pf_se == 0.0
    assert rep.beta is None and rep.gaussian_benchmark is None
    assert "p_f > 0.9999 (1/N bound)" in rep.notes[0] and "N=10000" in rep.notes[0]
    # the deficit metrics still come from the streamed moments
    assert rep.ef == summary.deficit_sum / summary.n
    assert rep.ef_star == rep.ef / math.sqrt(summary.var_g)
    assert rep.ef_star_ci is not None
    assert rep.extreme_flag is ExtremeFlag.DEFICIT_BEYOND_ENDPOINT
    assert rep.level is SeverityLevel.EXTREME
    # beta < norm_quantile(1/N) < 0, so any positive target rejects it
    decision = assess(rep, beta_target=0.1)
    assert decision.verdict is Verdict.REJECT_FREQUENCY
    assert decision.frequency_pass is False and decision.severity_level is None

    # shallow deficits: beta_S and the level are defined without beta
    sub = np.random.default_rng(4).normal(size=1_000)
    cfg = SimulationConfig(sample_count=1_000, master_seed=0, chunk_size=1_000)
    rep = build_report(_summary(sub, 1_000, 500.0, cfg), MomentReport(0.0, 1.0))
    ef_star = 0.5 / float(sub.std(ddof=1))
    assert rep.beta is None and rep.ef_star == pytest.approx(ef_star, rel=1e-12)
    assert rep.beta_s == severity_index(ef_star)
    assert rep.level is classify(ef_star) and rep.extreme_flag is None

    # one failing sample: E_f, but no sigma_g to normalise it by
    rep = build_report(run(model, n=1, chunk=1), model_moments(model))
    assert rep.beta is None and rep.ef is not None
    assert rep.ef_star is None and rep.beta_s is None and rep.level is None
    assert assess(rep, beta_target=0.1).verdict is Verdict.REJECT_FREQUENCY
    assert any("sigma-normalized metrics withheld" in note for note in rep.notes)


def test_report_infinite_variance_flag():
    # alpha < 2 makes the analytic variance infinite while failures abound
    model = LimitStateModel(terms=(Term("load", -1.0, Pareto(1.0, 1.5)),), shift=3.0)
    summary = run(model, n=20_000, chunk=10_000)
    moments = model_moments(model)
    assert not moments.variance_finite
    rep = build_report(summary, moments)
    assert rep.extreme_flag is ExtremeFlag.VARIANCE_INFINITE_OR_UNSTABLE
    assert rep.level is SeverityLevel.EXTREME
    assert rep.beta is not None and rep.ef is not None
    assert rep.ef_star is None and rep.beta_s is None and rep.ef_star_ci is None
    assert any("infinite" in note for note in rep.notes)


def test_report_deficit_beyond_endpoint():
    # rare catastrophic branch: finite variance, but failures are so deep
    # that no Gaussian margin could produce the normalized deficit
    crash = Mixture(((0.999, Normal(5.0, 1.0)), (0.001, Normal(-200.0, 1.0))))
    model = LimitStateModel(terms=(Term("m", 1.0, crash),))
    summary = run(model, n=50_000, seed=8, chunk=25_000)
    moments = model_moments(model)
    assert moments.variance_finite
    rep = build_report(summary, moments)
    assert rep.ef_star is not None and rep.ef_star > gaussian.DEFICIT_ENDPOINT
    assert rep.beta_s is None
    assert rep.extreme_flag is ExtremeFlag.DEFICIT_BEYOND_ENDPOINT
    assert rep.level is SeverityLevel.EXTREME
    assert any("endpoint" in note for note in rep.notes)


# --- two-stage workflow -----------------------------------------------------


def _report(beta, level, **overrides):
    fields = dict(
        n=1_000_000,
        failure_count=100,
        pf=1e-4,
        pf_se=1e-5,
        beta=beta,
        beta_moment=None,
        ef=0.5,
        ef_star=0.3,
        ef_star_ci=None,
        beta_s=2.7,
        extreme_flag=None,
        level=level,
        gaussian_benchmark=None,
    )
    fields.update(overrides)
    return SeverityReport(**fields)


def test_assess_rejects_on_frequency_first():
    d = assess(_report(2.0, SeverityLevel.MILD), beta_target=3.0)
    assert d.verdict is Verdict.REJECT_FREQUENCY
    assert d.frequency_pass is False
    assert d.severity_level is None


def test_assess_extreme_forces_redesign():
    d = assess(_report(4.0, SeverityLevel.EXTREME), beta_target=3.0)
    assert d.verdict is Verdict.EXTREME_REDESIGN
    assert d.frequency_pass is True
    assert d.severity_level is SeverityLevel.EXTREME


def test_assess_accepts_within_ceiling():
    d = assess(_report(4.0, SeverityLevel.HIGH), beta_target=3.0)
    assert d.verdict is Verdict.ACCEPT_WITH_LEVEL
    assert d.severity_level is SeverityLevel.HIGH
    assert d.advisory is None


def test_assess_advisory_above_ceiling():
    d = assess(
        _report(4.0, SeverityLevel.HIGH),
        beta_target=3.0,
        max_acceptable_level=DEFAULT_MAX_LEVEL_CRITICAL,
    )
    assert d.verdict is Verdict.ACCEPT_WITH_LEVEL
    assert d.advisory is not None and "exceeds" in d.advisory


def test_assess_needs_beta_and_level():
    with pytest.raises(ValueError, match="beta"):
        assess(_report(None, SeverityLevel.MILD), beta_target=3.0)
    with pytest.raises(ValueError, match="classified"):
        assess(_report(4.0, None), beta_target=3.0)


def test_default_ceilings():
    assert DEFAULT_MAX_LEVEL is SeverityLevel.HIGH
    assert DEFAULT_MAX_LEVEL_CRITICAL is SeverityLevel.MODERATE
