"""Distribution families: moments, quantiles, sampling fidelity."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from sevrel.distributions import (
    Gumbel,
    Lognormal,
    Mixture,
    Normal,
    Pareto,
    lognormal_from_median_cov,
)
from sevrel.scenarios import SCENARIO_IDS, builtin


def rng(seed=0):
    return np.random.default_rng(seed)


def test_normal_moments_and_quantile():
    d = Normal(10.0, 1.5)
    m = d.moments()
    assert m.mean == 10.0
    assert m.variance == 2.25
    assert m.variance_finite
    assert d.quantile(0.975) == pytest.approx(10.0 + 1.5 * 1.959963984540054, rel=1e-12)
    assert d.cdf(10.0) == pytest.approx(0.5, rel=1e-14)


def test_normal_rejects_bad_scale():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Normal(0.0, -1.0)


def test_lognormal_moments_match_scipy():
    d = Lognormal(2.3, 0.2)
    ref_mean, ref_var = stats.lognorm.stats(s=0.2, scale=math.exp(2.3), moments="mv")
    m = d.moments()
    assert m.mean == pytest.approx(float(ref_mean), rel=1e-13)
    assert m.variance == pytest.approx(float(ref_var), rel=1e-13)


def test_lognormal_from_median_cov():
    d = lognormal_from_median_cov(1520.0, 0.10)
    assert d.log_mean == pytest.approx(7.3264656138403221, rel=1e-15)
    assert d.log_std == pytest.approx(0.099751345119592662, rel=1e-15)
    # median and cov round-trip through the moments
    assert d.quantile(0.5) == pytest.approx(1520.0, rel=1e-12)
    m = d.moments()
    assert math.sqrt(m.variance) / m.mean == pytest.approx(0.10, rel=1e-12)


def test_lognormal_cdf_left_of_support():
    d = Lognormal(0.0, 1.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(-5.0) == 0.0


def test_gumbel_moments():
    d = Gumbel(8.0, 1.2)
    m = d.moments()
    assert m.mean == pytest.approx(8.6926587978818394, rel=1e-14)
    assert m.variance == pytest.approx(2.3687050562614461, rel=1e-14)


def test_gumbel_quantile_cdf_roundtrip():
    d = Gumbel(2.0, 0.6)
    for p in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-9):
        assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-9)


def test_pareto_moments():
    d = Pareto(10.0, 3.0)
    m = d.moments()
    assert m.mean == pytest.approx(15.0, rel=1e-14)
    assert m.variance == pytest.approx(75.0, rel=1e-13)

    heavy = Pareto(10.0, 1.5)
    hm = heavy.moments()
    assert hm.mean == pytest.approx(30.0)
    assert math.isinf(hm.variance)
    assert not hm.variance_finite

    no_mean = Pareto(10.0, 0.9)
    assert math.isinf(no_mean.moments().mean)


def test_pareto_support_and_roundtrip():
    d = Pareto(10.0, 2.5)
    x = d.sample(rng(), 10_000)
    assert float(x.min()) >= 10.0
    for p in (0.001, 0.5, 0.999):
        assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-12)


def test_mixture_moments_finite():
    cases = [
        # law of total variance: 0.9*1 + 0.1*4 + (0.9*0 + 0.1*100 - 1)
        (((0.9, Normal(0.0, 1.0)), (0.1, Normal(10.0, 2.0))), 1.0, 0.9 + 0.4 + 10.0 - 1.0),
        # far from zero, the raw second moment minus mean**2 gave 0.0 here
        (((0.5, Normal(1e8, 1.0)), (0.5, Normal(1e8, 1.0))), 1e8, 1.0),
        # ... and -4.0 here: 1 + 0.45 * 0.55 * 1**2
        (((0.45, Normal(1e8 + 1.0, 1.0)), (0.55, Normal(1e8, 1.0))), 1e8 + 0.45, 1.2475),
    ]
    for components, mean, variance in cases:
        m = Mixture(components).moments()
        assert m.mean == pytest.approx(mean, rel=1e-14)
        assert m.variance == pytest.approx(variance, rel=1e-12)
        assert m.variance_finite


def test_mixture_infinite_variance_propagates():
    mix = Mixture(((0.999, Normal(5.0, 2.0)), (0.001, Pareto(10.0, 1.5))))
    m = mix.moments()
    assert math.isfinite(m.mean)
    assert math.isinf(m.variance)
    assert not m.variance_finite


def test_mixture_validation():
    with pytest.raises(ValueError):
        Mixture(((0.5, Normal(0, 1)), (0.6, Normal(1, 1))))  # weights sum 1.1
    with pytest.raises(ValueError):
        Mixture(((-0.1, Normal(0, 1)), (1.1, Normal(1, 1))))
    with pytest.raises(ValueError):
        Mixture(())
    inner = Mixture(((1.0, Normal(0, 1)),))
    with pytest.raises(ValueError):
        Mixture(((1.0, inner),))  # nesting is not supported


_VALID_PARAMETERS = {Normal: (0.0, 1.0), Lognormal: (0.0, 0.5), Gumbel: (0.0, 1.0), Pareto: (1.0, 3.0)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("family", list(_VALID_PARAMETERS), ids=lambda family: family.__name__)
def test_non_finite_parameters_are_rejected(family, position, bad):
    args = list(_VALID_PARAMETERS[family])
    args[position] = bad
    name = dataclasses.fields(family)[position].name
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        family(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mixture_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        Mixture(((bad, Normal(0, 1)), (0.5, Normal(1, 1))))


def test_mixture_cdf_is_weighted_sum():
    a, b = Normal(0.0, 1.0), Gumbel(2.0, 0.6)
    mix = Mixture(((0.7, a), (0.3, b)))
    for x in (-1.0, 0.5, 2.0, 4.0):
        assert mix.cdf(x) == pytest.approx(0.7 * a.cdf(x) + 0.3 * b.cdf(x), rel=1e-14)


def test_mixture_quantile_unsupported():
    mix = Mixture(((1.0, Normal(0, 1)),))
    with pytest.raises(NotImplementedError):
        mix.quantile(0.5)


def test_mixture_branch_fractions():
    w = 0.005
    mix = Mixture(((1.0 - w, Gumbel(2.0, 0.6)), (w, Gumbel(6.0, 0.6))))
    n = 1_000_000
    x = mix.sample(rng(3), n)
    # draws above 5.5 come almost entirely from the rare branch
    expected = 1.0 - mix.cdf(5.5)
    frac = float((x > 5.5).mean())
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(frac - expected) < 5 * se


def test_sampling_is_deterministic_per_seed():
    mix = Mixture(((0.9, Normal(0.0, 1.0)), (0.1, Pareto(1.0, 3.0))))
    a = mix.sample(rng(42), 1000)
    b = mix.sample(rng(42), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "dist",
    [
        Normal(10.0, 1.0),
        Lognormal(2.3, 0.2),
        Gumbel(8.0, 1.2),
        Pareto(10.0, 5.0),
    ],
    ids=["normal", "lognormal", "gumbel", "pareto"],
)
def test_kolmogorov_smirnov(dist):
    x = dist.sample(rng(11), 20_000)
    stat, p = stats.kstest(x, dist.cdf)
    assert p > 1e-3


def _finite_variance_specs():
    """Every finite-variance distribution used by the builtin studies."""
    seen = []
    for sid in SCENARIO_IDS:
        for term in builtin(sid).model.terms:
            d = term.distribution
            if d.moments().variance_finite and not any(d == s for s in seen):
                seen.append(d)
    return seen


@pytest.mark.parametrize("dist", _finite_variance_specs(), ids=lambda d: type(d).__name__)
def test_sample_moments_match_analytic(dist):
    """Sample mean and variance at n=1e6 agree with moments() within 5 SE."""
    n = 1_000_000
    x = dist.sample(rng(1234), n)
    m = dist.moments()
    mean_se = math.sqrt(m.variance / n)
    assert abs(float(x.mean()) - m.mean) < 5 * mean_se

    sample_var = float(x.var(ddof=1))
    # SE of the sample variance from the empirical fourth moment
    centered = x - x.mean()
    m4 = float((centered**4).mean())
    var_se = math.sqrt(max(m4 - sample_var**2, 0.0) / n)
    assert abs(sample_var - m.variance) < 5 * var_se
