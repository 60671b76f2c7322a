"""Kernel tests: deficit map, tail mean, inversion, normal helpers.

Expected values were computed with mpmath at 50 decimal digits and
frozen here; a live mpmath spot check guards against both drifting.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrel.gaussian import (
    DEFICIT_ENDPOINT,
    OutOfGaussianDomain,
    deficit,
    deficit_slope,
    invert_deficit,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    tail_mean,
)

# 50-digit reference values, rounded to nearest float
DEFICIT_REF = {
    0.5: 0.64107777036806448,
    1.0: 0.52513527616098121,
    2.0: 0.37321553282284087,
    2.3263478740408408: 0.33886634630496374,
    3.0: 0.28309865493043651,
    3.5: 0.25139126485769973,
    5.0: 0.18650396712584212,
    8.0: 0.12136811223611268,
    10.0: 0.098093233962511963,
    20.0: 0.049753068527850542,
    40.0: 0.024968847207263723,
}

TAIL_MEAN_REF = {
    0.0: 0.79788456080286536,
    1.0: 1.5251352761609812,
    3.0: 3.2830986549304365,
    8.0: 8.1213681122361127,
    40.0: 40.024968847207264,
}


def test_endpoint_exact_binary_value():
    assert DEFICIT_ENDPOINT == 2.0 / math.sqrt(2.0 * math.pi)
    assert DEFICIT_ENDPOINT == 0.7978845608028654


@pytest.mark.parametrize("b,expected", sorted(DEFICIT_REF.items()))
def test_deficit_reference_values(b, expected):
    assert deficit(b) == pytest.approx(expected, rel=5e-13)


@pytest.mark.parametrize("b,expected", sorted(TAIL_MEAN_REF.items()))
def test_tail_mean_reference_values(b, expected):
    assert tail_mean(b) == pytest.approx(expected, rel=5e-13)


def test_tail_mean_far_left_is_the_unconditional_mean():
    # conditioning on Z > -8 barely conditions at all
    assert abs(tail_mean(-8.0)) < 1e-13
    assert tail_mean(0.0) == pytest.approx(norm_pdf(0.0) / 0.5, rel=1e-15)


def test_deficit_continuous_at_route_switch():
    # ratio route just below 8, continued fraction at and above 8; the
    # first-order extrapolation across the seam must agree to ~1e-12
    eps = 1e-6
    predicted = deficit(8.0) - deficit_slope(8.0) * eps
    assert deficit(8.0 - eps) == pytest.approx(predicted, abs=2e-12)


def test_deficit_rejects_nonpositive():
    for bad in (0.0, -1.0, -1e-300):
        with pytest.raises(ValueError):
            deficit(bad)


def test_slope_reference_values():
    assert deficit_slope(1.0) == pytest.approx(-0.19909766557034879, rel=1e-12)
    assert deficit_slope(20.0) == pytest.approx(-0.0024632616150521636, rel=1e-12)


def test_slope_matches_finite_difference():
    h = 1e-5
    for b in (0.1, 0.5, 1.0, 2.0, 3.5, 6.0, 7.9, 8.1, 12.0, 25.0):
        fd = (deficit(b + h) - deficit(b - h)) / (2.0 * h)
        assert deficit_slope(b) == pytest.approx(fd, abs=1e-6)
        assert deficit_slope(b) < 0.0


def test_strictly_decreasing_on_dense_grid():
    # 10^4 points spanning both evaluation routes
    lo, hi = 1e-3, 50.0
    prev = deficit(lo)
    for i in range(1, 10_000):
        b = lo + (hi - lo) * i / 9_999
        cur = deficit(b)
        assert cur < prev
        prev = cur


def test_range_is_open_interval():
    assert deficit(1e-8) < DEFICIT_ENDPOINT
    assert deficit(1e-8) == pytest.approx(DEFICIT_ENDPOINT, abs=1e-7)
    assert deficit(500.0) > 0.0


def test_large_b_asymptotics():
    # enveloping alternating series: 1/b - 2/b^3 <= F(b) <= 1/b
    for b in (10.0, 15.0, 20.0, 30.0, 40.0):
        f = deficit(b)
        lead = 1.0 / b - 2.0 / b**3
        assert lead <= f <= 1.0 / b
        assert abs(f - lead) <= 10.0 / b**5


def test_invert_reference_values():
    assert invert_deficit(0.3040) == pytest.approx(2.7220189534176702, abs=1e-10)
    assert invert_deficit(0.4741) == pytest.approx(1.2776050543959377, abs=1e-10)
    assert invert_deficit(0.3085) == pytest.approx(2.6665568881741125, abs=1e-10)
    assert invert_deficit(0.2831) == pytest.approx(2.9999809370840763, abs=1e-10)


def test_invert_roundtrip_spanning_domain():
    for i in range(100):
        y = 0.001 + (0.797 - 0.001) * i / 99
        b = invert_deficit(y)
        assert abs(deficit(b) - y) <= 1e-12


def test_invert_deep_tail():
    # y below F(40) forces the extended bracket
    for y in (0.0015, 0.005, 0.015, 0.024):
        b = invert_deficit(y)
        assert b > 40.0
        assert abs(deficit(b) - y) <= 1e-12


def test_invert_domain_errors():
    with pytest.raises(ValueError):
        invert_deficit(0.0)
    with pytest.raises(ValueError):
        invert_deficit(-0.1)
    with pytest.raises(OutOfGaussianDomain):
        invert_deficit(DEFICIT_ENDPOINT)
    with pytest.raises(OutOfGaussianDomain):
        invert_deficit(0.9)


@given(st.floats(min_value=1e-3, max_value=DEFICIT_ENDPOINT - 1e-9))
@settings(max_examples=200)
def test_invert_roundtrip_property(y):
    assert abs(deficit(invert_deficit(y)) - y) <= 1e-12


@st.composite
def resolvable_pairs(draw):
    # Points closer than a relative 1e-9 can change the deficit by less
    # than one ulp (a = 0.001 and the next float up map to the same
    # value), so a strict decrease cannot hold for them.
    lo = draw(st.floats(min_value=1e-3, max_value=59.0))
    hi = draw(st.floats(min_value=lo * (1.0 + 1e-9), max_value=60.0))
    return lo, hi


@given(resolvable_pairs())
def test_monotone_property(pair):
    lo, hi = pair
    assert deficit(lo) > deficit(hi)


def test_normal_helper_values():
    assert norm_pdf(3.0) == pytest.approx(0.0044318484119380072, rel=1e-14)
    assert norm_cdf(-2.3263478740408408) == pytest.approx(0.01, rel=1e-13)
    assert norm_quantile(0.0638) == pytest.approx(-1.52363465973, abs=1e-9)
    assert norm_quantile(0.5) == 0.0


def test_normal_cdf_deep_tail_positive():
    # must not underflow to zero where failure probabilities live
    assert 0.0 < norm_cdf(-37.0) < 1e-250


def test_norm_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            norm_quantile(bad)


def test_quantile_cdf_roundtrip():
    for p in (1e-10, 1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
        assert norm_cdf(norm_quantile(p)) == pytest.approx(p, rel=1e-12)


def test_against_live_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for b in (0.3, 1.7, 6.0, 12.0, 33.3):
        z = mpmath.mpf(b)
        exact = mpmath.npdf(z) / mpmath.ncdf(-z) - z
        assert deficit(b) == pytest.approx(float(exact), rel=5e-13)
