"""Engine tests: reproducibility, merge correctness, calibration."""

import gc
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.optimize import brentq
from scipy.special import ndtr

from sevrel import engine, histogram
from sevrel.distributions import Gumbel, Lognormal, Mixture, Normal, Pareto
from sevrel.engine import (
    LimitStateModel,
    SimulationConfig,
    Term,
    calibrate_shift,
    g_chunks,
    model_moments,
    simulate,
)
from sevrel.engine import (
    _BLOCK,
    _draw_block,
    _finite_extrema,
)
from sevrel.scenarios import SCENARIO_IDS, builtin, export_result, run


def margin_model():
    # capacity N(10,1) minus demand N(5,1.5): g ~ N(5, 3.25)
    return LimitStateModel(
        terms=(
            Term("capacity", 1.0, Normal(10.0, 1.0)),
            Term("demand", -1.0, Normal(5.0, 1.5)),
        )
    )


def failure_heavy_model():
    # pf = cdf(-1) ~ 0.159, enough failures to exercise the stores
    return LimitStateModel(terms=(Term("x", 1.0, Normal(1.0, 1.0)),))


def pin_workers(monkeypatch, workers):
    monkeypatch.setattr(engine, "_workers", lambda tasks: min(workers, len(tasks)))


def full_g(model, config):
    return np.concatenate(list(g_chunks(model, config)))


def blocks(config):
    return -(-config.sample_count // _BLOCK)


def block_g(model, config, idx):
    # block idx of the first sample_count values
    return list(g_chunks(model, config))[idx]


def poison(monkeypatch, bad):
    # Block idx gets the value bad[idx] at its 7th position, after it is
    # drawn: a non-finite g in the blocks chosen, whatever the sample.
    def draw(plan, master_seed, idx, g, scratch):
        _draw_block(plan, master_seed, idx, g, scratch)
        if idx in bad:
            g[7] = bad[idx]
        return g

    monkeypatch.setattr(engine, "_draw_block", draw)


def positions(idx):
    return rf"block {idx} \(stream positions {idx * _BLOCK} to {idx * _BLOCK + _BLOCK - 1}\)"


# --- model ---------------------------------------------------------------


def test_model_rejects_duplicate_names():
    t = Term("x", 1.0, Normal(0.0, 1.0))
    with pytest.raises(ValueError, match="unique"):
        LimitStateModel(terms=(t, Term("x", 2.0, Normal(1.0, 1.0))))


def test_model_rejects_empty_terms():
    with pytest.raises(ValueError):
        LimitStateModel(terms=())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_coefficient_and_shift(bad):
    with pytest.raises(ValueError, match="coefficient must be finite"):
        Term("x", bad, Normal(0.0, 1.0))
    t = Term("x", 1.0, Normal(0.0, 1.0))
    with pytest.raises(ValueError, match="shift must be finite"):
        LimitStateModel(terms=(t,), shift=bad)
    with pytest.raises(ValueError, match="shift must be finite"):
        LimitStateModel(terms=(t,)).with_shift(bad)


def test_with_shift_replaces_not_accumulates():
    m = margin_model().with_shift(2.0).with_shift(-0.5)
    assert m.shift == -0.5
    assert m.terms == margin_model().terms


def test_model_moments_exact():
    rep = model_moments(margin_model())
    assert rep.mean == 5.0
    assert rep.variance == 1.0 + 1.5 * 1.5
    shifted = model_moments(margin_model().with_shift(-1.0))
    assert shifted.mean == 4.0
    assert shifted.variance == rep.variance


def test_model_moments_overflow_names_the_term():
    # (1e200)**2 overflows although the term's own variance is 1
    model = LimitStateModel(terms=(Term("load", 1e200, Normal(2.0, 1.0)),))
    with pytest.raises(ValueError, match="term 'load': the variance of g overflows"):
        model_moments(model)
    # each term's variance is finite (1e308); their sum is not
    pair = LimitStateModel(
        terms=(Term("a", 1e154, Normal(0.0, 1.0)), Term("b", -1e154, Normal(0.0, 1.0)))
    )
    with pytest.raises(ValueError, match="term 'b'"):
        model_moments(pair)


def test_model_moments_rejects_constant_g():
    # a zero coefficient leaves g equal to the shift: sigma_g is 0
    model = LimitStateModel(terms=(Term("x", 0.0, Normal(0.0, 1.0)),), shift=-1.0)
    with pytest.raises(ValueError, match=r"g is constant \(it always equals -1.0\)"):
        model_moments(model)


def test_model_moments_infinite_term_variance_is_not_an_overflow():
    heavy = builtin("example3-extreme").model
    assert math.isinf(model_moments(heavy).variance)
    # once a term is infinite, a later term cannot overflow the sum
    model = LimitStateModel(
        terms=(Term("p", 1.0, Pareto(1.0, 1.5)), Term("x", 1e200, Normal(0.0, 1.0)))
    )
    assert math.isinf(model_moments(model).variance)


# --- config --------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sample_count=0, master_seed=0),
        dict(sample_count=-10, master_seed=0),
        dict(sample_count=10, master_seed=-1),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimulationConfig(**kwargs)


def test_sample_count_below_chunk_size_is_fine():
    cfg = SimulationConfig(sample_count=1000, master_seed=0)
    s = simulate(failure_heavy_model(), cfg)
    assert s.n == 1000


# --- blocks and reproducibility --------------------------------------------


def test_chunk_layout_covers_remainder():
    cfg = SimulationConfig(sample_count=2 * _BLOCK + 50_000, master_seed=7)
    sizes = [c.size for c in g_chunks(failure_heavy_model(), cfg)]
    assert sizes == [_BLOCK, _BLOCK, 50_000]


def test_g_chunks_yields_fresh_arrays():
    # a task reuses one g buffer; g_chunks must not, since its callers keep every block
    cfg = SimulationConfig(sample_count=2 * _BLOCK + 50_000, master_seed=9)
    m = failure_heavy_model()
    chunks = list(g_chunks(m, cfg))
    for a, b in itertools.combinations(chunks, 2):
        assert not np.shares_memory(a, b)
    for idx, g in enumerate(chunks):
        assert np.array_equal(g, block_g(m, cfg, idx))


def test_g_chunks_deterministic():
    cfg = SimulationConfig(sample_count=150_000, master_seed=42)
    m = margin_model()
    a = full_g(m, cfg)
    b = full_g(m, cfg)
    assert np.array_equal(a, b)


def test_the_sample_depends_on_the_seed_and_the_sample_count_alone():
    # the stream is keyed per block; no caller picks the cut, and the full
    # blocks of a run are those of a longer one (a Mixture's ragged last
    # block is not a prefix of the full block: its value uniforms start
    # after its branch uniforms)
    assert [f.name for f in fields(SimulationConfig)] == ["sample_count", "master_seed"]
    with pytest.raises(TypeError):
        SimulationConfig(sample_count=1000, master_seed=5, chunk_size=500)
    model = builtin("case-study").model
    short, long = (full_g(model, SimulationConfig(n, 5)) for n in (2 * _BLOCK + 5, 3 * _BLOCK))
    assert np.array_equal(short[: 2 * _BLOCK], long[: 2 * _BLOCK])


def test_merge_matches_two_pass_statistics(task):
    task(1)
    cfg = SimulationConfig(sample_count=250_000, master_seed=3)
    m = failure_heavy_model()
    s = simulate(m, cfg)
    g = full_g(m, cfg)

    assert s.n == g.size
    assert math.isclose(s.mean_g, float(g.mean()), rel_tol=1e-12)
    assert math.isclose(s.var_g, float(g.var(ddof=1)), rel_tol=1e-12)
    assert s.min_g == float(g.min())
    assert s.max_g == float(g.max())

    deficits = -g[g < 0.0]
    assert s.failure_count == deficits.size
    assert math.isclose(s.deficit_sum, float(deficits.sum()), rel_tol=1e-12)
    assert math.isclose(s.deficit_m2, float(np.square(deficits - deficits.mean()).sum()), rel_tol=1e-12)
    # extrema are global, over every block
    assert s.deficit_min == float(deficits.min())
    assert s.deficit_max == float(deficits.max())


def test_pf_property():
    cfg = SimulationConfig(sample_count=50_000, master_seed=1)
    s = simulate(failure_heavy_model(), cfg)
    assert s.pf == s.failure_count / s.n
    assert 0.14 < s.pf < 0.18


# --- deficit spread -----------------------------------------------------


def test_conditional_std_on_standard_normal():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=200_000, master_seed=6)
    s = simulate(model, cfg)
    # deficits of a centered normal are half-normal
    assert s.conditional_std is not None
    assert abs(s.conditional_std - math.sqrt(1.0 - 2.0 / math.pi)) < 0.02


def test_conditional_std_needs_two_failures():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(-10.0, 1.0)),))
    one = simulate(model, SimulationConfig(sample_count=1, master_seed=0))
    assert one.failure_count == 1 and one.conditional_std is None
    two = simulate(model, SimulationConfig(sample_count=2, master_seed=0))
    assert two.conditional_std == math.sqrt(two.deficit_m2)


# --- the Normal terms drawn as one Normal -----------------------------------


def test_merged_normals_keep_the_law_of_g():
    # Three Normal terms of mixed sign draw as one Normal, around a Gumbel
    # that keeps its own draws; the sample mean and variance of g must
    # match the term-by-term moments.
    normals = ((1.0, Normal(10.0, 1.0)), (-1.0, Normal(3.0, 1.5)), (2.0, Normal(-1.0, 0.5)))
    load = Term("load", -0.8, Gumbel(4.0, 1.1))
    terms = [Term(f"x{i}", a, d) for i, (a, d) in enumerate(normals)]
    model = LimitStateModel(terms=(terms[0], load, *terms[1:]), shift=0.5)
    cfg = SimulationConfig(sample_count=1_000_000, master_seed=11)
    s = simulate(model, cfg)
    exact = model_moments(model)
    n = cfg.sample_count
    # fourth central moment of g = N + G: 3 var_N^2 + 6 var_N var_G + mu4_G,
    # with a Gumbel's kurtosis 27/5
    var_n = sum(a * a * d.stddev**2 for a, d in normals)
    var_gumbel = load.coefficient**2 * load.distribution.moments().variance
    mu4 = 3.0 * var_n**2 + 6.0 * var_n * var_gumbel + 5.4 * var_gumbel**2
    assert abs(s.mean_g - exact.mean) < 5.0 * math.sqrt(exact.variance / n)
    assert abs(s.var_g - exact.variance) < 5.0 * math.sqrt((mu4 - exact.variance**2) / n)


def test_example1_pf_matches_the_closed_form():
    # g ~ N(5, 3.25), drawn as one Normal
    scenario = builtin("example1-gaussian")
    cfg = scenario.config(sample_count=2_000_000)
    pf = float(ndtr(-5.0 / math.sqrt(3.25)))
    s = simulate(scenario.model, cfg)
    assert abs(s.pf - pf) < 5.0 * math.sqrt(pf * (1.0 - pf) / cfg.sample_count)


# --- calibration ----------------------------------------------------------


def test_calibrate_shift_hits_target():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=200_000, master_seed=13)
    c = calibrate_shift(model, 0.05, cfg)
    # P(z + c < 0) = 0.05 at the upper 5% point, to the 32 bits kept
    assert c == pytest.approx(1.6448536269514722, rel=1e-9)
    s = simulate(model.with_shift(c), cfg)
    # the shift draws no sample, so only the run's own noise is left
    assert abs(s.pf - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / cfg.sample_count)


def test_calibrate_shift_ignores_existing_shift():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=100_000, master_seed=13)
    a = calibrate_shift(model, 0.05, cfg)
    b = calibrate_shift(model.with_shift(123.0), 0.05, cfg)
    assert a == b


def two_term_model():
    # X - Y of two iid Gumbels is Logistic(0, 1): a shift c fails with
    # probability 1 / (1 + e^c) exactly
    return LimitStateModel(terms=(Term("x", 1.0, Gumbel(0.0, 1.0)), Term("y", -1.0, Gumbel(0.0, 1.0))))


def pareto_model():
    # conditioned on the Pareto term, whose tail has a kink at x_min
    return LimitStateModel(
        terms=(
            Term("r", 1.0, Normal(5.0, 1.0)),
            Term("s", -1.0, Pareto(1.0, 2.5)),
            Term("t", -1.0, Gumbel(1.0, 0.5)),
        )
    )


def no_draw(monkeypatch):
    # calibrate_shift must not draw a block
    def draw(*args):
        raise AssertionError(f"block {args[2]} was drawn")

    monkeypatch.setattr(engine, "_draw_block", draw)


@pytest.mark.parametrize(
    "model, expected, bits",
    [
        # g ~ N(5, 3.25) + c fails with p_f 0.05 at c = sd * z(0.95) - 5
        (margin_model(), math.sqrt(3.25) * stats.norm.isf(0.05) - 5.0, "-0x1.0470fb8800000p+1"),
        # c - X fails when X > c: c is the upper 5% point of X
        (
            LimitStateModel(terms=(Term("load", -1.0, Gumbel(2.0, 0.6)),)),
            stats.gumbel_r(2.0, 0.6).isf(0.05),
            "0x1.e41c6a2e00000p+1",
        ),
    ],
    ids=["all-normal", "one-term"],
)
def test_calibrate_shift_is_exact_when_r_is_constant(monkeypatch, model, expected, bits):
    # One term to condition on and nothing to convolve: the shift is the
    # root of the term's own tail.
    no_draw(monkeypatch)
    shift = calibrate_shift(model, 0.05, SimulationConfig(sample_count=1_000_000, master_seed=5))
    # rounded to 32 significant bits
    assert shift == pytest.approx(expected, rel=1e-9)
    assert shift.hex() == bits


def sixteen_gumbels():
    # sixteen terms of one spread, of alternating sign: g is symmetric
    # about 0, and fifteen densities convolve into r
    return LimitStateModel(terms=tuple(Term(f"x{i}", (-1.0) ** i, Gumbel(0.0, 1.0)) for i in range(16)))


def narrow_gumbel_model():
    # a wide capacity against a narrow demand: given the demand, the
    # capacity fails in a step 0.001 wide
    return LimitStateModel(terms=(Term("capacity", 1.0, Lognormal(1.6, 1.5)), Term("demand", -1.0, Gumbel(2.0, 0.001))))


def scipy_law(d):
    # (weight, scipy.stats law) pairs: tails evaluated without sevrel
    if isinstance(d, Normal):
        return [(1.0, stats.norm(d.mean, d.stddev))]
    if isinstance(d, Lognormal):
        return [(1.0, stats.lognorm(d.log_std, scale=math.exp(d.log_mean)))]
    if isinstance(d, Gumbel):
        return [(1.0, stats.gumbel_r(d.location, d.scale))]
    if isinstance(d, Pareto):
        return [(1.0, stats.pareto(d.alpha, scale=d.x_min))]
    return [(w * v, law) for w, c in d.components for v, law in scipy_law(c)]


def normal_gumbel_model():
    # the Normal terms, merged, against one Gumbel
    return LimitStateModel(
        terms=(
            Term("capacity", 1.0, Normal(5.0, 1.0)),
            Term("dead", -1.0, Normal(1.0, 0.3)),
            Term("demand", -1.0, Gumbel(2.0, 0.6)),
        )
    )


def quadrature_root(model, target_pf):
    # The shift at which P(g + c < 0) = target_pf, for g of Normal terms or
    # one Lognormal term, Y, and one other term b X: adaptive quadrature of
    # P(b X < -(Y + c)) over the standard normal z under Y, and brentq.
    normals = [t for t in model.terms if isinstance(t.distribution, Normal)]
    mean = sum(t.coefficient * t.distribution.mean for t in normals)
    sd = math.hypot(*(t.coefficient * t.distribution.stddev for t in normals))
    lognormals = [t for t in model.terms if isinstance(t.distribution, Lognormal)]
    (x,) = [t for t in model.terms if not isinstance(t.distribution, (Normal, Lognormal))]
    laws = scipy_law(x.distribution)

    def y(z):
        if not lognormals:
            return mean + sd * z
        (t,) = lognormals
        return t.coefficient * math.exp(t.distribution.log_mean + t.distribution.log_std * z)

    def pf(c):
        def given(z):
            at = -(y(z) + c) / x.coefficient
            return stats.norm.pdf(z) * sum(w * (law.cdf(at) if x.coefficient > 0.0 else law.sf(at)) for w, law in laws)

        return integrate.quad(given, -12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    return brentq(lambda c: pf(c) - target_pf, -50.0, 50.0, xtol=1e-14, rtol=1e-15)


@pytest.mark.parametrize("target_pf", [0.5, 0.25, 0.01])
@pytest.mark.parametrize(
    "model",
    [builtin("scenarioA").model, builtin("scenarioB").model, normal_gumbel_model()],
    ids=["scenarioA", "scenarioB", "normal-gumbel"],
)
def test_calibrate_shift_is_exact_when_the_rest_of_g_is_one_gaussian_group(monkeypatch, model, target_pf):
    # The shift is the exact root, the same for every seed, and no block
    # is drawn.
    expected = quadrature_root(model, target_pf)
    no_draw(monkeypatch)
    shifts = {calibrate_shift(model, target_pf, SimulationConfig(1_000_000, seed)) for seed in range(1, 6)}
    assert len(shifts) == 1
    # rounded to 32 significant bits
    assert shifts.pop() == pytest.approx(expected, rel=1e-9)


# calibrate_shift draws no sample: the sample count sets only its
# tolerance, here 1e-3 of the standard error of a 1e9-sample run
REFERENCE = SimulationConfig(sample_count=10**9, master_seed=11)


@pytest.mark.parametrize(
    "capacity, demand, target_pf",
    [
        (Lognormal(1.6, 1.5), Gumbel(2.0, 0.001), 0.25),
        (Normal(10.0, 3.0), Gumbel(2.0, 0.05), 0.5),
        (Lognormal(3.7, 0.6), Lognormal(0.7, 0.15), 0.5),
        (Lognormal(2.0, 1.0), Gumbel(3.0, 0.1), 0.5),
        (Normal(10.0, 0.5), Gumbel(3.0, 0.002), 0.5),
        *(
            (capacity, demand, p)
            for capacity, demand in [
                (Normal(10.0, 1.0), Lognormal(0.0, 1.0)),
                (Normal(100.0, 3.0), Lognormal(math.log(20.0), 0.8)),
            ]
            for p in (0.5, 0.25, 0.01, 1e-3)
        ),
        # Refused past _NODES grid nodes: the steep rise of a Lognormal's
        # density from 0 makes the grid of r converge slowly. The
        # references are -2.63332, 1.87360 and 2.71240. They pass once
        # a lone Lognormal in r goes on a grid of its log.
        *(
            pytest.param(capacity, demand, p, marks=pytest.mark.xfail(strict=True, raises=ValueError))
            for capacity, demand, p in [
                (Lognormal(2.0, 0.9), Lognormal(0.0, 0.9), 0.25),
                (Lognormal(0.0, 3.0), Normal(0.0, 1.0), 0.01),
                (Lognormal(0.0, 3.0), Normal(0.0, 1.0), 1e-3),
            ]
        ),
    ],
    ids=[
        "narrow-gumbel",
        "normal-gumbel-median",
        "two-lognormals-median",
        "lognormal-gumbel-median",
        "sharp-step-median",
        *(f"{name}-{p:g}" for name in ("normal-lognormal", "narrow-normal-wide-lognormal") for p in (0.5, 0.25, 0.01, 1e-3)),
        "wide-two-lognormals-0.25",
        "wide-lognormal-normal-0.01",
        "wide-lognormal-normal-0.001",
    ],
)
def test_calibrate_shift_matches_quad_over_the_demand(capacity, demand, target_pf):
    # Given the demand D, the capacity fails with probability cdf(D - c):
    # scipy's quad over the quantiles of D, and brentq. Narrow demands
    # defeated the fixed quadrature grid that calibrated before the
    # density of r was convolved on a grid of its own. A Lognormal demand
    # spans thousands of its quartile ranges between its 1e-15 quantiles,
    # so it must be the term conditioned on, not one put on the grid.
    model = LimitStateModel(terms=(Term("capacity", 1.0, capacity), Term("demand", -1.0, demand)))
    ((_, cap),), ((_, dem),) = scipy_law(capacity), scipy_law(demand)

    def pf(c):
        return integrate.quad(lambda u: cap.cdf(dem.ppf(u) - c), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    expected = brentq(lambda c: pf(c) - target_pf, -200.0, 200.0, xtol=1e-14, rtol=1e-15)
    assert abs(calibrate_shift(model, target_pf, REFERENCE) - expected) < 1e-7


def test_calibrate_shift_resolves_the_kink_of_a_pareto_tail():
    # g + c = N(5, 1) - S - T + c with S Pareto(1, 2.5) and T Gumbel(1,
    # 0.5) fails when S > N - T + c. Given T = t, N - t + c is Normal(mu,
    # 1), and P(S > Y) = Phi(1 - mu) + the integral over y > 1 of
    # phi(y - mu) y^-2.5: nested quad, smooth on each side of x_min, and
    # brentq.
    def pf(c):
        def given(t):
            mu = 5.0 - t + c
            tail = integrate.quad(
                lambda y: math.exp(-0.5 * (y - mu) ** 2) / math.sqrt(2.0 * math.pi) * y**-2.5,
                1.0, max(mu, 1.0) + 12.0, epsabs=1e-15, epsrel=1e-13, limit=200,
            )[0]
            return stats.gumbel_r.pdf(t, 1.0, 0.5) * (0.5 * math.erfc((mu - 1.0) / math.sqrt(2.0)) + tail)

        return integrate.quad(given, -5.0, 30.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    expected = brentq(lambda c: pf(c) - 0.1, -2.0, 2.0, xtol=1e-13, rtol=1e-15)
    assert abs(calibrate_shift(pareto_model(), 0.1, REFERENCE) - expected) < 1e-7


@pytest.mark.parametrize("p", [0.5, 0.25, 0.01])
def test_calibrated_two_gumbels_is_the_logistic_quantile(p):
    # X - Y is Logistic(0, 1): P(X - Y + c < 0) = 1 / (1 + e^c) = p at
    # c = ln((1 - p) / p), 0 at the median
    shift = calibrate_shift(two_term_model(), p, SimulationConfig(1_000_000, 3))
    assert shift == pytest.approx(math.log((1.0 - p) / p), rel=1e-9, abs=1e-12)


def test_calibrated_sixteen_gumbels_is_zero_at_the_median():
    # g is symmetric about 0, so it fails with probability 0.5 at shift 0
    assert abs(calibrate_shift(sixteen_gumbels(), 0.5, SimulationConfig(1_000_000, 3))) < 1e-9


@pytest.mark.parametrize(
    "model, target_pf, bits",
    [
        (two_term_model(), 0.25, "0x1.193ea7aa00000p+0"),
        (sixteen_gumbels(), 0.25, "0x1.b414e0bc00000p+1"),
        (pareto_model(), 0.1, "-0x1.07a496ea00000p-2"),
        (narrow_gumbel_model(), 0.25, "0x1.9904385800000p-3"),
    ],
    ids=["two-gumbels", "sixteen-gumbels", "pareto", "narrow-gumbel"],
)
def test_calibrate_shift_keeps_its_grid_bits(model, target_pf, bits):
    # Literal pins, the same on numpy's AVX-512 and AVX2 paths. The two
    # symmetric models are pinned at 0.25: at 0.5 their shift is 0 up to
    # round-off, whose bits differ between the paths.
    cfg = SimulationConfig(sample_count=4 * _BLOCK, master_seed=11)
    assert calibrate_shift(model, target_pf, cfg).hex() == bits


CALIBRATED = {
    **{sid: builtin(sid).model for sid in SCENARIO_IDS},
    "margin": margin_model(),
    "one-gumbel": LimitStateModel(terms=(Term("load", -1.0, Gumbel(2.0, 0.6)),)),
    "two-gumbels": two_term_model(),
    "sixteen-gumbels": sixteen_gumbels(),
    "pareto": pareto_model(),
    "normal-gumbel": normal_gumbel_model(),
    "narrow-gumbel": narrow_gumbel_model(),
    "sharp-step": LimitStateModel(terms=(Term("capacity", 1.0, Normal(10.0, 0.5)), Term("demand", -1.0, Gumbel(3.0, 0.002)))),
}


@pytest.mark.parametrize(
    "name, target_pf", [pytest.param(name, p, id=f"{name}-{p:g}") for name in CALIBRATED for p in (0.25, 1e-3)]
)
def test_a_crude_run_at_the_calibrated_shift_hits_the_target(monkeypatch, name, target_pf):
    # Every built-in and every calibrated test model: the shift is found
    # without drawing a block, and a crude run at it lies within 5
    # standard errors of the target.
    cfg = SimulationConfig(sample_count=1_000_000, master_seed=17)
    model = CALIBRATED[name]
    with monkeypatch.context() as patch:
        no_draw(patch)
        shift = calibrate_shift(model, target_pf, cfg)
    pf = simulate(model.with_shift(shift), cfg).pf
    assert abs(pf - target_pf) < 5.0 * math.sqrt(target_pf * (1.0 - target_pf) / cfg.sample_count)


def test_sixteen_gumbels_calibrated_at_1e_3_hits_the_target_on_independent_draws():
    # numpy's own Gumbel draws, the sixteen terms one after another on one
    # generator: the shift is right on draws that share nothing with the
    # engine's stream
    shift = calibrate_shift(sixteen_gumbels(), 1e-3, SimulationConfig(1_000_000, 17))
    rng = np.random.default_rng(17)
    failures = 0
    for _ in range(4):
        x = rng.gumbel(size=(16, 250_000))
        failures += int(np.count_nonzero(x[0::2].sum(axis=0) - x[1::2].sum(axis=0) + shift < 0.0))
    assert abs(failures / 1e6 - 1e-3) < 5.0 * math.sqrt(1e-3 * (1.0 - 1e-3) / 1e6)


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_the_terms_of_g_are_independent(seed):
    # Sixteen Gumbel(0, 1) terms of one sign: the variance of their sum is
    # 16 pi^2 / 6 only if the terms are uncorrelated. Slots sliced from one
    # PCG64 stream 2**64 draws apart read +29 SE here at seed 1.
    n = 4_000_000
    model = LimitStateModel(terms=tuple(Term(f"x{i}", 1.0, Gumbel(0.0, 1.0)) for i in range(16)))
    var_g = simulate(model, SimulationConfig(n, seed)).var_g
    # the sum's cumulants: k2 = 16 pi^2 / 6, k4 = 16 * 12/5 (pi^2 / 6)^2
    k2, k4 = 16.0 * math.pi**2 / 6.0, 16.0 * 2.4 * (math.pi**2 / 6.0) ** 2
    se = math.sqrt((k4 + 2.0 * k2**2) / n)
    assert abs(var_g - k2) < 4.0 * se, f"{(var_g - k2) / se:+.1f} SE"


def test_calibrate_refuses_two_pareto_terms():
    model = LimitStateModel(
        terms=(
            Term("wind", -1.0, Pareto(1.0, 3.0)),
            Term("capacity", 1.0, Normal(10.0, 1.0)),
            Term("snow", -1.0, Mixture(((0.9, Gumbel(1.0, 0.2)), (0.1, Pareto(2.0, 4.0))))),
        )
    )
    with pytest.raises(ValueError, match="terms 'wind', 'snow' each have a Pareto part"):
        calibrate_shift(model, 0.1, SimulationConfig(100_000, 0))


def test_calibrate_refuses_a_grid_past_its_node_cap():
    # Lognormal(0, 3) spans 2e10 between its 1e-15 quantiles: one of the two
    # is conditioned on, and the other would need that span on a step set
    # by the Normal's quartiles
    model = LimitStateModel(
        terms=(
            Term("x", 1.0, Normal(0.0, 1.0)),
            Term("w", 1.0, Lognormal(0.0, 3.0)),
            Term("v", -1.0, Lognormal(0.0, 3.0)),
        )
    )
    with pytest.raises(ValueError, match=r"more than \d+ grid nodes \(terms 'x', 'w', 'v'\)"):
        calibrate_shift(model, 0.1, SimulationConfig(100_000, 0))


def per_thread(size):
    # a thread holds a block of g and one of scratch, float64, and at most
    # a block of failure deficits and a byte mask, or a filter's masks
    return (8 + 8 + 8 + 1) * min(_BLOCK, size)


def traced_peak(call):
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "model, n, target_pf",
    [
        (two_term_model(), 2_000_000, 0.25),
        (two_term_model(), 2_000_000, 0.001),
        (builtin("scenarioA").model, 8_000_000, 0.25),
        (builtin("case-study").model, 8_000_000, 0.25),
    ],
    ids=["two-gumbels", "two-gumbels-small-pf", "scenarioA", "case-study"],
)
def test_calibrate_shift_memory_is_bounded(model, n, target_pf):
    # No block is drawn: the grids of r, a few thousand nodes here, and
    # their temporaries take less than one block of g.
    cfg = SimulationConfig(sample_count=n, master_seed=7)
    assert traced_peak(lambda: calibrate_shift(model, target_pf, cfg)) < 8 * _BLOCK


def test_calibrate_shift_memory_does_not_grow_with_n():
    # n sets only the tolerance of the check, so the peaks differ by
    # under a block.
    model = two_term_model()
    peaks = []
    for n in (2_000_000, 8_000_000):
        cfg = SimulationConfig(sample_count=n, master_seed=7)
        peaks.append(traced_peak(lambda: calibrate_shift(model, 0.25, cfg)))
    assert peaks[1] - peaks[0] < 8 * _BLOCK


@pytest.mark.parametrize(
    "sid, target_pf",
    [("case-study", None), ("scenarioA", 0.25)],
    ids=["case-study", "scenarioA-pf-0.25"],
)
def test_simulate_memory_is_one_chunk(monkeypatch, sid, target_pf):
    # Each thread draws and reduces its task one block at a time, so
    # memory is a few blocks per thread: here a task of g alone would take
    # 8 MB.
    pin_workers(monkeypatch, 2)
    cfg = SimulationConfig(sample_count=4_000_000, master_seed=5)
    model = builtin(sid).model
    if target_pf is not None:
        model = model.with_shift(calibrate_shift(model, target_pf, cfg))
    assert traced_peak(lambda: simulate(model, cfg, histograms=True)) < 2 * per_thread(_BLOCK)


def test_a_thread_adds_its_blocks(monkeypatch, task):
    # A second thread holds its own blocks, and at most two tasks per
    # thread of finished partials wait for the fold.
    task(2)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    peaks = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        peaks.append(traced_peak(lambda: simulate(model.with_shift(-3.0), cfg, histograms=True)))
    assert peaks[1] - peaks[0] < per_thread(_BLOCK)


def test_a_pass_allocates_its_blocks_once_on_the_calling_thread(monkeypatch):
    # Two workers and at least two tasks of 16 blocks, whatever n: every
    # allocation of half a block or more is made on the calling thread,
    # and the pass makes one per worker and buffer, not one per task: one
    # block of g and one of scratch per worker.
    pin_workers(monkeypatch, 2)
    empty, caller, made = np.empty, threading.get_ident(), []

    def spy(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.size >= _BLOCK // 2:
            made.append(threading.get_ident())
        return out

    monkeypatch.setattr(np, "empty", spy)
    for n in (2_000_000, 4_000_000):
        made.clear()
        simulate(builtin("case-study").model, SimulationConfig(sample_count=n, master_seed=7), histograms=True)
        assert made == [caller] * 2 * 2


def test_lent_blocks_are_never_shared(monkeypatch, task):
    # Six workers on one-block tasks, switching threads as often as the
    # interpreter allows: two tasks drawing into one lent block at once
    # would change the summary, and a task finding no block free would
    # raise.
    task(1)
    cfg = SimulationConfig(sample_count=40 * _BLOCK + 123, master_seed=13)
    model = builtin("case-study").model
    pin_workers(monkeypatch, 1)
    expected = simulate(model, cfg, histograms=True)
    pin_workers(monkeypatch, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summaries = [simulate(model, cfg, histograms=True) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for summary in summaries:
        for f in fields(summary):
            a, b = getattr(summary, f.name), getattr(expected, f.name)
            if isinstance(a, histogram.Histogram):
                assert np.array_equal(a.edges, b.edges) and np.array_equal(a.counts, b.counts)
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b, f.name


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_calibrate_rejects_target_outside_unit_interval(bad):
    cfg = SimulationConfig(sample_count=100_000, master_seed=0)
    with pytest.raises(ValueError, match="target_pf"):
        calibrate_shift(margin_model(), bad, cfg)


def test_calibrate_refuses_starved_targets():
    cfg = SimulationConfig(sample_count=200_000, master_seed=0)
    with pytest.raises(ValueError, match="below 10"):
        calibrate_shift(margin_model(), 1e-5, cfg)


def test_calibrate_refuses_a_constant_g():
    # no term to condition on: a zero coefficient leaves no density
    cfg = SimulationConfig(sample_count=100_000, master_seed=0)
    with pytest.raises(ValueError, match="no term of g has a density"):
        calibrate_shift(LimitStateModel(terms=(Term("x", 0.0, Normal(1.0, 1.0)),)), 0.25, cfg)


# --- non-finite g ---------------------------------------------------------


def overflowing_model():
    # 1e308 * N(10, 1) overflows to inf on every draw
    return LimitStateModel(terms=(Term("x", 1e308, Normal(10.0, 1.0)),))


def rare_overflow_model():
    # a rare branch whose draws overflow about half the time
    rare = Mixture(((0.9999, Normal(0.0, 1.0)), (0.0001, Normal(1.7e308, 1e308))))
    return LimitStateModel(terms=(Term("x", 1.0, rare),))


def nan_model():
    # inf - inf on every draw
    return LimitStateModel(
        terms=(Term("a", 1e308, Normal(10.0, 1.0)), Term("b", -1e308, Normal(10.0, 1.0)))
    )


@pytest.mark.parametrize("model", [overflowing_model(), nan_model()], ids=["inf", "nan"])
def test_simulate_and_calibrate_fail_on_non_finite_g(model):
    cfg = SimulationConfig(sample_count=3_000, master_seed=0)
    # the error names the block, without a raw numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite in block 0 \(stream positions 0 to 2999\)"):
            simulate(model, cfg)
        with pytest.raises(ValueError, match=r"g overflows: a coefficient or parameter of the terms '.+' is too large"):
            calibrate_shift(model, 0.1, cfg)


def test_sample_variance_overflow_fails_after_the_last_chunk(task):
    # the analytic variance, 1.69e308, is finite; the squares of values
    # near 5e154 are not, although every g is; three one-block tasks fold
    model = LimitStateModel(terms=(Term("x", 1.0, Normal(0.0, 1.3e154)),))
    assert math.isfinite(model_moments(model).variance)
    task(1)
    cfg = SimulationConfig(sample_count=2 * _BLOCK + 10_000, master_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"the sample variance of g overflows over {cfg.sample_count} finite samples"):
            simulate(model, cfg)


def test_a_zero_coefficient_other_term_draws_positive_zeros():
    # With no Normal term the first other term is drawn straight into g
    # and scaled there; adding the mean, even 0.0, turns 0.0 * (a negative
    # draw) = -0.0 into 0.0, as mean + 0.0 * x gives.
    model = LimitStateModel(terms=(Term("load", 0.0, Gumbel(0.0, 1.0)),))
    g = block_g(model, SimulationConfig(1_000, 7), 0)
    assert not np.signbit(g).any()


def test_non_finite_g_names_the_first_chunk_that_has_it(monkeypatch, task):
    # blocks 2 and 4 hold a non-finite g, found by g_chunks as by simulate
    task(1)
    poison(monkeypatch, {2: math.inf, 4: math.nan})
    cfg = SimulationConfig(sample_count=6 * _BLOCK + 100, master_seed=3)
    assert [i for i, g in enumerate(g_chunks(failure_heavy_model(), cfg)) if not np.isfinite(g).all()] == [2, 4]
    with pytest.raises(ValueError, match=positions(2)):
        simulate(failure_heavy_model(), cfg)


def test_non_finite_g_after_finite_chunks_names_its_chunk(monkeypatch, task):
    # finite blocks come first, in tasks of two; the error must still name
    # the first non-finite block of the stream and its stream positions
    task(2)
    poison(monkeypatch, {3: -math.inf, 5: math.nan})
    cfg = SimulationConfig(sample_count=16 * _BLOCK + 500, master_seed=4)
    with pytest.raises(ValueError, match=positions(3)):
        simulate(failure_heavy_model(), cfg, histograms=True)


# --- threads and tasks ----------------------------------------------------


def scenario_outputs(sid, tmp_path, label):
    # six blocks, the last one ragged
    res = run(builtin(sid), sample_count=330_000, histograms=True)
    path = tmp_path / f"{sid}-{label}.json"
    export_result(res, "report-json", str(path))
    s = res.summary
    scalars = {k: v for k, v in vars(s).items() if k not in ("g_histogram", "deficit_histogram", "failure_deficits")}
    hists = [h for h in (s.g_histogram, s.deficit_histogram) if h is not None]
    return scalars, hists, path.read_bytes(), res.calibrated_shift


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, task, tmp_path, sid):
    # nor on the task size: tasks of 1, 3 and 16 blocks on 1 to 3 workers
    outputs = []
    for blocks_a_task in (1, 3, 16):
        task(blocks_a_task)
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            outputs.append(scenario_outputs(sid, tmp_path, f"{blocks_a_task}-{workers}"))
    (scalars, hists, doc, shift) = outputs[0]
    assert hists
    for other_scalars, other_hists, other_doc, other_shift in outputs[1:]:
        assert other_scalars == scalars
        assert len(other_hists) == len(hists)
        for a, b in zip(hists, other_hists):
            assert np.array_equal(a.edges, b.edges) and np.array_equal(a.counts, b.counts)
        assert other_doc == doc
        assert other_shift == shift


def test_the_lowest_failing_chunk_is_named_whichever_fails_first(monkeypatch, task):
    # The first bad block waits until a later bad block has raised on
    # another thread; the error must still name the first. Blocks 2 and 4
    # are in flight together on three threads.
    task(1)
    first, second = 2, 4
    poison(monkeypatch, {first: math.nan, second: math.inf})
    cfg = SimulationConfig(sample_count=16 * _BLOCK, master_seed=1)
    raised = threading.Event()

    def extrema(g, idx):
        if idx == first:
            raised.wait(timeout=10.0)
        try:
            return _finite_extrema(g, idx)
        except ValueError:
            if idx == second:
                raised.set()
            raise

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "_finite_extrema", extrema)
    with pytest.raises(ValueError, match=positions(first)):
        simulate(failure_heavy_model(), cfg)
    assert raised.is_set()


def test_chunks_started_ahead_of_the_fold_are_bounded(monkeypatch, task):
    # While task 0 is held, the other threads may run only the tasks
    # already submitted: two per worker, counting task 0. Task 0 is held
    # until those five have started, and then a while longer, in which a
    # task past the bound would start.
    task(1)
    cfg = SimulationConfig(sample_count=10 * _BLOCK, master_seed=0)
    submitted, beyond, released = threading.Event(), threading.Event(), threading.Event()
    ahead = []

    def draw(*args):
        idx = args[2]
        if idx == 0:
            submitted.wait(timeout=10.0)
            beyond.wait(timeout=0.2)
            released.set()
        elif not released.is_set():
            ahead.append(idx)
            if len(ahead) == 2 * 3 - 1:
                submitted.set()
            if idx >= 2 * 3:
                beyond.set()
        return _draw_block(*args)

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "_draw_block", draw)
    simulate(margin_model(), cfg)
    assert sorted(ahead) == list(range(1, 2 * 3))


def test_an_error_cancels_the_chunks_not_started(monkeypatch, task):
    # Task 0 fails at once, while every other task that starts is held
    # until the pool shuts down, which is after the error has cancelled
    # the tasks not started. So at most one task per thread, in
    # submission order, is drawn after task 0.
    task(1)
    cfg = SimulationConfig(sample_count=10 * _BLOCK, master_seed=0)
    closing, drawn = threading.Event(), []

    class Pool(ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            closing.set()
            super().shutdown(*args, **kwargs)

    def draw(*args):
        drawn.append(args[2])
        if args[2]:
            closing.wait(timeout=10.0)
        return _draw_block(*args)

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(engine, "_draw_block", draw)
    with pytest.raises(ValueError, match="not finite in block 0"):
        simulate(overflowing_model(), cfg)
    assert closing.is_set()
    assert 0 in drawn and set(drawn) <= {0, 1, 2, 3}


def test_no_thread_outlives_a_call(monkeypatch, task):
    pin_workers(monkeypatch, 3)
    start = threading.active_count()
    task(1)
    cfg = SimulationConfig(sample_count=4 * _BLOCK, master_seed=0)
    simulate(margin_model(), cfg, histograms=True)
    assert threading.active_count() == start
    calibrate_shift(margin_model(), 0.01, cfg)
    assert threading.active_count() == start
    with pytest.raises(ValueError, match="not finite"):
        simulate(overflowing_model(), cfg)
    assert threading.active_count() == start
    with pytest.raises(ValueError, match="g overflows"):
        calibrate_shift(overflowing_model(), 0.1, cfg)
    assert threading.active_count() == start
