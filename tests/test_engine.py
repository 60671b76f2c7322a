"""Engine tests: reproducibility, merge correctness, calibration."""

import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sevrel import engine
from sevrel.distributions import Mixture, Normal, Pareto
from sevrel.engine import (
    LimitStateModel,
    SimulationConfig,
    Term,
    calibrate_shift,
    g_chunks,
    model_moments,
    simulate,
)
from sevrel.engine import _LANE_CALIBRATION, _chunk_g, _chunk_layout, _pilot_window
from sevrel.scenarios import builtin


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


def full_g(model, config):
    return np.concatenate(list(g_chunks(model, config)))


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
        dict(sample_count=0, master_seed=0, chunk_size=10),
        dict(sample_count=10, master_seed=0, chunk_size=0),
        dict(sample_count=10, master_seed=-1, chunk_size=10),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimulationConfig(**kwargs)


def test_sample_count_below_chunk_size_is_fine():
    cfg = SimulationConfig(sample_count=1000, master_seed=0, chunk_size=1_000_000)
    s = simulate(failure_heavy_model(), cfg)
    assert s.n == 1000


# --- chunking and reproducibility ----------------------------------------


def test_chunk_layout_covers_remainder():
    cfg = SimulationConfig(sample_count=250_000, master_seed=7, chunk_size=100_000)
    sizes = [c.size for c in g_chunks(failure_heavy_model(), cfg)]
    assert sizes == [100_000, 100_000, 50_000]


def test_g_chunks_deterministic():
    cfg = SimulationConfig(sample_count=30_000, master_seed=42, chunk_size=10_000)
    m = margin_model()
    a = full_g(m, cfg)
    b = full_g(m, cfg)
    assert np.array_equal(a, b)


def test_chunk_size_changes_the_sample():
    m = margin_model()
    a = full_g(m, SimulationConfig(sample_count=1000, master_seed=5, chunk_size=1000))
    b = full_g(m, SimulationConfig(sample_count=1000, master_seed=5, chunk_size=500))
    assert not np.array_equal(a, b)


def test_merge_matches_two_pass_statistics():
    cfg = SimulationConfig(sample_count=250_000, master_seed=3, chunk_size=100_000)
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
    # extrema are global, over every chunk
    assert s.deficit_min == float(deficits.min())
    assert s.deficit_max == float(deficits.max())


def test_pf_property():
    cfg = SimulationConfig(sample_count=50_000, master_seed=1, chunk_size=10_000)
    s = simulate(failure_heavy_model(), cfg)
    assert s.pf == s.failure_count / s.n
    assert 0.14 < s.pf < 0.18


# --- deficit spread -----------------------------------------------------


def test_conditional_std_on_standard_normal():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=200_000, master_seed=6, chunk_size=100_000)
    s = simulate(model, cfg)
    # deficits of a centered normal are half-normal
    assert s.conditional_std is not None
    assert abs(s.conditional_std - math.sqrt(1.0 - 2.0 / math.pi)) < 0.02


def test_conditional_std_needs_two_failures():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(-10.0, 1.0)),))
    one = simulate(model, SimulationConfig(sample_count=1, master_seed=0, chunk_size=1))
    assert one.failure_count == 1 and one.conditional_std is None
    two = simulate(model, SimulationConfig(sample_count=2, master_seed=0, chunk_size=2))
    assert two.conditional_std == math.sqrt(two.deficit_m2)


# --- calibration ----------------------------------------------------------


def test_calibrate_shift_hits_target():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=200_000, master_seed=13, chunk_size=100_000)
    c = calibrate_shift(model, 0.05, cfg)
    # P(z + c < 0) = 0.05 wants c near the upper 5% point
    assert abs(c - 1.6448536269514722) < 0.03
    s = simulate(model.with_shift(c), cfg)
    # calibration and evaluation use disjoint substreams, so both
    # contribute sampling noise to the realized pf
    se = math.sqrt(2.0) * math.sqrt(0.05 * 0.95 / cfg.sample_count)
    assert abs(s.pf - 0.05) < 4.0 * se


def test_calibrate_shift_ignores_existing_shift():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=100_000, master_seed=13, chunk_size=50_000)
    a = calibrate_shift(model, 0.05, cfg)
    b = calibrate_shift(model.with_shift(123.0), 0.05, cfg)
    assert a == b


def calibration_reference(model, target_pf, config):
    # the whole calibration sample in memory at once, then one partition
    base = model.with_shift(0.0)
    g = np.concatenate(
        [_chunk_g(base, config.master_seed, _LANE_CALIBRATION, idx, size) for idx, size in _chunk_layout(config)]
    )
    k = math.ceil(target_pf * config.sample_count - 1e-9)
    return -float(np.partition(g, k - 1)[k - 1])


@pytest.mark.parametrize(
    "target_pf, n",
    [
        (0.05, 100_000),  # k = 5 000 below the chunk size, ragged last chunk
        (0.5, 100_000),  # k = 50 000 above the chunk size, ragged last chunk
        (0.3, 90_000),  # k = 27 000, chunks of equal size
        (0.0001, 100_000),  # k = 10, most chunks filter to nothing
    ],
)
def test_calibrate_shift_streams_to_the_same_bits(target_pf, n):
    cfg = SimulationConfig(sample_count=n, master_seed=21, chunk_size=30_000)
    m = failure_heavy_model()
    assert calibrate_shift(m, target_pf, cfg) == calibration_reference(m, target_pf, cfg)


def pilot_window(model, target_pf, config):
    # the window calibrate_shift draws from chunk 0 of the calibration lane
    size = min(config.chunk_size, config.sample_count)
    pilot = _chunk_g(model.with_shift(0.0), config.master_seed, _LANE_CALIBRATION, 0, size)
    k = math.ceil(target_pf * config.sample_count - 1e-9)
    return _pilot_window(pilot, k / config.sample_count)


@pytest.mark.parametrize(
    "z, seed, side",
    [
        (-3.0, 1, "below"),  # lo == hi, several pilot SDs above the quantile
        (0.0, 1, "below"),
        (0.0, 3, "above"),
    ],
)
def test_calibrate_shift_is_exact_when_the_window_misses(monkeypatch, z, seed, side):
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    cfg = SimulationConfig(sample_count=100_003, master_seed=seed, chunk_size=30_000)
    m = failure_heavy_model()
    expected = calibration_reference(m, 0.25, cfg)
    lo, hi = pilot_window(m, 0.25, cfg)
    # the k-th smallest g is -expected; it must lie outside the window
    assert (-expected < lo) if side == "below" else (-expected > hi)
    # a negative half-width collapses the window rather than inverting it
    assert lo < hi if z >= 0 else lo == hi
    assert calibrate_shift(m, 0.25, cfg) == expected


@pytest.mark.parametrize(
    "model, target_pf, n, chunk, window",
    [
        # a single chunk is its own pilot
        (failure_heavy_model(), 0.25, 100_000, 100_000, "finite"),
        (failure_heavy_model(), 0.25, 100_000, 250_000, "finite"),
        # a ragged last chunk
        (failure_heavy_model(), 0.25, 100_003, 30_000, "finite"),
        # hi clips at the pilot's last value
        (failure_heavy_model(), 0.999, 100_000, 30_000, "hi=+inf"),
        # k = 10: lo clips at the pilot's first value
        (failure_heavy_model(), 0.0001, 100_000, 30_000, "lo=-inf"),
        # every g is 0.0
        (LimitStateModel(terms=(Term("x", 0.0, Normal(1.0, 1.0)),)), 0.25, 100_000, 30_000, "lo==hi"),
    ],
    ids=["one-chunk", "chunk-above-n", "ragged", "hi-inf", "lo-inf", "all-equal"],
)
def test_calibrate_shift_selects_exactly_in_one_pass(monkeypatch, model, target_pf, n, chunk, window):
    cfg = SimulationConfig(sample_count=n, master_seed=21, chunk_size=chunk)
    expected = calibration_reference(model, target_pf, cfg)
    lo, hi = pilot_window(model, target_pf, cfg)
    assert {
        "finite": math.isfinite(lo) and math.isfinite(hi) and lo < hi,
        "hi=+inf": math.isfinite(lo) and hi == math.inf,
        "lo=-inf": lo == -math.inf and math.isfinite(hi),
        "lo==hi": lo == hi,
    }[window]
    draws = []
    monkeypatch.setattr(engine, "_chunk_g", lambda *args: draws.append(args) or _chunk_g(*args))
    assert calibrate_shift(model, target_pf, cfg) == expected
    assert len(draws) == len(_chunk_layout(cfg))  # the window did not miss


@pytest.mark.parametrize(
    "target_pf, chunk, z, missed, bound",
    [
        # A draw holds g and one term's draws (two chunks of float64), and
        # the window here holds ~55k values; keeping the k = 500 000
        # smallest values took 9.9 MiB.
        (0.25, 100_000, 10.0, False, lambda k, chunk, chunks: 8 * 4 * chunk),
        # At 1k chunks the window is ~12 k, so it is cut to the k smallest
        # values. The (idx, size) layout of 2 000 chunks takes up to ~110
        # bytes a chunk, less when tuples come from the interpreter's free
        # list; gc.collect() empties that list, so it is counted in full.
        (0.001, 1_000, 10.0, False, lambda k, chunk, chunks: 8 * 2 * (k + chunk) + 128 * chunks),
        # The second pass keeps the side of the window the rank fell on,
        # cut to the k smallest values, not that whole side.
        (0.25, 100_000, 0.0, True, lambda k, chunk, chunks: 8 * 3 * (k + chunk)),
    ],
    ids=["wide-chunks", "small-pf-small-chunks", "missed-window"],
)
def test_calibrate_shift_memory_is_bounded(monkeypatch, target_pf, chunk, z, missed, bound):
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    draws = itertools.count()

    def counted(*args):
        next(draws)
        return _chunk_g(*args)

    monkeypatch.setattr(engine, "_chunk_g", counted)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7, chunk_size=chunk)
    model = builtin("scenarioA").model
    gc.collect()
    tracemalloc.start()
    try:
        calibrate_shift(model, target_pf, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunks = len(_chunk_layout(cfg))
    assert (next(draws) > chunks) == missed
    k = math.ceil(target_pf * cfg.sample_count)
    assert peak < bound(k, chunk, chunks)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_calibrate_rejects_target_outside_unit_interval(bad):
    cfg = SimulationConfig(sample_count=100_000, master_seed=0, chunk_size=50_000)
    with pytest.raises(ValueError, match="target_pf"):
        calibrate_shift(margin_model(), bad, cfg)


def test_calibrate_refuses_starved_targets():
    cfg = SimulationConfig(sample_count=200_000, master_seed=0, chunk_size=100_000)
    with pytest.raises(ValueError, match="below 10"):
        calibrate_shift(margin_model(), 1e-5, cfg)


# --- non-finite g ---------------------------------------------------------


def overflowing_model():
    # 1e308 * N(10, 1) overflows to inf on every draw
    return LimitStateModel(terms=(Term("x", 1e308, Normal(10.0, 1.0)),))


def nan_model():
    # inf - inf on every draw
    return LimitStateModel(
        terms=(Term("a", 1e308, Normal(10.0, 1.0)), Term("b", -1e308, Normal(10.0, 1.0)))
    )


@pytest.mark.parametrize("model", [overflowing_model(), nan_model()], ids=["inf", "nan"])
def test_simulate_and_calibrate_fail_on_non_finite_g(model):
    cfg = SimulationConfig(sample_count=3_000, master_seed=0, chunk_size=1_000)
    # the error names the chunk, without a raw numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite in chunk 0 \(stream positions 0 to 999\)"):
            simulate(model, cfg)
        with pytest.raises(ValueError, match="not finite in chunk 0"):
            calibrate_shift(model, 0.1, cfg)


def test_sample_variance_overflow_fails_after_the_last_chunk():
    # the analytic variance, 1.69e308, is finite; the squares of values
    # near 5e154 are not, although every g is
    model = LimitStateModel(terms=(Term("x", 1.0, Normal(0.0, 1.3e154)),))
    assert math.isfinite(model_moments(model).variance)
    cfg = SimulationConfig(sample_count=10_000, master_seed=0, chunk_size=4_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="the sample variance of g overflows over 10000 finite samples"):
            simulate(model, cfg)


def test_non_finite_g_names_the_first_chunk_that_has_it():
    # a rare branch whose draws overflow about half the time
    rare = Mixture(((0.9999, Normal(0.0, 1.0)), (0.0001, Normal(1.7e308, 1e308))))
    model = LimitStateModel(terms=(Term("x", 1.0, rare),))
    cfg = SimulationConfig(sample_count=100_000, master_seed=3, chunk_size=1_000)
    bad = [i for i, g in enumerate(g_chunks(model, cfg)) if not np.isfinite(g).all()]
    assert bad and bad[0] > 0
    first = bad[0]
    message = rf"chunk {first} \(stream positions {first * 1_000} to {first * 1_000 + 999}\)"
    with pytest.raises(ValueError, match=message):
        simulate(model, cfg)

