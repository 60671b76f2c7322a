"""Engine tests: reproducibility, merge correctness, calibration."""

import gc
import itertools
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import ndtr

from sevrel import engine, quantile
from sevrel.distributions import Gumbel, Mixture, Normal, Pareto
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
    _LANE_CALIBRATION,
    _LANE_MAIN,
    _draw_segment,
    _finite_extrema,
    _pilot_window,
    _segment_g,
    _segments,
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
    monkeypatch.setattr(engine, "_workers", lambda layout: min(workers, len(layout)))


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


# --- segmenting and reproducibility ----------------------------------------


def test_chunk_layout_covers_remainder(segment):
    segment(100_000)
    cfg = SimulationConfig(sample_count=250_000, master_seed=7)
    sizes = [c.size for c in g_chunks(failure_heavy_model(), cfg)]
    assert sizes == [100_000, 100_000, 50_000]


def test_g_chunks_yields_fresh_arrays(segment):
    # simulate reuses one g buffer; g_chunks must not, since its callers keep every segment
    segment(100_000)
    cfg = SimulationConfig(sample_count=250_000, master_seed=9)
    m = failure_heavy_model()
    chunks = list(g_chunks(m, cfg))
    for a, b in itertools.combinations(chunks, 2):
        assert not np.shares_memory(a, b)
    for (idx, size), g in zip(_segments(cfg.sample_count), chunks):
        assert np.array_equal(g, _segment_g(m, cfg.master_seed, _LANE_MAIN, idx, size))


def test_g_chunks_deterministic(segment):
    segment(10_000)
    cfg = SimulationConfig(sample_count=30_000, master_seed=42)
    m = margin_model()
    a = full_g(m, cfg)
    b = full_g(m, cfg)
    assert np.array_equal(a, b)


def test_the_sample_depends_on_the_seed_and_the_sample_count_alone():
    # every lane is cut into fixed 1M-value segments; no caller picks the cut
    assert [f.name for f in fields(SimulationConfig)] == ["sample_count", "master_seed"]
    with pytest.raises(TypeError):
        SimulationConfig(sample_count=1000, master_seed=5, chunk_size=500)
    assert _segments(2_500_000) == [(0, 1_000_000), (1, 1_000_000), (2, 500_000)]


def test_merge_matches_two_pass_statistics(segment):
    segment(100_000)
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
    # extrema are global, over every segment
    assert s.deficit_min == float(deficits.min())
    assert s.deficit_max == float(deficits.max())


def test_pf_property(segment):
    segment(10_000)
    cfg = SimulationConfig(sample_count=50_000, master_seed=1)
    s = simulate(failure_heavy_model(), cfg)
    assert s.pf == s.failure_count / s.n
    assert 0.14 < s.pf < 0.18


# --- deficit spread -----------------------------------------------------


def test_conditional_std_on_standard_normal(segment):
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    segment(100_000)
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


def test_merged_normals_keep_the_law_of_g(segment):
    # Three Normal terms of mixed sign draw as one Normal, around a Gumbel
    # that keeps its own draws; the sample mean and variance of g must
    # match the term-by-term moments.
    normals = ((1.0, Normal(10.0, 1.0)), (-1.0, Normal(3.0, 1.5)), (2.0, Normal(-1.0, 0.5)))
    load = Term("load", -0.8, Gumbel(4.0, 1.1))
    terms = [Term(f"x{i}", a, d) for i, (a, d) in enumerate(normals)]
    model = LimitStateModel(terms=(terms[0], load, *terms[1:]), shift=0.5)
    segment(250_000)
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


def test_calibrate_shift_hits_target(segment):
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    segment(100_000)
    cfg = SimulationConfig(sample_count=200_000, master_seed=13)
    c = calibrate_shift(model, 0.05, cfg)
    # P(z + c < 0) = 0.05 wants c near the upper 5% point
    assert abs(c - 1.6448536269514722) < 0.03
    s = simulate(model.with_shift(c), cfg)
    # calibration and evaluation use disjoint substreams, so both
    # contribute sampling noise to the realized pf
    se = math.sqrt(2.0) * math.sqrt(0.05 * 0.95 / cfg.sample_count)
    assert abs(s.pf - 0.05) < 4.0 * se


def test_calibrate_shift_ignores_existing_shift(segment):
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    segment(50_000)
    cfg = SimulationConfig(sample_count=100_000, master_seed=13)
    a = calibrate_shift(model, 0.05, cfg)
    b = calibrate_shift(model.with_shift(123.0), 0.05, cfg)
    assert a == b


def calibration_reference(model, target_pf, config):
    # the whole calibration sample in memory at once, then one partition
    base = model.with_shift(0.0)
    g = np.concatenate(
        [_segment_g(base, config.master_seed, _LANE_CALIBRATION, idx, size) for idx, size in _segments(config.sample_count)]
    )
    k = math.ceil(target_pf * config.sample_count - 1e-9)
    return -float(np.partition(g, k - 1)[k - 1])


@pytest.mark.parametrize(
    "target_pf, n",
    [
        (0.05, 100_000),  # k = 5 000 below the segment length, ragged last segment
        (0.5, 100_000),  # k = 50 000 above the segment length, ragged last segment
        (0.3, 90_000),  # k = 27 000, segments of equal size
        (0.0001, 100_000),  # k = 10, most segments filter to nothing
    ],
)
def test_calibrate_shift_streams_to_the_same_bits(segment, target_pf, n):
    segment(30_000)
    cfg = SimulationConfig(sample_count=n, master_seed=21)
    m = failure_heavy_model()
    assert calibrate_shift(m, target_pf, cfg) == calibration_reference(m, target_pf, cfg)


def pilot_window(model, target_pf, config):
    # the window calibrate_shift draws from the first block of segment 0 of
    # the calibration lane
    size = min(engine._SEGMENT, config.sample_count)
    pilot = _segment_g(model.with_shift(0.0), config.master_seed, _LANE_CALIBRATION, 0, size)[:_BLOCK]
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
def test_calibrate_shift_is_exact_when_the_window_misses(monkeypatch, segment, z, seed, side):
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    segment(30_000)
    cfg = SimulationConfig(sample_count=100_003, master_seed=seed)
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
        # a single segment is its own pilot
        (failure_heavy_model(), 0.25, 100_000, 100_000, "finite"),
        (failure_heavy_model(), 0.25, 100_000, 250_000, "finite"),
        # a ragged last segment
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
def test_calibrate_shift_selects_exactly_in_one_pass(monkeypatch, segment, model, target_pf, n, chunk, window):
    segment(chunk)
    cfg = SimulationConfig(sample_count=n, master_seed=21)
    expected = calibration_reference(model, target_pf, cfg)
    lo, hi = pilot_window(model, target_pf, cfg)
    assert {
        "finite": math.isfinite(lo) and math.isfinite(hi) and lo < hi,
        "hi=+inf": math.isfinite(lo) and hi == math.inf,
        "lo=-inf": lo == -math.inf and math.isfinite(hi),
        "lo==hi": lo == hi,
    }[window]
    draws = []
    monkeypatch.setattr(engine, "_draw_segment", lambda *args: draws.append(args) or _draw_segment(*args))
    assert calibrate_shift(model, target_pf, cfg) == expected
    # the pilot, then every segment once: the window did not miss
    assert len(draws) == 1 + len(_segments(cfg.sample_count))


def spy_on_the_window(monkeypatch):
    # how many re-centrings moved a bound, and the side of each miss
    events = {"moved": 0, "missed": []}
    narrow, select = quantile.Window.narrow, quantile.Window.select

    def spied_narrow(win, lo_rank, hi_rank):
        before = win.bounds
        narrow(win, lo_rank, hi_rank)
        events["moved"] += win.bounds != before

    def spied_select(win):
        value = select(win)
        if value is None:
            events["missed"].append("below" if win.k <= win.below else "above")
        return value

    monkeypatch.setattr(quantile.Window, "narrow", spied_narrow)
    monkeypatch.setattr(quantile.Window, "select", spied_select)
    return events


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "z, seed, missed",
    [
        # 1k-value pilot, re-centred at 2k, 4k, ... 64k values seen
        (10.0, 1, []),
        # a window too narrow to hold the rank, narrowed before it misses
        (0.5, 1, ["below"]),
        (0.5, 0, ["above"]),
    ],
    ids=["narrowed", "missed-below", "missed-above"],
)
def test_calibrate_shift_is_exact_after_the_window_narrows(monkeypatch, segment, workers, z, seed, missed):
    # On two threads segments start ahead of the fold, so some may be
    # filtered with bounds that a re-centring has narrowed since (the
    # test below folds such a segment deterministically).
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    pin_workers(monkeypatch, workers)
    segment(1_000)
    cfg = SimulationConfig(sample_count=100_003, master_seed=seed)
    m = failure_heavy_model()
    expected = calibration_reference(m, 0.25, cfg)
    events = spy_on_the_window(monkeypatch)
    assert calibrate_shift(m, 0.25, cfg) == expected
    assert events["moved"] >= (6 if z == 10.0 else 1)
    assert events["missed"] == missed


def test_a_window_filtered_with_wider_bounds_folds_as_if_filtered_with_the_current_ones():
    rng = np.random.default_rng(3)
    first, late = rng.standard_normal(4_000), rng.standard_normal(1_000)

    def folded(late_bounds):
        # re-centred on ranks 1 900-2 100 of 4 000, not cut
        win = quantile.Window(-math.inf, math.inf, k=2_600, slack=2)
        win.fold((-math.inf, math.inf), 0, [first.copy()])
        win.narrow(1_900, 2_100)
        lo, hi = win.bounds if late_bounds is None else late_bounds
        win.fold((lo, hi), int(np.count_nonzero(late < lo)), [late[(lo <= late) & (late <= hi)]])
        return win.bounds, win.below, np.sort(np.concatenate(win.pieces))

    bounds, below, values = folded(None)
    assert -math.inf < bounds[0] < bounds[1] < math.inf
    assert values.size > 201
    for wider in [(-math.inf, math.inf), (bounds[0] - 0.1, bounds[1]), (bounds[0], bounds[1] + 0.1)]:
        got = folded(wider)
        assert got[:2] == (bounds, below)
        assert np.array_equal(got[2], values)


def narrowed_window(target_pf, n, z):
    # After a re-centring at s values seen the window holds ~2 * z * sd of
    # the rank count, sd = sqrt(p * (1 - p) * s), and gains about as many
    # again before the next one, at 2s; s < n.
    return 4 * z * math.sqrt(target_pf * (1 - target_pf) * n)


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
    "target_pf, chunk, z, missed, bound",
    [
        # One block of g, one of scratch and the window, which holds at
        # most ~24k values here once narrowed (the pilot window would hold
        # ~67k) and is joined to be narrowed, cut or read; the block
        # filter's boolean masks, a byte per value, come on top.
        (0.25, 100_000, 10.0, False, lambda k, block, chunks, window: 8 * (window + 2 * block) + 4 * block),
        # At 1k segments the window is cut to twice the k smallest values at
        # most. The (idx, size) layout of 2 000 segments takes up to ~110
        # bytes a segment, less when tuples come from the interpreter's free
        # list; gc.collect() empties that list, so it is counted in full.
        (0.001, 1_000, 10.0, False, lambda k, block, chunks, window: 8 * 2 * (k + block) + 128 * chunks),
        # The second pass keeps the side of the window the rank fell on,
        # cut to the k smallest values, not that whole side.
        (0.25, 100_000, 0.0, True, lambda k, block, chunks, window: 8 * 2 * (k + block)),
    ],
    ids=["wide-chunks", "small-pf-small-chunks", "missed-window"],
)
def test_calibrate_shift_memory_is_bounded(monkeypatch, segment, target_pf, chunk, z, missed, bound):
    # On one thread no term grows with the segment length; each further
    # thread adds its own blocks (see test_a_thread_adds_its_blocks).
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    pin_workers(monkeypatch, 1)
    segment(chunk)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    window = narrowed_window(target_pf, cfg.sample_count, z)
    draws = itertools.count()

    def counted(*args):
        next(draws)
        return _draw_segment(*args)

    monkeypatch.setattr(engine, "_draw_segment", counted)
    peak = traced_peak(lambda: calibrate_shift(model, target_pf, cfg))
    chunks = len(_segments(cfg.sample_count))
    assert (next(draws) > 1 + chunks) == missed
    k = math.ceil(target_pf * cfg.sample_count)
    assert peak < bound(k, min(_BLOCK, chunk), chunks, window)


def test_calibrate_shift_memory_does_not_grow_with_n(monkeypatch):
    # The re-centred window grows with sqrt(n): at p_f 0.25 it holds at
    # most ~49k values at 8M samples and ~24k at 2M, so the peaks differ
    # by under a block. The pilot window alone would grow 4x, to ~86k at
    # 8M, and is joined once more to be read.
    pin_workers(monkeypatch, 1)
    model = builtin("scenarioA").model
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
    # Each thread draws and reduces its segment one block at a time, so
    # memory is a few blocks per thread: here a segment alone would take
    # 8 MB.
    pin_workers(monkeypatch, 2)
    cfg = SimulationConfig(sample_count=4_000_000, master_seed=5)
    model = builtin(sid).model
    if target_pf is not None:
        model = model.with_shift(calibrate_shift(model, target_pf, cfg))
    assert traced_peak(lambda: simulate(model, cfg, histograms=True)) < 2 * per_thread(engine._SEGMENT)


@pytest.mark.parametrize("call", ["simulate", "calibrate_shift"])
def test_a_thread_adds_its_blocks(monkeypatch, segment, call):
    # A second thread holds its own blocks, and at most two segments per
    # thread of finished partials or windows wait for the fold.
    segment(100_000)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    peaks = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        if call == "simulate":
            peaks.append(traced_peak(lambda: simulate(model.with_shift(-3.0), cfg, histograms=True)))
        else:
            peaks.append(traced_peak(lambda: calibrate_shift(model, 0.25, cfg)))
    assert peaks[1] - peaks[0] < per_thread(100_000)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_calibrate_rejects_target_outside_unit_interval(bad):
    cfg = SimulationConfig(sample_count=100_000, master_seed=0)
    with pytest.raises(ValueError, match="target_pf"):
        calibrate_shift(margin_model(), bad, cfg)


def test_calibrate_refuses_starved_targets():
    cfg = SimulationConfig(sample_count=200_000, master_seed=0)
    with pytest.raises(ValueError, match="below 10"):
        calibrate_shift(margin_model(), 1e-5, cfg)


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
def test_simulate_and_calibrate_fail_on_non_finite_g(segment, model):
    segment(1_000)
    cfg = SimulationConfig(sample_count=3_000, master_seed=0)
    # the error names the chunk, without a raw numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite in chunk 0 \(stream positions 0 to 999\)"):
            simulate(model, cfg)
        with pytest.raises(ValueError, match="not finite in chunk 0"):
            calibrate_shift(model, 0.1, cfg)


def test_sample_variance_overflow_fails_after_the_last_chunk(segment):
    # the analytic variance, 1.69e308, is finite; the squares of values
    # near 5e154 are not, although every g is
    model = LimitStateModel(terms=(Term("x", 1.0, Normal(0.0, 1.3e154)),))
    assert math.isfinite(model_moments(model).variance)
    segment(4_000)
    cfg = SimulationConfig(sample_count=10_000, master_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="the sample variance of g overflows over 10000 finite samples"):
            simulate(model, cfg)


def test_a_zero_coefficient_other_term_draws_positive_zeros():
    # With no Normal term the first other term is drawn straight into g
    # and scaled there; adding the mean, even 0.0, turns 0.0 * (a negative
    # draw) = -0.0 into 0.0, as mean + 0.0 * x gives.
    model = LimitStateModel(terms=(Term("load", 0.0, Gumbel(0.0, 1.0)),))
    g = _segment_g(model, 7, _LANE_MAIN, 0, 1_000)
    assert not np.signbit(g).any()


def test_non_finite_g_names_the_first_chunk_that_has_it(segment):
    model = rare_overflow_model()
    segment(1_000)
    cfg = SimulationConfig(sample_count=100_000, master_seed=3)
    bad = [i for i, g in enumerate(g_chunks(model, cfg)) if not np.isfinite(g).all()]
    assert bad and bad[0] > 0
    first = bad[0]
    message = rf"chunk {first} \(stream positions {first * 1_000} to {first * 1_000 + 999}\)"
    with pytest.raises(ValueError, match=message):
        simulate(model, cfg)


@pytest.mark.parametrize("lane", [_LANE_MAIN, _LANE_CALIBRATION], ids=["simulate", "calibrate_shift"])
def test_non_finite_g_after_finite_chunks_names_its_chunk(segment, lane):
    # finite segments come first; the error must still name the first
    # non-finite segment of the lane and its stream positions
    model = rare_overflow_model()
    segment(1_000)
    cfg = SimulationConfig(sample_count=100_500, master_seed=4)
    bad = [
        idx
        for idx, size in _segments(cfg.sample_count)
        if not np.isfinite(_segment_g(model, cfg.master_seed, lane, idx, size)).all()
    ]
    assert bad and bad[0] > 0
    first = bad[0]
    message = rf"chunk {first} \(stream positions {first * 1_000} to {first * 1_000 + 999}\)"
    with pytest.raises(ValueError, match=message):
        if lane == _LANE_MAIN:
            simulate(model, cfg, histograms=True)
        else:
            calibrate_shift(model, 0.25, cfg)


# --- threads --------------------------------------------------------------


def scenario_outputs(sid, tmp_path, workers):
    # in 100k segments: 8 segments of two blocks each, the last one ragged
    res = run(builtin(sid), sample_count=700_003, histograms=True)
    path = tmp_path / f"{sid}-{workers}.json"
    export_result(res, "report-json", str(path))
    s = res.summary
    scalars = {k: v for k, v in vars(s).items() if k not in ("g_histogram", "deficit_histogram", "failure_deficits")}
    hists = [h for h in (s.g_histogram, s.deficit_histogram) if h is not None]
    return scalars, hists, path.read_bytes(), res.calibrated_shift


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, segment, tmp_path, sid):
    segment(100_000)
    outputs = []
    for workers in (1, 2, 3):
        pin_workers(monkeypatch, workers)
        outputs.append(scenario_outputs(sid, tmp_path, workers))
    (scalars, hists, doc, shift) = outputs[0]
    assert hists
    for other_scalars, other_hists, other_doc, other_shift in outputs[1:]:
        assert other_scalars == scalars
        assert len(other_hists) == len(hists)
        for a, b in zip(hists, other_hists):
            assert np.array_equal(a.edges, b.edges) and np.array_equal(a.counts, b.counts)
        assert other_doc == doc
        assert other_shift == shift


@pytest.mark.parametrize("lane", [_LANE_MAIN, _LANE_CALIBRATION], ids=["simulate", "calibrate_shift"])
def test_the_lowest_failing_chunk_is_named_whichever_fails_first(monkeypatch, segment, lane):
    # The first bad segment waits until a later bad segment has raised on
    # another thread; the error must still name the first. The rare
    # branch is ten times as likely as in rare_overflow_model, so that two
    # bad segments are in flight together; at seed 1 segment 0 is finite on
    # both lanes, so the calibration pilot does not fail first.
    rare = Mixture(((0.999, Normal(0.0, 1.0)), (0.001, Normal(1.7e308, 1e308))))
    model = LimitStateModel(terms=(Term("x", 1.0, rare),))
    segment(1_000)
    cfg = SimulationConfig(sample_count=20_000, master_seed=1)
    bad = [
        idx
        for idx, size in _segments(cfg.sample_count)
        if not np.isfinite(_segment_g(model, cfg.master_seed, lane, idx, size)).all()
    ]
    assert len(bad) >= 2 and bad[0] > 0
    first, second = bad[:2]
    assert second - first < 2 * 3  # both are in flight together on three threads
    raised = threading.Event()

    def extrema(g, idx, size):
        if idx == first:
            raised.wait(timeout=10.0)
        try:
            return _finite_extrema(g, idx, size)
        except ValueError:
            if idx == second:
                raised.set()
            raise

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "_finite_extrema", extrema)
    message = rf"chunk {first} \(stream positions {first * 1_000} to {first * 1_000 + 999}\)"
    with pytest.raises(ValueError, match=message):
        if lane == _LANE_MAIN:
            simulate(model, cfg)
        else:
            calibrate_shift(model, 0.25, cfg)
    assert raised.is_set()


def test_chunks_started_ahead_of_the_fold_are_bounded(monkeypatch, segment):
    # While segment 0 is held, the other threads may run only the segments
    # already submitted: two per worker, counting segment 0. Segment 0 is
    # held until those five have started, and then a while longer, in
    # which a segment past the bound would start.
    segment(1_000)
    cfg = SimulationConfig(sample_count=100_000, master_seed=0)
    submitted, beyond, released = threading.Event(), threading.Event(), threading.Event()
    ahead = []

    def draw(*args):
        idx = args[3]
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
        return _draw_segment(*args)

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "_draw_segment", draw)
    simulate(margin_model(), cfg)
    assert sorted(ahead) == list(range(1, 2 * 3))


def test_an_error_cancels_the_chunks_not_started(monkeypatch, segment):
    # Segment 0 fails at once, while every other segment that starts is held
    # until the pool shuts down, which is after the error has cancelled
    # the segments not started. So at most one segment per thread, in
    # submission order, is drawn after segment 0.
    segment(1_000)
    cfg = SimulationConfig(sample_count=100_000, master_seed=0)
    closing, drawn = threading.Event(), []

    class Pool(ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            closing.set()
            super().shutdown(*args, **kwargs)

    def draw(*args):
        drawn.append(args[3])
        if args[3]:
            closing.wait(timeout=10.0)
        return _draw_segment(*args)

    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(engine, "_draw_segment", draw)
    with pytest.raises(ValueError, match="not finite in chunk 0"):
        simulate(overflowing_model(), cfg)
    assert closing.is_set()
    assert 0 in drawn and set(drawn) <= {0, 1, 2, 3}


def test_no_thread_outlives_a_call(monkeypatch, segment):
    pin_workers(monkeypatch, 3)
    start = threading.active_count()
    segment(1_000)
    cfg = SimulationConfig(sample_count=50_000, master_seed=0)
    simulate(margin_model(), cfg, histograms=True)
    assert threading.active_count() == start
    calibrate_shift(margin_model(), 0.01, cfg)
    assert threading.active_count() == start
    with pytest.raises(ValueError, match="not finite"):
        simulate(overflowing_model(), cfg)
    assert threading.active_count() == start
    with pytest.raises(ValueError, match="not finite"):
        calibrate_shift(overflowing_model(), 0.1, cfg)
    assert threading.active_count() == start
