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
    _block_g,
    _draw_block,
    _finite_extrema,
    _pilot_window,
    _plan,
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


def block_g(model, config, lane, idx):
    # block idx of the lane's first sample_count values
    size = min(_BLOCK, config.sample_count - idx * _BLOCK)
    return _block_g(_plan(model), config.master_seed, lane, idx, size)


def poison(monkeypatch, lane, bad):
    # Block idx of the lane gets the value bad[idx] at its 7th position,
    # after it is drawn: a non-finite g in the blocks chosen, whatever the
    # sample.
    def draw(plan, master_seed, on, idx, g, scratch):
        _draw_block(plan, master_seed, on, idx, g, scratch)
        if on == lane and idx in bad:
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
        assert np.array_equal(g, block_g(m, cfg, _LANE_MAIN, idx))


def test_g_chunks_deterministic():
    cfg = SimulationConfig(sample_count=150_000, master_seed=42)
    m = margin_model()
    a = full_g(m, cfg)
    b = full_g(m, cfg)
    assert np.array_equal(a, b)


def test_the_sample_depends_on_the_seed_and_the_sample_count_alone():
    # every lane is keyed per block; no caller picks the cut, and the full
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
    # P(z + c < 0) = 0.05 wants c near the upper 5% point
    assert abs(c - 1.6448536269514722) < 0.03
    s = simulate(model.with_shift(c), cfg)
    # calibration and evaluation use disjoint substreams, so both
    # contribute sampling noise to the realized pf
    se = math.sqrt(2.0) * math.sqrt(0.05 * 0.95 / cfg.sample_count)
    assert abs(s.pf - 0.05) < 4.0 * se


def test_calibrate_shift_ignores_existing_shift():
    model = LimitStateModel(terms=(Term("z", 1.0, Normal(0.0, 1.0)),))
    cfg = SimulationConfig(sample_count=100_000, master_seed=13)
    a = calibrate_shift(model, 0.05, cfg)
    b = calibrate_shift(model.with_shift(123.0), 0.05, cfg)
    assert a == b


def calibration_reference(model, target_pf, config):
    # the whole calibration sample in memory at once, then one partition
    base = model.with_shift(0.0)
    g = np.concatenate([block_g(base, config, _LANE_CALIBRATION, idx) for idx in range(blocks(config))])
    k = math.ceil(target_pf * config.sample_count - 1e-9)
    return -float(np.partition(g, k - 1)[k - 1])


@pytest.mark.parametrize(
    "target_pf, n",
    [
        (0.05, 100_000),  # k = 5 000, a ragged second block
        (0.5, 100_000),  # k = 50 000, more than the ragged block holds
        (0.3, 90_000),  # k = 27 000
        (0.0001, 100_000),  # k = 10, a window of a few dozen values
    ],
)
def test_calibrate_shift_streams_to_the_same_bits(task, target_pf, n):
    task(1)
    cfg = SimulationConfig(sample_count=n, master_seed=21)
    m = failure_heavy_model()
    assert calibrate_shift(m, target_pf, cfg) == calibration_reference(m, target_pf, cfg)


def pilot_window(model, target_pf, config):
    # the window calibrate_shift draws from block 0 of the calibration lane
    pilot = block_g(model.with_shift(0.0), config, _LANE_CALIBRATION, 0)
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
    "model, target_pf, n, blocks_a_task, window",
    [
        # a single block is its own pilot
        (failure_heavy_model(), 0.25, _BLOCK, 16, "finite"),
        # one task, shorter than the task size
        (failure_heavy_model(), 0.25, 100_000, 16, "finite"),
        # a ragged last block
        (failure_heavy_model(), 0.25, 100_003, 1, "finite"),
        # hi clips at the pilot's last value
        (failure_heavy_model(), 0.999, 100_000, 1, "hi=+inf"),
        # k = 10: lo clips at the pilot's first value
        (failure_heavy_model(), 0.0001, 100_000, 1, "lo=-inf"),
        # every g is 0.0
        (LimitStateModel(terms=(Term("x", 0.0, Normal(1.0, 1.0)),)), 0.25, 100_000, 1, "lo==hi"),
    ],
    ids=["one-chunk", "chunk-above-n", "ragged", "hi-inf", "lo-inf", "all-equal"],
)
def test_calibrate_shift_selects_exactly_in_one_pass(monkeypatch, task, model, target_pf, n, blocks_a_task, window):
    task(blocks_a_task)
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
    monkeypatch.setattr(engine, "_draw_block", lambda *args: draws.append(args) or _draw_block(*args))
    assert calibrate_shift(model, target_pf, cfg) == expected
    # the pilot, then every block once: the window did not miss
    assert len(draws) == 1 + blocks(cfg)


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
        # 64k-value pilot, re-centred at 128k, 256k, 512k and 1M values seen
        (10.0, 1, []),
        # a window too narrow to hold the rank, narrowed before it misses
        (0.5, 1, ["below"]),
        (0.5, 0, ["above"]),
    ],
    ids=["narrowed", "missed-below", "missed-above"],
)
def test_calibrate_shift_is_exact_after_the_window_narrows(monkeypatch, task, workers, z, seed, missed):
    # On two threads blocks start ahead of the fold, so some may be
    # filtered with bounds that a re-centring has narrowed since (the
    # test below folds such a block deterministically).
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    pin_workers(monkeypatch, workers)
    task(1)
    cfg = SimulationConfig(sample_count=1_100_003, master_seed=seed)
    m = failure_heavy_model()
    expected = calibration_reference(m, 0.25, cfg)
    events = spy_on_the_window(monkeypatch)
    assert calibrate_shift(m, 0.25, cfg) == expected
    assert events["moved"] >= (4 if z == 10.0 else 1)
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
    "target_pf, blocks_a_task, z, missed, bound",
    [
        # One block of g, one of scratch and the window, which holds at
        # most ~24k values here once narrowed (the pilot window would hold
        # ~67k) and is joined to be narrowed, cut or read; the block
        # filter's boolean masks, a byte per value, come on top.
        (0.25, 2, 10.0, False, lambda k, tasks, window: 8 * (window + 2 * _BLOCK) + 4 * _BLOCK),
        # In one-block tasks the window is cut to twice the k smallest
        # values at most; the masks come on top as above. Each task's
        # range and window take ~100 bytes; counted at 128.
        (0.001, 1, 10.0, False, lambda k, tasks, window: 8 * 2 * (k + _BLOCK) + 4 * _BLOCK + 128 * tasks),
        # The second pass keeps the side of the window the rank fell on,
        # cut to the k smallest values, not that whole side.
        (0.25, 2, 0.0, True, lambda k, tasks, window: 8 * 2 * (k + _BLOCK)),
    ],
    ids=["wide-chunks", "small-pf-small-chunks", "missed-window"],
)
def test_calibrate_shift_memory_is_bounded(monkeypatch, task, target_pf, blocks_a_task, z, missed, bound):
    # On one thread no term grows with the sample count but the window;
    # each further thread adds its own blocks (see
    # test_a_thread_adds_its_blocks).
    monkeypatch.setattr(engine, "_PILOT_Z", z)
    pin_workers(monkeypatch, 1)
    task(blocks_a_task)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    window = narrowed_window(target_pf, cfg.sample_count, z)
    draws = itertools.count()

    def counted(*args):
        next(draws)
        return _draw_block(*args)

    monkeypatch.setattr(engine, "_draw_block", counted)
    peak = traced_peak(lambda: calibrate_shift(model, target_pf, cfg))
    assert (next(draws) > 1 + blocks(cfg)) == missed
    k = math.ceil(target_pf * cfg.sample_count)
    assert peak < bound(k, len(engine._tasks(cfg.sample_count)), window)


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
    # Each thread draws and reduces its task one block at a time, so
    # memory is a few blocks per thread: here a task of g alone would take
    # 8 MB.
    pin_workers(monkeypatch, 2)
    cfg = SimulationConfig(sample_count=4_000_000, master_seed=5)
    model = builtin(sid).model
    if target_pf is not None:
        model = model.with_shift(calibrate_shift(model, target_pf, cfg))
    assert traced_peak(lambda: simulate(model, cfg, histograms=True)) < 2 * per_thread(_BLOCK)


@pytest.mark.parametrize("call", ["simulate", "calibrate_shift"])
def test_a_thread_adds_its_blocks(monkeypatch, task, call):
    # A second thread holds its own blocks, and at most two tasks per
    # thread of finished partials or windows wait for the fold.
    task(2)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    peaks = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        if call == "simulate":
            peaks.append(traced_peak(lambda: simulate(model.with_shift(-3.0), cfg, histograms=True)))
        else:
            peaks.append(traced_peak(lambda: calibrate_shift(model, 0.25, cfg)))
    assert peaks[1] - peaks[0] < per_thread(_BLOCK)


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
def test_simulate_and_calibrate_fail_on_non_finite_g(model):
    cfg = SimulationConfig(sample_count=3_000, master_seed=0)
    # the error names the block, without a raw numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite in block 0 \(stream positions 0 to 2999\)"):
            simulate(model, cfg)
        with pytest.raises(ValueError, match="not finite in block 0"):
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
    g = block_g(model, SimulationConfig(1_000, 7), _LANE_MAIN, 0)
    assert not np.signbit(g).any()


def test_non_finite_g_names_the_first_chunk_that_has_it(monkeypatch, task):
    # blocks 2 and 4 hold a non-finite g, found by g_chunks as by simulate
    task(1)
    poison(monkeypatch, _LANE_MAIN, {2: math.inf, 4: math.nan})
    cfg = SimulationConfig(sample_count=6 * _BLOCK + 100, master_seed=3)
    assert [i for i, g in enumerate(g_chunks(failure_heavy_model(), cfg)) if not np.isfinite(g).all()] == [2, 4]
    with pytest.raises(ValueError, match=positions(2)):
        simulate(failure_heavy_model(), cfg)


@pytest.mark.parametrize("lane", [_LANE_MAIN, _LANE_CALIBRATION], ids=["simulate", "calibrate_shift"])
def test_non_finite_g_after_finite_chunks_names_its_chunk(monkeypatch, task, lane):
    # finite blocks come first, in tasks of two; the error must still name
    # the first non-finite block of the lane and its stream positions
    task(2)
    poison(monkeypatch, lane, {3: -math.inf, 5: math.nan})
    cfg = SimulationConfig(sample_count=5 * _BLOCK + 500, master_seed=4)
    with pytest.raises(ValueError, match=positions(3)):
        if lane == _LANE_MAIN:
            simulate(failure_heavy_model(), cfg, histograms=True)
        else:
            calibrate_shift(failure_heavy_model(), 0.25, cfg)


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


@pytest.mark.parametrize("lane", [_LANE_MAIN, _LANE_CALIBRATION], ids=["simulate", "calibrate_shift"])
def test_the_lowest_failing_chunk_is_named_whichever_fails_first(monkeypatch, task, lane):
    # The first bad block waits until a later bad block has raised on
    # another thread; the error must still name the first. Blocks 2 and 4
    # are in flight together on three threads, and block 0, the
    # calibration pilot, is finite.
    task(1)
    first, second = 2, 4
    poison(monkeypatch, lane, {first: math.nan, second: math.inf})
    cfg = SimulationConfig(sample_count=8 * _BLOCK, master_seed=1)
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
        if lane == _LANE_MAIN:
            simulate(failure_heavy_model(), cfg)
        else:
            calibrate_shift(failure_heavy_model(), 0.25, cfg)
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
        drawn.append(args[3])
        if args[3]:
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
    with pytest.raises(ValueError, match="not finite"):
        calibrate_shift(overflowing_model(), 0.1, cfg)
    assert threading.active_count() == start
