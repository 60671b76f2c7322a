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
from scipy.special import expit, ndtr

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
    _LANE_CALIBRATION,
    _LANE_MAIN,
    _block,
    _draw_block,
    _finite_extrema,
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
    return _block(_plan(model), config.master_seed, lane, config.sample_count, idx)


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


def two_term_model():
    # two terms of one spread: conditioning on either leaves about a third
    # of the crude variance at p_f 0.5, so calibrate_shift sums ~n / 3
    # values of r and draws blocks past block 0
    return LimitStateModel(terms=(Term("x", 1.0, Gumbel(0.0, 1.0)), Term("y", -1.0, Gumbel(0.0, 1.0))))


def pareto_model():
    # the pilot conditions on the Pareto term at p_f 0.1
    return LimitStateModel(
        terms=(
            Term("r", 1.0, Normal(5.0, 1.0)),
            Term("s", -1.0, Pareto(1.0, 2.5)),
            Term("t", -1.0, Gumbel(1.0, 0.5)),
        )
    )


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
def test_calibrate_shift_is_exact_on_block_0_when_r_is_constant(monkeypatch, model, expected, bits):
    # One candidate: its r is constant, so the pilot's v is 0 and m is
    # block 0 alone, whose mean is exact.
    drawn = []
    monkeypatch.setattr(engine, "_draw_block", lambda *args: drawn.append(args[3]) or _draw_block(*args))
    cfg = SimulationConfig(sample_count=1_000_000, master_seed=5)
    shift = calibrate_shift(model, 0.05, cfg)
    # rounded to 32 significant bits
    assert shift == pytest.approx(expected, rel=1e-9)
    assert shift.hex() == bits
    assert set(drawn) == {0}


def sixteen_gumbels():
    # sixteen terms of one spread: conditioning on any one of them leaves
    # most of the crude variance, so the pass reads past block 0 at every
    # target but the rarest
    return LimitStateModel(terms=tuple(Term(f"x{i}", (-1.0) ** i, Gumbel(0.0, 1.0)) for i in range(16)))


def held_rest(cand, seed, m):
    # the calibration lane's first m values of r, in memory at once
    return np.concatenate([_block(cand.rest, seed, _LANE_CALIBRATION, m, i) for i in range(-(-m // _BLOCK))])


def pilot(model, target_pf, config):
    # calibrate_shift's pilot, started from minus the ceil(p * size)-th
    # smallest value of block 0 of g, with the block's range as the step
    plan, n, seed = _plan(model.with_shift(0.0)), config.sample_count, config.master_seed
    g = _block(plan, seed, _LANE_CALIBRATION, n, 0)
    start = -float(np.sort(g)[max(1, math.ceil(target_pf * g.size)) - 1])
    return engine._pilot(engine._candidates(plan), target_pf, n, seed, start, float(g.max() - g.min()))


def calibration_reference(model, target_pf, config):
    # the m values of r that the pilot asks for, in memory at once; their
    # sums at c0 folded block by block in block order, one Newton step,
    # and the shift rounded to 32 significant bits
    cand, c0, m, _ = pilot(model, target_pf, config)
    seed = config.master_seed
    r = held_rest(cand, seed, m)
    assert r.size == m
    acc = np.zeros(3)
    for i in range(0, m, _BLOCK):
        acc += cand.sums(r[i : i + _BLOCK], c0)
    mean, slope, _ = acc / m
    mantissa, exponent = math.frexp(c0 + (mean - target_pf) / slope)
    return math.ldexp(round(mantissa * 2**32), exponent - 32)


@pytest.mark.parametrize(
    "target_pf, n",
    [
        (0.05, 100_000),  # m = n, a ragged second block
        (0.5, 100_000),  # m = n
        (0.3, 90_000),  # m = n, a ragged second block of another size
        (0.0001, 100_000),  # ten expected failures: m is block 0 alone
    ],
)
def test_calibrate_shift_streams_to_the_same_bits(monkeypatch, task, target_pf, n):
    # Streamed in tasks of any size on any number of threads, the shift
    # has the bits of the same fold over the whole of r held in memory.
    cfg = SimulationConfig(sample_count=n, master_seed=21)
    model = sixteen_gumbels()
    expected = calibration_reference(model, target_pf, cfg)
    for blocks_a_task, workers in [(16, 1), (1, 1), (1, 2)]:
        task(blocks_a_task)
        pin_workers(monkeypatch, workers)
        assert calibrate_shift(model, target_pf, cfg) == expected


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


def conditional(cand, r, c):
    # the means over r of P(a X < -(r + c)) and of its density
    x = -(r + c) / cand.a
    laws = scipy_law(cand.x)
    tail = sum(w * (law.cdf(x) if cand.a > 0.0 else law.sf(x)) for w, law in laws)
    density = sum(w * law.pdf(x) for w, law in laws) / abs(cand.a)
    return tail.mean(), density.mean()


def sample_root(model, target_pf, config):
    # The exact root of the mean conditional p_f over the m values of r
    # that the pilot asks for, held here in memory, the standard error of
    # the n-value order statistic carried to the shift there, and m.
    cand, _, m, _ = pilot(model, target_pf, config)
    r = held_rest(cand, config.master_seed, m)
    root = brentq(lambda c: conditional(cand, r, c)[0] - target_pf, -50.0, 50.0, xtol=1e-15)
    se = math.sqrt(target_pf * (1.0 - target_pf) / config.sample_count) / conditional(cand, r, root)[1]
    return root, se, m


@pytest.mark.parametrize(
    "model, target_pf",
    [(two_term_model(), 0.5), (sixteen_gumbels(), 0.5), (pareto_model(), 0.1)],
    ids=["two-gumbels", "sixteen-gumbels", "pareto"],
)
def test_calibrate_shift_is_one_newton_step_from_the_sample_root(monkeypatch, task, model, target_pf):
    # The shift is within 0.05 standard errors of the sample root, whatever
    # the task size or the thread count.
    cfg = SimulationConfig(sample_count=4 * _BLOCK, master_seed=11)
    root, se, m = sample_root(model, target_pf, cfg)
    assert m > _BLOCK  # the pass reads past block 0
    shifts = set()
    for blocks_a_task, workers in [(16, 1), (1, 2), (1, 3)]:
        task(blocks_a_task)
        pin_workers(monkeypatch, workers)
        shifts.add(calibrate_shift(model, target_pf, cfg))
    assert len(shifts) == 1
    assert abs(shifts.pop() - root) < 0.05 * se


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
    # Conditioned on the other term, the failure probability is integrated
    # over the Lognormal or merged Normal by quadrature: the shift is the
    # exact root, the same for every seed, and only block 0 of g is drawn.
    expected = quadrature_root(model, target_pf)
    drawn = []
    monkeypatch.setattr(engine, "_draw_block", lambda *args: drawn.append(args[3]) or _draw_block(*args))
    shifts = {calibrate_shift(model, target_pf, SimulationConfig(1_000_000, seed)) for seed in range(1, 6)}
    assert drawn == [0] * 5
    assert len(shifts) == 1
    # rounded to 32 significant bits
    assert shifts.pop() == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "capacity, demand, target_pf",
    [
        (Lognormal(1.6, 1.5), Gumbel(2.0, 0.001), 0.25),
        (Normal(10.0, 3.0), Gumbel(2.0, 0.05), 0.5),
        (Lognormal(3.7, 0.6), Lognormal(0.7, 0.15), 0.5),
        (Lognormal(2.0, 1.0), Gumbel(3.0, 0.1), 0.5),
        (Normal(10.0, 0.5), Gumbel(3.0, 0.002), 0.5),
    ],
    ids=[
        "narrow-gumbel",
        "normal-gumbel-median",
        "two-lognormals-median",
        "lognormal-gumbel-median",
        "sharp-step-median",
    ],
)
def test_calibrate_shift_falls_back_on_monte_carlo_where_quadrature_misses(monkeypatch, capacity, demand, target_pf):
    # Given the wide capacity, the narrow demand fails in a step that the
    # grid does not resolve, so the root fails its check: the pilot draws
    # block 0 of r for each candidate after that of g, and the shift is
    # one Newton step from the sample root. Conditioned on the capacity,
    # r hardly varies, so m is one block. At p_f 0.5 the step lies at the
    # median of the capacity, z = 0, where a pair of rules symmetric about
    # 0 both read 0.5 and pass a root that misses. The sharp step, under a
    # tenth of the grid's step wide, would sit on a node at z = 0 and read
    # the same on both rules there.
    model = LimitStateModel(terms=(Term("capacity", 1.0, capacity), Term("demand", -1.0, demand)))
    cfg = SimulationConfig(sample_count=4 * _BLOCK, master_seed=11)
    drawn = []
    monkeypatch.setattr(engine, "_draw_block", lambda *args: drawn.append(args[3]) or _draw_block(*args))
    shift = calibrate_shift(model, target_pf, cfg)
    assert len(drawn) == 3
    root, se, _ = sample_root(model, target_pf, cfg)
    assert abs(shift - root) < 0.05 * se


def narrow_gumbel_model():
    # the [narrow-gumbel] case above
    return LimitStateModel(terms=(Term("capacity", 1.0, Lognormal(1.6, 1.5)), Term("demand", -1.0, Gumbel(2.0, 0.001))))


@pytest.mark.parametrize(
    "model, target_pf, bits",
    [
        (two_term_model(), 0.5, "-0x1.352c65ec00000p-9"),
        (sixteen_gumbels(), 0.5, "0x1.0105a13800000p-6"),
        (pareto_model(), 0.1, "-0x1.11e18dca00000p-2"),
        (narrow_gumbel_model(), 0.25, "0x1.9908d2e600000p-3"),
    ],
    ids=["two-gumbels", "sixteen-gumbels", "pareto", "narrow-gumbel"],
)
def test_calibrate_shift_keeps_its_monte_carlo_bits(model, target_pf, bits):
    # Literal pins of the fallback's shifts, the same on numpy's AVX-512
    # and AVX2 paths: the tests above compare against references built
    # from the engine's own parts, which move with them.
    cfg = SimulationConfig(sample_count=4 * _BLOCK, master_seed=11)
    assert calibrate_shift(model, target_pf, cfg).hex() == bits


def test_calibrated_two_gumbels_is_as_precise_as_the_order_statistic():
    # Seeds 1-100 at p_f 0.25 and 1M samples. X - Y of two iid Gumbels is
    # Logistic(0, 1), so a shift c fails with probability 1 / (1 + e^c)
    # exactly; its SD must be within 1.2 of the n-value order statistic's,
    # sqrt(p (1 - p) / n), and its mean within 0.3 SD of p.
    p, n = 0.25, 1_000_000
    model = two_term_model()
    realised = np.array([expit(-calibrate_shift(model, p, SimulationConfig(n, seed))) for seed in range(1, 101)])
    sd = realised.std(ddof=1)
    assert sd <= 1.2 * math.sqrt(p * (1.0 - p) / n)
    assert abs(realised.mean() - p) <= 0.3 * sd


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
    "model, n, target_pf, blocks_a_task",
    [
        (two_term_model(), 2_000_000, 0.25, 2),
        (two_term_model(), 2_000_000, 0.001, 1),
        (builtin("scenarioA").model, 8_000_000, 0.25, 16),
    ],
    ids=["wide-chunks", "small-pf-small-chunks", "scenarioA-exact"],
)
def test_calibrate_shift_memory_is_bounded(monkeypatch, task, model, n, target_pf, blocks_a_task):
    # On one thread: two blocks of r, the pilot's best and the next
    # candidate's (block 0 of g and its scratch come and go before them),
    # or the pass's block, and the temporaries of a step of the sums, a
    # few _STEP values each. The exact path of scenarioA holds block 0 of
    # g and its scratch, then the grid. Each further thread adds its own
    # blocks (see test_a_thread_adds_its_blocks).
    pin_workers(monkeypatch, 1)
    task(blocks_a_task)
    cfg = SimulationConfig(sample_count=n, master_seed=7)
    peak = traced_peak(lambda: calibrate_shift(model, target_pf, cfg))
    assert peak < 8 * (2 * _BLOCK + 8 * engine._STEP)


def test_calibrate_shift_memory_does_not_grow_with_n(monkeypatch):
    # The pilot holds a few blocks and the pass a few per thread, whatever
    # n, so the peaks differ by under a block.
    pin_workers(monkeypatch, 1)
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


@pytest.mark.parametrize("call", ["simulate", "calibrate_shift"])
def test_a_thread_adds_its_blocks(monkeypatch, task, call):
    # A second thread holds its own blocks, and at most two tasks per
    # thread of finished partials wait for the fold.
    task(2)
    cfg = SimulationConfig(sample_count=2_000_000, master_seed=7)
    model = builtin("scenarioA").model
    peaks = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        if call == "simulate":
            peaks.append(traced_peak(lambda: simulate(model.with_shift(-3.0), cfg, histograms=True)))
        else:
            peaks.append(traced_peak(lambda: calibrate_shift(two_term_model(), 0.25, cfg)))
    assert peaks[1] - peaks[0] < per_thread(_BLOCK)


@pytest.mark.parametrize(
    "call, sizes, expected",
    [
        # one block of g and one of scratch per worker
        ("simulate", (2_000_000, 4_000_000), 2 * 2),
        # the pilot's block 0 of g and its scratch, then block 0 of r for
        # each of the two candidates, on the calling thread; the pass's r,
        # one Gumbel, is drawn straight into g: one block per worker
        ("calibrate_shift", (4_000_000, 8_000_000), 2 + 2 + 2 * 1),
    ],
)
def test_a_pass_allocates_its_blocks_once_on_the_calling_thread(monkeypatch, call, sizes, expected):
    # Two workers and at least two tasks of 16 blocks, whatever n: every
    # allocation of half a block or more is made on the calling thread,
    # and the pass makes one per worker and buffer, not one per task.
    pin_workers(monkeypatch, 2)
    empty, caller, made = np.empty, threading.get_ident(), []

    def spy(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.size >= _BLOCK // 2:
            made.append(threading.get_ident())
        return out

    monkeypatch.setattr(np, "empty", spy)
    for n in sizes:
        made.clear()
        cfg = SimulationConfig(sample_count=n, master_seed=7)
        if call == "simulate":
            simulate(builtin("case-study").model, cfg, histograms=True)
        else:
            calibrate_shift(two_term_model(), 0.5, cfg)
        assert made == [caller] * expected


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
    # (calibrate_shift reads blocks 0-5 of r here, see two_term_model)
    task(2)
    poison(monkeypatch, lane, {3: -math.inf, 5: math.nan})
    cfg = SimulationConfig(sample_count=16 * _BLOCK + 500, master_seed=4)
    with pytest.raises(ValueError, match=positions(3)):
        if lane == _LANE_MAIN:
            simulate(failure_heavy_model(), cfg, histograms=True)
        else:
            calibrate_shift(two_term_model(), 0.5, cfg)


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
    # calibration pilot, is finite (calibrate_shift reads blocks 0-5 of r
    # here, see two_term_model).
    task(1)
    first, second = 2, 4
    poison(monkeypatch, lane, {first: math.nan, second: math.inf})
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
        if lane == _LANE_MAIN:
            simulate(failure_heavy_model(), cfg)
        else:
            calibrate_shift(two_term_model(), 0.5, cfg)
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
