"""Bit-identity of the sampling kernel against the straightforward algorithms.

The samplers and the block kernel work in place: the engine draws the
Normal terms as one Normal straight into the block of g and each other
term as one batch from its own substream through one reused block of
scratch, and a Mixture evaluates its heaviest branch over the batch
before the other branches overwrite their positions. The references
below are the direct forms those replace: one expression per quantile,
one whole-batch draw, a searchsorted branch index with a mask and gather
per component, g = mean + sd * z for the merged Normal and then
``g += c * sample`` per other term, with slot j an SFC64 seeded by
SeedSequence(seed, spawn_key=(0, block, j)), and each block's
statistics computed from its values. The reproducibility contract is
about bits, so every comparison is exact.
Run lengths on both sides of a block edge check that block i reads its
own key, whatever came before it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from sevrel import histogram
from sevrel.distributions import Gumbel, Lognormal, Mixture, Normal, Pareto
from sevrel.engine import (
    _BLOCK,
    LimitStateModel,
    SimulationConfig,
    Term,
    _Partial,
    _summarize_block,
    g_chunks,
    simulate,
)
from sevrel.scenarios import SCENARIO_IDS, builtin

_TINY = float(np.finfo(float).tiny)
SIZES = [1, 13, 1_000_000]
# one short of a block, one block, one past it, and a ragged fourth block
EDGES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def reference_quantile(d, q):
    if isinstance(d, Normal):
        return d.mean + d.stddev * ndtri(q)
    if isinstance(d, Lognormal):
        return np.exp(d.log_mean + d.log_std * ndtri(q))
    if isinstance(d, Gumbel):
        return d.location - d.scale * np.log(-np.log(q))
    if isinstance(d, Pareto):
        return d.x_min * np.power(1.0 - q, -1.0 / d.alpha)
    raise TypeError(d)


def reference_sample(d, rng, n):
    if isinstance(d, Normal):
        return rng.normal(d.mean, d.stddev, n)
    if isinstance(d, Lognormal):
        return np.exp(rng.normal(d.log_mean, d.log_std, n))
    if isinstance(d, Gumbel):
        u = np.maximum(rng.random(n), _TINY)
        return d.location - d.scale * np.log(-np.log(u))
    if isinstance(d, Pareto):
        u = np.maximum(rng.random(n), _TINY)
        return d.x_min * np.power(u, -1.0 / d.alpha)
    # Mixture: branch index by searchsorted, one mask and gather per component
    u_branch = rng.random(n)
    u_value = np.maximum(rng.random(n), _TINY)
    cuts = np.cumsum([w for w, _ in d.components])[:-1]
    idx = np.searchsorted(cuts, u_branch, side="right")
    out = np.empty(n)
    for k, (_, component) in enumerate(d.components):
        sel = idx == k
        if sel.any():
            out[sel] = component.quantile(u_value[sel])
    return out


def slot(master_seed, idx, j):
    # the generator of term j in block idx
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(master_seed, spawn_key=(0, idx, j))))


def run_g(model, master_seed, n):
    # the g of a run of n values, block by block
    return np.concatenate(list(g_chunks(model, SimulationConfig(n, master_seed))))


def reference_block_g(model, master_seed, idx, size):
    def rng(j):
        return slot(master_seed, idx, j)

    # the Normal terms as one Normal with the shift folded in, from the
    # slot of the first of them; a constant when its sd is 0
    normals = [(j, t) for j, t in enumerate(model.terms) if isinstance(t.distribution, Normal)]
    mean = model.shift
    for _, t in normals:
        mean += t.coefficient * t.distribution.mean
    sd = math.hypot(*(t.coefficient * t.distribution.stddev for _, t in normals))
    g = mean + sd * rng(normals[0][0]).standard_normal(size) if sd > 0 else np.full(size, mean)
    for j, t in enumerate(model.terms):
        if not isinstance(t.distribution, Normal):
            g += t.coefficient * reference_sample(t.distribution, rng(j), size)
    return g


FAMILIES = [Normal(10.0, 1.5), Lognormal(2.3, 0.2), Gumbel(8.0, 1.2), Pareto(10.0, 1.5)]

# the heaviest branch in the middle, last, and tied with another
FOUR_WAY = Mixture(
    (
        (0.15, Normal(5.0, 2.0)),
        (0.2, Lognormal(1.0, 0.5)),
        (0.5, Pareto(10.0, 2.5)),
        (0.15, Gumbel(6.0, 0.6)),
    )
)
HEAVY_LAST = Mixture(((0.3, Gumbel(2.0, 0.6)), (0.7, Normal(0.0, 1.0))))
TIED = Mixture(((0.4, Normal(0.0, 1.0)), (0.4, Gumbel(2.0, 0.6)), (0.2, Pareto(1.0, 3.0))))
# the first branch counts as the heaviest, so half the draws are overwritten
HALF = Mixture(((0.5, Normal(0.0, 1.0)), (0.5, Gumbel(2.0, 0.6))))


def _builtin_distributions():
    seen = []
    for sid in SCENARIO_IDS:
        for term in builtin(sid).model.terms:
            if not any(term.distribution == s for s in seen):
                seen.append(term.distribution)
    return seen


DISTRIBUTIONS = FAMILIES + [FOUR_WAY, HEAVY_LAST, TIED] + _builtin_distributions() + [HALF]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
def test_sample_matches_reference_bits(dist, n):
    seed = 1000 + n
    got = dist.sample(np.random.default_rng(seed), n)
    want = reference_sample(dist, np.random.default_rng(seed), n)
    assert got.shape == (n,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", EDGES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
def test_blocked_draws_match_reference_bits(dist, n):
    # g = X over a run of n values: block i is one batch of X drawn from
    # slot 0 of block i, whatever the blocks before it drew
    seed = 1000 + n
    model = LimitStateModel(terms=(Term("x", 1.0, dist),))
    want = [
        reference_sample(dist, slot(seed, i, 0), size)
        for i, size in enumerate(np.diff([*range(0, n, _BLOCK), n]))
    ]
    assert np.array_equal(run_g(model, seed, n), np.concatenate(want))


def test_four_way_mixture_draws_every_branch():
    # the bit test above only means something if every branch is hit
    u_branch = np.random.default_rng(1000 + 13).random(13)
    cuts = np.cumsum([w for w, _ in FOUR_WAY.components])[:-1]
    assert set(np.searchsorted(cuts, u_branch, side="right")) == {0, 1, 2, 3}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
def test_quantile_matches_reference_bits(dist, n):
    p = np.maximum(np.random.default_rng(n).random(n), _TINY)
    before = p.copy()
    assert np.array_equal(dist.quantile(p), reference_quantile(dist, p))
    assert np.array_equal(p, before)  # the caller's array is not overwritten
    assert dist.quantile(0.25) == float(reference_quantile(dist, 0.25))


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
def test_quantile_rejects_the_closed_ends(dist):
    for bad in (0.0, 1.0, [0.5, 1.0], np.array([0.0, 0.5])):
        with pytest.raises(ValueError, match="strictly inside"):
            dist.quantile(bad)


# every branch of FOUR_WAY, and half the draws from the minority of HALF
MIXTURES = LimitStateModel(
    terms=(
        Term("four", 1.0, FOUR_WAY),
        Term("half", -2.0, HALF),
        Term("normal", 0.5, Normal(1.0, 1.0)),
    ),
    shift=-3.0,
)


# three Normal terms of mixed sign merged around a Gumbel, from the slot
# of the first of them, 1
NORMALS = LimitStateModel(
    terms=(
        Term("load", -0.8, Gumbel(4.0, 1.1)),
        Term("a", 1.0, Normal(10.0, 1.0)),
        Term("b", -1.0, Normal(3.0, 1.5)),
        Term("c", 2.0, Normal(-1.0, 0.5)),
    ),
    shift=0.5,
)
# a Normal with coefficient 0 merges to sd 0 and draws as a constant
ZERO_NORMAL = LimitStateModel(terms=(Term("x", 0.0, Normal(1.0, 1.0)), Term("load", -0.8, Gumbel(4.0, 1.1))), shift=0.5)
MODELS = {"mixtures": MIXTURES, "normals": NORMALS, "zero-normal": ZERO_NORMAL}


def block_model(sid):
    return MODELS[sid] if sid in MODELS else builtin(sid).model.with_shift(0.25)


def reference_block_partial(g):
    # one block's statistics, each from the block's values directly
    lo, hi = float(g.min()), float(g.max())
    mean = float(g.mean())
    part = _Partial(
        n=g.size,
        mean=mean,
        m2=float(np.square(g - mean).sum()),
        min_g=lo,
        max_g=hi,
        g_bins=histogram.linear(g, lo, hi),
    )
    deficits = -g[g < 0.0]
    k = deficits.size
    if k:
        part.failure_count = k
        part.deficit_sum = float(deficits.sum())
        part.deficit_m2 = float(np.square(deficits - float(deficits.sum()) / k).sum())
        part.deficit_min = float(deficits.min())
        part.deficit_bins = histogram.log_linear(deficits, float(deficits.min()), float(deficits.max()))
    return part


def assert_same_partial(got, want):
    for name in ("n", "mean", "m2", "min_g", "max_g", "failure_count", "deficit_sum", "deficit_m2", "deficit_min"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("g_bins", "deficit_bins"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.lo, a.hi, a.shift) == (b.lo, b.hi, b.shift), name
            assert np.array_equal(a.counts, b.counts), name


@pytest.mark.parametrize("n", SIZES + EDGES)
@pytest.mark.parametrize("sid", [*SCENARIO_IDS, *MODELS])
def test_chunk_g_and_chunk_summary_match_reference_bits(sid, n):
    model = block_model(sid)
    blocks = [reference_block_g(model, 7, i, min(_BLOCK, n - start)) for i, start in enumerate(range(0, n, _BLOCK))]
    assert np.array_equal(run_g(model, 7, n), np.concatenate(blocks))

    # each block reduces to its own statistics, and the run's are their fold
    # in block order
    want = _Partial()
    for i, block in enumerate(blocks):
        ref = reference_block_partial(block)
        assert_same_partial(_summarize_block(block.copy(), i, histograms=True), ref)
        want.fold(ref)
    cfg = SimulationConfig(n, 7)
    got, want = simulate(model, cfg, histograms=True), want.summary()
    for name, value in vars(want).items():
        mine = getattr(got, name)
        if name.endswith("histogram") and value is not None:
            assert np.array_equal(mine.edges, value.edges) and np.array_equal(mine.counts, value.counts), name
        elif name != "failure_deficits":
            assert mine == value or (math.isnan(value) and math.isnan(mine)), name  # var_g is NaN at n = 1


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_every_block_of_a_builtin_reads_its_own_key(sid):
    # Block i of a run is drawn from the keys (seed; 0, i, j) alone: term j
    # is one batch of Distribution.sample from its own SFC64, with the
    # Normal terms merged into one Normal drawn from the slot of the first
    # of them.
    model, seed, n = builtin(sid).model, 5, 3 * _BLOCK + 7
    got = run_g(model, seed, n)
    normals = [j for j, t in enumerate(model.terms) if isinstance(t.distribution, Normal)]
    mean = model.shift
    for j in normals:
        mean += model.terms[j].coefficient * model.terms[j].distribution.mean
    sd = math.hypot(*(model.terms[j].coefficient * model.terms[j].distribution.stddev for j in normals))
    for i, start in enumerate(range(0, n, _BLOCK)):
        size = min(_BLOCK, n - start)
        slots = [slot(seed, i, j) for j in range(len(model.terms))]
        want = Normal(mean, sd).sample(slots[normals[0]], size) if sd > 0.0 else np.full(size, mean)
        for j, t in enumerate(model.terms):
            if j not in normals:
                want += t.coefficient * t.distribution.sample(slots[j], size)
        assert np.array_equal(got[start : start + size], want), i


def test_adding_a_term_leaves_the_other_terms_draws_unchanged():
    # A term's draws come from its own substream, so they do not depend on
    # how many values the other terms consume. Zero coefficients pick out
    # one term's contribution to g, exactly. (The Normal terms draw as one
    # Normal, so a Normal term added changes the draws of the others.)
    n = 3 * _BLOCK + 7

    def g(model):
        return run_g(model, 7, n)

    two = LimitStateModel(terms=(Term("a", 1.0, Normal(1.0, 2.0)), Term("b", -0.5, Gumbel(8.0, 1.2))), shift=0.25)
    zeroed = tuple(replace(t, coefficient=0.0) for t in two.terms)
    only_b = replace(two, terms=(zeroed[0], two.terms[1]), shift=0.0)
    for dist in (FOUR_WAY, HALF, Pareto(10.0, 1.5)):
        # appended: g gains the new term's draws and nothing else
        c = Term("c", 2.0, dist)
        only_c = replace(two, terms=(*zeroed, c), shift=0.0)
        assert np.array_equal(g(replace(two, terms=(*two.terms, c))), g(two) + g(only_c))
        # in front of another term, a family that consumes another number of
        # values leaves that term's draws as they were
        assert np.array_equal(g(replace(only_b, terms=(Term("a", 0.0, dist), two.terms[1]))), g(only_b))
