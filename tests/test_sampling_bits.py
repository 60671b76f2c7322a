"""Bit-identity of the sampling kernel against the straightforward algorithms.

The samplers and the chunk kernel work in place, and a Mixture evaluates
its heaviest branch over the whole batch before the other branches
overwrite their positions. The references below are the direct forms
those replace: one expression per quantile, a searchsorted branch index
with a mask and gather per component, and ``g += c * sample``. The
reproducibility contract is about bits, so every comparison is
``np.array_equal``.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from sevrel.distributions import Gumbel, Lognormal, Mixture, Normal, Pareto
from sevrel.engine import (
    _LANE_MAIN,
    SimulationConfig,
    _chunk_g,
    _lane_rng,
    _summarize_chunk,
)
from sevrel.scenarios import SCENARIO_IDS, builtin

_TINY = float(np.finfo(float).tiny)
SIZES = [1, 13, 1_000_000]


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


def reference_chunk_g(model, master_seed, lane, idx, size):
    rng = _lane_rng(master_seed, lane, idx)
    g = np.full(size, model.shift)
    for t in model.terms:
        g += t.coefficient * reference_sample(t.distribution, rng, size)
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


def _builtin_distributions():
    seen = []
    for sid in SCENARIO_IDS:
        for term in builtin(sid).model.terms:
            if not any(term.distribution == s for s in seen):
                seen.append(term.distribution)
    return seen


DISTRIBUTIONS = FAMILIES + [FOUR_WAY, HEAVY_LAST, TIED] + _builtin_distributions()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
def test_sample_matches_reference_bits(dist, n):
    seed = 1000 + n
    got = dist.sample(np.random.default_rng(seed), n)
    want = reference_sample(dist, np.random.default_rng(seed), n)
    assert got.shape == (n,)
    assert np.array_equal(got, want)


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


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_chunk_g_and_chunk_summary_match_reference_bits(sid, n):
    model = builtin(sid).model.with_shift(0.25)
    g = reference_chunk_g(model, 7, _LANE_MAIN, 2, n)
    assert np.array_equal(_chunk_g(model, 7, _LANE_MAIN, 2, n), g)

    config = SimulationConfig(sample_count=3 * n, master_seed=7, chunk_size=n)
    part = _summarize_chunk(model, config, 2, n)
    mean = float(g.mean())
    assert part.mean == mean
    assert part.m2 == float(np.square(g - mean).sum())
    deficits = -g[g < 0.0]
    k = deficits.size
    assert part.failure_count == k
    assert part.deficit_sum == float(deficits.sum())
    if k:
        assert part.deficit_m2 == float(np.square(deficits - float(deficits.sum()) / k).sum())
        assert part.deficit_min == float(deficits.min())
