"""Mergeable histograms: exact counts, whatever the chunk layout.

The references here bin a whole array at once, with the key maps written
out from their definition: floor(x / W) for g and (int64 bits) >> s for
the deficits, at the smallest width the range allows, found by counting
up from the finest width.
"""

import dataclasses
import math

import numpy as np
import pytest

from sevrel import histogram
from sevrel.distributions import Normal
from sevrel.engine import (
    LimitStateModel,
    SimulationConfig,
    Term,
    g_chunks,
    simulate,
)
from sevrel.histogram import HISTOGRAM_BINS
from sevrel.scenarios import SCENARIO_IDS, builtin, run


def reference_g_shift(lo, hi):
    # the finest width no narrower than the float spacing at max |x|
    p = max(-1074, math.frexp(max(abs(lo), abs(hi)))[1] - 53)
    while math.floor(hi / 2.0**p) - math.floor(lo / 2.0**p) >= HISTOGRAM_BINS:
        p += 1
    return p


def reference_deficit_shift(lo_bits, hi_bits):
    s = 0
    while (hi_bits >> s) - (lo_bits >> s) >= HISTOGRAM_BINS:
        s += 1
    return s


def fold_zero_width_bin(counts, inner_edges, hi):
    """The histogram joins a last bin of zero width to the one before it."""
    if inner_edges.size and inner_edges[-1] == hi:
        return np.append(counts[:-2], counts[-2] + counts[-1])
    return counts


def reference_g_counts(g):
    p = reference_g_shift(float(g.min()), float(g.max()))
    keys = np.floor(g / 2.0**p).astype(np.int64)
    first = int(keys.min())
    counts = np.bincount(keys - first)
    inner = np.arange(first + 1, first + counts.size) * 2.0**p
    return fold_zero_width_bin(counts, inner, g.max())


def reference_deficit_counts(d):
    bits = d.view(np.int64)
    s = reference_deficit_shift(int(bits.min()), int(bits.max()))
    keys = bits >> s
    first = int(keys.min())
    counts = np.bincount(keys - first)
    inner = (np.arange(first + 1, first + counts.size, dtype=np.int64) << s).view(np.float64)
    return fold_zero_width_bin(counts, inner, d.max())


def linear_of(values):
    return histogram.linear(values, float(values.min()), float(values.max()))


def assert_same(a: histogram.Histogram, b: histogram.Histogram):
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.counts, b.counts)


def merged_pieces(binner, values, cuts):
    parts = [binner(piece) for piece in np.split(values, cuts)]
    out = None
    for part in parts:
        out = histogram.merge(out, part)
    return out, parts


# --- the key maps on awkward inputs --------------------------------------------


def test_g_near_1e15_spread_of_a_few_ulps():
    for sign in (1.0, -1.0):
        # the spacing of doubles at 1e15 is 0.125
        g = sign * (1e15 + 0.125 * np.array([0, 3, 1, 4, 4, 2, 0]))
        bins = linear_of(g)
        # keys must stay far inside int64: no finer than the float spacing
        assert abs(histogram._Linear.key(float(g.max()), bins.shift)) < 2**53
        h = bins.histogram()
        assert h.edges[0] == g.min() and h.edges[-1] == g.max()
        assert np.all(np.diff(h.edges) > 0)
        assert np.array_equal(h.counts, reference_g_counts(g))
        assert h.counts.sum() == g.size
        assert np.all(h.counts > 0)  # one bin per distinct double


def test_negative_value_whose_quotient_underflows():
    # -5e-324 / 8 rounds to -0.0, whose floor would put it in bin 0
    g = np.array([-5e-324, 3.0, 1000.0])
    whole = linear_of(g)
    assert whole.shift == 3
    split = histogram.merge(linear_of(g[:1]), linear_of(g[1:]))
    assert_same(split.histogram(), whole.histogram())
    h = whole.histogram()
    assert h.edges[0] == -5e-324 and h.edges[1] == 0.0
    assert h.counts[0] == 1 and h.counts.sum() == 3


def test_g_spanning_the_whole_double_range():
    g = np.array([-1.7e308, -1.0, 0.0, 3.0, 1.7e308])
    h = linear_of(g).histogram()
    assert h.counts.sum() == g.size
    assert h.edges[0] == g.min() and h.edges[-1] == g.max()
    assert np.all(np.isfinite(h.edges))
    assert np.array_equal(h.counts, reference_g_counts(g))


def test_all_equal_values_make_one_padded_bin():
    h = linear_of(np.full(7, 2.0)).histogram()
    assert np.array_equal(h.edges, [1.5, 2.5])
    assert np.array_equal(h.counts, [7])
    d = histogram.log_linear(np.full(3, 0.25)).histogram()
    assert np.array_equal(d.edges, [0.125, 0.375])
    assert np.array_equal(d.counts, [3])


def test_all_equal_g_run():
    # a zero coefficient leaves g equal to the shift everywhere
    model = LimitStateModel(terms=(Term("x", 0.0, Normal(0.0, 1.0)),), shift=-2.0)
    summary = simulate(model, SimulationConfig(5_000, 1, 1_500), histograms=True)
    assert np.array_equal(summary.g_histogram.edges, [-2.5, -1.5])
    assert np.array_equal(summary.g_histogram.counts, [5_000])
    assert np.array_equal(summary.deficit_histogram.edges, [1.0, 3.0])
    assert np.array_equal(summary.deficit_histogram.counts, [5_000])


def test_single_sample_run():
    model = LimitStateModel(terms=(Term("margin", 1.0, Normal(-5.0, 1.0)),))
    summary = simulate(model, SimulationConfig(1, 0, 10), histograms=True)
    g = summary.min_g
    assert g < 0.0
    assert np.array_equal(summary.g_histogram.edges, [g - 0.5, g + 0.5])
    assert np.array_equal(summary.g_histogram.counts, [1])
    assert np.array_equal(summary.deficit_histogram.edges, [-0.5 * g, -1.5 * g])
    assert np.array_equal(summary.deficit_histogram.counts, [1])


def test_one_failure_run():
    model = LimitStateModel(terms=(Term("margin", 1.0, Normal(3.5, 1.0)),))
    summary = simulate(model, SimulationConfig(5_000, 1, 2_000), histograms=True)
    assert summary.failure_count == 1
    d = summary.deficit_min
    assert np.array_equal(summary.deficit_histogram.edges, [0.5 * d, 1.5 * d])
    assert np.array_equal(summary.deficit_histogram.counts, [1])
    assert summary.g_histogram.counts.sum() == 5_000


def test_deficits_spanning_more_than_60_octaves():
    rng = np.random.default_rng(3)
    d = np.concatenate((2.0 ** np.arange(-30, 36), np.exp(rng.uniform(-20.0, 24.0, 5_000))))
    h = histogram.log_linear(d).histogram()
    assert h.counts.size <= HISTOGRAM_BINS
    assert h.counts.sum() == d.size
    assert h.edges[0] == d.min() and h.edges[-1] == d.max()
    assert np.all(np.diff(h.edges) > 0)
    assert np.array_equal(h.counts, reference_deficit_counts(d))
    # 66 octaves need half-octave bins: every octave boundary is an edge
    assert set(2.0 ** np.arange(-29, 35)) <= set(h.edges)


def test_adjacent_doubles_and_a_top_value_on_an_edge():
    # two neighbouring doubles: the larger one sits on the only inner
    # edge, so its zero-width bin joins the first
    x = np.array([1.0, np.nextafter(1.0, 2.0)])
    h = histogram.log_linear(x).histogram()
    assert np.array_equal(h.edges, x)
    assert np.array_equal(h.counts, [2])
    g = np.array([0.0, 0.5, 1.0])  # 1.0 is a multiple of every coarse width
    hg = linear_of(g).histogram()
    assert hg.edges[-1] == 1.0 and hg.edges[-2] < 1.0
    assert hg.counts.sum() == 3 and hg.counts[-1] == 1


@pytest.mark.parametrize("seed", range(5))
def test_random_split_merged_in_order_equals_one_shot(seed):
    rng = np.random.default_rng(seed)
    n = 4_000
    # heavy on both sides, with a cluster that needs the finest widths
    g = rng.standard_cauchy(n) * 10.0 ** rng.integers(-3, 4)
    g[: n // 4] = 1e6 + rng.normal(0.0, 1e-7, n // 4)
    d = -g[g < 0.0]
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 40)), replace=False))
    whole = linear_of(g)
    merged, parts = merged_pieces(linear_of, g, cuts)
    assert merged.shift == whole.shift
    assert np.array_equal(merged.counts, whole.counts)
    assert_same(merged.histogram(), whole.histogram())
    assert np.array_equal(whole.histogram().counts, reference_g_counts(g))
    # the merge order does not matter either
    backwards = None
    for part in reversed(parts):
        backwards = histogram.merge(part, backwards)
    assert_same(backwards.histogram(), whole.histogram())

    d_cuts = cuts[cuts < d.size]
    d_whole = histogram.log_linear(d)
    d_merged, _ = merged_pieces(histogram.log_linear, d, d_cuts)
    assert_same(d_merged.histogram(), d_whole.histogram())
    assert np.array_equal(d_whole.histogram().counts, reference_deficit_counts(d))


# --- in the simulation ----------------------------------------------------------

N, CHUNK = 30_001, 7_000  # the chunk size does not divide n


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_in_pass_histograms_are_exact_and_layout_free(sid):
    scenario = dataclasses.replace(builtin(sid), chunk_size=CHUNK)
    result = run(scenario, sample_count=N, histograms=True)
    summary = result.summary
    g = np.concatenate(list(g_chunks(result.model, result.config)))
    d = -g[g < 0.0]

    gh, dh = summary.g_histogram, summary.deficit_histogram
    assert gh.counts.sum() == N
    assert np.array_equal(gh.counts, reference_g_counts(g))
    assert (gh.edges[0], gh.edges[-1]) == (summary.min_g, summary.max_g)
    assert dh.counts.sum() == summary.failure_count == d.size
    assert np.array_equal(dh.counts, reference_deficit_counts(d))
    assert (dh.edges[0], dh.edges[-1]) == (summary.deficit_min, summary.deficit_max)

    unbinned = simulate(result.model, result.config)
    assert unbinned.g_histogram is None and unbinned.deficit_histogram is None
    assert result.g_histogram is gh and result.deficit_histogram is dh

