"""Limit state models and the chunked Monte Carlo engine.

A limit state is a linear combination of independent input variables,
g = sum(coefficient_i * X_i) + shift, with failure defined as g < 0.
Simulation is chunked: chunk i draws from an independent substream
derived from (master_seed, i), and partial statistics are merged in
ascending chunk order with the pairwise update, so the result is
bit-identical for a fixed (master seed, chunk size). Changing the chunk
size changes the substream layout and therefore the sample.

Each run keeps the mean, centred sum of squares (M2) and extrema of g,
and the count, sum, M2 and extrema of the failure deficits. Deficit
moments merge by the same pairwise update as those of g, so they cover
every failure and no deficit outlives its chunk. No value of g outlives
its chunk either, so memory is bounded by the chunk size. A chunk whose
g is not finite (NaN, or an overflow to inf) stops the run with an
error that names the chunk; a sample variance of g that overflows,
although every g is finite, stops it after the last chunk.

On request, each chunk also bins its g and its failure deficits while
it holds them, and the ordered merge adds the integer counts (see
`histogram`), so the histograms of a run need no second pass over the
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import histogram
from .distributions import Distribution, MomentReport

__all__ = [
    "Term",
    "LimitStateModel",
    "SimulationConfig",
    "SimulationSummary",
    "model_moments",
    "simulate",
    "g_chunks",
    "calibrate_shift",
]

# Substream lanes, kept disjoint by the leading spawn-key coordinate.
# Lanes 1 and 2 are unused; renumbering lane 3 would change the
# calibration stream.
_LANE_MAIN = 0
_LANE_CALIBRATION = 3

# Half-width of calibrate_shift's pilot window, in standard deviations of
# the pilot's rank count; a wider window costs memory, a narrower one a
# second pass when it misses.
_PILOT_Z = 10.0


def _lane_rng(master_seed: int, lane: int, index: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(lane, index))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class Term:
    name: str
    coefficient: float
    distribution: Distribution

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError(f"term {self.name!r}: coefficient must be finite, got {self.coefficient!r}")


@dataclass(frozen=True)
class LimitStateModel:
    """g = sum(coefficient * X) + shift; failure is g < 0."""

    terms: tuple[Term, ...]
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("limit state needs at least one term")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift!r}")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"term names must be unique, got {names!r}")

    def with_shift(self, shift: float) -> "LimitStateModel":
        return replace(self, shift=float(shift))


def model_moments(model: LimitStateModel) -> MomentReport:
    """Analytic mean/variance of g from the term moments (independence).

    A term whose own variance is infinite makes the variance of g
    infinite. A finite term variance that overflows once scaled by the
    squared coefficient, or in the running sum, raises ValueError naming
    the term: an overflow is not an infinite variance. A variance of 0
    raises ValueError too: a constant g has no spread to normalise by.
    """
    mean = model.shift
    variance = 0.0
    for t in model.terms:
        m = t.distribution.moments()
        mean += t.coefficient * m.mean
        total = variance + t.coefficient * t.coefficient * m.variance
        if math.isinf(total) and math.isfinite(variance) and m.variance_finite:
            raise ValueError(
                f"term {t.name!r}: the variance of g overflows (coefficient "
                f"{t.coefficient!r}, variance {m.variance!r})"
            )
        variance = total
    if variance == 0.0:
        raise ValueError(f"g is constant (it always equals {mean!r}); its variance is 0")
    return MomentReport(mean, variance)


@dataclass(frozen=True)
class SimulationConfig:
    sample_count: int
    master_seed: int
    chunk_size: int

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass
class SimulationSummary:
    """Streaming statistics of one simulate() run."""

    n: int
    mean_g: float
    var_g: float
    min_g: float
    max_g: float
    failure_count: int
    deficit_sum: float
    deficit_m2: float  # centred sum of squares of all failure deficits
    deficit_min: float | None
    deficit_max: float | None
    config: SimulationConfig
    # binned during the run when simulate() was asked for histograms;
    # deficit_histogram stays None without failures
    g_histogram: histogram.Histogram | None = None
    deficit_histogram: histogram.Histogram | None = None
    # always empty: perfbench/tracing.py reads its size, so it stays until the
    # next benchmark change, which also drops build_report's bootstrap_resamples
    failure_deficits: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def pf(self) -> float:
        return self.failure_count / self.n

    @property
    def conditional_std(self) -> float | None:
        """Sample standard deviation of all failure deficits, from their
        streamed moments, or None with fewer than two."""
        k = self.failure_count
        return math.sqrt(self.deficit_m2 / (k - 1)) if k >= 2 else None


def _chunk_layout(config: SimulationConfig) -> list[tuple[int, int]]:
    sizes = []
    remaining = config.sample_count
    idx = 0
    while remaining > 0:
        size = min(config.chunk_size, remaining)
        sizes.append((idx, size))
        remaining -= size
        idx += 1
    return sizes


def _chunk_g(model: LimitStateModel, master_seed: int, lane: int, idx: int, size: int) -> np.ndarray:
    rng = _lane_rng(master_seed, lane, idx)
    g = np.full(size, model.shift)
    # Terms are sampled in declaration order; the per-chunk stream layout
    # is part of the reproducibility contract. Overflow is left to _finite_extrema.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in model.terms:
            x = t.distribution.sample(rng, size)
            x *= t.coefficient
            g += x
            del x  # free it before the next term draws
    return g


def _finite_extrema(g: np.ndarray, idx: int, config: SimulationConfig) -> tuple[float, float]:
    """Min and max of chunk `idx`, or ValueError if g is not finite there.

    NaN propagates through min and max, so the extrema catch every
    non-finite value; unchecked, NaN would fail no `g < 0` test and
    count as safe.
    """
    lo, hi = float(g.min()), float(g.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        start = idx * config.chunk_size
        raise ValueError(
            f"g is not finite in chunk {idx} (stream positions {start} to "
            f"{start + g.size - 1}); a coefficient or parameter overflows"
        )
    return lo, hi


def g_chunks(model: LimitStateModel, config: SimulationConfig) -> Iterator[np.ndarray]:
    """Regenerate the exact g stream of simulate(), chunk by chunk."""
    for idx, size in _chunk_layout(config):
        yield _chunk_g(model, config.master_seed, _LANE_MAIN, idx, size)


@dataclass
class _ChunkPartial:
    n: int
    mean: float
    m2: float
    min_g: float
    max_g: float
    failure_count: int
    deficit_sum: float
    deficit_m2: float
    deficit_min: float
    g_bins: histogram.Bins | None = None
    deficit_bins: histogram.Bins | None = None


def _summarize_chunk(
    model: LimitStateModel, config: SimulationConfig, idx: int, size: int, histograms: bool = False
) -> _ChunkPartial:
    g = _chunk_g(model, config.master_seed, _LANE_MAIN, idx, size)
    min_g, max_g = _finite_extrema(g, idx, config)
    # finite values near the float limit can overflow the sums and squares;
    # the folded M2 is checked once, after the last chunk (see simulate)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(g.mean())
        centred = g - mean
        m2 = float(np.square(centred, out=centred).sum())
        del centred  # free it before binning allocates
        deficits = -g[g < 0.0]
        k, d_sum = deficits.size, float(deficits.sum())
        deficit_m2 = float(np.square(deficits - d_sum / k).sum()) if k else 0.0
    partial = _ChunkPartial(
        n=size,
        mean=mean,
        m2=m2,
        min_g=min_g,
        max_g=max_g,
        failure_count=k,
        deficit_sum=d_sum,
        deficit_m2=deficit_m2,
        deficit_min=float(deficits.min()) if k else math.inf,
    )
    if histograms:
        partial.g_bins = histogram.linear(g, min_g, max_g)
        partial.deficit_bins = histogram.log_linear(deficits) if k else None
    return partial


class _Accumulator:
    """Sequential fold over chunk partials in ascending index order."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min_g = math.inf
        self.max_g = -math.inf
        self.failure_count = 0
        self.deficit_sum = 0.0
        self.deficit_m2 = 0.0
        self.deficit_min = math.inf
        self.g_bins: histogram.Bins | None = None
        self.deficit_bins: histogram.Bins | None = None

    def fold(self, p: _ChunkPartial) -> None:
        n = self.n + p.n
        delta = p.mean - self.mean
        self.mean += delta * (p.n / n)
        self.m2 += p.m2 + delta * delta * (self.n * p.n / n)
        self.n = n

        self.min_g = min(self.min_g, p.min_g)
        self.max_g = max(self.max_g, p.max_g)

        k = self.failure_count + p.failure_count
        if p.failure_count:
            mean = self.deficit_sum / self.failure_count if self.failure_count else 0.0
            delta = p.deficit_sum / p.failure_count - mean
            self.deficit_m2 += p.deficit_m2 + delta * delta * (self.failure_count * p.failure_count / k)
            self.deficit_sum += p.deficit_sum
        self.failure_count = k
        self.deficit_min = min(self.deficit_min, p.deficit_min)

        self.g_bins = histogram.merge(self.g_bins, p.g_bins)
        self.deficit_bins = histogram.merge(self.deficit_bins, p.deficit_bins)

    def finish(self) -> SimulationSummary:
        has_fail = self.failure_count > 0
        return SimulationSummary(
            n=self.n,
            mean_g=self.mean,
            var_g=self.m2 / (self.n - 1) if self.n > 1 else math.nan,
            min_g=self.min_g,
            max_g=self.max_g,
            failure_count=self.failure_count,
            deficit_sum=self.deficit_sum,
            deficit_m2=self.deficit_m2,
            deficit_min=self.deficit_min if has_fail else None,
            deficit_max=-self.min_g if has_fail else None,  # the deepest failure
            config=self.config,
            g_histogram=self.g_bins.histogram() if self.g_bins else None,
            deficit_histogram=self.deficit_bins.histogram() if self.deficit_bins else None,
        )


def simulate(model: LimitStateModel, config: SimulationConfig, histograms: bool = False) -> SimulationSummary:
    """Run the chunked Monte Carlo estimate of the g distribution.

    Chunks are drawn and folded one at a time, in index order. A sample
    variance of g that overflows raises ValueError after the last chunk.

    With `histograms`, each chunk is binned while it is held, and the
    summary carries `g_histogram` and `deficit_histogram`. Binning reads
    each chunk once more, which costs far less than regenerating it.
    """
    acc = _Accumulator(config)
    for idx, size in _chunk_layout(config):
        acc.fold(_summarize_chunk(model, config, idx, size, histograms))
    if not math.isfinite(acc.m2):
        # every g is finite, or a chunk would have stopped the run
        raise ValueError(
            f"the sample variance of g overflows over {acc.n} finite samples; "
            "a coefficient or parameter is too large"
        )
    return acc.finish()


def _pilot_window(pilot: np.ndarray, p: float) -> tuple[float, float]:
    """Bounds that hold the rank-p quantile of the whole sample but for a
    miss ~_PILOT_Z standard deviations away.

    They are the pilot's order statistics at ranks m*p -/+ (Z*sqrt(m*p*(1-p))
    + 1), clipped to the pilot; a bound whose rank clips to the pilot's
    first or last value is -inf or +inf. Partitions `pilot` in place.
    """
    m = pilot.size
    centre = m * p
    half = _PILOT_Z * math.sqrt(centre * (1.0 - p)) + 1.0
    lo_rank = min(max(math.floor(centre - half), 0), m - 1)
    # keeps lo <= hi when the half-width is negative, so the three sides
    # g < lo, lo <= g <= hi and g > hi never overlap
    hi_rank = min(max(math.ceil(centre + half), lo_rank), m - 1)
    kth = [r for r, used in ((lo_rank, lo_rank > 0), (hi_rank, hi_rank < m - 1)) if used]
    if kth:
        pilot.partition(kth)
    lo = float(pilot[lo_rank]) if lo_rank > 0 else -math.inf
    hi = float(pilot[hi_rank]) if hi_rank < m - 1 else math.inf
    return lo, hi


def _below_and_window(g: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """How many values of g lie below lo, and the values in [lo, hi]."""
    return int(np.count_nonzero(g < lo)), g[(lo <= g) & (g <= hi)]


def _smallest(values: np.ndarray, count: int) -> np.ndarray:
    """The `count` smallest of `values`, the largest of them last.

    Partitions `values` in place and returns a view of it.
    """
    if count <= 0:
        return values[:0]
    values.partition(count - 1)
    return values[:count]


def calibrate_shift(
    model: LimitStateModel,
    target_pf: float,
    config: SimulationConfig,
) -> float:
    """Shift c such that the model with shift c hits target_pf empirically.

    Draws one calibration sample of g with shift forced to zero on a
    dedicated substream lane, then returns c = -(k-th smallest g) with
    k = ceil(target_pf * n). On the calibration sample itself the shifted
    failure fraction then matches target_pf to within 1/n.

    The sample is read chunk by chunk. Chunk 0 brackets the k-th smallest
    value in a pilot window [lo, hi] (see `_pilot_window`); every chunk
    then adds its count below lo and keeps its values inside the window,
    and the answer is the (k - below)-th smallest of the window. The
    window is about 2 * _PILOT_Z * sqrt(p * (1 - p) / m) * n values for
    p = k / n and chunk size m, and it is cut to its (k - below) smallest
    values whenever it grows past them, so memory is one chunk plus
    min(window, k) values. When the window misses, one more pass keeps
    only the side the rank fell on. Every path gives the k-th smallest
    value exactly.

    Refuses targets that would rest on fewer than 10 expected failures.
    """
    if not 0.0 < target_pf < 1.0:
        raise ValueError(f"target_pf must be inside (0, 1), got {target_pf!r}")
    expected_failures = target_pf * config.sample_count
    if expected_failures < 10.0:
        raise ValueError(
            f"target_pf * sample_count = {expected_failures:.3g} is below 10; "
            "the order statistic would be too noisy to calibrate against"
        )
    base = model.with_shift(0.0)
    k = math.ceil(expected_failures - 1e-9)

    def draw(idx: int, size: int) -> np.ndarray:
        g = _chunk_g(base, config.master_seed, _LANE_CALIBRATION, idx, size)
        _finite_extrema(g, idx, config)
        return g

    layout = _chunk_layout(config)
    pilot = draw(*layout[0])
    lo, hi = _pilot_window(pilot, k / config.sample_count)
    for _ in range(2):
        # Per-chunk (below, window) pairs merge in index order: counts add
        # and windows concatenate. No value past the (k - below)-th
        # smallest of the window can be the answer, so those are dropped.
        below, window = 0, np.empty(0)
        for idx, size in layout:
            g = draw(idx, size) if pilot is None else pilot
            pilot = None
            b, w = _below_and_window(g, lo, hi)
            del g
            below += b
            window = np.concatenate((window, w))
            del w
            if window.size > k - below:
                window = _smallest(window, k - below)
        r = k - below
        if 1 <= r <= window.size:
            break
        # The window missed: pass again, keeping only the side the rank
        # fell on and its bound. That pass holds the rank and cannot miss.
        lo, hi = (-math.inf, lo) if r < 1 else (hi, math.inf)
    return -float(_smallest(window, r)[-1])

