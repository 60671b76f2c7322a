"""Limit state models and the chunked Monte Carlo engine.

A limit state is a linear combination of independent input variables,
g = sum(coefficient_i * X_i) + shift, with failure defined as g < 0.
Simulation is chunked, and each term of a chunk has its own substream
slot: chunk i on a lane has the stream of SeedSequence(master_seed,
spawn_key=(lane, i)), and slot j reads it from its (j * 2**64)-th draw
on. The Normal terms are drawn as one Normal, their sum, with the
coefficients and the shift folded into its mean and sd, from the slot
of the first Normal term; every other term j draws from slot j. So the
draws of a term that is not Normal do not depend on the other terms,
and the terms of a chunk can be drawn together a block at a time. The
draw plan (see `_Plan`) is fixed once per call. Changing the chunk size
changes the substream layout and therefore the sample.

Each run keeps the mean, centred sum of squares (M2) and extrema of g,
and the count, sum, M2 and extrema of the failure deficits. A chunk is
built one block of _BLOCK values at a time: the merged Normal drawn
into it (or, without one, the first other term, scaled and shifted),
then each other term's next block drawn through one block of scratch,
scaled and added. The block is reduced while it is in cache (extrema
and finiteness, failure deficits, bins, moments), and the block
partials fold in order, with the pairwise update, into one partial per
chunk. So memory is a few blocks per thread, never a chunk. Chunks run
on a small thread pool,
one thread per usable CPU (one for chunks shorter than a block), and
their partials fold in ascending chunk order, so the result is
bit-identical for a fixed (master seed, chunk size, _BLOCK) whatever
the number of threads. `g_chunks` runs the same draw on a new array
per chunk, for callers that keep the chunks. A chunk whose g is not
finite (NaN, or an overflow to inf) stops the run with an error that
names the first such chunk; a sample variance of g that overflows,
although every g is finite, stops it after the last chunk.

On request, each block is also binned while it is held, and the
ordered merge adds the integer counts (see `histogram`), so the
histograms of a run need no second pass over the stream.

`calibrate_shift` reads its own lane chunk by chunk in the same way and
keeps, of its whole sample, a count and a window around the target
rank, which the ordered fold re-centres each time it has seen twice as
many values (see `quantile`). So its memory grows with the square root
of the sample count, not with the count, and the shift is still the
exact order statistic.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import histogram
from .distributions import Distribution, MomentReport, Normal, _ahead
from .quantile import Window

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

# Half-width of calibrate_shift's window, in standard deviations of the
# rank count of the values it is centred on (the pilot, then the values
# folded so far); a wider window costs memory, a narrower one a second
# pass when it misses.
_PILOT_Z = 10.0

# Values per block of the in-chunk passes: a term's draws, the deficit
# gather and the calibration filter.
_BLOCK = 1 << 16


_T = TypeVar("_T")


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


def _workers(layout: list[tuple[int, int]]) -> int:
    """Threads for the chunks of `layout`: one per usable CPU, at most one
    per chunk.

    Chunks shorter than a block get one thread: their numpy calls are
    too short to release the interpreter lock for long. Against one
    thread, two took 4M samples 2.5-5 times as long in 1k chunks, about
    as long in 16k, and 1.3-1.6 times less from 48k up (README,
    threads); the cut at a block is on the safe side of that.
    """
    if layout[0][1] < _BLOCK:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, len(layout))


def _ordered(work: Callable[[int, int], _T], layout: list[tuple[int, int]]) -> Iterator[_T]:
    """work(idx, size) for each chunk of `layout`, yielded in index order.

    The chunks run on `_workers` threads, with at most two chunks per
    worker started ahead of the one read next, so finished results
    cannot pile up. An error in a chunk is raised when that chunk is
    read, so the first failing chunk in index order is the one reported;
    the chunks not yet started are then cancelled. No thread outlives
    the generator. With one worker the chunks run in the calling thread.
    """
    workers = _workers(layout)
    if workers == 1:
        for idx, size in layout:
            yield work(idx, size)
        return
    jobs = iter(layout)
    with ThreadPoolExecutor(workers, thread_name_prefix="sevrel") as pool:
        pending = deque(pool.submit(work, *job) for job in itertools.islice(jobs, 2 * workers))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(work, *job) for job in itertools.islice(jobs, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


@dataclass(frozen=True)
class _Plan:
    """How every chunk of one call draws g, fixed before the first chunk.

    The Normal terms merge into one Normal with the coefficients and the
    shift folded in: mean = shift + sum(a * mu) and sd = hypot(a * sigma),
    drawn straight into the block of g as mean + sd * z from the slot of
    the first Normal term. With sd 0 (no Normal term, or only zero
    coefficients) the block is filled with mean. Every other term draws
    from its own slot through scratch and is added in term order. The
    sums are plain floats, so an overflow or inf - inf reaches g as inf
    or NaN and `_finite_extrema` reports it.
    """

    mean: float
    sd: float
    # the slots read, in draw order: the merged Normal's when sd > 0, then
    # one per term of `others`
    slots: tuple[int, ...]
    others: tuple[Term, ...]


def _plan(model: LimitStateModel) -> _Plan:
    """The draw plan of `model`, built once per call."""
    mean, scales, normal_slots, slots, others = model.shift, [], [], [], []
    for j, t in enumerate(model.terms):
        if isinstance(t.distribution, Normal):
            mean += t.coefficient * t.distribution.mean
            scales.append(t.coefficient * t.distribution.stddev)
            normal_slots.append(j)
        else:
            slots.append(j)
            others.append(t)
    sd = math.hypot(*scales)
    first = normal_slots[:1] if sd > 0.0 else []
    return _Plan(mean, sd, tuple(first + slots), tuple(others))


def _term_rngs(master_seed: int, lane: int, idx: int, slots: tuple[int, ...]) -> list[np.random.Generator]:
    """One generator per slot of chunk `idx` of `lane`: slot j reads the
    chunk's stream, SeedSequence(master_seed; lane, idx), from its
    (j * 2**64)-th draw on. No slot, no seeding.

    A term draws at most a few values per sample, so the substreams
    never meet. A copy advanced by 2**64 costs under half as much as
    seeding a slot on its own, and seeding is most of what a small
    chunk costs.
    """
    if not slots:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(lane, idx)))
    return [rng if j == 0 else _ahead(rng, j << 64) for j in slots]


def _reused_blocks(size: int) -> list[np.ndarray]:
    """The blocks of a chunk of `size` values, in order, all views of one
    new block-sized buffer."""
    buffer = np.empty(min(_BLOCK, size))
    return [buffer[: min(_BLOCK, size - start)] for start in range(0, size, _BLOCK)]


def _draw_chunk(
    plan: _Plan, master_seed: int, lane: int, idx: int, g_blocks: list[np.ndarray]
) -> Iterator[np.ndarray]:
    """Draw chunk `idx` of `lane` into the arrays of g_blocks in turn, and
    yield each block as soon as it holds its values of g.

    The merged Normal is drawn straight into the block of g (see
    `_Plan`); each other term draws from its own slot (see `_term_rngs`)
    into one block of scratch, which is scaled and added (a coefficient
    of 1 skips the scaling, one of -1 subtracts). Without a Normal term,
    the first other term is drawn straight into g, scaled there and
    shifted by the mean, with the bits that filling g with the mean and
    adding the term give. No draw depends on how the chunk is cut into
    blocks, and the draws of a term that is not Normal do not depend on
    the other terms. The blocks may share one buffer, since each is
    yielded before the next is drawn.
    Overflow is left to _finite_extrema, under the caller's np.errstate.
    """
    rngs = _term_rngs(master_seed, lane, idx, plan.slots)
    normal = rngs.pop(0) if plan.sd > 0.0 else None
    others = list(zip(plan.others, rngs))
    # Without a Normal, the first other term draws straight into g and is
    # scaled there: a * x + mean has the bits of mean + a * x.
    first = None
    if normal is None and others:
        t, rng = others.pop(0)
        first = t.coefficient, t.distribution._draws(rng, g_blocks)
    draws = []
    if others:
        scratch = np.empty(g_blocks[0].size)
        x_blocks = [scratch[: g.size] for g in g_blocks]
        draws = [(t.coefficient, t.distribution._draws(rng, x_blocks)) for t, rng in others]
    for g in g_blocks:
        if first is not None:
            a, draw = first
            next(draw)
            if a != 1.0:
                g *= a
            g += plan.mean  # also when 0.0, which turns a -0.0 into 0.0
        elif normal is None:
            g.fill(plan.mean)
        else:
            normal.standard_normal(out=g)
            g *= plan.sd
            g += plan.mean
        for a, draw in draws:
            x = next(draw)
            if a == -1.0:
                g -= x
                continue
            if a != 1.0:
                x *= a
            g += x
        yield g


def _chunk_g(model: LimitStateModel, master_seed: int, lane: int, idx: int, size: int) -> np.ndarray:
    """Chunk `idx` of `lane`, in a new array."""
    g = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _draw_chunk(_plan(model), master_seed, lane, idx, np.split(g, range(_BLOCK, size, _BLOCK))):
            pass
    return g


def _finite_extrema(g: np.ndarray, idx: int, size: int, config: SimulationConfig) -> tuple[float, float]:
    """Min and max of g, a block of chunk `idx` of `size` values, or
    ValueError, naming the chunk, if g is not finite.

    NaN propagates through min and max, so the extrema catch every
    non-finite value; unchecked, NaN would fail no `g < 0` test and
    count as safe.
    """
    lo, hi = float(g.min()), float(g.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        start = idx * config.chunk_size
        raise ValueError(
            f"g is not finite in chunk {idx} (stream positions {start} to "
            f"{start + size - 1}); a coefficient or parameter overflows"
        )
    return lo, hi


def g_chunks(model: LimitStateModel, config: SimulationConfig) -> Iterator[np.ndarray]:
    """Regenerate the exact g stream of simulate(), chunk by chunk, each in
    a new array that the caller may keep."""
    for idx, size in _chunk_layout(config):
        yield _chunk_g(model, config.master_seed, _LANE_MAIN, idx, size)


@dataclass
class _Partial:
    """Statistics of consecutive samples of g: a block, a chunk or a run.

    The empty partial folds into anything; `fold` appends the samples of
    the next partial with the pairwise update.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min_g: float = math.inf
    max_g: float = -math.inf
    failure_count: int = 0
    deficit_sum: float = 0.0
    deficit_m2: float = 0.0
    deficit_min: float = math.inf
    g_bins: histogram.Bins | None = None
    deficit_bins: histogram.Bins | None = None

    def fold(self, p: "_Partial") -> None:
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

    def summary(self, config: SimulationConfig) -> SimulationSummary:
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
            config=config,
            g_histogram=self.g_bins.histogram() if self.g_bins else None,
            deficit_histogram=self.deficit_bins.histogram() if self.deficit_bins else None,
        )


def _gather(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The values of g where mask is set, in order, in a new array.

    `compress` gathers several times as fast as boolean indexing on a
    mask that is set for a few percent to half of the values (1.4 against
    5.9 ns a value at 25%, numpy 2.4), but through an index array of 8
    bytes per value kept. Up to half the values, that array and the
    values gathered take no more room than g; past that, g[mask], which
    needs no index array, gathers them.
    """
    return g.compress(mask) if 2 * np.count_nonzero(mask) <= g.size else g[mask]


def _summarize_block(g: np.ndarray, idx: int, size: int, config: SimulationConfig, histograms: bool) -> _Partial:
    """The partial statistics of g, a block of chunk `idx` of `size` values.

    Works on g in place and leaves it overwritten with the squares of
    its centred values. Finite values near the float limit can overflow
    the sums and squares under the caller's np.errstate; the folded M2
    is checked once, after the last chunk (see simulate).
    """
    min_g, max_g = _finite_extrema(g, idx, size, config)
    part = _Partial(n=g.size, min_g=min_g, max_g=max_g)
    if histograms:
        part.g_bins = histogram.linear(g, min_g, max_g)
    if min_g < 0.0:
        deficits = _gather(g, g < 0.0)
        np.negative(deficits, out=deficits)
        k = deficits.size
        part.failure_count = k
        part.deficit_sum = float(deficits.sum())
        part.deficit_min = float(deficits.min())
        if histograms:
            part.deficit_bins = histogram.log_linear(deficits)
        deficits -= part.deficit_sum / k
        part.deficit_m2 = float(np.square(deficits, out=deficits).sum())
    part.mean = float(g.mean())
    g -= part.mean
    part.m2 = float(np.square(g, out=g).sum())
    return part


def _chunk_partial(plan: _Plan, config: SimulationConfig, histograms: bool, idx: int, size: int) -> _Partial:
    """Chunk `idx` drawn and reduced block by block, its blocks folded in order."""
    part = _Partial()
    # np.errstate is per thread; non-finite g is reported by _finite_extrema
    with np.errstate(over="ignore", invalid="ignore"):
        for g in _draw_chunk(plan, config.master_seed, _LANE_MAIN, idx, _reused_blocks(size)):
            part.fold(_summarize_block(g, idx, size, config, histograms))
    return part


def simulate(model: LimitStateModel, config: SimulationConfig, histograms: bool = False) -> SimulationSummary:
    """Run the chunked Monte Carlo estimate of the g distribution.

    Chunks run in parallel (see `_ordered`) and their partials are folded
    in index order, so the bits do not depend on the number of threads.
    A sample variance of g that overflows raises ValueError after the
    last chunk.

    With `histograms`, each block is binned while it is held, and the
    summary carries `g_histogram` and `deficit_histogram`. Binning reads
    each block once more, which costs far less than regenerating it.
    """
    acc = _Partial()
    for part in _ordered(functools.partial(_chunk_partial, _plan(model), config, histograms), _chunk_layout(config)):
        acc.fold(part)
    if not math.isfinite(acc.m2):
        # every g is finite, or a chunk would have stopped the run
        raise ValueError(
            f"the sample variance of g overflows over {acc.n} finite samples; "
            "a coefficient or parameter is too large"
        )
    return acc.summary(config)


def _pilot(plan: _Plan, config: SimulationConfig, size: int) -> np.ndarray:
    """The first block of chunk 0, of `size` values, on the calibration lane."""
    with np.errstate(over="ignore", invalid="ignore"):
        pilot = next(_draw_chunk(plan, config.master_seed, _LANE_CALIBRATION, 0, _reused_blocks(size)))
        _finite_extrema(pilot, 0, size, config)
    return pilot


def _ranks(m: int, p: float) -> tuple[int, int]:
    """The ranks m*p -/+ (Z*sqrt(m*p*(1-p)) + 1) of m values, rounded
    outwards: the rank-p quantile of a larger sample falls between them
    but for a miss ~_PILOT_Z standard deviations of the rank count away."""
    centre = m * p
    half = _PILOT_Z * math.sqrt(centre * (1.0 - p)) + 1.0
    return math.floor(centre - half), math.ceil(centre + half)


def _pilot_window(pilot: np.ndarray, p: float) -> tuple[float, float]:
    """The pilot's order statistics at its `_ranks`, clipped to the pilot;
    a bound whose rank clips to the pilot's first or last value is -inf
    or +inf. Partitions `pilot` in place.
    """
    m = pilot.size
    lo_rank, hi_rank = _ranks(m, p)
    lo_rank = min(max(lo_rank, 0), m - 1)
    # keeps lo <= hi when the half-width is negative, so the three sides
    # g < lo, lo <= g <= hi and g > hi never overlap
    hi_rank = min(max(hi_rank, lo_rank), m - 1)
    kth = [r for r, used in ((lo_rank, lo_rank > 0), (hi_rank, hi_rank < m - 1)) if used]
    if kth:
        pilot.partition(kth)
    lo = float(pilot[lo_rank]) if lo_rank > 0 else -math.inf
    hi = float(pilot[hi_rank]) if hi_rank < m - 1 else math.inf
    return lo, hi


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

    The sample is read chunk by chunk, block by block. The first block of
    chunk 0 is a pilot: it brackets the k-th smallest value in a window
    [lo, hi] (see `_pilot_window`). Every chunk then counts its values
    below lo and keeps its values inside the window, the chunks run in
    parallel and their pairs fold in index order (see `quantile.Window`),
    and the answer is the (k - below)-th smallest of the window. Each
    time the fold has seen twice as many values as when the window was
    last centred, the window is re-centred on the same ranks of the
    values seen so far, p * seen -/+ (_PILOT_Z * sqrt(p * (1 - p) * seen) + 1)
    for p = k / n, in the manner of Floyd and Rivest's sample-then-narrow
    selection (CACM 18(3), 1975). So the window holds about
    4 * _PILOT_Z * sqrt(p * (1 - p) * n) values at most, and memory is a
    few blocks per thread, the windows of the chunks in flight and the
    window: it grows with sqrt(n), not n. When the window misses, one
    more pass keeps only the side the rank fell on, cut to the values
    that can still be the answer. Every path gives the k-th smallest
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
    plan = _plan(model.with_shift(0.0))
    k = math.ceil(expected_failures - 1e-9)
    p = k / config.sample_count

    def chunk_window(win: Window, idx: int, size: int) -> tuple[tuple[float, float], int, list[np.ndarray]]:
        # the bounds read when chunk idx starts, how many of its values lie
        # below lo, and its values in [lo, hi], one array per block
        bounds = lo, hi = win.bounds
        below, inside = 0, []
        with np.errstate(over="ignore", invalid="ignore"):
            for g in _draw_chunk(plan, config.master_seed, _LANE_CALIBRATION, idx, _reused_blocks(size)):
                _finite_extrema(g, idx, size, config)
                below += int(np.count_nonzero(g < lo))
                mask = lo <= g
                mask &= g <= hi
                inside.append(_gather(g, mask))
        return bounds, below, inside

    layout = _chunk_layout(config)
    # Cutting only past twice what the rank still needs keeps small chunks
    # from joining and partitioning the window every time.
    win = Window(*_pilot_window(_pilot(plan, config, layout[0][1]), p), k, slack=2)
    seen, centred = 0, min(_BLOCK, layout[0][1])
    for (_, size), part in zip(layout, _ordered(functools.partial(chunk_window, win), layout)):
        win.fold(*part)
        seen += size
        if 2 * centred <= seen < config.sample_count:
            win.narrow(*_ranks(seen, p))
            centred = seen
    value = win.select()
    if value is None:
        # The window missed: pass again, keeping only the side the rank
        # fell on and its bound. That pass holds the rank and cannot miss;
        # it can hold a whole side of the sample, so it is cut as soon as
        # it holds more than the rank needs.
        lo, hi = win.bounds
        win = Window(*((-math.inf, lo) if k <= win.below else (hi, math.inf)), k, slack=1)
        for part in _ordered(functools.partial(chunk_window, win), layout):
            win.fold(*part)
        value = win.select()
    return -value
