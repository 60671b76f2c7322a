"""Limit state models, the block-keyed Monte Carlo engine and shift calibration.

A limit state is a linear combination of independent input variables,
g = sum(coefficient_i * X_i) + shift, with failure defined as g < 0.
The stream is cut into blocks of _BLOCK values, the last one ragged,
and each term of a block has its own generator: slot j of block i is an
SFC64 seeded by SeedSequence(master_seed, spawn_key=(0, i, j)). The
Normal terms are drawn as one Normal, their sum, with the coefficients
and the shift folded into its mean and sd, from the slot of the first
Normal term; every other term j draws from slot j. So the draws of a
term that is not Normal depend on the seed, the block and j alone. The
draw plan (see `_Plan`) is fixed once per call. The block length is a
constant, so the sample depends on the master seed and the sample count
alone, and the full blocks of a run are those of every longer run with
the same seed.

Each run keeps the mean, centred sum of squares (M2) and extrema of g,
and the count, sum, M2 and extrema of the failure deficits. A block is
drawn (the merged Normal straight into it or, without one, the first
other term, scaled and shifted; then each other term through one block
of scratch, scaled and added) and reduced while it is in cache (extrema
and finiteness, failure deficits, bins, moments). `simulate` runs tasks
of _TASK blocks on a small thread pool, one thread per usable CPU. A
task is its first block; it returns its block partials unfolded, and the
calling thread folds them one at a time, in block order, with the
pairwise update. It holds one block of g and one of scratch per worker,
allocated once on the calling thread and lent to each task in turn, so
no worker thread allocates a block. So memory is a few blocks per
thread, and the result is bit-identical for a fixed master seed and
sample count whatever the task size or the number of threads. A block
whose g is not finite (NaN, or an overflow to inf) stops the run with an
error that names the first such block; a sample variance of g that
overflows, although every g is finite, stops it after the last block.

On request, each block is also binned while it is held. Bin counts are
exact integers, which the fold adds block by block (see `histogram`):
the histograms of a run need no second pass over the stream.

`g_chunks` draws the same blocks on the calling thread, each into a new
array. `calibrate_shift` draws no sample: it works on a grid of the
density of g less one term.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import histogram
from .distributions import Distribution, Mixture, MomentReport, Normal, Pareto

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

# Values per block. Block i draws the streams keyed (0, i, j), so changing
# this changes the sample of every run longer than a block.
_BLOCK = 1 << 16

# Blocks per task of the thread pool. The block partials fold one at a
# time, in block order, so the task size, like the thread count, changes
# no bit of a result.
_TASK = 16

# The most nodes of a grid of calibrate_shift's; a larger one is refused.
_NODES = 1 << 17


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

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    @property
    def chunk_size(self) -> int:
        # read only by perfbench/tracing.py, until the next benchmark
        # change; it no longer describes the stream, which is keyed per block
        return 1_000_000


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


def _tasks(sample_count: int) -> range:
    """The first block of each task over `sample_count` values; `stop` is the block count."""
    return range(0, -(-sample_count // _BLOCK), _TASK)


def _size(idx: int, sample_count: int) -> int:
    """The number of values in block `idx` of the first `sample_count`."""
    return min(_BLOCK, sample_count - idx * _BLOCK)


def _workers(tasks: range) -> int:
    """Threads for `tasks`: one per usable CPU, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, len(tasks))


def _ordered(work: Callable[[int], _T], tasks: range, workers: int) -> Iterator[_T]:
    """work(task) for each of `tasks`, yielded in order.

    The tasks run on `workers` threads, so no more than `workers` run at
    once, with at most two tasks per worker started ahead of the one read
    next, so finished results cannot pile up. An error in a task is
    raised when that task is read, so the first failing task in order is
    the one reported; the tasks not yet started are then cancelled. No
    thread outlives the generator. With one worker, or no task, the tasks
    run in the calling thread.
    """
    if workers <= 1:
        for task in tasks:
            yield work(task)
        return
    jobs = iter(tasks)
    with ThreadPoolExecutor(workers, thread_name_prefix="sevrel") as pool:
        pending = deque(pool.submit(work, job) for job in itertools.islice(jobs, 2 * workers))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(work, job) for job in itertools.islice(jobs, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


@dataclass(frozen=True)
class _Plan:
    """How every block of one call draws g, fixed before the first one.

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


def _term_rngs(master_seed: int, idx: int, slots: tuple[int, ...]) -> list[np.random.Generator]:
    """One generator per slot of block `idx`: slot j is an SFC64 seeded by
    SeedSequence(master_seed, spawn_key=(0, idx, j)). No slot, no seeding.
    The leading 0 is part of the key of schemaVersion 14's stream.

    Each slot is seeded on its own, because slices of one PCG64 stream
    2**64 draws apart are correlated and would make the terms of g
    dependent. SFC64 draws doubles and normals faster than PCG64, which
    pays for seeding every slot.
    """
    return [
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(master_seed, spawn_key=(0, idx, j))))
        for j in slots
    ]


def _draw_block(plan: _Plan, master_seed: int, idx: int, g: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """Draw block `idx` into g, whose size is the block's, and return g.

    The merged Normal is drawn straight into g (see `_Plan`); each other
    term draws from its own slot (see `_term_rngs`) into `scratch`, which
    is scaled and added (a coefficient of 1 skips the scaling, one of -1
    subtracts). Without a Normal term, the first other term is drawn
    straight into g, scaled there and shifted by the mean, with the bits
    that filling g with the mean and adding the term give. Each term
    draws the block as one batch (see `distributions`).
    Overflow is left to _finite_extrema, under the caller's np.errstate.
    """
    rngs = _term_rngs(master_seed, idx, plan.slots)
    others = list(zip(plan.others, rngs[1:] if plan.sd > 0.0 else rngs))
    if plan.sd > 0.0:
        rngs[0].standard_normal(out=g)
        g *= plan.sd
        g += plan.mean
    elif others:
        # a * x + mean has the bits of mean + a * x
        t, rng = others.pop(0)
        t.distribution._fill(rng, g)
        if t.coefficient != 1.0:
            g *= t.coefficient
        g += plan.mean  # also when 0.0, which turns a -0.0 into 0.0
    else:
        g.fill(plan.mean)
    for t, rng in others:
        x = t.distribution._fill(rng, scratch[: g.size])
        if t.coefficient == -1.0:
            g -= x
            continue
        if t.coefficient != 1.0:
            x *= t.coefficient
        g += x
    return g


_Buffers = tuple[np.ndarray, np.ndarray | None]


def _buffers(plan: _Plan, size: int) -> _Buffers:
    """A block of g of `size` values and, when `plan` draws a term through
    scratch (see `_draw_block`), a block of scratch; else None for it."""
    return np.empty(size), (np.empty(size) if len(plan.others) > (plan.sd == 0.0) else None)


def _finite_extrema(g: np.ndarray, idx: int) -> tuple[float, float]:
    """Min and max of g, block `idx` of the stream, or ValueError if g is
    not finite. The error names the block and its stream positions.

    NaN propagates through min and max, so the extrema catch every
    non-finite value; unchecked, NaN would fail no `g < 0` test and
    count as safe.
    """
    lo, hi = float(g.min()), float(g.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        start = idx * _BLOCK
        raise ValueError(
            f"g is not finite in block {idx} (stream positions {start} to "
            f"{start + g.size - 1}); a coefficient or parameter overflows"
        )
    return lo, hi


def g_chunks(model: LimitStateModel, config: SimulationConfig) -> Iterator[np.ndarray]:
    """Regenerate the exact g stream of simulate(), block by block, each
    drawn on the calling thread into a new array that the caller may keep."""
    plan, n = _plan(model), config.sample_count
    for idx in range(-(-n // _BLOCK)):
        g, scratch = _buffers(plan, _size(idx, n))
        # non-finite g is the caller's to find; the generator yields outside
        # the np.errstate, so the caller's own settings hold between blocks
        with np.errstate(over="ignore", invalid="ignore"):
            _draw_block(plan, config.master_seed, idx, g, scratch)
        yield g


@dataclass
class _Partial:
    """Statistics of consecutive samples of g: a block or a run.

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

    def summary(self) -> SimulationSummary:
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


def _summarize_block(g: np.ndarray, idx: int, histograms: bool) -> _Partial:
    """The partial statistics of g, block `idx` of the stream.

    Works on g in place and leaves it overwritten with the squares of
    its centred values. Finite values near the float limit can overflow
    the sums and squares under the caller's np.errstate; the folded M2
    is checked once, after the last block (see simulate).
    """
    min_g, max_g = _finite_extrema(g, idx)
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
            part.deficit_bins = histogram.log_linear(deficits, part.deficit_min, -min_g)
        deficits -= part.deficit_sum / k
        part.deficit_m2 = float(np.square(deficits, out=deficits).sum())
    part.mean = float(g.mean())
    g -= part.mean
    part.m2 = float(np.square(g, out=g).sum())
    return part


def simulate(model: LimitStateModel, config: SimulationConfig, histograms: bool = False) -> SimulationSummary:
    """Run the block-keyed Monte Carlo estimate of the g distribution.

    Tasks of blocks run in parallel (see `_ordered`) and every block
    partial is folded in block order, so the bits depend on neither the
    task size nor the number of threads. A sample variance of g that
    overflows raises ValueError after the last block.

    One pair of `_buffers` per worker is allocated here, on the calling
    thread, before any task starts, and lent to the tasks through a
    queue: a task takes a pair when it starts and gives it back when it
    ends, failed or not, so no later task, and no shutdown of the pool,
    waits for it. Each block of a task overwrites the last. No more tasks
    run at once than there are workers, so a task never finds the queue
    empty; if one did, queue.Empty would stop the run rather than block it.

    With `histograms`, each block is binned while it is held, and the
    summary carries `g_histogram` and `deficit_histogram`. Binning reads
    each block once more, which costs far less than regenerating it.
    """
    plan, seed, n = _plan(model), config.master_seed, config.sample_count
    tasks = _tasks(n)
    workers = _workers(tasks)
    lent: queue.SimpleQueue[_Buffers] = queue.SimpleQueue()
    for _ in range(workers):
        lent.put(_buffers(plan, _size(0, n)))

    def work(first: int) -> list[_Partial]:
        g, scratch = buffers = lent.get_nowait()
        try:
            # np.errstate is per thread; non-finite g is reported by _finite_extrema
            with np.errstate(over="ignore", invalid="ignore"):
                return [
                    _summarize_block(_draw_block(plan, seed, idx, g[: _size(idx, n)], scratch), idx, histograms)
                    for idx in range(first, min(first + tasks.step, tasks.stop))
                ]
        finally:
            lent.put(buffers)

    acc = _Partial()
    for parts in _ordered(work, tasks, workers):
        for part in parts:
            acc.fold(part)
    if not math.isfinite(acc.m2):
        # every g is finite, or a block would have stopped the run
        raise ValueError(
            f"the sample variance of g overflows over {acc.n} finite samples; "
            "a coefficient or parameter is too large"
        )
    return acc.summary()


def _paretos(d: Distribution) -> list[tuple[float, Pareto]]:
    """The (weight, Pareto) parts of d: d itself, or a Mixture's components."""
    parts = d.components if isinstance(d, Mixture) else ((1.0, d),)
    return [(w, part) for w, part in parts if isinstance(part, Pareto)]


def _span(a: float, d: Distribution, q: float) -> tuple[float, float]:
    """The q and 1 - q quantiles of a * X for X ~ d, the lower first, or
    the least and greatest over a Mixture's components; a Pareto's in
    closed form, the upper x_min * q ** (-1 / alpha). Overflow gives inf."""
    if isinstance(d, Mixture):
        spans = [_span(a, part, q) for _, part in d.components]
        return min(lo for lo, _ in spans), max(hi for _, hi in spans)
    if isinstance(d, Pareto):
        ends = d.x_min * np.power([1.0 - q, q], -1.0 / d.alpha)
    else:
        ends = d.quantile(np.array([q, 1.0 - q]))
    return tuple(sorted((a * ends).tolist()))


def _density(rest: list, base: float, h: float, widen: float, names: str) -> tuple[np.ndarray, np.ndarray]:
    """The nodes x of r = base + sum(a * X) over the terms (a, d, lo, hi)
    of `rest`, X ~ d, and their masses w = h * density: each term's pdf on
    the nodes k * h of [lo, hi], widened by `widen` of its width each
    side, convolved by `np.convolve`, which adds only positive terms."""
    if not 1.0 + sum((1.0 + 2.0 * widen) * (hi - lo) / h + 1.0 for _, _, lo, hi in rest) <= _NODES:
        raise ValueError(f"the density of the rest of g needs more than {_NODES} grid nodes (terms {names})")
    w, first = np.ones(1), 0
    for a, d, lo, hi in rest:
        lo, hi = lo - widen * (hi - lo), hi + widen * (hi - lo)
        k = np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
        w = np.convolve(w, d.pdf(k * h / a) * (h / abs(a)))
        first += int(k[0])
    return base + (first + np.arange(w.size)) * h, w


def _sums(x: np.ndarray, w: np.ndarray, h: float, a: float, d: Distribution, c: float) -> tuple[float, float]:
    """P(a * X < -(r + c)) for X ~ d summed over the nodes x of r with
    masses w, and its rate of fall with c, the sum of pdf(-(r + c) / a) / |a|.

    A Pareto part of X kinks the tail at x + c = -a * x_min. A jump J in
    the summand's slope t steps into a cell costs the trapezoid sum
    J * h**2 * (t * (1 - t) / 2 - 1 / 12) (Euler-Maclaurin); taking that
    off, with the density of r there interpolated, leaves O(h**3)."""
    tail, density = d._tails(-(x + c) / a, upper=a < 0.0)
    value = float(w @ tail)
    for weight, pareto in _paretos(d):
        u = (-a * pareto.x_min - c - x[0]) / h
        if 0.0 <= u < w.size - 1:
            k = math.floor(u)
            t = u - k
            # h * J: the mass of r there times the jump of the tail's slope
            jump = ((1.0 - t) * w[k] + t * w[k + 1]) * weight * pareto.alpha / (pareto.x_min * a)
            value -= jump * h * (t * (1.0 - t) / 2.0 - 1.0 / 12.0)
    return value, float(w @ density) / abs(a)


def _root(mean: Callable[[float], tuple[float, float]], p: float, c: float, step: float) -> float:
    """The c at which mean(c)[0] = p, where mean(c) gives a probability
    that falls from 1 to 0 as c grows and its rate of fall.

    Newton's method from c, kept inside the bracket of the points seen:
    a step that would leave it, or a rate of 0, bisects the bracket or,
    while one side is still open, moves `step` towards that side and
    doubles `step`. Stops once a step is below 1e-13 of the first `step`,
    or gives NaN if 200 steps do not get there.
    """
    lo, hi, tol = -math.inf, math.inf, 1e-13 * step
    for _ in range(200):
        value, rate = mean(c)
        nxt = c + (value - p) / rate if rate > 0.0 else math.nan
        if abs(nxt - c) <= tol:
            return nxt
        if value > p:
            lo = c
        else:
            hi = c
        if not lo < nxt < hi:
            if math.isinf(lo) or math.isinf(hi):
                nxt = c + math.copysign(step, value - p)
                step *= 2.0
            else:
                nxt = 0.5 * (lo + hi)
        if abs(nxt - c) <= tol:
            return nxt
        c = nxt
    return math.nan


def calibrate_shift(
    model: LimitStateModel,
    target_pf: float,
    config: SimulationConfig,
) -> float:
    """Shift c at which the model with shift c fails with probability
    target_pf, found without drawing a sample.

    Given the rest r = g - a * X of one term X (shift forced to zero), g
    fails with probability P(a * X < -(r + c)) (Asmussen and Kroese, Adv.
    Appl. Probab. 38(2), 2006). X is the term with a Pareto part, else the
    term whose 1e-15 quantiles lie furthest apart, which leaves the grid
    of r the least span. The mean over r is a trapezoid sum over the grid
    of r's density (see `_density`, `_sums`), exponentially convergent for
    smooth densities (Trefethen and Weideman, SIAM Review 56(3), 2014).
    Its root on step h, from 1/16 of the least interquartile range of a
    term, is accepted once the sum on step h / 2 and twice the span is
    within 1e-3 * sqrt(p * (1 - p) / n) of p, a small fraction of the
    n-sample run's standard error; else h is halved. c is rounded to 32
    significant bits: a last-bit difference between numpy's SIMD kernels
    then moves it only next to a rounding edge.

    Refuses targets outside (0, 1) or below 10 expected failures, and
    names the terms of a model with two Pareto parts, a grid past _NODES
    nodes or a root that does not converge.
    """
    if not 0.0 < target_pf < 1.0:
        raise ValueError(f"target_pf must be inside (0, 1), got {target_pf!r}")
    expected_failures = target_pf * config.sample_count
    if expected_failures < 10.0:
        raise ValueError(
            f"target_pf * sample_count = {expected_failures:.3g} is below 10; "
            "too few failures are expected to calibrate against"
        )
    p, plan = target_pf, _plan(model.with_shift(0.0))
    names = ", ".join(repr(t.name) for t in model.terms)
    heavy = [repr(t.name) for t in plan.others if t.coefficient != 0.0 and _paretos(t.distribution)]
    if len(heavy) > 1:
        raise ValueError(f"terms {', '.join(heavy)} each have a Pareto part; the rest of g must have a smooth density")
    terms = [(plan.sd, Normal(0.0, 1.0))] if plan.sd > 0.0 else []
    terms += [(t.coefficient, t.distribution) for t in plan.others if t.coefficient != 0.0]
    if not terms:
        raise ValueError("no term of g has a density; g is constant")
    with np.errstate(over="ignore", invalid="ignore"):
        tails, quartiles = ([_span(a, d, q) for a, d in terms] for q in (1e-15, 0.25))
    if not (math.isfinite(plan.mean) and np.isfinite([tails, quartiles]).all()):
        raise ValueError(f"g overflows: a coefficient or parameter of the terms {names} is too large for a float")
    # X: the term with a Pareto part, else the widest, which leaves r the least span
    rank = [(bool(_paretos(d)), hi - lo) for (_, d), (lo, hi) in zip(terms, tails)]
    i = rank.index(max(rank))
    a, d = terms[i]
    rest = [(*terms[j], *tails[j]) for j in range(len(terms)) if j != i]
    # the root starts at minus the terms' summed midquartiles, on their summed ranges
    start, step = -plan.mean - sum(lo + hi for lo, hi in quartiles) / 2.0, sum(hi - lo for lo, hi in quartiles)
    h = min(hi - lo for lo, hi in quartiles) / 16.0
    tol = 1e-3 * math.sqrt(p * (1.0 - p) / config.sample_count)
    while True:
        x, w = _density(rest, plan.mean, h, 0.0, names)
        c = _root(lambda c: _sums(x, w, h, a, d, c), p, start, step)
        if abs(_sums(*_density(rest, plan.mean, h / 2.0, 0.5, names), h / 2.0, a, d, c)[0] - p) <= tol:
            break
        if math.isnan(c) or not rest:
            raise ValueError(f"the shift at p_f {p!r} does not converge (terms {names})")
        h /= 2.0
    mantissa, exponent = math.frexp(c)
    return math.ldexp(round(mantissa * 2**32), exponent - 32)
