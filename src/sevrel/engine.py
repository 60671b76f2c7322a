"""Limit state models and the block-keyed Monte Carlo engine.

A limit state is a linear combination of independent input variables,
g = sum(coefficient_i * X_i) + shift, with failure defined as g < 0.
Each lane of the stream is cut into blocks of _BLOCK values, the last
one ragged, and each term of a block has its own substream slot: block
i on a lane has the stream of SeedSequence(master_seed, spawn_key=(lane,
i)), and slot j reads it from its (j * 2**64)-th draw on. The Normal
terms are drawn as one Normal, their sum, with the coefficients and the
shift folded into its mean and sd, from the slot of the first Normal
term; every other term j draws from slot j. So the draws of a term that
is not Normal do not depend on the other terms. The draw plan (see
`_Plan`) is fixed once per call. The block length is a constant, so the
sample depends on the master seed and the sample count alone, and the
full blocks of a run are those of every longer run with the same seed.

Each run keeps the mean, centred sum of squares (M2) and extrema of g,
and the count, sum, M2 and extrema of the failure deficits. A block is
drawn (the merged Normal straight into it or, without one, the first
other term, scaled and shifted; then each other term through one block
of scratch, scaled and added) and reduced while it is in cache (extrema
and finiteness, failure deficits, bins, moments). Tasks of _TASK blocks
run on a small thread pool, one thread per usable CPU, and return their
block partials unfolded; the calling thread folds them one at a time,
in block order, with the pairwise update. So memory is a few blocks per
thread, and the result is bit-identical for a fixed master seed and
sample count whatever the task size or the number of threads. A block
whose g is not finite (NaN, or an overflow to inf) stops the run with an
error that names the first such block; a sample variance of g that
overflows, although every g is finite, stops it after the last block.

On request, each block is also binned while it is held. Bin counts are
exact integers, so a task merges its own blocks' bins and the fold adds
those of the tasks (see `histogram`): the histograms of a run need no
second pass over the stream.

`calibrate_shift` reads its own lane block by block in the same way and
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

# Values per block of a lane. Block i draws the stream seeded by (lane, i),
# so changing this changes the sample of every run longer than a block.
_BLOCK = 1 << 16

# Blocks per task of the thread pool. The block partials fold one at a
# time, in block order, so the task size, like the thread count, changes
# no bit of a result.
_TASK = 16


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


def _tasks(sample_count: int) -> list[range]:
    """The block indices of each task over a lane's first `sample_count` values."""
    blocks = -(-sample_count // _BLOCK)
    return [range(i, min(i + _TASK, blocks)) for i in range(0, blocks, _TASK)]


def _size(idx: int, sample_count: int) -> int:
    """The number of values in block `idx` of a lane's first `sample_count`."""
    return min(_BLOCK, sample_count - idx * _BLOCK)


def _workers(tasks: list[range]) -> int:
    """Threads for `tasks`: one per usable CPU, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, len(tasks))


def _ordered(work: Callable[[range], _T], tasks: list[range]) -> Iterator[_T]:
    """work(task) for each of `tasks`, yielded in order.

    The tasks run on `_workers` threads, with at most two tasks per
    worker started ahead of the one read next, so finished results
    cannot pile up. An error in a task is raised when that task is read,
    so the first failing task in order is the one reported; the tasks not
    yet started are then cancelled. No thread outlives the generator.
    With one worker the tasks run in the calling thread.
    """
    workers = _workers(tasks)
    if workers == 1:
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


def _term_rngs(master_seed: int, lane: int, idx: int, slots: tuple[int, ...]) -> list[np.random.Generator]:
    """One generator per slot of block `idx` of `lane`: slot j reads the
    block's stream, SeedSequence(master_seed; lane, idx), from its
    (j * 2**64)-th draw on. No slot, no seeding.

    A term draws at most a few values per sample, so the substreams
    never meet. A copy advanced by 2**64 costs under half as much as
    seeding a slot on its own.
    """
    if not slots:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(lane, idx)))
    return [rng if j == 0 else _ahead(rng, j << 64) for j in slots]


def _buffers(plan: _Plan, sample_count: int) -> tuple[np.ndarray, np.ndarray | None]:
    """A block of g for a lane's first `sample_count` values and, when a
    term is drawn through it, a block of scratch, both reused by a task."""
    g = np.empty(min(_BLOCK, sample_count))
    return g, np.empty(g.size) if len(plan.others) > (plan.sd == 0.0) else None


def _draw_block(
    plan: _Plan, master_seed: int, lane: int, idx: int, g: np.ndarray, scratch: np.ndarray | None
) -> np.ndarray:
    """Draw block `idx` of `lane` into g, whose size is the block's, and
    return g.

    The merged Normal is drawn straight into g (see `_Plan`); each other
    term draws from its own slot (see `_term_rngs`) into `scratch`, which
    is scaled and added (a coefficient of 1 skips the scaling, one of -1
    subtracts). Without a Normal term, the first other term is drawn
    straight into g, scaled there and shifted by the mean, with the bits
    that filling g with the mean and adding the term give. Each term
    draws the block as one batch (see `distributions`).
    Overflow is left to _finite_extrema, under the caller's np.errstate.
    """
    rngs = _term_rngs(master_seed, lane, idx, plan.slots)
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


def _block_g(plan: _Plan, master_seed: int, lane: int, idx: int, size: int) -> np.ndarray:
    """Block `idx` of `lane`, of `size` values, in a new array."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _draw_block(plan, master_seed, lane, idx, *_buffers(plan, size))


def _finite_extrema(g: np.ndarray, idx: int) -> tuple[float, float]:
    """Min and max of g, block `idx` of its lane, or ValueError if g is not
    finite. The error names the block and its stream positions.

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
    """Regenerate the exact g stream of simulate(), block by block, each in
    a new array that the caller may keep."""
    plan, n = _plan(model), config.sample_count
    for task in _tasks(n):
        for idx in task:
            yield _block_g(plan, config.master_seed, _LANE_MAIN, idx, _size(idx, n))


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


def _summarize_block(g: np.ndarray, idx: int, histograms: bool) -> _Partial:
    """The partial statistics of g, block `idx` of its lane.

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
            part.deficit_bins = histogram.log_linear(deficits)
        deficits -= part.deficit_sum / k
        part.deficit_m2 = float(np.square(deficits, out=deficits).sum())
    part.mean = float(g.mean())
    g -= part.mean
    part.m2 = float(np.square(g, out=g).sum())
    return part


def _task_partials(plan: _Plan, config: SimulationConfig, histograms: bool, task: range) -> list[_Partial]:
    """The partials of the blocks of `task`, drawn and reduced in order.

    Bin counts are exact, so the task merges its blocks' bins into its
    last partial; the float statistics are left for the ordered fold.
    """
    n, parts = config.sample_count, []
    g, scratch = _buffers(plan, n)
    g_bins = deficit_bins = None
    # np.errstate is per thread; non-finite g is reported by _finite_extrema
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in task:
            block = _draw_block(plan, config.master_seed, _LANE_MAIN, idx, g[: _size(idx, n)], scratch)
            part = _summarize_block(block, idx, histograms)
            g_bins, deficit_bins = histogram.merge(g_bins, part.g_bins), histogram.merge(deficit_bins, part.deficit_bins)
            part.g_bins = part.deficit_bins = None
            parts.append(part)
    parts[-1].g_bins, parts[-1].deficit_bins = g_bins, deficit_bins
    return parts


def simulate(model: LimitStateModel, config: SimulationConfig, histograms: bool = False) -> SimulationSummary:
    """Run the block-keyed Monte Carlo estimate of the g distribution.

    Tasks of blocks run in parallel (see `_ordered`) and every block
    partial is folded in block order, so the bits depend on neither the
    task size nor the number of threads. A sample variance of g that
    overflows raises ValueError after the last block.

    With `histograms`, each block is binned while it is held, and the
    summary carries `g_histogram` and `deficit_histogram`. Binning reads
    each block once more, which costs far less than regenerating it.
    """
    acc = _Partial()
    work = functools.partial(_task_partials, _plan(model), config, histograms)
    for parts in _ordered(work, _tasks(config.sample_count)):
        for part in parts:
            acc.fold(part)
    if not math.isfinite(acc.m2):
        # every g is finite, or a block would have stopped the run
        raise ValueError(
            f"the sample variance of g overflows over {acc.n} finite samples; "
            "a coefficient or parameter is too large"
        )
    return acc.summary(config)


def _pilot(plan: _Plan, master_seed: int, size: int) -> np.ndarray:
    """Block 0, of `size` values, of the calibration lane."""
    pilot = _block_g(plan, master_seed, _LANE_CALIBRATION, 0, size)
    _finite_extrema(pilot, 0)
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

    The sample is read block by block. Block 0 is a pilot: it brackets
    the k-th smallest value in a window [lo, hi] (see `_pilot_window`).
    Every block then counts its values below lo and keeps its values
    inside the window; tasks of blocks run in parallel and their parts
    fold in order (see `quantile.Window`), and the answer is the
    (k - below)-th smallest of the window. Each time the fold has seen
    twice as many values as when the window was last centred, the window
    is re-centred on the same ranks of the values seen so far,
    p * seen -/+ (_PILOT_Z * sqrt(p * (1 - p) * seen) + 1) for p = k / n,
    in the manner of Floyd and Rivest's sample-then-narrow selection
    (CACM 18(3), 1975). So the window holds about
    4 * _PILOT_Z * sqrt(p * (1 - p) * n) values at most, and memory is a
    few blocks per thread, the windows of the tasks in flight and the
    window: it grows with sqrt(n), not n. When the window misses, one
    more pass keeps only the side the rank fell on, cut to the values
    that can still be the answer. Every path gives the k-th smallest
    value exactly, whatever the task size or the number of threads.

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
    plan, n = _plan(model.with_shift(0.0)), config.sample_count
    k = math.ceil(expected_failures - 1e-9)
    p = k / n

    def task_window(win: Window, task: range) -> tuple[tuple[float, float], int, list[np.ndarray]]:
        # the bounds read when the task starts, how many of its values lie
        # below lo, and its values in [lo, hi], one array per block
        bounds = lo, hi = win.bounds
        below, inside = 0, []
        g, scratch = _buffers(plan, n)
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in task:
                block = _draw_block(plan, config.master_seed, _LANE_CALIBRATION, idx, g[: _size(idx, n)], scratch)
                _finite_extrema(block, idx)
                below += int(np.count_nonzero(block < lo))
                mask = lo <= block
                mask &= block <= hi
                inside.append(_gather(block, mask))
        return bounds, below, inside

    tasks = _tasks(n)
    # Cutting only past twice what the rank still needs spares the window
    # a join and a partition at every fold.
    win = Window(*_pilot_window(_pilot(plan, config.master_seed, _size(0, n)), p), k, slack=2)
    centred = _size(0, n)
    for task, part in zip(tasks, _ordered(functools.partial(task_window, win), tasks)):
        win.fold(*part)
        seen = min(task.stop * _BLOCK, n)
        if 2 * centred <= seen < n:
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
        for part in _ordered(functools.partial(task_window, win), tasks):
            win.fold(*part)
        value = win.select()
    return -value
