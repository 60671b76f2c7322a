"""Limit state models and the chunked Monte Carlo engine.

A limit state is a linear combination of independent input variables,
g = sum(coefficient_i * X_i) + shift, with failure defined as g < 0.
Simulation is chunked: chunk i draws from an independent substream
derived from (master_seed, i), partial statistics are merged in
ascending chunk order with the pairwise update, and the result is
bit-identical for a fixed (master seed, chunk size) no matter how many
worker threads executed the chunks. Changing the chunk size changes the
substream layout and therefore the sample.

Per-run bookkeeping kept exactly: failure count, failure deficit sum and
extrema, and global min/max of g. Two bounded samples are retained for
robust diagnostics, both prefixes of the stream: the first
`failure_reservoir_cap` failure deficits and the first
`robust_subsample_cap` values of g. The g values are iid and failures
are exchangeable, so a prefix is already a uniform sample; each chunk
cuts its own share of the prefix, and the ordered merge concatenates
the shares, so no extra random numbers are drawn. A chunk whose g is
not finite (NaN, or an overflow to inf) stops the run with an error
that names the chunk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

import numpy as np

from .distributions import Distribution, MomentReport

__all__ = [
    "Term",
    "LimitStateModel",
    "SimulationConfig",
    "SimulationSummary",
    "RobustScales",
    "model_moments",
    "simulate",
    "g_chunks",
    "calibrate_shift",
    "robust_scales",
]

# Substream lanes, kept disjoint by the leading spawn-key coordinate.
# Lanes 1 and 2 are unused; renumbering lane 3 would change the
# calibration stream.
_LANE_MAIN = 0
_LANE_CALIBRATION = 3


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

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate g at one point; raises KeyError on a missing name."""
        total = self.shift
        for t in self.terms:
            if t.name not in values:
                raise KeyError(f"no value supplied for term {t.name!r}")
            total += t.coefficient * values[t.name]
        return total

    def with_shift(self, shift: float) -> "LimitStateModel":
        return replace(self, shift=float(shift))


def model_moments(model: LimitStateModel) -> MomentReport:
    """Analytic mean/variance of g from the term moments (independence).

    A term whose own variance is infinite makes the variance of g
    infinite. A finite term variance that overflows once scaled by the
    squared coefficient, or in the running sum, raises ValueError naming
    the term: an overflow is not an infinite variance.
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
    return MomentReport(mean, variance)


@dataclass(frozen=True)
class SimulationConfig:
    sample_count: int
    master_seed: int
    chunk_size: int
    failure_reservoir_cap: int = 1_000_000
    robust_subsample_cap: int = 100_000

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.failure_reservoir_cap < 1 or self.robust_subsample_cap < 1:
            raise ValueError("reservoir caps must be at least 1")
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
    deficit_min: float | None
    deficit_max: float | None
    failure_deficits: np.ndarray
    robust_subsample: np.ndarray
    config: SimulationConfig

    @property
    def pf(self) -> float:
        return self.failure_count / self.n


@dataclass(frozen=True)
class RobustScales:
    mad: float
    iqr: float
    conditional_std: float | None


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
    # is part of the reproducibility contract.
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
    """Regenerate the exact g stream of simulate(), chunk by chunk.

    Useful for second passes (histogram binning) that need the full
    sample without retaining it in the summary.
    """
    for idx, size in _chunk_layout(config):
        yield _chunk_g(model, config.master_seed, _LANE_MAIN, idx, size)


@dataclass
class _ChunkPartial:
    n: int
    mean: float
    m2: float
    min_g: float
    max_g: float
    deficits: np.ndarray
    head: np.ndarray  # this chunk's share of the robust subsample prefix


def _summarize_chunk(model: LimitStateModel, config: SimulationConfig, idx: int, size: int) -> _ChunkPartial:
    g = _chunk_g(model, config.master_seed, _LANE_MAIN, idx, size)
    min_g, max_g = _finite_extrema(g, idx, config)
    mean = float(g.mean())
    centred = g - mean
    m2 = float(np.square(centred, out=centred).sum())
    deficits = -g[g < 0.0]
    # chunk idx starts at stream position idx * chunk_size; copy the head
    # so the partial does not pin the whole chunk
    head = g[: max(0, config.robust_subsample_cap - idx * config.chunk_size)].copy()
    return _ChunkPartial(
        n=size,
        mean=mean,
        m2=m2,
        min_g=min_g,
        max_g=max_g,
        deficits=deficits,
        head=head,
    )


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
        self.deficit_min = math.inf
        self.deficit_max = -math.inf
        self.deficit_store: list[np.ndarray] = []
        self.deficit_stored = 0
        self.heads: list[np.ndarray] = []

    def fold(self, p: _ChunkPartial) -> None:
        n = self.n + p.n
        delta = p.mean - self.mean
        self.mean += delta * (p.n / n)
        self.m2 += p.m2 + delta * delta * (self.n * p.n / n)
        self.n = n

        self.min_g = min(self.min_g, p.min_g)
        self.max_g = max(self.max_g, p.max_g)

        d = p.deficits
        self.failure_count += d.size
        if d.size:
            self.deficit_sum += float(d.sum())
            self.deficit_min = min(self.deficit_min, float(d.min()))
            self.deficit_max = max(self.deficit_max, float(d.max()))
            room = self.config.failure_reservoir_cap - self.deficit_stored
            if room > 0:
                kept = d[:room]
                self.deficit_store.append(kept)
                self.deficit_stored += kept.size

        # chunks past the cap hold no share; skipping them keeps memory
        # independent of the chunk count
        if p.head.size:
            self.heads.append(p.head)

    def finish(self) -> SimulationSummary:
        has_fail = self.failure_count > 0
        stored = (
            np.concatenate(self.deficit_store) if self.deficit_store else np.empty(0)
        )
        return SimulationSummary(
            n=self.n,
            mean_g=self.mean,
            var_g=self.m2 / (self.n - 1) if self.n > 1 else math.nan,
            min_g=self.min_g,
            max_g=self.max_g,
            failure_count=self.failure_count,
            deficit_sum=self.deficit_sum,
            deficit_min=self.deficit_min if has_fail else None,
            deficit_max=self.deficit_max if has_fail else None,
            failure_deficits=stored,
            robust_subsample=np.concatenate(self.heads),
            config=self.config,
        )


def _thread_budget(requested: int | None) -> int:
    threads = 1 if requested is None else max(1, int(requested))
    cap = os.environ.get("SEVREL_THREADS")
    if cap is not None:
        try:
            threads = min(threads, max(1, int(cap)))
        except ValueError:
            pass
    return threads


def simulate(
    model: LimitStateModel,
    config: SimulationConfig,
    threads: int | None = None,
) -> SimulationSummary:
    """Run the chunked Monte Carlo estimate of the g distribution.

    `threads` is an upper bound on concurrent chunk evaluation, further
    capped by the SEVREL_THREADS environment variable; the default is one
    thread. Threading is a library setting only: the command line always
    runs on one thread. The answer does not depend on it: chunks are
    folded strictly in index order.
    """
    layout = _chunk_layout(config)
    acc = _Accumulator(config)

    def summarize(chunk: tuple[int, int]) -> _ChunkPartial:
        return _summarize_chunk(model, config, *chunk)

    threads = _thread_budget(threads)
    if threads == 1:
        for p in map(summarize, layout):
            acc.fold(p)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for p in pool.map(summarize, layout):
                acc.fold(p)
    return acc.finish()


def calibrate_shift(
    model: LimitStateModel,
    target_pf: float,
    config: SimulationConfig,
) -> float:
    """Shift c such that the model with shift c hits target_pf empirically.

    Draws one calibration sample of g with shift forced to zero on a
    dedicated substream lane, then returns c = -(k-th smallest g) with
    k = ceil(target_pf * n). On the calibration sample itself the shifted
    failure fraction then matches target_pf to within 1/n. The sample is
    read chunk by chunk and only the k smallest values seen so far are
    kept, so memory is O(k + chunk_size), not O(n).

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
    kept = np.empty(0)
    for idx, size in _chunk_layout(config):
        g = _chunk_g(base, config.master_seed, _LANE_CALIBRATION, idx, size)
        _finite_extrema(g, idx, config)
        if kept.size == k:
            # a value at or above the current k-th smallest cannot move it
            g = g[g < kept.max()]
        kept = np.concatenate((kept, g))
        if kept.size > k:
            kept = np.partition(kept, k - 1)[:k]
    return -float(kept.max())


def robust_scales(summary: SimulationSummary) -> RobustScales:
    """MAD and IQR of the robust g subsample, plus the deficit spread.

    conditional_std is the sample standard deviation of the stored
    failure deficits, or None when fewer than two are stored.
    """
    sub = summary.robust_subsample
    if sub.size < 2:
        raise ValueError("robust scales need at least two retained samples")
    med = float(np.median(sub))
    mad = float(np.median(np.abs(sub - med)))
    q25, q75 = np.percentile(sub, [25.0, 75.0])
    stored = summary.failure_deficits
    conditional_std = float(np.std(stored, ddof=1)) if stored.size >= 2 else None
    return RobustScales(mad=mad, iqr=float(q75 - q25), conditional_std=conditional_std)
