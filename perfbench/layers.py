"""Direct measurements of single layers, outside any study.

Each is the median of REPEATS timed calls after one untimed call.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from sevrel import gaussian
from sevrel.config import load_config
from sevrel.distributions import Gumbel, Mixture, Normal, lognormal_from_median_cov
from sevrel.engine import calibrate_shift, g_chunks

REPEATS = 5

# One member of each family the workloads sample, with case-study parameters.
FAMILIES = {
    "normal": Normal(500.0, 50.0),
    "lognormal": lognormal_from_median_cov(1520.0, 0.10),
    "gumbel": Gumbel(150.0, 30.0),
    "mixture": Mixture(((0.9995, Gumbel(150.0, 30.0)), (0.0005, Gumbel(500.0, 30.0)))),
}

# Kernel arguments: 200 indices on both sides of the continued-fraction
# switch at b = 8.
KERNEL_INDICES = tuple(0.1 + 0.06 * k for k in range(200))


def _median_seconds(call, repeats: int = REPEATS) -> float:
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def g_chunks_seconds(model, config) -> float:
    """One full g_chunks pass: sampling and summing the terms, no reduction."""
    t0 = time.perf_counter()
    for _ in g_chunks(model, config):
        pass
    return time.perf_counter() - t0


def sample_ns(chunk: int, seed: int) -> dict[str, float]:
    """Nanoseconds per sample of each family, drawn a chunk at a time."""
    rng = np.random.default_rng(seed)
    return {
        name: _median_seconds(lambda d=dist: d.sample(rng, chunk)) / chunk * 1e9
        for name, dist in FAMILIES.items()
    }


def kernel_us() -> tuple[float, float]:
    """Microseconds per call of deficit and invert_deficit on KERNEL_INDICES."""
    deficits = [gaussian.deficit(b) for b in KERNEL_INDICES]
    n = len(KERNEL_INDICES)

    def forward():
        for b in KERNEL_INDICES:
            gaussian.deficit(b)

    def inverse():
        for y in deficits:
            gaussian.invert_deficit(y)

    return _median_seconds(forward) / n * 1e6, _median_seconds(inverse) / n * 1e6


def load_config_ms(path: str, calls: int = 50) -> float:
    return _median_seconds(lambda: [load_config(path) for _ in range(calls)]) / calls * 1e3


def calibrate_seconds(model, target_pf: float, config) -> float:
    return _median_seconds(lambda: calibrate_shift(model, target_pf, config))


def calibrate_peak_mb(model, target_pf: float, config) -> float:
    """tracemalloc peak of one calibrate_shift call, in MiB.

    Kept apart from the timed calls, because tracing allocations slows them.
    """
    tracemalloc.start()
    try:
        calibrate_shift(model, target_pf, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
