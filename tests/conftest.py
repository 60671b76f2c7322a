import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from sevrel import engine
from sevrel.scenarios import builtin, run


@pytest.fixture
def task(monkeypatch):
    """Run every call in tasks of the given number of blocks, for one test.

    Block partials fold in block order whatever the task size, so no
    result changes; a small task gives a test many tasks, and so many
    threads at work and many folds, cheaply.
    """
    return lambda blocks: monkeypatch.setattr(engine, "_TASK", blocks)


@pytest.fixture(scope="session")
def scenario_cache():
    """Memoized full-pipeline scenario runs, shared across test modules.

    Scenario runs are deterministic in (id, seed, n), so caching them is
    safe and keeps the suite from re-simulating the same 5e6 samples.
    `histograms` bins the run, for a test that reads its histograms.
    """
    cache = {}

    def get(scenario_id, master_seed=None, sample_count=None, histograms=False):
        key = (scenario_id, master_seed, sample_count, histograms)
        if key not in cache:
            cache[key] = run(
                builtin(scenario_id),
                master_seed=master_seed,
                sample_count=sample_count,
                histograms=histograms,
            )
        return cache[key]

    return get


# numpy's dispatch targets that use AVX-512
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.fixture
def rerun_without_avx512(request):
    """Run every other test of the calling test's file again, in a process
    with numpy's AVX-512 kernels off: the other SIMD dispatch path, whose
    float64 log, exp and power differ in the last bit. Skips on a CPU
    without AVX-512, where every run is already on that path."""
    if not __cpu_features__.get("AVX512F"):
        pytest.skip("no AVX-512 kernels to turn off")

    def rerun():
        off = " ".join(t for t in AVX512_TARGETS if __cpu_features__.get(t))
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(request.path),
             "-k", f"not {request.node.name}"],
            cwd=request.config.rootpath,
            env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=off),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == 0, child.stdout + child.stderr

    return rerun
