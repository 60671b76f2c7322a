import pytest

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
