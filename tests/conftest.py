import pytest

from sevrel.scenarios import builtin, run


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
