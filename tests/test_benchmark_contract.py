"""What the benchmark harness under perfbench/ uses of the program.

The harness wraps public functions by module and name for its traced
run and reads a few more directly, so renaming or moving one breaks
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from sevrel.config import load_config
from sevrel.distributions import Normal
from sevrel.engine import LimitStateModel, SimulationConfig, Term, simulate
from sevrel.metrics import build_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """Import perfbench/<name>.py under a name that cannot clash."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load("tracing").LAYERS
    assert layers
    for module_name, attr, _span in layers:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is gone"


def test_direct_layer_probes_import():
    layers = load("layers")
    assert callable(layers.g_chunks) and callable(layers.calibrate_shift)


def test_build_report_keeps_bootstrap_resamples():
    # perfbench/workloads.py reads this parameter's default at import
    assert "bootstrap_resamples" in inspect.signature(build_report).parameters
    assert load("workloads").RESAMPLES is not None


def test_simulation_summary_keeps_traced_counts():
    # perfbench/tracing.py reads these on every simulate() span
    from sevrel.engine import SimulationSummary

    for field in ("n", "failure_count", "failure_deficits"):
        assert field in SimulationSummary.__dataclass_fields__


# The harness still names the fixed 1M-value segment length as a chunk
# size in three places; each is checked here through the harness's own
# code, so removing one before the harness changes fails this suite.


def test_every_workload_prepares_and_its_config_loads(tmp_path):
    # dense-calibrated's prepare() sets Scenario.chunk_size; every config
    # file sets simulation.chunkSize, and rare-mixture-export's is the one
    # its study runs
    workloads = load("workloads")
    for cls in (workloads.Gaussian20m, workloads.RareMixtureExport, workloads.DenseCalibrated):
        wl = cls(str(tmp_path), 1e-4)
        wl.prepare()
        assert load_config(wl.model_config_path())[0].sample_count == wl.n


def test_traced_simulate_counts_read_the_config():
    cfg = SimulationConfig(sample_count=2_500_000, master_seed=0)
    summary = simulate(LimitStateModel(terms=(Term("x", 1.0, Normal(1.0, 1.0)),)), cfg)
    counts = load("tracing")._simulate_counts({"config": cfg}, summary)
    assert counts["samples"] == 2_500_000 and counts["chunks"] == 3
    assert counts["failures"] == summary.failure_count and counts["stored_deficits"] == 0


# The gated workloads call the program through these entry points; each
# is run here through the harness's own code, at a small sample count.


def test_gaussian_20m_gets_one_result_from_the_cli_run(tmp_path):
    # the study wraps cli.run and needs exactly one result from
    # cli.main(["scenario", ...]); the scenario's own checks, and so the
    # exit code 0, are sized for its default 5M samples
    wl = load("workloads").Gaussian20m(str(tmp_path), 0.25)
    wl.prepare()
    code, _text, results = handle = wl.study(0)
    assert code == 0 and len(results) == 1
    assert wl.check(0, handle).ok


def test_dense_calibrated_runs_and_exports_a_replaced_scenario(tmp_path):
    # dataclasses.replace on scenarioA (chunk_size, calibrate_pf, ...), then
    # scenarios.run and export_result(result, "report-json", path)
    wl = load("workloads").DenseCalibrated(str(tmp_path), 0.01)
    wl.prepare()
    assert wl.scenario.chunk_size == 1_000_000 and wl.scenario.calibrate_pf == 0.25
    result = wl.study(0)
    assert result.calibrated_shift is not None
    assert wl.check(0, result).ok
