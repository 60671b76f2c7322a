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
