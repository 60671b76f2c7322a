"""The benchmark's three workloads.

Each workload builds its inputs (`prepare`), runs one study through the
entry point a user would call (`study`), and checks that study's outputs
against values computed without the engine (`check`). A traced study is
the same `study` call with the layers it reaches wrapped in spans (see
tracing.py).

Why these three:

* gaussian-20m: the cheapest sampler at a large sample count, so the
  per-sample overhead of chunk reduction, the ordered fold and the
  reservoir has its largest share; every metric has a closed form.
* rare-mixture-export: p_f near 2e-4 dominated by mixture sampling, with
  every output written, so the histogram pass is required; it is the
  workload on which beta_S is least precise per second.
* dense-calibrated: shift calibration over the whole stream and ~2M
  failures, so the stored-deficit cap is reached and the bootstrap runs
  at its largest size; it has the highest peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import inspect
import io
import json
import math
import os

import numpy as np
from scipy.special import ndtr

from sevrel import cli, gaussian, scenarios
from sevrel.metrics import build_report
from sevrel.report import model_document

CHUNK = 1_000_000
RESAMPLES = inspect.signature(build_report).parameters["bootstrap_resamples"].default
# Statistical checks allow this many standard errors; a correct program
# then fails a given check about once in 1.7 million studies.
SE_LIMIT = 5.0
# time_to_precision_s projects the run length at which beta_S has this
# 95% half-width.
TARGET_HALF_WIDTH = 0.05


@dataclasses.dataclass
class Outcome:
    """What the checks found in one study's outputs."""

    problems: list[str]
    half_width: float | None = None
    report: bytes | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def beta_s_half_width(ci) -> float:
    """Half the width of the beta_S interval mapped from the E_f* interval.

    The deficit map is decreasing, so the upper E_f* endpoint gives the
    lower beta_S endpoint; an endpoint at or past the Gaussian endpoint
    maps to index 0, the limit of the map there.
    """
    lo, hi = ci
    upper = gaussian.invert_deficit(lo)
    lower = 0.0 if hi >= gaussian.DEFICIT_ENDPOINT else gaussian.invert_deficit(hi)
    return 0.5 * (upper - lower)


def _upper_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _within(problems: list[str], name: str, value, expected: float, se: float) -> None:
    if value is None or not abs(value - expected) <= SE_LIMIT * se:
        problems.append(
            f"{name} = {value!r}, expected {expected!r} within {SE_LIMIT:g} x {se:.3g}"
        )


def _csv_count_total(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(int(row["count"]) for row in csv.DictReader(fh))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    full_samples = 0

    def __init__(self, workdir: str, scale: float):
        self.workdir = workdir
        self.n = max(1, round(self.full_samples * scale))

    def prepare(self) -> None:
        """Build the inputs a user would hand to the entry point."""
        raise NotImplementedError

    def study(self, seed: int):
        """Run one study through the entry point; the timed part."""
        raise NotImplementedError

    def check(self, seed: int, handle, keep_report: bool = False) -> Outcome:
        """Check one study's outputs; keep_report returns its report JSON bytes."""
        raise NotImplementedError

    def model_config_path(self) -> str:
        """A config file holding this workload's model, for config.load_config_ms."""
        path = os.path.join(self.workdir, f"{self.name}.json")
        doc = {
            "model": model_document(self.scenario.model),
            "simulation": {"sampleCount": self.n, "masterSeed": 0, "chunkSize": CHUNK},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        return path


@contextlib.contextmanager
def _recording_cli_run():
    """Keep the ScenarioResult that `sevrel scenario` computes.

    The command prints its graded checks but not the E_f* interval that
    time_to_precision_s needs, so the `run` the CLI calls is wrapped for
    the duration of the call; the timed call is still the CLI's own.
    """
    results = []
    original = cli.run

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    cli.run = recording
    try:
        yield results
    finally:
        cli.run = original


class Gaussian20m(Workload):
    """`sevrel scenario example1-gaussian --n 20000000`, in process, no export."""

    name = "gaussian-20m"
    full_samples = 20_000_000
    scenario_id = "example1-gaussian"
    # capacity N(10, 1) against demand N(5, 1.5): g is N(5, sqrt(3.25))
    beta = 5.0 / math.sqrt(1.0 + 1.5 * 1.5)

    def prepare(self) -> None:
        self.scenario = scenarios.builtin(self.scenario_id)

    def study(self, seed: int):
        argv = ["scenario", self.scenario_id, "--n", str(self.n), "--seed", str(seed)]
        out = io.StringIO()
        with _recording_cli_run() as results, contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue(), results

    def check(self, seed: int, handle, keep_report: bool = False) -> Outcome:
        code, text, results = handle
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0: a closed-form check failed")
        if len(results) != 1:
            return Outcome(problems + [f"expected one scenario result, saw {len(results)}"])
        result = results[0]
        rep = result.report
        if (result.config.master_seed, result.config.sample_count) != (seed, self.n):
            problems.append(f"ran {result.config}, expected seed {seed} and n {self.n}")

        b = self.beta
        pf = _upper_tail(b)
        pf_se = math.sqrt(pf * (1.0 - pf) / self.n)
        ef_star = _pdf(b) / pf - b
        # Var(Z - b | Z > b) for standard normal Z, which is also -F'(b)
        excess_var = 1.0 - b * ef_star - ef_star * ef_star
        ef_se = math.sqrt(excess_var / (pf * self.n))
        _within(problems, "pf", rep.pf, pf, pf_se)
        _within(problems, "beta", rep.beta, b, pf_se / _pdf(b))
        _within(problems, "efStar", rep.ef_star, ef_star, ef_se)
        _within(problems, "betaS", rep.beta_s, b, ef_se / excess_var)

        printed = {}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[0] in ("beta", "efStar", "betaS"):
                printed[parts[0]] = parts[2]
        for metric, value in (("beta", rep.beta), ("efStar", rep.ef_star), ("betaS", rep.beta_s)):
            if value is None or printed.get(metric) != f"{value:.6g}":
                problems.append(f"printed {metric} {printed.get(metric)!r} differs from the result's {value!r}")

        if rep.ef_star_ci is None:
            return Outcome(problems + ["no efStarCI"])
        report = None
        if keep_report:
            path = os.path.join(self.workdir, "report.json")
            scenarios.export_result(result, "report-json", path)
            report = _read(path)
        return Outcome(problems, beta_s_half_width(rep.ef_star_ci), report)


# case-study inputs, spelled the way a user writes them in a config
_RESISTANCE_MEDIAN, _RESISTANCE_COV = 1520.0, 0.10
_DEAD = (-1.2, 500.0, 50.0)
_LIVE_COEFFICIENT = -1.6
_LIVE = ((0.9995, 150.0, 30.0), (0.0005, 500.0, 30.0))


def rare_mixture_pf() -> float:
    """P(R < 1.2 D + 1.6 L) for the case-study inputs, by quadrature.

    Uses no sevrel code. The inner expectation over the normal dead load
    is 96-node Gauss-Hermite; the outer integral over each Gumbel live
    load component is the trapezoid rule on a grid of 16001 points over
    [location - 8 scale, location + 60 scale]. Halving the nodes or
    quadrupling the grid changes the result by less than 1e-15.
    """
    mu = math.log(_RESISTANCE_MEDIAN)
    s = math.sqrt(math.log1p(_RESISTANCE_COV**2))
    coef_d, mean_d, sd_d = _DEAD
    z, w = np.polynomial.hermite_e.hermegauss(96)
    w = w / math.sqrt(2.0 * math.pi)

    def below_resistance(load: np.ndarray) -> np.ndarray:
        # P(R < load - coef_d * D), averaged over D
        x = load[:, None] - coef_d * (mean_d + sd_d * z)
        safe = np.where(x > 0.0, x, 1.0)
        p = np.where(x > 0.0, ndtr((np.log(safe) - mu) / s), 0.0)
        return p @ w

    pf = 0.0
    for weight, loc, scale in _LIVE:
        live = np.linspace(loc - 8.0 * scale, loc + 60.0 * scale, 16001)
        t = (live - loc) / scale
        density = np.exp(-(t + np.exp(-t))) / scale
        pf += weight * np.trapezoid(density * below_resistance(-_LIVE_COEFFICIENT * live), live)
    return float(pf)


class RareMixtureExport(Workload):
    """`sevrel simulate` on a case-study config that writes every output."""

    name = "rare-mixture-export"
    full_samples = 10_000_000

    def prepare(self) -> None:
        self.outputs = {
            "reportJson": os.path.join(self.workdir, "report.json"),
            "histogramCsv": os.path.join(self.workdir, "g-histogram.csv"),
            "deficitCsv": os.path.join(self.workdir, "deficit-histogram.csv"),
        }
        components = [
            {"weight": wgt, "distribution": {"kind": "gumbel", "location": loc, "scale": sc}}
            for wgt, loc, sc in _LIVE
        ]
        doc = {
            "model": {
                "terms": [
                    {"name": "resistance", "coefficient": 1.0,
                     "distribution": {"kind": "lognormal", "median": _RESISTANCE_MEDIAN, "cov": _RESISTANCE_COV}},
                    {"name": "dead", "coefficient": _DEAD[0],
                     "distribution": {"kind": "normal", "mean": _DEAD[1], "stddev": _DEAD[2]}},
                    {"name": "live", "coefficient": _LIVE_COEFFICIENT,
                     "distribution": {"kind": "mixture", "components": components}},
                ]
            },
            "simulation": {"sampleCount": self.n, "masterSeed": 0, "chunkSize": CHUNK},
            "output": self.outputs,
        }
        self.config_path = os.path.join(self.workdir, f"{self.name}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    @functools.cached_property
    def reference_pf(self) -> float:
        return rare_mixture_pf()

    def study(self, seed: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["simulate", self.config_path, "--seed", str(seed)])

    def check(self, seed: int, handle, keep_report: bool = False) -> Outcome:
        code = handle
        if code != 0:
            return Outcome([f"exit code {code}, expected 0"])
        report = _read(self.outputs["reportJson"])
        doc = json.loads(report)
        problems = []
        sim, summary, m = doc["simulation"], doc["summary"], doc["metrics"]
        if (sim["masterSeed"], sim["sampleCount"]) != (seed, self.n):
            problems.append(f"report is for seed {sim['masterSeed']} n {sim['sampleCount']}")
        n, failures = summary["n"], summary["failureCount"]
        if m["pf"] != failures / n:
            problems.append(f"pf {m['pf']!r} is not failureCount / n = {failures / n!r}")
        ref = self.reference_pf
        _within(problems, "pf", m["pf"], ref, math.sqrt(ref * (1.0 - ref) / self.n))
        g_total = _csv_count_total(self.outputs["histogramCsv"])
        if g_total != n:
            problems.append(f"g histogram holds {g_total} samples, expected {n}")
        d_total = _csv_count_total(self.outputs["deficitCsv"])
        if d_total != failures:
            problems.append(f"deficit histogram holds {d_total} failures, expected {failures}")
        if m["efStarCI"] is None:
            return Outcome(problems + ["no efStarCI"])
        return Outcome(problems, beta_s_half_width(m["efStarCI"]), report if keep_report else None)

    def model_config_path(self) -> str:
        return self.config_path


class DenseCalibrated(Workload):
    """`scenarios.run` on scenarioA calibrated to p_f = 0.25, then a report-json export."""

    name = "dense-calibrated"
    full_samples = 8_000_000
    calibrate_pf = 0.25

    def prepare(self) -> None:
        p = self.calibrate_pf
        # calibration and simulation draw independent samples, so the
        # achieved rate carries the binomial error of both
        self.pf_se = math.sqrt(2.0 * p * (1.0 - p) / self.n)
        self.scenario = dataclasses.replace(
            scenarios.builtin("scenarioA"),
            scenario_id="bench-dense-calibrated",
            title="Calibrated to a dense failure rate",
            sample_count=self.n,
            chunk_size=CHUNK,
            calibrate_pf=p,
            expectations=(scenarios.Expectation("pf", p, SE_LIMIT * self.pf_se, "target"),),
        )
        self.report_path = os.path.join(self.workdir, "report.json")

    def study(self, seed: int):
        result = scenarios.run(self.scenario, master_seed=seed)
        scenarios.export_result(result, "report-json", self.report_path)
        return result

    def check(self, seed: int, handle, keep_report: bool = False) -> Outcome:
        result = handle
        report = _read(self.report_path)
        doc = json.loads(report)
        problems = []
        sim, m = doc["simulation"], doc["metrics"]
        if (sim["masterSeed"], sim["sampleCount"]) != (seed, self.n):
            problems.append(f"report is for seed {sim['masterSeed']} n {sim['sampleCount']}")
        _within(problems, "pf", m["pf"], self.calibrate_pf, self.pf_se)
        if m["efStar"] is None or m["betaS"] != gaussian.invert_deficit(m["efStar"]):
            problems.append(f"betaS {m['betaS']!r} is not invert_deficit(efStar {m['efStar']!r})")
        if not result.all_passed:
            problems.append("scenario expectations failed")
        if m["efStarCI"] is None:
            return Outcome(problems + ["no efStarCI"])
        return Outcome(problems, beta_s_half_width(m["efStarCI"]), report if keep_report else None)


WORKLOADS = {w.name: w for w in (Gaussian20m, RareMixtureExport, DenseCalibrated)}
