"""Reliability studies, and the one pipeline that runs them.

A study bundles a limit-state model, simulation defaults, an optional
assessment and the values its result is checked against: reported
reference numbers, closed-form values of the chosen parameterization,
or calibration targets. `run` executes the pipeline (optional shift
calibration, analytic moments, simulation, severity metrics, assessment)
and grades every expectation; `write_outputs` renders and writes the
report JSON and the CSVs. `sevrel scenario` runs a built-in study, and
`sevrel simulate` a config file: a study without an id or expectations.
The histograms of g and of the failure deficits are binned during the
simulation when `run` is asked for them; a result that was not binned
refuses to hand out or export histograms.

The three "figure-grid" studies exist to emit histogram data for the
classic three-row picture (Gaussian, mild non-Gaussian, heavy-tailed);
their expectations are by-construction values, not reported ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    Gumbel,
    Lognormal,
    Mixture,
    Normal,
    Pareto,
    lognormal_from_median_cov,
)
from .engine import (
    LimitStateModel,
    SimulationConfig,
    SimulationSummary,
    Term,
    calibrate_shift,
    model_moments,
    simulate,
)
from . import report as rep
from .gaussian import deficit, invert_deficit, norm_cdf
from .histogram import Histogram
from .metrics import (
    DEFAULT_MAX_LEVEL,
    MomentReport,
    SeverityLevel,
    SeverityReport,
    WorkflowDecision,
    assess,
    build_report,
)

__all__ = [
    "Expectation",
    "ExpectationCheck",
    "Histogram",
    "Scenario",
    "ScenarioResult",
    "OutputPaths",
    "SCENARIO_IDS",
    "builtin",
    "run",
    "collect_histograms",
    "write_outputs",
    "export_result",
]

@dataclass(frozen=True)
class Expectation:
    """One graded check: a metric, its expected value, and a tolerance.

    tolerance=None means exact equality (labels, flags, booleans).
    provenance says where the expected value comes from: "reference"
    (reported result), "analytic" (closed form of this very model),
    "target" (calibration goal), or "construction" (holds by design).
    """

    metric: str
    expected: float | str | bool
    tolerance: float | None
    provenance: str


@dataclass(frozen=True)
class ExpectationCheck:
    metric: str
    expected: float | str | bool
    computed: float | str | bool | None
    tolerance: float | None
    passed: bool
    provenance: str


@dataclass(frozen=True)
class Scenario:
    """A study; scenario_id is None for a config file, which has no expectations."""

    scenario_id: str | None
    title: str
    description: str
    model: LimitStateModel
    sample_count: int
    expectations: tuple[Expectation, ...]
    calibrate_pf: float | None = None
    beta_target: float | None = None
    max_acceptable_level: SeverityLevel = DEFAULT_MAX_LEVEL
    default_seed: int = 0
    # no longer describes the stream, which is keyed per block; kept only
    # because the benchmark harness sets it
    chunk_size: int = 1_000_000

    def __post_init__(self):
        if self.chunk_size != 1_000_000:
            raise ValueError(f"chunk_size must be 1000000; got {self.chunk_size!r}")

    def config(
        self, master_seed: int | None = None, sample_count: int | None = None
    ) -> SimulationConfig:
        return SimulationConfig(
            sample_count=self.sample_count if sample_count is None else sample_count,
            master_seed=self.default_seed if master_seed is None else master_seed,
        )


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    model: LimitStateModel
    config: SimulationConfig
    moments: MomentReport
    summary: SimulationSummary
    report: SeverityReport
    decision: WorkflowDecision | None
    calibrated_shift: float | None
    checks: tuple[ExpectationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def g_histogram(self) -> Histogram:
        """Histogram of g, as binned by run(histograms=True)."""
        return collect_histograms(self.summary)[0]

    @property
    def deficit_histogram(self) -> Histogram | None:
        """Histogram of the failure deficits, or None without failures."""
        return collect_histograms(self.summary)[1]


def _expectation_value(name: str, report: SeverityReport, moments: MomentReport):
    if name == "pf":
        return report.pf
    if name == "beta":
        return report.beta
    if name == "efStar":
        return report.ef_star
    if name == "betaS":
        return report.beta_s
    if name == "betaSDefined":
        return report.beta_s is not None
    if name == "betaSAboveBeta":
        if report.beta_s is None or report.beta is None:
            return False
        return report.beta_s > report.beta
    if name == "betaSNearBeta":
        if report.beta_s is None or report.beta is None:
            return None
        return abs(report.beta_s - report.beta)
    if name == "level":
        return report.level.label if report.level is not None else None
    if name == "extremeFlag":
        return report.extreme_flag.value if report.extreme_flag is not None else "none"
    if name == "analyticVarianceFinite":
        return moments.variance_finite
    raise ValueError(f"unknown expectation metric {name!r}")


def _grade(exp: Expectation, report: SeverityReport, moments: MomentReport) -> ExpectationCheck:
    value = _expectation_value(exp.metric, report, moments)
    if exp.tolerance is None:
        passed = value == exp.expected
    else:
        passed = value is not None and abs(value - exp.expected) <= exp.tolerance
    return ExpectationCheck(exp.metric, exp.expected, value, exp.tolerance, passed, exp.provenance)


def collect_histograms(summary: SimulationSummary) -> tuple[Histogram, Histogram | None]:
    """Histograms of g and of the failure deficits (None without failures),
    as simulate() binned them during the run.

    Raises ValueError for a summary that was not binned, one whose
    g_histogram is None.
    """
    if summary.g_histogram is None:
        raise ValueError(
            "this run was not binned; pass histograms=True to simulate() or run() "
            "to read or export its histograms"
        )
    return summary.g_histogram, summary.deficit_histogram


def run(
    scenario: Scenario,
    master_seed: int | None = None,
    sample_count: int | None = None,
    histograms: bool = False,
) -> ScenarioResult:
    """Run the study and grade it; `histograms` bins g and the deficits
    during the simulation, for a caller that will write them. A variance
    of g that overflows or is 0 raises ValueError before any sampling:
    the variance does not depend on the shift, so it is checked before
    the shift is calibrated."""
    config = scenario.config(master_seed=master_seed, sample_count=sample_count)
    model = scenario.model
    moments = model_moments(model)
    shift = None
    if scenario.calibrate_pf is not None:
        shift = calibrate_shift(model, scenario.calibrate_pf, config)
        model = model.with_shift(shift)
        moments = model_moments(model)
    summary = simulate(model, config, histograms=histograms)
    report = build_report(summary, moments)
    decision = None
    if scenario.beta_target is not None and report.failure_count:
        decision = assess(report, scenario.beta_target, scenario.max_acceptable_level)
    checks = tuple(_grade(e, report, moments) for e in scenario.expectations)
    return ScenarioResult(
        scenario=scenario,
        model=model,
        config=config,
        moments=moments,
        summary=summary,
        report=report,
        decision=decision,
        calibrated_shift=shift,
        checks=checks,
    )


@dataclass(frozen=True)
class OutputPaths:
    """The files `write_outputs` writes; None skips one."""

    report_json: str | None = "report.json"
    histogram_csv: str | None = None
    deficit_csv: str | None = None
    fcurve_csv: str | None = None


def write_outputs(result: ScenarioResult, paths: OutputPaths) -> None:
    """Write every output `paths` names, the report JSON first; a None
    path is skipped. The histogram CSVs need a binned result."""
    if paths.report_json is not None:
        rep.write_text(paths.report_json, rep.render_json(rep.simulation_document(result)))
    if paths.histogram_csv is not None or paths.deficit_csv is not None:
        g_hist, d_hist = collect_histograms(result.summary)
        if paths.histogram_csv is not None:
            rep.write_text(paths.histogram_csv, rep.histogram_csv(g_hist))
        if paths.deficit_csv is not None:
            rep.write_text(paths.deficit_csv, rep.histogram_csv(d_hist))
    if paths.fcurve_csv is not None:
        rep.write_text(paths.fcurve_csv, rep.fcurve_csv())


def export_result(result: ScenarioResult, fmt: str, path: str) -> None:
    """Write one output: report-json, histogram-csv, deficit-csv or fcurve-csv,
    each named for the OutputPaths field it sets."""
    if fmt not in ("report-json", "histogram-csv", "deficit-csv", "fcurve-csv"):
        raise ValueError(f"unknown export format {fmt!r}")
    write_outputs(result, OutputPaths(**{"report_json": None, fmt.replace("-", "_"): path}))


# ---------------------------------------------------------------------------
# builtin studies

# two-Gaussian case: every quantity has a closed form
_EX1_BETA = 5.0 / math.sqrt(1.0 + 1.5 * 1.5)
_EX1_EF_STAR = deficit(_EX1_BETA)

# single-lognormal grid row: exact failure stats of R - cut via the
# truncated-lognormal mean E[R | R < cut]
_MILD_MU, _MILD_SIG, _MILD_CUT = 2.3, 0.2, 6.78
_MILD_BETA = (_MILD_MU - math.log(_MILD_CUT)) / _MILD_SIG
_MILD_MEAN = math.exp(_MILD_MU + _MILD_SIG * _MILD_SIG / 2.0)
_MILD_SD = math.sqrt(math.expm1(_MILD_SIG * _MILD_SIG)) * _MILD_MEAN
_MILD_EF_STAR = (
    _MILD_CUT
    - _MILD_MEAN * norm_cdf(-_MILD_BETA - _MILD_SIG) / norm_cdf(-_MILD_BETA)
) / _MILD_SD
_MILD_BETA_S = invert_deficit(_MILD_EF_STAR)

# heavy grid row: exact values of this parameterization (finite variance,
# deficit far beyond the endpoint), by quadrature over the Pareto
# component and the closed forms of the Normal one
_HEAVY_BETA = 3.5718985938417163
_HEAVY_EF_STAR = 1.708321778901722

# matched-rate pair: one-in-a-hundred failures by construction
_AB_PF = 0.01
_AB_N = 1_000_000
_AB_PF_TOL = 4.0 * math.sqrt(_AB_PF * (1.0 - _AB_PF) / _AB_N)


def _scenarios() -> dict[str, Scenario]:
    entries = [
        Scenario(
            scenario_id="example1-gaussian",
            title="Two-Gaussian closed-form check",
            description=(
                "Capacity N(10,1) against demand N(5,1.5). Everything has a "
                "closed form, so the estimates are graded against exact values."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Normal(10.0, 1.0)),
                    Term("demand", -1.0, Normal(5.0, 1.5)),
                )
            ),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", _EX1_BETA, 0.03, "analytic"),
                Expectation("efStar", _EX1_EF_STAR, 0.01, "analytic"),
                Expectation("betaS", _EX1_BETA, 0.12, "analytic"),
                Expectation("level", "II: Moderate", None, "analytic"),
            ),
        ),
        Scenario(
            scenario_id="example2-mild",
            title="Lognormal capacity, Gumbel demand",
            description=(
                "About one sample in four fails, and the failures are deep: "
                "the severity-aware index lands just above the frequency "
                "index, at level IV. The recorded reference values cannot be "
                "reproduced from these inputs and fail visibly."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Lognormal(2.3, 0.2)),
                    Term("demand", -1.0, Gumbel(8.0, 1.2)),
                )
            ),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", 1.5236, 0.02, "reference"),
                Expectation("efStar", 0.3040, 0.01, "reference"),
                Expectation("betaS", 2.722, 0.06, "reference"),
                Expectation("betaSAboveBeta", True, None, "reference"),
                Expectation("level", "II: Moderate", None, "reference"),
            ),
        ),
        Scenario(
            scenario_id="example3-extreme",
            title="Heavy tail outside the valid domain",
            description=(
                "A Pareto demand component with infinite variance. The "
                "normalized deficit is undefined, so the run must raise the "
                "extreme flag instead of reporting a number."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Normal(20.0, 1.5)),
                    Term(
                        "demand",
                        -1.0,
                        Mixture(
                            (
                                (0.999, Normal(5.0, 2.0)),
                                (0.001, Pareto(10.0, 1.5)),
                            )
                        ),
                    ),
                )
            ),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", 3.388, 0.08, "reference"),
                Expectation("extremeFlag", "variance-infinite-or-unstable", None, "analytic"),
                Expectation("level", "V: Extreme", None, "analytic"),
                Expectation("betaSDefined", False, None, "analytic"),
            ),
        ),
        Scenario(
            scenario_id="case-study",
            title="Factored load combination",
            description=(
                "Design check R - (1.2 D + 1.6 L) with a rare-overload live "
                "load. Failures are rare but deep."
            ),
            model=LimitStateModel(
                terms=(
                    Term("resistance", 1.0, lognormal_from_median_cov(1520.0, 0.10)),
                    Term("dead", -1.2, Normal(500.0, 50.0)),
                    Term(
                        "live",
                        -1.6,
                        Mixture(
                            (
                                (0.9995, Gumbel(150.0, 30.0)),
                                (0.0005, Gumbel(500.0, 30.0)),
                            )
                        ),
                    ),
                )
            ),
            sample_count=2_000_000,
            expectations=(
                Expectation("pf", 9.1e-5, 2.7e-5, "reference"),
                Expectation("beta", 3.744, 0.08, "reference"),
                Expectation("efStar", 0.4741, 0.12, "reference"),
                Expectation("betaS", 1.278, 0.72, "reference"),
                Expectation("level", "III: High", None, "reference"),
            ),
        ),
        Scenario(
            scenario_id="scenarioA",
            title="Matched failure rate, shallow deficits",
            description=(
                "Lognormal capacity against a single Gumbel demand, shifted "
                "so one sample in a hundred fails."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Lognormal(1.6, 0.15)),
                    Term("demand", -1.0, Gumbel(2.0, 0.6)),
                )
            ),
            sample_count=_AB_N,
            calibrate_pf=_AB_PF,
            expectations=(
                Expectation("pf", _AB_PF, _AB_PF_TOL, "target"),
                Expectation("betaSDefined", True, None, "construction"),
            ),
        ),
        Scenario(
            scenario_id="scenarioB",
            title="Matched failure rate, heavy deficits",
            description=(
                "Same capacity and failure rate as its shallow twin, but a "
                "rare far-out Gumbel component deepens the failures."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Lognormal(1.6, 0.15)),
                    Term(
                        "demand",
                        -1.0,
                        Mixture(
                            (
                                (0.995, Gumbel(2.0, 0.6)),
                                (0.005, Gumbel(6.0, 0.6)),
                            )
                        ),
                    ),
                )
            ),
            sample_count=_AB_N,
            calibrate_pf=_AB_PF,
            expectations=(
                Expectation("pf", _AB_PF, _AB_PF_TOL, "target"),
            ),
        ),
        Scenario(
            scenario_id="figure-grid-gaussian",
            title="Histogram grid, Gaussian row",
            description=(
                "Single Gaussian limit state at reliability index 3.5; the "
                "severity-aware index must agree with the frequency index."
            ),
            model=LimitStateModel(terms=(Term("margin", 1.0, Normal(3.5, 1.0)),)),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", 3.5, 0.05, "construction"),
                Expectation("efStar", deficit(3.5), 0.025, "construction"),
                Expectation("betaSNearBeta", 0.0, 0.45, "construction"),
                Expectation("level", "I: Mild", None, "construction"),
            ),
        ),
        Scenario(
            scenario_id="figure-grid-mild",
            title="Histogram grid, mild row",
            description=(
                "Lognormal capacity against a fixed threshold: bounded, "
                "shallow deficits, so severity reads milder than frequency."
            ),
            model=LimitStateModel(
                terms=(Term("capacity", 1.0, Lognormal(_MILD_MU, _MILD_SIG)),),
                shift=-_MILD_CUT,
            ),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", _MILD_BETA, 0.01, "analytic"),
                Expectation("efStar", _MILD_EF_STAR, 0.005, "analytic"),
                Expectation("betaS", _MILD_BETA_S, 0.06, "analytic"),
                Expectation("betaSAboveBeta", True, None, "construction"),
                Expectation("level", "I: Mild", None, "construction"),
            ),
        ),
        Scenario(
            scenario_id="figure-grid-heavy",
            title="Histogram grid, heavy row",
            description=(
                "A rare Pareto demand with finite variance but deficits far "
                "beyond the Gaussian endpoint."
            ),
            model=LimitStateModel(
                terms=(
                    Term("capacity", 1.0, Normal(18.0, 1.5)),
                    Term(
                        "demand",
                        -1.0,
                        Mixture(
                            (
                                (0.997, Normal(5.0, 2.0)),
                                (0.003, Pareto(10.0, 5.0)),
                            )
                        ),
                    ),
                )
            ),
            sample_count=5_000_000,
            expectations=(
                Expectation("beta", _HEAVY_BETA, 0.05, "analytic"),
                Expectation("efStar", _HEAVY_EF_STAR, 0.3, "analytic"),
                Expectation("extremeFlag", "deficit-beyond-endpoint", None, "construction"),
                Expectation("level", "V: Extreme", None, "construction"),
                Expectation("analyticVarianceFinite", True, None, "analytic"),
            ),
        ),
    ]
    return {s.scenario_id: s for s in entries}


_REGISTRY = _scenarios()
SCENARIO_IDS = tuple(_REGISTRY)


def builtin(scenario_id: str) -> Scenario:
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        known = ", ".join(SCENARIO_IDS)
        raise ValueError(f"unknown scenario id {scenario_id!r}; known ids: {known}") from None
