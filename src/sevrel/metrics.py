"""Severity metrics, classification, and the two-stage design check.

The classical reliability index beta answers "how often does the design
fail"; the severity-aware index answers "and how badly". From a
simulation summary we estimate

* pf and beta = -quantile(pf),
* the expected failure deficit, the mean of -g over failures,
* its normalized form, deficit / sigma_g, with sigma_g the exact
  standard deviation of g from the analytic moments, which requires a
  finite variance, and
* the severity-aware index: the Gaussian reliability index whose margin
  would produce the same normalized deficit.

Deficits too deep for any Gaussian margin, or models whose variance is
infinite, are reported through an extreme flag instead of a number.
Classification buckets the normalized deficit against the Gaussian
benchmarks at indices 3, 2 and 1; any flag lands in the extreme class.
The two-stage check mirrors standards practice: frequency gate first,
severity gate second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from . import gaussian
from .distributions import MomentReport
from .engine import SimulationSummary

__all__ = [
    "ExtremeFlag",
    "SeverityLevel",
    "Verdict",
    "SeverityReport",
    "WorkflowDecision",
    "NoFailuresObserved",
    "LEVEL_INDICES",
    "LEVEL_THRESHOLDS",
    "DEFAULT_MAX_LEVEL",
    "DEFAULT_MAX_LEVEL_CRITICAL",
    "reliability_index",
    "expected_failure_deficit",
    "normalized_deficit",
    "severity_index",
    "classify",
    "classify_index",
    "build_report",
    "assess",
]


class NoFailuresObserved(ValueError):
    """Raised when a deficit statistic is requested but no g < 0 occurred."""


class ExtremeFlag(Enum):
    """Reasons the severity index cannot be a finite number."""

    DEFICIT_BEYOND_ENDPOINT = "deficit-beyond-endpoint"
    # set from the analytic variance alone; the string predates that and
    # stays, since reports and scenario expectations carry it
    VARIANCE_INFINITE_OR_UNSTABLE = "variance-infinite-or-unstable"


class SeverityLevel(IntEnum):
    MILD = 1
    MODERATE = 2
    HIGH = 3
    CRITICAL = 4
    EXTREME = 5

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]

    @property
    def roman(self) -> str:
        """The numeral of the label: "III" for HIGH."""
        return self.label.partition(":")[0]

    @property
    def recommendation(self) -> str:
        return _LEVEL_ADVICE[self]


_LEVEL_LABELS = {
    SeverityLevel.MILD: "I: Mild",
    SeverityLevel.MODERATE: "II: Moderate",
    SeverityLevel.HIGH: "III: High",
    SeverityLevel.CRITICAL: "IV: Critical",
    SeverityLevel.EXTREME: "V: Extreme",
}

_LEVEL_ADVICE = {
    SeverityLevel.MILD: "failures stay shallow; standard margins and routine checks suffice",
    SeverityLevel.MODERATE: "failure depth is noticeable; tighten quality assurance and consider monitoring",
    SeverityLevel.HIGH: "failures run deep; add monitoring and plan mitigation for overload paths",
    SeverityLevel.CRITICAL: "failure depth approaches the Gaussian limit; redesign unless secondary defenses are strong",
    SeverityLevel.EXTREME: "failure depth is beyond any Gaussian comparison; redesign the limit state",
}

# The Gaussian indices at the boundaries of levels I/II, II/III and III/IV.
LEVEL_INDICES = (3.0, 2.0, 1.0)

# Benchmarks computed from the kernel at import, never hard-coded; the
# endpoint bounds level IV.
LEVEL_THRESHOLDS = (*map(gaussian.deficit, LEVEL_INDICES), gaussian.DEFICIT_ENDPOINT)


class Verdict(Enum):
    REJECT_FREQUENCY = "RejectFrequency"
    EXTREME_REDESIGN = "ExtremeRedesign"
    ACCEPT_WITH_LEVEL = "AcceptWithLevel"


#: Severity ceiling for ordinary structures; use the critical default for
#: consequence-class-critical ones.
DEFAULT_MAX_LEVEL = SeverityLevel.HIGH
DEFAULT_MAX_LEVEL_CRITICAL = SeverityLevel.MODERATE


def reliability_index(pf: float) -> float:
    """Classical index beta = -quantile(pf) for pf inside (0, 1)."""
    pf = float(pf)
    if pf == 0.0:
        raise NoFailuresObserved(
            "pf is 0: no failures observed, beta is undefined and only a "
            "lower bound (from pf < 1/n) is available"
        )
    if not 0.0 < pf < 1.0:
        raise ValueError(f"pf must be inside (0, 1), got {pf!r}")
    return -gaussian.norm_quantile(pf)


def expected_failure_deficit(summary: SimulationSummary) -> float:
    """Mean of -g over failures, from the exact running sum."""
    if summary.failure_count == 0:
        raise NoFailuresObserved("no failures in this run, the deficit is undefined")
    return summary.deficit_sum / summary.failure_count


def normalized_deficit(
    summary: SimulationSummary, moments: MomentReport
) -> float | ExtremeFlag:
    """Expected failure deficit over the exact sigma_g, or the variance flag.

    sigma_g is the square root of the analytic variance of g. When that
    variance is infinite, sigma_g does not exist and the flag is returned
    instead.
    """
    if not moments.variance_finite:
        return ExtremeFlag.VARIANCE_INFINITE_OR_UNSTABLE
    return expected_failure_deficit(summary) / math.sqrt(moments.variance)


def severity_index(ef_star: float) -> float | ExtremeFlag:
    """Invert the Gaussian deficit map, or flag a deficit beyond it."""
    ef_star = float(ef_star)
    if ef_star <= 0.0:
        raise ValueError(f"normalized deficit must be positive, got {ef_star!r}")
    if ef_star >= gaussian.DEFICIT_ENDPOINT:
        return ExtremeFlag.DEFICIT_BEYOND_ENDPOINT
    return gaussian.invert_deficit(ef_star)


def classify(value: float | ExtremeFlag) -> SeverityLevel:
    """Severity level for a normalized deficit (or an extreme flag).

    Thresholds are the Gaussian benchmarks at indices 3, 2, 1 and the
    endpoint; each bucket includes its lower bound.
    """
    if isinstance(value, ExtremeFlag):
        return SeverityLevel.EXTREME
    value = float(value)
    if value <= 0.0:
        raise ValueError(f"normalized deficit must be positive, got {value!r}")
    for level, threshold in zip(SeverityLevel, LEVEL_THRESHOLDS):
        if value < threshold:
            return level
    return SeverityLevel.EXTREME


def classify_index(beta_s: float) -> SeverityLevel:
    """Severity level straight from a severity-aware index."""
    beta_s = float(beta_s)
    if beta_s <= 0.0:
        raise ValueError(f"severity index must be positive, got {beta_s!r}")
    for level, index in zip(SeverityLevel, LEVEL_INDICES):
        if beta_s >= index:
            return level
    return SeverityLevel.CRITICAL


@dataclass(frozen=True)
class SeverityReport:
    n: int
    failure_count: int
    pf: float
    pf_se: float
    beta: float | None
    beta_moment: float | None
    ef: float | None
    ef_star: float | None
    ef_star_ci: tuple[float, float] | None
    beta_s: float | None
    extreme_flag: ExtremeFlag | None
    level: SeverityLevel | None
    gaussian_benchmark: float | None
    notes: tuple[str, ...] = ()


_Z_975 = -gaussian.norm_quantile(0.025)


def _ef_star_ci(k: int, deficit_sum: float, deficit_m2: float, sigma: float) -> tuple[float, float] | None:
    if k < 2:
        return None
    m = deficit_sum / k
    half = _Z_975 * math.sqrt(deficit_m2 / (k - 1)) / math.sqrt(k)
    return ((m - half) / sigma, (m + half) / sigma)


def build_report(
    summary: SimulationSummary,
    moments: MomentReport,
    bootstrap_resamples: int = 200,
) -> SeverityReport:
    """Assemble the full severity report for one run.

    The normalized-deficit confidence interval is the 95% normal (CLT)
    interval for the mean of all k failure deficits, m +/- z * s / sqrt(k),
    over the exact sigma_g, with m and s from the streamed sum and M2; there
    is none with fewer than two failures. `bootstrap_resamples` is unused: the
    interval used to be a percentile bootstrap of that many resamples, and
    the benchmark under perfbench/ still reads the parameter's default.

    A run in which every sample fails only bounds p_f from below, by
    1 - 1/N, so beta is None; the deficit metrics are still computed.
    """
    n, k = summary.n, summary.failure_count
    pf = k / n
    beta_moment = None
    if n > 1 and summary.var_g > 0.0:
        beta_moment = summary.mean_g / math.sqrt(summary.var_g)

    beta = benchmark = ef = ef_star = ci = beta_s = flag = level = None
    notes: list[str] = []
    if k == 0:
        notes.append(f"no failures at N={n}; p_f < {1.0 / n:.6g} (1/N bound)")
    else:
        if k == n:
            notes.append(f"every sample fails at N={n}; p_f > {1.0 - 1.0 / n:.6g} (1/N bound)")
        else:
            beta = reliability_index(pf)
        benchmark = gaussian.deficit(beta) if beta is not None and beta > 0.0 else None
        ef = expected_failure_deficit(summary)
        nd = normalized_deficit(summary, moments)
        if isinstance(nd, ExtremeFlag):
            notes.append("analytic variance of g is infinite; sigma-normalized metrics withheld")
            flag, level = nd, SeverityLevel.EXTREME
        else:
            ef_star, level = nd, classify(nd)
            si = severity_index(ef_star)
            if isinstance(si, ExtremeFlag):
                flag = si
                notes.append("normalized deficit is at or beyond the Gaussian endpoint")
            else:
                beta_s = si
            ci = _ef_star_ci(k, summary.deficit_sum, summary.deficit_m2, math.sqrt(moments.variance))
    return SeverityReport(
        n=n,
        failure_count=k,
        pf=pf,
        pf_se=math.sqrt(pf * (1.0 - pf) / n),
        beta=beta,
        beta_moment=beta_moment,
        ef=ef,
        ef_star=ef_star,
        ef_star_ci=ci,
        beta_s=beta_s,
        extreme_flag=flag,
        level=level,
        gaussian_benchmark=benchmark,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class WorkflowDecision:
    frequency_pass: bool
    severity_level: SeverityLevel | None
    verdict: Verdict
    advisory: str | None = None


def assess(
    report: SeverityReport,
    beta_target: float,
    max_acceptable_level: SeverityLevel = DEFAULT_MAX_LEVEL,
) -> WorkflowDecision:
    """Two-stage acceptance: frequency gate first, then severity gate.

    A design failing the frequency gate is rejected outright and its
    severity is not consulted. Extreme severity forces redesign. Anything
    else is accepted at its level, with an advisory when the level
    exceeds the caller's ceiling. A run in which every sample fails has
    beta below norm_quantile(1/N) < 0, so it fails any positive target.
    """
    if report.beta is None:
        if report.failure_count == report.n and beta_target > 0.0:
            return WorkflowDecision(False, None, Verdict.REJECT_FREQUENCY)
        raise ValueError(
            "frequency check needs a defined beta; a zero-failure run only "
            "bounds it from below"
        )
    if report.beta < beta_target:
        return WorkflowDecision(False, None, Verdict.REJECT_FREQUENCY)
    level = report.level
    if level is None:
        raise ValueError("severity stage needs a classified report")
    if level is SeverityLevel.EXTREME:
        return WorkflowDecision(True, level, Verdict.EXTREME_REDESIGN)
    advisory = None
    if level > max_acceptable_level:
        advisory = (
            f"severity {level.label} exceeds the acceptable ceiling "
            f"{max_acceptable_level.label}; review before release"
        )
    return WorkflowDecision(True, level, Verdict.ACCEPT_WITH_LEVEL, advisory)
