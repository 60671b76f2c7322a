"""Acceptance suite: one test per published criterion.

Every test prints a single `[PASS]/[FAIL] criterion N: ...` line to the
real terminal before asserting, so a plain pytest run shows the verdict
of each criterion even when some assert red.

Criteria 3, 4 and 6 run the full pipeline on a built-in study and grade
it against the exact values of that study's stated inputs. Those values
come from the closed form of the Gaussian margin and from a quadrature
in this module that uses numpy and scipy only: a centre taken from
`sevrel.gaussian` would grade the kernel against itself. The recorded
reference values of these studies cannot be reproduced from their
stated inputs. They are printed next to the exact and measured values
in each detail line, and the `example2-mild` and `case-study` scenario
expectations still grade them.
"""

import math
import time

import numpy as np
import pytest
import scipy.special as sps
from scipy.optimize import brentq

from sevrel import gaussian
from sevrel.distributions import Normal
from sevrel.engine import (
    LimitStateModel,
    SimulationConfig,
    Term,
    g_chunks,
    simulate,
)
from sevrel.metrics import ExtremeFlag, classify, classify_index

SEEDS = (None, 1, 2, 3, 4)  # None = the scenario's default seed (0)
# Criterion 6 grades means of a betaS whose per-run sd is 0.11, so it
# takes 40 seeds to make its band several standard errors wide.
CASE_STUDY_SEEDS = (None, *range(1, 40))


def announce(capsys, ok, criterion, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def in_band(value, center, width):
    return abs(value - center) <= width


def seed_mean(cache, sid, attr, seeds=SEEDS):
    values = [getattr(cache(sid, master_seed=s).report, attr) for s in seeds]
    assert all(v is not None for v in values)
    return float(np.mean(values))


def band(problems, name, measured, exact, width, recorded, fmt=".4f"):
    """Grade `measured` against `exact` +/- `width`; return its detail text."""
    shown = "n/a" if measured is None else format(measured, fmt)
    if measured is None or not in_band(measured, exact, width):
        problems.append(f"{name} {shown} not within {exact:{fmt}}+/-{width}")
    return f"{name}={shown} (exact {exact:{fmt}}, recorded {recorded})"


# ---------------------------------------------------------------------------
# Exact failure statistics of the stated inputs, without sevrel.
#
# Every study below is g = R - S: a capacity R whose cdf and shortfall
# E[(s - R)+] have closed forms, minus a load S that is a sum of
# independent terms, each given as a quadrature rule (values, weights).
# The rules are tensored, so p_f = E[P(R < S)] and E_f = E[(S - R)+] / p_f
# are weighted sums. Normal terms use 64 Gauss-Hermite nodes: the
# two-Gaussian study then matches its closed form to 1e-13, against 1e-8
# with 32 nodes. Gumbel components use 2001 trapezoid points; halving
# them and the nodes moves no value of the two Gumbel studies by 1e-13.

LEVEL_LABELS = ("I: Mild", "II: Moderate", "III: High", "IV: Critical", "V: Extreme")


def normal_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def exact_deficit(b):
    """Gaussian deficit map F(b) = pdf(b) / cdf(-b) - b."""
    return float(normal_pdf(b) / sps.ndtr(-b) - b)


def exact_severity_index(ef_star):
    return brentq(lambda b: exact_deficit(b) - ef_star, 1e-12, 30.0, xtol=1e-15, rtol=1e-15)


def exact_level(ef_star):
    endpoint = 2.0 / math.sqrt(2.0 * math.pi)
    bounds = [exact_deficit(3.0), exact_deficit(2.0), exact_deficit(1.0), endpoint]
    return LEVEL_LABELS[int(np.searchsorted(bounds, ef_star, side="right"))]


def normal_capacity(mean, sd):
    def below(s):
        z = (s - mean) / sd
        return sps.ndtr(z), (s - mean) * sps.ndtr(z) + sd * normal_pdf(z)

    return below, sd * sd


def lognormal_capacity(log_mean, log_std):
    mean = math.exp(log_mean + 0.5 * log_std * log_std)

    def below(s):
        positive = s > 0.0
        z = (np.log(np.where(positive, s, 1.0)) - log_mean) / log_std
        shortfall = s * sps.ndtr(z) - mean * sps.ndtr(z - log_std)
        return np.where(positive, sps.ndtr(z), 0.0), np.where(positive, shortfall, 0.0)

    return below, math.expm1(log_std * log_std) * mean * mean


def normal_load(factor, mean, sd, nodes=64):
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    return factor * (mean + sd * z), w / math.sqrt(2.0 * math.pi), (factor * sd) ** 2


def gumbel_load(factor, components, points=2001):
    """Mixture of max-type Gumbels, given as (weight, location, scale)."""
    t = np.linspace(-8.0, 60.0, points)
    step = np.full(points, t[1] - t[0])
    step[[0, -1]] *= 0.5
    density = np.exp(-(t + np.exp(-t)))
    values, weights = [], []
    mean = second = 0.0
    for weight, loc, scale in components:
        values.append(factor * (loc + scale * t))
        weights.append(weight * density * step)
        m = loc + np.euler_gamma * scale
        mean += weight * m
        second += weight * ((math.pi * scale) ** 2 / 6.0 + m * m)
    return np.concatenate(values), np.concatenate(weights), factor**2 * (second - mean * mean)


def exact_study(capacity, *loads):
    below, variance = capacity
    s, w = np.zeros(1), np.ones(1)
    for values, weights, var in loads:
        s = np.add.outer(s, values).ravel()
        w = np.multiply.outer(w, weights).ravel()
        variance += var
    p, shortfall = below(s)
    pf = float(w @ p)
    ef_star = float(w @ shortfall) / pf / math.sqrt(variance)
    return {
        "pf": pf,
        "beta": -float(sps.ndtri(pf)),
        "efStar": ef_star,
        "betaS": exact_severity_index(ef_star),
        "level": exact_level(ef_star),
    }


# the stated inputs of scenarios.py, restated
EXAMPLE1 = exact_study(normal_capacity(10.0, 1.0), normal_load(1.0, 5.0, 1.5))
EXAMPLE2 = exact_study(lognormal_capacity(2.3, 0.2), gumbel_load(1.0, ((1.0, 8.0, 1.2),)))
CASE_STUDY = exact_study(
    lognormal_capacity(math.log(1520.0), math.sqrt(math.log1p(0.10**2))),
    normal_load(1.2, 500.0, 50.0),
    gumbel_load(1.6, ((0.9995, 150.0, 30.0), (0.0005, 500.0, 30.0))),
)


def test_criterion_1_benchmark_constants(capsys):
    problems = []
    for b, center in ((3.0, 0.2831), (2.0, 0.3732), (1.0, 0.5251)):
        value = gaussian.deficit(b)
        if not in_band(value, center, 1e-3):
            problems.append(f"deficit({b})={value:.6f} not within {center}+/-0.001")
    endpoint_exact = gaussian.DEFICIT_ENDPOINT == 2.0 / math.sqrt(2.0 * math.pi)
    if not endpoint_exact:
        problems.append("endpoint is not bit-identical to 2/sqrt(2*pi)")

    points = np.linspace(0.05, 39.0, 1000)
    start = time.perf_counter()
    for b in points:
        gaussian.deficit(b)
    per_call = (time.perf_counter() - start) / points.size
    if per_call >= 1e-3:
        problems.append(f"deficit evaluation took {per_call * 1e3:.3f} ms")

    detail = (
        f"deficit(3)={gaussian.deficit(3.0):.6f}, deficit(2)={gaussian.deficit(2.0):.6f}, "
        f"deficit(1)={gaussian.deficit(1.0):.6f}, endpoint exact={endpoint_exact}, "
        f"{per_call * 1e6:.2f} us/call"
    )
    announce(capsys, not problems, 1, detail)
    assert not problems, problems


def test_criterion_2_inverse_solver(capsys):
    problems = []
    ys = np.linspace(0.0011, 0.7969, 100)
    residual = max(abs(gaussian.deficit(gaussian.invert_deficit(y)) - y) for y in ys)
    if residual > 1e-12:
        problems.append(f"roundtrip residual {residual:.3e} exceeds 1e-12")
    for y, center in ((0.4741, 1.2777), (0.3040, 2.7219)):
        b = gaussian.invert_deficit(y)
        if not in_band(b, center, 2e-3):
            problems.append(f"invert({y})={b:.6f} not within {center}+/-0.002")

    detail = (
        f"max roundtrip residual {residual:.2e}, "
        f"invert(0.4741)={gaussian.invert_deficit(0.4741):.5f}, "
        f"invert(0.3040)={gaussian.invert_deficit(0.3040):.5f}"
    )
    announce(capsys, not problems, 2, detail)
    assert not problems, problems


def test_criterion_3_two_gaussian_study(capsys, scenario_cache):
    runtimes = []
    for s in SEEDS:
        start = time.perf_counter()
        scenario_cache("example1-gaussian", master_seed=s)
        runtimes.append(time.perf_counter() - start)

    beta = seed_mean(scenario_cache, "example1-gaussian", "beta")
    ef_star = seed_mean(scenario_cache, "example1-gaussian", "ef_star")
    beta_s = seed_mean(scenario_cache, "example1-gaussian", "beta_s")
    # Gaussian margin N(10,1) - N(5,1.5): beta_S = beta and E_f* = F(beta)
    analytic = 5.0 / math.sqrt(1.0 + 1.5 * 1.5)
    ef_exact = exact_deficit(analytic)

    # the recorded values come from one sampled run; 2.667 = F^-1(0.3085)
    problems = []
    measured = [
        # SE of the 5-seed mean 0.0014 (sd over 40 seeds / sqrt(5))
        band(problems, "beta", beta, analytic, 0.03, 2.7748),
        # SE 0.0011
        band(problems, "efStar", ef_star, ef_exact, 0.01, 0.3085),
        # SE 0.015
        band(problems, "betaS", beta_s, analytic, 0.06, 2.667),
    ]
    if not in_band(analytic, 2.7735, 5e-5):
        problems.append(f"closed-form beta {analytic:.6f} is not 2.7735")
    # the quadrature behind criteria 4 and 6 must reproduce this closed form
    quad_error = max(
        abs(EXAMPLE1["pf"] - sps.ndtr(-analytic)),
        abs(EXAMPLE1["beta"] - analytic),
        abs(EXAMPLE1["efStar"] - ef_exact),
        abs(EXAMPLE1["betaS"] - analytic),
    )
    if quad_error > 1e-9:
        problems.append(f"quadrature is {quad_error:.2e} off the closed form")
    slow = max(runtimes)
    if slow >= 30.0:
        problems.append(f"slowest seed took {slow:.1f}s")

    detail = (
        f"5-seed means {', '.join(measured)}, quadrature off closed form by "
        f"{quad_error:.1e}, max {slow:.1f}s/seed"
        + ("" if not problems else f"; {'; '.join(problems)}")
    )
    announce(capsys, not problems, 3, detail)
    assert not problems, problems


def test_criterion_4_mild_study_reference_values(capsys, scenario_cache):
    # Lognormal(2.3, 0.2) - Gumbel(8, 1.2). The recorded values (1.5236,
    # 0.3040, 2.722, II) are reached by none of these readings of the
    # inputs: Gumbel as min-type, Gumbel rate 1.2, Gumbel mean 8 with sd
    # 1.2, Gumbel location 5 or 6. PAPER.md holds only the abstract, so it
    # cannot settle which inputs the paper used.
    rep = scenario_cache("example2-mild").report
    level = rep.level.label if rep.level is not None else None
    problems = []
    measured = [
        # SE of one run 0.00063 (sd over 40 seeds)
        band(problems, "beta", rep.beta, EXAMPLE2["beta"], 0.02, 1.5236),
        # SE 0.00037
        band(problems, "efStar", rep.ef_star, EXAMPLE2["efStar"], 0.01, 0.3040),
        # SE 0.0015
        band(problems, "betaS", rep.beta_s, EXAMPLE2["betaS"], 0.06, 2.722),
    ]
    if level != EXAMPLE2["level"]:
        problems.append(f"level {level} is not {EXAMPLE2['level']}")

    detail = (
        f"{', '.join(measured)}, level={level} "
        f"(exact {EXAMPLE2['level']}, recorded II: Moderate)"
        + ("" if not problems else f"; {'; '.join(problems)}")
    )
    announce(capsys, not problems, 4, detail)
    assert not problems, problems


def test_criterion_5_heavy_tail_flagging(capsys, scenario_cache):
    res = scenario_cache("example3-extreme")
    rep = res.report
    problems = []
    # the flag must come from the analytic moment audit, not from sampling
    if res.moments.variance_finite:
        problems.append("analytic variance audit failed to mark the model infinite")
    if rep.extreme_flag is not ExtremeFlag.VARIANCE_INFINITE_OR_UNSTABLE:
        problems.append(f"flag is {rep.extreme_flag!r}")
    if not in_band(rep.beta, 3.388, 0.08):
        problems.append(f"beta {rep.beta:.4f} not within 3.388+/-0.08")
    if rep.level is None or rep.level.label != "V: Extreme":
        problems.append("level is not V: Extreme")
    if rep.beta_s is not None or rep.ef_star is not None:
        problems.append("sigma-normalized metrics should be withheld")

    detail = (
        f"beta={rep.beta:.4f}, flag={rep.extreme_flag.value}, level={rep.level.label}, "
        f"betaS absent={rep.beta_s is None}"
    )
    announce(capsys, not problems, 5, detail)
    assert not problems, problems


def test_criterion_6_case_study(capsys, scenario_cache):
    pf, beta, ef_star, beta_s = (
        seed_mean(scenario_cache, "case-study", attr, CASE_STUDY_SEEDS) for attr in ("pf", "beta", "ef_star", "beta_s")
    )
    level = classify(ef_star)

    # The recorded p_f of 9.1e-5 is 2.3 times too small for these inputs.
    problems = []
    measured = [
        # SE of the 40-seed mean 1.6e-6 (sd over 40 seeds / sqrt(40))
        band(problems, "pf", pf, CASE_STUDY["pf"], 2.5e-5, 9.1e-5, fmt=".3e"),
        # SE 0.0021
        band(problems, "beta", beta, CASE_STUDY["beta"], 0.08, 3.744),
        # SE 0.0034
        band(problems, "efStar", ef_star, CASE_STUDY["efStar"], 0.03, 0.4741),
        # SE 0.018 (sd 0.114): the band is ~4.4 SE wide
        band(problems, "betaS", beta_s, CASE_STUDY["betaS"], 0.08, 1.278),
    ]
    if level.label != CASE_STUDY["level"]:
        problems.append(f"level {level.label} is not {CASE_STUDY['level']}")
    # the benchmark's own quadrature (perfbench/workloads.py) gives 2.0854e-4
    if not in_band(CASE_STUDY["pf"], 2.0854e-4, 5e-9):
        problems.append(f"quadrature pf {CASE_STUDY['pf']:.5e} is not 2.0854e-4")

    detail = (
        f"{len(CASE_STUDY_SEEDS)}-seed means {', '.join(measured)}, level={level.label} "
        f"(exact {CASE_STUDY['level']}, recorded III: High)"
        + ("" if not problems else f"; {'; '.join(problems)}")
    )
    announce(capsys, not problems, 6, detail)
    assert not problems, problems


def test_criterion_7_matched_rate_pair(capsys, scenario_cache):
    a = scenario_cache("scenarioA").report
    b = scenario_cache("scenarioB").report
    se = math.sqrt(0.01 * 0.99 / 1_000_000)

    problems = []
    if abs(a.pf - 0.01) > 4 * se:
        problems.append(f"pf(A)={a.pf:.5f} is beyond 4 SE of 0.01")
    if abs(b.pf - 0.01) > 4 * se:
        problems.append(f"pf(B)={b.pf:.5f} is beyond 4 SE of 0.01")
    if abs(a.pf - b.pf) > 4 * math.sqrt(2.0) * se:
        problems.append(f"|pf(A)-pf(B)|={abs(a.pf - b.pf):.2e} beyond joint 4 SE")
    if a.ef_star is None or a.beta_s is None:
        problems.append("study A must have a finite severity index")
    if b.ef_star is None or b.ef_star <= a.ef_star:
        problems.append("study B should show the deeper normalized deficit")
    deeper = b.extreme_flag is not None or (b.beta_s is not None and b.beta_s < a.beta_s)
    if not deeper:
        problems.append("study B neither flags nor lowers the severity index")

    detail = (
        f"pf(A)={a.pf:.5f}, pf(B)={b.pf:.5f}, efStar A/B={a.ef_star:.3f}/{b.ef_star:.3f}, "
        f"betaS A/B={a.beta_s:.3f}/"
        + (f"{b.beta_s:.3f}" if b.beta_s is not None else f"flag:{b.extreme_flag.value}")
    )
    announce(capsys, not problems, 7, detail)
    assert not problems, problems


def test_criterion_8_property_battery(capsys, task):
    problems = []

    # strict monotone decay on a dense grid
    grid = np.linspace(1e-6, 40.0, 10_000)
    values = np.array([gaussian.deficit(b) for b in grid])
    if not np.all(np.diff(values) < 0.0):
        problems.append("deficit map is not strictly decreasing")

    # analytic slope against a central difference
    h = 1e-6
    fd_err = max(
        abs(gaussian.deficit_slope(b) - (gaussian.deficit(b + h) - gaussian.deficit(b - h)) / (2 * h))
        for b in (0.5, 1.0, 2.0, 3.0, 5.0, 12.0, 20.0)
    )
    if fd_err > 1e-6:
        problems.append(f"slope vs finite difference off by {fd_err:.2e}")

    # conditional variance of the failure deficit: 1 - r*F against MC
    rng = np.random.default_rng(20260816)
    n = 200_000
    for b in (0.0, 1.0, 2.0):
        tail = gaussian.norm_cdf(-b)
        z = sps.ndtri(rng.uniform(0.0, tail, n))
        deficits = -z - b
        s2 = float(np.var(deficits, ddof=1))
        m4 = float(np.mean((deficits - deficits.mean()) ** 4))
        se = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        # F(b) = tail_mean(b) - b, valid down to b = 0 where the map
        # itself is out of domain
        r = gaussian.tail_mean(b)
        expected = 1.0 - r * (r - b)
        if abs(s2 - expected) > 3 * se:
            problems.append(f"truncated variance at b={b}: {s2:.5f} vs {expected:.5f}")

    # enveloping tail expansion
    for b in (10.0, 15.0, 20.0, 30.0, 40.0):
        f = gaussian.deficit(b)
        lead = 1.0 / b - 2.0 / b**3
        if not (lead <= f <= 1.0 / b):
            problems.append(f"tail envelope violated at b={b}")
        if abs(f - lead) > 10.0 / b**5:
            problems.append(f"tail remainder bound violated at b={b}")

    # a Gaussian margin must map back to its own index
    betas = np.linspace(0.5, 5.0, 46)
    consistency = max(abs(gaussian.invert_deficit(gaussian.deficit(b)) - b) for b in betas)
    if consistency > 1e-10:
        problems.append(f"consistency residual {consistency:.2e} exceeds 1e-10")

    # streaming merge against a two-pass reference, over five blocks in
    # tasks of two
    model = LimitStateModel(terms=(Term("m", 1.0, Normal(1.0, 1.0)),))
    task(2)
    cfg = SimulationConfig(sample_count=300_000, master_seed=17)
    s1 = simulate(model, cfg)
    g = np.concatenate(list(g_chunks(model, cfg)))
    if abs(s1.mean_g - g.mean()) > 1e-9 * abs(g.mean()):
        problems.append("block merge drifts from the two-pass mean")
    if abs(s1.var_g - g.var(ddof=1)) > 1e-9 * g.var(ddof=1):
        problems.append("block merge drifts from the two-pass variance")

    # classification: monotone in the deficit, consistent across both axes
    efs = np.arange(0.01, 1.2, 0.005)
    levels = [classify(float(e)) for e in efs]
    if any(b < a for a, b in zip(levels, levels[1:])):
        problems.append("classification is not monotone in the normalized deficit")
    for ef in (0.05, 0.2, 0.3, 0.45, 0.6, 0.7, 0.79):
        if classify(ef) is not classify_index(gaussian.invert_deficit(ef)):
            problems.append(f"axis disagreement at efStar={ef}")

    detail = (
        "monotone map, slope identity, truncated variance, tail envelope, "
        "index consistency, block merge, classification"
        + ("" if not problems else f"; {'; '.join(problems)}")
    )
    announce(capsys, not problems, 8, detail)
    assert not problems, problems
