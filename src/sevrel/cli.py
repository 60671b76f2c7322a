"""Command-line front end.

Four subcommands: `solve` answers analytic deficit-map queries,
`classify` maps a severity measure to its level, `simulate` runs a
config-driven study and writes the JSON report, `scenario` reruns a
builtin study and grades its expectations.

Exit codes are machine-consumable: 0 success/accept, 2 bad invocation,
bad config or a model whose g is not finite, 3 frequency rejection,
4 extreme-severity redesign, 5 failed scenario expectation, 1 filesystem
trouble.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import report as rep
from .config import ConfigError, load_config
from .engine import model_moments, simulate
from .gaussian import DEFICIT_ENDPOINT, deficit, invert_deficit
from .metrics import (
    DEFAULT_MAX_LEVEL,
    SeverityReport,
    Verdict,
    WorkflowDecision,
    assess,
    build_report,
    classify,
    classify_index,
)
from .scenarios import builtin, collect_histograms, export_result, run

__all__ = ["main", "entry"]


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _positive_finite(value: float, flag: str) -> bool:
    if not math.isfinite(value) or value <= 0.0:
        _err(f"{flag} requires a positive finite value, got {value!r}")
        return False
    return True


def _cmd_solve(args) -> int:
    if args.f is not None:
        if not _positive_finite(args.f, "--f"):
            return 2
        print(f"{deficit(args.f):.12g}")
        return 0
    if args.inverse is not None:
        if not _positive_finite(args.inverse, "--inverse"):
            return 2
        if args.inverse >= DEFICIT_ENDPOINT:
            print(f"EXTREME: beyond Gaussian endpoint {DEFICIT_ENDPOINT:.12f}")
            return 0
        print(f"{invert_deficit(args.inverse):.12g}")
        return 0
    if not _positive_finite(args.closed_form, "--closed-form"):
        return 2
    print(f"{deficit(args.closed_form):.12g}")
    return 0


def _cmd_classify(args) -> int:
    try:
        if args.efstar is not None:
            if not _positive_finite(args.efstar, "--efstar"):
                return 2
            level = classify(args.efstar)
        else:
            if not _positive_finite(args.betas, "--betas"):
                return 2
            level = classify_index(args.betas)
    except ValueError as exc:
        _err(str(exc))
        return 2
    print(f"Level {level.label}")
    print(level.recommendation)
    return 0


def _fmt_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_report_table(report: SeverityReport, decision: WorkflowDecision | None) -> None:
    rows: list[tuple[str, str]] = []
    if report.failure_count == 0:
        rows.append(("p_f", f"< {1.0 / report.n:.6g} (no failures at N={report.n})"))
    else:
        rows.append(("p_f", f"{report.pf:.6g} +/- {report.pf_se:.6g}"))
    rows.append(("beta", _fmt_value(report.beta)))
    rows.append(("E_f", _fmt_value(report.ef)))
    ef_star = _fmt_value(report.ef_star)
    if report.ef_star_ci is not None:
        ef_star += f"  [{report.ef_star_ci[0]:.6g}, {report.ef_star_ci[1]:.6g}]"
    rows.append(("E_f*", ef_star))
    if report.extreme_flag is not None:
        rows.append(("beta_S", f"flag: {report.extreme_flag.value}"))
    else:
        rows.append(("beta_S", _fmt_value(report.beta_s)))
    rows.append(("level", report.level.label if report.level is not None else "n/a"))
    if decision is not None:
        rows.append(("verdict", decision.verdict.value))
        if decision.advisory:
            rows.append(("advisory", decision.advisory))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    for note in report.notes:
        print(f"note: {note}")


def _cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    sim = cfg.simulation
    try:
        if args.seed is not None:
            sim = replace(sim, master_seed=args.seed)
        if args.n is not None:
            sim = replace(sim, sample_count=args.n)
    except ValueError as exc:
        _err(str(exc))
        return 2

    try:
        summary = simulate(cfg.model, sim)
        moments = model_moments(cfg.model)
    except ValueError as exc:  # the variance of g or g itself overflows
        _err(str(exc))
        return 2
    report = build_report(summary, moments)
    max_level = cfg.max_acceptable_level if cfg.max_acceptable_level is not None else DEFAULT_MAX_LEVEL
    decision = None
    if cfg.beta_target is not None and report.beta is not None:
        decision = assess(report, cfg.beta_target, max_acceptable_level=max_level)

    doc = rep.simulation_document(
        cfg.model,
        sim,
        moments,
        summary,
        report,
        decision=decision,
        beta_target=cfg.beta_target,
        max_acceptable_level=max_level if decision is not None else None,
    )
    try:
        rep.write_text(cfg.output.report_json, rep.render_json(doc))
        if cfg.output.histogram_csv or cfg.output.deficit_csv:
            g_hist, d_hist = collect_histograms(cfg.model, sim, summary)
            if cfg.output.histogram_csv:
                rep.write_text(cfg.output.histogram_csv, rep.histogram_csv(g_hist.edges, g_hist.counts))
            if cfg.output.deficit_csv:
                if d_hist is None:
                    rep.write_text(cfg.output.deficit_csv, "bin_left,bin_right,count\n")
                else:
                    rep.write_text(cfg.output.deficit_csv, rep.histogram_csv(d_hist.edges, d_hist.counts))
        if cfg.output.fcurve_csv:
            rep.write_text(cfg.output.fcurve_csv, rep.fcurve_csv())
    except OSError as exc:
        _err(f"cannot write output: {exc}")
        return 1

    _print_report_table(report, decision)
    print(f"report: {cfg.output.report_json}")
    if decision is None:
        return 0
    if decision.verdict is Verdict.REJECT_FREQUENCY:
        return 3
    if decision.verdict is Verdict.EXTREME_REDESIGN:
        return 4
    return 0


def _cmd_scenario(args) -> int:
    try:
        scenario = builtin(args.id)
    except ValueError as exc:
        _err(str(exc))
        return 2
    result = run(scenario, master_seed=args.seed, sample_count=args.n)

    print(f"{scenario.scenario_id}: {scenario.title}")
    header = f"{'metric':<22}{'expected':>14}{'computed':>14}{'tolerance':>12}  status"
    print(header)
    print("-" * len(header))
    for check in result.checks:
        tol = "exact" if check.tolerance is None else f"{check.tolerance:.3g}"
        status = "pass" if check.passed else "FAIL"
        print(
            f"{check.metric:<22}{_fmt_value(check.expected):>14}"
            f"{_fmt_value(check.computed):>14}{tol:>12}  {status}"
        )

    if args.export is not None:
        try:
            os.makedirs(args.export, exist_ok=True)
            sid = scenario.scenario_id
            export_result(result, "report-json", os.path.join(args.export, f"{sid}-report.json"))
            export_result(result, "histogram-csv", os.path.join(args.export, f"{sid}-g-histogram.csv"))
            export_result(result, "deficit-csv", os.path.join(args.export, f"{sid}-deficit-histogram.csv"))
            export_result(result, "fcurve-csv", os.path.join(args.export, "deficit-curve.csv"))
        except OSError as exc:
            _err(f"cannot export: {exc}")
            return 1
        print(f"exported: {args.export}")

    return 0 if result.all_passed else 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevrel",
        description="Severity-aware reliability analysis: how often failure happens, and how bad it is.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="analytic deficit-map queries")
    mode = solve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--f", type=float, metavar="B", help="normalized deficit at reliability index B")
    mode.add_argument("--inverse", type=float, metavar="EFSTAR", help="severity index for a normalized deficit")
    mode.add_argument(
        "--closed-form",
        dest="closed_form",
        type=float,
        metavar="BETA",
        help="Gaussian benchmark deficit for a frequency index BETA",
    )
    solve.set_defaults(handler=_cmd_solve)

    cls = sub.add_parser("classify", help="map a severity measure to its level")
    which = cls.add_mutually_exclusive_group(required=True)
    which.add_argument("--efstar", type=float, metavar="VALUE", help="normalized expected failure deficit")
    which.add_argument("--betas", type=float, metavar="VALUE", help="severity-aware reliability index")
    cls.set_defaults(handler=_cmd_classify)

    sim = sub.add_parser("simulate", help="run a config-driven study and write its report")
    sim.add_argument("config", help="path to a JSON analysis config")
    sim.add_argument("--seed", type=int, help="override masterSeed")
    sim.add_argument("--n", type=int, help="override sampleCount")
    sim.set_defaults(handler=_cmd_simulate)

    sc = sub.add_parser("scenario", help="rerun a builtin study and grade its expectations")
    sc.add_argument("id", help="scenario id (see package docs for the list)")
    sc.add_argument("--export", metavar="DIR", help="write report and histogram files into DIR")
    sc.add_argument("--seed", type=int, help="override the scenario's default seed")
    sc.add_argument("--n", type=int, help="override the scenario's sample count")
    sc.set_defaults(handler=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.handler(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
