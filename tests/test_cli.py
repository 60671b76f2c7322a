"""CLI tests through main(argv), asserting text, files, and exit codes."""

import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sevrel
from sevrel import report as rep
from sevrel import scenarios
from sevrel.cli import main
from sevrel.gaussian import DEFICIT_ENDPOINT, deficit


def make_config(tmp_path, name="analysis.json", **overrides):
    data = {
        "model": {
            "terms": [
                {
                    "name": "margin",
                    "coefficient": 1.0,
                    "distribution": {"kind": "normal", "mean": 2.0, "stddev": 1.0},
                }
            ]
        },
        "simulation": {"sampleCount": 20000, "masterSeed": 3},
        "output": {"reportJson": str(tmp_path / "report.json")},
    }
    for key, value in overrides.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- solve ------------------------------------------------------------------


def test_solve_forward(capsys):
    assert main(["solve", "--f", "1.0"]) == 0
    assert capsys.readouterr().out == "0.525135276161\n"


def test_solve_inverse(capsys):
    assert main(["solve", "--inverse", "0.4741"]) == 0
    value = float(capsys.readouterr().out)
    assert abs(value - 1.2776050543959377) < 1e-10


def test_solve_inverse_beyond_endpoint(capsys):
    assert main(["solve", "--inverse", "0.9"]) == 0
    out = capsys.readouterr().out
    assert out == "EXTREME: beyond Gaussian endpoint 0.797884560803\n"
    # the endpoint itself is already unreachable
    assert main(["solve", "--inverse", repr(DEFICIT_ENDPOINT)]) == 0
    assert "EXTREME" in capsys.readouterr().out


def test_solve_closed_form(capsys):
    assert main(["solve", "--closed-form", "2.5"]) == 0
    value = float(capsys.readouterr().out)
    assert abs(value - deficit(2.5)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["solve", "--f", "0"],
    ["solve", "--f", "-1"],
    ["solve", "--f", "nan"],
    ["solve", "--inverse", "-0.5"],
    ["solve", "--closed-form", "inf"],
])
def test_solve_rejects_bad_values(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_flags_are_exclusive(capsys):
    assert main(["solve", "--f", "1", "--inverse", "0.3"]) == 2
    assert main(["solve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("module", ["sevrel", "sevrel.cli"])
def test_python_dash_m_runs_the_cli(module):
    # run the package under test, wherever it was imported from
    src = str(Path(sevrel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", "--f", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.28309865493\n"


@pytest.mark.parametrize("sid", ["example1-gaussian", "case-study"])
def test_a_scenario_without_a_normal_quantile_leaves_scipy_unloaded(sid):
    # scipy.special (ndtr, ndtri) is imported on first use, and neither
    # the sampling of these models nor their metrics call it
    src = str(Path(sevrel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from sevrel.cli import main\n"
        f"main(['scenario', {sid!r}, '--n', '330000'])\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- classify -----------------------------------------------------------------


def test_classify_efstar(capsys):
    assert main(["classify", "--efstar", "0.30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Level II: Moderate"
    assert len(lines) == 2 and lines[1]


def test_classify_betas(capsys):
    assert main(["classify", "--betas", "2.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Level II: Moderate"


def test_classify_extreme_value(capsys):
    assert main(["classify", "--efstar", "0.80"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Level V: Extreme"


@pytest.mark.parametrize("argv", [
    ["classify", "--efstar", "-1"],
    ["classify", "--betas", "0"],
])
def test_classify_domain_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- simulate -----------------------------------------------------------------


def test_simulate_happy_path(tmp_path, capsys):
    cfg = make_config(tmp_path)
    assert main(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    assert "p_f" in out and "beta_S" in out
    assert f"report: {tmp_path / 'report.json'}" in out

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schemaVersion"] == 14
    assert doc["simulation"]["sampleCount"] == 20000
    assert doc["assessment"] is None
    assert abs(doc["metrics"]["beta"] - 2.0) < 0.1
    assert "scenario" not in doc


def test_simulate_reports_are_byte_stable(tmp_path):
    cfg = make_config(tmp_path)
    assert main(["simulate", cfg, "--seed", "5"]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["simulate", cfg, "--seed", "5"]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_simulate_overrides(tmp_path):
    cfg = make_config(tmp_path)
    assert main(["simulate", cfg, "--n", "5000", "--seed", "9"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["simulation"]["sampleCount"] == 5000
    assert doc["simulation"]["masterSeed"] == 9


def test_simulate_rejects_bad_override(tmp_path, capsys):
    cfg = make_config(tmp_path)
    assert main(["simulate", cfg, "--n", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_frequency_rejection(tmp_path, capsys):
    cfg = make_config(tmp_path, assessment={"betaTarget": 3.0})
    assert main(["simulate", cfg]) == 3
    assert "RejectFrequency" in capsys.readouterr().out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["assessment"]["verdict"] == "RejectFrequency"
    assert doc["assessment"]["frequencyPass"] is False


def test_simulate_extreme_redesign(tmp_path, capsys):
    cfg = make_config(
        tmp_path,
        model={
            "shift": 3.0,
            "terms": [
                {
                    "name": "load",
                    "coefficient": -1.0,
                    "distribution": {"kind": "pareto", "xMin": 1.0, "alpha": 1.5},
                }
            ],
        },
        assessment={"betaTarget": 0.5},
    )
    assert main(["simulate", cfg]) == 4
    out = capsys.readouterr().out
    assert "ExtremeRedesign" in out
    assert "flag: variance-infinite-or-unstable" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["assessment"]["severityLevel"] == "V: Extreme"
    assert doc["metrics"]["extremeFlag"] == "variance-infinite-or-unstable"


def test_simulate_advisory_above_ceiling(tmp_path, capsys):
    cfg = make_config(tmp_path, assessment={"betaTarget": 1.5, "maxAcceptableLevel": "I"})
    assert main(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    assert "advisory" in out and "exceeds" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["assessment"]["verdict"] == "AcceptWithLevel"
    assert doc["assessment"]["maxAcceptableLevel"] == "I: Mild"


def test_simulate_zero_failures(tmp_path, capsys):
    cfg = make_config(
        tmp_path,
        model={
            "terms": [
                {
                    "name": "margin",
                    "coefficient": 1.0,
                    "distribution": {"kind": "normal", "mean": 30.0, "stddev": 1.0},
                }
            ]
        },
        simulation={"sampleCount": 1000},
        assessment={"betaTarget": 3.0},
    )
    # beta is undefined, so the frequency gate cannot run; report only
    assert main(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    assert "no failures at N=1000" in out
    assert "verdict" not in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["metrics"]["beta"] is None
    assert doc["assessment"] is None
    assert any("1/N" in note for note in doc["notes"])


def test_simulate_every_sample_fails(tmp_path, capsys):
    model = {
        "terms": [
            {
                "name": "margin",
                "coefficient": 1.0,
                "distribution": {"kind": "normal", "mean": -10.0, "stddev": 1.0},
            }
        ]
    }
    cfg = make_config(tmp_path, model=model, simulation={"sampleCount": 10000})
    assert main(["simulate", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "> 0.9999 (every sample fails at N=10000)" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["metrics"]["pf"] == 1.0 and doc["metrics"]["beta"] is None
    assert doc["metrics"]["efStar"] is not None and doc["metrics"]["level"] == "V: Extreme"
    assert "every sample fails at N=10000; p_f > 0.9999 (1/N bound)" in doc["notes"]
    assert doc["assessment"] is None

    # beta lies below norm_quantile(1/N) < 0, so any positive target rejects
    cfg = make_config(
        tmp_path, model=model, simulation={"sampleCount": 10000}, assessment={"betaTarget": 0.5}
    )
    assert main(["simulate", cfg]) == 3
    out, err = capsys.readouterr()
    assert err == "" and "RejectFrequency" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["assessment"]["verdict"] == "RejectFrequency"
    assert doc["assessment"]["frequencyPass"] is False


def test_simulate_writes_csv_outputs(tmp_path):
    cfg = make_config(
        tmp_path,
        output={
            "reportJson": str(tmp_path / "r.json"),
            "histogramCsv": str(tmp_path / "g.csv"),
            "deficitCsv": str(tmp_path / "d.csv"),
            "fcurveCsv": str(tmp_path / "curve.csv"),
        },
    )
    assert main(["simulate", cfg]) == 0
    glines = (tmp_path / "g.csv").read_text().splitlines()
    assert glines[0] == "bin_left,bin_right,count"
    assert sum(int(l.split(",")[2]) for l in glines[1:]) == 20000
    assert (tmp_path / "d.csv").read_text().startswith("bin_left")
    assert (tmp_path / "curve.csv").read_text().splitlines()[0] == "b,deficit,boundary"


def test_simulate_deficit_csv_header_only_without_failures(tmp_path):
    cfg = make_config(
        tmp_path,
        model={
            "terms": [
                {
                    "name": "margin",
                    "coefficient": 1.0,
                    "distribution": {"kind": "normal", "mean": 30.0, "stddev": 1.0},
                }
            ]
        },
        simulation={"sampleCount": 1000},
        output={
            "reportJson": str(tmp_path / "r.json"),
            "deficitCsv": str(tmp_path / "d.csv"),
        },
    )
    assert main(["simulate", cfg]) == 0
    assert (tmp_path / "d.csv").read_text() == "bin_left,bin_right,count\n"


def test_simulate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    # the deficit store, the robust subsample and their caps are gone; an
    # old config naming a cap is refused like any other unknown key
    for key in ("failureReservoirCap", "robustSubsampleCap"):
        old = make_config(tmp_path, simulation={"sampleCount": 1000, key: 10})
        assert main(["simulate", old]) == 2
        assert f"error: {old}.simulation: unknown key '{key}'" in capsys.readouterr().err


def test_simulate_refuses_a_chunk_size_other_than_the_segment(tmp_path, capsys):
    # the stream is keyed per block; the old key is accepted only with the
    # value the benchmark harness writes, and sets nothing
    cfg = make_config(tmp_path, simulation={"sampleCount": 100000, "masterSeed": 7, "chunkSize": 50000})
    assert main(["simulate", cfg]) == 2
    assert f"error: {cfg}.simulation.chunkSize: must be 1000000" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    cfg = make_config(tmp_path, simulation={"sampleCount": 1000, "chunkSize": 1000000})
    assert main(["simulate", cfg]) == 0
    assert "chunkSize" not in json.loads((tmp_path / "report.json").read_text())["simulation"]


def test_simulate_rejects_non_finite_g(tmp_path, capsys):
    # a finite coefficient whose product with the samples overflows to inf;
    # g is never below 0, so this used to read as "no failures". The
    # Pareto variance is infinite (alpha <= 2), so the analytic check
    # passes and only the block check can catch it.
    model = {
        "terms": [
            {
                "name": "margin",
                "coefficient": 1e10,
                "distribution": {"kind": "pareto", "xMin": 1e300, "alpha": 1.5},
            }
        ]
    }
    cfg = make_config(tmp_path, model=model)
    # the clean error comes without a raw numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: g is not finite in block 0 (stream positions 0 to 19999)" in err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rejects_variance_overflow(tmp_path, capsys, monkeypatch):
    # with 1e200, g stays finite (about 2e200) but the analytic variance
    # 1e400 does not; this used to read as an infinite variance, level V,
    # exit 0. With 1e308 g itself overflows. Both fail before sampling.
    def never(*args, **kwargs):
        raise AssertionError("simulate ran although the variance overflows")

    monkeypatch.setattr(scenarios, "simulate", never)
    for coefficient in (1e200, 1e308):
        model = {
            "terms": [
                {
                    "name": "margin",
                    "coefficient": coefficient,
                    "distribution": {"kind": "normal", "mean": 2.0, "stddev": 1.0},
                }
            ]
        }
        cfg = make_config(tmp_path, model=model)
        assert main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: term 'margin': the variance of g overflows" in err
        assert not (tmp_path / "report.json").exists()


def test_simulate_rejects_constant_g(tmp_path, capsys, monkeypatch):
    # sigma_g is 0, so E_f* has nothing to divide by; this used to end in
    # a ZeroDivisionError traceback (exit 1) after sampling
    def never(*args, **kwargs):
        raise AssertionError("simulate ran although g is constant")

    monkeypatch.setattr(scenarios, "simulate", never)
    model = {
        "shift": -1.0,
        "terms": [
            {
                "name": "margin",
                "coefficient": 0.0,
                "distribution": {"kind": "normal", "mean": 2.0, "stddev": 1.0},
            }
        ],
    }
    assert main(["simulate", make_config(tmp_path, model=model)]) == 2
    assert "error: g is constant (it always equals -1.0)" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rejects_sample_variance_overflow(tmp_path, capsys):
    # the analytic variance, 1.69e308, is finite and every g is finite, but
    # the sample M2 overflows; this used to end in a traceback (exit 1)
    model = {
        "terms": [
            {
                "name": "margin",
                "coefficient": 1.0,
                "distribution": {"kind": "normal", "mean": 0.0, "stddev": 1.3e154},
            }
        ]
    }
    cfg = make_config(tmp_path, model=model, simulation={"sampleCount": 10000})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", cfg]) == 2
    assert "error: the sample variance of g overflows" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_infinite_variance_keeps_its_flag(tmp_path, capsys):
    # the example3-extreme model: its Pareto branch has a genuinely
    # infinite variance, which is flagged, not rejected as an overflow
    demand = {
        "kind": "mixture",
        "components": [
            {"weight": 0.999, "distribution": {"kind": "normal", "mean": 5.0, "stddev": 2.0}},
            {"weight": 0.001, "distribution": {"kind": "pareto", "xMin": 10.0, "alpha": 1.5}},
        ],
    }
    model = {
        "terms": [
            {"name": "capacity", "coefficient": 1.0, "distribution": {"kind": "normal", "mean": 20.0, "stddev": 1.5}},
            {"name": "demand", "coefficient": -1.0, "distribution": demand},
        ]
    }
    assert main(["simulate", make_config(tmp_path, model=model)]) == 0
    assert "flag: variance-infinite-or-unstable" in capsys.readouterr().out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["metrics"]["extremeFlag"] == "variance-infinite-or-unstable"


def test_simulate_rejects_nan_in_config(tmp_path, capsys):
    cfg = make_config(tmp_path)
    text = Path(cfg).read_text().replace('"mean": 2.0', '"mean": NaN')
    Path(cfg).write_text(text)
    assert main(["simulate", cfg]) == 2
    assert "distribution.mean: expected a finite number, got nan" in capsys.readouterr().err


def test_simulate_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = make_config(tmp_path, output={"reportJson": str(blocker / "r.json")})
    assert main(["simulate", cfg]) == 1
    assert "cannot write" in capsys.readouterr().err
    # a report path that names a directory fails at the rename
    target = tmp_path / "isdir.json"
    target.mkdir()
    cfg = make_config(tmp_path, output={"reportJson": str(target)})
    assert main(["simulate", cfg]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert not (tmp_path / "isdir.json.tmp").exists()


@pytest.mark.parametrize("key", ["reportJson", "histogramCsv", "deficitCsv", "fcurveCsv"])
def test_simulate_refuses_an_empty_output_path_before_sampling(tmp_path, capsys, monkeypatch, key):
    # an empty reportJson used to simulate in full and then fail at the
    # rename; an empty CSV path was skipped without a word
    monkeypatch.setattr(sevrel.cli, "run", lambda *args, **kwargs: pytest.fail("the study ran"))
    cfg = make_config(tmp_path, output={"reportJson": str(tmp_path / "report.json"), key: ""})
    assert main(["simulate", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg}.output.{key}: must not be empty\n"
    assert list(tmp_path.iterdir()) == [Path(cfg)]


@pytest.mark.parametrize(
    "output, key, other",
    [
        # the deficit histogram used to replace the g histogram
        ({"histogramCsv": "h.csv", "deficitCsv": "h.csv"}, "deficitCsv", "{cfg}.output.histogramCsv"),
        # the report used to replace the config
        ({"reportJson": "analysis.json"}, "reportJson", "the config file"),
    ],
    ids=["two-keys", "the-config-file"],
)
def test_simulate_refuses_output_paths_that_collide_before_sampling(tmp_path, capsys, monkeypatch, output, key, other):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sevrel.cli, "run", lambda *args, **kwargs: pytest.fail("the study ran"))
    cfg = make_config(tmp_path, output=output)
    text = Path(cfg).read_text()
    assert main(["simulate", cfg]) == 2
    message = f"{cfg}.output.{key}: {output[key]!r} is the same file as {other.format(cfg=cfg)}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [Path(cfg)]
    assert Path(cfg).read_text() == text


def test_simulate_refuses_the_default_report_path_when_it_is_the_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = make_config(tmp_path, name="report.json", output=None)
    text = Path(cfg).read_text()
    assert main(["simulate", "report.json"]) == 2
    assert capsys.readouterr().err == (
        "error: report.json.output.reportJson: 'report.json' is the same file as the config file\n"
    )
    assert Path(cfg).read_text() == text


def test_simulate_refuses_a_key_given_twice_before_sampling(tmp_path, capsys, monkeypatch):
    # json.loads kept the last betaTarget, 1.0, and accepted a design at
    # beta = 2 that the first, 3.5, rejects
    monkeypatch.setattr(sevrel.cli, "run", lambda *args, **kwargs: pytest.fail("the study ran"))
    cfg = make_config(tmp_path, assessment={"betaTarget": 3.5})
    Path(cfg).write_text(Path(cfg).read_text().replace('"betaTarget": 3.5', '"betaTarget": 3.5, "betaTarget": 1.0'))
    assert main(["simulate", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: duplicate key 'betaTarget'\n"
    assert list(tmp_path.iterdir()) == [Path(cfg)]


def test_simulate_keeps_a_config_named_like_its_report_temp_file(tmp_path, monkeypatch):
    # the report's temp file used to be run.json.tmp: the config, which
    # the rename then deleted
    monkeypatch.chdir(tmp_path)
    cfg = make_config(tmp_path, name="run.json.tmp", output={"reportJson": "run.json"})
    text = Path(cfg).read_text()
    assert main(["simulate", "run.json.tmp"]) == 0
    assert Path(cfg).read_text() == text
    assert json.loads((tmp_path / "run.json").read_text())["schemaVersion"] == rep.SCHEMA_VERSION
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "run.json.tmp"]


def test_simulate_keeps_an_output_named_like_another_outputs_temp_file(tmp_path, capsys, monkeypatch):
    # the histogram's temp file used to be out.csv.tmp: the report, which
    # the histogram then replaced and the rename deleted
    monkeypatch.chdir(tmp_path)
    cfg = make_config(tmp_path, output={"reportJson": "out.csv.tmp", "histogramCsv": "out.csv"})
    assert main(["simulate", cfg]) == 0
    assert "report: out.csv.tmp" in capsys.readouterr().out
    assert json.loads((tmp_path / "out.csv.tmp").read_text())["schemaVersion"] == rep.SCHEMA_VERSION
    assert (tmp_path / "out.csv").read_text().startswith("bin_left,bin_right,count\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["analysis.json", "out.csv", "out.csv.tmp"]


def test_write_text_never_replaces_a_file_at_its_temp_name(tmp_path):
    taken = tmp_path / ".report.json.0.tmp"
    taken.write_text("mine\n")
    rep.write_text(str(tmp_path / "report.json"), "new\n")
    assert taken.read_text() == "mine\n"
    assert (tmp_path / "report.json").read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".report.json.0.tmp", "report.json"]


def test_an_output_has_the_permissions_of_a_new_file(tmp_path):
    # the umask applies, as it does to a file that open() creates
    umask = os.umask(0o027)
    try:
        rep.write_text(str(tmp_path / "report.json"), "new\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("report.json", "plain.txt")}
    assert modes == {0o640}


@pytest.mark.parametrize(
    "sid", [sid for sid in scenarios.SCENARIO_IDS if scenarios.builtin(sid).calibrate_pf is None]
)
def test_simulate_and_scenario_agree(sid, tmp_path, capsys):
    # a built-in written as a config runs the same pipeline as `sevrel scenario`
    study = scenarios.builtin(sid)
    files = {"reportJson": "r.json", "histogramCsv": "g.csv", "deficitCsv": "d.csv", "fcurveCsv": "c.csv"}
    cfg = make_config(
        tmp_path,
        model=rep.model_document(study.model),
        simulation={"sampleCount": 330_000, "masterSeed": study.default_seed},
        output={key: str(tmp_path / "sim" / name) for key, name in files.items()},
    )
    assert main(["simulate", cfg]) == 0
    main(["scenario", sid, "--export", str(tmp_path / "scn"), "--n", "330000"])
    capsys.readouterr()
    sim, scn = tmp_path / "sim", tmp_path / "scn"
    config_doc = json.loads((sim / "r.json").read_text())
    scenario_doc = json.loads((scn / f"{sid}-report.json").read_text())
    for key in ("model", "simulation", "analyticMoments", "summary", "metrics", "notes"):
        assert config_doc[key] == scenario_doc[key], key
    for config_csv, scenario_csv in (
        ("g.csv", f"{sid}-g-histogram.csv"),
        ("d.csv", f"{sid}-deficit-histogram.csv"),
        ("c.csv", "deficit-curve.csv"),
    ):
        assert (sim / config_csv).read_bytes() == (scn / scenario_csv).read_bytes(), scenario_csv


def test_write_text_cleans_up_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        rep.write_text(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


# --- scenario -------------------------------------------------------------------


def test_scenario_unknown_id(capsys):
    assert main(["scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "example1-gaussian" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scenarioA", "--n", "100"], "below 10"),  # too few samples to calibrate
        (["example1-gaussian", "--n", "0"], "sample_count must be at least 1"),
        (["example1-gaussian", "--seed", "-1"], "master_seed must be non-negative"),
    ],
)
def test_scenario_rejects_bad_overrides(argv, message, capsys):
    assert main(["scenario", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_scenario_pass(capsys):
    # at the scenario's own 5M samples its efStar and betaS tolerances are
    # ~4 standard errors; at 200k they were under one, so the verdict
    # depended on the stream
    assert main(["scenario", "example1-gaussian"]) == 0
    out = capsys.readouterr().out
    assert "Two-Gaussian closed-form check" in out
    assert "pass" in out and "FAIL" not in out
    assert "exact" in out  # the level expectation has no tolerance


def test_scenario_failing_expectations(capsys):
    assert main(["scenario", "example2-mild", "--n", "1000000"]) == 5
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_scenario_export(tmp_path, capsys):
    # at the scenario's own n, like test_scenario_pass: exit 0 needs every check to pass
    rc = main(["scenario", "example1-gaussian", "--export", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exported:" in out
    outdir = tmp_path / "out"
    for name in (
        "example1-gaussian-report.json",
        "example1-gaussian-g-histogram.csv",
        "example1-gaussian-deficit-histogram.csv",
        "deficit-curve.csv",
    ):
        assert (outdir / name).is_file(), name
    doc = json.loads((outdir / "example1-gaussian-report.json").read_text())
    assert doc["scenario"]["id"] == "example1-gaussian"


def test_scenario_export_blocked(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["scenario", "example1-gaussian", "--n", "200000", "--export", str(blocker)])
    assert rc == 1
    assert "cannot export" in capsys.readouterr().err
