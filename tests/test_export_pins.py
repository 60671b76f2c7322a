"""What users see, pinned: `sevrel scenario <id> --export DIR --n 330000`.

Each pin is the sha256 of one output of that command at the built-in's
default seed: the report JSON, the two histogram CSVs and stdout, with
the export directory written as DIR. `deficit-curve.csv` depends on no
run and has one pin. 330 000 samples are five 65 536-value blocks and a
ragged sixth. A change that alters any of these bytes fails here until
it bumps SCHEMA_VERSION and pins the new digests in the open. Version 13
calibrates every model on a grid of the density of the rest of g, with
no sample drawn. That changed the calibrated shifts of some library
models, but no built-in's, so only the `schemaVersion` field of every
report.

numpy sends float64 log, exp and power to AVX-512 kernels where the CPU
has them, and those differ from the other kernels in the last bit. Four
of the pinned built-ins give the same bytes with numpy's AVX-512 kernels
on and off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
The others do not: scenarioA and scenarioB have exact calibrated shifts,
the same on both paths, but their runs differ in the last
digit (scenarioA's maxG, and so its g histogram; scenarioB's
conditionalStd), and the reports of example2-mild, case-study and
figure-grid-mild differ in the last digit of several fields. Their
outputs are pinned once per dispatch path (WITHOUT_AVX512), and so are
those of the two `sevrel simulate` configs. On a CPU with AVX-512, the
last test checks every pin again in a process with those kernels off.
"""

import hashlib
import json
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from sevrel.cli import main
from sevrel.report import SCHEMA_VERSION

N = "330000"
FCURVE = "18e3ebbe3b8be7da54bdeab4301e9883fd6cd2e51b087cdf7b885b7a52ccf7fb"

# exit code, then the digests of report, g histogram, deficit histogram, stdout
PINS = {
    "example1-gaussian": (
        0,
        "00d5e1f5f865de1fcc339a126251466af21c932a6b338dce944b4023d5e430b8",
        "b1d5f548bc1e288f31700c6053e6ca134107fdfb464ab269d68bfd816044e6d3",
        "c6d77424d1313059deb4b0b99a34095ee5488f4d724e7eea41dfe1df37c9fab9",
        "b0a2d3e9a5bc90e08de7b4cde241a64d266b65c8d6ac2d6922832d456a9c48e1",
    ),
    "example3-extreme": (
        0,
        "15851ef582b05b75ed31f194bdc5c92fdf2be4e41b8b8431ffab33aebedb99ba",
        "85ff4a5dab7abc915dc5ab46cb1ca22381f8f5dd583ebcff33824b03d9d6ca04",
        "7f813951c828e965b0b3f557c580b61eddf331ebb7879620aa397a11992b6bf1",
        "c52f3cf0c10f17bba6905f987784b26bf4b423e44c1c2735b761cb8d93f11b04",
    ),
    "scenarioA": (
        0,
        "ca4aa205412f7208ce2c763cce6036330eaa8b722d4f7fe8f11acee9ecbd7964",
        "618285b134e7772bb18db75ef74bfd27372d5d4cbaa58c00d1a364137114ef52",
        "72ef64a4d7be7cb45f5a9449735b773cb44e976a4ebfe8294233b513eef63c19",
        "0291e19b909973d1fd04a71b232fb13574eb070b08381312a9dc387d285a8158",
    ),
    "scenarioB": (
        0,
        "8f667ea6a758aa505b7d1b64aefe59a6be3b4d8b0da3da2e557a2225952b64da",
        "d28b51b1e37497ea5e1fcc5087a78fa5a0ea05081e7b09688fbb922064721ede",
        "f99b09d95346c448761a20748794a1be8b67379d9d12e7510373dac6238dcb2c",
        "bb88ee494c485774dac847bf6e4af7d3b113921e493711160eefa8c2500db5b1",
    ),
    "example2-mild": (
        5,
        "24829244e15dbd808948c49bec81be3248a52fed923d52aa601eec057207ffdc",
        "ff19a2d1e7a224373efaa1f610957ed583f6ec317ba94a4ee917dc8cd6298bb7",
        "bd3d2fdb3e434aa20f2089cba241ce239ea3522569f131b914bd3ec5d370ba8e",
        "8e55024bd4cc0a04e8d6448aec87295dcbb2a37a823e92c37ba48d62812d02ce",
    ),
    "case-study": (
        5,
        "1abbc4940df67eb1e19689200ee9be2440983800b6108d81083c53e0fff9eb02",
        "1e11533d11c566beadfb96b6503fc66828934692b7a43376725ad752b91f5cac",
        "c2e3c481f4a4bc3959f349abd03b49a76c944c9eaeea9b6ee3bd414143dfd842",
        "ce33d8b3805835ee1d711228681ef1be4080975d63d03ad8155ca64287f21529",
    ),
    "figure-grid-gaussian": (
        5,
        "a7c98a707092e0debe6ab7d001fdbc712b5c42a6b70074dff5f2339877adf8c4",
        "0ae0b9bcf23c58bc5b167eaefdc145125b92a3879fb9a7f5236c03aadca6d226",
        "d376e1245fe5ed2181c5f45b885cbac292f90f9a45f9727e727e6f6d8b54c932",
        "5a7500f12484e0051a0b5475c4865815e0aef93753845052646280be98899837",
    ),
    "figure-grid-mild": (
        0,
        "9680e7e1f02e34accd302446a6e6e5cc3be91c2b7e307f665d53ff2bc45f05a3",
        "90fa4c2965acaea7f952aa493fa837ad51c87f7d9681d0539a638240d8e28dd3",
        "0abb2992c4237f496f40f30433ecbaf003550e6c02016d2f6a925cfbabdd7b07",
        "21ed9ffe70516a42e192f354369db08e2e4d236774595eb2c2ebaa792b8aab95",
    ),
    "figure-grid-heavy": (
        0,
        "1bd87552b6ccb189cf6df2745ffa2a5e91ab5dbe6b92bba99305dd030ff95b2a",
        "b7e113c5b506917a8e0eba05a0cc9a221fdde3796e76bb4a2628d5db88d91edd",
        "ed7876063f3d80d089663cbfe660fe7c07b09bca1f5e61c8aac80eb70647dcc6",
        "36fe2e4c0ba329c8684452dbac13a2befa4646b6f2dd30f10237a3d325ca6d9e",
    ),
}


# The pins that differ where numpy runs without its AVX-512 kernels.
WITHOUT_AVX512 = {
    "example2-mild": (
        5,
        "f2b8fd53b1ec96a452b372ccda73c8a2932324552edd3adb0b2fb95ff1873d28",
        "ff19a2d1e7a224373efaa1f610957ed583f6ec317ba94a4ee917dc8cd6298bb7",
        "bd3d2fdb3e434aa20f2089cba241ce239ea3522569f131b914bd3ec5d370ba8e",
        "8e55024bd4cc0a04e8d6448aec87295dcbb2a37a823e92c37ba48d62812d02ce",
    ),
    "case-study": (
        5,
        "88447c4e53cffff184242652d9858e8553a4a2c5d41faef451d64b4c14919dd3",
        "1e11533d11c566beadfb96b6503fc66828934692b7a43376725ad752b91f5cac",
        "c2e3c481f4a4bc3959f349abd03b49a76c944c9eaeea9b6ee3bd414143dfd842",
        "ce33d8b3805835ee1d711228681ef1be4080975d63d03ad8155ca64287f21529",
    ),
    "figure-grid-mild": (
        0,
        "71a12c806a996b68abca59ed2a2439b5cd82086ad3d6e9da31767b05afad2d26",
        "90fa4c2965acaea7f952aa493fa837ad51c87f7d9681d0539a638240d8e28dd3",
        "0abb2992c4237f496f40f30433ecbaf003550e6c02016d2f6a925cfbabdd7b07",
        "21ed9ffe70516a42e192f354369db08e2e4d236774595eb2c2ebaa792b8aab95",
    ),
    "scenarioA": (
        0,
        "322537e55ca2b3fc3e3ba192f37bc7f395d4748c380b7c46ab7d5213f111f261",
        "2791c24b52bf2ec5f0d31394932e76aecadd77ba9654c7b2b8c15afb58bf10b4",
        "72ef64a4d7be7cb45f5a9449735b773cb44e976a4ebfe8294233b513eef63c19",
        "0291e19b909973d1fd04a71b232fb13574eb070b08381312a9dc387d285a8158",
    ),
    "scenarioB": (
        0,
        "e0c98fe370f7e57660f05ff35895b903eef06998246c18164dd2c45dc96564ed",
        "d28b51b1e37497ea5e1fcc5087a78fa5a0ea05081e7b09688fbb922064721ede",
        "f99b09d95346c448761a20748794a1be8b67379d9d12e7510373dac6238dcb2c",
        "bb88ee494c485774dac847bf6e4af7d3b113921e493711160eefa8c2500db5b1",
    ),
}


def _pins(key: str, on: dict = PINS, off: dict = WITHOUT_AVX512) -> tuple:
    # numpy 2.4 reports X86_V4 when it dispatches to its AVX-512 kernels
    return on[key] if __cpu_features__.get("X86_V4") else off.get(key, on[key])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_are_for_this_schema_version():
    assert SCHEMA_VERSION == 13, "a new schemaVersion pins its own export digests"


@pytest.mark.parametrize("sid", PINS)
def test_export_matches_its_pins(sid, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["scenario", sid, "--export", str(out), "--n", N])
    stdout = capsys.readouterr().out.replace(str(out), "DIR")
    seen = (
        code,
        _sha256((out / f"{sid}-report.json").read_bytes()),
        _sha256((out / f"{sid}-g-histogram.csv").read_bytes()),
        _sha256((out / f"{sid}-deficit-histogram.csv").read_bytes()),
        _sha256(stdout.encode("utf-8")),
    )
    assert seen == _pins(sid), f"`sevrel scenario {sid} --export DIR --n {N}` changed what users see"
    assert _sha256((out / "deficit-curve.csv").read_bytes()) == FCURVE


# `sevrel simulate CONFIG`, run in a directory holding only the config.
# No built-in has an assessment, so the report's "assessment" block and
# exit codes 3 and 4 are reached only through a config. Between them the
# two configs use every distribution kind and both lognormal forms.
CONFIGS = {
    # betaTarget alone: the ceiling takes its default, III, and only the
    # default output, report.json, is written
    "rejected": {
        "model": {
            "terms": [
                {"name": "resistance", "coefficient": 1.0,
                 "distribution": {"kind": "lognormal", "median": 1520.0, "cov": 0.1}},
                {"name": "dead", "coefficient": -1.2,
                 "distribution": {"kind": "normal", "mean": 500.0, "stddev": 50.0}},
                {"name": "live", "coefficient": -1.6,
                 "distribution": {"kind": "mixture", "components": [
                     {"weight": 0.9995, "distribution": {"kind": "gumbel", "location": 150.0, "scale": 30.0}},
                     {"weight": 0.0005, "distribution": {"kind": "gumbel", "location": 500.0, "scale": 30.0}},
                 ]}},
            ]
        },
        "simulation": {"sampleCount": 330000},
        "assessment": {"betaTarget": 4.5},
    },
    # both assessment keys and all four outputs
    "redesign": {
        "model": {
            "shift": -0.5,
            "terms": [
                {"name": "capacity", "coefficient": 1.0,
                 "distribution": {"kind": "lognormal", "logMean": 3.0, "logStd": 0.05}},
                {"name": "demand", "coefficient": -1.0,
                 "distribution": {"kind": "mixture", "components": [
                     {"weight": 0.999, "distribution": {"kind": "normal", "mean": 5.0, "stddev": 2.0}},
                     {"weight": 0.001, "distribution": {"kind": "pareto", "xMin": 10.0, "alpha": 1.5}},
                 ]}},
            ],
        },
        "simulation": {"sampleCount": 330000, "masterSeed": 11, "chunkSize": 1000000},
        "assessment": {"betaTarget": 3.0, "maxAcceptableLevel": "II"},
        "output": {"reportJson": "out/report.json", "histogramCsv": "out/g.csv",
                   "deficitCsv": "out/deficit.csv", "fcurveCsv": "out/curve.csv"},
    },
}

# exit code, the digest of every file written, and that of stdout
SIMULATE_PINS = {
    "rejected": (
        3,
        {"report.json": "8dc5bfbfb084d0ac16a7257bade36235ce6affccb202a10f859ce01c09276975"},
        "73dcf47679461a4ee75238ca33c68ce4f4489b2541c34e6031f53b5e60e52a80",
    ),
    "redesign": (
        4,
        {
            "out/curve.csv": FCURVE,
            "out/deficit.csv": "2cccb10607aee93fe4319e84e9f89e0fe59b1f87881a9b567040d1241768d091",
            "out/g.csv": "cd2162c0751386a93e5a9694561f72406a41483b0c9969ef1a31f8d08b62e3b4",
            "out/report.json": "861bef9ee68a38b25f07978c4befaed8e0c125b8dbb778084786f2162ba67b16",
        },
        "1837cca8a246224c5f5fce8da43f23625386c569d9bc5ed4710db795a856c499",
    ),
}
SIMULATE_WITHOUT_AVX512 = {
    "rejected": (
        3,
        {"report.json": "5b43d5b3db49908833ce32a1178fdb8c2952260358637925dbb8129800fc132e"},
        "73dcf47679461a4ee75238ca33c68ce4f4489b2541c34e6031f53b5e60e52a80",
    ),
    "redesign": (
        4,
        {
            "out/curve.csv": FCURVE,
            "out/deficit.csv": "613b3e897f85cc7cf2aea0cf1aeecca5b6937313cfba5641dfc2783f8d0f47ea",
            "out/g.csv": "b883652d3bb12852c34b500da602d41245a68c0bd68884f010d6494d5ed3dc2e",
            "out/report.json": "a0cd7b2e19110d74f8ad900ef9ef8d1f2f4ce9bde1e30a5da58c4a75030b5ec0",
        },
        "1837cca8a246224c5f5fce8da43f23625386c569d9bc5ed4710db795a856c499",
    ),
}


@pytest.mark.parametrize("name", SIMULATE_PINS)
def test_simulate_matches_its_pins(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(CONFIGS[name]))
    code = main(["simulate", "config.json"])
    written = {
        str(p.relative_to(tmp_path)): _sha256(p.read_bytes())
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }
    seen = (code, written, _sha256(capsys.readouterr().out.encode("utf-8")))
    assert seen == _pins(name, SIMULATE_PINS, SIMULATE_WITHOUT_AVX512), f"`sevrel simulate` on the {name!r} config changed what users see"


def test_the_pins_hold_without_the_avx512_kernels(rerun_without_avx512):
    rerun_without_avx512()
