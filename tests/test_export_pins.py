"""What users see, pinned: `sevrel scenario <id> --export DIR --n 330000`.

Each pin is the sha256 of one output of that command at the built-in's
default seed: the report JSON, the two histogram CSVs and stdout, with
the export directory written as DIR. `deficit-curve.csv` depends on no
run and has one pin. 330 000 samples are five 65 536-value blocks and a
ragged sixth. A change that alters any of these bytes fails here until
it bumps SCHEMA_VERSION and pins the new digests in the open. Version 14
seeds every term of a block on its own, so every stream changed and
every digest but the run-free deficit curve's was pinned anew.

numpy sends float64 log, exp and power to AVX-512 kernels where the CPU
has them, and those differ from the other kernels in the last bit. Seven
of the pinned built-ins give the same bytes with numpy's AVX-512 kernels
on and off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
The others do not: scenarioA's report differs in the last digit of its
deficitSum and of the metrics drawn from it, and figure-grid-mild's in
its conditionalStd and efStarCI. Their outputs are pinned once per
dispatch path (WITHOUT_AVX512), and so are those of the `sevrel
simulate` config whose bytes differ between the paths. On a CPU with
AVX-512, the last test checks every pin again in a process with those
kernels off.
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
        "87ce183e8d6e104f7beff2b0151dff825fd8f88721facc433f192800308a5c08",
        "7e6b3fb4aa44fc2b7acaea9f693a3ac4cf0ab425e16a92137d043aed63937fd8",
        "ad994b6f07767cc34ceed9846bd7a801ab9a8a1d4283d260cab418ec17306260",
        "9d7a8e439b6772f6a2d632531b5a24782a5c74c49d451ae485a4f8061ac5a1fe",
    ),
    "example3-extreme": (
        0,
        "11bf2a849e9aef59600ef27d44d8dc6385ddba49912981266ed014a07c2e74d9",
        "85a27533335367e69585c7e665b514abebe7f0eee6c1f6e22fc6bbb2884a35b4",
        "8e54aa12a6410b33896219810370740d7bcf62b52e4a93bc3d779fc58383fbf8",
        "0e2c18202ae5a59cd574a0f77cb1fd66f95658afaafcaefba2a8d22a39f6981f",
    ),
    "scenarioA": (
        0,
        "bd439d262dbe7f2ae766856f260bbd5c7def5e823ad90fc71b5b281d2e6beafe",
        "befaf8552f720cb7f59d886c59194ad9accddf3c75f1951bbd05f52c8276eab3",
        "bb53a512b207b5995899ec7ae4393316f02051dccb0f32eee07630edfeb740da",
        "5628aba6e4ad3aaaa92f11a7ffad1af68c48e4a52848952f1e1620ddb2fda9b0",
    ),
    "scenarioB": (
        0,
        "d3fe233433bb30f9ffe47b0f126589832a46e49fec50473ed8a6b2829722776c",
        "744a9b2bf1897e7d0bb947ab762abf4dd7cd1dd4158c8ec97b09b4509cb584a6",
        "6ee39974d3250c6f8b92335ec97d63146d942e2a390cdd07a12d967bff4ce339",
        "b18cc7ce968f05c3bec537884d8a0505e4b1f536d7649248502716e5a0db76a1",
    ),
    "example2-mild": (
        5,
        "783c9fa4757b239bd267aa395918721346eb0c4975293b1ac454ac130179afed",
        "895de9c69c374fa0c5e287682c69a099790323f4a72ac6fcec11e720518dceb5",
        "21bfdeb8800dbffdfe5e7d51d5bff86bd1a19e76eadee24c71d086306d4ff9f4",
        "effa842403095fd668617af81211dddf933bda16bacb32084bb3510158820e27",
    ),
    "case-study": (
        5,
        "fc5b4c4b95b934f6ff78f2fd1c91ae288ea9b1a8a09833cf2e3abbca21cd0a1c",
        "beaf73377dc9501b1c34826a86ff7ef1e350df3c7cb36c9ffad32ad07fe449a4",
        "3382b23c1527e5c743b14b2c7b9038c2ccbfe3531a2132d28f5d1c39ec2c36ec",
        "eb00919210482bb8faf77c1a6fb220684e0044bf3a2cfe6165438f0835856b5a",
    ),
    "figure-grid-gaussian": (
        0,
        "7dfbf0cedf826b5c4657c20a72eef60f83bd4079a570d1cb171a46dacda788bd",
        "2227e876954eee6b6438dd7939d5de4c6f5ae20aeef5668c50043481f85ff925",
        "2c404b8b0c18b511569fdfd6570d51f651a96f60f2401ff8935f092cf0853e3a",
        "6583d219dd2800cce7e5e09cfb4263dacd8f342876fd6145693f3706f6f4b099",
    ),
    "figure-grid-mild": (
        0,
        "b4f983c1afb1df17375dc19c750a093b2244de2e28682940bd5ea3bcfe5685d9",
        "73409a7ba835296f0520eed83d220515bd5404591680f4e98784b546968d57c8",
        "909a85c2051ea9ed16982657f92a9e0f45e7916c2e55b5775cf99b225170c8bf",
        "272b279784bd592d03dc7ea98db8cb814419fcf955f401020c40489a9aa1a097",
    ),
    "figure-grid-heavy": (
        5,
        "4d19a0c26cd272de234bc5018cc35a266e3b6006b2ed9e4bb7fad2d3b3dfe221",
        "26e352ad8625359421c7e27ba95331d91675c9e967f06143cbf9fff4c61f267b",
        "23a70f3d00122d2472683d964bf26885385da5547f7b167d500e9d893b6b6b5a",
        "8d7a0685455b0a7d979a60506456ae62e0331f787045014c8a0f364f6e2d16c1",
    ),
}


# The pins that differ where numpy runs without its AVX-512 kernels.
WITHOUT_AVX512 = {
    "scenarioA": (
        0,
        "3c24995fe4ec4e8b600f23dc5acc6c58c66f32b2edd3edfdb4a0c10d50018874",
        "befaf8552f720cb7f59d886c59194ad9accddf3c75f1951bbd05f52c8276eab3",
        "bb53a512b207b5995899ec7ae4393316f02051dccb0f32eee07630edfeb740da",
        "5628aba6e4ad3aaaa92f11a7ffad1af68c48e4a52848952f1e1620ddb2fda9b0",
    ),
    "figure-grid-mild": (
        0,
        "1d2431c411c2b37d2e1c0ab5c398064ce631e3141f79a83703f84e1b57d3ddf5",
        "73409a7ba835296f0520eed83d220515bd5404591680f4e98784b546968d57c8",
        "909a85c2051ea9ed16982657f92a9e0f45e7916c2e55b5775cf99b225170c8bf",
        "272b279784bd592d03dc7ea98db8cb814419fcf955f401020c40489a9aa1a097",
    ),
}


def _pins(key: str, on: dict = PINS, off: dict = WITHOUT_AVX512) -> tuple:
    # numpy 2.4 reports X86_V4 when it dispatches to its AVX-512 kernels
    return on[key] if __cpu_features__.get("X86_V4") else off.get(key, on[key])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_are_for_this_schema_version():
    assert SCHEMA_VERSION == 14, "a new schemaVersion pins its own export digests"


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
        {"report.json": "1b44da6eea252193b27ec53b5a62bb34529a93f78e160dfe3174fc89188d1c0b"},
        "d1fc1161147fd81ddc4248a14961cac0d077e9ec34642510abc1e8f6a7f4e83f",
    ),
    "redesign": (
        4,
        {
            "out/curve.csv": FCURVE,
            "out/deficit.csv": "10fb71e7b9b3f7282956f886a9b90a7cf62d465b77a14a5ca9779abb6707d737",
            "out/g.csv": "d13208bb6600d7ebe055b4f608a19001356dfc90df685dbeafadb07602bf1ce0",
            "out/report.json": "310524e4d76211e702d0a99ac8a4454d1038e2c5056dff1f2a966e8cb34e04d7",
        },
        "b9d51863e1186119d0b9f1f67331533cd2ee734155787f6c04a6706449807c6f",
    ),
}
SIMULATE_WITHOUT_AVX512 = {
    "redesign": (
        4,
        {
            "out/curve.csv": FCURVE,
            "out/deficit.csv": "0b4d604428de16b6eb36fde8abbae54adc60fdb89b9dff21e296e35f497d541a",
            "out/g.csv": "d13208bb6600d7ebe055b4f608a19001356dfc90df685dbeafadb07602bf1ce0",
            "out/report.json": "a6f4cc0a81be4ab77678a1e6e46652ad7210174f36a25b3b78e1d055a525d678",
        },
        "b9d51863e1186119d0b9f1f67331533cd2ee734155787f6c04a6706449807c6f",
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
