"""What users see, pinned: `sevrel scenario <id> --export DIR --n 330000`.

Each pin is the sha256 of one output of that command at the built-in's
default seed: the report JSON, the two histogram CSVs and stdout, with
the export directory written as DIR. `deficit-curve.csv` depends on no
run and has one pin. 330 000 samples are five 65 536-value blocks and a
ragged sixth. A change that alters any of these bytes fails here until
it bumps SCHEMA_VERSION and pins the new digests in the open.

The five pinned built-ins give the same bytes with numpy's AVX-512
kernels on and off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"). example2-mild, case-study, scenarioB and figure-grid-mild
do not: they draw values through numpy's log, exp or power, whose two
kernels differ in the last bit. They wait for one table per dispatch
path (ROADMAP item 13); tests/test_stream_fingerprint.py still shows
that dependence.
"""

import hashlib

import pytest

from sevrel.cli import main
from sevrel.report import SCHEMA_VERSION

N = "330000"
FCURVE = "18e3ebbe3b8be7da54bdeab4301e9883fd6cd2e51b087cdf7b885b7a52ccf7fb"

# exit code, then the digests of report, g histogram, deficit histogram, stdout
PINS = {
    "example1-gaussian": (
        0,
        "09141753b8df77f33f4e989aaa5d3fd8d1c4545b406095aced14bc951dfb02be",
        "b1d5f548bc1e288f31700c6053e6ca134107fdfb464ab269d68bfd816044e6d3",
        "c6d77424d1313059deb4b0b99a34095ee5488f4d724e7eea41dfe1df37c9fab9",
        "b0a2d3e9a5bc90e08de7b4cde241a64d266b65c8d6ac2d6922832d456a9c48e1",
    ),
    "example3-extreme": (
        0,
        "b27189a4bebae2b5864ef645a531aae236612fc5cd9ec617c444bc4820488543",
        "85ff4a5dab7abc915dc5ab46cb1ca22381f8f5dd583ebcff33824b03d9d6ca04",
        "7f813951c828e965b0b3f557c580b61eddf331ebb7879620aa397a11992b6bf1",
        "c52f3cf0c10f17bba6905f987784b26bf4b423e44c1c2735b761cb8d93f11b04",
    ),
    "scenarioA": (
        0,
        "e95fee3f0e5fc63e10cbe3e6c7ce628d4a4de9081540922dd165dfa3dda88cb7",
        "ee9d8fe1e9e0a4499d671ca46855218cad28d110e8854edd170743884256ad62",
        "0e68eab40f8e5d6fb8d311dee08acc2420f8e7eb093847dbb327176b53d754ad",
        "3953249f8fba5dd7a93cf9c694708a2d540d98b18e4907f68d06d78b987ce441",
    ),
    "figure-grid-gaussian": (
        5,
        "9ba27cfa786304ebd98711bfbd7c8caf84fc095ac8b43a2f05a813f8e48fcc04",
        "0ae0b9bcf23c58bc5b167eaefdc145125b92a3879fb9a7f5236c03aadca6d226",
        "d376e1245fe5ed2181c5f45b885cbac292f90f9a45f9727e727e6f6d8b54c932",
        "5a7500f12484e0051a0b5475c4865815e0aef93753845052646280be98899837",
    ),
    "figure-grid-heavy": (
        0,
        "2c5f4fb8667005703f1408b45a23c2e30b4ea21d4cfa53a98971febe15effb69",
        "b7e113c5b506917a8e0eba05a0cc9a221fdde3796e76bb4a2628d5db88d91edd",
        "ed7876063f3d80d089663cbfe660fe7c07b09bca1f5e61c8aac80eb70647dcc6",
        "36fe2e4c0ba329c8684452dbac13a2befa4646b6f2dd30f10237a3d325ca6d9e",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_are_for_this_schema_version():
    assert SCHEMA_VERSION == 9, "a new schemaVersion pins its own export digests"


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
    assert seen == PINS[sid], f"`sevrel scenario {sid} --export DIR --n {N}` changed what users see"
    assert _sha256((out / "deficit-curve.csv").read_bytes()) == FCURVE
