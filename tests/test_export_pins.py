"""What users see, pinned: `sevrel scenario <id> --export DIR --n 330000`.

Each pin is the sha256 of one output of that command at the built-in's
default seed: the report JSON, the two histogram CSVs and stdout, with
the export directory written as DIR. `deficit-curve.csv` depends on no
run and has one pin. 330 000 samples are five 65 536-value blocks and a
ragged sixth. A change that alters any of these bytes fails here until
it bumps SCHEMA_VERSION and pins the new digests in the open. Version 12
changed the calibrated shifts of some library models, but no built-in's,
so only the `schemaVersion` field of every report.

numpy sends float64 log, exp and power to AVX-512 kernels where the CPU
has them, and those differ from the other kernels in the last bit. Four
of the pinned built-ins give the same bytes with numpy's AVX-512 kernels
on and off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
scenarioA and scenarioB do not: their calibrated shifts are exact and
the same on both paths, but their main-lane runs differ in the last
digit (scenarioA's maxG, and so its g histogram; scenarioB's
conditionalStd), so those outputs are pinned once per dispatch path
(WITHOUT_AVX512). On a CPU with AVX-512, the last test checks every pin
again in a process with those kernels off. The reports of example2-mild,
case-study and figure-grid-mild differ between the two paths in the
last digit of several fields, and are not pinned here (ROADMAP item 13);
tests/test_stream_fingerprint.py still shows that dependence.
"""

import hashlib
import os
import subprocess
import sys
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
        "269f9cb10088eb3ebf661e14c807afcd95bfe306377e597520f6d2938513c7c0",
        "b1d5f548bc1e288f31700c6053e6ca134107fdfb464ab269d68bfd816044e6d3",
        "c6d77424d1313059deb4b0b99a34095ee5488f4d724e7eea41dfe1df37c9fab9",
        "b0a2d3e9a5bc90e08de7b4cde241a64d266b65c8d6ac2d6922832d456a9c48e1",
    ),
    "example3-extreme": (
        0,
        "baa21dff01275924553960ef462551a4414d4e6b18bfc1fb5b538a3554f4000d",
        "85ff4a5dab7abc915dc5ab46cb1ca22381f8f5dd583ebcff33824b03d9d6ca04",
        "7f813951c828e965b0b3f557c580b61eddf331ebb7879620aa397a11992b6bf1",
        "c52f3cf0c10f17bba6905f987784b26bf4b423e44c1c2735b761cb8d93f11b04",
    ),
    "scenarioA": (
        0,
        "5661a5401ab6c20f552381f8e7994c9e97278eebc8570ecaa804cb3d6c663013",
        "618285b134e7772bb18db75ef74bfd27372d5d4cbaa58c00d1a364137114ef52",
        "72ef64a4d7be7cb45f5a9449735b773cb44e976a4ebfe8294233b513eef63c19",
        "0291e19b909973d1fd04a71b232fb13574eb070b08381312a9dc387d285a8158",
    ),
    "scenarioB": (
        0,
        "2e3e386634c31517eccf97a9f62d4268269046cdcef323001c501cb7a2a49295",
        "d28b51b1e37497ea5e1fcc5087a78fa5a0ea05081e7b09688fbb922064721ede",
        "f99b09d95346c448761a20748794a1be8b67379d9d12e7510373dac6238dcb2c",
        "bb88ee494c485774dac847bf6e4af7d3b113921e493711160eefa8c2500db5b1",
    ),
    "figure-grid-gaussian": (
        5,
        "9d606fe2942e7a1a5cdc54eb764637e5a592a9f604e726b166a227598c8b2c51",
        "0ae0b9bcf23c58bc5b167eaefdc145125b92a3879fb9a7f5236c03aadca6d226",
        "d376e1245fe5ed2181c5f45b885cbac292f90f9a45f9727e727e6f6d8b54c932",
        "5a7500f12484e0051a0b5475c4865815e0aef93753845052646280be98899837",
    ),
    "figure-grid-heavy": (
        0,
        "2d4858a331ee4e17c5e7311b223255c4371cf3207f3f318d81e130e296a6eef3",
        "b7e113c5b506917a8e0eba05a0cc9a221fdde3796e76bb4a2628d5db88d91edd",
        "ed7876063f3d80d089663cbfe660fe7c07b09bca1f5e61c8aac80eb70647dcc6",
        "36fe2e4c0ba329c8684452dbac13a2befa4646b6f2dd30f10237a3d325ca6d9e",
    ),
}


# The pins that differ where numpy runs without its AVX-512 kernels.
WITHOUT_AVX512 = {
    "scenarioA": (
        0,
        "53ab76ea2783b350ed3dfa9fb5ed113df4320aa2c9df7d16a359e00ec8c0ef1a",
        "2791c24b52bf2ec5f0d31394932e76aecadd77ba9654c7b2b8c15afb58bf10b4",
        "72ef64a4d7be7cb45f5a9449735b773cb44e976a4ebfe8294233b513eef63c19",
        "0291e19b909973d1fd04a71b232fb13574eb070b08381312a9dc387d285a8158",
    ),
    "scenarioB": (
        0,
        "45950ddf293814c140774198c4a38786062dee452ab851938a7983253c5f08e8",
        "d28b51b1e37497ea5e1fcc5087a78fa5a0ea05081e7b09688fbb922064721ede",
        "f99b09d95346c448761a20748794a1be8b67379d9d12e7510373dac6238dcb2c",
        "bb88ee494c485774dac847bf6e4af7d3b113921e493711160eefa8c2500db5b1",
    ),
}


def _pins(sid: str) -> tuple:
    # numpy 2.4 reports X86_V4 when it dispatches to its AVX-512 kernels
    return PINS[sid] if __cpu_features__.get("X86_V4") else WITHOUT_AVX512.get(sid, PINS[sid])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_are_for_this_schema_version():
    assert SCHEMA_VERSION == 12, "a new schemaVersion pins its own export digests"


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


# numpy's dispatch targets that use AVX-512
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="no AVX-512 kernels to turn off")
def test_the_pins_hold_without_the_avx512_kernels():
    off = " ".join(t for t in AVX512_TARGETS if __cpu_features__.get(t))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "not without_the_avx512"],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=off),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
