"""What users see, pinned: `sevrel scenario <id> --export DIR --n 330000`.

Each pin is the sha256 of one output of that command at the built-in's
default seed: the report JSON, the two histogram CSVs and stdout, with
the export directory written as DIR. `deficit-curve.csv` depends on no
run and has one pin. 330 000 samples are five 65 536-value blocks and a
ragged sixth. A change that alters any of these bytes fails here until
it bumps SCHEMA_VERSION and pins the new digests in the open. Version 10
changed the calibrated shift, so scenarioA's outputs, and the
`schemaVersion` field of every report.

numpy sends float64 log, exp and power to AVX-512 kernels where the CPU
has them, and those differ from the other kernels in the last bit. Four
of the pinned built-ins give the same bytes with numpy's AVX-512 kernels
on and off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
scenarioA does not since schemaVersion 10: its calibrated shift is the
same, but maxG and deficitSum of its main-lane run differ in the last
digit, so its report and g histogram are pinned once per dispatch path
(WITHOUT_AVX512). On a CPU with AVX-512, the last test checks every pin
again in a process with those kernels off. example2-mild, case-study,
scenarioB and figure-grid-mild differ between the two paths in more
outputs and are not pinned here (ROADMAP item 13);
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
        "4dd61a355627138802e8bc59cf1d4c2fe2ef9acb69e33cfc6bc2a4e4586704b6",
        "b1d5f548bc1e288f31700c6053e6ca134107fdfb464ab269d68bfd816044e6d3",
        "c6d77424d1313059deb4b0b99a34095ee5488f4d724e7eea41dfe1df37c9fab9",
        "b0a2d3e9a5bc90e08de7b4cde241a64d266b65c8d6ac2d6922832d456a9c48e1",
    ),
    "example3-extreme": (
        0,
        "a395937b6fd19b1b9586e717106d3f335526351d7daed7b8fee776f54903787a",
        "85ff4a5dab7abc915dc5ab46cb1ca22381f8f5dd583ebcff33824b03d9d6ca04",
        "7f813951c828e965b0b3f557c580b61eddf331ebb7879620aa397a11992b6bf1",
        "c52f3cf0c10f17bba6905f987784b26bf4b423e44c1c2735b761cb8d93f11b04",
    ),
    "scenarioA": (
        0,
        "a82d9ab70abbd2a0a0ee4ecc0ef89e0c1a0fae18e7d3b81a0c11df7798f4b4ad",
        "9c9e6d1f29665bcf4d1bb63ad42776a266e1dc555855f43f73791efb3b943c1f",
        "dc559c66b0d4438b5a11a976378d5460c8a58aee46bb7d7c38eaf238a6fb4494",
        "d973611b3806e620ae29524d0e27ae2d6cb948cd2ddcc1160862341e034dc598",
    ),
    "figure-grid-gaussian": (
        5,
        "41ef4b2d9d789059823ab788866ba08a0af977facee004118867f71aba8847b8",
        "0ae0b9bcf23c58bc5b167eaefdc145125b92a3879fb9a7f5236c03aadca6d226",
        "d376e1245fe5ed2181c5f45b885cbac292f90f9a45f9727e727e6f6d8b54c932",
        "5a7500f12484e0051a0b5475c4865815e0aef93753845052646280be98899837",
    ),
    "figure-grid-heavy": (
        0,
        "debb213c71f0f331a9c7d5c013d23aac2da91d99bc8ef86d90fd67ea74b81494",
        "b7e113c5b506917a8e0eba05a0cc9a221fdde3796e76bb4a2628d5db88d91edd",
        "ed7876063f3d80d089663cbfe660fe7c07b09bca1f5e61c8aac80eb70647dcc6",
        "36fe2e4c0ba329c8684452dbac13a2befa4646b6f2dd30f10237a3d325ca6d9e",
    ),
}


# The pins that differ where numpy runs without its AVX-512 kernels.
WITHOUT_AVX512 = {
    "scenarioA": (
        0,
        "5457276f7a2ff68335e54c419d9452449ab3425b9e9c185dfa15f416a90f5153",
        "eebd5105259d8b36cbbe9d7d845748c7c64aa83842fff718cdfc0032d5b07ba7",
        "dc559c66b0d4438b5a11a976378d5460c8a58aee46bb7d7c38eaf238a6fb4494",
        "d973611b3806e620ae29524d0e27ae2d6cb948cd2ddcc1160862341e034dc598",
    ),
}


def _pins(sid: str) -> tuple:
    # numpy 2.4 reports X86_V4 when it dispatches to its AVX-512 kernels
    return PINS[sid] if __cpu_features__.get("X86_V4") else WITHOUT_AVX512.get(sid, PINS[sid])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_are_for_this_schema_version():
    assert SCHEMA_VERSION == 10, "a new schemaVersion pins its own export digests"


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
