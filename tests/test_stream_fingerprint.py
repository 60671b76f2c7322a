"""The g stream of every built-in, pinned per report schemaVersion.

The reproducibility contract says that a fixed (seed, sample count)
gives the same bits until `schemaVersion` changes. Each pin is the
sha256 of 1 000 values of g that the version draws at seed 0: version 8
pinned a 1 000-value run; version 9 pins block 0 and block 1, each
drawn with 1 000 values (the g of a 1 000-value run, and the last 1 000
values of a (_BLOCK + 1 000)-value run). Block 0 is
version 8's pin; block 1 shows the stream keyed per block. Version 14
keys every term of a block on its own, so all of its pins are new. A
change to the stream fails here until SCHEMA_VERSION is bumped and the
new version's digests are pinned beside the old ones.
The pins are numpy 2.4 bits on x86-64. numpy sends float64 log, exp
and power to AVX-512 kernels where the CPU has them, and those differ
from the other kernels in the last bit, so the streams of models with
a Lognormal, Gumbel or Pareto term differ between the two paths: those
are pinned once more for the path without the AVX-512 kernels
(WITHOUT_AVX512). On a CPU with AVX-512, the last test checks every
pin again in a process with those kernels off. A numpy release whose
exp or log differs changes the pins too, and so changes the reports.
"""

import hashlib

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from sevrel.engine import _BLOCK, SimulationConfig, g_chunks
from sevrel.report import SCHEMA_VERSION
from sevrel.scenarios import SCENARIO_IDS, builtin

FINGERPRINTS = {
    8: {
        "example1-gaussian": "d462ecb133cbe215a7ecf27986386989f15ac067703be27e082c518cb95b1942",
        "example2-mild": "32d175bca096f5755baa24c6fdbad09b9983c74749bbba88c096f955a9a757f1",
        "example3-extreme": "b2df3875a19e6ae3382165a7e72ff8205f5b8e7496d0711d0b871923dfdbbe3a",
        "case-study": "eee20f5258641f706856e70a1bf6e213939c1a9d511ce54fcf59fb3dd73512d4",
        "scenarioA": "7593ad71db7aa6643c2b07e9ca289964fe09ff70dd4706c9f10eb773c53b3c3d",
        "scenarioB": "8629b266e8466454884cf3053726943e97c63924a8f78ea296d49f5526b58a0f",
        "figure-grid-gaussian": "d59624ea0df49be9af93f2aca5f3ce8971fbed265af3d7739d7c1592e7d54d8f",
        "figure-grid-mild": "ed1a6ba9e92ac7b21b70034dbd92846991512e39dbfcd252fe9b2137d05b83af",
        "figure-grid-heavy": "fd71b54d0eb3cfa1f24912a8b1e437e03008f7747a72a72fe3474cad41b75a81",
    },
    9: {
        "example1-gaussian": (
            "d462ecb133cbe215a7ecf27986386989f15ac067703be27e082c518cb95b1942",
            "505b99214d10f7093fafdd8b0286c59378f39e33b42a8b31e5f68a6febb9e105",
        ),
        "example2-mild": (
            "32d175bca096f5755baa24c6fdbad09b9983c74749bbba88c096f955a9a757f1",
            "bf4b83c7d54002a2f615bcd23172b7e2244ab074f7c4c8084e16e4475cd34114",
        ),
        "example3-extreme": (
            "b2df3875a19e6ae3382165a7e72ff8205f5b8e7496d0711d0b871923dfdbbe3a",
            "13fe70065dce435f7a6fc61a0da1537daca11d0fd1a5bd09a30f8a02c9012830",
        ),
        "case-study": (
            "eee20f5258641f706856e70a1bf6e213939c1a9d511ce54fcf59fb3dd73512d4",
            "13750443d2a861f10737120c5c022037ca0d5396fc0ef9f526743846b0ecffc0",
        ),
        "scenarioA": (
            "7593ad71db7aa6643c2b07e9ca289964fe09ff70dd4706c9f10eb773c53b3c3d",
            "c2d84c537cf4e51ba11ebb0872a41fc1930df6bc4761f05426563210da1a1580",
        ),
        "scenarioB": (
            "8629b266e8466454884cf3053726943e97c63924a8f78ea296d49f5526b58a0f",
            "8ca0f3a88a11879ae4e8924e601664356d8ded96704636c84caf666f8736d6d2",
        ),
        "figure-grid-gaussian": (
            "d59624ea0df49be9af93f2aca5f3ce8971fbed265af3d7739d7c1592e7d54d8f",
            "ccd087e979597ec9122dfe23cfbc41da308cb1ce0823979170c9057736254794",
        ),
        "figure-grid-mild": (
            "ed1a6ba9e92ac7b21b70034dbd92846991512e39dbfcd252fe9b2137d05b83af",
            "2a314d969e634e075205184ccf6bb9ff0207b6de50dd124e372196dc3db1774c",
        ),
        "figure-grid-heavy": (
            "fd71b54d0eb3cfa1f24912a8b1e437e03008f7747a72a72fe3474cad41b75a81",
            "bb05a0dfee803c5253b73b77ae678824a15a2334e6504e7fa33627c708389386",
        ),
    },
}
# versions 10 to 13 changed the calibrated shift alone: the stream keeps
# version 9's bits
FINGERPRINTS[10] = FINGERPRINTS[11] = FINGERPRINTS[12] = FINGERPRINTS[13] = FINGERPRINTS[9]
# version 14 seeds each term of a block on its own: term j of block i
# draws from an SFC64 seeded by SeedSequence(0, spawn_key=(0, i, j))
FINGERPRINTS[14] = {
    "example1-gaussian": (
        "e6243f9a79a7ace03f9febf31e9d6dfb64602d78bb0f1352098feef5b11fac82",
        "73ffbb05c2b977e6e33dcf657d696d8f72f5fc5f5dec32f50c7995296c0fcfe4",
    ),
    "example2-mild": (
        "5abfe21b9ae08b3c73ae3f2a554e68946ee2fd549c6e3f39def67eca3b4ca722",
        "ced5f472ee6895e61ee39696da42b8f5cb8e02b19bc3faad4ecd854847986768",
    ),
    "example3-extreme": (
        "5d3290a1e1d54b87e773f8f62ec3385b774482ca635df4d6b122d1e748583cfb",
        "b016093a0d02b14d7679499f7581f0b53be004e7281a9056f3be2b471690cad4",
    ),
    "case-study": (
        "c0f13646af152c8d174d7c91df881cfc033d9794969326921e6ad64696264595",
        "e212bc239f9110fe880cf220ff1e8eeadd48668eafdcda3916dff89f936daeeb",
    ),
    "scenarioA": (
        "9db495ee8ec2365e2380aa9b186e446bf0030f5242263140784e06bffaacb912",
        "0eaa422ba8cd17c4017367ad709f26990b577c0d06c5b59a42dabdfc8ef0143f",
    ),
    "scenarioB": (
        "48df54b0d0bce6e4fbb50a711ec76c1e6833e167551f29333ccf45b9e942cb08",
        "878e3912d64ca779a0ad8fa64eb009f2f67b53cf1787e5f3bed46857f7431982",
    ),
    "figure-grid-gaussian": (
        "d9acedf3f1538387ea7cfcb9c05cdbfd9520eb586288a51cc1e7cd52faa84ed0",
        "71a2d5cd8e5054482ed2d6c3f4efd7f3c70f1a0e92c907eae0ff50970152dc9e",
    ),
    "figure-grid-mild": (
        "fc3f161a2a12b93d371d3de6259cad59b980d6202209a98892b3800302da35ae",
        "5cbee4c69279323c9cf3856b23d58072d600460269a5487b0f2bcefbead0f4df",
    ),
    "figure-grid-heavy": (
        "9850894fae84b9fcc45b67f2db22d7829134b21385dd96a76f4f76d2a158a716",
        "4243442e4a9ced3e414c8ed9ac731ec69cdfe66bd5bc97fe2f1d87f4e5d1f974",
    ),
}
# The pins that differ where numpy runs without its AVX-512 kernels
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
WITHOUT_AVX512 = {
    13: {
        "example2-mild": (
            "bb5f13a4c6ceeb30bbcbaf403ac1102cbaa3ad96f28ccf5ce207f92cb8d31b77",
            "922d9ccef52b0f3d6052aa3ae99e5b948e4032d56cdfe118c8c4a906c480516b",
        ),
        "case-study": (
            "dc5fdfb7b530ca1adc23f441e8b70434ab15eb5f4d1ceeca7ce25d51892f9ccc",
            "6bdf51fc330dac14815c491ad9862ba219d389c5a9a764115ab73564c6adc720",
        ),
        "scenarioA": (
            "dc885d40c7e03407ba58cd43d3e8f904ae1609d471b0ede89b41f8c0b28ca341",
            "22f5fbded4b4dfa8dee89ac839b35bdaafdd9552ec85bd5a6db7140b9d0aa04c",
        ),
        "scenarioB": (
            "f3799e66453a48fb71c32367469a62bc4698c5b878c5153732404976ed430e2b",
            "692927b3520d9a0501348c420a6db6c78d5d0c02cb9e010ee07901bc8c84e848",
        ),
        "figure-grid-mild": (
            "a47e3585717816614082585d17a1e8a149a9c525d8738d53d26e8d3e0aad6671",
            "8ee0e2b5e240adbd8907fdcce2bf6bba8688a7598b3642ca585e90420ac65ef9",
        ),
        "figure-grid-heavy": (
            "fd71b54d0eb3cfa1f24912a8b1e437e03008f7747a72a72fe3474cad41b75a81",
            "d7981c5f155a6d463c08ef36dc41568d658442ad252c8b1d65150db48737ed73",
        ),
    },
    14: {
        "example2-mild": (
            "fbfde05d8083d36ae3631ef132fc774ba79f1814d75d0f51e21285394609959f",
            "c4b5052b564596f9e04d4a5202d3b716c853721703778b30b0b6ae5cee6a510b",
        ),
        "case-study": (
            "941a8975c879e5381caaafdbf40afebb017ad17683011ec7b24807f3c730023f",
            "b7367eb2e0e255206597baeb83fc8ac5f2c97f0197572d1a1f27fef6a91da24f",
        ),
        "scenarioA": (
            "7ffc879c021652622ea929f1d5bfb6c5c0fadf3db9003720fec8207bd7cc9933",
            "d971934ccae2cfd289fc49f3e0a6f802ceb9c78e3a0c29d8d28d914f696cc18c",
        ),
        "scenarioB": (
            "1653db5b1ea417284864fd36337ef780228e98b04b5e9d755389f8ca54d4e4f0",
            "6efdc45c397d1878f7b189d8bccc0d5ef75e9c4b91e21a895c3b46cf55022b9e",
        ),
        "figure-grid-mild": (
            "a85916e4c5e0f4891cce9d47c032f158855143a4d1864b5dde9eb05428da18ff",
            "efb86a6c8473bbad44280da336aa4a2836e45f9b7863ae79e06becf5d8628234",
        ),
    },
}


def _pinned(sid: str) -> tuple | None:
    pins = FINGERPRINTS.get(SCHEMA_VERSION, {})
    # numpy 2.4 reports X86_V4 when it dispatches to its AVX-512 kernels
    if not __cpu_features__.get("X86_V4"):
        pins = {**pins, **WITHOUT_AVX512.get(SCHEMA_VERSION, {})}
    return pins.get(sid)


def test_every_builtin_is_pinned():
    assert SCHEMA_VERSION in FINGERPRINTS, f"pin the g stream of schemaVersion {SCHEMA_VERSION}"
    assert set(FINGERPRINTS[SCHEMA_VERSION]) == set(SCENARIO_IDS)
    assert set(WITHOUT_AVX512.get(SCHEMA_VERSION, {})) <= set(SCENARIO_IDS)
    # block 0 kept the bits of version 8
    assert {sid: pins[0] for sid, pins in FINGERPRINTS[9].items()} == FINGERPRINTS[8]


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_stream_matches_its_schema_version(sid):
    model = builtin(sid).model
    # the last block of a run of idx * _BLOCK + 1 000 values
    blocks = [list(g_chunks(model, SimulationConfig(idx * _BLOCK + 1_000, 0)))[idx] for idx in (0, 1)]
    digests = tuple(hashlib.sha256(g.tobytes()).hexdigest() for g in blocks)
    assert digests == _pinned(sid), (
        f"the g stream of {sid} is not the one pinned for schemaVersion {SCHEMA_VERSION}: "
        "a change to the stream bumps SCHEMA_VERSION and pins the new digests"
    )


def test_the_fingerprints_hold_without_the_avx512_kernels(rerun_without_avx512):
    rerun_without_avx512()
