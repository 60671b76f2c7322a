"""The g stream of every built-in, pinned per report schemaVersion.

The reproducibility contract says that a fixed (seed, sample count)
gives the same bits until `schemaVersion` changes. Each pin is the
sha256 of 1 000 values of g that the version draws on the main lane at
seed 0: version 8 pinned a 1 000-value run; version 9 pins block 0 and
block 1, each drawn with 1 000 values (the g of a 1 000-value run, and
the last 1 000 values of a (_BLOCK + 1 000)-value run). Block 0 is
version 8's pin; block 1 shows the stream keyed per block. A change to
the stream fails here until SCHEMA_VERSION is bumped and the new
version's digests are pinned beside the old ones.
The pins are numpy 2.4 bits on x86-64; a numpy or CPU whose exp or log
differs in the last bit changes them too, and so changes the reports.
"""

import hashlib

import pytest

from sevrel.engine import _LANE_MAIN, _block_g, _plan
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


def test_every_builtin_is_pinned():
    assert SCHEMA_VERSION in FINGERPRINTS, f"pin the g stream of schemaVersion {SCHEMA_VERSION}"
    assert set(FINGERPRINTS[SCHEMA_VERSION]) == set(SCENARIO_IDS)
    # block 0 kept the bits of version 8
    assert {sid: pins[0] for sid, pins in FINGERPRINTS[9].items()} == FINGERPRINTS[8]


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_stream_matches_its_schema_version(sid):
    plan = _plan(builtin(sid).model)
    digests = tuple(hashlib.sha256(_block_g(plan, 0, _LANE_MAIN, idx, 1_000).tobytes()).hexdigest() for idx in (0, 1))
    assert digests == FINGERPRINTS.get(SCHEMA_VERSION, {}).get(sid), (
        f"the g stream of {sid} is not the one pinned for schemaVersion {SCHEMA_VERSION}: "
        "a change to the stream bumps SCHEMA_VERSION and pins the new digests"
    )
