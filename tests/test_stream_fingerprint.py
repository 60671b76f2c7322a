"""The g stream of every built-in, pinned per report schemaVersion.

The reproducibility contract says that a fixed (seed, chunk size) gives
the same bits until `schemaVersion` changes. Each pin is the sha256 of
the first 1 000 values of g (chunk 0 of the main lane, seed 0) that the
version draws. A change to the stream fails here until SCHEMA_VERSION is
bumped and the new version's digests are pinned beside the old ones.
The pins are numpy 2.4 bits on x86-64; a numpy or CPU whose exp or log
differs in the last bit changes them too, and so changes the reports.
"""

import hashlib

import pytest

from sevrel.engine import _LANE_MAIN, _chunk_g
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
}


def test_every_builtin_is_pinned():
    assert SCHEMA_VERSION in FINGERPRINTS, f"pin the g stream of schemaVersion {SCHEMA_VERSION}"
    assert set(FINGERPRINTS[SCHEMA_VERSION]) == set(SCENARIO_IDS)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_stream_matches_its_schema_version(sid):
    g = _chunk_g(builtin(sid).model, 0, _LANE_MAIN, 0, 1_000)
    digest = hashlib.sha256(g.tobytes()).hexdigest()
    assert digest == FINGERPRINTS.get(SCHEMA_VERSION, {}).get(sid), (
        f"the g stream of {sid} is not the one pinned for schemaVersion {SCHEMA_VERSION}: "
        "a change to the stream bumps SCHEMA_VERSION and pins the new digests"
    )
