"""Golden corpus: pinned ``qkdsim run`` output for small configs.

Each entry pins the SHA-256 of the run's standard output (the JSON
report and its newline) and the transcript digest inside it.  A
refactor must leave every golden unchanged; a golden changes only
together with a ``schema_version`` bump in :mod:`qkdsim.report`.  The
abort reason is asserted first, so a config that drifts to another
outcome fails on that before the hashes; every entry also asserts that
Alice's and Bob's final keys agree.
"""

import hashlib
import json
from typing import NamedTuple

import pytest

from qkdsim.cli import main


class Golden(NamedTuple):
    name: str
    argv: str
    abort_reason: str | None
    stdout_sha256: str
    transcript_digest: str


GOLDENS = [
    Golden(
        "bb84-none",
        "--protocol bb84 --n 3000 --seed 1 --flip 0.02",
        None,
        "6d12022fa6154833501a06aeafa23d7e1936dedcd535865e14d9e4a57560661e",
        "32eb8ed3197c8c44df984e167184604dd49c426cfe0cd5ba4cf4391d2e1a1125",
    ),
    Golden(
        "bb84-opaque",
        "--protocol bb84 --n 2000 --seed 2 --eve opaque",
        "error_rate_exceeds_threshold",
        "c84ef2fe1920aeb17cf57ac56df399decfe04df724f9f689e6460e3eeb02e7dc",
        "e91545c6795311a599d3c61a66b8737ffb8a56b6dee5477fc805c716e0a48b26",
    ),
    Golden(
        "bb84-opaque-0.1",
        "--protocol bb84 --n 3000 --seed 3 --eve opaque --eve-frac 0.1",
        None,
        "f5e08fe229ef9f379581faaf538d1ee6f0be2acabcfb64d432bbe3e5c26e5a1f",
        "89ae63f8101d9cc983d41f5ec7e879d2633c5d5bbc3b745870e4b2f696a6d6fb",
    ),
    Golden(
        "bb84-pns",
        "--protocol bb84 --n 3000 --seed 4 --eve pns --loss 0.1 --multi 0.05",
        None,
        "04e888d38d8b656cd4390827f1b34d44f2d916b84d419c62a4b2589f51bf1335",
        "83f9c7fc3c283be026c7fb7e92b03cf73296e72aaf5027326900ad15d25dd0ea",
    ),
    Golden(
        "b92-none",
        "--protocol b92 --n 3000 --seed 5",
        None,
        "993b0bac454e71b1bb5397b90f133eecc148e0f88e3544345aad3af50567e354",
        "eaa317013720e01e3197d1ddca89949f20d56301060e1f040541da2327275af2",
    ),
    Golden(
        "b92-opaque",
        "--protocol b92 --n 2000 --seed 6 --eve opaque",
        "error_rate_exceeds_threshold",
        "6d87932a002f4d12fd59a7fefaecd5f128e9a125e3b39cbdc47a99eebd49f627",
        "d0a555f8a61c679b02b18e9a3b6ce6f03df30477e8d27f2c951bea79d91b813b",
    ),
    Golden(
        "b92-translucent",
        "--protocol b92 --n 2000 --seed 7 --eve translucent",
        "error_rate_exceeds_threshold",
        "bc4797e0cfb09a9882965407bd07bf864348aa8000127bbc0823154d465249b0",
        "9051a4c7f9bf24fc381347808bcb71a8d4cd8c6dce4efd7e073df912a7b35495",
    ),
    Golden(
        "b92-entangle",
        "--protocol b92 --n 2000 --seed 8 --eve entangle",
        "error_rate_exceeds_threshold",
        "523b26e60a6e96952e643e35b5a9c18a15c0a2d2d4097d5a064cf6e1f16c7008",
        "114ee73552382905f688d206ae0bb30bf89dbd7193fce28fd4ba3b9a5602f828",
    ),
    Golden(
        "b92-pns",
        "--protocol b92 --n 3000 --seed 9 --eve pns --loss 0.3 --multi 0.05 --flip 0.01",
        None,
        "bc4524d2c9684c31d6d25972d159a944e569672f1100ed836206c3c245a72f68",
        "b9e6e96b55a3181bd3c78648a560cc524f02731c8aa4990b5e7ff333750159b2",
    ),
    Golden(
        "bb84-noise",
        "--protocol bb84 --n 3000 --seed 10 --flip 0.03 --loss 0.2 --multi 0.02",
        None,
        "25c4e8321ad7f53cb905f761bfeebd5b47c65d3fcacb9e16987a0b33aab4d926",
        "c4e9e150f443c31db247a7db20723bbbd1489070ea4db670fcc64fdcfebe9634",
    ),
    Golden(
        "bb84-threshold",
        "--protocol bb84 --n 2000 --seed 11 --flip 0.2",
        "error_rate_exceeds_threshold",
        "fcbf0fd87388ba3b2b80d9861451e5d8cf46c413389ba6aaeaa14fcddc5305a2",
        "b0a5ce15727b419ff5ea6aa195caf3e48948edc436948bd6b0a6e7cd63007375",
    ),
    Golden(
        "b92-empty-sift",
        "--protocol b92 --n 500 --seed 12 --loss 1.0",
        "empty_sifted_key",
        "ee048db0644cdfd42fe4d53037c14b06f51636eb9fd4e9b1741733920229583e",
        "0141afb324df5e9b42079400af0150dc809a40830ec1ac1df026721a29620901",
    ),
    Golden(
        "bb84-key-exhausted",
        "--protocol bb84 --n 60 --seed 18 --flip 0.05",
        "key_exhausted",
        "e1a44b1b8139224bba664242ad93bfc614c0e4023b2ec585c67d9046b1b47cfc",
        "5548f1c567d2431f5a488ec92e3080dc0a3d9630c0e991638406980b05ff14b6",
    ),
    Golden(
        "bb84-full-flip",
        "--protocol bb84 --n 2000 --seed 1 --flip 1.0 --rmax 1.0",
        "key_exhausted",
        "7f96d9bd247bd740313edb7a1eb52aa1b2f2efb768a996031964e0d832d321c1",
        "7327fcd6b5e660d74ded1c621ffabdad9f86a17da038bf8dd875c2ec154a2d52",
    ),
    Golden(
        "bb84-whole-sample",
        "--protocol bb84 --n 2000 --seed 2 --sample-frac 0.999",
        "key_exhausted",
        "809562b0eb314da3b1985fca1a56bc95bb3ddfd3043f3896fa4d8de85c8b53c1",
        "560e79d7143391c7c65e6538aa39d13564761f0cee741b672f9e33302d5a6997",
    ),
    Golden(
        "b92-theta-tiny",
        "--protocol b92 --n 3000 --seed 1 --theta 1e-9",
        "empty_sifted_key",
        "188a7ecd333c49205871b791da31cc8d076be2a23bd184b1cb95797e7778dfc9",
        "0141afb324df5e9b42079400af0150dc809a40830ec1ac1df026721a29620901",
    ),
    Golden(
        "b92-theta-near-quarter-pi",
        "--protocol b92 --n 3000 --seed 2 --theta 0.785398",
        None,
        "25769d759b373ea9fe9ab16032acfe2b934d008400a6d219ee1c03bc45f64007",
        "55e73fc953daea49089d2d51c0a5cf36c183fdb3ba482147b32d7e481aeec34a",
    ),
    # Privacy amplification over a 3-bit and a 2-bit reconciled key
    # draws empty subsets and redraws them (2 and 5 times).
    Golden(
        "bb84-pa-redraw",
        "--protocol bb84 --n 24 --seed 55 --sec-param 0",
        None,
        "5f82a680e41dcec3e44c371d133db359c5fd50eba1336bd26257adf6ab3f781b",
        "fc4d4a06c9335e9c04a5380debeb35fa5464ed16c4d068d65c52f56d9e5f2143",
    ),
    Golden(
        "bb84-pa-redraw-5",
        "--protocol bb84 --n 30 --seed 23 --sec-param 0",
        None,
        "baa454b9a4bb27b1e8ec7fb97e456e4732cd59247735fa214ae6808200759562",
        "11cad974a42b02ca657c66907bfaa673823f6c73a04a07bafce8484e84d15468",
    ),
]


@pytest.mark.parametrize("golden", GOLDENS, ids=[g.name for g in GOLDENS])
def test_golden(capsys, golden):
    assert main(["run", *golden.argv.split()]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["abort_reason"] == golden.abort_reason
    assert doc["final_key_alice"] == doc["final_key_bob"]
    assert doc["transcript_digest"] == golden.transcript_digest
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden.stdout_sha256
