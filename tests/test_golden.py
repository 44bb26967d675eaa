"""Golden corpus: pinned ``qkdsim run`` output for small configs and the benchmark's own.

Each entry pins the SHA-256 of the run's standard output (the JSON
report and its newline) and the transcript digest inside it.  A
refactor must leave every golden unchanged; a golden changes only
together with a ``schema_version`` bump in :mod:`qkdsim.report`.  The
abort reason is asserted first, so a config that drifts to another
outcome fails on that before the hashes; every entry also asserts that
Alice's and Bob's final keys agree.  The entries are pinned under
``schema_version`` 2.
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
        "44212fdbc98099b84adbce7fbf51218ace93426097b4f811a3c67573442682f2",
        "bfa54eb970ded0a80ac46e8f9b080035a86f37bb160f3cbcdad66636a322a204",
    ),
    Golden(
        "bb84-opaque",
        "--protocol bb84 --n 2000 --seed 2 --eve opaque",
        "error_rate_exceeds_threshold",
        "005c0951810e624c311877dced094d92a42d646882f6cb57387c5db01821ebf2",
        "e91545c6795311a599d3c61a66b8737ffb8a56b6dee5477fc805c716e0a48b26",
    ),
    Golden(
        "bb84-opaque-0.1",
        "--protocol bb84 --n 3000 --seed 3 --eve opaque --eve-frac 0.1",
        None,
        "39728efb88ab92589da3d4dd6f3587f7c205d7a458ae8cd6a60cbe2ddc7c203e",
        "466467199d796326941e110a6eec53d1014be3cbd37f98086c857edb5fd19f1b",
    ),
    Golden(
        "bb84-pns",
        "--protocol bb84 --n 3000 --seed 4 --eve pns --loss 0.1 --multi 0.05",
        None,
        "23d2995005f203672d39ae907abe48aab0302115e913a32229385d2536cbe976",
        "8f49eccc3932fd61ba57eeb5cc9485409fa01ac50ccb9de8ffe9ac3bde970ef2",
    ),
    Golden(
        "b92-none",
        "--protocol b92 --n 3000 --seed 5",
        None,
        "d493cb5420c53f5fb5ec0bff5a77b353914612b6ceb98496baef7824200a3b8e",
        "8f87014b4dbb0657b005d078c68289d0d0b78327e1823c538824ac43f9c7edca",
    ),
    Golden(
        "b92-opaque",
        "--protocol b92 --n 2000 --seed 6 --eve opaque",
        "error_rate_exceeds_threshold",
        "11fa857dcccd45425231bdda68937e86564d50dcd1664fcbea5445f927602f02",
        "d0a555f8a61c679b02b18e9a3b6ce6f03df30477e8d27f2c951bea79d91b813b",
    ),
    Golden(
        "b92-translucent",
        "--protocol b92 --n 2000 --seed 7 --eve translucent",
        "error_rate_exceeds_threshold",
        "630ba9e246b3f2f55346b3db8bebd4de475bb8c543f9a68b726ddcac5f8516ad",
        "9051a4c7f9bf24fc381347808bcb71a8d4cd8c6dce4efd7e073df912a7b35495",
    ),
    Golden(
        "b92-entangle",
        "--protocol b92 --n 2000 --seed 8 --eve entangle",
        "error_rate_exceeds_threshold",
        "e57f63a58c8ec55939fcce394bdbfcbddca6bdf933c26ea7754c567e27d9a92d",
        "114ee73552382905f688d206ae0bb30bf89dbd7193fce28fd4ba3b9a5602f828",
    ),
    Golden(
        "b92-pns",
        "--protocol b92 --n 3000 --seed 9 --eve pns --loss 0.3 --multi 0.05 --flip 0.01",
        None,
        "4c71852d3b95354c8df29a793e532564ace4f7909ebabddf971bff3ede273468",
        "4bb6d0d900244e0585243efe8019239f6739559ac325e5aac2d9023be42e7b52",
    ),
    Golden(
        "bb84-noise",
        "--protocol bb84 --n 3000 --seed 10 --flip 0.03 --loss 0.2 --multi 0.02",
        None,
        "a8afec5bf23e288cc80c13e6c1ba0aa4f7335ab899131632a02bd4a00182e670",
        "d5a604707c1396acdd5d694526f956cd73f8ec43ac6121fe8981e0066dde135c",
    ),
    Golden(
        "bb84-threshold",
        "--protocol bb84 --n 2000 --seed 11 --flip 0.2",
        "error_rate_exceeds_threshold",
        "aff7fe107595fac313350c97a077f2e6863978f528e07463c0c9097c0ab1b0a7",
        "b0a5ce15727b419ff5ea6aa195caf3e48948edc436948bd6b0a6e7cd63007375",
    ),
    Golden(
        "b92-empty-sift",
        "--protocol b92 --n 500 --seed 12 --loss 1.0",
        "empty_sifted_key",
        "19ad4afd11d16f18b6b6ddf02457b86ab4ec5e5ba6f96dc0b478c7ee0cff09cc",
        "0141afb324df5e9b42079400af0150dc809a40830ec1ac1df026721a29620901",
    ),
    Golden(
        "bb84-key-exhausted",
        "--protocol bb84 --n 60 --seed 18 --flip 0.05",
        "key_exhausted",
        "7f4096a6d36dce72dc01d79d49b984835ec88119a0ae2fc9a033ced61e284692",
        "9d9f7e6ce995edd5ff822f4eb68ee5f7dc327fd315642e1498104ba3681edc50",
    ),
    Golden(
        "bb84-full-flip",
        "--protocol bb84 --n 2000 --seed 1 --flip 1.0 --rmax 1.0",
        "key_exhausted",
        "3e96d9167aabd1580455a7b526d9d8dc476f9b6343171f6cb83ecd324d8b4d7a",
        "e7f387e3ea99e261caa40547926f5fcbf6d6e6ce4f29d500694f7873af8721d0",
    ),
    Golden(
        "bb84-whole-sample",
        "--protocol bb84 --n 2000 --seed 2 --sample-frac 0.999",
        "key_exhausted",
        "8949ceceb2e8e1a8f4e08a6a26bcb7f7fe917774ac841fdb2c5a0f33236559b9",
        "560e79d7143391c7c65e6538aa39d13564761f0cee741b672f9e33302d5a6997",
    ),
    Golden(
        "b92-theta-tiny",
        "--protocol b92 --n 3000 --seed 1 --theta 1e-9",
        "empty_sifted_key",
        "6ec8cc018df22a135541d942687942bc954bfec0c521a6931cf0b6853d794a29",
        "0141afb324df5e9b42079400af0150dc809a40830ec1ac1df026721a29620901",
    ),
    Golden(
        "b92-theta-near-quarter-pi",
        "--protocol b92 --n 3000 --seed 2 --theta 0.785398",
        None,
        "8aa1515e8789e1bbe2ca1af021fec8a193d2f0099085fa4df309dba0dd372696",
        "487bca68c56f0bf6d571a9106816c2c59e3736e1891cf1b9a3d9f77719778451",
    ),
    # Privacy amplification over a 2-bit and a 1-bit reconciled key
    # draws empty subsets and redraws them (2 and 5 times).
    Golden(
        "bb84-pa-redraw",
        "--protocol bb84 --n 24 --seed 83 --sec-param 0",
        None,
        "c34ec5e31c655ba39c07e4f1ebdf37ee3119a7c172c98756055a01decfdb7948",
        "a7bedceaa046bc990c0260d9571767dd17f721ece0bb666dbe6bf56de7193fd1",
    ),
    Golden(
        "bb84-pa-redraw-5",
        "--protocol bb84 --n 36 --seed 117 --sec-param 0",
        None,
        "dfaa217c71b559b0d8090b54f147dad0b3b5ffb081be76e50156442e3072b31f",
        "b15aed1e881385e7ac199045e16d36f64a4d8103327655344a959662e6bd7bcb",
    ),
    # The benchmark's own sessions (perfbench/workloads.py): bb84-session
    # and b92-pns at seed 1, and eve-detect's three kinds at the seeds
    # that run them, 3, 1 and 2.
    Golden(
        "bench-bb84-session",
        "--protocol bb84 --n 10000 --flip 0.02 --seed 1",
        None,
        "18016cf0442fe85fae2b7fa47ce730d2beb33a8a2697b2a4fd2607166fbe6d9d",
        "4531b071afdd10ec9087641645e15a1e38c61ea3af1584ecc49283c649c379b5",
    ),
    Golden(
        "bench-b92-pns",
        "--protocol b92 --n 30000 --eve pns --loss 0.3 --multi 0.05 --flip 0.03 --seed 1",
        None,
        "b7e742059706494b83303d7a216432afc774f853cb70a85905769a2c8123b2ae",
        "42d9b548ee5fbb5d98d91e29ba97e7c849f4d8253af19f73f0a1d1af8b87e282",
    ),
    Golden(
        "bench-eve-detect-bb84-opaque",
        "--protocol bb84 --n 20000 --eve opaque --eve-frac 1.0 --seed 3",
        "error_rate_exceeds_threshold",
        "28c7e545e32ae1348db24a3071ccc3cd06aa48fee40dea20a92a8233295669f9",
        "d8b3ca31bfcc1d37fd5db38c5e80547c45b21ba0e0302a8937d38a5bf0df42da",
    ),
    Golden(
        "bench-eve-detect-b92-translucent",
        "--protocol b92 --n 20000 --eve translucent --seed 1",
        "error_rate_exceeds_threshold",
        "b978ca23991b00a559eacd079ffa1edeac4d6814cdaf1f240fe17399442d5835",
        "ae53143c8faaf0ac7140f077a65a4cbbb0808257d860e6a6381bb8b9a2c3570f",
    ),
    Golden(
        "bench-eve-detect-b92-entangle",
        "--protocol b92 --n 20000 --eve entangle --seed 2",
        "error_rate_exceeds_threshold",
        "a0b8282d5387fb137b4923ffb6c872f6b3a87ffb50ffe12c1ea1aa2be0ec1b3b",
        "cc812a0df3283bcd68c6731f44ea60c6766f21f10c32f7662ed04515643d410f",
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
