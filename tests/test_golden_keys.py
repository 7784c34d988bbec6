"""Golden key files: the same seed and flags give the same bytes.

Each file in tests/data/keys/ was written by the CLI, e.g.
`proxrsa keygen --k 512 --gamma 1/4 --insecure-small --seed 00..00 -o ...`.
Every case regenerates its key in process, compares the serialized
bytes, and reads the file back as the same key record.  The k = 2048
and k = 3072 cases are the size ladder: each runs under a wall-clock
bound.  The small keys (k = 64 to 256) have gaps in the band where the
192-bit rounding of the entropy report sets its digits, so their reports
are neither "1.0" nor "0.0".

tests/data/reports/ holds `proxrsa analyze NAME -o ...` of each key, run
from tests/data/keys/ (plus two with `--kappa 0.5 --eps-param 0.01`).
"""

from fractions import Fraction
from pathlib import Path

import pytest

from proxrsa import cli, keyfile
from proxrsa.keygen import (
    KeyGenParams,
    generate_compatible,
    generate_keypair,
    generate_multiprime,
)

KEYS = Path(__file__).parent / "data" / "keys"
REPORTS = Path(__file__).parent / "data" / "reports"
QUARTER = Fraction(1, 4)

# (file, variant, k, seed byte, gamma, m or shift, wall-clock bound in s)
GOLDEN = [
    *(
        case
        for s in (0x00, 0x11)
        for case in (
            (f"keygen-k512-seed{s:02x}.json", "standard", 512, s, QUARTER, None, 30),
            (f"keygen-multi-m4-k1024-seed{s:02x}.json", "multi", 1024, s, QUARTER, 4, 30),
            (f"keygen-compat-shift40-k512-seed{s:02x}.json", "compat", 512, s, QUARTER, 40, 30),
        )
    ),
    ("keygen-k2048-seed00.json", "standard", 2048, 0x00, None, None, 60),
    ("keygen-multi-m3-k2048-seed00.json", "multi", 2048, 0x00, None, 3, 60),
    ("keygen-compat-k2048-seed00.json", "compat", 2048, 0x00, None, 100, 60),
    ("keygen-k3072-seed00.json", "standard", 3072, 0x00, None, None, 120),
    ("keygen-k64-seed00.json", "standard", 64, 0x00, QUARTER, None, 30),
    ("keygen-k192-seed00.json", "standard", 192, 0x00, QUARTER, None, 30),
    ("keygen-multi-m3-k96-seed00.json", "multi", 96, 0x00, QUARTER, 3, 30),
    ("keygen-compat-shift20-k256-seed00.json", "compat", 256, 0x00, QUARTER, 20, 30),
]


def _generate(variant, k, seed_byte, gamma, extra):
    params = KeyGenParams(k=k, seed=bytes([seed_byte]) * 32, gamma=gamma)
    if variant == "multi":
        return generate_multiprime(params, extra)
    if variant == "compat":
        return generate_compatible(params, extra)
    return generate_keypair(params)


@pytest.mark.parametrize(
    "name, variant, k, seed_byte, gamma, extra, bound", GOLDEN, ids=[c[0][:-5] for c in GOLDEN]
)
def test_golden_key_bytes(name, variant, k, seed_byte, gamma, extra, bound, wall_clock):
    with wall_clock(bound):
        kp = _generate(variant, k, seed_byte, gamma, extra)
    data = keyfile.document_to_bytes(keyfile.keypair_to_document(kp))
    assert data == (KEYS / name).read_bytes()
    assert keyfile.read_key_file(KEYS / name) == kp


@pytest.mark.parametrize("name", sorted(p.name for p in REPORTS.glob("*.json")))
def test_analyze_report_bytes(name, tmp_path, monkeypatch, wall_clock):
    key, fano = (name[: -len("-fano.json")] + ".json", True) if name.endswith("-fano.json") else (name, False)
    out = tmp_path / "report.json"
    monkeypatch.chdir(KEYS)
    extra = ["--kappa", "0.5", "--eps-param", "0.01"] if fano else []
    with wall_clock(30):
        assert cli.main(["analyze", key, *extra, "-o", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (REPORTS / name).read_bytes()
