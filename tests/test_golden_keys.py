"""Golden key files: the same seed and flags give the same bytes.

Each file in tests/data/keys/ was written by the CLI, e.g.
`proxrsa keygen --k 512 --gamma 1/4 --insecure-small --seed 00..00 -o ...`.
Every case regenerates its key in process, compares the serialized
bytes, and reads the file back as the same key record.  The k = 2048
cases and keygen at k = 3072 are the size ladder: each runs under a
wall-clock bound.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from proxrsa import keyfile
from proxrsa.keygen import (
    KeyGenParams,
    generate_compatible,
    generate_keypair,
    generate_multiprime,
)

KEYS = Path(__file__).parent / "data" / "keys"
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


def test_keygen_3072_ends(wall_clock):
    with wall_clock(120):
        kp = _generate("standard", 3072, 0x00, None, None)
    assert kp.n.bit_length() == 3072
    assert pow(pow(42, kp.e, kp.n), kp.d, kp.n) == 42
