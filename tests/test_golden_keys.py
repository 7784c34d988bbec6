"""Golden key files: the same seed and flags give the same bytes.

Each file in tests/data/keys/ was written by the CLI, e.g.
`proxrsa keygen --k 512 --gamma 1/4 --insecure-small --seed 00..00 -o ...`.
Every case regenerates its key in process, compares the serialized
bytes, and reads the file back as the same key record.  The k = 2048,
3072 and 4096 cases are the size ladder: each runs under a wall-clock
bound (CI's real-sizes job checks k = 8192 keys against pinned
digests).  The small keys (k = 64 to 256) have gaps in the band where
the 192-bit rounding of the entropy report sets its digits, so their
reports are neither "1.0" nor "0.0".

Every golden key passes the validator, and `verify` on each key of
k >= 2048 runs under a one-second bound.

tests/data/reports/ holds `proxrsa analyze NAME -o ...` of each key, run
from tests/data/keys/ (plus two with `--kappa 0.5 --eps-param 0.01`).

The golden documents also seed the loader's schema test: each mutated
copy is refused as malformed or fails the validator, unless the JSON
schema accepts both the copy and the document of the key read from it.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrsa import cli, keyfile, validate
from proxrsa.errors import ParameterError
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
    ("keygen-k4096-seed00.json", "standard", 4096, 0x00, None, None, 180),
    ("keygen-multi-m3-k4096-seed00.json", "multi", 4096, 0x00, None, 3, 60),
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


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN], ids=[c[0][:-5] for c in GOLDEN])
def test_golden_key_passes_the_validator(name):
    assert validate.validate_key(keyfile.read_key_file(KEYS / name)) == []


@pytest.mark.parametrize(
    "name", [c[0] for c in GOLDEN if c[2] >= 2048], ids=[c[0][:-5] for c in GOLDEN if c[2] >= 2048]
)
def test_verify_takes_under_a_second_at_real_sizes(name, monkeypatch, wall_clock):
    monkeypatch.chdir(KEYS)
    with wall_clock(1):
        assert cli.main(["verify", name]) == cli.EXIT_OK


@pytest.mark.parametrize("name", sorted(p.name for p in REPORTS.glob("*.json")))
def test_analyze_report_bytes(name, tmp_path, monkeypatch, wall_clock):
    key, fano = (name[: -len("-fano.json")] + ".json", True) if name.endswith("-fano.json") else (name, False)
    out = tmp_path / "report.json"
    monkeypatch.chdir(KEYS)
    extra = ["--kappa", "0.5", "--eps-param", "0.01"] if fano else []
    with wall_clock(30):
        assert cli.main(["analyze", key, *extra, "-o", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (REPORTS / name).read_bytes()


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN], ids=[c[0][:-5] for c in GOLDEN])
def test_golden_file_round_trips_byte_for_byte(name):
    kp = keyfile.read_key_file(KEYS / name)
    assert keyfile.document_to_bytes(keyfile.keypair_to_document(kp)) == (KEYS / name).read_bytes()


GOLDEN_DOCS = {c[0]: json.loads((KEYS / c[0]).read_text()) for c in GOLDEN}
HEX_FIELDS = ["e", "d", "N", "M", "seed", "primes", "residues", "inner_primes"]
LIST_FIELDS = ["primes", "residues", "inner_primes"]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.lists(st.integers(0, 99), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(GOLDEN_DOCS[draw(st.sampled_from(sorted(GOLDEN_DOCS)))])
    kind = draw(st.sampled_from(["drop", "add", "retype", "break-hex", "resize"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "add":
        doc[draw(st.text(min_size=1, max_size=8).filter(lambda name: name not in doc))] = draw(JSON_VALUES)
    elif kind == "retype":
        name = draw(st.sampled_from(sorted(doc)))
        doc[name] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(doc[name])))
    elif kind == "break-hex":
        name = draw(st.sampled_from([n for n in HEX_FIELDS if doc[n] is not None]))
        texts = doc[name] if isinstance(doc[name], list) else None
        index = draw(st.integers(0, len(texts) - 1)) if texts else None
        text = texts[index] if texts else doc[name]
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["upper", "insert", "replace", "strip-prefix"]))
        if edit == "upper":
            text = text[:2] + text[2:].upper()
        elif edit == "strip-prefix":
            text = text[2:]
        else:
            char = draw(st.sampled_from(list("_ G-+.xX0aF\n")))
            text = text[:at] + char + text[at + (edit == "replace"):]
        if texts:
            texts[index] = text
        else:
            doc[name] = text
    else:
        name = draw(st.sampled_from([n for n in LIST_FIELDS if doc[n] is not None]))
        size = draw(st.integers(0, 5))
        extra = [hex(draw(st.integers(0, 2**64))) for _ in range(size)]
        doc[name] = (doc[name] + extra)[:size]
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_a_mutated_golden_document_is_refused_failed_or_within_the_schema(doc):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "docs" / "key-schema.json").read_text())
    try:
        kp = keyfile.load_key_document(doc)
    except ParameterError:
        return
    within = jsonschema.Draft7Validator(schema).is_valid
    if not (within(doc) and within(keyfile.keypair_to_document(kp))):
        assert validate.validate_key(kp) != []
