"""The key record and its file format: JSON, hex-encoded integers,
byte-stable output.

A generator returns a KeyPair and read_key_file returns one; the file
holds exactly its fields, listed once in _FIELDS.  Every big integer is
a lowercase hex string with an "0x" prefix; gamma is an exact "num/den"
string; keys are sorted so identical key material always produces
identical bytes.  The loader refuses a document outside the shape of
docs/key-schema.json (ParameterError, exit 3); value rules, such as the
variant or the range of k, are validate.validate_key's.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ParameterError, ProxRsaError

# keygen's largest k; a wider integer is refused before any primality test.
MAX_INT_BITS = 8192

_HEX = re.compile(r"0x[0-9a-f]+")
_SEED = re.compile(r"0x[0-9a-f]{64}")
_RATIONAL = re.compile(r"[0-9]+/[0-9]+")
_DECIMAL = re.compile(r"-?[0-9.][0-9.e+-]*")


def _matched(pattern: re.Pattern, text: str) -> str:
    if not pattern.fullmatch(text):
        raise ParameterError(f"{text[:40]!r} does not match {pattern.pattern}")
    return text


def _unhex(text: str) -> int:
    value = int(_matched(_HEX, text), 16)
    if value.bit_length() > MAX_INT_BITS:
        raise ParameterError(f"{value.bit_length()}-bit integer is wider than {MAX_INT_BITS} bits")
    return value


class KeyPair(NamedTuple):
    """One key: what a generator returns and what a key file holds.

    gamma is the resolved proximity bound and entropy_report the
    generator's report as the file stores it.  No key invariant is checked
    here; validate.validate_key re-derives them from the raw integers.
    The record is an immutable tuple: kp._replace(variant=...) makes an
    edited copy.
    """

    variant: str  # standard | multiprime | compatible
    k: int
    gamma: Fraction
    beta: float
    e: int
    d: int
    n: int
    primes: list[int]
    m_modulus: int
    residues: list[int]
    inner_primes: Optional[list[int]]
    entropy_report: dict
    seed: bytes


def gamma_to_str(gamma: Fraction) -> str:
    return f"{gamma.numerator}/{gamma.denominator}"


def gamma_from_str(text: str) -> Fraction:
    """The gamma a "num/den" string of ASCII digits names, both parts positive."""
    if not _RATIONAL.fullmatch(text):
        raise ParameterError(f"gamma must be 'num/den' with ASCII digits only, got {text[:40]!r}")
    num, den = map(int, text.split("/"))
    if den <= 0 or num <= 0:
        raise ParameterError(f"gamma parts must be positive: {text!r}")
    return Fraction(num, den)


def document_to_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomic write: a new file of mode 0o600 in the target directory, then
    a rename over path; the new file is removed if either step fails.
    A path that exists but is not a regular file, or a link to one (a FIFO,
    a device), is written in place, since a rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        # no O_CREAT: a path gone since the check raises, not a 0o666 file;
        # a directory raises here too
        with os.fdopen(os.open(path, os.O_WRONLY), "wb") as fh:
            fh.write(data)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError as exc:
        # the temporary name is ours, not the caller's: report path instead
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The entropy report's fields: five decimals, each a string or null where
# no value applies, and the verdict.
_REPORT_DECIMALS = ("delta", "purity_lower", "h2_estimate_bits", "h2_bound_bits", "budget_bits")


def _report(report: dict) -> dict:
    decimals = [report.get(name) for name in _REPORT_DECIMALS]
    if (
        report.keys() != {*_REPORT_DECIMALS, "constraint_ok"}
        or not isinstance(report["constraint_ok"], bool)
        or not all(v is None or isinstance(v, str) and _DECIMAL.fullmatch(v) for v in decimals)
    ):
        raise ParameterError(
            f"must hold {list(_REPORT_DECIMALS)}, each a decimal string or null, and the"
            " boolean constraint_ok, as in docs/key-schema.json"
        )
    return report


def _hexes(values: list[int]) -> list[str]:
    return [hex(v) for v in values]


def _unhexes(texts: list) -> list[int]:
    return [_unhex(text) for text in texts]


def _inner(texts: Optional[list]) -> Optional[list[int]]:
    if texts is not None and len(texts) != 2:
        raise ParameterError(f"must be null or hold two primes, not {len(texts)}")
    return texts and _unhexes(texts)


def _seed(text: str) -> bytes:
    return bytes.fromhex(_matched(_SEED, text)[2:])


# Each document field: its KeyPair field, its JSON types as the schema
# gives them, its encoder and its decoder (a plain value's own type).
_FIELDS = {
    "variant": ("variant", str, str, str),
    "k": ("k", int, int, int),
    "gamma": ("gamma", str, gamma_to_str, gamma_from_str),
    "beta": ("beta", (int, float), float, float),
    "e": ("e", str, hex, _unhex),
    "d": ("d", str, hex, _unhex),
    "N": ("n", str, hex, _unhex),
    "primes": ("primes", list, _hexes, _unhexes),
    "M": ("m_modulus", str, hex, _unhex),
    "residues": ("residues", list, _hexes, _unhexes),
    "inner_primes": ("inner_primes", (list, type(None)), lambda ps: _hexes(ps) if ps else None, _inner),
    "entropy_report": ("entropy_report", dict, dict, _report),
    "seed": ("seed", str, lambda seed: "0x" + seed.hex(), _seed),
}


def keypair_to_document(kp: KeyPair) -> dict:
    return {name: encode(getattr(kp, field)) for name, (field, _, encode, _) in _FIELDS.items()}


def load_key_document(doc: dict) -> KeyPair:
    """The key a document holds.  ParameterError (exit 3) unless it has
    exactly the fields of _FIELDS, each of the schema's shape."""
    if not isinstance(doc, dict):
        raise ParameterError(f"malformed key document: {type(doc).__name__}, not an object")
    if doc.keys() != _FIELDS.keys():
        raise ParameterError(
            f"malformed key document: missing {sorted(_FIELDS.keys() - doc.keys())},"
            f" unknown {sorted(doc.keys() - _FIELDS.keys())}; the schema has {len(_FIELDS)} fields"
        )
    fields = {}
    for name, (field, types, _, decode) in _FIELDS.items():
        value = doc[name]
        try:
            if isinstance(value, bool) or not isinstance(value, types):
                raise ParameterError(f"has the wrong type ({type(value).__name__})")
            fields[field] = decode(value)
        except (ParameterError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed key document: {name}: {exc}") from exc
    return KeyPair(**fields)


def read_key_file(path: str) -> KeyPair:
    """The key in the JSON file at path.  ProxRsaError (exit 1) when it is
    not UTF-8 JSON or an integer passes Python's int-string digit limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ProxRsaError(f"{path}: {exc}") from None
    return load_key_document(doc)
