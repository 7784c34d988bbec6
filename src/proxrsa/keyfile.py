"""The key record and its file format: JSON, hex-encoded integers,
byte-stable output.

A generator returns a KeyPair and read_key_file returns one; the file
holds exactly its fields.  Every big integer is a lowercase hex string
with an "0x" prefix; gamma is an exact "num/den" string; keys are sorted
so identical key material always produces identical bytes.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ParameterError


def _unhex(s: str) -> int:
    if not isinstance(s, str) or not s.startswith("0x"):
        raise ParameterError(f"expected 0x-prefixed hex string, got {s!r}")
    return int(s, 16)


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
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParameterError(f"gamma must be 'num/den', got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParameterError(f"gamma must be 'num/den' with integer parts: {text!r}") from exc
    if den <= 0 or num <= 0:
        raise ParameterError(f"gamma parts must be positive: {text!r}")
    return Fraction(num, den)


def keypair_to_document(kp: KeyPair) -> dict:
    return {
        "variant": kp.variant,
        "k": kp.k,
        "gamma": gamma_to_str(kp.gamma),
        "beta": kp.beta,
        "e": hex(kp.e),
        "d": hex(kp.d),
        "N": hex(kp.n),
        "primes": [hex(p) for p in kp.primes],
        "M": hex(kp.m_modulus),
        "residues": [hex(r) for r in kp.residues],
        "inner_primes": [hex(p) for p in kp.inner_primes] if kp.inner_primes else None,
        "entropy_report": kp.entropy_report,
        "seed": "0x" + kp.seed.hex(),
    }


def document_to_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomic write: a new file of mode 0o600 in the target directory, then
    a rename over path; the new file is removed if either step fails."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# JSON type of each field, as docs/key-schema.json gives it.
_FIELD_TYPES = {
    "variant": str,
    "k": int,
    "gamma": str,
    "beta": (int, float),
    "e": str,
    "d": str,
    "N": str,
    "primes": list,
    "M": str,
    "residues": list,
    "inner_primes": (list, type(None)),
    "entropy_report": dict,
    "seed": str,
}


# JSON type of each entropy report field: five decimals, a string or null
# where no value applies, and the verdict.
_REPORT_TYPES = {
    "delta": (str, type(None)),
    "purity_lower": (str, type(None)),
    "h2_estimate_bits": (str, type(None)),
    "h2_bound_bits": (str, type(None)),
    "budget_bits": (str, type(None)),
    "constraint_ok": bool,
}


def load_key_document(doc: dict) -> KeyPair:
    if not isinstance(doc, dict):
        raise ParameterError(f"malformed key document: {type(doc).__name__}, not an object")
    for name, types in _FIELD_TYPES.items():
        value = doc.get(name)
        if name in doc and (isinstance(value, bool) or not isinstance(value, types)):
            raise ParameterError(
                f"malformed key document: {name} has the wrong type ({type(value).__name__})"
            )
    report = doc.get("entropy_report")
    if (
        report is None
        or report.keys() != _REPORT_TYPES.keys()
        or not all(isinstance(report[name], types) for name, types in _REPORT_TYPES.items())
    ):
        raise ParameterError(
            f"malformed key document: entropy_report must hold exactly {list(_REPORT_TYPES)}"
            " as in docs/key-schema.json"
        )
    try:
        seed_hex = doc["seed"]
        if not seed_hex.startswith("0x"):
            raise ParameterError("seed must be 0x-prefixed hex")
        seed = bytes.fromhex(seed_hex[2:])
        if len(seed) != 32:
            raise ParameterError(f"seed must be 32 bytes, got {len(seed)}")
        inner = doc.get("inner_primes")
        return KeyPair(
            variant=doc["variant"],
            k=doc["k"],
            gamma=gamma_from_str(doc["gamma"]),
            beta=float(doc["beta"]),
            e=_unhex(doc["e"]),
            d=_unhex(doc["d"]),
            n=_unhex(doc["N"]),
            primes=[_unhex(p) for p in doc["primes"]],
            m_modulus=_unhex(doc["M"]),
            residues=[_unhex(r) for r in doc["residues"]],
            inner_primes=[_unhex(p) for p in inner] if inner else None,
            entropy_report=report,
            seed=seed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed key document: {exc}") from exc


def read_key_file(path: str) -> KeyPair:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return load_key_document(doc)
