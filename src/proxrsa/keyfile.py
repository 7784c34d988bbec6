"""Key file serialization: JSON, hex-encoded integers, byte-stable output.

Every big integer is a lowercase hex string with an "0x" prefix; gamma is
an exact "num/den" string; keys are sorted so identical key material always
produces identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import ParameterError

if TYPE_CHECKING:
    from .keygen import KeyPair


def _unhex(s: str) -> int:
    if not isinstance(s, str) or not s.startswith("0x"):
        raise ParameterError(f"expected 0x-prefixed hex string, got {s!r}")
    return int(s, 16)


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
        "k": kp.params.k,
        "gamma": gamma_to_str(kp.params.resolved_gamma()),
        "beta": kp.params.beta,
        "e": hex(kp.e),
        "d": hex(kp.d),
        "N": hex(kp.n),
        "primes": [hex(p) for p in kp.primes],
        "M": hex(kp.m_modulus),
        "residues": [hex(r) for r in kp.residues],
        "inner_primes": [hex(p) for p in kp.inner_primes] if kp.inner_primes else None,
        "entropy_report": kp.entropy.to_dict(),
        "seed": "0x" + kp.params.seed.hex(),
    }


def document_to_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class LoadedKey:
    """Parsed key file contents, integers decoded, nothing validated yet."""

    variant: str
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
    "entropy_report": (dict, type(None)),
    "seed": str,
}


def load_key_document(doc: dict) -> LoadedKey:
    if not isinstance(doc, dict):
        raise ParameterError(f"malformed key document: {type(doc).__name__}, not an object")
    for name, types in _FIELD_TYPES.items():
        value = doc.get(name)
        if name in doc and (isinstance(value, bool) or not isinstance(value, types)):
            raise ParameterError(
                f"malformed key document: {name} has the wrong type ({type(value).__name__})"
            )
    try:
        seed_hex = doc["seed"]
        if not seed_hex.startswith("0x"):
            raise ParameterError("seed must be 0x-prefixed hex")
        inner = doc.get("inner_primes")
        return LoadedKey(
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
            entropy_report=doc.get("entropy_report") or {},
            seed=bytes.fromhex(seed_hex[2:]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed key document: {exc}") from exc


def read_key_file(path: str) -> LoadedKey:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return load_key_document(doc)
