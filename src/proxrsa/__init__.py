"""proxrsa: proximity-constrained RSA key generation and analysis toolkit.

Generates RSA keys whose primes sit in prescribed residue classes with a
controlled normalized gap, reports the collision-entropy model and the
quantum/classical security metrics attached to that choice, and ships an
exact toy-scale period-finding simulator plus prime-pair census tools to
probe the construction empirically.
"""

import importlib

from .errors import (
    InfeasibleError,
    NumericalError,
    ParameterError,
    ProxRsaError,
    RangeTooLargeError,
    SearchExhaustedError,
    StreamExhaustedError,
)

# The other public names load their module on first use (PEP 562), so a
# command that imports one submodule loads none of the others.
_LAZY = {
    "entropy": (
        "EntropyReport",
        "check_entropy_constraint",
        "h2_estimate",
        "h2_from_delta",
        "h2_upper_bound",
        "model_eigenvalues",
        "multiprime_h2_bound",
        "proximity_delta",
        "proximity_holds_exact",
        "purity_lower",
        "renyi_entropy",
    ),
    "keygen": (
        "KeyGenParams",
        "KeyPair",
        "build_small_modulus",
        "derive_residues",
        "generate_compatible",
        "generate_keypair",
        "generate_multiprime",
    ),
    "numerics": ("SeedStream", "is_probable_prime", "sieve_range"),
    "validate": ("validate_key",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "EntropyReport",
    "InfeasibleError",
    "KeyGenParams",
    "KeyPair",
    "NumericalError",
    "ParameterError",
    "ProxRsaError",
    "RangeTooLargeError",
    "SearchExhaustedError",
    "SeedStream",
    "StreamExhaustedError",
    "build_small_modulus",
    "check_entropy_constraint",
    "derive_residues",
    "generate_compatible",
    "generate_keypair",
    "generate_multiprime",
    "h2_estimate",
    "h2_from_delta",
    "h2_upper_bound",
    "is_probable_prime",
    "model_eigenvalues",
    "multiprime_h2_bound",
    "proximity_delta",
    "proximity_holds_exact",
    "purity_lower",
    "renyi_entropy",
    "sieve_range",
    "validate_key",
]
