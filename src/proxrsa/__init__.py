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
        "multiprime_h2_bound",
        "proximity_delta",
        "proximity_holds_exact",
        "purity_lower",
    ),
    "keygen": (
        "KeyGenParams",
        "build_small_modulus",
        "derive_residues",
        "generate_compatible",
        "generate_keypair",
        "generate_multiprime",
    ),
    "keyfile": ("KeyPair",),
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

# The error classes imported above and every lazily loaded name.
__all__ = sorted(
    [name for name, value in globals().items() if isinstance(value, type) and issubclass(value, ProxRsaError)]
    + list(_HOME)
)
