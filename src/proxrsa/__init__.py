"""proxrsa: proximity-constrained RSA key generation and analysis toolkit.

Generates RSA keys whose primes sit in prescribed residue classes with a
controlled normalized gap, reports the collision-entropy model and the
quantum/classical security metrics attached to that choice, and ships an
exact toy-scale period-finding simulator plus prime-pair census tools to
probe the construction empirically.
"""

from .entropy import (
    EntropyReport,
    check_entropy_constraint,
    h2_estimate,
    h2_from_delta,
    h2_upper_bound,
    model_eigenvalues,
    multiprime_h2_bound,
    proximity_delta,
    proximity_holds_exact,
    purity_lower,
    renyi_entropy,
)
from .errors import (
    InfeasibleError,
    NumericalError,
    ParameterError,
    ProxRsaError,
    RangeTooLargeError,
    SearchExhaustedError,
    StreamExhaustedError,
)
from .keygen import (
    KeyGenParams,
    KeyPair,
    build_small_modulus,
    derive_residues,
    generate_compatible,
    generate_keypair,
    generate_multiprime,
)
from .numerics import SeedStream, is_probable_prime, sieve_range
from .validate import validate_key

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
