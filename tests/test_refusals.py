"""Library refusals: each call below raises ParameterError before any work."""

import re
from fractions import Fraction

import pytest

from proxrsa import analysis, entropy, keygen, numerics, shor_sim
from proxrsa.errors import ParameterError
from proxrsa.keygen import KeyGenParams
from proxrsa.numerics import SeedStream


def stream():
    return SeedStream(bytes(32))


def params(**fields):
    return KeyGenParams(k=64, seed=bytes(32), **fields)


# id: (the call, the start of its error message)
REFUSALS = {
    "stream-counter-2^64": (lambda: SeedStream(bytes(32), 2**64), "counter out of 64-bit range"),
    "uint-bound-0": (lambda: numerics.stream_uint(stream(), 0), "bound must be positive"),
    "bits-0": (lambda: numerics.stream_bits(stream(), 0), "nbits must be positive"),
    "progression-modulus-0": (
        lambda: numerics.next_prime_in_progression(10, 0, 0, 10),
        "modulus must be >= 1",
    ),
    "progression-residue-modulus": (
        lambda: numerics.next_prime_in_progression(10, 7, 7, 10),
        "residue must satisfy 0 <= residue < modulus",
    ),
    "progression-no-steps": (
        lambda: numerics.next_prime_in_progression(10, 1, 6, 0),
        "max_steps must be >= 1",
    ),
    "first-primes-negative": (lambda: numerics.first_primes(-1), "count must be non-negative"),
    "small-modulus-ell-0": (lambda: keygen.build_small_modulus(0), "ell must be >= 1"),
    "residues-modulus-1": (lambda: keygen.derive_residues(1, stream(), 1), "modulus must be >= 2"),
    "residues-count-0": (lambda: keygen.derive_residues(30, stream(), 0), "count must be >= 1"),
    "params-epsilon-half": (lambda: params(epsilon=0.5).validate(), "epsilon must lie in (0, 1/2): 0.5"),
    "params-ell-0": (lambda: params(ell=0).validate(), "ell must be >= 1"),
    "params-no-candidates": (lambda: params(max_candidates=0).validate(), "search limits must be positive"),
    "default-gamma-epsilon-half": (lambda: keygen.default_gamma(64, 0.5), "epsilon must lie in (0, 1/2)"),
    "delta-below-2": (lambda: entropy.proximity_delta(1, 5), "inputs must be >= 2"),
    "h2-cap-negative-gamma": (lambda: entropy.h2_upper_bound(-1), "gamma must be non-negative"),
    "multiprime-cap-m-1": (lambda: entropy.multiprime_h2_bound(1, Fraction(1, 4)), "m must be >= 2"),
    "order-base-n": (lambda: shor_sim.multiplicative_order(15, 15), "base must satisfy 1 <= a < n: 15"),
    "distinguishability-equal": (lambda: analysis.distinguishability_bound(5, 5), "inputs must be distinct"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_arguments_raise_parameter_error(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        call()
