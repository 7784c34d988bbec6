"""Integer primitives: primality, sieving, seeded randomness, exact proximity.

Python's built-in ``int`` is the arbitrary-precision integer type used
throughout; every routine here accepts and returns plain ints, and gcd,
modular inverse and integer square root are the builtins (``math.gcd``,
``pow(e, -1, m)``, ``math.isqrt``).  All randomness flows through
:class:`SeedStream` (SHA-256 in counter mode), so identical seeds
reproduce identical results bit for bit.

:func:`sieve_range` is the one function that lists primes: the small
primes of trial division, the first ell primes of the congruence
modulus (:func:`first_primes`), shor-compare's prime band and the
census's base primes.  _odd_mask marks the odd numbers of a window in a
``bytearray``, one byte each, and crosses off multiples with slices of
one shared zero buffer; sieve_range takes its base primes up to
isqrt(hi) from itself, and the census reads its range as such masks,
one per segment.  The module needs nothing outside the standard library,
and hashlib loads with the first stream, so a sieve-only caller never
imports it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    ParameterError,
    RangeTooLargeError,
    SearchExhaustedError,
    StreamExhaustedError,
)

_MAX_COUNTER = 1 << 64
_MAX_SIEVE_HI = 1 << 40
_MAX_SIEVE_SPAN = 1 << 28


class SeedStream:
    """Deterministic byte stream: block i = SHA-256(seed || i as 8-byte BE).

    (seed, counter) fully determines all future output; the counter is
    64-bit and overflow raises rather than wrapping.
    """

    def __init__(self, seed: bytes, counter: int = 0) -> None:
        from hashlib import sha256

        if len(seed) != 32:
            raise ParameterError("seed must be exactly 32 bytes")
        if not 0 <= counter < _MAX_COUNTER:
            raise ParameterError("counter out of 64-bit range")
        self.seed = seed
        self.counter = counter
        self._sha256 = sha256

    def block(self) -> bytes:
        if self.counter >= _MAX_COUNTER:
            raise StreamExhaustedError("seed stream counter overflow")
        digest = self._sha256(self.seed + self.counter.to_bytes(8, "big")).digest()
        self.counter += 1
        return digest


def stream_uint(stream: SeedStream, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection sampling on 256-bit blocks.

    One block per draw up to bound = 2^256; above that, ceil((bits+64)/256)
    blocks, so each draw is rejected with probability below 2^-64.
    """
    if bound <= 0:
        raise ParameterError("bound must be positive")
    nblocks = 1 if bound <= 1 << 256 else -(-(bound.bit_length() + 64) // 256)
    span = 1 << (256 * nblocks)
    limit = span - span % bound
    while True:
        value = int.from_bytes(b"".join(stream.block() for _ in range(nblocks)), "big")
        if value < limit:
            return value % bound


def stream_bits(stream: SeedStream, nbits: int) -> int:
    """nbits-wide integer from the stream (leading bits of consecutive blocks)."""
    if nbits <= 0:
        raise ParameterError("nbits must be positive")
    nblocks = -(-nbits // 256)
    raw = b"".join(stream.block() for _ in range(nblocks))
    return int.from_bytes(raw, "big") >> (256 * nblocks - nbits)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base^exponent mod modulus by builtin pow; negative exponents are refused."""
    if modulus < 1:
        raise ParameterError("modulus must be >= 1")
    if exponent < 0:
        raise ParameterError("exponent must be non-negative")
    return pow(base, exponent, modulus)


def _mr_base_stream(n: int) -> SeedStream:
    from hashlib import sha256

    # Bases are derived from n itself so the test is a pure function of n.
    material = b"miller-rabin-bases:" + n.to_bytes((n.bit_length() + 7) // 8, "big")
    return SeedStream(sha256(material).digest())


def is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Trial division by small primes, then `rounds` Miller-Rabin rounds.

    Bases come from a SeedStream derived from n, making the verdict
    deterministic and replayable.  Error probability for a composite that
    survives trial division is at most 4**-rounds.
    """
    if rounds < 1:
        raise ParameterError("rounds must be >= 1")
    if n < 2:
        return False
    if n in _SMALL_PRIME_SET:
        return True
    # One gcd is trial division by every prime below 2048 at once.
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    if n < _SMALL_PRIME_LIMIT:
        return True

    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    stream = _mr_base_stream(n)
    for _ in range(rounds):
        a = 2 + stream_uint(stream, n - 3)
        x = mod_pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_in_progression(start: int, residue: int, modulus: int, max_steps: int) -> int:
    """Smallest prime p >= start with p == residue (mod modulus).

    Candidates go start', start'+modulus, start'+2*modulus, ... where
    start' is the first value >= start in the residue class; at most
    max_steps candidates are examined.
    """
    if modulus < 1:
        raise ParameterError("modulus must be >= 1")
    if not 0 <= residue < modulus:
        raise ParameterError("residue must satisfy 0 <= residue < modulus")
    if math.gcd(residue, modulus) != 1:
        raise ParameterError(f"gcd({residue}, {modulus}) != 1: class contains at most one prime")
    if max_steps < 1:
        raise ParameterError("max_steps must be >= 1")

    candidate = start + ((residue - start) % modulus)
    for _ in range(max_steps):
        if candidate >= 2 and is_probable_prime(candidate):
            return candidate
        candidate += modulus
    raise SearchExhaustedError(
        f"no prime == {residue} (mod {modulus}) within {max_steps} candidates from {start}"
    )


def _check_bounds(lo: int, hi: int) -> None:
    """The range check of every sieved window [lo, hi]."""
    if lo < 0 or hi < 0:
        raise ParameterError("bounds must be non-negative")
    if lo > hi:
        raise ParameterError("lo must not exceed hi")
    if hi > _MAX_SIEVE_HI:
        raise RangeTooLargeError(f"hi exceeds 2^40 budget: {hi}")


def sieve_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending.  Span is capped at 2**28.

    The base primes up to isqrt(hi) come from this function itself, so
    the recursion ends at a window below 2.
    """
    _check_bounds(lo, hi)
    if hi - lo > _MAX_SIEVE_SPAN:
        raise RangeTooLargeError(f"segment span exceeds 2^28: {hi - lo}")
    if hi < 2:
        return []
    mask = _odd_mask(lo, hi, sieve_range(0, math.isqrt(hi)), _zero_buffer(hi - lo))
    primes = list(itertools.compress(range(lo | 1, hi + 1, 2), mask))
    return [2, *primes] if lo <= 2 <= hi else primes


def _zero_buffer(span: int) -> memoryview:
    """One 1 byte and then enough zero bytes for _odd_mask and for a
    zero-run needle over any window of at most span + 1 numbers."""
    buffer = bytearray(span // 2 + 2)
    buffer[0] = 1
    return memoryview(buffer)


def _odd_mask(lo: int, hi: int, base_primes: list[int], buffer: memoryview) -> bytearray:
    """mask[i] is 1 when lo|1 + 2*i is prime, 0 otherwise, over the odd
    numbers of [lo, hi]; 2 is left to the caller.

    base_primes must hold every prime from 2 up to isqrt(hi), ascending;
    larger ones are ignored, so one base list serves every window below
    its top.  Multiples are crossed off with slices of buffer (from
    _zero_buffer), so no base prime allocates zero bytes of its own."""
    odd = lo | 1
    size = max(0, (hi - odd) // 2 + 1)
    mask = bytearray(b"\x01") * size
    if odd == 1 and size:
        mask[0] = 0
    zeros = buffer[1:]
    for p in base_primes[1:]:
        if p * p > hi:
            break
        first = max(p * p, -(-lo // p) * p)
        if first % 2 == 0:
            first += p
        start = (first - odd) // 2
        if start < size:
            mask[start::p] = zeros[: (size - 1 - start) // p + 1]
    return mask


# Trial division by these fully decides primality below 2048**2.
_SMALL_PRIMES = sieve_range(0, 2048)
_SMALL_PRIME_SET = set(_SMALL_PRIMES)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
_SMALL_PRIME_LIMIT = 2048 * 2048


def _prime_bound(count: int) -> int:
    """An integer above the count-th prime: ceil(n(ln n + ln ln n)) for n >= 6 (Rosser)."""
    return 12 if count < 6 else math.ceil(count * (math.log(count) + math.log(math.log(count))))


def prime_limit(count: int) -> int:
    """An integer above the count-th prime; RangeTooLargeError when it lies
    past the 2^28 sieve span."""
    if count < 0:
        raise ParameterError("count must be non-negative")
    limit = _prime_bound(count)
    if limit > _MAX_SIEVE_SPAN:
        raise RangeTooLargeError(f"the first {count} primes reach past the 2^28 sieve span")
    return limit


def first_primes(count: int) -> list[int]:
    """The first `count` primes, from one sieve up to prime_limit(count)."""
    return sieve_range(0, prime_limit(count))[:count]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1: the count of units in Z_n."""
    phi = n
    for p in prime_factors(n):
        phi -= phi // p
    return phi


def proximity_holds_exact(p: int, q: int, gamma: Fraction) -> bool:
    """|p - q| < gamma*sqrt(p*q), decided exactly: den^2 (p-q)^2 < num^2 p q."""
    num, den = gamma.numerator, gamma.denominator
    return den * den * (p - q) * (p - q) < num * num * p * q
