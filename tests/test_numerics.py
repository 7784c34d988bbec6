import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrsa import numerics
from proxrsa.errors import (
    ParameterError,
    RangeTooLargeError,
    SearchExhaustedError,
    StreamExhaustedError,
)
from proxrsa.numerics import SeedStream


def naive_sieve(limit):
    """Independent oracle: classic bytearray sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


# --- seed stream / PRF ---------------------------------------------------


def test_prf_block_is_sha256_of_seed_and_counter():
    stream = SeedStream(bytes(32))
    block = stream.block()
    # 32 zero bytes + 8 zero counter bytes = 40 zero bytes
    assert block == hashlib.sha256(bytes(40)).digest()
    assert (
        block.hex()
        == "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"
    )


def test_prf_block_replay_and_distinct_counters():
    a = SeedStream(bytes(32)).block()
    b = SeedStream(bytes(32)).block()
    assert a == b
    s = SeedStream(bytes(32))
    first, second = s.block(), s.block()
    assert first != second
    assert second == hashlib.sha256(bytes(32) + (1).to_bytes(8, "big")).digest()


def test_stream_counter_overflow():
    s = SeedStream(bytes(32), counter=(1 << 64) - 1)
    s.block()
    with pytest.raises(StreamExhaustedError):
        s.block()


def test_seed_must_be_32_bytes():
    with pytest.raises(ParameterError):
        SeedStream(b"short")


@given(st.binary(min_size=32, max_size=32), st.integers(0, 1000))
@settings(max_examples=50)
def test_stream_is_pure_function_of_seed_and_counter(seed, counter):
    s1 = SeedStream(seed, counter)
    s2 = SeedStream(seed, counter)
    assert [s1.block() for _ in range(3)] == [s2.block() for _ in range(3)]


def test_stream_uint_is_in_range_and_deterministic():
    s = SeedStream(bytes(32))
    values = [numerics.stream_uint(s, 97) for _ in range(50)]
    assert all(0 <= v < 97 for v in values)
    s2 = SeedStream(bytes(32))
    assert values == [numerics.stream_uint(s2, 97) for _ in range(50)]


def _one_block_uint(stream, bound):
    """The single-block draw every bound up to 2^256 has always used."""
    limit = (1 << 256) - ((1 << 256) % bound)
    while True:
        value = int.from_bytes(stream.block(), "big")
        if value < limit:
            return value % bound


@given(st.integers(1, 1 << 256), st.integers(0, 1000))
@settings(max_examples=100)
def test_stream_uint_replays_single_block_draws(bound, counter):
    s1, s2 = SeedStream(bytes(32), counter), SeedStream(bytes(32), counter)
    assert numerics.stream_uint(s1, bound) == _one_block_uint(s2, bound)
    assert s1.counter == s2.counter


@pytest.mark.parametrize("bound", [(1 << 256) - 1, 1 << 256, (1 << 256) + 1, (1 << 607) - 1])
def test_stream_uint_ends_and_stays_in_range_around_two_to_256(bound, wall_clock):
    s = SeedStream(bytes(32))
    with wall_clock(10):
        values = [numerics.stream_uint(s, bound) for _ in range(200)]
    assert all(0 <= v < bound for v in values)
    assert len(set(values)) == len(values)


def test_stream_uint_above_two_to_256_draws_extra_blocks():
    # bits + 64 bits of headroom, rounded up to whole blocks
    for bound, blocks in (((1 << 256) + 1, 2), ((1 << 448) - 1, 2), (1 << 448, 3), ((1 << 607) - 1, 3)):
        s = SeedStream(bytes(32))
        value = numerics.stream_uint(s, bound)
        assert s.counter == blocks and 0 <= value < bound, (bound, blocks)


# --- primality testing ----------------------------------------------------


def test_probable_prime_examples():
    assert numerics.is_probable_prime(2, 1)
    assert not numerics.is_probable_prime(561, 16)  # Carmichael number
    assert numerics.is_probable_prime(7919, 16)
    assert not numerics.is_probable_prime(0, 16)
    assert not numerics.is_probable_prime(1, 16)


def test_probable_prime_rejects_bad_rounds():
    with pytest.raises(ParameterError):
        numerics.is_probable_prime(17, 0)


def test_probable_prime_agrees_with_sieve_to_one_million():
    """Every n up to 10^6, and the window around 2048^2 where trial division
    stops deciding alone: it holds 2053^2, the first composite with no prime
    factor below 2048."""
    limit = 10**6
    edge = 2048 * 2048
    window = range(edge - (1 << 15), edge + (1 << 15))
    assert 2053 * 2053 in window
    primes = set(naive_sieve(window[-1]))
    numbers = itertools.chain(range(limit + 1), window)
    mismatches = [n for n in numbers if numerics.is_probable_prime(n, 16) != (n in primes)]
    assert mismatches == []


def test_probable_prime_on_large_known_values():
    # 2^89 - 1 is a Mersenne prime; 2^67 - 1 famously is not.
    assert numerics.is_probable_prime((1 << 89) - 1, 32)
    assert not numerics.is_probable_prime((1 << 67) - 1, 32)


def test_probable_prime_above_two_to_256(wall_clock):
    # Miller-Rabin bases for these are drawn with bounds above 2^256.
    with wall_clock(30):
        assert numerics.is_probable_prime((1 << 521) - 1)
        assert numerics.is_probable_prime((1 << 607) - 1)
        assert not numerics.is_probable_prime((1 << 523) - 1)  # 2^523 - 1 is composite
        assert not numerics.is_probable_prime(((1 << 521) - 1) * ((1 << 127) - 1))


# --- progression search ---------------------------------------------------


def test_progression_examples():
    assert numerics.next_prime_in_progression(10, 1, 6, 100) == 13
    assert numerics.next_prime_in_progression(7, 1, 2, 100) == 7
    with pytest.raises(ParameterError):
        numerics.next_prime_in_progression(2, 0, 4, 100)


def test_progression_exhausts():
    # residue class 0 mod 1 around an even span with max_steps 1
    with pytest.raises(SearchExhaustedError):
        numerics.next_prime_in_progression(24, 0, 1, 1)


@given(
    start=st.integers(2, 10_000),
    modulus=st.integers(1, 50),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_progression_postconditions(start, modulus, data):
    residue = data.draw(
        st.sampled_from([r for r in range(modulus) if math.gcd(r, modulus) == 1])
    )
    p = numerics.next_prime_in_progression(start, residue, modulus, 10_000)
    assert p >= start
    assert p % modulus == residue
    assert numerics.is_probable_prime(p, 64)
    # minimality: no smaller candidate in the class is prime
    candidate = start + ((residue - start) % modulus)
    while candidate < p:
        assert not numerics.is_probable_prime(candidate, 64)
        candidate += modulus


# --- sieve_range ----------------------------------------------------------


def test_sieve_examples():
    assert numerics.sieve_range(2, 10) == [2, 3, 5, 7]
    assert numerics.sieve_range(0, 1) == []
    assert numerics.sieve_range(90, 100) == [97]


def test_sieve_matches_naive_oracle():
    expected = naive_sieve(10_000)
    assert numerics.sieve_range(0, 10_000) == expected
    lo, hi = 5000, 7500
    assert numerics.sieve_range(lo, hi) == [p for p in expected if lo <= p <= hi]


def test_segment_sieve_shares_one_base_list():
    """Windows below 20000 sieved with the base primes of 10^6: even and odd
    ends, windows of one number and windows around 0, 1 and 2."""
    expected = naive_sieve(20_000)
    base = numerics.sieve_range(0, math.isqrt(10**6))
    windows = [(lo, lo + span) for lo in range(0, 40) for span in range(0, 12)]
    windows += [(lo, lo + span) for lo in range(0, 19_000, 997) for span in (0, 1, 2, 63, 64, 1000)]
    for lo, hi in windows:
        mask = numerics._odd_mask(lo, hi, base, memoryview(b"\x01" + bytes((hi - lo) // 2 + 1)))
        got = [2] * (lo <= 2 <= hi) + list(itertools.compress(range(lo | 1, hi + 1, 2), mask))
        assert all(type(p) is int for p in got)
        assert got == [p for p in expected if lo <= p <= hi], (lo, hi)


FIRST_THOUSAND = numerics.first_primes(1000)


@pytest.mark.parametrize("segment", [1, 2, 7, 97, 4096])
def test_sieve_range_reads_every_segment(segment, monkeypatch):
    """With segments of a few numbers, windows cross many segment edges,
    start and end on even and odd numbers, and hold 0, 1 and 2."""
    expected = naive_sieve(20_000)
    windows = [(lo, lo + span) for lo in range(0, 12) for span in range(0, 30)]
    windows += [(lo, lo + span) for lo in range(max(segment - 3, 0), 19_000, 1999) for span in (0, 1, 2, 7, 97, 1000)]
    windows += [(0, 20_000), (segment, 3 * segment + 1)]
    monkeypatch.setattr(numerics, "_SEGMENT", segment)
    for lo, hi in windows:
        assert numerics.sieve_range(lo, hi) == [p for p in expected if lo <= p <= hi], (lo, hi)
    assert numerics.first_primes(1000) == FIRST_THOUSAND == expected[:1000]


def test_sieve_high_segment():
    primes = numerics.sieve_range(10**9, 10**9 + 1000)
    assert primes[0] == 1000000007
    for p in primes:
        assert numerics.is_probable_prime(p, 32)


def test_sieve_range_errors():
    with pytest.raises(ParameterError):
        numerics.sieve_range(10, 2)
    with pytest.raises(RangeTooLargeError):
        numerics.sieve_range(0, (1 << 28) + 1)
    with pytest.raises(RangeTooLargeError):
        numerics.sieve_range((1 << 40) + 1, (1 << 40) + 2)


# --- modular arithmetic ----------------------------------------------------


def test_modular_examples():
    assert numerics.mod_pow(2, 10, 1000) == 24
    assert numerics.mod_pow(7, 0, 1) == 0
    with pytest.raises(ParameterError):
        numerics.mod_pow(2, 10, 0)
    with pytest.raises(ParameterError):
        numerics.mod_pow(3, -1, 10)


@given(st.integers(0, 1 << 128), st.integers(0, 1 << 32), st.integers(1, 1 << 64))
@settings(max_examples=300)
def test_mod_pow_matches_builtin(base, exponent, modulus):
    assert numerics.mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)


def test_first_primes():
    assert numerics.first_primes(0) == []
    assert numerics.first_primes(5) == [2, 3, 5, 7, 11]
    assert len(numerics.first_primes(100)) == 100
    assert numerics.first_primes(199_999)[-1] == 2_750_131


def test_prime_bound_lies_above_every_prime_to_two_million():
    primes = naive_sieve(2_000_000)
    assert len(primes) == 148_933
    for n, p in enumerate(primes, 1):
        assert p < numerics._prime_bound(n), n
    assert [numerics.first_primes(n) for n in range(8)] == [primes[:n] for n in range(8)]


def test_first_primes_sieves_once(monkeypatch):
    """1,700,000 primes run past 16 * count, where a doubling window sieved twice."""
    sieve, depth, top_level = numerics.sieve_range, [0], []

    def traced(lo, hi):
        if not depth[0]:
            top_level.append((lo, hi))
        depth[0] += 1
        try:
            return sieve(lo, hi)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numerics, "sieve_range", traced)
    primes = numerics.first_primes(1_700_000)
    assert top_level == [(0, 28_916_354)]
    assert len(primes) == 1_700_000 and primes[-1] == 27_290_279


def test_first_primes_refuses_a_count_past_the_sieve_span(wall_clock):
    with wall_clock(1):
        with pytest.raises(RangeTooLargeError, match="first 100000000 primes"):
            numerics.first_primes(100_000_000)


def test_prime_factors_and_euler_phi_match_brute_force():
    for n in range(1, 400):
        factors = numerics.prime_factors(n)
        assert factors == [p for p in range(2, n + 1) if n % p == 0 and numerics.is_probable_prime(p)]
        assert numerics.euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    with pytest.raises(ParameterError):
        numerics.prime_factors(0)
