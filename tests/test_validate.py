"""The validator's own checks: its Baillie-PSW primality test against the
sieve and known pseudoprimes, its entropy budget, decided exactly,
against mpmath oracles, and every failure it can report, each from a
golden key with one edit."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from proxrsa import keyfile, numerics, validate
from proxrsa.errors import NumericalError

KEYS = Path(__file__).parent / "data" / "keys"
GOLDEN_PRIMES = sorted({
    int(p, 16)
    for path in KEYS.glob("*.json")
    for field in ("primes", "inner_primes")
    for p in json.loads(path.read_text())[field] or []
})


def test_primality_agrees_with_the_sieve_below_200000():
    primes = set(numerics.sieve_range(0, 200_000))
    assert [n for n in range(200_000) if validate._probably_prime(n) != (n in primes)] == []


@pytest.mark.parametrize(
    "n",
    [
        2047, 3277, 4033, 4681, 8321,  # strong pseudoprimes to base 2
        5459, 5777, 10877, 16109, 18971,  # strong Lucas pseudoprimes
        561, 1105, 41041,  # Carmichael numbers
        3317044064679887385961981,  # strong pseudoprime to every prime base up to 41
        1009**2, (2**61 - 1) ** 2,  # squares
        1093**2, 3511**2,  # squares of Wieferich primes: strong pseudoprimes to base 2
        2**523 - 1, (2**521 - 1) * (2**127 - 1),
    ],
    ids=lambda n: str(n) if n < 10**30 else f"{n.bit_length()}-bit",
)
def test_primality_rejects_composites(n, wall_clock):
    # a square that passed base 2 would never end the search for D
    with wall_clock(5):
        assert not validate._probably_prime(n)


def test_primality_accepts_primes():
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for n in [*small, 2**521 - 1, 2**607 - 1, *GOLDEN_PRIMES]:
        assert validate._probably_prime(n), n


def test_primality_of_a_1536_bit_prime_takes_under_a_second(wall_clock):
    prime = max(p for p in GOLDEN_PRIMES if p.bit_length() <= 1536)  # the k = 3072 key's
    assert prime.bit_length() == 1536
    with wall_clock(1):
        assert validate._probably_prime(prime)


def budget_holds_192(p, q, gamma, beta):
    """H2 < beta*log2(1/gamma) as the validator once computed it: mpmath at
    192 bits.  It agrees with the exact gate wherever 192 bits separate the
    pair from the threshold, which holds one unit away for 64-bit primes."""
    with mp.workprec(192):
        delta = mpf(abs(p - q)) / mp.sqrt(mpf(p) * mpf(q))
        purity = (1 + mp.sqrt(1 - 4 * delta**2 / (2 + delta) ** 2)) / 2
        h2 = -mp.log(purity, 2)
        budget = mpf(beta) * mp.log(mpf(gamma.denominator) / mpf(gamma.numerator), 2)
        return h2 < budget


def threshold_gap(p, gamma, beta, bits):
    """The largest g with H2 < budget at (p, p + g), or None when every gap
    passes (gamma^beta <= 1/2), from the closed form at `bits` bits.

    The budget holds iff delta < d* = 2w/(2 - w), w = sqrt(1 - (2x - 1)^2),
    x = gamma^beta, that is iff g^2 < D*p*(p + g) with D = d*^2.
    """
    with mp.workprec(bits):
        x = (mpf(gamma.numerator) / gamma.denominator) ** mpf(beta)
        if x <= 0.5:
            return None
        w = mp.sqrt(1 - (2 * x - 1) ** 2)
        d2 = (2 * w / (2 - w)) ** 2
        root = p * (d2 + mp.sqrt(d2 * d2 + 4 * d2)) / 2
        g = int(mp.ceil(root)) - 1
        # g passes and g + 1 fails, each by far more than the working precision
        assert g * g < d2 * p * (p + g) and (g + 1) ** 2 > d2 * p * (p + g + 1)
        return g


@pytest.mark.parametrize("p", [2**31 - 1, (1 << 64) + 13, 3 << 254, (1 << 1023) + 1])
def test_budget_gate_splits_the_pairs_one_unit_either_side_of_the_threshold(p):
    gamma, beta = Fraction(9, 10), 0.1  # x = 0.9895..., d* = 0.2266...: the budget binds
    g = threshold_gap(p, gamma, beta, bits=8192)
    assert g is not None and 0 < g * 10 < 9 * p  # inside the proximity bound
    assert validate._entropy_constraint_ok(p, p + g, gamma, beta)
    assert validate._entropy_constraint_ok(p + g, p, gamma, beta)
    assert not validate._entropy_constraint_ok(p, p + g + 1, gamma, beta)
    assert not validate._entropy_constraint_ok(p + g + 1, p, gamma, beta)


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(2, 1 << 64),
    gamma_num=st.integers(1, 999),
    beta=st.floats(1e-4, 1 - 1e-9),
    near=st.booleans(),
    offset=st.integers(-3, 3),
    spread=st.floats(0, 1),
)
def test_budget_gate_matches_the_192_bit_formula(p, gamma_num, beta, near, offset, spread):
    gamma = Fraction(gamma_num, 1000)
    g = threshold_gap(p, gamma, beta, bits=512) if near else None
    g = int(spread * gamma * p) + 1 if g is None else g + offset
    q = p + g
    # the validator asks only about pairs inside the exact proximity bound
    assume(g > 0 and gamma.denominator**2 * g * g < gamma.numerator**2 * p * q)
    assert validate._entropy_constraint_ok(p, q, gamma, beta) == budget_holds_192(p, q, gamma, beta)


@pytest.mark.parametrize(
    "beta, holds",
    [(0.0, False), (-1.0, False), (float("-inf"), False), (float("nan"), False),
     (5.0, True), (float("inf"), True), (1e308, True), (5e-324, False)],
)
def test_budget_gate_takes_any_beta(beta, holds):
    """Outside (0, 1) the verdict is still that of H2 < beta*log2(1/gamma)."""
    p, q, gamma = 1000003, 1000033, Fraction(1, 4)
    assert validate._entropy_constraint_ok(p, q, gamma, beta) is holds
    if beta == beta:  # mpmath has no verdict to give for NaN
        assert budget_holds_192(p, q, gamma, beta) is holds


def test_budget_gate_raises_when_no_bracket_decides():
    # 1 - gamma^beta is about 5e-3324, below what 2560 digits resolve, and
    # the pair's delta^2 of about 1e-2600 lies inside every bracket
    p = 10**1300
    gamma = Fraction(10**3000 - 1, 10**3000)
    with pytest.raises(NumericalError, match="undecided"):
        validate._entropy_constraint_ok(p, p + 1, gamma, 5e-324)


# --- every failure the validator reports -------------------------------------

STANDARD = "keygen-k512-seed00.json"
MULTIPRIME = "keygen-multi-m3-k96-seed00.json"
COMPATIBLE = "keygen-compat-shift40-k512-seed00.json"  # inner primes 216 bits wide, shift 40


def with_primes(kp, primes):
    """kp with other primes, N and d recomputed from them."""
    phi = math.prod(p - 1 for p in primes)
    return kp._replace(primes=primes, n=math.prod(primes), d=pow(kp.e, -1, phi))


def next_prime(n, residue=1, modulus=2):
    """The first prime at or above n that is == residue (mod modulus)."""
    n += (residue - n) % modulus
    while not numerics.is_probable_prime(n):
        n += modulus
    return n


def unrelated_outer(kp):
    """Outer primes near 2^255 and 3*2^254 that do not end in the inner primes."""
    return with_primes(kp, [next_prime(1 << 255), next_prime(3 << 254)])


def close_outer(kp):
    """An outer partner of the right low bits, as close to p' as they allow."""
    p, q = kp.primes[0], kp.inner_primes[1]
    return with_primes(kp, [p, next_prime(p + 1, q, 1 << 40)])


TINY_GAMMA = Fraction(1, 1 << 600)  # below every golden pair's delta
FAILURES = [
    (STANDARD, lambda kp: kp._replace(variant="twin"), "unknown variant 'twin'"),
    (COMPATIBLE, lambda kp: kp._replace(inner_primes=None), "compatible key is missing inner primes"),
    (STANDARD, lambda kp: kp._replace(primes=kp.primes[:1]), "fewer than two primes (or inner primes) listed"),
    (STANDARD, lambda kp: kp._replace(inner_primes=[3, 5]), "standard key lists inner primes"),
    (MULTIPRIME, lambda kp: kp._replace(inner_primes=[3, 5]), "multiprime key lists inner primes"),
    (STANDARD, lambda kp: kp._replace(primes=[*kp.primes, 3]), "standard key must hold exactly two primes"),
    (MULTIPRIME, lambda kp: kp._replace(primes=kp.primes[:2]), "multiprime key must hold at least three primes"),
    (COMPATIBLE, lambda kp: kp._replace(primes=[*kp.primes, 3]), "compatible key must hold exactly two primes"),
    (STANDARD, lambda kp: kp._replace(n=kp.n + 2), "N != product of primes"),
    (STANDARD, lambda kp: kp._replace(primes=kp.primes[:1] * 2), "listed primes are not distinct"),
    (COMPATIBLE, lambda kp: kp._replace(inner_primes=kp.inner_primes[:1] * 2), "listed primes are not distinct"),
    (STANDARD, lambda kp: kp._replace(primes=[kp.primes[0], 15]), "composite prime entry 15"),
    (COMPATIBLE, lambda kp: kp._replace(inner_primes=[kp.inner_primes[0], 15]), "composite inner prime 15"),
    (STANDARD, lambda kp: kp._replace(e=1, d=1 + math.prod(p - 1 for p in kp.primes)), "public exponent e = 1 is below 3"),
    (STANDARD, lambda kp: kp._replace(e=kp.primes[0] - 1), "gcd(e, phi) != 1"),
    (STANDARD, lambda kp: kp._replace(d=kp.d + 2), "e*d != 1 (mod phi)"),
    (STANDARD, lambda kp: kp._replace(d=3), "private exponent below d^10 > N^3 floor"),
    (STANDARD, lambda kp: kp._replace(m_modulus=1), "congruence modulus M = 1 is below 2"),
    (STANDARD, lambda kp: kp._replace(residues=[*kp.residues, 1]), "residue list length mismatch"),
    (STANDARD, lambda kp: kp._replace(residues=kp.residues[::-1]), "prime[0] not congruent to its residue mod M"),
    (STANDARD, lambda kp: kp._replace(residues=kp.residues[:1] * 2), "residues are not pairwise distinct mod M"),
    (STANDARD, lambda kp: kp._replace(m_modulus=9), "congruence modulus M is not a product of the first primes"),
    (
        STANDARD,
        lambda kp: kp._replace(residues=[kp.residues[0], (kp.residues[0] + 3) % kp.m_modulus]),
        "residues collide modulo factor 3 of M",
    ),
    (STANDARD, lambda kp: kp._replace(beta=1.5), "beta outside (0, 1): 1.5"),
    (STANDARD, lambda kp: kp._replace(k=8), "key size k = 8 is below 16"),
    (STANDARD, lambda kp: kp._replace(k=513), "key size k = 513 is not an even integer in [16, 8192]"),
    (STANDARD, lambda kp: kp._replace(gamma=Fraction(2)), "gamma outside (0, 1): 2"),
    (STANDARD, lambda kp: kp._replace(gamma=TINY_GAMMA), "prime pair violates exact proximity bound"),
    (STANDARD, lambda kp: kp._replace(beta=5e-324), "prime pair violates entropy budget"),
    (MULTIPRIME, lambda kp: kp._replace(gamma=TINY_GAMMA), "prime cluster violates exact pairwise proximity"),
    (COMPATIBLE, lambda kp: kp._replace(gamma=TINY_GAMMA), "inner pair violates exact proximity bound"),
    (COMPATIBLE, lambda kp: kp._replace(beta=5e-324), "inner pair violates entropy budget"),
    (
        COMPATIBLE,
        lambda kp: kp._replace(inner_primes=[kp.inner_primes[0], 3]),
        "inner primes have unequal widths; shift is ambiguous",
    ),
    (COMPATIBLE, lambda kp: kp._replace(k=2 * 216), "inner primes too wide for any positive shift"),
    (COMPATIBLE, unrelated_outer, "outer primes do not end in their inner primes (mod 2^shift)"),
    (COMPATIBLE, close_outer, "outer gap below 2^(k/2 - shift)"),
    (COMPATIBLE, close_outer, "outer gap within Fermat-factoring reach (|p'-q'|^4 <= N)"),
]


@pytest.mark.parametrize("name, edit, failure", FAILURES, ids=[row[2] for row in FAILURES])
def test_each_failure_is_reported_for_a_golden_key_with_one_edit(name, edit, failure):
    kp = keyfile.read_key_file(KEYS / name)
    assert validate.validate_key(kp) == []
    assert failure in validate.validate_key(edit(kp))


@pytest.mark.parametrize(
    "name, edit, failure",
    [
        (STANDARD, lambda kp: kp._replace(inner_primes=[3, 5]), "standard key lists inner primes"),
        (COMPATIBLE, unrelated_outer, "outer primes do not end in their inner primes (mod 2^shift)"),
        (
            STANDARD,
            lambda kp: kp._replace(e=1, d=1 + math.prod(p - 1 for p in kp.primes)),
            "public exponent e = 1 is below 3",
        ),
    ],
    ids=["inner primes on a standard key", "unrelated outer primes", "e = 1"],
)
def test_a_fact_the_generator_guarantees_is_the_one_failure_of_a_key_without_it(name, edit, failure):
    """Each edit keeps every other invariant, so its failure is the only one."""
    assert validate.validate_key(edit(keyfile.read_key_file(KEYS / name))) == [failure]


def test_a_layered_key_reports_its_outer_faults_whatever_gamma_is():
    kp = close_outer(keyfile.read_key_file(KEYS / COMPATIBLE))._replace(gamma=Fraction(2))
    assert validate.validate_key(kp) == [
        "gamma outside (0, 1): 2",
        "outer gap below 2^(k/2 - shift)",
        "outer gap within Fermat-factoring reach (|p'-q'|^4 <= N)",
    ]


def test_a_layered_key_with_a_huge_k_is_checked_without_building_2_to_the_shift(wall_clock):
    """k far past 8192 makes the shift huge; 2^shift would not fit in memory."""
    kp = keyfile.read_key_file(KEYS / COMPATIBLE)._replace(k=10**30)
    with wall_clock(5):
        failures = validate.validate_key(kp)
    assert f"key size k = {10**30} is not an even integer in [16, 8192]" in failures
    assert "outer primes do not end in their inner primes (mod 2^shift)" in failures
