"""Empirical prime-pair density counts.

Two readings of "a pair" are exposed deliberately: census_pairs counts
consecutive prime pairs (p, next prime) and census_progression counts all
pairs p < q in prescribed residue classes.  Both decide the proximity
predicate |q - p| < gamma*sqrt(p*q) in exact integer arithmetic.

For fixed p the predicate holds exactly for 0 < q - p <= G(p), and the
threshold gap G(p) is an integer square root away (_max_gap), growing
with p.  So neither census tests pairs one by one: census_pairs counts
the gaps of each sieve segment against G at the segment's two ends and
tests only the gaps between those two thresholds, and census_progression
counts each p's partners with two bisections.  Both cost O(n log n) in
the n primes of the range and stay exact.

reference_density is gamma * x / ln(x)^2 at x = range_hi with the natural
logarithm (the analytic convention); the ratio column is reported for
inspection and never asserted against a threshold.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError, RangeTooLargeError
from .keygen import default_gamma
from .numerics import _base_primes, _segment_primes, sieve_range

_SEGMENT = 1 << 24
_MAX_HI = 1 << 40
_MAX_PROGRESSION_SPAN = 1 << 26


@dataclass
class CensusReport:
    range_lo: int
    range_hi: int
    gamma: Fraction
    prime_count: int
    pair_count: int
    empirical_density: float
    reference_density: float
    ratio: Optional[float]
    modulus: Optional[int] = None
    residue_a: Optional[int] = None
    residue_b: Optional[int] = None
    primes_in_class_a: Optional[int] = None
    primes_in_class_b: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "range_lo": self.range_lo,
            "range_hi": self.range_hi,
            "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}",
            "prime_count": self.prime_count,
            "pair_count": self.pair_count,
            "empirical_density": self.empirical_density,
            "reference_density": self.reference_density,
            "ratio": self.ratio,
            "modulus": self.modulus,
            "residue_a": self.residue_a,
            "residue_b": self.residue_b,
            "primes_in_class_a": self.primes_in_class_a,
            "primes_in_class_b": self.primes_in_class_b,
        }


def _check_range(lo: int, hi: int) -> None:
    if lo < 0 or hi < 0:
        raise ParameterError("bounds must be non-negative")
    if lo > hi:
        raise ParameterError("lo must not exceed hi")
    if hi > _MAX_HI:
        raise RangeTooLargeError(f"hi exceeds 2^40 budget: {hi}")


def _check_gamma(gamma: Fraction) -> None:
    if not 0 < gamma < 2:
        raise ParameterError(f"gamma must lie in (0, 2): {gamma}")


def _proximate(p: int, q: int, gamma: Fraction) -> bool:
    num, den = gamma.numerator, gamma.denominator
    return den * den * (q - p) * (q - p) < num * num * p * q


def _max_gap(p: int, gamma: Fraction) -> int:
    """G(p): the largest g >= 0 with _proximate(p, p + g, gamma) for p >= 1.

    With a = den^2 and b = num^2*p the predicate reads a*g^2 - b*g - b*p < 0,
    true from g = 0 up to the root r = (b + sqrt(D)) / 2a, D = b^2 + 4*a*b*p,
    which is linear in p.  b + sqrt(D) lies in [b + isqrt(D), b + isqrt(D) + 1)
    and no multiple of 2a lies strictly inside that, so flooring the square
    root first still gives floor(r).  G(p) is floor(r), or one less when r
    is an integer, and _proximate settles which.
    """
    a = gamma.denominator * gamma.denominator
    b = gamma.numerator * gamma.numerator * p
    g = (b + math.isqrt(b * b + 4 * a * b * p)) // (2 * a)
    if g > 0 and not _proximate(p, p + g, gamma):
        return g - 1
    return g


def _reference(gamma: Fraction, hi: int) -> float:
    if hi < 3:
        return 0.0
    return float(gamma) * hi / math.log(hi) ** 2


def census_pairs(lo: int, hi: int, gamma: Fraction) -> CensusReport:
    """Count consecutive prime pairs in [lo, hi] passing the proximity test."""
    _check_range(lo, hi)
    _check_gamma(gamma)

    import numpy as np

    base = _base_primes(hi)
    prime_count = 0
    pair_count = 0
    prev: Optional[int] = None
    for start in range(lo, hi + 1, _SEGMENT):
        primes = _segment_primes(start, min(start + _SEGMENT - 1, hi), base)
        if not len(primes):
            continue
        first, last = int(primes[0]), int(primes[-1])
        if prev is not None and _proximate(prev, first, gamma):
            pair_count += 1
        # Every gap up to G(first) passes, every gap beyond G(last) fails.
        gaps = np.diff(primes)
        g_first, g_last = _max_gap(first, gamma), _max_gap(last, gamma)
        pair_count += int(np.count_nonzero(gaps <= g_first))
        between = np.flatnonzero((gaps > g_first) & (gaps <= g_last))
        for p, q in zip(primes[between].tolist(), primes[between + 1].tolist()):
            if _proximate(p, q, gamma):
                pair_count += 1
        prime_count += len(primes)
        prev = last

    reference = _reference(gamma, hi)
    return CensusReport(
        range_lo=lo,
        range_hi=hi,
        gamma=gamma,
        prime_count=prime_count,
        pair_count=pair_count,
        empirical_density=pair_count / (hi - lo + 1),
        reference_density=reference,
        ratio=pair_count / reference if reference > 0 else None,
    )


def census_progression(
    lo: int, hi: int, gamma: Fraction, modulus: int, res_a: int, res_b: int
) -> CensusReport:
    """Count pairs p < q with p == res_a, q == res_b (mod modulus) and
    |q - p| < gamma*sqrt(p*q); pairs need not be consecutive."""
    _check_range(lo, hi)
    _check_gamma(gamma)
    if modulus < 1:
        raise ParameterError("modulus must be >= 1")
    for r in (res_a, res_b):
        if math.gcd(r, modulus) != 1:
            raise ParameterError(f"gcd({r}, {modulus}) != 1")
    if hi - lo > _MAX_PROGRESSION_SPAN:
        raise RangeTooLargeError("progression census range capped at 2^26")

    primes = sieve_range(lo, hi)
    in_a = [p for p in primes if p % modulus == res_a % modulus]
    in_b = [p for p in primes if p % modulus == res_b % modulus]

    # The partners of p in class b are the q in (p, p + G(p)].
    pair_count = 0
    for p in in_a:
        pair_count += bisect.bisect_right(in_b, p + _max_gap(p, gamma)) - bisect.bisect_right(in_b, p)

    reference = _reference(gamma, hi)
    return CensusReport(
        range_lo=lo,
        range_hi=hi,
        gamma=gamma,
        prime_count=len(primes),
        pair_count=pair_count,
        empirical_density=pair_count / (hi - lo + 1),
        reference_density=reference,
        ratio=pair_count / reference if reference > 0 else None,
        modulus=modulus,
        residue_a=res_a % modulus,
        residue_b=res_b % modulus,
        primes_in_class_a=len(in_a),
        primes_in_class_b=len(in_b),
    )


GAMMA_RULES = ("fixed", "sqrt_eps", "log_over_sqrt")


def gamma_for_rule(rule: str, k: int, fixed: Optional[Fraction], epsilon: float) -> Fraction:
    if rule == "fixed":
        if fixed is None:
            raise ParameterError("fixed gamma rule needs a gamma value")
        return fixed
    if rule == "sqrt_eps":
        return default_gamma(k, epsilon)
    if rule == "log_over_sqrt":
        return Fraction(math.log(k) / math.sqrt(k)).limit_denominator(1 << 32)
    raise ParameterError(f"unknown gamma rule {rule!r}; choose from {GAMMA_RULES}")


def density_sweep(
    bit_sizes: list[int],
    gamma_rule: str = "fixed",
    fixed_gamma: Optional[Fraction] = None,
    epsilon: float = 0.1,
) -> list[CensusReport]:
    """One census_pairs report per bit size b over [2^(b-1), 2^b]."""
    reports = []
    for b in bit_sizes:
        if not 2 <= b <= 40:
            raise ParameterError(f"bit sizes must lie in [2, 40]: {b}")
        gamma = gamma_for_rule(gamma_rule, b, fixed_gamma, epsilon)
        reports.append(census_pairs(1 << (b - 1), 1 << b, gamma))
    return reports
