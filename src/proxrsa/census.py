"""Empirical prime-pair density counts.

Two readings of "a pair" are exposed deliberately: census_pairs counts
consecutive prime pairs (p, next prime) and census_progression counts all
pairs p < q in prescribed residue classes.  Both decide the proximity
predicate |q - p| < gamma*sqrt(p*q) in exact integer arithmetic.

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
from .numerics import sieve_range

_SEGMENT = 1 << 24
_MAX_HI = 1 << 40


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


def _segmented_primes(lo: int, hi: int):
    start = lo
    while start <= hi:
        end = min(start + _SEGMENT - 1, hi)
        yield from sieve_range(start, end)
        start = end + 1


def _reference(gamma: Fraction, hi: int) -> float:
    if hi < 3:
        return 0.0
    return float(gamma) * hi / math.log(hi) ** 2


def census_pairs(lo: int, hi: int, gamma: Fraction) -> CensusReport:
    """Count consecutive prime pairs in [lo, hi] passing the proximity test."""
    _check_range(lo, hi)
    _check_gamma(gamma)

    prime_count = 0
    pair_count = 0
    prev: Optional[int] = None
    for p in _segmented_primes(lo, hi):
        prime_count += 1
        if prev is not None and _proximate(prev, p, gamma):
            pair_count += 1
        prev = p

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
    if hi - lo > _SEGMENT * 4:
        raise RangeTooLargeError("progression census is all-pairs; range capped at 2^26")

    primes = sieve_range(lo, hi)
    in_a = [p for p in primes if p % modulus == res_a % modulus]
    in_b = [p for p in primes if p % modulus == res_b % modulus]

    num, den = gamma.numerator, gamma.denominator
    pair_count = 0
    for p in in_a:
        start = bisect.bisect_right(in_b, p)
        for q in in_b[start:]:
            if _proximate(p, q, gamma):
                pair_count += 1
            elif 2 * den * den * (q - p) >= num * num * p:
                # Past the vertex of den^2*(q-p)^2 - num^2*p*q and already
                # failing: every later q fails too.
                break

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
