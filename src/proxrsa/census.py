"""Empirical prime-pair density counts.

Two readings of "a pair" are exposed deliberately: census_pairs counts
consecutive prime pairs (p, next prime) and census_progression counts all
pairs p < q in prescribed residue classes.  Both decide the proximity
predicate |q - p| < gamma*sqrt(p*q) in exact integer arithmetic.

Both read the primes of the range from one segment stream (_segments):
one list of base primes up to sqrt(hi), then one numpy sieve array per
_SEGMENT block, so the range is never held as Python ints.

For fixed p the predicate holds exactly for 0 < q - p <= G(p), and the
threshold gap G(p) is an integer square root away (_max_gap), never
falling as p grows.  So neither census tests pairs one by one.
census_pairs finds, per segment, the first p whose G reaches the
segment's widest gap; every pair from there on passes, and before it
only the gaps between G(first) and G(last) are tested.
census_progression keeps the class-a primes, their exact limits
p + G(p) as int64 and the class-b primes, and after the last segment
counts each p's partners in (p, p + G(p)] with two np.searchsorted
calls.  Both cost O(n log n) in the n primes of the range and stay exact.

reference_density is gamma * x / ln(x)^2 at x = range_hi with the natural
logarithm (the analytic convention); the ratio column is reported for
inspection and never asserted against a threshold.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError, RangeTooLargeError
from .numerics import _base_primes, _segment_primes

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
        """The report's fields in schema order, gamma written as "num/den"."""
        return dict(asdict(self), gamma=f"{self.gamma.numerator}/{self.gamma.denominator}")


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
    is an integer: when D is a perfect square s^2 and 2a divides b + s.
    """
    a = gamma.denominator * gamma.denominator
    b = gamma.numerator * gamma.numerator * p
    d = b * b + 4 * a * b * p
    s = math.isqrt(d)
    g, rem = divmod(b + s, 2 * a)
    return g - 1 if s * s == d and rem == 0 else g


def _segments(lo: int, hi: int):
    """The primes in [lo, hi] as ascending numpy int64 arrays, one per
    _SEGMENT block (possibly empty), from one list of base primes."""
    base = _base_primes(hi)
    for start in range(lo, hi + 1, _SEGMENT):
        yield _segment_primes(start, min(start + _SEGMENT - 1, hi), base)


def _report(lo: int, hi: int, gamma: Fraction, prime_count: int, pair_count: int, **classes) -> CensusReport:
    reference = float(gamma) * hi / math.log(hi) ** 2 if hi >= 3 else 0.0
    return CensusReport(
        range_lo=lo,
        range_hi=hi,
        gamma=gamma,
        prime_count=prime_count,
        pair_count=pair_count,
        empirical_density=pair_count / (hi - lo + 1),
        reference_density=reference,
        ratio=pair_count / reference if reference > 0 else None,
        **classes,
    )


def census_pairs(lo: int, hi: int, gamma: Fraction) -> CensusReport:
    """Count consecutive prime pairs in [lo, hi] passing the proximity test."""
    _check_range(lo, hi)
    _check_gamma(gamma)

    import numpy as np

    prime_count = 0
    pair_count = 0
    prev: Optional[int] = None
    for primes in _segments(lo, hi):
        if not len(primes):
            continue
        first, last = int(primes[0]), int(primes[-1])
        if prev is not None and _proximate(prev, first, gamma):
            pair_count += 1
        # G never falls as p grows, so every pair from the first p whose G
        # reaches the widest gap on passes.  Before that cut, every gap up to
        # G(first) passes and every gap beyond G(last) fails.
        gaps = np.diff(primes)
        cut = bisect.bisect_left(
            primes, int(gaps.max(initial=0)), hi=len(gaps), key=lambda p: _max_gap(int(p), gamma)
        )
        head = gaps[:cut]
        g_first, g_last = _max_gap(first, gamma), _max_gap(last, gamma)
        pair_count += len(gaps) - cut + int(np.count_nonzero(head <= g_first))
        between = np.flatnonzero((head > g_first) & (head <= g_last))
        for p, q in zip(primes[between].tolist(), primes[between + 1].tolist()):
            if _proximate(p, q, gamma):
                pair_count += 1
        prime_count += len(primes)
        prev = last
    return _report(lo, hi, gamma, prime_count, pair_count)


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

    import numpy as np

    res_a, res_b = res_a % modulus, res_b % modulus
    # Every prime is at most hi, so reducing it modulo hi + 1 instead of a
    # larger modulus changes nothing and keeps the divisor within int64.
    divisor = min(modulus, hi + 1)
    prime_count = 0
    in_a, in_b, limits = [], [], []
    for primes in _segments(lo, hi):
        prime_count += len(primes)
        residues = primes % divisor
        in_a.append(primes[residues == res_a])
        in_b.append(primes[residues == res_b])
        # p + G(p) < 5.83*p < 2^63 for gamma < 2, so the exact limit fits.
        limits.append(np.fromiter((p + _max_gap(p, gamma) for p in in_a[-1].tolist()), np.int64, len(in_a[-1])))
    in_a, in_b = np.concatenate(in_a), np.concatenate(in_b)

    # The partners of p in class b are the q in (p, p + G(p)].
    pair_count = int(np.searchsorted(in_b, np.concatenate(limits), side="right").sum())
    pair_count -= int(np.searchsorted(in_b, in_a, side="right").sum())
    return _report(
        lo, hi, gamma, prime_count, pair_count,
        modulus=modulus, residue_a=res_a, residue_b=res_b,
        primes_in_class_a=len(in_a), primes_in_class_b=len(in_b),
    )
