"""Empirical prime-pair density counts.

Two readings of "a pair" are exposed deliberately: census_pairs counts
consecutive prime pairs (p, next prime) and census_progression counts all
pairs p < q in prescribed residue classes.  Both decide the proximity
predicate |q - p| < gamma*sqrt(p*q) in exact integer arithmetic.

Both read the range from one segment stream (_segments): one list of
base primes up to sqrt(hi), one zero buffer, and per _SEGMENT block a
bytearray with one byte per odd number, 1 where it is prime.  The module
runs on the standard library alone; the range is never held as Python
ints.

For fixed p the predicate holds exactly for 0 < q - p <= G(p), and the
threshold gap G(p) is an integer square root away (_max_gap), never
falling as p grows.  So neither census tests pairs one by one.
census_pairs counts primes with mask.count(1) and counts the failing
pairs: a pair fails when at least G(p)//2 zero bytes follow p, so
mask.find jumps from one such run to the next, G recomputed at each, and
once G//2 has reached its value at the segment's last prime, one
mask.count finds the rest.  census_progression reads each residue class
as a strided slice of the mask into an array('q'), then counts each
class-a p's partners in (p, p + G(p)] with one merge walk over the
class-b primes; G(p) starts from the previous p's G, so most p need one
comparison and no square root.  Both stay exact.

reference_density is gamma * x / ln(x)^2 at x = range_hi with the natural
logarithm (the analytic convention); the ratio column is reported for
inspection and never asserted against a threshold.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError, RangeTooLargeError
from .numerics import _base_primes, _odd_mask, _zero_buffer

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
    """G(p): the largest g >= 0 with _proximate(p, p + g, gamma) for p >= 1."""
    return _max_gap_of(gamma)(p)


def _max_gap_of(gamma: Fraction):
    """max_gap(p, at_least=0) = G(p) for one gamma, its squares computed once.

    The predicate holds for the gaps 0..G(p) and no others, so when
    at_least <= G(p) is known, one test of the gap at_least + 1 tells
    whether G(p) is at_least, with no square root.

    With a = den^2 and b = num^2*p the predicate reads a*g^2 - b*g - b*p < 0,
    true from g = 0 up to the root r = (b + sqrt(D)) / 2a, D = b^2 + 4*a*b*p,
    which is linear in p.  b + sqrt(D) lies in [b + isqrt(D), b + isqrt(D) + 1)
    and no multiple of 2a lies strictly inside that, so flooring the square
    root first still gives floor(r).  G(p) is floor(r), or one less when r
    is an integer: when D is a perfect square s^2 and 2a divides b + s.
    """
    a = gamma.denominator * gamma.denominator
    c = gamma.numerator * gamma.numerator

    def max_gap(p: int, at_least: int = 0) -> int:
        if a * (at_least + 1) ** 2 >= c * p * (p + at_least + 1):
            return at_least
        b = c * p
        d = b * b + 4 * a * b * p
        s = math.isqrt(d)
        g, rem = divmod(b + s, 2 * a)
        return g - 1 if s * s == d and rem == 0 else g

    return max_gap


def _segments(lo: int, hi: int):
    """(lo|1, mask, buffer) per _SEGMENT block of [lo, hi]: mask[i] is 1
    when the odd number (lo|1) + 2*i is prime (numerics._odd_mask), and 2
    is left to the caller.  One list of base primes and one zero buffer
    serve every block; buffer[:n + 1], a 1 and n zeros, is the needle for a
    run of n zeros, for any n below the mask's length."""
    base = _base_primes(hi)
    buffer = _zero_buffer(min(_SEGMENT, hi - lo + 1) - 1)
    for start in range(lo, hi + 1, _SEGMENT):
        yield start | 1, _odd_mask(start, min(start + _SEGMENT - 1, hi), base, buffer), buffer


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

    max_gap = _max_gap_of(gamma)
    prev: Optional[int] = 2 if lo <= 2 <= hi else None  # the masks hold odd numbers only
    prime_count = 0 if prev is None else 1
    failures = gap = 0
    for odd, mask, needles in _segments(lo, hi):
        i = mask.find(1)
        if i < 0:
            continue
        if prev is not None and not _proximate(prev, odd + 2 * i, gamma):
            failures += 1
        # The pair from p = odd + 2*i fails when its gap exceeds G(p), that is
        # when at least G(p)//2 zero bytes follow mask[i].  G never falls as p
        # grows, so each failure lies at or after the first such run for the
        # current p.  Those runs are settled one by one, G recomputed at each,
        # until G//2 reaches its value at the segment's last prime; from there
        # every such run is a failure but the one that ends the segment.
        end, last = len(mask), mask.rfind(1)
        final = max_gap(odd + 2 * last) // 2
        while True:
            gap = max_gap(odd + 2 * i, gap)
            run = gap // 2
            if run >= end - i:
                break
            needle = needles[: run + 1]
            if run == final:
                failures += mask.count(needle, i) - (end - 1 - last >= run)
                break
            i = mask.find(needle, i)
            j = mask.find(1, i + 1) if i >= 0 else -1
            if j < 0:
                break
            if not _proximate(odd + 2 * i, odd + 2 * j, gamma):
                failures += 1
            i = j
        prime_count += mask.count(1)
        prev = odd + 2 * last
    pair_count = max(prime_count - 1, 0) - failures
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

    res_a, res_b = res_a % modulus, res_b % modulus
    # The odd members of a class are modulus apart when modulus is even and
    # 2*modulus apart when it is odd: stride bytes apart in the mask.
    stride = modulus // 2 if modulus % 2 == 0 else modulus
    prime_count = 0
    in_a, in_b = array("q"), array("q")
    if lo <= 2 <= hi:
        prime_count = 1
        for members, r in ((in_a, res_a), (in_b, res_b)):
            if 2 % modulus == r:
                members.append(2)
    for odd, mask, _ in _segments(lo, hi):
        prime_count += mask.count(1)
        for members, r in ((in_a, res_a), (in_b, res_b)):
            first = odd + (r - odd) % modulus
            if first % 2 == 0:
                first += modulus
            cells = mask[(first - odd) // 2 :: stride]
            members.extend(itertools.compress(range(first, first + 2 * stride * len(cells), 2 * stride), cells))

    # The partners of p in class b are the q in (p, p + G(p)]; both ends
    # rise with p, so one walk over in_b counts them all.  G(p) starts from
    # the previous p's G, and once p + G(p) passes the last q, no later G
    # is needed.
    max_gap = _max_gap_of(gamma)
    pair_count = above = upto = gap = 0
    size_b = len(in_b)
    for p in in_a:
        while above < size_b and in_b[above] <= p:
            above += 1
        if upto < size_b:
            gap = max_gap(p, gap)
            while upto < size_b and in_b[upto] <= p + gap:
                upto += 1
        pair_count += upto - above
    return _report(
        lo, hi, gamma, prime_count, pair_count,
        modulus=modulus, residue_a=res_a, residue_b=res_b,
        primes_in_class_a=len(in_a), primes_in_class_b=len(in_b),
    )
