"""Empirical prime-pair density counts.

Two readings of "a pair" are exposed deliberately: census_pairs counts
consecutive prime pairs (p, next prime) and census_progression counts all
pairs p < q in prescribed residue classes.  Both decide the proximity
predicate |q - p| < gamma*sqrt(p*q) in exact integer arithmetic.

Both read the range from numerics.segments, the one sieve loop: per
2^24-number block a bytearray with one byte per odd number, 1 where it
is prime, and a zero buffer whose slices are needles for runs of zeros.
The range check is numerics' own; the plain census has no span cap
beyond the 2^40 bound on hi, and only the progression census caps its
span, at 2^26.  The module runs on the standard library alone; the range
is never held as Python ints.

census_pairs splits its range into one contiguous chunk per CPU this
process may run on, each of at least _MIN_CHUNK numbers.  It counts the
first chunk itself and each other one in a child made with os.fork,
which gets only its bounds and gamma, sieves its own base primes and
writes four ints into its slot of one shared mapping.  Where
os.sched_getaffinity does not exist (macOS, Windows), one chunk holds
the whole range; a chunk no child can be made for is counted
in-process.

For fixed p the predicate holds exactly for 0 < q - p <= G(p), and the
threshold gap G(p) is an integer square root away (_max_gap_of), never
falling as p grows.  So neither census tests pairs one by one.
census_pairs counts primes with mask.count(1) and failing pairs per
segment; one fold (_joined) sums segments, then chunks, deciding the pair
across each boundary and passing over a part with no prime, wherever
primes lie.  A pair fails when at least G(p)//2 zero bytes follow p, so
mask.find jumps to the next such run for the current G//2, and when it
follows the current prime, one mask.count counts every such run up to
where G//2 rises (found by bisection).  census_progression reads each
residue class as a strided slice of the mask into an array('q'), then
counts each class-a p's partners in (p, p + G(p)] with one merge walk
over the class-b primes; G(p) starts from the previous p's G, so most p
need one comparison and no square root.  Both stay exact.

reference_density is gamma * x / ln(x)^2 at x = range_hi with the natural
logarithm (the analytic convention); the ratio column is reported for
inspection and never asserted against a threshold.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from array import array
from fractions import Fraction
from typing import NamedTuple, Optional

from . import numerics
from .errors import ParameterError, ProxRsaError, RangeTooLargeError

_MIN_CHUNK = 1 << 22
_MAX_PROGRESSION_SPAN = 1 << 26


class CensusReport(NamedTuple):
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
        return dict(self._asdict(), gamma=f"{self.gamma.numerator}/{self.gamma.denominator}")


def _check_gamma(gamma: Fraction) -> None:
    if not 0 < gamma < 2:
        raise ParameterError(f"gamma must lie in (0, 2): {gamma}")


def _proximate(p: int, q: int, gamma: Fraction) -> bool:
    num, den = gamma.numerator, gamma.denominator
    return den * den * (q - p) * (q - p) < num * num * p * q


def _max_gap_of(gamma: Fraction):
    """max_gap(p, at_least=0) = G(p) for one gamma, its squares computed once.

    G(p) is the largest g >= 0 with _proximate(p, p + g, gamma), for p >= 1.

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


def _joined(parts, gamma: Fraction) -> array:
    """array('q', [primes, failing consecutive pairs, first prime, last
    prime]) of adjoining ranges from those of each, in range order; decides
    the pair across each boundary and passes over a part with no prime."""
    primes = failures = first = last = 0
    for count, fails, start, end in parts:
        if count:
            failures += fails + (last and not _proximate(last, start, gamma))
            primes, first, last = primes + count, first or start, end
    return array("q", [primes, failures, first, last])


def _chunk_counts(lo: int, hi: int, gamma: Fraction) -> array:
    """_joined counts of [lo, hi]: one part per segment, and 2 one of its
    own, as the masks hold odd numbers only.  The segments sieve their own
    base primes, so a chunk needs nothing but its bounds and gamma."""
    max_gap = _max_gap_of(gamma)
    parts = [(1, 0, 2, 2)] if lo <= 2 <= hi else []
    for odd, mask, needles in numerics.segments(lo, hi):
        i, last = mask.find(1), mask.rfind(1)
        if i < 0:
            continue
        first, failures = odd + 2 * i, 0
        # The pair from the prime p = odd + 2*i fails when G(p)//2 zero bytes
        # and then a prime follow mask[i].  G never falls as p grows, so a
        # run after a later prime moves i there, and a run after mask[i]
        # opens a stretch of equal G//2 whose runs all fail.
        while (run := max_gap(odd + 2 * i) // 2) < last - i:
            needle = needles[: run + 1]
            hit = mask.find(needle, i, last + run)
            if hit == i:
                hit = bisect.bisect_right(range(last), run, lo=i, key=lambda j: max_gap(odd + 2 * j) // 2)
                failures += mask.count(needle, i, hit + run)
            elif hit < 0:
                break
            i = hit
        parts.append((mask.count(1), failures, first, odd + 2 * last))
    return _joined(parts, gamma)


def _count_chunks(chunks: list, gamma: Fraction) -> list:
    """_chunk_counts of each (lo, hi) in chunks: the first in this process,
    each other in a child made with os.fork, or here if none can be made.

    A child writes its counts into its slot of one shared mapping (without
    the mapping, no child is made) and leaves by os._exit, status 1 on an
    exception, so it never returns into the caller, flushes stdio or runs
    atexit handlers.  ProxRsaError (exit 1) when a child fails; every child
    not yet reaped is killed and reaped on the way out."""
    import mmap

    try:
        slots = mmap.mmap(-1, 32 * len(chunks))
    except OSError:
        return [_chunk_counts(*c, gamma) for c in chunks]
    children = {}  # chunk index -> pid
    try:
        for index in range(1, len(chunks)):
            try:
                pid = os.fork()
            except OSError:
                continue  # counted below, in this process
            if pid == 0:
                try:
                    slots[32 * index : 32 * index + 32] = _chunk_counts(*chunks[index], gamma).tobytes()
                    os._exit(0)
                finally:
                    os._exit(1)
            children[index] = pid
        counts = [None if i in children else _chunk_counts(*c, gamma) for i, c in enumerate(chunks)]
        for index, pid in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[index]
            if code:
                lo, hi = chunks[index]
                raise ProxRsaError(f"census of [{lo}, {hi}] failed in child {pid}: exit {code}")
            counts[index] = array("q", slots[32 * index : 32 * index + 32])
        return counts
    finally:
        for pid in children.values():
            os.kill(pid, 9)  # SIGKILL, without loading the signal module
            os.waitpid(pid, 0)
        slots.close()


def census_pairs(lo: int, hi: int, gamma: Fraction) -> CensusReport:
    """Count consecutive prime pairs in [lo, hi] passing the proximity test."""
    numerics._check_bounds(lo, hi)
    _check_gamma(gamma)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1  # not on macOS, Windows
    workers = max(1, min(cpus, (hi - lo + 1) // _MIN_CHUNK))
    edges = [lo + (hi - lo + 1) * w // workers for w in range(workers + 1)]
    chunks = [(start, end - 1) for start, end in zip(edges, edges[1:])]
    prime_count, failures, _, _ = _joined(_count_chunks(chunks, gamma), gamma)
    pair_count = max(prime_count - 1, 0) - failures
    return _report(lo, hi, gamma, prime_count, pair_count)


def census_progression(
    lo: int, hi: int, gamma: Fraction, modulus: int, res_a: int, res_b: int
) -> CensusReport:
    """Count pairs p < q with p == res_a, q == res_b (mod modulus) and
    |q - p| < gamma*sqrt(p*q); pairs need not be consecutive."""
    numerics._check_bounds(lo, hi)
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
    for odd, mask, _ in numerics.segments(lo, hi):
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
