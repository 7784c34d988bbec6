"""Exact period-finding measurement statistics for toy moduli (N <= 2^20).

The measured register follows the textbook post-QFT law with offset 0 and
m = ceil(Q/r) superposed periods:

    probs[y] = |sum_{j<m} exp(2*pi*i*j*r*y/Q)|^2 / (Q*m)

which collapses to m/Q at y with r*y == 0 (mod Q), to 0 where the
geometric sum closes (Q | m*t), and to a sin-ratio elsewhere.  The exact
sum over all y is 1.

A measurement y is post-processed by continued fractions (Shor, SIAM J.
Comput. 26(5), 1997): recover_period returns the convergent h/rhat of y/Q
with |y/Q - h/rhat| <= 1/(2Q), rhat < N.  The plain count succeeds when
rhat = r.  The refinement tries rhat*f for f = 1 .. floor(log2 N) and keeps
the first multiple with a^(rhat*f) == 1 (mod N); since a^x == 1 exactly
when r | x, that multiple, if any, is lcm(rhat, r), so it equals r exactly
when rhat | r and r/rhat <= floor(log2 N).  So for fixed N and Q both
probabilities depend on the base a only through its order r, and bases of
equal order share one computation.

Success accounting never needs the full Q-vector.  In both counts rhat
divides r, so h/rhat = c/r with c = h*r/rhat, and |y/Q - c/r| <= 1/(2Q),
that is 2*|y*r - c*Q| <= r: only a y within 1/2 of some c*Q/r (0 <= c < r)
can succeed.  Each c has one such y, or two at an exact tie, so at most
about r candidates carry the success mass.  Their sum equals the full sum
over all Q outcomes, which keeps Q = N^2 tractable at any toy size.  The
closed form depends on y only through t = r*y mod Q, and takes the same
value at t and Q - t, so it depends on a candidate only through its
distance |y*r - c*Q| <= r/2.  Every sum of probabilities is exactly
rounded (math.fsum; Shewchuk, Discrete Comput. Geom. 18, 1997), and every
mean the commands print is statistics.fmean, which is that fsum divided
by the count, so none depends on the order of its terms or on the Python
version.

When Q >= N^2 (the default Q), no continued fraction runs: the candidates
for c recover rhat = r/gcd(c, r), the denominator of c/r in lowest terms,
or nothing when that is 1 or not below N (Hardy & Wright, Thm. 184; Shor
1997, Sec. 5).  If rhat < N, |y/Q - c/r| <= 1/(2Q) < 1/(2 rhat^2), so by
Legendre's theorem c/r is a convergent of y/Q; any other fraction h/k
with k < N lies at least 1/(k*rhat) > 1/N^2 >= 1/Q from c/r, so it cannot
also be within 1/(2Q) of y/Q, and none of the earlier convergents passes
the test.  If rhat >= N (only for an r that is no order mod N), a
denominator k < N the continued fraction may still return does not
divide r: h/k would be a second multiple of 1/r within 1/Q of c/r, so
it does not lift either.  So the c with equal g = gcd(c, r) form one
class, and each class's distances follow from the units mod the odd part
of r/g (_success_by_classes): the terms come with power-of-two weights
and no loop over c, and their fsum is the fsum of the per-candidate
terms.  A user's Q below N^2 keeps recover_period, one call per
candidate.

The module runs on the standard library alone: compare_moduli takes its
prime band, below 2^12, from numerics.sieve_range, decides closeness with
the exact integer predicate and rounds the CSV delta from an integer
square root.  The sines run once per distinct distance of an order, not
once per candidate.  Q is capped at MAX_Q = 2^512, where Q*ceil(Q/r)
still fits a float for every r > 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from statistics import fmean
from typing import NamedTuple, Optional

from . import numerics
from .errors import ParameterError
from .numerics import SeedStream, euler_phi, prime_factors

MAX_TOY_MODULUS = 1 << 20
_MAX_TOY_BITS = MAX_TOY_MODULUS.bit_length() - 1
MAX_Q = 1 << 512


class ComparisonRow(NamedTuple):
    """One shor-compare CSV row; the fields are its columns, in order."""

    group: str
    N: int
    p: int
    q: int
    delta: float
    angular_separation_num: int
    angular_separation_den: int
    mean_success_prob: float
    mean_success_prob_refined: float


def group_summary(rows: list[ComparisonRow]) -> dict:
    """Count and mean delta and success probabilities of each group present."""
    out = {}
    for group in ("close", "control"):
        members = [r for r in rows if r.group == group]
        if members:
            out[group] = {
                "count": len(members),
                "mean_delta": fmean(r.delta for r in members),
                "mean_success_prob": fmean(r.mean_success_prob for r in members),
                "mean_success_prob_refined": fmean(r.mean_success_prob_refined for r in members),
            }
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Smallest r >= 1 with a^r == 1 (mod n).

    r starts at phi(n), a multiple of the order.  For each prime l of
    phi(n), r loses its whole power of l, and g = a^r is raised to the l
    until it reaches 1, r taking an l back at each step: one full-size
    power per prime of phi(n) (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.4.3).
    """
    if n < 2 or n > MAX_TOY_MODULUS:
        raise ParameterError(f"modulus must lie in [2, 2^{_MAX_TOY_BITS}]: {n}")
    if not 1 <= a < n:
        raise ParameterError(f"base must satisfy 1 <= a < n: {a}")
    if math.gcd(a, n) != 1:
        raise ParameterError(f"gcd({a}, {n}) != 1")
    r = euler_phi(n)
    for ell in prime_factors(r):
        while r % ell == 0:
            r //= ell
        g = pow(a, r, n)
        while g != 1:
            g = pow(g, ell, n)
            r *= ell
    return r


def default_q(n: int) -> int:
    """Smallest power of two >= n^2."""
    return 1 << (n * n - 1).bit_length()


def circuit_order_estimates(n: int) -> dict:
    """Closed-form circuit cost shapes for a k-bit modulus, constants set to 1.

    Reported for context only; nothing simulates at the gate level.
    """
    k = n.bit_length()
    log_k = math.log2(k) if k > 1 else 0.0
    loglog_k = math.log2(log_k) if log_k > 1 else 0.0
    return {
        "modulus_bits": k,
        "depth_symbolic": "k * log2(k) * log2(log2(k))",
        "depth_order": k * log_k * loglog_k,
        "width_symbolic": "k",
        "width_order": k,
    }


def _check_q(q_size: int) -> None:
    if q_size < 1 or q_size & (q_size - 1):
        raise ParameterError(f"Q must be a power of two: {q_size}")
    if q_size > MAX_Q:
        raise ParameterError(f"Q must be at most 2^512: 2^{q_size.bit_length() - 1}")


def _prob_at_distance(d: int, r: int, q_size: int) -> float:
    """Closed-form probability of a y at distance d = min(t, Q - t), t = r*y mod Q.

    Both sine arguments are folded into [0, Q/2] in integers: |sin(pi*x)|
    has period 1 and is symmetric about 1/2, so the argument never leaves
    [0, pi/2] and float sin keeps full relative precision even when Q is
    2^40.  The numerator's m*t mod Q folds to the same value from t = d
    and from t = Q - d, so d is all the closed form needs.  Where m*d is a
    multiple of Q the folded numerator is sin(0) = 0, and so is the result.
    """
    m = -(-q_size // r)
    if d == 0:
        return m / q_size
    top = m * d % q_size
    if 2 * top > q_size:
        top = q_size - top
    ratio = math.sin(math.pi * top / q_size) / math.sin(math.pi * d / q_size)
    return ratio * ratio / (q_size * m)


def recover_period(y: int, q_size: int, n: int) -> Optional[int]:
    """Continued-fraction post-processing of a measurement.

    Returns the smallest convergent denominator rhat < n of y/Q with
    |y/Q - c/rhat| <= 1/(2Q), or None.  Denominator 1 is rejected as a
    trivial period.  All comparisons are exact integer arithmetic.
    """
    if not 0 <= y < q_size:
        raise ParameterError(f"measurement must satisfy 0 <= y < Q: {y}")
    num, den = y, q_size
    # Convergent recurrence h_i = a_i*h_{i-1} + h_{i-2}, seeded with
    # (h_{-2}, h_{-1}) = (0, 1) and (k_{-2}, k_{-1}) = (1, 0).
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    while den:
        a_i = num // den
        num, den = den, num - a_i * den
        h_prev, h = h, a_i * h + h_prev
        k_prev, k = k, a_i * k + k_prev
        if k >= n:
            break
        # |y/Q - h/k| <= 1/(2Q)  <=>  2*|y*k - h*Q| <= k
        if k > 1 and 2 * abs(y * k - h * q_size) <= k:
            return k
    return None


def _lifts_to(r_hat: int, r: int, n: int) -> bool:
    """Whether the small-factor refinement turns r_hat into the order r.

    The refinement returns the first r_hat*f, f <= floor(log2 n), with
    a^(r_hat*f) == 1 (mod n).  As a^x == 1 exactly when r | x, that is
    lcm(r_hat, r) if r/gcd(r_hat, r) <= floor(log2 n), and none otherwise;
    it equals r exactly when r_hat | r and r/r_hat <= floor(log2 n).
    """
    return r % r_hat == 0 and r // r_hat < n.bit_length()


def success_probabilities(n: int, r: int, q_size: int) -> tuple[float, float]:
    """Plain and refined probability that one measurement recovers period r.

    Plain counts y whose recovered denominator rhat equals r; refined also
    counts rhat | r with r/rhat <= floor(log2 n), the multiples the
    small-factor refinement lifts to r (module docstring).  Each is the
    exactly rounded sum (math.fsum) of its terms, so it does not depend on
    their order.  When Q >= n^2 the terms come by divisor classes of c,
    with no loop over c (_success_by_classes); otherwise recover_period
    decides each candidate (_success_by_continued_fraction).
    """
    _check_q(q_size)
    if not 1 <= r <= q_size:
        raise ParameterError(f"Q = {q_size} cannot resolve period {r}")
    if q_size >= n * n:
        return _success_by_classes(n, r, q_size)
    return _success_by_continued_fraction(n, r, q_size)


def _success_by_classes(n: int, r: int, q_size: int) -> tuple[float, float]:
    """(plain, refined) at Q >= n^2, one class of c per divisor g = gcd(c, r).

    The candidate for c recovers r_hat = r/g, and it lifts to r exactly
    when g < bit_length(n) and 1 < r_hat < n.  Write r_hat = 2^j*o with o
    odd and c = g*c' with gcd(c', r_hat) = 1.  As Q is a power of two with
    2^j | Q, the candidate's distance |y*r - c*Q| is (r/o)*min(u, o - u),
    where u = c'*Q/2^j mod o runs over the units mod o, each phi(2^j)
    times.  So the class adds the closed form at (r/o)*v for each unit
    v < o/2 with weight 2*phi(2^j) (u and o - u), or, when o = 1, once at
    distance 0 with weight phi(2^j).  An odd o never has u = o/2, so no c
    has two candidates.  Classes with equal o share one list of
    probabilities.  Every weight is a power of two, so each weighted term
    is exact, and the fsum of the weighted terms equals the fsum of the
    per-candidate terms.
    """
    bits = n.bit_length()
    by_odd: dict[int, list[float]] = {}
    plain: list[float] = []
    refined: list[float] = []
    for g in range(1, min(bits, r)):
        r_hat, left = divmod(r, g)
        if left or r_hat >= n:
            continue
        j = (r_hat & -r_hat).bit_length() - 1
        o = r_hat >> j
        probs = by_odd.get(o)
        if probs is None:
            step = r // o
            probs = by_odd[o] = [_prob_at_distance(step * v, r, q_size) for v in _half_units(o)]
        phi_two = 1 << max(j - 1, 0)  # phi(2^j)
        weight = phi_two if o == 1 else 2 * phi_two
        terms = [weight * p for p in probs]
        refined += terms
        if g == 1:
            plain = terms
    return math.fsum(plain), math.fsum(refined)


def _half_units(o: int) -> list[int]:
    """The units v mod an odd o with 0 <= v < o/2; [0] when o = 1."""
    half = (o + 1) // 2
    keep = bytearray(b"\x01") * half
    for p in prime_factors(o):
        keep[0::p] = bytes(len(range(0, half, p)))
    return list(itertools.compress(range(half), keep))


def _success_by_continued_fraction(n: int, r: int, q_size: int) -> tuple[float, float]:
    """(plain, refined) with one recover_period call per candidate y.

    With (y, rem) = divmod(c*Q, r), the candidates for c are y (at distance
    rem from c*Q/r) and y + 1 (at distance r - rem), each kept when its
    distance is at most r/2, so both only at an exact tie.  Each distance
    is scored once.  This path runs only when Q < N^2 <= 2^40, so c*Q
    stays small.
    """
    by_distance: dict[int, float] = {}
    plain: list[float] = []
    refined: list[float] = []
    for c in range(r):
        y, rem = divmod(c * q_size, r)
        for y_c, distance in ((y, rem), (y + 1, r - rem)):
            if 2 * distance > r:
                continue
            r_hat = recover_period(y_c, q_size, n)
            if r_hat is None or not _lifts_to(r_hat, r, n):
                continue
            prob = by_distance.get(distance)
            if prob is None:
                prob = by_distance[distance] = _prob_at_distance(distance, r, q_size)
            refined.append(prob)
            if r_hat == r:
                plain.append(prob)
    return math.fsum(plain), math.fsum(refined)


def shor_success_probability(
    n: int, a: int, q_size: Optional[int] = None, refine: bool = True
) -> float:
    """Probability that one measurement recovers the exact order of a mod n.

    Sums probs[y] over every y whose continued-fraction denominator equals
    r (after the small-factor refinement when enabled).  Equal to the full
    sum over all Q outcomes; see module docstring for why the sparse
    enumeration is lossless.
    """
    q_size = default_q(n) if q_size is None else q_size
    ((_, plain, refined),) = base_probabilities(n, [a], q_size)
    return refined if refine else plain


def base_probabilities(n: int, bases: list[int], q_size: int) -> list[tuple[int, float, float]]:
    """(r, plain, refined) for each base; bases of equal order share one pass."""
    by_order: dict[int, tuple[float, float]] = {}
    out = []
    for a in bases:
        if a < 2:
            raise ParameterError(f"base must be >= 2: {a}")
        r = multiplicative_order(a, n)
        if r not in by_order:
            by_order[r] = success_probabilities(n, r, q_size)
        out.append((r, *by_order[r]))
    return out


def draw_bases(stream: SeedStream, n: int, count: int) -> list[int]:
    """`count` distinct bases in [2, n-2] coprime to n, in stream order.

    Refuses a count above the phi(n) - 2 bases that exist instead of
    searching for them forever.
    """
    if not 3 <= n <= MAX_TOY_MODULUS:
        raise ParameterError(f"modulus must lie in [3, 2^{_MAX_TOY_BITS}]: {n}")
    usable = euler_phi(n) - 2  # 1 and n-1 are units outside [2, n-2]
    if not 1 <= count <= usable:
        raise ParameterError(
            f"cannot draw {count} bases: N = {n} has {usable} bases in [2, N-2] coprime to N"
        )
    bases: list[int] = []
    seen = set()
    while len(bases) < count:
        a = 2 + numerics.stream_uint(stream, n - 3)
        if a in seen or math.gcd(a, n) != 1:
            continue
        seen.add(a)
        bases.append(a)
    return bases


def _sample_indices(stream: SeedStream, size: int, count: int) -> list[int]:
    pool = list(range(size))
    chosen = []
    for _ in range(count):
        idx = numerics.stream_uint(stream, len(pool))
        chosen.append(pool.pop(idx))
    return chosen


def _delta_float(p: int, q: int) -> float:
    """float(entropy.proximity_delta(p, q)), |p - q|/sqrt(p*q) rounded once.

    a = isqrt(gap^2 * 4^k // (p*q)) is floor(delta * 2^k), so delta lies in
    [a, a + 1) / 2^k, and at a only when the root is exact.  a has over 64
    bits, so no rounding boundary of a double falls inside (a, a + 1), and
    the correctly rounded quotient (a + 1/2) / 2^k, or a / 2^k when exact,
    rounds to the same double as delta.
    """
    gap, pq = abs(p - q), p * q
    k = pq.bit_length() + 64
    scaled = gap * gap << 2 * k
    a = math.isqrt(scaled // pq)
    return (2 * a + (a * a * pq != scaled)) / (1 << (k + 1))


def compare_moduli(
    bit_size: int,
    n_pairs: int,
    gamma_close: float,
    stream: SeedStream,
    q_size: Optional[int] = None,
    bases_per_modulus: int = 20,
) -> list[ComparisonRow]:
    """One row of success statistics per sampled close or wide ("control") pair.

    Close pairs have delta < gamma_close; control pairs have a delta in
    the top quartile of all pairs of the size.  The rows are data only: no
    direction is asserted.
    """
    if not 8 <= bit_size <= _MAX_TOY_BITS:
        raise ParameterError(f"bit_size must lie in [8, {_MAX_TOY_BITS}]: {bit_size}")
    if n_pairs < 1:
        raise ParameterError("n_pairs must be >= 1")
    if not 0 < gamma_close < 2:
        raise ParameterError(f"gamma_close must lie in (0, 2): {gamma_close}")
    close_gamma = Fraction(gamma_close).limit_denominator(1 << 32)

    # Population: every pair from a factor-8 band of primes whose product
    # has exactly bit_size bits, so both balanced and lopsided pairs occur.
    half = bit_size // 2
    lo = 1 << (half - 1)
    primes = numerics.sieve_range(lo, 1 << (half + 2))
    candidates = []
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            n = p * q
            if n.bit_length() < bit_size:
                continue
            if n.bit_length() > bit_size:
                break
            candidates.append((p, q, _delta_float(p, q)))

    close_pool = [c for c in candidates if numerics.proximity_holds_exact(c[0], c[1], close_gamma)]
    by_delta = sorted(candidates, key=lambda c: c[2])
    control_pool = by_delta[3 * len(by_delta) // 4 :]
    if len(close_pool) < n_pairs or len(control_pool) < n_pairs:
        raise ParameterError(
            f"insufficient prime pairs at {bit_size} bits: "
            f"{len(close_pool)} close / {len(control_pool)} control, need {n_pairs}"
        )

    rows = []
    for group, pool in (("close", close_pool), ("control", control_pool)):
        picks = _sample_indices(stream, len(pool), n_pairs)
        for idx in sorted(picks):
            p, q, delta = pool[idx]
            n = p * q
            q_here = q_size if q_size is not None else default_q(n)
            stats = base_probabilities(n, draw_bases(stream, n, bases_per_modulus), q_here)
            rows.append(
                ComparisonRow(
                    group=group,
                    N=n,
                    p=p,
                    q=q,
                    delta=delta,
                    angular_separation_num=math.gcd(p - 1, q - 1),
                    angular_separation_den=(p - 1) * (q - 1),
                    mean_success_prob=fmean(s[1] for s in stats),
                    mean_success_prob_refined=fmean(s[2] for s in stats),
                )
            )
    return rows
