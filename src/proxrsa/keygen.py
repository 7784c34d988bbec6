"""Entropy-constrained RSA key generation.

Three variants share one pipeline:

* standard: two primes in prescribed residue classes mod M (a product of
  small primes), with |p - q| < gamma*sqrt(p*q) and the collision-entropy
  estimate under beta*log2(1/gamma).
* multiprime: m >= 3 primes, pairwise proximity-constrained, distinct
  residue classes.
* compatible: a close inner pair hidden in the low bits of outer primes
  p' = K*2^shift + p, q' = (K+j)*2^shift + q whose own gap is forced above
  2^(k/2 - shift), keeping Fermat-style factoring infeasible on the outer
  modulus.

`_generate` is that pipeline: it builds M, draws the residues and runs
the one restart loop, calling a per-variant attempt and finalizing the
exponents of whatever the attempt returns.  Every attempt is built from
two candidate scans: numerics.next_prime_in_progression for anchors and
outer primes (the outer candidates K*2^shift + p are the progression
== p mod 2^shift), and `_partner_primes`, the probable primes among the
first max_candidates candidates around an anchor, closest first.  Those
candidates are one merge of two progressions in the partner's residue
class, the one falling from just below the anchor and the one rising from
just above it, ordered by distance to the anchor.

Everything is a deterministic function of the parameters (seed included):
candidate bases, residues and search order are all derived from one
SHA-256 counter stream, and every scan returns the first qualifying
candidate in its fixed order, so two runs can never diverge.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import numerics
from .entropy import (
    EntropyReport,
    check_entropy_constraint,
    h2_from_delta,
    multiprime_h2_bound,
    proximity_delta,
    proximity_holds_exact,
    purity_lower,
)
from .errors import InfeasibleError, ParameterError, RangeTooLargeError, SearchExhaustedError
from .keyfile import KeyPair
from .numerics import SeedStream

DEFAULT_SHIFT = 100
MIN_SHIFT = 20


def default_gamma(k: int, epsilon: float) -> Fraction:
    """Rational approximation of k^(-1/2 + epsilon)."""
    if not 0 < epsilon < 0.5:
        raise ParameterError("epsilon must lie in (0, 1/2)")
    return Fraction(float(k) ** (-0.5 + epsilon)).limit_denominator(1 << 32)


class KeyGenParams(NamedTuple):
    """All tunables of the generation pipeline.

    gamma=None selects the k^(-1/2+epsilon) default; ell=None selects
    floor(log2 k) small primes for the congruence modulus.
    """

    k: int
    seed: bytes
    gamma: Optional[Fraction] = None
    beta: float = 0.9
    epsilon: float = 0.1
    ell: Optional[int] = None
    e: int = 65537
    max_candidates: int = 10_000
    max_restarts: int = 64

    def validate(self) -> None:
        if self.k < 16 or self.k % 2 != 0:
            raise ParameterError(f"k must be an even integer >= 16: {self.k}")
        if len(self.seed) != 32:
            raise ParameterError("seed must be exactly 32 bytes")
        if self.gamma is not None and not 0 < self.gamma < 1:
            raise ParameterError(f"gamma must lie in (0, 1): {self.gamma}")
        if not 0 < self.beta < 1:
            raise ParameterError(f"beta must lie in (0, 1): {self.beta}")
        if not 0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must lie in (0, 1/2): {self.epsilon}")
        if self.ell is not None and self.ell < 1:
            raise ParameterError("ell must be >= 1")
        if self.e < 3 or self.e % 2 == 0:
            raise ParameterError(f"public exponent must be odd and >= 3: {self.e}")
        if self.max_candidates < 1 or self.max_restarts < 1:
            raise ParameterError("search limits must be positive")

    def resolved_gamma(self) -> Fraction:
        return self.gamma if self.gamma is not None else default_gamma(self.k, self.epsilon)

    def resolved_ell(self) -> int:
        return self.ell if self.ell is not None else max(1, self.k.bit_length() - 1)


def build_small_modulus(ell: int) -> int:
    """Product of the first ell primes."""
    if ell < 1:
        raise ParameterError("ell must be >= 1")
    return math.prod(numerics.first_primes(ell))


def derive_residues(m_modulus: int, stream: SeedStream, count: int) -> list[int]:
    """`count` distinct units of Z_M^*, spread across the factors of M.

    Residues are pairwise distinct modulo every odd prime factor p of M
    wherever that is achievable (p - 1 >= count); a factor with fewer unit
    classes than residues cannot separate them (pigeonhole), and modulo 2
    every unit is 1, so those factors are skipped.  Requesting more
    residues than Z_M^* has elements is infeasible outright.  Draws come
    from the stream by rejection sampling, so fixed (seed, M, count)
    always reproduces the same list.
    """
    if m_modulus < 2:
        raise ParameterError("modulus must be >= 2")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if count > numerics.euler_phi(m_modulus):
        raise InfeasibleError(
            f"{count} distinct residues requested but |Z_{m_modulus}^*| is smaller"
        )

    separating = [p for p in numerics.prime_factors(m_modulus) if p - 1 >= count]
    chosen: list[int] = []
    seen_classes = [set() for _ in separating]
    seen_values: set[int] = set()
    while len(chosen) < count:
        candidate = numerics.stream_uint(stream, m_modulus)
        if candidate in seen_values or math.gcd(candidate, m_modulus) != 1:
            continue
        classes = [candidate % p for p in separating]
        if any(c in s for c, s in zip(classes, seen_classes)):
            continue
        chosen.append(candidate)
        seen_values.add(candidate)
        for c, s in zip(classes, seen_classes):
            s.add(c)
    return chosen


def _partner_candidates(p: int, residue: int, modulus: int, max_gap: int):
    """Candidates q >= 3, q == residue (mod modulus), 0 < |q - p| < max_gap,
    ordered by |q - p|, ties toward smaller q."""
    down = p - ((p - residue) % modulus or modulus)
    up = p + ((residue - p) % modulus or modulus)
    merged = heapq.merge(
        range(down, 2, -modulus), itertools.count(up, modulus), key=lambda q: (abs(q - p), q)
    )
    return itertools.takewhile(lambda q: abs(q - p) < max_gap, merged)


def _partner_primes(p: int, residue: int, modulus: int, max_gap: int, max_candidates: int):
    """Probable primes among the first max_candidates of _partner_candidates."""
    for q in itertools.islice(_partner_candidates(p, residue, modulus, max_gap), max_candidates):
        if numerics.is_probable_prime(q):
            yield q


def _search_close_partner(
    p: int,
    residue: int,
    m_modulus: int,
    gamma: Fraction,
    beta: float,
    max_candidates: int,
) -> Optional[tuple[int, EntropyReport]]:
    """Nearest prime q == residue (mod M) inside (p - gamma*p, p + gamma*p)
    that passes the exact proximity and entropy constraints, or None."""
    # Smallest gap outside the open window |q - p| < gamma * p.
    max_gap = (gamma.numerator * p - 1) // gamma.denominator + 1
    for q in _partner_primes(p, residue, m_modulus, max_gap, max_candidates):
        ok, report = check_entropy_constraint(p, q, gamma, beta)
        if ok:
            return q, report
    return None


def _dominant_pair_report(primes: list[int], gamma: Fraction, m: int) -> EntropyReport:
    """Multi-prime report: worst (largest-delta) pair drives the estimate."""
    worst = max(proximity_delta(p, q) for p, q in itertools.combinations(primes, 2))
    return EntropyReport(
        delta=worst,
        purity_lower=purity_lower(worst),
        h2_estimate_bits=h2_from_delta(worst),
        h2_bound_bits=multiprime_h2_bound(m, gamma),
        budget_bits=None,
        constraint_ok=True,
    )


def _finalize_exponents(e: int, primes: list[int]) -> Optional[tuple[int, int]]:
    """(n, d) when e is usable and d clears the d^10 > n^3 floor."""
    n = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    if math.gcd(e, phi) != 1:
        return None
    d = pow(e, -1, phi)
    if d**10 <= n**3:
        return None
    return n, d


def _exponent_sum_floor(ell: int) -> int:
    """A lower bound on sum(p.bit_length() - 1) over the first ell primes.

    By Rosser, p_n > n ln n; for n in [2^j, 2^(j+1)) that is above
    2^j * j ln 2, whose floor(log2) is at least
    j + floor(log2(floor(0.693147 j))).
    """
    total = 0
    for j in range(2, ell.bit_length()):
        count = min(ell + 1, 2 << j) - (1 << j)
        total += count * (j + (j * 693147 // 10**6).bit_length() - 1)
    return total


def _generate(params, variant, ell, count, bits, attempt, exhausted) -> KeyPair:
    """The pipeline the three variants share.

    Draws `count` residues mod the product of the first `ell` primes, then
    restarts `attempt(stream, bits, residues, m_modulus, gamma, params)` up
    to max_restarts times.  An attempt returns (primes, entropy report,
    inner primes) or None; the first whose exponents finalize is the key.
    """
    if bits < 8:  # only a multi-prime split can get this narrow
        raise ParameterError(f"k={params.k} too small for {count} primes")
    what = "inner primes" if variant == "compatible" else "primes"
    try:
        numerics.prime_limit(ell)
    except RangeTooLargeError as exc:
        raise ParameterError(f"ell={ell} is too large: {exc}") from None
    # Each prime p is at least 2^(p.bit_length() - 1), so M has more bits
    # than the sum of those exponents; refuse before listing the primes when
    # a lower bound on the sum decides, and before building M otherwise.
    too_wide = ParameterError(
        f"congruence modulus (first {ell} primes) too wide for {bits}-bit {what}"
    )
    if _exponent_sum_floor(ell) >= bits:
        raise too_wide
    small_primes = numerics.first_primes(ell)
    if sum(p.bit_length() - 1 for p in small_primes) >= bits:
        raise too_wide
    m_modulus = build_small_modulus(ell)
    if m_modulus.bit_length() > bits:
        raise ParameterError(
            f"congruence modulus ({m_modulus.bit_length()} bits) too wide for {bits}-bit {what}"
        )
    stream = SeedStream(params.seed)
    residues = derive_residues(m_modulus, stream, count)
    gamma = params.resolved_gamma()
    for _ in range(params.max_restarts):
        found = attempt(stream, bits, residues, m_modulus, gamma, params)
        if found is None:
            continue
        primes, report, inner = found
        done = _finalize_exponents(params.e, primes)
        if done is None:
            continue
        n, d = done
        return KeyPair(
            variant=variant,
            k=params.k,
            gamma=gamma,
            beta=params.beta,
            e=params.e,
            d=d,
            n=n,
            primes=primes,
            m_modulus=m_modulus,
            residues=residues,
            inner_primes=inner,
            entropy_report=report.to_dict(),
            seed=params.seed,
        )
    raise SearchExhaustedError(exhausted)


def _draw_anchor(stream, bits, residue, m_modulus, params) -> Optional[int]:
    """First prime == residue (mod M) at or above a drawn `bits`-wide base."""
    base = numerics.stream_bits(stream, bits)
    base |= 3 << (bits - 2)  # keep the product of the primes at full width
    try:
        return numerics.next_prime_in_progression(base, residue, m_modulus, params.max_candidates)
    except SearchExhaustedError:
        return None


def generate_keypair(params: KeyGenParams) -> KeyPair:
    """Two-prime generation: congruence classes, exact proximity, entropy cap.

    p is the next prime == a (mod M) at or above a PRF-drawn k/2-bit base;
    q is found by scanning the residue class of b outward from p, closest
    candidate first, so the smallest compliant gap wins.  Restarts draw a
    fresh base from the same stream.
    """
    params.validate()
    return _generate(
        params, "standard", params.resolved_ell(), 2, params.k // 2, _attempt_pair,
        f"no compliant pair within {params.max_restarts} restarts"
        f" (k={params.k}, gamma={params.resolved_gamma()})",
    )


def _attempt_pair(stream, bits, residues, m_modulus, gamma, params):
    p = _draw_anchor(stream, bits, residues[0], m_modulus, params)
    if p is None:
        return None
    found = _search_close_partner(
        p, residues[1], m_modulus, gamma, params.beta, params.max_candidates
    )
    if found is None:
        return None
    q, report = found
    return [p, q], report, None


def generate_multiprime(params: KeyGenParams, m: int) -> KeyPair:
    """m >= 3 primes of k//m bits, pairwise |p_i - p_j| < gamma*sqrt(p_i*p_j).

    The first prime anchors the cluster; each further prime is the nearest
    candidate in its own residue class that keeps every pairwise gap legal.
    """
    params.validate()
    if m < 3:
        raise ParameterError(f"multi-prime count must be >= 3: {m}")

    def attempt(stream, bits, residues, m_modulus, gamma, params):
        primes = _attempt_cluster(stream, bits, residues, m_modulus, gamma, params)
        if primes is None:
            return None
        return primes, _dominant_pair_report(primes, gamma, m), None

    return _generate(
        params, "multiprime", params.resolved_ell(), m, params.k // m, attempt,
        f"no compliant {m}-prime cluster within {params.max_restarts} restarts",
    )


def _attempt_cluster(stream, prime_bits, residues, m_modulus, gamma, params):
    anchor = _draw_anchor(stream, prime_bits, residues[0], m_modulus, params)
    if anchor is None:
        return None
    primes = [anchor]
    max_gap = gamma.numerator * anchor // gamma.denominator + 1
    for residue in residues[1:]:
        partners = _partner_primes(anchor, residue, m_modulus, max_gap, params.max_candidates)
        chosen = next(
            (q for q in partners if all(proximity_holds_exact(p, q, gamma) for p in primes)),
            None,
        )
        if chosen is None:
            return None
        primes.append(chosen)
    return primes


def generate_compatible(params: KeyGenParams, shift: int = DEFAULT_SHIFT) -> KeyPair:
    """Layered construction: close inner pair, wide-gap outer pair.

    Inner primes p, q of k//2 - shift bits are generated exactly like the
    standard variant.  Outer primes are p' = K*2^shift + p and
    q' = (K + j)*2^shift + q with j large enough that
    |p' - q'| >= 2^(k//2 - shift) holds unconditionally:
    j >= ceil((|p - q| + 2*target_gap) / 2^shift).
    """
    params.validate()
    if shift < MIN_SHIFT:
        raise ParameterError(f"shift must be >= {MIN_SHIFT}: {shift}")
    inner_bits = params.k // 2 - shift
    if inner_bits < 16:
        raise ParameterError(
            f"k={params.k} with shift={shift} leaves only {inner_bits} bits for inner primes"
        )
    # The inner pair is its own generation problem at effective size
    # 2*inner_bits, so the default congruence modulus scales with that,
    # not with the outer k; an explicit ell is honored as given.
    inner_ell = params.ell if params.ell is not None else max(1, (2 * inner_bits).bit_length() - 1)

    def attempt(stream, bits, residues, m_modulus, gamma, params):
        found = _attempt_pair(stream, bits, residues, m_modulus, gamma, params)
        if found is None:
            return None
        (p, q), report, _ = found
        # Inner widths must be exact so the shift stays recoverable from
        # the key file (validators re-derive it from the inner bit length).
        if p.bit_length() != inner_bits or q.bit_length() != inner_bits:
            return None
        outer = _attempt_outer(stream, params, shift, p, q)
        return None if outer is None else (outer, report, [p, q])

    return _generate(
        params, "compatible", inner_ell, 2, inner_bits, attempt,
        f"no compatible-layer key within {params.max_restarts} restarts"
        f" (k={params.k}, shift={shift})",
    )


def _attempt_outer(stream, params, shift, p, q):
    """Outer primes K*2^shift + p and (K + j)*2^shift + q, each the first
    prime of its progression mod 2^shift, or None."""
    outer_k_bits = params.k // 2 - shift  # width of K so that p' spans k//2 bits
    k_base = numerics.stream_bits(stream, outer_k_bits)
    k_base |= 1 << (outer_k_bits - 1)
    scale = 1 << shift
    target_gap = 1 << (params.k // 2 - shift)
    j_floor = -(-(abs(p - q) + 2 * target_gap) // scale)
    try:
        p_outer = numerics.next_prime_in_progression(
            k_base * scale + p, p % scale, scale, params.max_candidates
        )
        q_outer = numerics.next_prime_in_progression(
            p_outer - p + j_floor * scale + q, q % scale, scale, params.max_candidates
        )
    except SearchExhaustedError:
        return None
    if abs(q_outer - p_outer) < target_gap:  # unreachable by construction; guard anyway
        return None
    return [p_outer, q_outer]
