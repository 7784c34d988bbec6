"""Independent key validation.

Re-derives every invariant from the raw integers of a key record.  The
checks here neither call nor import keygen, numerics or entropy (the
record itself comes from keyfile): the primality test is Baillie-PSW
instead of the generator's seeded Miller-Rabin rounds, exponent and
proximity checks are exact integer comparisons written out inline, and
the entropy budget is decided exactly from its own closed form: decimal
brackets of the threshold, compared in integers against the primes.  A
bug in the generation path therefore cannot hide itself.  Every variant
runs one path of checks; _SHAPES states the little in which they differ.

No RSA round trip is run: it is implied by the other checks.  When every
listed prime is prime, the primes are distinct, N is their product and
e*d = 1 (mod phi), then m^(e*d) = m modulo each prime for every m
(Fermat), hence modulo N (CRT).  A repeated prime is the one fault a
round trip would catch beyond those checks, so it is checked directly.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction
from typing import Optional

from .errors import NumericalError
from .keyfile import KeyPair

# The largest k a key may state: keygen's ceiling, declared apart because
# the validator imports no generator code.
_MAX_K = 8192

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _probably_prime(n: int) -> bool:
    """Baillie-PSW (Baillie & Wagstaff, Math. Comp. 35, 1980), independent
    of the generator's test: trial division by the primes up to 47, one
    strong Miller-Rabin round to base 2, then a strong Lucas test with
    Selfridge's parameters.  No composite is known to pass it.

    D is the first of 5, -7, 9, -11, ... with Jacobi (D/n) = -1, and
    P = 1, Q = (1 - D)/4.  That search ends because n is odd and not a
    square (the square check comes first): some D then has (D/n) = -1.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:
        return False
    disc = 5
    while _jacobi(disc, n) != -1:
        disc = -disc - 2 if disc > 0 else -disc + 2
    q = (1 - disc) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    half = (n + 1) // 2  # 1/2 mod n
    # U_k, V_k and Q^k for the leading bits k of d, with P = 1
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (disc * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _pairwise_proximity_ok(primes: list[int], gamma: Fraction) -> bool:
    num2 = gamma.numerator * gamma.numerator
    den2 = gamma.denominator * gamma.denominator
    return all(
        den2 * (p - q) * (p - q) < num2 * p * q for p, q in itertools.combinations(primes, 2)
    )


# Significant digits of each try at bracketing the entropy budget; a pair
# the last try cannot place ends the check with NumericalError.
_BUDGET_DIGITS = (40, 160, 640, 2560)


def _entropy_constraint_ok(p: int, q: int, gamma: Fraction, beta: float) -> bool:
    """H2 < beta*log2(1/gamma), decided exactly; delta < gamma is checked apart.

    H2 = -log2(purity), purity = (1 + sqrt(1 - 4*d^2/(2 + d)^2))/2 with
    d = |p - q|/sqrt(p*q), so the budget holds iff purity > x = gamma^beta.
    For d < 2 purity lies in (1/2, 1]: the budget always holds when
    x <= 1/2 and never when x >= 1 (beta <= 0, or NaN).  In between it
    holds iff d < d* = 2w/(2 - w) with w = sqrt(1 - s^2), s = 2x - 1, that
    is iff (p - q)^2 < d*^2 * p*q.  Both ends of a decimal bracket of d*^2
    are compared against that in integers; a bracket that holds the pair
    is retried with more digits.
    """
    if not beta > 0:
        return False
    gap2, pq = (p - q) ** 2, p * q
    for digits in _BUDGET_DIGITS:
        down = decimal.Context(prec=digits, rounding=decimal.ROUND_FLOOR)
        up = decimal.Context(prec=digits, rounding=decimal.ROUND_CEILING)
        x_high = _gamma_power(gamma, beta, up)
        if x_high <= decimal.Decimal("0.5"):
            return True
        num, den = _threshold_squared(x_high, down, up).as_integer_ratio()
        if gap2 * den < num * pq:
            return True
        num, den = _threshold_squared(_gamma_power(gamma, beta, down), up, down).as_integer_ratio()
        if gap2 * den >= num * pq:
            return False
    raise NumericalError(f"entropy budget undecided at {_BUDGET_DIGITS[-1]} digits")


def _outward(ctx: decimal.Context, value: decimal.Decimal) -> decimal.Decimal:
    """value, a correctly rounded ln, exp or sqrt, moved one unit in the
    last place in ctx's direction: a bound of the exact result."""
    return ctx.next_minus(value) if ctx.rounding == decimal.ROUND_FLOOR else ctx.next_plus(value)


def _gamma_power(gamma: Fraction, beta: float, ctx: decimal.Context) -> decimal.Decimal:
    """x = gamma^beta = exp(beta*ln(gamma)) for beta > 0, bounded in ctx's
    direction: every step is increasing in the one before."""
    log = _outward(ctx, ctx.ln(ctx.divide(gamma.numerator, gamma.denominator)))
    return _outward(ctx, ctx.exp(ctx.multiply(decimal.Decimal(beta), log)))


def _threshold_squared(
    x: decimal.Decimal, toward: decimal.Context, away: decimal.Context
) -> decimal.Decimal:
    """d*^2 = 4w^2/(2 - w)^2, bounded in toward's direction, from a bound x
    of gamma^beta in away's.

    d*^2 falls as s = 2x - 1 rises, so x and s are bounded the other way.
    A negative s is raised to 0, where d* = 2 exceeds every d below gamma
    as it should; a negative w^2 (an x of 1 or more) is raised to 0, where
    no gap passes.
    """
    s = max(away.subtract(away.multiply(2, x), 1), 0)
    w2 = max(toward.subtract(1, away.multiply(s, s)), 0)
    w = max(_outward(toward, toward.sqrt(w2)), 0)
    gap = away.subtract(2, w)
    return toward.divide(toward.multiply(4, w2), away.multiply(gap, gap))


def _primorial_factors(m: int) -> Optional[list[int]]:
    """The primes 2, 3, 5, ... whose product is m, or None if m is no such product.

    A generated M is the product of the first ell primes.  Each next prime
    is tried in turn and the walk stops at the first one that does not
    divide what is left, so it makes at most log2(m) + 1 divisions.
    """
    factors: list[int] = []
    n, f = m, 2
    while n > 1:
        if all(f % p for p in factors):  # f is the next prime
            if n % f:
                return None
            n //= f
            factors.append(f)
        f += 1
    return factors


# Each variant's shape: its prime-count rule, whether it is layered (lists an
# inner pair, which its bounds then hold on instead of its primes), the label
# and proximity rule of that bound list, and whether the entropy gate applies.
_SHAPES = {
    "standard": ("exactly two", False, "prime pair", "exact proximity bound", True),
    "multiprime": ("at least three", False, "prime cluster", "exact pairwise proximity", False),
    "compatible": ("exactly two", True, "inner pair", "exact proximity bound", True),
}
_COUNT_RULES = {"exactly two": lambda count: count == 2, "at least three": lambda count: count >= 3}


def bound_primes(key: KeyPair) -> tuple[Optional[list[int]], list[str]]:
    """The primes a key's bounds hold on, and the key's shape faults.

    The list is a layered key's inner pair and any other key's primes, or
    None when the shape leaves nothing to check: an unknown variant, a
    layered key without inner primes, or fewer than two primes.
    """
    variant, primes = key.variant, list(key.primes)
    inner = list(key.inner_primes) if key.inner_primes else None
    if variant not in _SHAPES:
        return None, [f"unknown variant {variant!r}"]
    count_rule, layered = _SHAPES[variant][:2]
    if layered and not inner:
        return None, [f"{variant} key is missing inner primes"]
    if len(primes) < 2 or (inner is not None and len(inner) < 2):
        return None, ["fewer than two primes (or inner primes) listed"]
    bound = inner if layered else primes
    faults = [f"{variant} key lists inner primes"] if inner and not layered else []
    if not all(_COUNT_RULES[count_rule](len(listed)) for listed in (primes, bound)):
        faults.append(f"{variant} key must hold {count_rule} primes")
    return bound, faults


def validate_key(key: KeyPair) -> list[str]:
    """All violated invariants of a key, empty when the key is valid."""
    variant, n, e, d = key.variant, key.n, key.e, key.d
    primes, m_modulus, residues = list(key.primes), key.m_modulus, list(key.residues)
    inner = list(key.inner_primes) if key.inner_primes else None
    gamma, beta, k = key.gamma, key.beta, key.k

    bound, failures = bound_primes(key)
    if bound is None:
        return failures
    layered, label, proximity_rule, entropy_gated = _SHAPES[variant][1:]

    phi = math.prod(p - 1 for p in primes)
    if math.prod(primes) != n:
        failures.append("N != product of primes")
    if len(set(primes)) != len(primes) or (inner and len(set(inner)) != len(inner)):
        failures.append("listed primes are not distinct")
    for p in primes:
        if not _probably_prime(p):
            failures.append(f"composite prime entry {p}")
    for p in inner or []:
        if not _probably_prime(p):
            failures.append(f"composite inner prime {p}")

    if e < 3:
        failures.append(f"public exponent e = {e} is below 3")
    if math.gcd(e, phi) != 1:
        failures.append("gcd(e, phi) != 1")
    elif phi == 0 or e * d % phi != 1:  # phi is 0 when a listed "prime" is 1
        failures.append("e*d != 1 (mod phi)")
    if d**10 <= n**3:
        failures.append("private exponent below d^10 > N^3 floor")

    if m_modulus < 2:
        failures.append(f"congruence modulus M = {m_modulus} is below 2")
    elif len(bound) != len(residues):
        failures.append("residue list length mismatch")
    else:
        for i, (p, r) in enumerate(zip(bound, residues)):
            if p % m_modulus != r:
                failures.append(f"prime[{i}] not congruent to its residue mod M")
    if len(set(residues)) != len(residues):
        failures.append("residues are not pairwise distinct mod M")
    factors = _primorial_factors(m_modulus)
    if factors is None:
        failures.append("congruence modulus M is not a product of the first primes")
    for f in factors or []:
        if f - 1 < len(residues):
            continue  # too few unit classes mod f to separate the residues
        classes = [r % f for r in residues]
        if len(set(classes)) != len(classes):
            failures.append(f"residues collide modulo factor {f} of M")

    if not 0 < beta < 1:
        failures.append(f"beta outside (0, 1): {beta}")
    if k < 16:
        failures.append(f"key size k = {k} is below 16")
    elif k > _MAX_K or k % 2:
        failures.append(f"key size k = {k} is not an even integer in [16, {_MAX_K}]")
    if not 0 < gamma < 1:
        failures.append(f"gamma outside (0, 1): {gamma}")
    elif not _pairwise_proximity_ok(bound, gamma):
        failures.append(f"{label} violates {proximity_rule}")
    elif entropy_gated and not _entropy_constraint_ok(bound[0], bound[1], gamma, beta):
        failures.append(f"{label} violates entropy budget")
    if layered:
        failures.extend(_compatible_outer_failures(primes, inner, n, k))
    return failures


def _compatible_outer_failures(primes: list[int], inner: list[int], n: int, k: int) -> list[str]:
    # The shift is recoverable: inner primes are k//2 - shift bits wide.
    if inner[0].bit_length() != inner[1].bit_length():
        return ["inner primes have unequal widths; shift is ambiguous"]
    shift = k // 2 - inner[0].bit_length()
    if shift < 1:
        return ["inner primes too wide for any positive shift"]
    out: list[str] = []
    # p' = p (mod 2^shift): p' - p is 0 or its lowest set bit, d & -d, is
    # 2^shift or above; no 2^shift is built for a k far out of range
    if any(p != q and ((p - q) & (q - p)).bit_length() <= shift for p, q in zip(primes, inner)):
        out.append("outer primes do not end in their inner primes (mod 2^shift)")
    gap = abs(primes[0] - primes[1])
    if gap < (1 << (k // 2 - shift)):
        out.append("outer gap below 2^(k/2 - shift)")
    if gap**4 <= n:
        out.append("outer gap within Fermat-factoring reach (|p'-q'|^4 <= N)")
    return out
