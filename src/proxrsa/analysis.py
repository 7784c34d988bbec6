"""Security metrics for a key or prime pair.

Quantum side: the exact minimal angular separation of period-finding
phases gcd(p-1, q-1) / ((p-1)(q-1)), the state distinguishability bound
2*exp(-(p-q)^2 / (8*min(p,q))), and rough cost estimates
(gamma^-2 * N measurements, gamma^-1 * k^1.5 operations, mutual
information 2*gamma, success probability 2^-H2).  Asymptotic estimates use
constant 1 and are labeled estimates; nothing here asserts a direction.
The estimates are 96-bit binary numbers (man, exp), man * 2**exp, replayed
on integers by proxrsa.reals as mpmath computed them at 96 bits: k^1.5 is
the cube of a 106-bit square root, and 2^t is exp(t * ln 2) with ln 2 at
106 bits.  A pair, not a Fraction, because exp(-(p-q)^2 / (8*min(p,q)))
can lie below 2**-(2**200).

Classical side: exact Fermat-factoring iteration counts, the d^10 > N^3
private-exponent floor, and the |p-q|^4 > N gap comparison, all in exact
integer arithmetic.

The lattice embedding maps a residue to the coefficient vector
c[i] = floor(value * Re(zeta^i) / sqrt(N)) with zeta = exp(2*pi*i/m_root),
decided in exact integer arithmetic.  The real part is taken before
flooring (flooring a complex number is undefined).  By Niven's theorem
cos^2 of the angle is rational only at multiples of 1/8 and 1/12 of a
turn; there one isqrt decides the floor, exact integer quotients
included.  At every other angle the quotient is irrational, and
fixed-point cosines with a stated error bound bracket it until both ends
of the bracket floor alike.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import reals, validate
from .entropy import h2_estimate
from .errors import NumericalError, ParameterError
from .keyfile import KeyPair

# Working precision of the quantum estimates, in bits.
BITS = 96

Binary = tuple[int, int]  # (man, exp): man * 2**exp


class QuantumReport(NamedTuple):
    """Order estimates and exact quantities for one prime pair."""

    angular_separation: Fraction
    angular_bound: Binary  # gamma / sqrt(N)
    distinguishability_bound: Binary
    measurement_estimate: Binary  # gamma^-2 * N
    query_estimate: Binary  # gamma^-1
    quantum_ops_estimate: Binary  # gamma^-1 * k^1.5
    mutual_info_bound: Binary  # 2 * gamma
    succ_prob_bound: Binary  # 2^-H2
    fano_lower_bound: Optional[Binary] = None  # kappa * k * log2(k) / eps, when kappa given

    def to_dict(self) -> dict:
        def fmt(x):
            return None if x is None else reals.to_str(x, 24)

        fields = self._asdict()
        sep = fields.pop("angular_separation")
        return dict(
            {name: fmt(x) for name, x in fields.items()},
            angular_separation=f"{sep.numerator}/{sep.denominator}",
        )


# Classical factoring costs are quoted symbolically only; no constants are
# attached and nothing evaluates them.
GNFS_COST_SYMBOLIC = "L_N[1/3, cbrt(64/9)]"
ECM_COST_SYMBOLIC = "exp((sqrt(2) + o(1)) * sqrt(ln p * ln ln p))"


class ClassicalReport(NamedTuple):
    """Classical attack posture; Fermat fields are None for multi-prime keys."""

    wiener_safe: bool
    fermat_applicable: bool
    fermat_iterations_exact: Optional[int]
    fermat_feasible: Optional[bool]
    gap_exceeds_quarter_root: Optional[bool]

    def to_dict(self) -> dict:
        iterations = self.fermat_iterations_exact
        return dict(
            self._asdict(),
            fermat_iterations_exact=None if iterations is None else hex(iterations),
            gnfs_cost_symbolic=GNFS_COST_SYMBOLIC,
            ecm_cost_symbolic=ECM_COST_SYMBOLIC,
        )


def angular_separation(p: int, q: int) -> Fraction:
    """Minimum nonzero |s/(p-1) - t/(q-1)| = gcd(p-1, q-1) / ((p-1)(q-1))."""
    if p == q:
        raise ParameterError("primes must be distinct")
    for v in (p, q):
        if not validate._probably_prime(v):
            raise ParameterError(f"{v} is not prime")
    g = math.gcd(p - 1, q - 1)
    return Fraction(g, (p - 1) * (q - 1))


def distinguishability_bound(p: int, q: int) -> Binary:
    """Trace-distance bound 2*exp(-(p-q)^2 / (8*min(p,q)))."""
    if p == q:
        raise ParameterError("inputs must be distinct")
    exponent = reals.div(reals.binary(-((p - q) ** 2), BITS), (8 * min(p, q), 0), BITS)
    man, exp = reals.exp(exponent, BITS)
    return man, exp + 1


def _two_to(t: Binary) -> Binary:
    """mpf(2) ** t for -1 <= t <= 0: exact at an integer, 1/sqrt(2) at -1/2,
    else exp(t * ln 2) with ln 2 at BITS + 10 bits."""
    man, exp = t
    if exp >= 0:
        return 1, man << exp
    if t == (-1, -1):
        return reals.div((1, 0), reals.sqrt((1, 1), BITS + 10), BITS)
    ln2 = reals.ln((1, 1), BITS + 10)
    return reals.exp((man * ln2[0], exp + ln2[1]), BITS)


def complexity_report(
    p: int,
    q: int,
    gamma: Fraction,
    k: Optional[int] = None,
    kappa: Optional[float] = None,
    eps_param: Optional[float] = None,
) -> QuantumReport:
    """All quantum-side metrics for the pair, asymptotic constants set to 1.

    fano_lower_bound is filled when the caller supplies a positive kappa
    and eps_param; eps_param alone is refused.  No procedure computes kappa.
    """
    n = p * q
    if k is None:
        k = n.bit_length()
    if k < 1:
        raise ParameterError(f"k must be >= 1: {k}")
    g = reals.binary(gamma, BITS)
    fano = None
    if kappa is None and eps_param is not None:
        raise ParameterError("fano bound needs kappa with eps_param")
    if kappa is not None:
        if eps_param is None or eps_param <= 0 or kappa <= 0:
            raise ParameterError("fano bound needs a positive kappa and eps_param")
        if not (math.isfinite(kappa) and math.isfinite(eps_param)):
            raise ParameterError("fano bound needs a finite kappa and eps_param")
        log2_k = reals.log2(reals.binary(k, k.bit_length()), BITS)  # k held exactly
        kappa_k = reals.mul(reals.binary(kappa, BITS), (k, 0), BITS)
        fano = reals.div(reals.mul(kappa_k, log2_k, BITS), reals.binary(eps_param, BITS), BITS)
    separation = angular_separation(p, q)
    root_k = reals.sqrt(reals.binary(k, BITS), BITS + 10)  # k**1.5 is this root cubed
    h2 = h2_estimate(p, q)
    return QuantumReport(
        angular_separation=separation,
        angular_bound=reals.div(g, reals.sqrt(reals.binary(n, BITS), BITS), BITS),
        distinguishability_bound=distinguishability_bound(p, q),
        measurement_estimate=reals.div(reals.binary(n, BITS), reals.mul(g, g, BITS), BITS),
        query_estimate=reals.div((1, 0), g, BITS),
        quantum_ops_estimate=reals.div(reals.rnd(root_k[0] ** 3, 1, 3 * root_k[1], BITS), g, BITS),
        mutual_info_bound=(g[0], g[1] + 1),
        succ_prob_bound=_two_to(reals.rnd(-h2.numerator, h2.denominator, 0, BITS)),
        fano_lower_bound=fano,
    )


def fermat_iterations_analytic(p: int, q: int) -> int:
    """Iteration at which Fermat's method on N = p*q finds x^2 - N square,
    counting x = ceil(sqrt(N)) as the first: (p+q)/2 - ceil(sqrt(N)) + 1,
    with ceil(sqrt(N)) = isqrt(N - 1) + 1."""
    return (p + q) // 2 - math.isqrt(p * q - 1)


def classical_report(key: KeyPair, fermat_budget: int) -> ClassicalReport:
    """Classical attack posture of a key; exact integer comparisons throughout."""
    if fermat_budget < 1:
        raise ParameterError("fermat_budget must be >= 1")
    n, d = key.n, key.d
    wiener_safe = d**10 > n**3
    if len(key.primes) != 2:
        return ClassicalReport(
            wiener_safe=wiener_safe,
            fermat_applicable=False,
            fermat_iterations_exact=None,
            fermat_feasible=None,
            gap_exceeds_quarter_root=None,
        )
    p, q = key.primes
    iters = fermat_iterations_analytic(p, q)
    gap = abs(p - q)
    return ClassicalReport(
        wiener_safe=wiener_safe,
        fermat_applicable=True,
        fermat_iterations_exact=iters,
        fermat_feasible=iters <= fermat_budget,
        gap_exceeds_quarter_root=gap**4 > n,
    )


# cos^2(2*pi*t) = (1 + cos(2*pi*s)) / 2 with s = 2t, as (num, den), by the
# denominator of s.  By Niven's theorem cos(2*pi*s) is rational only for the
# denominators 1, 2, 3, 4 and 6, where it is 1, -1, -1/2, 0 and 1/2.
_RATIONAL_COS_SQUARED = {1: (1, 1), 2: (0, 1), 3: (1, 4), 4: (1, 2), 6: (3, 4)}


def _cos_fixed(num: int, den: int, w: int) -> int:
    """cos(2*pi*num/den) * 2**w for 0 <= num/den <= 1/4, off by less than
    4*w for w >= 64: theta <= pi/2 is off by under 2*w + 21 (from pi_fixed),
    theta^2 by under 1 (cos moves half as much), and each of the under
    w/2 + 2 Taylor terms by under 2, the tail by under 3."""
    theta = 2 * num * reals.pi_fixed(w) // den
    square = theta * theta >> w
    total, term, j = 0, 1 << w, 0
    while term:
        total += -term if j & 1 else term
        j += 1
        term = (term * square >> w) // ((2 * j - 1) * 2 * j)
    return total


def _floor_cos_ratio(value: int, n_modulus: int, k: int, m: int) -> int:
    """floor(value * cos(2*pi*k/m) / sqrt(N)) for 0 <= k < m, in integers:
    an isqrt where cos^2 is rational, else a bracket from _cos_fixed that
    doubles its width until both ends floor alike (the quotient is then
    irrational, so never an integer)."""
    negative = m < 4 * k < 3 * m
    square = _RATIONAL_COS_SQUARED.get(m // math.gcd(2 * k, m))
    if square is not None:
        num, den = value * value * square[0], n_modulus * square[1]
        mag = math.isqrt(num // den)
        if not negative:
            return mag
        return -mag if mag * mag * den == num else -mag - 1
    a = min(k, m - k)
    a, b = (a, m) if 4 * a < m else (m - 2 * a, 2 * m)  # |cos(2*pi*k/m)| = cos(2*pi*a/b)
    w = max(2 * value.bit_length() - n_modulus.bit_length(), 0) // 2 + 64
    for _ in range(8):  # widths tried before giving up
        c, scale = _cos_fixed(a, b, w), n_modulus << 2 * w
        lo, hi = (math.isqrt((value * max(c + d, 0)) ** 2 // scale) for d in (-4 * w, 4 * w))
        if lo == hi:
            return -lo - 1 if negative else lo
        w *= 2
    raise NumericalError(f"lattice coefficient undecided at {w // 2} bits")


def lattice_embed(value: int, n_modulus: int, n: int, m_root: int) -> list[int]:
    """Coefficient vector floor(value * Re(zeta^i) / sqrt(N)), i = 0..n-1,
    with floors toward -infinity, decided exactly."""
    if not 1 <= value < n_modulus:
        raise ParameterError("value must satisfy 1 <= value < N")
    if n < 1 or m_root < 1:
        raise ParameterError("n and m_root must be >= 1")
    row = [_floor_cos_ratio(value, n_modulus, k, m_root) for k in range(min(n, m_root))]
    return [row[i % m_root] for i in range(n)]


def embedding_gap_norm(
    p: int, q: int, n_modulus: int, n: int, m_root: int, gamma: Optional[Fraction] = None
) -> tuple[float, Optional[bool]]:
    """Euclidean norm of psi(p) - psi(q), and (when gamma given) whether it
    stays under gamma * sqrt(n).  The comparison is reported, not asserted."""
    psi_p, psi_q = (lattice_embed(v, n_modulus, n, m_root) for v in (p, q))
    sq = sum((a - b) ** 2 for a, b in zip(psi_p, psi_q))
    shift = max(sq.bit_length() - 1000, 0) // 2  # so no int past the float range meets sqrt
    try:
        norm = math.ldexp(math.sqrt(sq >> 2 * shift), shift)
    except OverflowError:
        raise ParameterError("embedding gap norm exceeds the float range") from None
    if gamma is None:
        return norm, None
    # norm < gamma*sqrt(n)  <=>  den^2 * norm^2 < num^2 * n, exactly.
    return norm, gamma.denominator**2 * sq < gamma.numerator**2 * n
