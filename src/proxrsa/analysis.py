"""Security metrics for a key or prime pair.

Quantum side: the exact minimal angular separation of period-finding
phases gcd(p-1, q-1) / ((p-1)(q-1)), the state distinguishability bound
2*exp(-(p-q)^2 / (8*min(p,q))), and rough cost estimates
(gamma^-2 * N measurements, gamma^-1 * k^1.5 operations, mutual
information 2*gamma, success probability 2^-H2).  Asymptotic estimates use
constant 1 and are labeled estimates; nothing here asserts a direction.

Classical side: exact Fermat-factoring iteration counts, the d^10 > N^3
private-exponent floor, and the |p-q|^4 > N gap comparison, all in exact
integer arithmetic.

The lattice embedding maps a residue to the coefficient vector
c[i] = floor(value * Re(zeta^i) / sqrt(N)) with zeta = exp(2*pi*i/m_root).
The real part is taken before flooring (flooring a complex number is
undefined).  Angles whose cosine is a rational multiple of sqrt(d),
d in {1, 2, 3} (0, +-1/2, +-1, +-sqrt(2)/2, +-sqrt(3)/2), are evaluated in
exact integer arithmetic: they are the only angles where
value * cos / sqrt(N) can land exactly on an integer (for N = d * square),
so rounding noise there could flip a floor.  Every other cosine has degree
at least 2 over Q(sqrt(N)) in a way that keeps the quotient off the
integers, and mpmath at the requested precision decides it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .entropy import h2_estimate
from .errors import ParameterError
from .keyfile import KeyPair
from .numerics import is_probable_prime

# turn -> (a, d, c) with cos(2*pi*turn) = a * sqrt(d) / c.
_SURD_COS = {
    Fraction(0, 1): (1, 1, 1),
    Fraction(1, 12): (1, 3, 2),
    Fraction(1, 8): (1, 2, 2),
    Fraction(1, 6): (1, 1, 2),
    Fraction(1, 4): (0, 1, 1),
    Fraction(1, 3): (-1, 1, 2),
    Fraction(3, 8): (-1, 2, 2),
    Fraction(5, 12): (-1, 3, 2),
    Fraction(1, 2): (-1, 1, 1),
    Fraction(7, 12): (-1, 3, 2),
    Fraction(5, 8): (-1, 2, 2),
    Fraction(2, 3): (-1, 1, 2),
    Fraction(3, 4): (0, 1, 1),
    Fraction(5, 6): (1, 1, 2),
    Fraction(7, 8): (1, 2, 2),
    Fraction(11, 12): (1, 3, 2),
}


class QuantumReport(NamedTuple):
    """Order estimates and exact quantities for one prime pair."""

    angular_separation: Fraction
    angular_bound: mpf  # gamma / sqrt(N)
    distinguishability_bound: mpf
    measurement_estimate: mpf  # gamma^-2 * N
    query_estimate: mpf  # gamma^-1
    quantum_ops_estimate: mpf  # gamma^-1 * k^1.5
    mutual_info_bound: mpf  # 2 * gamma
    succ_prob_bound: mpf  # 2^-H2
    fano_lower_bound: Optional[mpf] = None  # kappa * k * log2(k) / eps, when kappa given

    def to_dict(self) -> dict:
        def fmt(x):
            return None if x is None else mp.nstr(x, 24, strip_zeros=True)

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
        if not is_probable_prime(v, 32):
            raise ParameterError(f"{v} is not prime")
    g = math.gcd(p - 1, q - 1)
    return Fraction(g, (p - 1) * (q - 1))


def distinguishability_bound(p: int, q: int) -> mpf:
    """Trace-distance bound 2*exp(-(p-q)^2 / (8*min(p,q)))."""
    if p == q:
        raise ParameterError("inputs must be distinct")
    with mp.workprec(96):
        return 2 * mp.exp(-mpf((p - q) ** 2) / (8 * min(p, q)))


def complexity_report(
    p: int,
    q: int,
    gamma: Fraction,
    k: Optional[int] = None,
    kappa: Optional[float] = None,
    eps_param: Optional[float] = None,
) -> QuantumReport:
    """All quantum-side metrics for the pair, asymptotic constants set to 1.

    fano_lower_bound is only filled when the caller supplies kappa (and a
    positive eps_param); no procedure computes kappa here.
    """
    n = p * q
    if k is None:
        k = n.bit_length()
    with mp.workprec(96):
        g = mpf(gamma.numerator) / mpf(gamma.denominator)
        fano = None
        if kappa is not None:
            if eps_param is None or eps_param <= 0:
                raise ParameterError("fano bound needs a positive eps_param")
            fano = mpf(kappa) * k * mp.log(k, 2) / mpf(eps_param)
        return QuantumReport(
            angular_separation=angular_separation(p, q),
            angular_bound=g / mp.sqrt(mpf(n)),
            distinguishability_bound=distinguishability_bound(p, q),
            measurement_estimate=mpf(n) / (g * g),
            query_estimate=1 / g,
            quantum_ops_estimate=mpf(k) ** mpf("1.5") / g,
            mutual_info_bound=2 * g,
            succ_prob_bound=mpf(2) ** (-h2_estimate(p, q)),
            fano_lower_bound=fano,
        )


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def fermat_iterations_analytic(p: int, q: int) -> int:
    """Iteration at which Fermat's method on N = p*q finds x^2 - N square,
    counting x = ceil(sqrt(N)) as the first: (p+q)/2 - ceil(sqrt(N)) + 1."""
    return (p + q) // 2 - _ceil_sqrt(p * q) + 1


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


def _floor_surd_ratio(a_num: int, radicand: int, den: int) -> int:
    """floor(a_num * sqrt(radicand) / den) in exact integer arithmetic (den > 0)."""
    square = a_num * a_num * radicand
    mag = math.isqrt(square // (den * den))
    if a_num >= 0 or mag * mag * den * den == square:
        return mag if a_num >= 0 else -mag
    return -mag - 1


def lattice_embed(
    value: int, n_modulus: int, n: int, m_root: int, precision_bits: int = 128
) -> list[int]:
    """Coefficient vector floor(value * Re(zeta^i) / sqrt(N)), i = 0..n-1,
    with floors toward -infinity."""
    if not 1 <= value < n_modulus:
        raise ParameterError("value must satisfy 1 <= value < N")
    if n < 1 or m_root < 1:
        raise ParameterError("n and m_root must be >= 1")

    coeffs: list[int] = []
    with mp.workprec(precision_bits):
        root_n = mp.sqrt(mpf(n_modulus))
        for i in range(n):
            turn = Fraction(i % m_root, m_root)
            surd = _SURD_COS.get(turn)
            if surd is not None:
                # value * a*sqrt(d)/c / sqrt(N) = value*a * sqrt(d*N) / (c*N)
                a, d, c = surd
                coeffs.append(_floor_surd_ratio(value * a, d * n_modulus, c * n_modulus))
            else:
                cos_i = mp.cos(2 * mp.pi * turn.numerator / turn.denominator)
                coeffs.append(int(mp.floor(mpf(value) * cos_i / root_n)))
    return coeffs


def embedding_gap_norm(
    p: int, q: int, n_modulus: int, n: int, m_root: int, gamma: Optional[Fraction] = None
) -> tuple[float, Optional[bool]]:
    """Euclidean norm of psi(p) - psi(q), and (when gamma given) whether it
    stays under gamma * sqrt(n).  The comparison is reported, not asserted."""
    psi_p, psi_q = (lattice_embed(v, n_modulus, n, m_root) for v in (p, q))
    sq = sum((a - b) ** 2 for a, b in zip(psi_p, psi_q))
    if gamma is None:
        return math.sqrt(sq), None
    # norm < gamma*sqrt(n)  <=>  den^2 * norm^2 < num^2 * n, exactly.
    return math.sqrt(sq), gamma.denominator**2 * sq < gamma.numerator**2 * n
