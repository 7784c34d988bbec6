"""The entropy and quantum report formulas as mpmath computed them.

Test-only oracle for proxrsa.reals: the bodies below are the mpmath code
the package ran before its reports moved to integer arithmetic, kept
verbatim (EntropyReport and QuantumReport become plain tuples of mpf).
The package's values must equal these as binary numbers, and its strings
must equal mp.nstr of these.
"""

import itertools
from fractions import Fraction

from mpmath import mp, mpf

PRECISION_BITS = 192


def as_binary(x):
    """(man, exp), man * 2**exp, of an mpf or a raw mpf tuple."""
    sign, man, exp, _ = getattr(x, "_mpf_", x)
    return ((-man if sign else man), exp) if man else (0, 0)


def as_fraction(x):
    man, exp = as_binary(x)
    return Fraction(man) * Fraction(2) ** exp


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def _log2(x):
    return mp.log(x, 2)


def proximity_delta(p, q):
    with mp.workprec(PRECISION_BITS):
        return mpf(abs(p - q)) / mp.sqrt(mpf(p) * mpf(q))


def purity_lower(delta):
    with mp.workprec(PRECISION_BITS):
        d = _to_mpf(delta)
        if d < 0 or d > 2:
            raise ValueError(f"delta outside [0, 2]: {delta}")
        radicand = 1 - 4 * d * d / ((2 + d) * (2 + d))
        return (1 + mp.sqrt(radicand)) / 2


def h2_from_delta(delta):
    with mp.workprec(PRECISION_BITS):
        return -_log2(purity_lower(delta))


def h2_estimate(p, q):
    return h2_from_delta(proximity_delta(p, q))


def h2_upper_bound(gamma):
    with mp.workprec(PRECISION_BITS):
        g = _to_mpf(gamma)
        return 2 * _log2(1 + g / 2)


def multiprime_h2_bound(m, gamma):
    with mp.workprec(PRECISION_BITS):
        return _log2(mpf(m)) + h2_upper_bound(gamma)


def entropy_budget_bits(gamma, beta):
    with mp.workprec(PRECISION_BITS):
        return _to_mpf(beta) * _log2(1 / _to_mpf(gamma))


def check_entropy_constraint(p, q, gamma, beta):
    """(ok, (delta, purity, h2, cap, budget)) as mpf."""
    delta = proximity_delta(p, q)
    num, den = gamma.numerator, gamma.denominator
    prox_ok = den * den * (p - q) * (p - q) < num * num * p * q
    purity = purity_lower(delta)
    with mp.workprec(PRECISION_BITS):
        h2 = -_log2(purity)
    budget = entropy_budget_bits(gamma, beta)
    ok = prox_ok and h2 < budget
    return ok, (delta, purity, h2, h2_upper_bound(gamma), budget)


def dominant_pair_report(primes, gamma, m):
    """(delta, purity, h2, cap) of the worst pair of a multi-prime key."""
    worst = max(proximity_delta(p, q) for p, q in itertools.combinations(primes, 2))
    return worst, purity_lower(worst), h2_from_delta(worst), multiprime_h2_bound(m, gamma)


def entropy_strings(values):
    return [None if x is None else mp.nstr(x, 30, strip_zeros=True) for x in values]


def distinguishability_bound(p, q):
    with mp.workprec(96):
        return 2 * mp.exp(-mpf((p - q) ** 2) / (8 * min(p, q)))


def complexity_values(p, q, gamma, k=None, kappa=None, eps_param=None):
    """The eight mpf fields of the quantum report, angular_bound to fano."""
    n = p * q
    if k is None:
        k = n.bit_length()
    with mp.workprec(96):
        g = mpf(gamma.numerator) / mpf(gamma.denominator)
        fano = None
        if kappa is not None:
            fano = mpf(kappa) * k * mp.log(k, 2) / mpf(eps_param)
        return (
            g / mp.sqrt(mpf(n)),
            distinguishability_bound(p, q),
            mpf(n) / (g * g),
            1 / g,
            mpf(k) ** mpf("1.5") / g,
            2 * g,
            mpf(2) ** (-h2_estimate(p, q)),
            fano,
        )


def quantum_strings(values):
    return [None if x is None else mp.nstr(x, 24, strip_zeros=True) for x in values]
