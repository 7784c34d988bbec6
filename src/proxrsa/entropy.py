"""Collision-entropy model of a close prime pair.

Everything is driven by the normalized gap delta = |p - q| / sqrt(p*q).
The modeled state has two significant eigenvalues, giving the purity lower
bound

    purity(delta) = (1 + sqrt(1 - 4*delta**2 / (2 + delta)**2)) / 2

and the collision entropy estimate H2 = -log2(purity).  The closed-form
cap used for comparison is 2*log2(1 + gamma/2), and log2(m) more for an
m-prime modulus.

All entropies are in bits (base-2 logarithms).  Real arithmetic runs under
mpmath at PRECISION_BITS of working precision, well above the 128-bit
floor the reports promise.  mpmath is imported by the functions that
compute reals, so it loads on the first real-valued call, not with the
module: shor_sim uses only the exact predicate and never loads it.
Proximity decisions against a rational gamma are made in exact integer
arithmetic, never floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import ParameterError

if TYPE_CHECKING:
    from mpmath import mpf

PRECISION_BITS = 192

Real = Union[int, float, Fraction, "mpf"]


def _to_mpf(x: Real) -> mpf:
    from mpmath import mpf

    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def _log2(x: mpf) -> mpf:
    from mpmath import mp

    return mp.log(x, 2)


class EntropyReport(NamedTuple):
    """Modeled entropy data for one key's prime set.

    delta is the realized normalized gap (max over pairs for multi-prime),
    h2_bound_bits the gamma-parameterized model cap, budget_bits the
    beta*log2(1/gamma) threshold the estimate is tested against (None when
    no such test applies), constraint_ok the verdict of the generation
    constraint.
    """

    delta: mpf
    purity_lower: mpf
    h2_estimate_bits: mpf
    h2_bound_bits: mpf
    budget_bits: Optional[mpf]
    constraint_ok: bool

    def to_dict(self) -> dict:
        from mpmath import mp

        def fmt(x: Optional[mpf]) -> Optional[str]:
            return None if x is None else mp.nstr(x, 30, strip_zeros=True)

        fields = self._asdict()
        ok = fields.pop("constraint_ok")
        return dict({name: fmt(x) for name, x in fields.items()}, constraint_ok=ok)


def proximity_delta(p: int, q: int) -> mpf:
    """Normalized gap |p - q| / sqrt(p*q) for distinct integers >= 2."""
    from mpmath import mp, mpf

    if p < 2 or q < 2:
        raise ParameterError("inputs must be >= 2")
    if p == q:
        raise ParameterError("inputs must be distinct")
    with mp.workprec(PRECISION_BITS):
        return mpf(abs(p - q)) / mp.sqrt(mpf(p) * mpf(q))


def purity_lower(delta: Real) -> mpf:
    """Two-eigenvalue purity floor (1 + sqrt(1 - 4d^2/(2+d)^2)) / 2 on [0, 2]."""
    from mpmath import mp

    with mp.workprec(PRECISION_BITS):
        d = _to_mpf(delta)
        if d < 0 or d > 2:
            raise ParameterError(f"delta outside [0, 2]: {delta}")
        radicand = 1 - 4 * d * d / ((2 + d) * (2 + d))
        return (1 + mp.sqrt(radicand)) / 2


def h2_from_delta(delta: Real) -> mpf:
    """Collision entropy -log2(purity) of the two-eigenvalue model, in bits."""
    from mpmath import mp

    with mp.workprec(PRECISION_BITS):
        return -_log2(purity_lower(delta))


def h2_estimate(p: int, q: int) -> mpf:
    """Modeled collision entropy of the pair (p, q), in bits."""
    return h2_from_delta(proximity_delta(p, q))


def h2_upper_bound(gamma: Real) -> mpf:
    """Closed-form entropy cap 2*log2(1 + gamma/2) for gamma >= 0."""
    from mpmath import mp

    with mp.workprec(PRECISION_BITS):
        g = _to_mpf(gamma)
        if g < 0:
            raise ParameterError("gamma must be non-negative")
        return 2 * _log2(1 + g / 2)


def multiprime_h2_bound(m: int, gamma: Real) -> mpf:
    """Entropy cap log2(m) + 2*log2(1 + gamma/2) for an m-prime modulus."""
    from mpmath import mp, mpf

    if m < 2:
        raise ParameterError("m must be >= 2")
    with mp.workprec(PRECISION_BITS):
        return _log2(mpf(m)) + h2_upper_bound(gamma)


def proximity_holds_exact(p: int, q: int, gamma: Fraction) -> bool:
    """Decide |p - q| < gamma*sqrt(p*q) in exact integer arithmetic.

    Equivalent to den^2 * (p-q)^2 < num^2 * p * q, so boundary cases can
    never be misclassified by rounding.
    """
    num, den = gamma.numerator, gamma.denominator
    return den * den * (p - q) * (p - q) < num * num * p * q


def entropy_budget_bits(gamma: Fraction, beta: float) -> mpf:
    """Generation threshold beta * log2(1/gamma)."""
    from mpmath import mp

    with mp.workprec(PRECISION_BITS):
        return _to_mpf(beta) * _log2(1 / _to_mpf(gamma))


def check_entropy_constraint(
    p: int, q: int, gamma: Union[Fraction, float], beta: float
) -> tuple[bool, EntropyReport]:
    """Generation constraint: delta < gamma exactly and H2 < beta*log2(1/gamma).

    gamma must lie in (0, 1) and beta in (0, 1).  The report carries every
    intermediate value so callers can embed it as-is.
    """
    from mpmath import mp

    if not isinstance(gamma, Fraction):
        gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must lie in (0, 1): {gamma}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1): {beta}")

    delta = proximity_delta(p, q)
    prox_ok = proximity_holds_exact(p, q, gamma)
    purity = purity_lower(delta)
    with mp.workprec(PRECISION_BITS):
        h2 = -_log2(purity)
    budget = entropy_budget_bits(gamma, beta)
    ok = prox_ok and h2 < budget
    report = EntropyReport(
        delta=delta,
        purity_lower=purity,
        h2_estimate_bits=h2,
        h2_bound_bits=h2_upper_bound(gamma),
        budget_bits=budget,
        constraint_ok=ok,
    )
    return ok, report
