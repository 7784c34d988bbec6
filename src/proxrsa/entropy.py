"""Collision-entropy model of a close prime pair.

Everything is driven by the normalized gap delta = |p - q| / sqrt(p*q).
The modeled state has two significant eigenvalues, giving the purity lower
bound

    purity(delta) = (1 + sqrt(1 - 4*delta**2 / (2 + delta)**2)) / 2

and the collision entropy estimate H2 = -log2(purity).  The closed-form
cap used for comparison is 2*log2(1 + gamma/2), and log2(m) more for an
m-prime modulus.

All entropies are in bits (base-2 logarithms).  This module states the
model and rounds every step through proxrsa.reals at PRECISION_BITS bits,
well above the 128-bit floor the reports promise, as the mpmath run these
reports were first made with did, so the report strings and the
generator's H2 < budget gate are that run's.  The public functions take an
int, float or Fraction (rounded by reals.binary) and return the exact
binary value as a Fraction.  proximity_holds_exact (from numerics) decides
proximity against a rational gamma in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from . import reals
from .errors import ParameterError
from .numerics import proximity_holds_exact

PRECISION_BITS = 192

Real = Union[int, float, Fraction]


def _fraction(x: tuple[int, int]) -> Fraction:
    man, exp = x
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


class EntropyReport(NamedTuple):
    """Modeled entropy data for one key's prime set.

    delta is the realized normalized gap (max over pairs for multi-prime),
    h2_bound_bits the gamma-parameterized model cap, budget_bits the
    beta*log2(1/gamma) threshold the estimate is tested against (None when
    no such test applies), constraint_ok the verdict of the generation
    constraint.  Each value is the exact 192-bit binary number.
    """

    delta: Fraction
    purity_lower: Fraction
    h2_estimate_bits: Fraction
    h2_bound_bits: Fraction
    budget_bits: Optional[Fraction]
    constraint_ok: bool

    def to_dict(self) -> dict:
        def fmt(x: Optional[Fraction]) -> Optional[str]:
            if x is None:
                return None
            return reals.to_str(reals.rnd(x.numerator, x.denominator, 0, PRECISION_BITS), 30)

        fields = self._asdict()
        ok = fields.pop("constraint_ok")
        return dict({name: fmt(x) for name, x in fields.items()}, constraint_ok=ok)


def _delta(p: int, q: int) -> tuple[int, int]:
    if p < 2 or q < 2:
        raise ParameterError("inputs must be >= 2")
    if p == q:
        raise ParameterError("inputs must be distinct")
    bits = PRECISION_BITS
    product = reals.mul(reals.binary(p, bits), reals.binary(q, bits), bits)
    return reals.div(reals.binary(abs(p - q), bits), reals.sqrt(product, bits), bits)


def _purity(d: tuple[int, int]) -> tuple[int, int]:
    if d[0] < 0 or _fraction(d) > 2:
        raise ParameterError(f"delta outside [0, 2]: {reals.to_str(d, 15)}")
    bits = PRECISION_BITS
    two_plus = reals.add(d, (1, 1), bits)
    ratio = reals.div(
        reals.mul((d[0], d[1] + 2), d, bits), reals.mul(two_plus, two_plus, bits), bits
    )
    root = reals.sqrt(reals.add((1, 0), (-ratio[0], ratio[1]), bits), bits)
    man, exp = reals.add((1, 0), root, bits)
    return man, exp - 1


def _h2(purity: tuple[int, int]) -> tuple[int, int]:
    man, exp = reals.log2(purity, PRECISION_BITS)
    return -man, exp


def proximity_delta(p: int, q: int) -> Fraction:
    """Normalized gap |p - q| / sqrt(p*q) for distinct integers >= 2."""
    return _fraction(_delta(p, q))


def purity_lower(delta: Real) -> Fraction:
    """Two-eigenvalue purity floor (1 + sqrt(1 - 4d^2/(2+d)^2)) / 2 on [0, 2]."""
    return _fraction(_purity(reals.binary(delta, PRECISION_BITS)))


def h2_from_delta(delta: Real) -> Fraction:
    """Collision entropy -log2(purity) of the two-eigenvalue model, in bits."""
    return _fraction(_h2(_purity(reals.binary(delta, PRECISION_BITS))))


def h2_estimate(p: int, q: int) -> Fraction:
    """Modeled collision entropy of the pair (p, q), in bits."""
    return _fraction(_h2(_purity(_delta(p, q))))


@lru_cache(maxsize=64)
def _cap(gamma: Real) -> tuple[int, int]:
    g = reals.binary(gamma, PRECISION_BITS)
    if g[0] < 0:
        raise ParameterError("gamma must be non-negative")
    man, exp = reals.log2(reals.add((1, 0), (g[0], g[1] - 1), PRECISION_BITS), PRECISION_BITS)
    return man, exp + 1


def h2_upper_bound(gamma: Real) -> Fraction:
    """Closed-form entropy cap 2*log2(1 + gamma/2) for gamma >= 0."""
    return _fraction(_cap(gamma))


def multiprime_h2_bound(m: int, gamma: Real) -> Fraction:
    """Entropy cap log2(m) + 2*log2(1 + gamma/2) for an m-prime modulus."""
    if m < 2:
        raise ParameterError("m must be >= 2")
    log_m = reals.log2(reals.binary(m, PRECISION_BITS), PRECISION_BITS)
    return _fraction(reals.add(log_m, _cap(gamma), PRECISION_BITS))


@lru_cache(maxsize=64)
def _budget(gamma: Fraction, beta: float) -> tuple[int, int]:
    """Generation threshold beta * log2(1/gamma)."""
    bits = PRECISION_BITS
    inverse = reals.div((1, 0), reals.binary(gamma, bits), bits)
    return reals.mul(reals.binary(beta, bits), reals.log2(inverse, bits), bits)


def entropy_budget(gamma: Fraction, beta: float) -> Fraction:
    """The H2 budget beta*log2(1/gamma), in bits, that generation tests against."""
    return _fraction(_budget(gamma, beta))


def check_entropy_constraint(
    p: int, q: int, gamma: Union[Fraction, float], beta: float
) -> tuple[bool, EntropyReport]:
    """Generation constraint: delta < gamma exactly and H2 < beta*log2(1/gamma).

    gamma must lie in (0, 1) and beta in (0, 1).  The report carries every
    intermediate value so callers can embed it as-is.
    """
    if not isinstance(gamma, Fraction):
        gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must lie in (0, 1): {gamma}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must lie in (0, 1): {beta}")

    delta = _delta(p, q)
    prox_ok = proximity_holds_exact(p, q, gamma)
    purity = _purity(delta)
    h2 = _fraction(_h2(purity))
    budget = entropy_budget(gamma, beta)
    ok = prox_ok and h2 < budget
    report = EntropyReport(
        delta=_fraction(delta),
        purity_lower=_fraction(purity),
        h2_estimate_bits=h2,
        h2_bound_bits=h2_upper_bound(gamma),
        budget_bits=budget,
        constraint_ok=ok,
    )
    return ok, report
