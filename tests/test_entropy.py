from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import mpmath_oracle as oracle
from mpmath_oracle import as_fraction
from proxrsa import entropy
from proxrsa.errors import ParameterError


def oracle_delta(p, q, prec=400):
    """Independent high-precision evaluation of |p-q|/sqrt(pq)."""
    with mp.workprec(prec):
        return mpf(abs(p - q)) / mp.sqrt(mpf(p) * mpf(q))


def oracle_purity(delta, prec=400):
    with mp.workprec(prec):
        d = mpf(delta)
        return (1 + mp.sqrt(1 - 4 * d * d / (2 + d) ** 2)) / 2


def test_proximity_delta_11_13():
    got = entropy.proximity_delta(11, 13)
    assert got == as_fraction(oracle.proximity_delta(11, 13))
    assert abs(got - as_fraction(oracle_delta(11, 13))) < Fraction(1, 2**150)
    assert abs(float(got) - 0.167248) < 1e-6


def test_proximity_delta_rejects_equal_inputs():
    with pytest.raises(ParameterError):
        entropy.proximity_delta(17, 17)


def test_proximity_delta_defined_for_non_primes():
    # the formula itself carries no primality requirement
    assert entropy.proximity_delta(3, 12) == Fraction(9, 6)


def test_purity_endpoints_are_exact():
    assert entropy.purity_lower(0) == 1
    assert entropy.purity_lower(2) == Fraction(1, 2)


def test_purity_at_one_tenth():
    got = entropy.purity_lower(0.1)
    assert got == as_fraction(oracle.purity_lower(0.1))
    assert abs(got - as_fraction(oracle_purity(0.1))) < Fraction(1, 2**150)
    # direct arithmetic: 4*0.01/4.41 = 0.0090703..., (1+sqrt(0.9909297))/2
    assert abs(float(got) - 0.9977273) < 1e-7


def test_purity_domain():
    with pytest.raises(ParameterError):
        entropy.purity_lower(-0.01)
    with pytest.raises(ParameterError):
        entropy.purity_lower(2.01)


def test_h2_estimate_3_5():
    delta = oracle_delta(3, 5)
    assert abs(float(delta) - 0.516398) < 1e-6
    with mp.workprec(400):
        want = -mp.log(oracle_purity(delta), 2)
    got = entropy.h2_estimate(3, 5)
    assert got == as_fraction(oracle.h2_estimate(3, 5))
    assert abs(got - as_fraction(want)) < Fraction(1, 2**140)


def test_h2_estimate_composition():
    d = entropy.proximity_delta(11, 13)
    assert entropy.h2_estimate(11, 13) == entropy.h2_from_delta(d)


def test_h2_upper_bound_values():
    assert entropy.h2_upper_bound(0) == 0
    assert entropy.h2_upper_bound(2) == 2
    assert abs(float(entropy.h2_upper_bound(0.1)) - 0.140779) < 1e-6
    assert entropy.h2_upper_bound(0.1) == as_fraction(oracle.h2_upper_bound(0.1))


def test_multiprime_bound_values():
    assert entropy.multiprime_h2_bound(2, 0) == 1
    assert entropy.multiprime_h2_bound(2, 2) == 3
    want = 2 + float(entropy.h2_upper_bound(0.1))
    assert abs(float(entropy.multiprime_h2_bound(4, 0.1)) - want) < 1e-12
    assert entropy.multiprime_h2_bound(3, 0.1) == as_fraction(oracle.multiprime_h2_bound(3, 0.1))


def test_check_entropy_constraint_accepts_close_pair():
    ok, report = entropy.check_entropy_constraint(11, 13, Fraction(1, 2), 0.9)
    assert ok
    assert report.constraint_ok
    assert float(report.delta) < 0.5
    assert float(report.h2_estimate_bits) < 0.9  # budget is 0.9 * log2(2) = 0.9
    assert report.budget_bits is not None


def test_check_entropy_constraint_rejects_wide_pair():
    ok, report = entropy.check_entropy_constraint(3, 5, Fraction(1, 100), 0.9)
    assert not ok
    assert not report.constraint_ok


def test_check_entropy_constraint_takes_a_float_gamma_as_its_fraction():
    """0.25 is exact in binary, so it is Fraction(1, 4) and gives the same verdict and report."""
    for p, q in ((1009, 1013), (3, 5)):
        assert entropy.check_entropy_constraint(p, q, 0.25, 0.9) == entropy.check_entropy_constraint(
            p, q, Fraction(1, 4), 0.9
        )


def test_check_entropy_constraint_parameter_domain():
    with pytest.raises(ParameterError):
        entropy.check_entropy_constraint(11, 13, Fraction(1, 2), 0.0)
    with pytest.raises(ParameterError):
        entropy.check_entropy_constraint(11, 13, Fraction(3, 2), 0.5)


def test_exact_proximity_boundary_is_strict():
    # den^2*(q-p)^2 == num^2*p*q exactly: gamma = 3/2, pair (2, 8)
    assert not entropy.proximity_holds_exact(2, 8, Fraction(3, 2))
    assert entropy.proximity_holds_exact(2, 8, Fraction(301, 200))


@given(st.floats(0, 2, allow_nan=False), st.floats(0, 2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_purity_strictly_decreasing(a, b):
    assume(abs(a - b) > 1e-15)
    lo, hi = min(a, b), max(a, b)
    assert entropy.purity_lower(lo) > entropy.purity_lower(hi)


@given(st.floats(1e-12, 2, allow_nan=False), st.floats(1e-12, 2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_h2_strictly_increasing(a, b):
    assume(abs(a - b) > 1e-15)
    lo, hi = min(a, b), max(a, b)
    assert entropy.h2_from_delta(lo) < entropy.h2_from_delta(hi)


def test_model_estimate_within_closed_form_cap_on_grid():
    """H2(delta) stays within the 2*log2(1+delta/2) cap plus cubic slack."""
    for i in range(0, 51):
        delta = Fraction(i, 100)
        estimate = entropy.h2_from_delta(delta)
        cap = entropy.h2_upper_bound(delta)
        assert estimate <= cap + Fraction(2, 100), f"delta={float(delta)}"


@given(st.integers(2, 10**9), st.integers(2, 10**9))
@settings(max_examples=200, deadline=None)
def test_exact_and_float_proximity_agree_away_from_boundary(p, q):
    assume(p != q)
    gamma = Fraction(1, 3)
    exact = entropy.proximity_holds_exact(p, q, gamma)
    delta = float(entropy.proximity_delta(p, q))
    if abs(delta - 1 / 3) > 1e-9:
        assert exact == (delta < 1 / 3)


def test_generic_renyi_collision_case_matches_model():
    """Order-2 Renyi entropy -log2(sum l^2) of the spectrum (1 +- R^(1/4))/2,
    R = 1 - 4d^2/(2+d)^2, whose squares sum to the purity floor."""
    for i in (0, 7, 23, 50):
        with mp.workprec(200):
            delta = mpf(i) / 100
            spread = (1 - 4 * delta**2 / (2 + delta) ** 2) ** mpf("0.25")
            got = -mp.log(((1 + spread) / 2) ** 2 + ((1 - spread) / 2) ** 2, 2)
        want = entropy.h2_from_delta(Fraction(i, 100))
        assert abs(as_fraction(got) - want) < Fraction(1, 2**120)
