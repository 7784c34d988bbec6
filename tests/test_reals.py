"""proxrsa.reals, and the reports built on it, against mpmath.

The primitives are checked against mpmath's libmp at the same precision,
and the entropy and quantum reports against the mpmath formulas they
replace (mpmath_oracle.py): every value as a binary number and every
string.  mpmath rounds exp from 14 guard bits and ln from 20, so on
about 2 exp values in 10^4, and 5 ln values in 10^6, its last bit is not
the correctly rounded one, which the replay holds.  The primitive tests
check the correct rounding, with mpmath at 200 or more extra bits.  The
report tests compare exactly, exp fields allowing for that miss, and
draw a fixed example set (derandomize), so that a miss of mpmath's ln
cannot fail one run in a few hundred.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (
    from_man_exp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    normalize,
    round_down,
    round_nearest,
    round_up,
    to_str,
)

import mpmath_oracle as oracle
from mpmath_oracle import as_binary as pair
from mpmath_oracle import as_fraction as value
from proxrsa import analysis, entropy, keygen, reals
from proxrsa.errors import ParameterError
from proxrsa.numerics import next_prime_in_progression

PRECISIONS = st.sampled_from([53, 96, 106, 192, 212])


def raw(x):
    return from_man_exp(*x)


def rounded(x, prec):
    sign, man, exp, bc = x
    return pair(normalize(sign, man, exp, bc, prec, round_nearest))


def correct_exp(arg, prec):
    """exp of a raw mpf, correctly rounded to prec bits: exp(x) for a tiny x
    is 1 + x + x**2/2..., and x may sit on a rounding midpoint."""
    _, man, exp, bc = arg
    return rounded(mpf_exp(arg, prec + 200 + 2 * max(0, -(exp + bc)), round_nearest), prec)


binaries = st.builds(
    lambda man, exp: reals.rnd(man, 1, exp, 400),
    st.integers(-(1 << 300), 1 << 300).filter(bool),
    st.integers(-600, 600),
)


@given(binaries, binaries, PRECISIONS)
@settings(max_examples=300, deadline=None)
def test_arithmetic_is_mpmaths(x, y, prec):
    with mp.workprec(prec):
        a, b = mpf(raw(x)), mpf(raw(y))
        assert reals.rnd(x[0], 1, x[1], prec) == pair(a)
        xr, yr = pair(a), pair(b)
        assert reals.add(xr, yr, prec) == pair(a + b)
        assert reals.add(xr, (-yr[0], yr[1]), prec) == pair(a - b)
        assert reals.mul(xr, yr, prec) == pair(a * b)
        assert reals.div(xr, yr, prec) == pair(a / b)
        assert reals.sqrt((abs(yr[0]), yr[1]), prec) == pair(mp.sqrt(abs(b)))
    assert reals.div(x, y, prec, -1) == pair(mpf_div(raw(x), raw(y), prec, round_down))
    assert reals.div(x, y, prec, 1) == pair(mpf_div(raw(x), raw(y), prec, round_up))


TWICE_ROUNDED = Fraction((1 << 59) + 191, (1 << 57) - 168)


@given(st.integers(-(1 << 400), 1 << 400), st.integers(1, 1 << 400), st.sampled_from([53, 96, 192]))
@example(TWICE_ROUNDED.numerator, TWICE_ROUNDED.denominator, 53)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_fraction_rounds_as_mpmaths_quotient(a, b, prec):
    x = Fraction(a, b)
    with mp.workprec(prec):
        assert reals.binary(x, prec) == pair(mpf(x.numerator) / mpf(x.denominator))


def test_a_fraction_is_rounded_twice_not_correctly():
    """Both ends rounded to 53 bits, then the quotient: the last bit of
    TWICE_ROUNDED differs from that of the quotient rounded once."""
    x = TWICE_ROUNDED
    assert reals.binary(x, 53) != reals.rnd(x.numerator, x.denominator, 0, 53)


@given(binaries, st.sampled_from([96, 192]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_log2_is_mpmaths(x, prec):
    x = reals.rnd(abs(x[0]), 1, x[1], prec)
    with mp.workprec(prec):
        assert reals.log2(x, prec) == pair(mp.log(mpf(raw(x)), 2))


@pytest.mark.parametrize("exp", [-5, -1, 0, 1, 2, 11, 3000])
def test_log2_of_a_power_of_two_is_mpmaths(exp):
    for prec in (96, 192):
        with mp.workprec(prec):
            assert reals.log2((1, exp), prec) == pair(mp.log(mpf(raw((1, exp))), 2))


@given(binaries, PRECISIONS)
@settings(max_examples=300, deadline=None)
def test_ln_is_correctly_rounded(x, prec):
    """mpmath's ln rounds from 20 guard bits: about 5 values in 10^6 miss
    the correct rounding, which the replay holds."""
    x = (abs(x[0]), x[1])
    man, exp = reals.add(x, (-1, 0), 1000)  # ln x is about x - 1 near 1
    extra = 200 + 2 * max(0, -(man.bit_length() + exp))
    want = rounded(mpf_log(raw(x), prec + extra, round_nearest), prec)
    assert reals.ln(x, prec) == want


@pytest.mark.parametrize("exp", [-5, -1, 1, 2, 11, 3000])
def test_ln_of_a_power_of_two_is_mpmaths(exp):
    for prec in (96, 106, 116, 212):
        assert reals.ln((1, exp), prec) == pair(mpf_log(raw((1, exp)), prec, round_nearest))


@given(binaries, st.integers(-130, 12), PRECISIONS)
@settings(max_examples=300, deadline=None)
def test_exp_is_correctly_rounded(x, scale, prec):
    x = (x[0], x[1] - x[0].bit_length() + scale)  # |x| near 2**scale
    assert reals.exp(x, prec) == correct_exp(raw(x), prec)


@given(
    st.integers(1, 1 << 200).filter(lambda m: m & 1),
    st.one_of(st.integers(-4000, 4000), st.integers(-(10**30), 10**30)),
    st.sampled_from([1, 5, 15, 24, 30]),
)
@settings(max_examples=400, deadline=None)
def test_to_str_is_mpmaths(man, exp, dps):
    for m in (man, -man):
        assert reals.to_str((m, exp), dps) == to_str(raw((m, exp)), dps)


def test_to_str_edges():
    assert reals.to_str((0, 0), 30) == to_str(raw((0, 0)), 30) == "0.0"
    for x in [(1, 0), (1, -1), (999999, 0), (1, 3500), (1, -3500), (1, 3600), (1, -3600), (3, 10**6)]:
        for dps in (24, 30):
            assert reals.to_str(x, dps) == to_str(raw(x), dps)
    nines = reals.rnd(10**30 - 1, 1, 0, 192)  # rounds up to a new leading digit
    assert reals.to_str(nines, 24) == to_str(raw(nines), 24) == "1.0e+30"


def _near(offset_bits):
    """(p, q) with q - p about 2**offset_bits * p."""
    return st.integers(2 - offset_bits, 300 - offset_bits).flatmap(
        lambda bits: st.tuples(
            st.integers(1 << (bits - 1), (1 << bits) - 1),
            st.integers(bits + offset_bits - 2, bits + offset_bits),
            st.integers(1, 7),
        ).map(lambda t: (t[0], t[0] + (t[2] << t[1])))
    )


# Normalized gaps from the four regimes: below 2**-97 the purity rounds to
# exactly 1; between 2**-97 and 2**-13 the rounding of 1 - ratio sets the
# digits; around 1; and below 2**-3500, past to_str's exponent switch.
DELTA_PAIRS = st.one_of(
    st.integers(-190, -98).flatmap(_near),
    st.integers(-96, -14).flatmap(_near),
    st.integers(2, 1 << 60).map(lambda p: (p, p * 21 // 8 + 1)),
    st.integers(3600, 3700).flatmap(
        lambda bits: st.integers(1, 1 << 20).map(lambda gap: ((1 << bits) + 12345, (1 << bits) + 12345 + gap))
    ),
)
GAMMAS = st.builds(Fraction, st.integers(1, 999), st.just(1000)) | st.builds(
    Fraction, st.just(1), st.integers(2, 1 << 80)
)
BETAS = st.floats(0.001, 0.999)


def _entropy_values(report):
    return [report.delta, report.purity_lower, report.h2_estimate_bits, report.h2_bound_bits]


@given(DELTA_PAIRS, GAMMAS, BETAS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_entropy_constraint_is_the_mpmath_formula(pq, gamma, beta):
    p, q = pq
    ok, report = entropy.check_entropy_constraint(p, q, gamma, beta)
    want_ok, want = oracle.check_entropy_constraint(p, q, gamma, beta)
    assert ok == want_ok
    assert [*_entropy_values(report), report.budget_bits] == [value(x) for x in want]
    strings = report.to_dict()
    assert [strings[name] for name in report._fields[:5]] == oracle.entropy_strings(want)


@given(st.lists(DELTA_PAIRS, min_size=1, max_size=3), GAMMAS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_multiprime_report_is_the_mpmath_formula(pairs, gamma):
    primes = sorted({v for pq in pairs for v in pq})
    try:
        want = oracle.dominant_pair_report(primes, gamma, len(primes))
    except ValueError:  # delta outside [0, 2]
        with pytest.raises(ParameterError):
            keygen._dominant_pair_report(primes, gamma, len(primes))
        return
    report = keygen._dominant_pair_report(primes, gamma, len(primes))
    assert _entropy_values(report) == [value(x) for x in want]
    strings = report.to_dict()
    assert [strings[name] for name in report._fields[:4]] == oracle.entropy_strings(want)
    assert strings["budget_bits"] is None


def _prime_at_least(n):
    return next_prime_in_progression(max(n, 3) | 1, 1, 2, 1 << 20)


# Prime pairs: adjacent (the generator's regime), a gap of 2**-40 to 2**-9
# of p, q near 2.6 p (delta near 1), and gaps wide enough that
# exp(-(p-q)^2 / (8*min(p, q))) lies below 2**-3500.
PRIME_PAIRS = st.tuples(
    st.one_of(
        st.integers(3, 200).map(lambda bits: (1 << bits) - 1),
        st.integers(50, 200).flatmap(lambda bits: st.integers(1 << (bits - 1), 1 << bits)),
    ).map(_prime_at_least),
    st.sampled_from(
        [
            lambda p: 0,
            lambda p: p >> 9,
            lambda p: p >> 40,
            lambda p: p * 13 // 8,
            lambda p: math.isqrt(20_000 * p),
            lambda p: math.isqrt(10**6 * p),
        ]
    ),
).map(lambda t: (t[0], _prime_at_least(t[0] + 1 + t[1](t[0]))))


def _exp_agrees(mine, theirs, want):
    """mpmath's value, or where that is not correctly rounded, the correct one."""
    return mine == theirs or (theirs != want and mine == want)


@given(
    PRIME_PAIRS,
    GAMMAS,
    st.one_of(st.none(), st.integers(1, 1 << 20)),
    st.one_of(st.none(), st.tuples(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6))),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_complexity_report_is_the_mpmath_formula(pq, gamma, k, fano):
    p, q = pq
    kappa, eps = fano if fano is not None else (None, None)
    if kappa is not None and kappa <= 0:  # the formula's bound would be <= 0
        with pytest.raises(ParameterError, match="positive kappa"):
            analysis.complexity_report(p, q, gamma, k, kappa, eps)
        return
    try:
        want = oracle.complexity_values(p, q, gamma, k, kappa, eps)
    except ValueError:  # delta outside [0, 2]
        with pytest.raises(ParameterError):
            analysis.complexity_report(p, q, gamma, k, kappa, eps)
        return
    report = analysis.complexity_report(p, q, gamma, k, kappa, eps)
    doc = report.to_dict()
    names = report._fields[1:]
    assert [doc[name] for name in names] == oracle.quantum_strings(want)
    mine = dict(zip(names, report[1:]))
    theirs = dict(zip(names, (None if x is None else pair(x) for x in want)))
    with mp.workprec(96):
        arg = (-mpf((p - q) ** 2) / (8 * min(p, q)))._mpf_
        t = (-mpf(oracle.h2_estimate(p, q)))._mpf_
    man, exp = correct_exp(arg, 96)
    assert _exp_agrees(mine.pop("distinguishability_bound"), theirs.pop("distinguishability_bound"), (man, exp + 1))
    if t[2] < -1:  # 2**t is exp(t * ln 2), ln 2 at 106 bits
        want = correct_exp(mpf_mul(t, mpf_log(from_man_exp(1, 1), 106, round_nearest)), 96)
        assert _exp_agrees(mine.pop("succ_prob_bound"), theirs.pop("succ_prob_bound"), want)
    assert mine == theirs
