import bisect
import functools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrsa import census, cli
from proxrsa.errors import ParameterError, RangeTooLargeError
from proxrsa.numerics import sieve_range


@functools.lru_cache(maxsize=None)
def trial_division_primes(lo, hi):
    return [n for n in range(max(2, lo), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def naive_pairs(lo, hi, gamma):
    """Trial-division census oracle for consecutive pairs."""
    primes = trial_division_primes(lo, hi)
    count = 0
    for p, q in zip(primes, primes[1:]):
        if gamma.denominator**2 * (q - p) ** 2 < gamma.numerator**2 * p * q:
            count += 1
    return count, len(primes)


def naive_progression(lo, hi, gamma, m, a, b):
    primes = trial_division_primes(lo, hi)
    count = 0
    for i, p in enumerate(primes):
        if p % m != a % m:
            continue
        for q in primes[i + 1 :]:
            if q % m != b % m:
                continue
            if gamma.denominator**2 * (q - p) ** 2 < gamma.numerator**2 * p * q:
                count += 1
    return count


def close(p, q, gamma):
    return gamma.denominator**2 * (q - p) ** 2 < gamma.numerator**2 * p * q


def loop_pairs(lo, hi, gamma):
    """The pair-by-pair census: one exact test per consecutive pair."""
    primes = sieve_range(lo, hi)
    return sum(close(p, q, gamma) for p, q in zip(primes, primes[1:]))


def loop_progression(lo, hi, gamma, m, a, b):
    """The pair-by-pair progression census: for each p, test the q of class b
    in turn until a failing q lies past the vertex of the quadratic in q."""
    primes = sieve_range(lo, hi)
    in_a = [p for p in primes if p % m == a % m]
    in_b = [p for p in primes if p % m == b % m]
    num, den = gamma.numerator, gamma.denominator
    count = 0
    for p in in_a:
        for q in in_b[bisect.bisect_right(in_b, p) :]:
            if close(p, q, gamma):
                count += 1
            elif 2 * den * den * (q - p) >= num * num * p:
                break
    return count


def bracket(p, q):
    """Two gammas just below and just above |q - p| / sqrt(p*q).

    With r = isqrt(p*q*S^2), r <= S*sqrt(pq) < r + 1, and pq is no square."""
    scale = 1 << 128
    root = math.isqrt(p * q * scale * scale)
    return Fraction(abs(q - p) * scale, root + 1), Fraction(abs(q - p) * scale, root)


# num^2 + 4*den^2 is a square, so the threshold root is an integer multiple of p.
SQUARE_ROOT_GAMMAS = [Fraction(3, 2), Fraction(5, 6), Fraction(7, 12), Fraction(9, 20), Fraction(33, 28)]

GAMMAS = st.one_of(
    st.sampled_from(SQUARE_ROOT_GAMMAS),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(199, 100), max_denominator=10**4),
    st.builds(lambda n, e: Fraction(n, 1 << e), st.integers(1, 1 << 40), st.integers(41, 100)),
    st.builds(lambda n: Fraction(1, n), st.integers(1, 10**7)).filter(lambda g: g < 2),
).filter(lambda g: 0 < g < 2)


def test_census_2_to_20_half():
    report = census.census_pairs(2, 20, Fraction(1, 2))
    assert report.pair_count == 6
    assert report.prime_count == 8


def test_census_tiny_gamma():
    assert census.census_pairs(2, 10, Fraction(1, 100)).pair_count == 0


def test_census_matches_naive_oracle():
    for lo, hi, gamma in [(2, 500, Fraction(1, 2)), (100, 2000, Fraction(1, 3)), (2, 100, Fraction(1, 10))]:
        want, primes = naive_pairs(lo, hi, gamma)
        report = census.census_pairs(lo, hi, gamma)
        assert report.pair_count == want
        assert report.prime_count == primes


def test_census_crosses_segment_boundaries_consistently():
    # same range, shifted windows; consecutive pairs spanning lo are excluded
    full = census.census_pairs(2, 30_000, Fraction(1, 2))
    want, _ = naive_pairs(2, 30_000, Fraction(1, 2))
    assert full.pair_count == want


def test_census_gamma_domain():
    for gamma in (Fraction(0), Fraction(2), Fraction(5, 2)):
        with pytest.raises(ParameterError):
            census.census_pairs(2, 100, gamma)
        with pytest.raises(ParameterError):
            census.census_progression(2, 100, gamma, 6, 1, 5)
    with pytest.raises(ParameterError):
        census.census_pairs(100, 2, Fraction(1, 2))
    with pytest.raises(RangeTooLargeError):
        census.census_pairs(2, (1 << 40) + 1, Fraction(1, 2))


def test_reference_density_value():
    report = census.census_pairs(2, 1024, Fraction(1, 2))
    assert abs(report.reference_density - 0.5 * 1024 / math.log(1024) ** 2) < 1e-9
    assert report.ratio == pytest.approx(report.pair_count / report.reference_density)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_gamma_monotonicity(data):
    lo = data.draw(st.integers(2, 5000))
    hi = lo + data.draw(st.integers(50, 3000))
    g1_num = data.draw(st.integers(1, 20))
    g1_den = data.draw(st.integers(21, 60))
    g1 = Fraction(g1_num, g1_den)
    g2 = g1 + Fraction(data.draw(st.integers(1, 30)), 60)
    c1 = census.census_pairs(lo, hi, g1).pair_count
    c2 = census.census_pairs(lo, hi, g2).pair_count
    assert c1 <= c2


def test_progression_brute_force():
    report = census.census_progression(2, 100, Fraction(1, 2), 6, 1, 5)
    assert report.pair_count == naive_progression(2, 100, Fraction(1, 2), 6, 1, 5)
    assert report.primes_in_class_a == sum(1 for p in sieve_range(2, 100) if p % 6 == 1)


def test_progression_more_ranges():
    cases = [(2, 300, 5, 2, 3), (50, 800, 10, 3, 7), (2, 1000, 7, 1, 6), (2, 7, 3**70, 5, 3**70 + 7)]
    for lo, hi, m, a, b in cases:
        gamma = Fraction(2, 3)
        report = census.census_progression(lo, hi, gamma, m, a, b)
        assert report.pair_count == naive_progression(lo, hi, gamma, m, a, b)


def test_progression_modulus_one_is_all_pairs():
    gamma = Fraction(1, 2)
    report = census.census_progression(2, 50, gamma, 1, 0, 0)
    assert report.pair_count == naive_progression(2, 50, gamma, 1, 0, 0)


def test_progression_rejects_shared_factor():
    with pytest.raises(ParameterError):
        census.census_progression(2, 100, Fraction(1, 2), 6, 2, 5)


def test_census_pairs_across_small_segments():
    """Segments of 1..4096 numbers over 2..30000: the pair across each
    boundary, segments without a prime and segments with exactly one."""
    lo, hi = 2, 30_000
    in_range = trial_division_primes(lo, hi)
    seen = set()
    for segment in (1, 2, 7, 64, 1000, 4096):
        starts = range(lo, hi + 1, segment)
        seen |= {bisect.bisect_left(in_range, s + segment) - bisect.bisect_left(in_range, s) for s in starts}
        with mock.patch.object(census, "_SEGMENT", segment):
            for gamma in (Fraction(1, 2), Fraction(1, 1000)):
                want = naive_pairs(lo, hi, gamma)
                report = census.census_pairs(lo, hi, gamma)
                assert (report.pair_count, report.prime_count) == want, (segment, gamma)
    assert {0, 1} <= seen


def test_census_pairs_tests_few_pairs_where_the_threshold_grows_fast():
    """Over 2..2^24 at gamma = 1/1000, G(p) runs from 0 to about 16800 in one
    segment; a band between G(first) and G(last) held 1,077,871 pairs."""
    lo, hi, gamma = 2, 1 << 24, Fraction(1, 1000)
    with mock.patch.object(census, "_proximate", wraps=census._proximate) as counted:
        report = census.census_pairs(lo, hi, gamma)
    assert counted.call_count < 50_000
    assert report.pair_count == loop_pairs(lo, hi, gamma)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_census_pairs_matches_the_pair_loop(data):
    lo = data.draw(st.integers(0, (1 << 22) - 1))
    hi = min(lo + data.draw(st.integers(0, 20_000)), (1 << 22) - 1)
    gamma = data.draw(GAMMAS)
    segment = data.draw(st.sampled_from([1 << 24, 4096, 97]))
    with mock.patch.object(census, "_SEGMENT", segment):
        report = census.census_pairs(lo, hi, gamma)
    assert report.pair_count == loop_pairs(lo, hi, gamma)
    assert report.prime_count == len(sieve_range(lo, hi))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_census_progression_matches_the_pair_loop(data):
    lo = data.draw(st.integers(0, (1 << 22) - 1))
    hi = min(lo + data.draw(st.integers(0, 3000)), (1 << 22) - 1)
    gamma = data.draw(GAMMAS)
    m = data.draw(st.sampled_from([1, 2, 4, 6, 10, 30]))
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    a, b = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    report = census.census_progression(lo, hi, gamma, m, a, b)
    assert report.pair_count == loop_progression(lo, hi, gamma, m, a, b)


@given(st.integers(2, 1 << 22), st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_gamma_at_a_consecutive_pair_switches_only_that_pair(start, before, after):
    p, q = sieve_range(start, start + 400)[:2]
    lo, hi = max(0, p - before), q + after
    below, above = bracket(p, q)
    assert not close(p, q, below) and close(p, q, above)
    counts = [census.census_pairs(lo, hi, g).pair_count for g in (below, above)]
    assert counts == [loop_pairs(lo, hi, g) for g in (below, above)]
    assert counts[1] - counts[0] == 1


@given(st.integers(1000, 1 << 22), st.integers(1, 12), st.sampled_from([(6, 1, 5), (6, 5, 1), (4, 3, 3), (10, 7, 3)]))
@settings(max_examples=60, deadline=None)
def test_gamma_at_a_progression_pair_switches_only_that_pair(start, k, classes):
    m, a, b = classes
    window = sieve_range(start, start + 4000)
    p = next(x for x in window if x % m == a)
    q = [x for x in window if x > p and x % m == b][k - 1]
    lo, hi = p, q
    below, above = bracket(p, q)
    counts = [census.census_progression(lo, hi, g, m, a, b).pair_count for g in (below, above)]
    assert counts == [loop_progression(lo, hi, g, m, a, b) for g in (below, above)]
    assert counts[1] - counts[0] == 1


@pytest.mark.parametrize(
    "gamma",
    [Fraction(199, 100), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000), Fraction(7, 10**7), *SQUARE_ROOT_GAMMAS],
)
def test_max_gap_matches_a_linear_scan(gamma):
    for p in range(1, 400):
        g = 0
        while close(p, p + g + 1, gamma):
            g += 1
        assert census._max_gap(p, gamma) == g, p


@given(st.integers(1, 1 << 40), GAMMAS)
@settings(max_examples=300, deadline=None)
def test_max_gap_is_the_last_passing_gap(p, gamma):
    g = census._max_gap(p, gamma)
    assert g >= 0
    assert g == 0 or close(p, p + g, gamma)
    assert not close(p, p + g + 1, gamma)


def test_progression_census_over_the_capped_span(tmp_path, cli_process, cli_probe):
    """The 2^26 cap is reachable within 120 s (the pair-by-pair scan took
    over 300 s) and below 150 MB (the whole range as Python ints took 189 MB)."""
    lo, hi = 1 << 30, (1 << 30) + (1 << 26)
    out = tmp_path / "census.json"
    flags = ["--gamma", "1/2", "--mod", "6", "--a", "1", "--b", "5"]
    _, report = cli_probe([["census", "--lo", str(lo), "--hi", str(hi), *flags, "-o", str(out)]])
    assert report["codes"] == [cli.EXIT_OK]
    assert report["vmhwm_kb"] < 150 * 1024
    assert json.loads(out.read_text())["prime_count"] > 3_000_000
    result = cli_process(["census", "--lo", str(lo), "--hi", str(hi + 1), *flags], timeout=60)
    assert result.returncode == cli.EXIT_BAD_PARAMS, result.stderr
    assert "capped at 2^26" in result.stderr


def test_plain_census_at_the_top_of_the_range(cli_probe):
    """At hi = 2^40 and gamma = 1/2, G(p)/2 is about 2.7e11 bytes, far past
    the end of any segment: the scan must stop without building a needle
    that long."""
    lo, hi = (1 << 40) - (1 << 24), 1 << 40
    out, report = cli_probe([["census", "--lo", str(lo), "--hi", str(hi), "--gamma", "1/2"]])
    assert report["codes"] == [cli.EXIT_OK]
    assert report["vmhwm_kb"] < 100 * 1024
    doc = json.loads(out)
    assert doc["pair_count"] == doc["prime_count"] - 1 > 0
