import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from dense_oracle import measurement_distribution
from mpmath import mp, mpf

from proxrsa import cli, entropy, shor_sim
from proxrsa.errors import NumericalError, ParameterError, ProxRsaError
from proxrsa.numerics import SeedStream, sieve_range

DATA = pathlib.Path(__file__).parent / "data"


def oracle_distribution(r, q_size, prec=120):
    """Brute-force complex summation at elevated precision."""
    m = -(-q_size // r)
    probs = []
    with mp.workprec(prec):
        for y in range(q_size):
            acc = mp.mpc(0)
            for j in range(m):
                acc += mp.exp(2j * mp.pi * j * r * y / q_size)
            probs.append(float(abs(acc) ** 2 / (q_size * m)))
    return probs


def pow_refined_period(r_hat, a, n):
    """First multiple r_hat*f (f <= log2 n) annihilated by a, if any, found with pow."""
    limit = max(1, int(math.log2(n)))
    for f in range(1, limit + 1):
        if pow(a, r_hat * f, n) == 1:
            return r_hat * f
    return None


def dense_success(n, a, q_size, refine):
    """Full-vector success accounting; the independent oracle for the sparse path.

    It scans every y and refines with pow, so it relies on neither the
    candidate windows nor the divisibility rule of the library.
    """
    r = shor_sim.multiplicative_order(a, n)
    probs = measurement_distribution(r, q_size)
    total = 0.0
    for y in range(q_size):
        r_hat = shor_sim.recover_period(y, q_size, n)
        if r_hat is None:
            continue
        candidate = pow_refined_period(r_hat, a, n) if refine else r_hat
        if candidate == r:
            total += probs[y]
    return total


def order_by_multiplication(a, n):
    """Smallest r >= 1 with a^r == 1 (mod n), by iterated multiplication."""
    x = a % n
    r = 1
    while x != 1:
        x = x * a % n
        r += 1
    return r


def candidate_groups(r, q_size):
    """(c, ys) for c in [0, r): the one or two y with 2*|y*r - c*Q| <= r, ascending."""
    for c in range(r):
        y, rem = divmod(c * q_size, r)
        twice = 2 * rem
        yield c, ((y,) if twice < r else (y + 1,) if twice > r else (y, y + 1))


def candidates(r, q_size):
    """Every y that candidate_groups scores, in its order."""
    return [y for _, ys in candidate_groups(r, q_size) for y in ys]


def success_by_continued_fraction(n, r, q_size):
    """(plain, refined) with one continued fraction per candidate y, summed with fsum."""
    plain, refined = [], []
    for y in candidates(r, q_size):
        r_hat = shor_sim.recover_period(y, q_size, n)
        if r_hat is None or not shor_sim._lifts_to(r_hat, r, n):
            continue
        t = r * y % q_size
        prob = shor_sim._prob_at_distance(min(t, q_size - t), r, q_size)
        refined.append(prob)
        if r_hat == r:
            plain.append(prob)
    return math.fsum(plain), math.fsum(refined)


def success_by_gcd_per_c(n, r, q_size):
    """(plain, refined) at Q >= n^2 with one gcd per c, summed with fsum.

    The loop over every c in range(r) that the library ran before it
    enumerated divisor classes: the candidate for c recovers
    r_hat = r/gcd(c, r), which lifts to r when gcd(c, r) < bit_length(n)
    and 1 < r_hat < n.  (y, rem) = divmod(c*Q, r) advances by one step
    per c, and each distance from c*Q/r is scored once.
    """
    bits = n.bit_length()
    step_y, step_rem = divmod(q_size, r)
    y, rem = -step_y, -step_rem
    by_distance = {}
    plain, refined = [], []
    for c in range(r):
        y += step_y
        rem += step_rem
        if rem >= r:
            y += 1
            rem -= r
        g = math.gcd(c, r)
        if g >= bits or not 1 < r // g < n:
            continue
        twice = 2 * rem
        if twice < r:
            candidates = ((y, rem),)
        elif twice > r:
            candidates = ((y + 1, r - rem),)
        else:
            candidates = ((y, rem), (y + 1, rem))
        for y_c, distance in candidates:
            prob = by_distance.get(distance)
            if prob is None:
                prob = by_distance[distance] = shor_sim._prob_at_distance(distance, r, q_size)
            refined.append(prob)
            if g == 1:
                plain.append(prob)
    return math.fsum(plain), math.fsum(refined)


# --- multiplicative order ---------------------------------------------------


def test_order_examples():
    assert shor_sim.multiplicative_order(7, 15) == 4
    assert shor_sim.multiplicative_order(1, 15) == 1
    assert shor_sim.multiplicative_order(2, 15) == 4


def test_order_rejects_shared_factor():
    with pytest.raises(ParameterError):
        shor_sim.multiplicative_order(6, 15)
    with pytest.raises(ParameterError):
        shor_sim.multiplicative_order(4, 2 << 20)


def _prime_divisors(r):
    out = set()
    d = 2
    while d * d <= r:
        if r % d == 0:
            out.add(d)
            while r % d == 0:
                r //= d
        d += 1
    if r > 1:
        out.add(r)
    return out


def test_order_correctness_exhaustive_to_one_thousand():
    """a^r == 1 and a^(r/d) != 1 for every prime divisor d: exact minimality."""
    for n in range(3, 1001):
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            r = shor_sim.multiplicative_order(a, n)
            assert pow(a, r, n) == 1
            for d in _prime_divisors(r):
                assert pow(a, r // d, n) != 1, (a, n, r, d)


def test_order_matches_multiplication_loop_below_two_thousand(wall_clock):
    """Every base of every N < 2000 against the multiplication loop.

    One loop per cyclic subgroup: a^i has order r/gcd(i, r), so a walk from
    a gives the order of every power of a without walking it again.
    """
    with wall_clock(120):
        for n in range(2, 2000):
            walked = {}
            for a in range(1, n):
                if math.gcd(a, n) != 1:
                    continue
                if a not in walked:
                    r = order_by_multiplication(a, n)
                    x = 1
                    for i in range(1, r + 1):
                        x = x * a % n
                        walked.setdefault(x, r // math.gcd(i, r))
                assert shor_sim.multiplicative_order(a, n) == walked[a], (a, n)


def _prime_factor_count(r):
    """Prime factors of r counted with multiplicity."""
    count = 0
    for d in _prime_divisors(r):
        while r % d == 0:
            r, count = r // d, count + 1
    return count


@pytest.mark.parametrize("n", [1537, 1999, 4369, 64507])
def test_order_makes_one_full_size_pow_per_prime_of_phi(n, monkeypatch):
    """Cohen's Alg. 1.4.3 raises a to a full-size power once per distinct
    prime l of phi(n); each other pow raises g to l, one per prime factor of
    the order.  With phi(4369) = 2^12 the strip tests took five full-size
    powers of 3 where this takes one."""
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(shor_sim, "pow", counted, raising=False)
    phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
    for a in range(2, 200):
        if math.gcd(a, n) == 1:
            calls.clear()
            r = shor_sim.multiplicative_order(a, n)
            assert r == order_by_multiplication(a, n), (a, n)
            assert len(calls) - _prime_factor_count(r) == len(_prime_divisors(phi)), (a, n)


@pytest.mark.parametrize("n", [1 << 20, (1 << 20) - 1, 1048573, 1038439, 1000871, 781447])
def test_order_matches_multiplication_loop_at_twenty_bits(n):
    for a in (2, 3, 5, 7, 11, 13, n - 2):
        if math.gcd(a, n) == 1:
            assert shor_sim.multiplicative_order(a, n) == order_by_multiplication(a, n), (a, n)


# --- measurement distribution -----------------------------------------------


def test_distribution_peaks_when_r_divides_q():
    probs = measurement_distribution(4, 2048)
    nz = np.flatnonzero(probs > 0)
    assert nz.tolist() == [0, 512, 1024, 1536]
    assert np.all(np.abs(probs[nz] - 0.25) < 1e-12)


def test_distribution_r_one():
    probs = measurement_distribution(1, 64)
    assert probs[0] == 1.0
    assert probs[1:].sum() == 0.0


def test_distribution_r3_q8_matches_complex_oracle():
    got = measurement_distribution(3, 8)
    want = oracle_distribution(3, 8)
    renorm = sum(want)
    assert np.allclose(got, np.array(want) / renorm, atol=1e-12)


def test_distribution_against_oracle_various():
    for r, q in [(3, 16), (5, 32), (6, 64), (7, 64), (12, 128)]:
        got = measurement_distribution(r, q)
        want = np.array(oracle_distribution(r, q))
        want = want / want.sum()
        assert np.allclose(got, want, atol=1e-10), (r, q)


def test_distribution_normalization_sweep():
    """Pre-normalization sum within 1e-9 of 1 for all r <= 64 at three Q sizes."""
    for q_size in (256, 1024, 4096):
        for r in range(1, 65):
            m = -(-q_size // r)
            y = np.arange(q_size, dtype=np.int64)
            t = (np.int64(r) * y) % q_size
            probs = np.zeros(q_size)
            probs[t == 0] = m / q_size
            live = (t != 0) & ((np.int64(m) * t) % q_size != 0)
            tl = t[live].astype(np.float64)
            ratio = np.sin(np.pi * m * tl / q_size) / np.sin(np.pi * tl / q_size)
            probs[live] = ratio * ratio / (q_size * m)
            assert abs(probs.sum() - 1.0) < 1e-9, (r, q_size)
            # and the library path accepts it
            assert abs(measurement_distribution(r, q_size).sum() - 1.0) < 1e-12


def test_peak_law_for_divisors():
    for q_size in (256, 1024):
        for r in (2, 4, 8, 16, 32, 64):
            probs = measurement_distribution(r, q_size)
            nz = np.flatnonzero(probs > 1e-15)
            assert len(nz) == r
            assert np.all(np.abs(probs[nz] - 1 / r) < 1e-12)


def test_distribution_parameter_checks():
    with pytest.raises(ParameterError):
        shor_sim.success_probabilities(15, 4, 100)  # not a power of two
    with pytest.raises(ParameterError):
        shor_sim.success_probabilities(15, 0, 64)
    with pytest.raises(ParameterError):
        shor_sim.success_probabilities(15, 65, 64)


# --- period recovery ----------------------------------------------------------


def test_recover_examples():
    assert shor_sim.recover_period(1536, 2048, 15) == 4
    assert shor_sim.recover_period(512, 2048, 15) == 4
    assert shor_sim.recover_period(0, 2048, 15) is None
    assert shor_sim.recover_period(1024, 2048, 15) == 2


def test_recover_inverts_clean_peaks():
    for q_size in (1024, 4096):
        for r in (2, 4, 8, 16, 32, 64):
            if q_size % r:
                continue
            for c in range(1, r):
                if math.gcd(c, r) != 1:
                    continue
                assert shor_sim.recover_period(c * q_size // r, q_size, r + 1) == r


def test_recover_rejects_out_of_range():
    with pytest.raises(ParameterError):
        shor_sim.recover_period(2048, 2048, 15)


# --- success probability --------------------------------------------------------


def test_success_probability_n15_exact():
    assert abs(shor_sim.shor_success_probability(15, 7, 2048, refine=False) - 0.5) < 1e-12
    assert abs(shor_sim.shor_success_probability(15, 7, 2048, refine=True) - 0.75) < 1e-12


def test_success_rejects_base_one():
    with pytest.raises(ParameterError):
        shor_sim.shor_success_probability(15, 1, 2048)


def test_sparse_success_equals_dense_oracle():
    cases = [(21, 2, 512), (33, 5, 2048), (35, 6, 2048), (39, 7, 2048), (55, 21, 4096)]
    for n, a, q_size in cases:
        for refine in (False, True):
            want = dense_success(n, a, q_size, refine)
            got = shor_sim.shor_success_probability(n, a, q_size, refine)
            assert abs(want - got) < 1e-12, (n, a, q_size, refine)


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_sparse_success_equals_dense_oracle_random(seed_int):
    rng = np.random.default_rng(seed_int)
    n = int(rng.integers(15, 200))
    if n % 2 == 0:
        n += 1
    coprime = [a for a in range(2, n - 1) if math.gcd(a, n) == 1]
    if not coprime:
        return
    a = int(coprime[int(rng.integers(0, len(coprime)))])
    q_size = 1024
    if shor_sim.multiplicative_order(a, n) > q_size:
        return
    for refine in (False, True):
        want = dense_success(n, a, q_size, refine)
        got = shor_sim.shor_success_probability(n, a, q_size, refine)
        assert abs(want - got) < 1e-12


def _bases_by_order(n):
    """One base per distinct order of the units in [2, n-2]."""
    out = {}
    for a in range(2, n - 1):
        if math.gcd(a, n) == 1:
            out.setdefault(shor_sim.multiplicative_order(a, n), a)
    return out


def test_sparse_success_equals_dense_oracle_tight_q():
    """Q only a little above r (Q/r < 2, Q = r for powers of two), where
    neighbouring c*Q/r windows come close or touch."""
    for n in (21, 33, 35, 39, 51, 55, 85, 93, 119):
        for r, a in _bases_by_order(n).items():
            q_size = 1 << (r - 1).bit_length()
            for refine in (False, True):
                want = dense_success(n, a, q_size, refine)
                got = shor_sim.shor_success_probability(n, a, q_size, refine)
                assert abs(want - got) < 1e-12, (n, a, r, q_size, refine)


def test_success_candidates_are_the_half_windows():
    for q_size in (1, 2, 8, 16, 64):
        for r in range(1, q_size + 1):
            want = [
                y
                for y in range(q_size)
                if any(2 * abs(y * r - c * q_size) <= r for c in range(r + 1))
            ]
            assert candidates(r, q_size) == want, (r, q_size)


@given(st.integers(2, 1 << 12), st.integers(0, 2), st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_recovery_equals_the_continued_fraction(n, doublings, data):
    """Q >= N^2: the closed-form verdicts give the same float tuple as one
    continued fraction per candidate, for any r up to 3N, orders or not."""
    q_size = shor_sim.default_q(n) << doublings
    r = data.draw(st.integers(1, min(q_size, 3 * n)))
    assert shor_sim.success_probabilities(n, r, q_size) == success_by_continued_fraction(
        n, r, q_size
    )


def test_divisor_classes_equal_the_gcd_per_c_loop(wall_clock):
    """Q >= N^2: the divisor-class enumeration gives the float tuple of the
    per-c loop summed with fsum, for every r < 2^10 at a 24-bit N, at the
    default Q and at 4Q."""
    n = 4091 * 4093
    with wall_clock(30):
        for q_size in (shor_sim.default_q(n), shor_sim.default_q(n) << 2):
            for r in range(1, 1 << 10):
                got = shor_sim.success_probabilities(n, r, q_size)
                assert got == success_by_gcd_per_c(n, r, q_size), (r, q_size)


def test_closed_form_at_q_equal_to_n_squared():
    assert shor_sim.default_q(4) == 16
    for r in range(1, 13):
        assert shor_sim.success_probabilities(4, r, 16) == success_by_continued_fraction(4, r, 16)


@given(st.integers(5, 5000), st.data())
@settings(max_examples=300, deadline=None)
def test_refinement_divisibility_rule_matches_pow_loop(n, data):
    a = data.draw(st.integers(2, n - 2))
    assume(math.gcd(a, n) == 1)
    r = shor_sim.multiplicative_order(a, n)
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    r_hat = data.draw(st.sampled_from(divisors) | st.integers(1, n))
    assert shor_sim._lifts_to(r_hat, r, n) == (pow_refined_period(r_hat, a, n) == r)


def test_base_probabilities_share_one_pass_per_order(monkeypatch):
    n, q_size = 91, 8192
    bases = [a for a in range(2, 40) if math.gcd(a, n) == 1]
    want = [
        (
            shor_sim.multiplicative_order(a, n),
            shor_sim.shor_success_probability(n, a, q_size, refine=False),
            shor_sim.shor_success_probability(n, a, q_size, refine=True),
        )
        for a in bases
    ]
    calls = []
    original = shor_sim.success_probabilities
    monkeypatch.setattr(
        shor_sim, "success_probabilities", lambda *args: calls.append(args) or original(*args)
    )
    assert shor_sim.base_probabilities(n, bases, q_size) == want
    assert len(calls) == len({r for r, _, _ in want}) < len(bases)


def test_distribution_drift_is_a_package_error(monkeypatch, capsys):
    sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: sin(x) + 1e-3)  # a sine that is off by 1e-3
    with pytest.raises(NumericalError) as info:
        measurement_distribution(3, 256)
    assert isinstance(info.value, ProxRsaError)
    assert not isinstance(info.value, ArithmeticError)
    # shor-sim --a reports from the sparse pass and never builds the dense
    # vector, so the drifted sine cannot reach it.
    assert cli.main(["shor-sim", "--N", "21", "--a", "2"]) == cli.EXIT_OK  # r = 6, Q = 512


def test_numerical_error_exits_1(monkeypatch, capsys):
    def drifted(n, bases, q_size):
        raise NumericalError("distribution normalization drifted: sum = 1.001")

    monkeypatch.setattr(shor_sim, "base_probabilities", drifted)
    assert cli.main(["shor-sim", "--N", "21", "--a", "2"]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: distribution normalization drifted")


def test_default_q_is_first_power_of_two_at_or_above_n_squared():
    assert shor_sim.default_q(15) == 256
    assert shor_sim.default_q(16) == 256
    assert shor_sim.default_q(17) == 512


def test_q_is_capped_at_two_to_the_512(cli_process):
    """Q*ceil(Q/r) still fits a float at Q = 2^512 for every r > 1 (r = 1
    scores only the exact peak); one doubling more overflowed the closed
    form with a traceback."""
    for r in (2, 3, 1000, 65535):
        plain, refined = shor_sim.success_probabilities((1 << 20) - 1, r, 1 << 512)
        assert 0.0 <= plain <= refined <= 1.0
    argv = ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2", "--Q"]
    at_cap = cli_process([*argv, str(1 << 512)], timeout=60)
    assert at_cap.returncode == cli.EXIT_OK, at_cap.stderr
    for command in (argv, ["shor-sim", "--N", "21", "--a", "2", "--Q"]):
        over = cli_process([*command, str(1 << 513)], timeout=60)
        assert over.returncode == cli.EXIT_BAD_PARAMS
        assert over.stderr == "error: Q must be at most 2^512: 2^513\n"


def test_delta_is_the_double_of_the_mpmath_delta():
    """Every pair compare_moduli can draw is p < q below 2^12 with an 8- to
    20-bit product; on each, the CSV delta is float(proximity_delta)."""
    primes = sieve_range(2, 1 << 12)
    pairs = [
        (p, q) for i, p in enumerate(primes) for q in primes[i + 1 :] if 8 <= (p * q).bit_length() <= 20
    ]
    assert len(pairs) == 50_150
    assert [shor_sim._delta_float(p, q) for p, q in pairs] == [
        float(entropy.proximity_delta(p, q)) for p, q in pairs
    ]


def test_prob_at_large_q_keeps_precision():
    """The sine argument must be range-reduced in integers: at Q = 2^40 the
    naive float product would carry ~2^-12 of phase error."""
    q_size = 1 << 40
    r = 12
    m = -(-q_size // r)
    with mp.workprec(200):
        for c in (1, 5, 7, 11):
            y = c * q_size // r  # floor lands just off the rational peak
            t = r * y % q_size
            want = float(
                (mp.sin(mp.pi * m * t / q_size) / mp.sin(mp.pi * t / q_size)) ** 2
                / (q_size * m)
            )
            got = shor_sim._prob_at_distance(min(t, q_size - t), r, q_size)
            assert abs(got - want) <= 1e-12 * max(want, 1e-30), (c, got, want)


def test_prob_at_a_closing_point_is_zero_as_the_dense_oracle_says():
    """m*d = 6*8 = 48 is a multiple of Q = 16: the folded numerator is
    sin(0), and y = 8 (t = 3*8 mod 16 = 8) scores nothing in the dense scan."""
    assert shor_sim._prob_at_distance(8, 3, 16) == 0.0 == measurement_distribution(3, 16)[8]


def test_success_probability_large_q_default():
    # N at the 2^20 cap with default Q = 2^40; a = 2 has order exactly 20
    n = (1 << 20) - 1
    assert shor_sim.multiplicative_order(2, n) == 20
    p = shor_sim.shor_success_probability(n, 2)
    assert 0.0 <= p <= 1.0
    assert p > 0.1  # the 20 clean peaks recover the tiny period easily


def test_circuit_order_estimates_closed_forms():
    est = shor_sim.circuit_order_estimates(15)
    assert est["modulus_bits"] == 4
    assert est["width_order"] == 4
    assert est["depth_order"] == 4 * math.log2(4) * math.log2(math.log2(4))
    assert "log2" in est["depth_symbolic"]


# --- comparison harness -----------------------------------------------------------


def test_compare_moduli_small_run():
    rows = shor_sim.compare_moduli(10, 3, 0.35, SeedStream(bytes(32)), bases_per_modulus=5)
    assert len(rows) == 6
    close = [r for r in rows if r.group == "close"]
    control = [r for r in rows if r.group == "control"]
    assert len(close) == 3 and len(control) == 3
    for row in rows:
        assert 0.0 <= row.mean_success_prob <= 1.0
        assert 0.0 <= row.mean_success_prob_refined <= 1.0
        assert row.N == row.p * row.q
        assert row.N.bit_length() == 10
    for row in close:
        assert row.delta < 0.35
    summary = shor_sim.group_summary(rows)
    assert set(summary) == {"close", "control"}


def test_compare_moduli_is_deterministic():
    r1 = shor_sim.compare_moduli(10, 2, 0.3, SeedStream(bytes(32)), bases_per_modulus=3)
    r2 = shor_sim.compare_moduli(10, 2, 0.3, SeedStream(bytes(32)), bases_per_modulus=3)
    assert r1 == r2


@pytest.mark.parametrize(
    "name, argv",
    [
        ("shor_compare_10.csv", ["--bits", "10", "--pairs", "3", "--bases", "5"]),
        ("shor_compare_10_q1024.csv", ["--bits", "10", "--pairs", "3", "--bases", "5", "--Q", "1024"]),
        ("shor_compare_12.csv", ["--bits", "12", "--pairs", "8", "--bases", "4", "--seed", "11" * 32]),
    ],
)
def test_shor_compare_csv_is_pinned(name, argv, capsys):
    """CSV bytes recorded with exactly rounded (fsum) sums; every float must replay."""
    assert cli.main(["shor-compare", "--gamma", "0.35", *argv]) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


def _count_recover_period(monkeypatch):
    calls = []
    original = shor_sim.recover_period
    monkeypatch.setattr(
        shor_sim, "recover_period", lambda *args: calls.append(args) or original(*args)
    )
    return calls


def test_no_continued_fraction_at_default_q(monkeypatch):
    calls = _count_recover_period(monkeypatch)
    shor_sim.compare_moduli(12, 2, 0.35, SeedStream(bytes(32)), bases_per_modulus=4)
    assert calls == []


def test_q_below_n_squared_keeps_the_continued_fraction(monkeypatch, capsys):
    calls = _count_recover_period(monkeypatch)
    argv = ["--bits", "10", "--pairs", "3", "--bases", "5", "--Q", "1024"]
    assert cli.main(["shor-compare", "--gamma", "0.35", *argv]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "shor_compare_10_q1024.csv").read_bytes()
    assert len(calls) >= 1


def test_shor_compare_at_twenty_bits_is_pinned(tmp_path, capsys, wall_clock):
    """Recorded with exactly rounded (fsum) sums; the divisor classes must replay it."""
    out_csv = tmp_path / "cmp.csv"
    argv = ["--bits", "20", "--pairs", "2", "--gamma", "0.2", "--bases", "2", "--seed", "00" * 32]
    with wall_clock(10):
        assert cli.main(["shor-compare", *argv, "-o", str(out_csv)]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "shor_compare_20.json").read_bytes()
    assert out_csv.read_bytes() == (DATA / "shor_compare_20.csv").read_bytes()


def test_draw_bases_replays_recorded_draws(wall_clock):
    # count equal to the phi(n) - 2 usable bases: the rejection loop's edge
    recorded = {
        (15, 6): [13, 11, 7, 4, 8, 2],
        (21, 10): [19, 16, 10, 5, 8, 13, 2, 4, 17, 11],
        (35, 22): [13, 8, 26, 22, 23, 31, 3, 24, 16, 19, 17, 27, 18, 4, 9, 32, 11, 29, 33, 6, 2, 12],
        (1003, 20): [421, 432, 258, 742, 991, 95, 965, 184, 147, 171,
                     110, 232, 72, 805, 888, 388, 859, 253, 628, 685],
    }
    with wall_clock(10):
        for (n, count), want in recorded.items():
            assert shor_sim.draw_bases(SeedStream(bytes(32)), n, count) == want


@pytest.mark.parametrize("n", [5, 8, 15, 21, 35, 97, 221])
def test_draw_bases_feasibility_edge(n, wall_clock):
    usable = sum(1 for a in range(2, n - 1) if math.gcd(a, n) == 1)
    with wall_clock(10):
        bases = shor_sim.draw_bases(SeedStream(bytes(32)), n, usable)
        assert sorted(bases) == [a for a in range(2, n - 1) if math.gcd(a, n) == 1]
        with pytest.raises(ParameterError):
            shor_sim.draw_bases(SeedStream(bytes(32)), n, usable + 1)


def test_draw_bases_rejects_degenerate_requests():
    for n, count in ((4, 1), (3, 1), (15, 0), ((1 << 20) + 1, 1)):
        with pytest.raises(ParameterError):
            shor_sim.draw_bases(SeedStream(bytes(32)), n, count)


@pytest.mark.parametrize(
    "argv",
    [
        ["shor-sim", "--N", "15"],
        ["shor-sim", "--N", "15", "--sweep", "0"],
        ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "1000"],
        ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "0"],
    ],
)
def test_infeasible_base_counts_exit_3_without_traceback(argv, cli_process):
    result = cli_process(argv, timeout=60)
    assert result.returncode == cli.EXIT_BAD_PARAMS, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: cannot draw")


def test_compare_moduli_rejects_tiny_sizes():
    with pytest.raises(ParameterError):
        shor_sim.compare_moduli(6, 2, 0.3, SeedStream(bytes(32)))
    with pytest.raises(ParameterError):
        shor_sim.compare_moduli(10, 10_000, 0.3, SeedStream(bytes(32)))
