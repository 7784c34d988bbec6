import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath_oracle as oracle
from fermat_oracle import fermat_search
from mpmath import mp, mpf

from proxrsa import analysis
from proxrsa.errors import NumericalError, ParameterError
from proxrsa.numerics import sieve_range


def brute_force_angular_separation(p, q):
    """Exhaustive over s; for each s the optimal t is floor/ceil of the target.

    Exact Fraction arithmetic; checks t-1 and t+1 as well so ties and the
    nonzero requirement cannot be missed.
    """
    best = None
    for s in range(p - 1):
        target = Fraction(s * (q - 1), p - 1)
        for t in {math.floor(target) + d for d in (-1, 0, 1, 2)}:
            if not 0 <= t < q - 1:
                continue
            value = abs(Fraction(s, p - 1) - Fraction(t, q - 1))
            if value == 0:
                continue
            if best is None or value < best:
                best = value
    return best


def double_loop_angular_separation(p, q):
    """Fully naive (s, t) double loop, usable for tiny primes only."""
    best = None
    for s in range(p - 1):
        for t in range(q - 1):
            value = abs(Fraction(s, p - 1) - Fraction(t, q - 1))
            if value == 0:
                continue
            if best is None or value < best:
                best = value
    return best


def test_angular_separation_examples():
    assert analysis.angular_separation(7, 5) == Fraction(1, 12)
    assert analysis.angular_separation(3, 5) == Fraction(1, 4)
    assert analysis.angular_separation(3, 7) == Fraction(1, 6)


def test_angular_separation_rejects_non_primes():
    with pytest.raises(ParameterError):
        analysis.angular_separation(9, 5)
    with pytest.raises(ParameterError):
        analysis.angular_separation(5, 5)


def test_oracles_agree_with_each_other():
    primes = sieve_range(2, 23)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            assert brute_force_angular_separation(p, q) == double_loop_angular_separation(p, q)


def test_angular_separation_against_brute_force_sample():
    for p, q in [(11, 13), (13, 31), (29, 97), (101, 103), (59, 61)]:
        assert analysis.angular_separation(p, q) == brute_force_angular_separation(p, q)


def test_angular_separation_gap_bound():
    primes = sieve_range(2, 200)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            sep = analysis.angular_separation(p, q)
            assert sep <= Fraction(abs(p - q) + 1, min(p, q) ** 2)


def as_float(x):
    """A report's (man, exp) value as a float."""
    return math.ldexp(*x)


def test_distinguishability_values():
    got = analysis.distinguishability_bound(101, 103)
    with mp.workprec(200):
        want = 2 * mp.exp(mpf(-4) / 808)
    assert abs(oracle.as_fraction(want) - Fraction(got[0]) * Fraction(2) ** got[1]) < Fraction(1, 2**60)
    assert got == oracle.as_binary(oracle.distinguishability_bound(101, 103))
    assert abs(as_float(got) - 1.990123) < 1e-6
    got35 = analysis.distinguishability_bound(3, 5)
    assert abs(as_float(got35) - 2 * math.exp(-4 / 24)) < 1e-12


def test_distinguishability_decays():
    fixed_min = 101
    values = [as_float(analysis.distinguishability_bound(fixed_min, fixed_min + g)) for g in (2, 10, 50, 200)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-6


def test_complexity_report_fields():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64)
    n = 101 * 103
    assert abs(as_float(rep.measurement_estimate) - 100 * n) < 1e-6
    assert abs(as_float(rep.quantum_ops_estimate) - 10 * 64**1.5) < 1e-6
    assert abs(as_float(rep.quantum_ops_estimate) - 5120) < 1e-6
    assert abs(as_float(rep.mutual_info_bound) - 0.2) < 1e-15
    assert rep.fano_lower_bound is None
    assert as_float(rep.succ_prob_bound) <= 1.0


def test_complexity_report_gamma_one():
    rep = analysis.complexity_report(101, 103, Fraction(1, 1), k=64)
    assert rep.measurement_estimate == (101 * 103, 0)
    assert rep.query_estimate == (1, 0)


def test_complexity_report_query_estimate():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64)
    assert abs(as_float(rep.query_estimate) - 10.0) < 1e-12


def test_quantum_report_field_ranges():
    from proxrsa.numerics import sieve_range

    primes = sieve_range(100, 400)
    for p, q in zip(primes[::7], primes[1::7]):
        rep = analysis.complexity_report(p, q, Fraction(1, 5))
        assert rep.angular_separation > 0
        assert as_float(rep.angular_bound) > 0
        assert 0 <= as_float(rep.distinguishability_bound) <= 2
        assert as_float(rep.measurement_estimate) > 0
        assert as_float(rep.quantum_ops_estimate) > 0
        assert as_float(rep.mutual_info_bound) >= 0
        assert 0 <= as_float(rep.succ_prob_bound) <= 1


def test_two_to_minus_one_half_is_mpmaths_power():
    """The bound 2^-H2 at H2 = 1/2 takes the inverse square root of 2."""
    with mp.workprec(analysis.BITS):
        want = mpf(2) ** -0.5
    assert analysis._two_to((-1, -1)) == (want.man, want.exp) == (56022770974786139918731938227, -96)


def test_classical_report_quotes_symbolic_costs():
    doc = analysis.classical_report(FakeKey([101, 103]), fermat_budget=10).to_dict()
    assert doc["gnfs_cost_symbolic"] == analysis.GNFS_COST_SYMBOLIC
    assert doc["ecm_cost_symbolic"] == analysis.ECM_COST_SYMBOLIC


def test_complexity_report_fano():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64, kappa=0.5, eps_param=0.01)
    want = 0.5 * 64 * math.log2(64) / 0.01
    assert abs(as_float(rep.fano_lower_bound) - want) < 1e-6
    with pytest.raises(ParameterError):
        analysis.complexity_report(101, 103, Fraction(1, 10), kappa=0.5)
    # mpmath printed "nan", "0.0" or a complex k^1.5 for the first three; a
    # kappa <= 0 gave a bound <= 0, and an eps_param alone was ignored
    for kappa, eps, why in [
        (math.nan, 0.01, "finite"),
        (0.5, math.inf, "finite"),
        (math.inf, 0.01, "finite"),
        (-2.0, 0.5, "positive kappa"),
        (0.0, 0.01, "positive kappa"),
        (None, 0.5, "kappa with eps_param"),
    ]:
        with pytest.raises(ParameterError, match=why):
            analysis.complexity_report(101, 103, Fraction(1, 10), k=64, kappa=kappa, eps_param=eps)
    for k in (0, -5):
        with pytest.raises(ParameterError, match="k must be >= 1"):
            analysis.complexity_report(101, 103, Fraction(1, 10), k=k)


def test_fermat_analytic_matches_attack():
    pairs = [(101, 103), (3, 7), (1009, 1013), (997, 1033), (2003, 2111)]
    for p, q in pairs:
        want = analysis.fermat_iterations_analytic(p, q)
        assert fermat_search(p * q, want + 10) == (want, (min(p, q), max(p, q)))
        assert fermat_search(p * q, want - 1) is None


class FakeKey:
    def __init__(self, primes, d=None):
        self.primes = list(primes)
        self.n = math.prod(primes)
        self.d = d if d is not None else self.n  # d = N is trivially Wiener-safe
        self.e = 65537
        self.variant = "standard" if len(primes) == 2 else "multiprime"


def test_classical_report_two_primes():
    rep = analysis.classical_report(FakeKey([101, 103]), fermat_budget=10)
    assert rep.fermat_applicable
    assert rep.fermat_iterations_exact == 1
    assert rep.fermat_feasible is True
    assert rep.wiener_safe is True  # d = N
    assert rep.gap_exceeds_quarter_root is False  # 2^4 = 16 < 10403


def test_classical_report_multiprime_marks_fermat_na():
    rep = analysis.classical_report(FakeKey([101, 103, 107]), fermat_budget=10)
    assert not rep.fermat_applicable
    assert rep.fermat_iterations_exact is None
    assert rep.fermat_feasible is None
    assert rep.gap_exceeds_quarter_root is None


def test_classical_report_wiener_floor():
    small_d = FakeKey([101, 103], d=5)
    assert analysis.classical_report(small_d, fermat_budget=10).wiener_safe is False


# --- lattice embedding ------------------------------------------------------


def oracle_embed(value, n_modulus, n, m_root, prec):
    """Independent evaluation: straight mpmath at the given precision."""
    coeffs = []
    with mp.workprec(prec):
        root = mp.sqrt(mpf(n_modulus))
        for i in range(n):
            angle = 2 * mp.pi * (i % m_root) / m_root
            coeffs.append(int(mp.floor(mpf(value) * mp.cos(angle) / root)))
    return coeffs


def exact_oracle(value, n_modulus, n, m_root):
    """oracle_embed at 2*bits + 256 bits, and where a quotient lies within
    2^-(bits + 128) of an integer z, that z if z = value*cos/sqrt(N)
    exactly: z^2 * N = value^2 * cos^2, with cos^2 then a multiple of 1/4
    read off the high-precision value."""
    prec = 2 * n_modulus.bit_length() + 256
    out = oracle_embed(value, n_modulus, n, m_root, prec)
    with mp.workprec(prec):
        root = mp.sqrt(mpf(n_modulus))
        for i in range(n):
            cos = mp.cos(2 * mp.pi * (i % m_root) / m_root)
            x = mpf(value) * cos / root
            z = int(mp.nint(x))
            if abs(x - z) < mpf(2) ** -(prec // 2):
                quarters = int(mp.nint(4 * cos**2))
                assert abs(4 * cos**2 - quarters) < mpf(2) ** -(prec // 2)
                if 4 * z * z * n_modulus == value * value * quarters and (z == 0 or (z < 0) == (cos < 0)):
                    out[i] = z
    return out


def test_lattice_embed_worked_example():
    emb = analysis.lattice_embed(3, 15, 4, 4)
    assert emb == [0, 0, -1, 0]


def test_lattice_embed_trivial_root():
    emb = analysis.lattice_embed(2, 100, 3, 1)
    assert emb == [0, 0, 0]  # value < sqrt(N), cos = 1


def test_lattice_embed_single_coefficient():
    emb = analysis.lattice_embed(7, 50, 1, 8)
    assert emb == [math.floor(7 / math.sqrt(50))]


def test_lattice_embed_domain_errors():
    with pytest.raises(ParameterError):
        analysis.lattice_embed(0, 10, 4, 4)
    with pytest.raises(ParameterError):
        analysis.lattice_embed(10, 10, 4, 4)
    with pytest.raises(ParameterError):
        analysis.lattice_embed(3, 10, 0, 4)


def test_lattice_embed_matches_oracle_on_irrational_angles():
    # m_root values whose angles avoid the rational-cosine table entirely
    for value, n_mod, n, m_root in [(7, 53, 16, 7), (25, 97, 32, 9), (999, 2003, 24, 11)]:
        got = analysis.lattice_embed(value, n_mod, n, m_root)
        assert got == oracle_embed(value, n_mod, n, m_root, 512)


def test_lattice_embed_exact_on_surd_cosines():
    # 2 * cos(5*pi/6) / sqrt(3) = -1 and 4 * cos(3*pi/4) / sqrt(8) = -1 exactly:
    # the floors must not depend on rounding.
    assert analysis.lattice_embed(2, 3, 6, 12) == [1, 1, 0, 0, -1, -1]
    assert analysis.lattice_embed(4, 8, 4, 8) == [1, 1, 0, -1]
    assert analysis.lattice_embed(6, 8, 4, 8) == [2, 1, 0, -2]
    # quotients of exactly +-1 and +-2 at every rational cos^2, where the
    # high-precision floor alone may land one below
    for value, n_mod, n, m_root in [(2, 4, 12, 12), (6, 12, 12, 12), (12, 108, 12, 12), (10, 50, 8, 8)]:
        assert analysis.lattice_embed(value, n_mod, n, m_root) == exact_oracle(value, n_mod, n, m_root)


def test_lattice_embed_large_modulus():
    """At N = 2^600 + 3 the quotients lie near 2^300; 128 bits of mpmath
    missed two of them by about 10^50."""
    n_mod = 2**600 + 3
    got = analysis.lattice_embed(n_mod - 1, n_mod, 3, 7)
    assert got == oracle_embed(n_mod - 1, n_mod, 3, 7, 4096)


def test_lattice_embed_gives_up_at_the_bound(monkeypatch):
    # A cosine bracket that never shrinks away from an integer quotient:
    # 20 * (1/2) / sqrt(100) = 1 sits inside every bracket.
    monkeypatch.setattr(analysis, "_cos_fixed", lambda num, den, w: 1 << (w - 1))
    with pytest.raises(NumericalError, match="undecided"):
        analysis.lattice_embed(20, 100, 2, 7)


def test_embedding_gap_norm():
    norm, within = analysis.embedding_gap_norm(7, 7, 100, 8, 16, Fraction(1, 2))
    assert norm == 0.0 and within is True
    # floors of 2/10 and 3/10 coincide, distinct inputs, zero distance
    norm2, _ = analysis.embedding_gap_norm(2, 3, 100, 1, 1)
    assert norm2 == 0.0


def test_embedding_difference_carries_norm():
    psi_3, psi_4 = analysis.lattice_embed(3, 15, 4, 4), analysis.lattice_embed(4, 15, 4, 4)
    assert [a - b for a, b in zip(psi_3, psi_4)] == [-1, 0, 1, 0]
    assert analysis.embedding_gap_norm(3, 4, 15, 4, 4) == (math.sqrt(2), None)


def test_embedding_gap_norm_single_dim_is_zero_or_one():
    # values within [0, 2*sqrt(N)): floors differ by at most 1
    for a, b in [(2, 9), (3, 7), (5, 6), (9, 11), (19, 11)]:
        norm, _ = analysis.embedding_gap_norm(a, b, 100, 1, 4)
        assert norm in (0.0, 1.0)
    assert analysis.embedding_gap_norm(9, 11, 100, 1, 4)[0] == 1.0


def test_embedding_gap_norm_past_the_float_range_of_its_square():
    # the squared norm has no float; the norm, near 2^590, has
    p, q, n_mod = 2**1190 + 1, 5, 2**1200 + 3
    psi_p, psi_q = (analysis.lattice_embed(v, n_mod, 4, 7) for v in (p, q))
    sq = sum((a - b) ** 2 for a, b in zip(psi_p, psi_q))
    assert sq.bit_length() > 1024
    root = math.isqrt(sq)
    norm, within = analysis.embedding_gap_norm(p, q, n_mod, 4, 7, Fraction(1, 2))
    assert norm == pytest.approx(root, rel=2**-52) and within is False
    assert analysis.embedding_gap_norm(p, q, n_mod, 4, 7, Fraction(root + 1)) == (norm, True)
    # a norm near 2^2100 has no float either
    n_mod = 2**4200 + 1
    with pytest.raises(ParameterError, match="float range"):
        analysis.embedding_gap_norm(n_mod - 1, 2, n_mod, 2, 4)


@given(
    n_bits=st.sampled_from(range(2, 2049)),
    rng=st.randoms(use_true_random=False),
    n=st.integers(1, 24),
    m_root=st.sampled_from(range(1, 49)),
)
@settings(max_examples=300, deadline=None)
def test_lattice_embed_matches_the_oracle(n_bits, rng, n, m_root):
    n_mod = rng.randrange(max(2, 1 << (n_bits - 1)), 1 << n_bits)
    value_bits = rng.randint(1, (n_mod - 1).bit_length())
    value = rng.randrange(1 << (value_bits - 1), min(1 << value_bits, n_mod))
    assert analysis.lattice_embed(value, n_mod, n, m_root) == exact_oracle(value, n_mod, n, m_root)
