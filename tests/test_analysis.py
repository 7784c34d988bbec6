import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fermat_oracle import fermat_search
from mpmath import mp, mpf

from proxrsa import analysis
from proxrsa.errors import ParameterError
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


def test_distinguishability_values():
    got = analysis.distinguishability_bound(101, 103)
    with mp.workprec(200):
        want = 2 * mp.exp(mpf(-4) / 808)
    assert abs(got - want) < mpf(2) ** -60
    assert abs(float(got) - 1.990123) < 1e-6
    got35 = analysis.distinguishability_bound(3, 5)
    assert abs(float(got35) - 2 * math.exp(-4 / 24)) < 1e-12


def test_distinguishability_decays():
    fixed_min = 101
    values = [float(analysis.distinguishability_bound(fixed_min, fixed_min + g)) for g in (2, 10, 50, 200)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-6


def test_complexity_report_fields():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64)
    n = 101 * 103
    assert abs(rep.measurement_estimate - 100 * n) < 1e-6
    assert abs(rep.quantum_ops_estimate - 10 * 64**1.5) < 1e-6
    assert abs(rep.quantum_ops_estimate - 5120) < 1e-6
    assert abs(float(rep.mutual_info_bound) - 0.2) < 1e-15
    assert rep.fano_lower_bound is None
    assert float(rep.succ_prob_bound) <= 1.0


def test_complexity_report_gamma_one():
    rep = analysis.complexity_report(101, 103, Fraction(1, 1), k=64)
    assert rep.measurement_estimate == 101 * 103
    assert rep.query_estimate == 1


def test_complexity_report_query_estimate():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64)
    assert abs(float(rep.query_estimate) - 10.0) < 1e-12


def test_quantum_report_field_ranges():
    from proxrsa.numerics import sieve_range

    primes = sieve_range(100, 400)
    for p, q in zip(primes[::7], primes[1::7]):
        rep = analysis.complexity_report(p, q, Fraction(1, 5))
        assert rep.angular_separation > 0
        assert rep.angular_bound > 0
        assert 0 <= rep.distinguishability_bound <= 2
        assert rep.measurement_estimate > 0
        assert rep.quantum_ops_estimate > 0
        assert rep.mutual_info_bound >= 0
        assert 0 <= rep.succ_prob_bound <= 1


def test_classical_report_quotes_symbolic_costs():
    doc = analysis.classical_report(FakeKey([101, 103]), fermat_budget=10).to_dict()
    assert doc["gnfs_cost_symbolic"] == analysis.GNFS_COST_SYMBOLIC
    assert doc["ecm_cost_symbolic"] == analysis.ECM_COST_SYMBOLIC


def test_complexity_report_fano():
    rep = analysis.complexity_report(101, 103, Fraction(1, 10), k=64, kappa=0.5, eps_param=0.01)
    want = 0.5 * 64 * math.log2(64) / 0.01
    assert abs(float(rep.fano_lower_bound) - want) < 1e-6
    with pytest.raises(ParameterError):
        analysis.complexity_report(101, 103, Fraction(1, 10), kappa=0.5)


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
        got = analysis.lattice_embed(value, n_mod, n, m_root, precision_bits=128)
        assert got == oracle_embed(value, n_mod, n, m_root, 512)


def test_lattice_embed_exact_on_surd_cosines():
    # 2 * cos(5*pi/6) / sqrt(3) = -1 and 4 * cos(3*pi/4) / sqrt(8) = -1 exactly:
    # the floors must not depend on rounding at any precision.
    for bits in (53, 128, 512):
        assert analysis.lattice_embed(2, 3, 6, 12, precision_bits=bits) == [1, 1, 0, 0, -1, -1]
        assert analysis.lattice_embed(4, 8, 4, 8, precision_bits=bits) == [1, 1, 0, -1]
        assert analysis.lattice_embed(6, 8, 4, 8, precision_bits=bits) == [2, 1, 0, -2]


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


@given(
    value=st.integers(1, 10**9),
    n_mod=st.integers(2, 10**9),
    n=st.integers(1, 16),
    m_root=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_lattice_embed_precision_stability(value, n_mod, n, m_root):
    if value >= n_mod:
        value = n_mod - 1
    lo = analysis.lattice_embed(value, n_mod, n, m_root, precision_bits=128)
    hi = analysis.lattice_embed(value, n_mod, n, m_root, precision_bits=512)
    assert lo == hi
