"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with the measured evidence.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; any failure fails the suite.
"""

import csv
import json
import math
import time
from fractions import Fraction

import numpy as np
from dense_oracle import measurement_distribution
from fermat_oracle import fermat_search
from mpmath import mp, mpf

from proxrsa import analysis, census, cli, entropy, keyfile, keygen, shor_sim, validate
from proxrsa.keygen import KeyGenParams
from proxrsa.numerics import SeedStream, is_probable_prime, sieve_range, stream_uint

ZEROS = "00" * 32


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- 1. keygen validity across the parameter grid ---------------------------


def test_criterion_01_keygen_validity():
    started = time.monotonic()
    configs = []
    for k in (32, 48, 64):
        for gamma in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            for seed_byte in range(6):
                configs.append((k, gamma, bytes([seed_byte + 1]) * 32))
    configs = configs[:50]
    assert len(configs) == 50

    for k, gamma, seed in configs:
        kp = keygen.generate_keypair(
            KeyGenParams(k=k, seed=seed, gamma=gamma, beta=0.9)
        )
        failures = validate.validate_key(kp)
        assert failures == [], (k, gamma, failures)
        p, q = kp.primes
        # exact proximity and congruence, re-stated from raw integers
        assert gamma.denominator**2 * (p - q) ** 2 < gamma.numerator**2 * p * q
        assert p % kp.m_modulus == kp.residues[0]
        assert q % kp.m_modulus == kp.residues[1]
        assert kp.e * kp.d % ((p - 1) * (q - 1)) == 1
        assert kp.d**10 > kp.n**3
        ok, _ = entropy.check_entropy_constraint(p, q, gamma, 0.9)
        assert ok
        for msg in range(2, 102):
            assert pow(pow(msg, kp.e, kp.n), kp.d, kp.n) == msg % kp.n

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"50 validated runs took {elapsed:.1f}s"
    _report(1, f"50 keypairs (k in 32/48/64, gamma in 1/2..1/8) fully valid in {elapsed:.1f}s")


# -- 2. determinism -----------------------------------------------------------


def test_criterion_02_determinism(tmp_path, capsys):
    args = [
        "keygen", "--k", "64", "--gamma", "1/4", "--beta", "0.9",
        "--seed", ZEROS, "--insecure-small",
    ]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["-o", str(path_a)]) == 0
    assert cli.main(args + ["-o", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()

    kp1 = keygen.generate_keypair(KeyGenParams(k=64, seed=bytes(32), gamma=Fraction(1, 4)))
    kp2 = keygen.generate_keypair(KeyGenParams(k=64, seed=bytes(32), gamma=Fraction(1, 4)))
    b1 = keyfile.document_to_bytes(keyfile.keypair_to_document(kp1))
    b2 = keyfile.document_to_bytes(keyfile.keypair_to_document(kp2))
    assert b1 == b2
    _report(2, f"identical flags+seed give byte-identical files ({len(b1)} bytes)")


# -- 3. entropy model ---------------------------------------------------------


def test_criterion_03_entropy_model():
    assert entropy.purity_lower(0) == 1
    assert entropy.purity_lower(2) == Fraction(1, 2)
    worst = 0.0
    for i in range(0, 51):
        delta = Fraction(i, 100)
        excess = float(entropy.h2_from_delta(delta) - entropy.h2_upper_bound(delta))
        worst = max(worst, excess)
        assert excess <= 0.02, f"delta={float(delta)}: excess {excess}"
    _report(3, f"H2(delta) <= cap + 0.02 bits on the 0..0.5 grid (worst excess {worst:.4f}); endpoints exact")


# -- 4. angular separation ----------------------------------------------------


def _brute_min_angular_numerator(p, q):
    """Exhaustive over s with integer arithmetic; min nonzero |s(q-1) - t(p-1)|."""
    P, Q = p - 1, q - 1
    best = None
    for s in range(P):
        base = s * Q
        t0 = base // P
        for t in (t0 - 1, t0, t0 + 1, t0 + 2):
            if not 0 <= t < Q:
                continue
            num = abs(base - t * P)
            if num and (best is None or num < best):
                best = num
    return best


def test_criterion_04_angular_separation():
    started = time.monotonic()
    # sanity-check the fast oracle against the fully naive double loop
    for p, q in [(2, 3), (3, 5), (5, 7), (7, 11), (13, 23)]:
        naive = min(
            abs(Fraction(s, p - 1) - Fraction(t, q - 1))
            for s in range(p - 1)
            for t in range(q - 1)
            if Fraction(s, p - 1) != Fraction(t, q - 1)
        )
        assert Fraction(_brute_min_angular_numerator(p, q), (p - 1) * (q - 1)) == naive

    primes = sieve_range(2, 199)
    pairs = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            want = Fraction(_brute_min_angular_numerator(p, q), (p - 1) * (q - 1))
            assert analysis.angular_separation(p, q) == want, (p, q)
            pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"{pairs} pairs took {elapsed:.1f}s"
    _report(4, f"closed form == brute force on {pairs} pairs (p<q<200), zero mismatches, {elapsed:.1f}s")


# -- 5. measurement statistics -------------------------------------------------


def test_criterion_05_shor_simulator():
    probs = measurement_distribution(4, 2048)
    peaks = np.flatnonzero(probs > 0)
    assert peaks.tolist() == [0, 512, 1024, 1536]
    assert np.all(np.abs(probs[peaks] - 0.25) < 1e-12)
    assert abs(shor_sim.shor_success_probability(15, 7, 2048, refine=False) - 0.5) < 1e-12
    assert abs(shor_sim.shor_success_probability(15, 7, 2048, refine=True) - 0.75) < 1e-12

    worst = 0.0
    for q_size in (256, 1024, 4096):
        for r in range(1, 65):
            m = -(-q_size // r)
            y = np.arange(q_size, dtype=np.int64)
            t = (np.int64(r) * y) % q_size
            raw = np.zeros(q_size)
            raw[t == 0] = m / q_size
            live = (t != 0) & ((np.int64(m) * t) % q_size != 0)
            tl = t[live].astype(np.float64)
            ratio = np.sin(np.pi * m * tl / q_size) / np.sin(np.pi * tl / q_size)
            raw[live] = ratio * ratio / (q_size * m)
            drift = abs(raw.sum() - 1.0)
            worst = max(worst, drift)
            assert drift < 1e-9, (r, q_size)
    _report(5, f"N=15/a=7/Q=2048: four 1/4 peaks, success 0.5 plain and 0.75 refined; worst normalization drift {worst:.2e}")


# -- 6. Fermat cross-check -------------------------------------------------------


def _next_prime_at_least(n):
    c = n | 1
    while not is_probable_prime(c, 32):
        c += 2
    return c


def test_criterion_06_fermat_cross_check():
    assert fermat_search(10403, 5) == (1, (101, 103))

    stream = SeedStream(b"\x06" * 32)
    checked = 0
    while checked < 500:
        p = _next_prime_at_least((1 << 16) + stream_uint(stream, (1 << 20) - (1 << 16)))
        # bounded gap keeps the observed attack cheap; pairs remain random
        q = _next_prime_at_least(p + 2 + stream_uint(stream, 4096))
        if q.bit_length() > 20:
            continue
        want = analysis.fermat_iterations_analytic(p, q)
        assert fermat_search(p * q, want + 8) == (want, (p, q)), (p, q)
        checked += 1
    _report(6, "analytic Fermat count == observed attack iteration on 500 seeded semiprimes; 10403 at iteration 1")


# -- 7. compatible construction --------------------------------------------------


def test_criterion_07_compatible_construction():
    gamma = Fraction(1, 4)
    kp = keygen.generate_compatible(
        KeyGenParams(k=256, seed=bytes(32), gamma=gamma, beta=0.9), shift=20
    )
    gap = abs(kp.primes[0] - kp.primes[1])
    target = 1 << (256 // 2 - 20)
    assert gap >= target
    assert gap**4 > kp.n
    p, q = kp.inner_primes
    assert gamma.denominator**2 * (p - q) ** 2 < gamma.numerator**2 * p * q
    assert validate.validate_key(kp) == []
    _report(7, f"k=256/shift=20: outer gap {gap.bit_length()} bits >= 2^108, gap^4 > N, inner pair proximity exact")


# -- 8. census ground truth --------------------------------------------------------


def _naive_census(lo, hi, gamma):
    primes = [n for n in range(max(2, lo), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]
    count = 0
    for p, q in zip(primes, primes[1:]):
        if gamma.denominator**2 * (q - p) ** 2 < gamma.numerator**2 * p * q:
            count += 1
    return count


def test_criterion_08_census_ground_truth():
    assert census.census_pairs(2, 20, Fraction(1, 2)).pair_count == 6

    for lo, hi in [(2, 10**5), (50_000, 10**5), (2, 4_000)]:
        gamma = Fraction(1, 2)
        assert census.census_pairs(lo, hi, gamma).pair_count == _naive_census(lo, hi, gamma)

    stream = SeedStream(b"\x08" * 32)
    for _ in range(20):
        lo = 2 + stream_uint(stream, 5000)
        hi = lo + 100 + stream_uint(stream, 4000)
        d1 = 1 + stream_uint(stream, 40)
        d2 = 1 + stream_uint(stream, 40)
        g1 = Fraction(min(d1, d2), 41)
        g2 = Fraction(max(d1, d2) + 1, 41)
        assert (
            census.census_pairs(lo, hi, g1).pair_count
            <= census.census_pairs(lo, hi, g2).pair_count
        )
    _report(8, "census([2,20], 1/2) == 6; segmented == naive to 1e5; gamma-monotone on 20 seeded cases")


# -- 9. lattice embedding -----------------------------------------------------------


def _oracle_embed_512(value, n_mod, n, m_root):
    """Independent 512-bit evaluation; quarter turns have cosine exactly 0."""
    out = []
    with mp.workprec(512):
        root = mp.sqrt(mpf(n_mod))
        for i in range(n):
            k = i % m_root
            if 4 * k % m_root == 0 and 2 * k % m_root != 0:
                out.append(0)
                continue
            x = mpf(value) * mp.cos(2 * mp.pi * k / m_root) / root
            out.append(int(mp.floor(x)))
    return out


def test_criterion_09_lattice_embedding():
    stream = SeedStream(b"\x09" * 32)
    for _ in range(100):
        n_mod = 2 + stream_uint(stream, (1 << 40) - 2)
        value = 1 + stream_uint(stream, n_mod - 1)
        n = 1 + stream_uint(stream, 64)
        m_root = 1 + stream_uint(stream, 64)
        got = analysis.lattice_embed(value, n_mod, n, m_root)
        assert got == _oracle_embed_512(value, n_mod, n, m_root), (
            value, n_mod, n, m_root,
        )

    norm, _ = analysis.embedding_gap_norm(977, 977, 10_000, 32, 16)
    assert norm == 0.0
    norm2, _ = analysis.embedding_gap_norm(2, 3, 100, 8, 8)
    assert norm2 == 0.0  # identical coefficient vectors, distinct inputs
    _report(9, "exact embedding matches 512-bit oracle on 100 seeded inputs; equal embeddings give norm 0")


# -- 10. empirical probe ---------------------------------------------------------------


def test_criterion_10_empirical_probe(tmp_path, capsys):
    out_csv = tmp_path / "compare.csv"
    code = cli.main(
        [
            "shor-compare", "--bits", "12", "--pairs", "10", "--gamma", "0.35",
            "--seed", ZEROS, "-o", str(out_csv),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["rows"] == 20

    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert sum(1 for r in rows if r["group"] == "close") == 10
    assert sum(1 for r in rows if r["group"] == "control") == 10
    for row in rows:
        for col in ("mean_success_prob", "mean_success_prob_refined"):
            v = float(row[col])
            assert 0.0 <= v <= 1.0, row
    close = summary["groups"]["close"]["mean_success_prob"]
    control = summary["groups"]["control"]["mean_success_prob"]
    # report only; no directional claim is made about close vs control
    _report(10, f"12-bit probe complete: close mean {close:.4f}, control mean {control:.4f}, all probabilities in [0,1]")
