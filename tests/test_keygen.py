import decimal
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxrsa import entropy, keyfile, keygen, numerics, validate
from proxrsa.errors import InfeasibleError, ParameterError, SearchExhaustedError
from proxrsa.keygen import KeyGenParams
from proxrsa.numerics import SeedStream, mod_pow

ZERO_SEED = bytes(32)


def params64(**overrides):
    base = dict(k=64, seed=ZERO_SEED, gamma=Fraction(1, 4), beta=0.9)
    base.update(overrides)
    return KeyGenParams(**base)


# --- small modulus and residues --------------------------------------------


def test_build_small_modulus():
    assert keygen.build_small_modulus(1) == 2
    assert keygen.build_small_modulus(4) == 210
    assert keygen.build_small_modulus(10) == 6469693230


def test_derive_residues_m6():
    res = keygen.derive_residues(6, SeedStream(ZERO_SEED), 2)
    assert sorted(res) == [1, 5]


def test_derive_residues_m6_three_is_infeasible():
    with pytest.raises(InfeasibleError):
        keygen.derive_residues(6, SeedStream(ZERO_SEED), 3)


def test_derive_residues_m30_golden():
    # pinned from the reference run with the all-zero seed
    assert keygen.derive_residues(30, SeedStream(ZERO_SEED), 2) == [29, 13]


def test_derive_residues_are_units_and_separated():
    res = keygen.derive_residues(30030, SeedStream(b"\x01" * 32), 4)
    assert len(set(res)) == 4
    for r in res:
        assert 0 < r < 30030
        from math import gcd

        assert gcd(r, 30030) == 1
    # factors with enough unit classes must separate the residues
    for f in (5, 7, 11, 13):
        assert len({r % f for r in res}) == 4


def test_derive_residues_skips_cramped_factors():
    # mod 3 only two unit classes exist, so 3 residues cannot separate there
    res = keygen.derive_residues(30030, SeedStream(ZERO_SEED), 3)
    assert len(set(res)) == 3
    for f in (5, 7, 11, 13):
        assert len({r % f for r in res}) == 3


# --- standard variant -------------------------------------------------------


def test_generate_keypair_golden_vector():
    kp = keygen.generate_keypair(params64())
    assert kp.primes == [4103215553, 4103198119]
    assert kp.n == 16836306338921144807
    assert kp.d == 13131841108185374849
    assert kp.e == 65537
    assert kp.m_modulus == 30030
    assert kp.residues == [6443, 19039]
    assert kp.variant == "standard"


def test_generate_keypair_is_deterministic():
    a = keygen.generate_keypair(params64())
    b = keygen.generate_keypair(params64())
    assert a.primes == b.primes and a.d == b.d
    c = keygen.generate_keypair(params64(seed=b"\x07" * 32))
    assert c.primes != a.primes


def test_generate_keypair_roundtrip_identity():
    kp = keygen.generate_keypair(params64())
    assert mod_pow(mod_pow(42, kp.e, kp.n), kp.d, kp.n) == 42


def test_generate_keypair_default_exponent():
    kp = keygen.generate_keypair(params64())
    assert kp.e == 65537


def test_generated_key_passes_independent_validator():
    kp = keygen.generate_keypair(params64())
    assert validate.validate_key(kp) == []


def test_validator_catches_tampered_exponent():
    kp = keygen.generate_keypair(params64())
    doc = keyfile.keypair_to_document(kp)
    doc["d"] = hex(int(doc["d"], 16) + 2)
    failures = validate.validate_key(keyfile.load_key_document(doc))
    assert any("e*d" in f or "roundtrip" in f for f in failures)


def test_validator_catches_swapped_residues():
    kp = keygen.generate_keypair(params64())
    doc = keyfile.keypair_to_document(kp)
    doc["residues"] = list(reversed(doc["residues"]))
    failures = validate.validate_key(keyfile.load_key_document(doc))
    assert any("congruent" in f for f in failures)


def test_validator_catches_composite_prime():
    kp = keygen.generate_keypair(params64())
    doc = keyfile.keypair_to_document(kp)
    p = int(doc["primes"][0], 16)
    doc["primes"][0] = hex(p + 2)  # almost surely composite, breaks N too
    failures = validate.validate_key(keyfile.load_key_document(doc))
    assert failures != []


def test_validator_reads_m_as_a_product_of_the_first_primes():
    first = numerics.first_primes(60)
    primorials = {}
    for i in range(1, 7):
        primorials[math.prod(first[:i])] = first[:i]
    for m in range(2, 40_000):
        assert validate._primorial_factors(m) == primorials.get(m), m
    assert validate._primorial_factors(math.prod(first)) == first
    for m in (2**127 - 1, 2 * (2**127 - 1), 4 * math.prod(first), math.prod(first) // 3):
        assert validate._primorial_factors(m) is None


def test_keygen_invariants_across_param_grid():
    for k in (32, 48, 64):
        for gamma in (Fraction(1, 2), Fraction(1, 4)):
            kp = keygen.generate_keypair(
                KeyGenParams(k=k, seed=b"\x42" * 32, gamma=gamma, beta=0.9)
            )
            p, q = kp.primes
            assert p % kp.m_modulus == kp.residues[0]
            assert q % kp.m_modulus == kp.residues[1]
            num, den = gamma.numerator, gamma.denominator
            assert den * den * (p - q) ** 2 < num * num * p * q
            assert kp.d**10 > kp.n**3
            assert validate.validate_key(kp) == []


def test_params_validation():
    with pytest.raises(ParameterError):
        keygen.generate_keypair(params64(k=63))
    with pytest.raises(ParameterError):
        keygen.generate_keypair(params64(k=14))
    with pytest.raises(ParameterError, match=r"even integer in \[16, 8192\]: 8194"):
        keygen.generate_keypair(params64(k=8194))
    KeyGenParams(k=8192, seed=ZERO_SEED).validate()
    with pytest.raises(ParameterError):
        keygen.generate_keypair(params64(gamma=Fraction(3, 2)))
    with pytest.raises(ParameterError):
        keygen.generate_keypair(params64(beta=1.0))
    with pytest.raises(ParameterError):
        keygen.generate_keypair(params64(e=10))
    with pytest.raises(ParameterError):
        KeyGenParams(k=64, seed=b"xx", gamma=Fraction(1, 4)).validate()


def test_default_gamma_resolution():
    p = KeyGenParams(k=64, seed=ZERO_SEED, epsilon=0.1)
    g = p.resolved_gamma()
    assert 0 < g < 1
    assert abs(float(g) - 64 ** (-0.4)) < 1e-9


def _gamma_oracle(k, epsilon):
    """k^(-1/2 + epsilon) at 80 digits, rounded once to the nearest double."""
    ctx = decimal.Context(prec=80)
    value = ctx.exp(ctx.multiply(decimal.Decimal(-0.5 + epsilon), ctx.ln(k)))
    return Fraction(float(value)).limit_denominator(1 << 32)


# Every even k at the default epsilon, and a sample of k at three others;
# libm's pow misses the nearest double at the listed k (glibc 2.36).
GAMMA_CASES = [(0.1, range(16, 8193, 2))] + [
    (eps, [*range(16, 8193, 98), *libm_misses])
    for eps, libm_misses in [(0.01, [5002, 5854]), (0.25, [5140, 7278]), (0.45, [2090, 7784])]
]


@pytest.mark.parametrize("epsilon, ks", GAMMA_CASES, ids=[str(eps) for eps, _ in GAMMA_CASES])
def test_default_gamma_is_the_nearest_double_to_its_power(epsilon, ks):
    assert [k for k in ks if keygen.default_gamma(k, epsilon) != _gamma_oracle(k, epsilon)] == []


def test_default_ell_is_log2_k():
    assert KeyGenParams(k=64, seed=ZERO_SEED).resolved_ell() == 6
    assert KeyGenParams(k=96, seed=ZERO_SEED).resolved_ell() == 6
    assert KeyGenParams(k=256, seed=ZERO_SEED).resolved_ell() == 8


# --- multiprime variant ------------------------------------------------------


def test_multiprime_golden_vector():
    kp = keygen.generate_multiprime(
        KeyGenParams(k=96, seed=ZERO_SEED, gamma=Fraction(1, 4), beta=0.9), 3
    )
    assert kp.primes == [3619852673, 3619925329, 3619913917]
    assert kp.variant == "multiprime"
    assert kp.residues == [6443, 19039, 7627]


def test_multiprime_pairwise_proximity_and_roundtrip():
    gamma = Fraction(1, 4)
    kp = keygen.generate_multiprime(
        KeyGenParams(k=96, seed=ZERO_SEED, gamma=gamma, beta=0.9), 3
    )
    ps = kp.primes
    for i in range(3):
        for j in range(i + 1, 3):
            gap2 = (ps[i] - ps[j]) ** 2
            assert gamma.denominator**2 * gap2 < gamma.numerator**2 * ps[i] * ps[j]
    assert mod_pow(mod_pow(123456789, kp.e, kp.n), kp.d, kp.n) == 123456789
    assert validate.validate_key(kp) == []


def test_multiprime_reports_cluster_bound():
    kp = keygen.generate_multiprime(
        KeyGenParams(k=96, seed=ZERO_SEED, gamma=Fraction(1, 4), beta=0.9), 3
    )
    from proxrsa.entropy import multiprime_h2_bound

    report = kp.entropy_report
    assert report["h2_bound_bits"] == "1.92481250360578090726869471974"
    assert float(report["h2_bound_bits"]) == float(multiprime_h2_bound(3, Fraction(1, 4)))
    assert report["budget_bits"] is None


def test_multiprime_rejects_m_below_three():
    with pytest.raises(ParameterError):
        keygen.generate_multiprime(params64(k=96), 2)


# --- compatible variant -------------------------------------------------------


def test_compatible_golden_vector():
    kp = keygen.generate_compatible(
        KeyGenParams(k=256, seed=ZERO_SEED, gamma=Fraction(1, 4), beta=0.9), shift=20
    )
    assert kp.primes == [
        295097723213684572230923985671005194059,
        295098372250791889084377551983083637661,
    ]
    assert kp.inner_primes == [
        310029687165201569589928302004043,
        310029687165201569589928293157789,
    ]


def test_compatible_gap_and_inner_constraints():
    gamma = Fraction(1, 4)
    kp = keygen.generate_compatible(
        KeyGenParams(k=256, seed=ZERO_SEED, gamma=gamma, beta=0.9), shift=20
    )
    gap = abs(kp.primes[0] - kp.primes[1])
    assert gap >= 1 << 108  # 2^(k/2 - shift)
    assert gap**4 > kp.n
    p, q = kp.inner_primes
    assert gamma.denominator**2 * (p - q) ** 2 < gamma.numerator**2 * p * q
    assert p.bit_length() == q.bit_length() == 108
    assert mod_pow(mod_pow(42, kp.e, kp.n), kp.d, kp.n) == 42
    assert validate.validate_key(kp) == []


def test_compatible_default_shift():
    kp = keygen.generate_compatible(
        KeyGenParams(k=256, seed=ZERO_SEED, gamma=Fraction(1, 4), beta=0.9)
    )
    assert all(p.bit_length() == 28 for p in kp.inner_primes)
    assert validate.validate_key(kp) == []


def test_compatible_rejects_small_shift():
    with pytest.raises(ParameterError):
        keygen.generate_compatible(
            KeyGenParams(k=256, seed=ZERO_SEED, gamma=Fraction(1, 4)), shift=4
        )


# --- candidate scans --------------------------------------------------------

# variant -> (generator, k, the scans of one attempt in order)
SCANS = {
    "standard": (keygen.generate_keypair, 64, ["anchor", "partner"]),
    "multi": (lambda p: keygen.generate_multiprime(p, 3), 96, ["anchor", "partner1", "partner2"]),
    "compat": (
        lambda p: keygen.generate_compatible(p, shift=20),
        256,
        ["anchor", "partner", "outer-p", "outer-q"],
    ),
}
SCAN_CASES = [(variant, i) for variant, (_, _, scans) in SCANS.items() for i in range(len(scans))]


@pytest.mark.parametrize(
    "variant, accepted", SCAN_CASES, ids=[f"{v}-{SCANS[v][2][i]}" for v, i in SCAN_CASES]
)
def test_each_scan_stops_after_max_candidates(variant, accepted, monkeypatch):
    """The first `accepted` primality tests pass and every later candidate is
    composite, so the next scan gives up after exactly max_candidates tests
    and the single restart is exhausted."""
    calls = []

    def first_only(n, rounds=64):
        calls.append(n)
        return len(calls) <= accepted

    monkeypatch.setattr(numerics, "is_probable_prime", first_only)
    generate, k, _ = SCANS[variant]
    with pytest.raises(SearchExhaustedError):
        generate(params64(k=k, max_candidates=5, max_restarts=1))
    assert len(calls) == accepted + 5
    assert len(set(calls)) == len(calls)


def two_pointer_partner_candidates(p, residue, modulus, max_gap):
    """The partner scan as a hand-written two-pointer merge: the oracle."""
    up = p + ((residue - p) % modulus)
    if up == p:
        up += modulus
    down = p - ((p - residue) % modulus)
    if down == p:
        down -= modulus
    while True:
        gap_up = up - p
        gap_down = p - down
        if gap_up >= max_gap and gap_down >= max_gap:
            return
        if gap_down <= gap_up and gap_down < max_gap and down >= 3:
            yield down
            down -= modulus
        elif gap_up < max_gap:
            yield up
            up += modulus
        else:
            down -= modulus


@given(
    st.one_of(st.integers(0, 200), st.integers(1 << 511, 1 << 512)),
    st.integers(0, 1 << 20),
    st.integers(1, 64),
    st.integers(0, 2000),
)
@example(p=10, residue=0, modulus=1, max_gap=5)  # modulus 1: every integer
@example(p=10, residue=1, modulus=4, max_gap=0)  # max_gap 0: nothing
@example(p=4, residue=1, modulus=2, max_gap=40)  # down < 3 from the start
@example(p=6, residue=1, modulus=2, max_gap=40)  # down falls below 3
@example(p=10, residue=0, modulus=4, max_gap=9)  # ties: 8 before 12
@example(p=1 << 511, residue=5, modulus=6, max_gap=100)  # ties: p - 3 before p + 3
@settings(max_examples=400, deadline=None)
def test_partner_candidates_match_the_two_pointer_merge(p, residue, modulus, max_gap):
    got = list(keygen._partner_candidates(p, residue, modulus, max_gap))
    assert got == list(two_pointer_partner_candidates(p, residue, modulus, max_gap))


# --- serialization round trip ---------------------------------------------


def test_key_document_roundtrip():
    kp = keygen.generate_keypair(params64())
    doc = keyfile.keypair_to_document(kp)
    loaded = keyfile.load_key_document(doc)
    assert loaded == kp
    assert loaded.gamma == Fraction(1, 4)
    assert loaded.seed == ZERO_SEED
    assert validate.validate_key(loaded) == []


def test_key_document_bytes_are_stable():
    kp = keygen.generate_keypair(params64())
    b1 = keyfile.document_to_bytes(keyfile.keypair_to_document(kp))
    b2 = keyfile.document_to_bytes(keyfile.keypair_to_document(kp))
    assert b1 == b2


def test_keygen_scales_past_the_acceptance_grid():
    kp = keygen.generate_keypair(
        KeyGenParams(k=128, seed=b"\x11" * 32, gamma=Fraction(1, 8), beta=0.9)
    )
    assert kp.n.bit_length() in (127, 128)
    assert validate.validate_key(kp) == []


def test_validator_rejects_random_single_field_tampering():
    """Any small corruption of d, N, a prime, or a residue must be caught."""
    kp = keygen.generate_keypair(params64())
    base = keyfile.keypair_to_document(kp)
    import random

    rng = random.Random(1234)
    for _ in range(40):
        doc = json.loads(json.dumps(base))
        field = rng.choice(["d", "N", "prime", "residue"])
        delta = rng.randrange(1, 1000)
        if field == "d":
            doc["d"] = hex(int(doc["d"], 16) + delta)
        elif field == "N":
            doc["N"] = hex(int(doc["N"], 16) + delta)
        elif field == "prime":
            idx = rng.randrange(2)
            doc["primes"][idx] = hex(int(doc["primes"][idx], 16) + delta)
        else:
            idx = rng.randrange(2)
            doc["residues"][idx] = hex((int(doc["residues"][idx], 16) + delta) % kp.m_modulus)
        failures = validate.validate_key(keyfile.load_key_document(doc))
        assert failures != [], f"undetected tamper: {field} +{delta}"


def test_a_modulus_wider_than_a_key_file_allows_is_not_finalized():
    """A layered key's outer primes may pass k//2 bits, and its N k bits."""
    p, q = 2**4253 - 1, 2**4423 - 1
    assert keygen._finalize_exponents(65537, [p, q]) is None
    assert keygen._finalize_exponents(65537, [p, 2**3217 - 1]) is not None


def test_a_private_exponent_at_the_wiener_floor_is_not_finalized():
    """e = 5^-1 mod phi(1009 * 1013) is a unit whose d = 5 fails d^10 > n^3."""
    assert keygen._finalize_exponents(pow(5, -1, 1008 * 1012), [1009, 1013]) is None


def test_an_ell_too_wide_is_refused_before_listing_primes(monkeypatch, wall_clock):
    """M is at least 2^ell, so an ell of at least the prime width is refused
    from ell alone; listing 10^8 primes would pass the 2^28 sieve span."""
    from proxrsa import cli

    def listed(count):
        raise AssertionError("primes listed before the refusal")

    monkeypatch.setattr(numerics, "first_primes", listed)
    with wall_clock(1):
        for ell in (4096, 10**8):
            with pytest.raises(ParameterError, match=rf"\(first {ell} primes\) too wide for 4096-bit primes"):
                keygen.generate_keypair(KeyGenParams(k=8192, seed=ZERO_SEED, ell=ell))
            argv = ["keygen", "--k", "8192", "--ell", str(ell), "--seed", "00" * 32]
            assert cli.main(argv) == cli.EXIT_BAD_PARAMS


class Drawn(Exception):
    pass


def draw(*args):
    raise Drawn


@pytest.mark.parametrize(
    "variant, e, refused",
    [("standard", 3, True), ("multi", 3, True), ("multi", 5, False), ("compat", 3, False)],
)
def test_an_e_dividing_every_p_minus_1_is_refused_before_the_first_draw(variant, e, refused, monkeypatch):
    """A prime f dividing e, M and r - 1 divides p - 1 for every p == r (mod M).
    Two residues differ mod 3, so one is 1 mod 3; at seed 0 the three
    multi-prime residues are 2, 1, 1 mod 3 and 3, 4, 2 mod 5.  The
    compatible variant's outer primes are not tied to the residues."""
    monkeypatch.setattr(keygen, "_draw_anchor", draw)
    generate, k, _ = SCANS[variant]
    if refused:
        expected = pytest.raises(SearchExhaustedError, match=rf"^e={e} .* its factor {e} divides p - 1")
    else:
        expected = pytest.raises(Drawn)
    with expected:
        generate(params64(k=k, e=e))


@pytest.mark.parametrize("variant, refused", [("standard", True), ("compat", True), ("multi", False)])
def test_an_unreachable_entropy_budget_is_refused_before_the_first_draw(variant, refused, monkeypatch):
    """Every gap is at least the distance between the two residue classes,
    so at beta = 1e-320 no pair can pass the entropy gate.  The multi-prime
    variant has no such gate."""
    monkeypatch.setattr(keygen, "_draw_anchor", draw)
    generate, k, _ = SCANS[variant]
    if refused:
        expected = pytest.raises(SearchExhaustedError, match=r"^entropy budget .* is unreachable at beta=1e-320")
    else:
        expected = pytest.raises(Drawn)
    with expected:
        generate(params64(k=k, beta=1e-320))


@pytest.mark.parametrize("factor, refused", [(1 - 1e-9, True), (1 + 1e-9, False)])
def test_the_budget_refusal_ends_at_the_h2_of_the_smallest_reachable_delta(factor, refused, monkeypatch):
    """At k = 64 every anchor lies below P = 2^32 + max_candidates*M and every
    gap is at least d_min, so the refusal holds up to H2(d_min/(2P)); at
    gamma = 1/4 the budget is 2*beta."""
    monkeypatch.setattr(keygen, "_draw_anchor", draw)
    m = keygen.build_small_modulus(6)
    r0, r1 = keygen.derive_residues(m, SeedStream(ZERO_SEED), 2)
    d_min = min((r1 - r0) % m, (r0 - r1) % m)
    edge = float(entropy.h2_from_delta(Fraction(d_min, 2 * (2**32 + 10_000 * m))) / 2)
    with pytest.raises(SearchExhaustedError if refused else Drawn):
        keygen.generate_keypair(params64(beta=edge * factor))


def test_keygen_with_an_unreachable_budget_exits_2_at_once(wall_clock, capsys):
    """Before the refusal this exited 2 after about two minutes of rejected
    partners on a 2-vCPU VM."""
    from proxrsa import cli

    argv = ["keygen", "--k", "64", "--gamma", "1/4", "--beta", "1e-320", "--insecure-small", "--seed", "00" * 32]
    with wall_clock(5):
        assert cli.main(argv) == cli.EXIT_EXHAUSTED
    assert "entropy budget beta*log2(1/gamma) is unreachable" in capsys.readouterr().err


def test_a_partner_scan_that_can_no_longer_meet_the_budget_ends_at_once(wall_clock, capsys):
    """beta = 1e-12 clears the up-front refusal, yet no partner in reach
    meets it.  Each scan used to test every partner in the gamma*p window,
    and the command exited 2 after 155 s on a 2-vCPU VM."""
    from proxrsa import cli

    argv = ["keygen", "--k", "64", "--gamma", "1/4", "--beta", "1e-12", "--insecure-small", "--seed", "00" * 32]
    with wall_clock(5):
        assert cli.main(argv) == cli.EXIT_EXHAUSTED
    assert "no compliant pair within 64 restarts" in capsys.readouterr().err


def test_keygen_with_e_3_exits_2_at_once(wall_clock, capsys):
    """At k = 2048, e = 3 failed all 64 restarts and exited 2 after 77.5 s."""
    from proxrsa import cli

    with wall_clock(5):
        assert cli.main(["keygen", "--k", "2048", "--e", "3", "--seed", "00" * 32]) == cli.EXIT_EXHAUSTED
    assert "e=3 is not invertible for any key: its factor 3 divides p - 1" in capsys.readouterr().err


# --- restarts ----------------------------------------------------------------


def _key_bytes(kp):
    return keyfile.document_to_bytes(keyfile.keypair_to_document(kp))


def test_a_pair_whose_exponents_do_not_finalize_restarts(monkeypatch):
    """e = 29 is prime to M = 30030, so no residue is refused up front, but
    this seed's first pair has 29 | p - 1 or q - 1: the next draw is the key."""
    refused = []

    def finalize(e, primes, _finalize=keygen._finalize_exponents):
        done = _finalize(e, primes)
        refused.append(done is None)
        return done

    monkeypatch.setattr(keygen, "_finalize_exponents", finalize)
    params = params64(seed=bytes([6]) + bytes(31), e=29)
    kp = keygen.generate_keypair(params)
    assert refused == [True, False]
    assert validate.validate_key(kp) == []
    assert _key_bytes(kp) == _key_bytes(keygen.generate_keypair(params))


def test_an_inner_prime_outside_inner_bits_restarts_the_layered_attempt(monkeypatch):
    """At shift 20 and k = 72 the inner primes are 16 bits wide, and a
    partner scan often crosses 2^16: the attempt starts over."""
    widths = []

    def attempt_pair(stream, bits, *rest, _attempt=keygen._attempt_pair):
        found = _attempt(stream, bits, *rest)
        if found is not None:
            widths.append([p.bit_length() == bits for p in found[0]])
        return found

    monkeypatch.setattr(keygen, "_attempt_pair", attempt_pair)
    params = KeyGenParams(k=72, seed=ZERO_SEED)
    kp = keygen.generate_compatible(params, shift=20)
    assert widths[-1] == [True, True] and len(widths) > 1
    assert all(p.bit_length() == 16 for p in kp.inner_primes)
    assert validate.validate_key(kp) == []
    assert _key_bytes(kp) == _key_bytes(keygen.generate_compatible(params, shift=20))
