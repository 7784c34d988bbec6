"""Output checks. Every problem found marks its operation as failed.

The census counts are recomputed by an independent sieve here, sharing no
code with proxrsa. Shor CSV rows are checked for internal consistency, and
outputs whose inputs appear in refs.json (recorded from the seed commit by
record_refs.py) must match the recorded values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
REL_TOL = 1e-12
SHOR_COLUMNS = ["group", "N", "p", "q", "delta", "angular_separation_num", "angular_separation_den",
                "mean_success_prob", "mean_success_prob_refined"]
FLOAT_COLUMNS = {"delta", "mean_success_prob", "mean_success_prob_refined"}


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- census -----------------------------------------------------------------

def _primes_between(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi] as int64, by a plain segmented sieve."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    mask = np.ones(hi - lo + 1, dtype=bool)
    mask[: max(0, 2 - lo)] = False
    for p in np.flatnonzero(small).tolist():
        first = max(p * p, -(-lo // p) * p)
        mask[first - lo::p] = False
    return np.flatnonzero(mask).astype(np.int64) + lo


def count_census(lo: int, hi: int, gamma: Fraction, classes=None) -> dict:
    """Expected census counts for [lo, hi]; classes = (modulus, a, b) or None."""
    num, den = gamma.numerator, gamma.denominator
    if num * num * hi * hi >= 1 << 62 or den * den * (hi - lo) ** 2 >= 1 << 62:
        raise ValueError("census check limited to products below 2^62")
    primes = _primes_between(lo, hi)
    if classes is None:
        p, q = primes[:-1], primes[1:]
        pairs = int(np.count_nonzero(den * den * (q - p) ** 2 < num * num * p * q))
        return {"prime_count": len(primes), "pair_count": pairs}
    modulus, a, b = classes
    in_a = primes[primes % modulus == a % modulus]
    in_b = primes[primes % modulus == b % modulus]
    pairs = 0
    for start in range(0, len(in_a), 256):
        p = in_a[start:start + 256, None]
        ok = (in_b[None, :] > p) & (den * den * (in_b[None, :] - p) ** 2 < num * num * p * in_b[None, :])
        pairs += int(np.count_nonzero(ok))
    return {"prime_count": len(primes), "pair_count": pairs,
            "primes_in_class_a": len(in_a), "primes_in_class_b": len(in_b)}


class Checker:
    def __init__(self, workload_seed: int) -> None:
        self.refs = load_refs()
        self.seed = workload_seed
        self._census_cache: dict = {}

    def census(self, path: str, lo: int, hi: int, gamma: str, classes) -> list[str]:
        """classes is (modulus, a, b) for the progression census, else None."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        key = (lo, hi, gamma, classes)
        if key not in self._census_cache:
            self._census_cache[key] = count_census(lo, hi, Fraction(gamma), classes)
        expected = dict(self._census_cache[key], range_lo=lo, range_hi=hi, gamma=gamma)
        if classes:
            modulus, a, b = classes
            expected.update(modulus=modulus, residue_a=a % modulus, residue_b=b % modulus)
        problems = [f"census {k}={doc.get(k)!r}, expected {v!r}" for k, v in expected.items() if doc.get(k) != v]
        if doc.get("empirical_density") != doc.get("pair_count", 0) / (hi - lo + 1):
            problems.append("census empirical_density is not pair_count / span")
        ref = self.refs["census"]["progression" if classes else "plain"].get(str(lo))
        if ref is not None and ref["range_hi"] == hi and doc != ref:
            problems.append(f"census JSON for lo={lo} differs from the recorded reference")
        return problems

    # --- shor-compare -------------------------------------------------------

    def shor(self, path: str, bits: int, pairs: int, gamma: float, ref_key) -> list[str]:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != SHOR_COLUMNS:
            return ["shor-compare CSV header differs"]
        body = rows[1:]
        problems = []
        if [r[0] for r in body] != ["close"] * pairs + ["control"] * pairs:
            problems.append("shor-compare rows are not `pairs` close then `pairs` control")
        close = Fraction(gamma).limit_denominator(1 << 32)
        for row in body:
            try:
                problems += _shor_row_problems(dict(zip(SHOR_COLUMNS, row)), bits, close)
            except (ValueError, ZeroDivisionError) as exc:
                problems.append(f"shor-compare row {row}: {exc}")
        ref = self._shor_ref(ref_key)
        if ref is not None and not _rows_match(body, ref):
            problems.append(f"shor-compare rows differ from the recorded reference {ref_key}")
        return problems

    def _shor_ref(self, ref_key):
        if ref_key is None:
            return None
        if ref_key[0] == "shor16":
            return self.refs["shor16"]
        _, j = ref_key
        return self.refs["shor12"][j]

    # --- keys ---------------------------------------------------------------

    def key_ref(self, index: int):
        refs = self.refs["keys"]
        if self.seed == self.refs["seed"] and index < len(refs):
            return refs[index]
        return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def _shor_row_problems(row: dict, bits: int, close: Fraction) -> list[str]:
    n, p, q = int(row["N"]), int(row["p"]), int(row["q"])
    problems = []
    if not (p < q and p * q == n and n.bit_length() == bits and _is_prime(p) and _is_prime(q)):
        problems.append(f"shor-compare N={n} is not a {bits}-bit product of primes p<q")
    if int(row["angular_separation_num"]) != math.gcd(p - 1, q - 1) or \
            int(row["angular_separation_den"]) != (p - 1) * (q - 1):
        problems.append(f"shor-compare angular separation wrong for N={n}")
    delta = float(row["delta"])
    if not math.isclose(delta, (q - p) / math.sqrt(p * q), rel_tol=1e-9):
        problems.append(f"shor-compare delta wrong for N={n}")
    if row["group"] == "close" and not close.denominator ** 2 * (q - p) ** 2 < close.numerator ** 2 * p * q:
        problems.append(f"shor-compare close pair N={n} is not within gamma")
    plain, refined = float(row["mean_success_prob"]), float(row["mean_success_prob_refined"])
    if not 0.0 <= plain <= refined + REL_TOL <= 1.0 + 2 * REL_TOL:
        problems.append(f"shor-compare probabilities out of order for N={n}: {plain}, {refined}")
    return problems


def _rows_match(rows: list[list[str]], ref: list[list[str]]) -> bool:
    if len(rows) != len(ref):
        return False
    for row, want in zip(rows, ref):
        for column, got, exp in zip(SHOR_COLUMNS, row, want):
            if column in FLOAT_COLUMNS:
                if not math.isclose(float(got), float(exp), rel_tol=REL_TOL, abs_tol=0.0):
                    return False
            elif got != exp:
                return False
    return True
