"""Binary floating point on integers, rounded as mpmath rounds.

The entropy and security reports were first computed with mpmath at a
fixed working precision, and their strings are what key files and
reports hold.  This module replays that arithmetic without mpmath.  A
value is a pair (man, exp) of ints standing for man * 2**exp, with man
odd or zero; zero is (0, 0).

mpmath rounds +, -, *, / and the square root correctly, half to even,
so rnd() of the exact result is the same value.  ln() and exp() round
the correctly rounded result of decimal's ln and exp, at more digits
until the rounding is decided.  to_str(x, dps) is mpmath's to_str, so
nstr(x, dps) of the same value prints the same string.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from functools import lru_cache


def rnd(num: int, den: int, exp: int, p: int, mode: int = 0) -> tuple[int, int]:
    """num/den * 2**exp (den > 0) rounded to p bits: half to even (mode 0),
    toward zero (mode -1) or away from zero (mode 1)."""
    if not num:
        return 0, 0
    a = abs(num)
    shift = a.bit_length() - den.bit_length() - p - 1
    q, r = divmod(a, den << shift) if shift >= 0 else divmod(a << -shift, den)
    if q >> (p + 1):  # p + 2 bits: the lowest joins the remainder
        q, r, shift = q >> 1, r or q & 1, shift + 1
    q, half = q >> 1, q & 1
    if (half and (r or q & 1)) if mode == 0 else (mode > 0 and (half or r)):
        q += 1
    zeros = (q & -q).bit_length() - 1
    return (q >> zeros if num > 0 else -(q >> zeros)), exp + shift + 1 + zeros


def binary(x, p: int) -> tuple[int, int]:
    """An int or float rounded to p bits, as mpf(x) rounds it."""
    num, den = x.as_integer_ratio()
    return rnd(num, den, 0, p)


def add(x, y, p):
    e = min(x[1], y[1])
    return rnd((x[0] << (x[1] - e)) + (y[0] << (y[1] - e)), 1, e, p)


def mul(x, y, p):
    return rnd(x[0] * y[0], 1, x[1] + y[1], p)


def div(x, y, p, mode=0):
    return rnd(x[0] if y[0] > 0 else -x[0], abs(y[0]), x[1] - y[1], p, mode)


def sqrt(x, p):
    man, exp = x
    if exp & 1:
        man, exp = man << 1, exp - 1
    man <<= 2 * p + 4
    root = math.isqrt(man)
    # An inexact root lies strictly between 2*root and 2*root + 2 (halved).
    return rnd(2 * root + (root * root != man), 1, exp // 2 - p - 3, p)


def _arc_inverse(m: int, w: int, sign: int = 1) -> int:
    """atanh(1/m) * 2**w, or atan(1/m) * 2**w for sign -1, less than 1 per
    term below: sum of sign**j / ((2j+1) m^(2j+1))."""
    total, j, power = 0, 0, (1 << w) // m
    while power:
        total += sign**j * (power // (2 * j + 1))
        j, power = j + 1, power // (m * m)
    return total


@lru_cache(maxsize=64)
def pi_fixed(w: int) -> int:
    """pi * 2**w by Machin's formula 16 atan(1/5) - 4 atan(1/239), off by
    less than 4*w + 40: the series sum at most w/4.6 + 1 and w/15.8 + 1 terms."""
    return 16 * _arc_inverse(5, w, -1) - 4 * _arc_inverse(239, w, -1)


@lru_cache(maxsize=64)
def _ln_fixed(n: int, w: int) -> int:
    """floor(ln n * 2**w) for n = 2 or 10, mpmath's fixed-point ln 2 and
    ln 10: ln 2 = 2 atanh(1/3), ln 10 = 3 ln 2 + 2 atanh(1/9), with 64
    guard bits."""
    ln2 = 2 * _arc_inverse(3, w + 64)
    value = ln2 if n == 2 else 3 * ln2 + 2 * _arc_inverse(9, w + 64)
    return value >> 64


def _decided(f, p):
    """Round f(ctx) * 2**scale to p bits, with f(ctx) = (value, scale) from
    decimal at ctx's precision; add digits until the rounding is decided."""
    for digits in (p // 3 + 12, p // 3 + 40, p + 60):
        value, scale = f(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN))
        num, den = value.as_integer_ratio()
        g = (digits - 2) * 332 // 100  # relative error below 2**-g
        lo = rnd(num * ((1 << g) - 1), den << g, scale, p)
        if lo == rnd(num * ((1 << g) + 1), den << g, scale, p):
            break
    # ln and exp of a binary number other than 1 and 0 never lie on a
    # rounding midpoint, and the last try's guard of over 2p bits decides
    # the hardest cases known; its rounding stands.
    return lo


def _dec(x) -> Decimal:
    man, exp = x
    return Decimal(man << exp) if exp >= 0 else Decimal(f"{man * 5**-exp}e{exp}")


def ln(x, p):
    """ln x (x > 0) at p bits; for x = 2**exp, mpmath's exp * ln 2 floored
    to p + 20 bits, then rounded."""
    if x[0] == 1:
        return rnd(x[1] * _ln_fixed(2, p + 20), 1, -p - 20, p)
    arg = _dec(x)
    return _decided(lambda ctx: (ctx.ln(arg), 0), p)


def exp(x, p):
    """e**x at p bits, as 2**k * exp(r) with r = x - k*ln 2 in [0, ln 2)."""
    man, e = x
    if not man or man.bit_length() + e < -p - 14:
        return 1, 0

    def reduced(ctx):
        # r in fixed point to w bits, off by at most |k| + 1 units: far
        # below the ulp of ctx's precision
        w = 4 * ctx.prec + max(man.bit_length() + e, 0)
        ln2 = _ln_fixed(2, w)
        fixed = man << (e + w) if e + w >= 0 else man >> -(e + w)
        k = fixed // ln2
        return ctx.exp(_dec((fixed - k * ln2, -w))), k

    return _decided(reduced, p)


def _pow10(n, p, mode):
    """mpmath's mpf_pow_int(10, n, p) for n >= 334: binary powering with
    every product cut to p + 4*bitlen(n) + 4 bits toward mode."""
    work = p + 4 * n.bit_length() + 4
    acc, base = (1, 0), (5, 1)

    def cut(man, e):
        extra = man.bit_length() - work
        if extra <= 0:
            return man, e
        return (man >> extra if mode < 0 else -(-man >> extra)), e + extra

    while True:
        if n & 1:
            acc = cut(acc[0] * base[0], acc[1] + base[1])
            n -= 1
            if not n:
                return rnd(acc[0], 1, acc[1], p, mode)
        base = cut(base[0] * base[0], 2 * base[1])
        n //= 2


def to_str(x, dps: int) -> str:
    """mpmath's to_str(x, dps): dps significant digits, trailing zeros
    stripped, fixed notation for decimal exponents in (min(-dps//3, -5), dps)."""
    man, e = x
    if not man:
        return "0.0"
    sign, man = ("-", -man) if man < 0 else ("", man)
    # to_digits_exp(x, dps + 3): digits truncated from bitprec bits
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    exponent = 0
    if abs(e + man.bit_length()) > 3500:
        # divide by the power of ten near x, rounding as mpmath does
        expprec = abs(e).bit_length() + 5
        # b = e * log10(2), from ln 2 and ln 10 cut to expprec bits
        b = abs(e) * _ln_fixed(2, expprec) // (4 * (_ln_fixed(10, expprec + 20) >> 22))
        b = -b if e < 0 else b
        if b > 0:
            power = _pow10(b, bitprec, -1)
        else:
            power = div((1, 0), _pow10(-b, bitprec + 5, 1), bitprec, -1)
        man, e = div((man, e), power, bitprec, -1)
        exponent = b
    fixprec = max(bitprec - e - man.bit_length(), 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    shift = e + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    exponent += len(digits) - fixdps - 1
    # to_str proper: round up on digit dps + 1, then place the point
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # 99...9 became 100...0
            digits, exponent = digits[:dps], exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
