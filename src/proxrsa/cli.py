"""Command-line entry point.

Subcommands: keygen, keygen-multi, keygen-compat, verify, analyze,
shor-sim, shor-compare, census.  Exit codes: 0 success, 1 I/O or file
parse failure, or an entropy budget the validator's bracket cannot decide
(NumericalError), 2 search exhausted, 3 invalid parameters, 4
verification failure.

Keys and reports are JSON with sorted keys and hex-encoded integers;
gamma travels as an exact "num/den" string.  Every stochastic choice is
driven by --seed, which is mandatory for key generation: there is no
ambient randomness anywhere.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import keyfile
from .errors import ParameterError, ProxRsaError, SearchExhaustedError

EXIT_OK = 0
EXIT_IO = 1
EXIT_EXHAUSTED = 2
EXIT_BAD_PARAMS = 3
EXIT_VERIFY_FAILED = 4

INSECURE_SMALL_THRESHOLD = 2048


class _Formatter(argparse.HelpFormatter):
    """Asks for the terminal width when help is formatted, not when the
    formatter is made: argparse makes one for each add_argument call, and
    the width costs an import of shutil."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        self._width_pending = width is None
        super().__init__(prog, indent_increment, max_help_position, 80 if width is None else width)
        self._max_help_cap = max_help_position

    def format_help(self):
        if self._width_pending:
            import shutil

            self._width = shutil.get_terminal_size().columns - 2
            self._max_help_position = min(
                self._max_help_cap, max(self._width - 20, self._indent_increment * 2)
            )
        return super().format_help()


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, **kwargs)

    # argparse exits 2 on parse errors; flag problems are invalid parameters here.
    def error(self, message):
        raise ParameterError(message)


def _parse_seed(text: Optional[str]) -> bytes:
    if text is None:
        raise ParameterError("--seed is required (64 hex characters)")
    t = text[2:] if text.startswith("0x") else text
    try:
        seed = bytes.fromhex(t)
    except ValueError as exc:
        raise ParameterError(f"seed is not valid hex: {text!r}") from exc
    if len(seed) != 32:
        raise ParameterError(f"seed must be exactly 32 bytes, got {len(seed)}")
    return seed


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        keyfile.atomic_write_bytes(out_path, text.encode("utf-8"))


def _json_text(doc) -> str:
    return keyfile.document_to_bytes(doc).decode("utf-8")


def _csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxrsa", description=__doc__)
    # An explicit prog spares argparse formatting a usage line (and asking
    # for the terminal width) to derive "proxrsa" itself.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    def add_keygen_flags(p):
        # A tunable left out is left out of args too, so KeyGenParams
        # alone holds its default.
        only_if_given = argparse.SUPPRESS
        p.add_argument("--k", type=int, required=True, help="modulus bit length")
        p.add_argument("--gamma", type=str, default=None, help="proximity bound as num/den")
        p.add_argument("--beta", type=float, default=only_if_given, help="entropy budget factor in (0,1)")
        p.add_argument("--epsilon", type=float, default=only_if_given, help="exponent for the default gamma")
        p.add_argument("--ell", type=int, default=None, help="small primes in congruence modulus")
        p.add_argument("--e", type=int, default=only_if_given, help="public exponent")
        p.add_argument("--seed", type=str, default=None, help="64 hex chars; drives all choices")
        p.add_argument("--max-candidates", type=int, default=only_if_given)
        p.add_argument("--max-restarts", type=int, default=only_if_given)
        p.add_argument(
            "--insecure-small",
            action="store_true",
            help=f"acknowledge generation below {INSECURE_SMALL_THRESHOLD} bits",
        )
        p.add_argument("-o", "--out", type=str, default=None, help="key file path (default stdout)")

    p = sub.add_parser("keygen", help="two-prime entropy-constrained key")
    add_keygen_flags(p)

    p = sub.add_parser("keygen-multi", help="multi-prime key")
    add_keygen_flags(p)
    p.add_argument("--m", type=int, required=True, help="prime count (>= 3)")

    p = sub.add_parser("keygen-compat", help="layered key with wide outer gap")
    add_keygen_flags(p)
    p.add_argument("--shift", type=int, default=None, help="inner/outer shift width")

    p = sub.add_parser("verify", help="re-validate a key file")
    p.add_argument("keyfile", type=str)

    p = sub.add_parser("analyze", help="quantum + classical metrics for a key file")
    p.add_argument("keyfile", type=str)
    p.add_argument("--kappa", type=float, default=None, help="Fano constant, if you have one")
    p.add_argument("--eps-param", type=float, default=None, help="epsilon for the Fano bound")
    p.add_argument("--fermat-budget", type=int, default=1 << 30)
    p.add_argument("-o", "--out", type=str, default=None)

    q_help = "register size: a power of two, at most 2^512 (default: the first >= N^2)"
    p = sub.add_parser("shor-sim", help="exact measurement statistics for a toy modulus")
    p.add_argument("--N", type=int, required=True, dest="modulus")
    p.add_argument("--a", type=int, default=None, help="base; omit to sweep")
    p.add_argument("--Q", type=int, default=None, dest="q_size", help=q_help)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--sweep", type=int, default=20, help="bases to sample when --a is omitted")
    p.add_argument("--seed", type=str, default="00" * 32, help="seed for the base sweep")
    p.add_argument("-o", "--out", type=str, default=None)

    p = sub.add_parser("shor-compare", help="close vs wide prime pairs, success statistics")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True, help="closeness threshold on delta")
    p.add_argument("--Q", type=int, default=None, dest="q_size", help=q_help)
    p.add_argument("--bases", type=int, default=20)
    p.add_argument("--seed", type=str, default="00" * 32)
    p.add_argument("-o", "--out", type=str, default=None, help="CSV path (summary JSON on stdout)")

    p = sub.add_parser("census", help="prime-pair density over a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--gamma", type=str, required=True, help="num/den")
    p.add_argument("--mod", type=int, default=None, help="congruence modulus (with --a/--b)")
    p.add_argument("--a", type=int, default=None, dest="res_a")
    p.add_argument("--b", type=int, default=None, dest="res_b")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--out", type=str, default=None)
    return parser


def _cmd_keygen(args) -> int:
    from . import keygen

    if args.k < INSECURE_SMALL_THRESHOLD and not args.insecure_small:
        raise ParameterError(
            f"k={args.k} is far below production size; pass --insecure-small to proceed"
        )
    fields = {name: value for name, value in vars(args).items() if name in keygen.KeyGenParams._fields}
    params = keygen.KeyGenParams(**dict(
        fields,
        seed=_parse_seed(args.seed),
        gamma=None if args.gamma is None else keyfile.gamma_from_str(args.gamma),
    ))
    if args.command == "keygen-multi":
        kp = keygen.generate_multiprime(params, args.m)
    elif args.command == "keygen-compat":
        kp = keygen.generate_compatible(params, keygen.DEFAULT_SHIFT if args.shift is None else args.shift)
    else:
        kp = keygen.generate_keypair(params)
    _emit(_json_text(keyfile.keypair_to_document(kp)), args.out)
    if args.out is not None:
        print(
            f"note: {args.out} contains private key material; "
            "restrict its permissions (e.g. chmod 600)",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import validate

    key = keyfile.read_key_file(args.keyfile)
    failures = validate.validate_key(key)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"ok: {args.keyfile} passed all checks")
    return EXIT_OK


def _closest_pair(primes: list[int]) -> list[int]:
    """The first pair with the smallest (p - q)^2 / (p*q), compared exactly;
    a pair with a 0 entry (a malformed key file) ranks last."""

    def spread(pair):
        p, q = pair
        return Fraction((p - q) ** 2, p * q) if p * q else math.inf

    return list(min(itertools.combinations(primes, 2), key=spread))


def _cmd_analyze(args) -> int:
    from . import analysis

    key = keyfile.read_key_file(args.keyfile)
    if len(key.primes) < 2 or (key.inner_primes is not None and len(key.inner_primes) < 2):
        raise ParameterError(f"{args.keyfile}: analyze needs a key of at least two primes")
    if key.inner_primes:
        # layered keys: the quantum structure rides on the close inner
        # pair; classical attacks see the outer modulus (classical_report)
        pair = key.inner_primes
    elif len(key.primes) == 2:
        pair = key.primes
    else:
        # multi-prime: report the closest pair, the one the proximity
        # constraint binds hardest
        pair = _closest_pair(key.primes)
    quantum = analysis.complexity_report(
        pair[0], pair[1], key.gamma, k=key.k, kappa=args.kappa, eps_param=args.eps_param
    )
    classical = analysis.classical_report(key, args.fermat_budget)
    doc = {
        "keyfile": args.keyfile,
        "variant": key.variant,
        "quantum": quantum.to_dict(),
        "classical": classical.to_dict(),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_shor_sim(args) -> int:
    from . import shor_sim
    from .numerics import SeedStream

    refine = not args.no_refine
    n = args.modulus
    q_size = shor_sim.default_q(n) if args.q_size is None else args.q_size
    if args.a is not None:
        ((r, plain, refined),) = shor_sim.base_probabilities(n, [args.a], q_size)
        doc = {
            "N": n,
            "a": args.a,
            "r": r,
            "Q": q_size,
            "success_prob": plain,
            "success_prob_refined": refined,
            "refinement_default": refine,
            "circuit_orders": shor_sim.circuit_order_estimates(n),
        }
    else:
        stream = SeedStream(_parse_seed(args.seed))
        bases = shor_sim.draw_bases(stream, n, args.sweep)
        per_base = [
            {"a": a, "r": r, "success_prob": plain, "success_prob_refined": refined}
            for a, (r, plain, refined) in zip(bases, shor_sim.base_probabilities(n, bases, q_size))
        ]
        key = "success_prob_refined" if refine else "success_prob"
        doc = {
            "N": n,
            "Q": q_size,
            "bases": per_base,
            "mean_success_prob": math.fsum(b["success_prob"] for b in per_base) / len(per_base),
            "mean_success_prob_refined": math.fsum(b["success_prob_refined"] for b in per_base)
            / len(per_base),
            "refinement_default": refine,
            "selected_mean": math.fsum(b[key] for b in per_base) / len(per_base),
        }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_shor_compare(args) -> int:
    from . import shor_sim
    from .numerics import SeedStream

    stream = SeedStream(_parse_seed(args.seed))
    report = shor_sim.compare_moduli(
        args.bits, args.pairs, args.gamma, stream, args.q_size, args.bases
    )
    header = ["N" if name == "n" else name for name in shor_sim.ComparisonRow._fields]
    _emit(_csv_text([header, *report.rows]), args.out)
    if args.out is not None:
        summary = {
            "bit_size": report.bit_size,
            "gamma_close": report.gamma_close,
            "bases_per_modulus": report.bases_per_modulus,
            "rows": len(report.rows),
            "groups": report.group_summary(),
        }
        sys.stdout.write(_json_text(summary))
    return EXIT_OK


def _cmd_census(args) -> int:
    from . import census

    gamma = keyfile.gamma_from_str(args.gamma)
    has_mod = args.mod is not None
    if has_mod != (args.res_a is not None) or has_mod != (args.res_b is not None):
        raise ParameterError("--mod, --a and --b must be given together")
    if has_mod:
        report = census.census_progression(args.lo, args.hi, gamma, args.mod, args.res_a, args.res_b)
    else:
        report = census.census_pairs(args.lo, args.hi, gamma)
    doc = report.to_dict()
    _emit(_json_text(doc) if args.format == "json" else _csv_text([doc, doc.values()]), args.out)
    return EXIT_OK


_COMMANDS = {
    "keygen": _cmd_keygen,
    "keygen-multi": _cmd_keygen,
    "keygen-compat": _cmd_keygen,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "shor-sim": _cmd_shor_sim,
    "shor-compare": _cmd_shor_compare,
    "census": _cmd_census,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except ProxRsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
