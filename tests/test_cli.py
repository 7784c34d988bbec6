import csv
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from proxrsa import cli, entropy, keyfile, numerics

ZEROS = "00" * 32
DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def keygen_args(out_path, **extra):
    args = [
        "keygen",
        "--k", "64",
        "--gamma", "1/4",
        "--beta", "0.9",
        "--seed", ZEROS,
        "--insecure-small",
        "-o", str(out_path),
    ]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    return args


def test_keygen_writes_valid_file_and_verify_passes(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    code, _, err = run(capsys, *keygen_args(key_path))
    assert code == 0
    assert "private key material" in err
    doc = json.loads(key_path.read_text())
    assert doc["variant"] == "standard"
    assert doc["gamma"] == "1/4"
    assert doc["N"].startswith("0x")
    assert doc["k"] == 64

    code, out, _ = run(capsys, "verify", str(key_path))
    assert code == 0
    assert "passed all checks" in out


def test_keygen_golden_file_bytes(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    assert run(capsys, *keygen_args(key_path))[0] == 0
    doc = json.loads(key_path.read_text())
    assert int(doc["N"], 16) == 16836306338921144807
    assert [int(p, 16) for p in doc["primes"]] == [4103215553, 4103198119]


def test_keygen_determinism_byte_identical(tmp_path, capsys):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *keygen_args(path_a))[0] == 0
    assert run(capsys, *keygen_args(path_b))[0] == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_keygen_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys, "keygen", "--k", "64", "--gamma", "1/4", "--insecure-small",
        "-o", str(tmp_path / "k.json"),
    )
    assert code == 3
    assert "seed" in err


def test_keygen_requires_insecure_small_flag(tmp_path, capsys):
    code, _, err = run(
        capsys, "keygen", "--k", "64", "--gamma", "1/4", "--seed", ZEROS,
        "-o", str(tmp_path / "k.json"),
    )
    assert code == 3
    assert "insecure-small" in err


def test_keygen_bad_gamma_format(tmp_path, capsys):
    code, _, _ = run(
        capsys, "keygen", "--k", "64", "--gamma", "0.25", "--seed", ZEROS,
        "--insecure-small", "-o", str(tmp_path / "k.json"),
    )
    assert code == 3


def test_keygen_search_exhausted_exit_code(tmp_path, capsys):
    # gamma so tight no partner can exist within one candidate
    code, _, _ = run(
        capsys, "keygen", "--k", "32", "--gamma", "1/1000000", "--seed", ZEROS,
        "--insecure-small", "--max-candidates", "4", "--max-restarts", "2",
        "-o", str(tmp_path / "k.json"),
    )
    assert code == 2


def test_verify_detects_tampering(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    doc = json.loads(key_path.read_text())
    doc["d"] = hex(int(doc["d"], 16) ^ 4)
    key_path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    code, _, err = run(capsys, "verify", str(key_path))
    assert code == 4
    assert "FAIL" in err


def test_verify_missing_file_is_io_error(capsys):
    code, _, _ = run(capsys, "verify", "/nonexistent/key.json")
    assert code == 1


def test_verify_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 1


def test_keygen_multi_and_verify(tmp_path, capsys):
    key_path = tmp_path / "multi.json"
    code, _, _ = run(
        capsys, "keygen-multi", "--m", "3", "--k", "96", "--gamma", "1/4",
        "--seed", ZEROS, "--insecure-small", "-o", str(key_path),
    )
    assert code == 0
    doc = json.loads(key_path.read_text())
    assert doc["variant"] == "multiprime"
    assert len(doc["primes"]) == 3
    assert run(capsys, "verify", str(key_path))[0] == 0


def test_keygen_compat_and_verify(tmp_path, capsys):
    key_path = tmp_path / "compat.json"
    code, _, _ = run(
        capsys, "keygen-compat", "--shift", "20", "--k", "256", "--gamma", "1/4",
        "--seed", ZEROS, "--insecure-small", "-o", str(key_path),
    )
    assert code == 0
    doc = json.loads(key_path.read_text())
    assert doc["variant"] == "compatible"
    assert len(doc["inner_primes"]) == 2
    assert run(capsys, "verify", str(key_path))[0] == 0


def test_analyze_emits_combined_report(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    code, out, _ = run(capsys, "analyze", str(key_path))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"keyfile", "variant", "quantum", "classical"}
    assert doc["classical"]["wiener_safe"] is True
    assert doc["quantum"]["fano_lower_bound"] is None
    assert "/" in doc["quantum"]["angular_separation"]


def test_analyze_with_fano_inputs(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    code, out, _ = run(
        capsys, "analyze", str(key_path), "--kappa", "0.5", "--eps-param", "0.01"
    )
    assert code == 0
    assert json.loads(out)["quantum"]["fano_lower_bound"] is not None


def test_shor_sim_single_base(capsys):
    code, out, _ = run(capsys, "shor-sim", "--N", "15", "--a", "7", "--Q", "2048")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 4
    assert doc["success_prob"] == pytest.approx(0.5, abs=1e-12)
    assert doc["success_prob_refined"] == pytest.approx(0.75, abs=1e-12)


def test_shor_sim_single_base_skips_the_dense_vector(cli_probe):
    """At N = 2047 Q is 2^22, the largest Q with a dense vector; building it
    took about 300 MB, and the command never prints it."""
    out, report = cli_probe([["shor-sim", "--N", "2047", "--a", "2"]])
    assert report["codes"] == [cli.EXIT_OK]
    assert out == (DATA / "shor_sim_2047_a2.json").read_text()
    assert report["vmhwm_kb"] < 100 * 1024


def test_key_commands_never_import_numpy(tmp_path, cli_probe):
    key = tmp_path / "key.json"
    _, report = cli_probe(
        [
            keygen_args(key),
            ["verify", str(key)],
            ["analyze", str(key), "-o", str(tmp_path / "report.json")],
            ["shor-sim", "--N", "2047", "--a", "2"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 4
    assert not report["numpy"]


_WITHOUT_NUMPY = """
import importlib, json, pkgutil, sys
sys.modules["numpy"] = None  # every later `import numpy` raises ImportError
import proxrsa
from proxrsa import cli
for info in pkgutil.iter_modules(proxrsa.__path__):
    if info.name != "__main__":
        importlib.import_module("proxrsa." + info.name)
for name in proxrsa.__all__:
    getattr(proxrsa, name)
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]), file=sys.stderr)
"""


def test_library_and_every_command_run_without_numpy(tmp_path):
    """numpy is a test dependency only: with it unimportable, every
    submodule imports, every exported name resolves and each of the eight
    subcommands exits 0."""
    key = tmp_path / "key.json"
    argvs = [
        keygen_args(key),
        ["keygen-multi", "--m", "3", "--k", "96", "--gamma", "1/4", "--seed", ZEROS, "--insecure-small"],
        ["keygen-compat", "--shift", "20", "--k", "256", "--gamma", "1/4", "--seed", ZEROS, "--insecure-small"],
        ["verify", str(key)],
        ["analyze", str(key)],
        ["shor-sim", "--N", "15", "--a", "7", "--Q", "2048"],
        ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2"],
        ["census", "--lo", "2", "--hi", "100", "--gamma", "1/2"],
    ]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stderr.splitlines()[-1]) == [cli.EXIT_OK] * 8


def test_public_names_are_the_errors_and_the_lazy_names():
    import proxrsa

    assert proxrsa.__all__ == [
        "EntropyReport", "InfeasibleError", "KeyGenParams", "KeyPair", "NumericalError",
        "ParameterError", "ProxRsaError", "RangeTooLargeError", "SearchExhaustedError",
        "SeedStream", "StreamExhaustedError", "build_small_modulus", "check_entropy_constraint",
        "derive_residues", "generate_compatible", "generate_keypair", "generate_multiprime",
        "h2_estimate", "h2_from_delta", "h2_upper_bound", "is_probable_prime",
        "multiprime_h2_bound", "proximity_delta", "proximity_holds_exact", "purity_lower",
        "sieve_range", "validate_key",
    ]


_PROFILED_QUICK_START = """
import json, os, shlex, sys, types
import proxrsa
from proxrsa import cli
called = set()
sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
os.chdir(sys.argv[2])
codes = [cli.main(shlex.split(line)[1:]) for line in json.loads(sys.argv[1])]
sys.setprofile(None)
functions = {name: getattr(proxrsa, name) for name in proxrsa.__all__}
unused = [name for name, f in functions.items() if isinstance(f, types.FunctionType) and f.__code__ not in called]
print(json.dumps({"codes": codes, "unused": unused}), file=sys.stderr)
"""


def test_readme_quick_start_calls_every_exported_function(tmp_path):
    """Every function in proxrsa.__all__ is one the documented commands run."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.replace("$SEED", ZEROS) for line in block.splitlines() if line.startswith("proxrsa ")]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _PROFILED_QUICK_START, json.dumps(lines), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stderr.splitlines()[-1])
    assert report == {"codes": [cli.EXIT_OK] * len(lines), "unused": []}


def test_wall_clock_bound_is_not_an_exit_code(monkeypatch, wall_clock):
    """An expired bound inside cli.main escapes it as itself; an OSError
    would come back as exit 1 and read as a wrong exit code, not a hang."""
    import time

    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: time.sleep(5))
    with pytest.raises(Exception, match="wall-clock bound") as raised:
        with wall_clock(0.05):
            cli.main(["verify", "key.json"])
    assert not isinstance(raised.value, OSError)


def test_shor_compare_never_imports_numpy(cli_probe):
    _, report = cli_probe(
        [
            ["shor-compare", "--bits", "12", "--pairs", "8", "--gamma", "0.35", "--bases", "4"],
            ["shor-compare", "--bits", "16", "--pairs", "2", "--gamma", "0.2", "--bases", "1"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 2
    assert not report["numpy"] and not report["mpmath"]


def test_shor_sim_loads_neither_numpy_nor_mpmath(cli_probe):
    _, report = cli_probe([["shor-sim", "--N", "2047", "--a", "2"], ["shor-sim", "--N", "221"]])
    assert report["codes"] == [cli.EXIT_OK] * 2
    assert not report["numpy"] and not report["mpmath"]


def test_importing_entropy_leaves_mpmath_unloaded():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, proxrsa.entropy; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_key_and_report_commands_leave_mpmath_unloaded(tmp_path, cli_probe):
    """The reports are replayed on integers (proxrsa.reals)."""
    keys = [tmp_path / f"{name}.json" for name in ("standard", "multi", "compat")]
    _, report = cli_probe(
        [
            keygen_args(keys[0]),
            ["keygen-multi", "--m", "3", "--k", "96", "--gamma", "1/4", "--seed", ZEROS,
             "--insecure-small", "-o", str(keys[1])],
            ["keygen-compat", "--shift", "20", "--k", "256", "--gamma", "1/4", "--seed", ZEROS,
             "--insecure-small", "-o", str(keys[2])],
            *(["analyze", str(key), "-o", str(tmp_path / "report.json")] for key in keys),
            ["analyze", str(keys[0]), "--kappa", "0.5", "--eps-param", "0.01"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 7
    assert not report["mpmath"] and not report["numpy"]
    assert "tempfile" not in report["stdlib"]


def test_verify_and_census_load_no_shutil(cli_probe):
    _, report = cli_probe(
        [
            ["verify", str(DATA / "keys" / "keygen-k512-seed00.json")],
            ["census", "--lo", "1000", "--hi", "5000", "--gamma", "1/2"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 2
    assert not {"shutil", "tempfile"} & set(report["stdlib"])


@pytest.mark.parametrize("columns", ["60", "100", "200"])
def test_help_text_is_argparse_s_for_a_fixed_width(columns, monkeypatch):
    import argparse

    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    (subparsers,) = parser._subparsers._group_actions
    parsers = [parser, *subparsers.choices.values()]
    ours = [p.format_help() for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert ours == [p.format_help() for p in parsers]


def test_key_file_is_written_with_mode_600(tmp_path, capsys):
    key = tmp_path / "key.json"
    assert run(capsys, *keygen_args(key))[0] == cli.EXIT_OK
    assert key.stat().st_mode & 0o777 == 0o600 & ~_umask()
    assert [p.name for p in tmp_path.iterdir()] == ["key.json"]


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_failed_write_leaves_no_part_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        keyfile.atomic_write_bytes(str(tmp_path / "key.json"), b"data")
    assert list(tmp_path.iterdir()) == []
    # a target that is a directory fails the rename for real
    monkeypatch.undo()
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        keyfile.atomic_write_bytes(str(tmp_path / "dir"), b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


def test_census_loads_neither_numpy_nor_mpmath(cli_probe):
    _, report = cli_probe(
        [
            ["census", "--lo", "1000000", "--hi", "1100000", "--gamma", "1/2"],
            ["census", "--lo", "1000", "--hi", "5000", "--gamma", "1/2", "--mod", "6", "--a", "1", "--b", "5"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 2
    assert not report["numpy"] and not report["mpmath"]
    assert not {"proxrsa.keygen", "proxrsa.entropy"} & set(report["modules"])
    assert not {"hashlib", "csv", "tempfile"} & set(report["stdlib"])
    # the probe does see a module the command loads: csv output needs csv
    _, report = cli_probe([["census", "--lo", "1000", "--hi", "5000", "--gamma", "1/2", "--format", "csv"]])
    assert report["codes"] == [cli.EXIT_OK]
    assert "csv" in report["stdlib"] and "hashlib" not in report["stdlib"]


def test_no_command_loads_dataclasses_or_inspect(tmp_path, cli_probe):
    key = tmp_path / "key.json"
    _, report = cli_probe(
        [
            keygen_args(key),
            ["keygen-multi", "--k", "192", "--m", "3", "--gamma", "1/4", "--seed", ZEROS, "--insecure-small"],
            ["verify", str(key)],
            ["analyze", str(key)],
            ["shor-sim", "--N", "221"],
            ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2"],
            ["census", "--lo", "1000", "--hi", "5000", "--gamma", "1/2", "--format", "csv"],
            ["census", "--lo", "1000", "--hi", "5000", "--gamma", "1/2", "--mod", "6", "--a", "1", "--b", "5"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 8
    assert not {"dataclasses", "inspect"} & set(report["stdlib"])


def test_verify_loads_neither_mpmath_nor_numpy(cli_probe):
    keys = sorted((DATA / "keys").glob("*.json"))
    assert len(keys) == 14
    _, report = cli_probe([["verify", str(key)] for key in keys])
    assert report["codes"] == [cli.EXIT_OK] * 14
    assert not report["mpmath"] and not report["numpy"]


def test_commands_load_only_their_own_modules(tmp_path, cli_probe):
    for argv in (
        ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2"],
        ["shor-sim", "--N", "221"],
    ):
        _, report = cli_probe([argv])
        assert report["codes"] == [cli.EXIT_OK]
        assert "proxrsa.shor_sim" in report["modules"]
        assert not {
            "proxrsa.keygen", "proxrsa.validate", "proxrsa.analysis", "proxrsa.census",
            "proxrsa.entropy", "proxrsa.reals",
        } & set(report["modules"])
    key = tmp_path / "key.json"
    _, report = cli_probe([keygen_args(key)])
    assert report["codes"] == [cli.EXIT_OK]
    assert "proxrsa.keygen" in report["modules"]
    assert not {"proxrsa.analysis", "proxrsa.validate", "proxrsa.shor_sim", "proxrsa.census"} & set(report["modules"])
    # the validator must not load the generator or the modules it is built from
    _, report = cli_probe([["verify", str(key)]])
    assert report["codes"] == [cli.EXIT_OK]
    assert report["modules"] == ["proxrsa.cli", "proxrsa.errors", "proxrsa.keyfile", "proxrsa.validate"]
    _, report = cli_probe([["analyze", str(key), "-o", str(tmp_path / "report.json")]])
    assert report["codes"] == [cli.EXIT_OK]
    assert "proxrsa.analysis" in report["modules"]
    assert not {"proxrsa.keygen", "proxrsa.validate", "proxrsa.shor_sim", "proxrsa.census"} & set(report["modules"])


def test_shor_sim_sweep(capsys):
    code, out, _ = run(capsys, "shor-sim", "--N", "21", "--sweep", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["bases"]) == 5
    assert all(0.0 <= b["success_prob"] <= 1.0 for b in doc["bases"])


def test_shor_compare_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "cmp.csv"
    code, out, _ = run(
        capsys, "shor-compare", "--bits", "10", "--pairs", "3", "--gamma", "0.35",
        "--seed", ZEROS, "-o", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 6
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0]) == [
        "group", "N", "p", "q", "delta", "angular_separation_num", "angular_separation_den",
        "mean_success_prob", "mean_success_prob_refined",
    ]
    for row in rows:
        assert 0.0 <= float(row["mean_success_prob"]) <= 1.0


STDOUT_OR_FILE = {
    "keygen": ["keygen", "--k", "64"],
    "keygen-multi": ["keygen-multi", "--m", "3", "--k", "96"],
    "keygen-compat": ["keygen-compat", "--shift", "20", "--k", "256"],
    "shor-compare": ["shor-compare", "--bits", "10", "--pairs", "3", "--gamma", "0.35"],
}


@pytest.mark.parametrize("command", list(STDOUT_OR_FILE))
def test_stdout_and_out_file_hold_the_same_bytes(command, tmp_path, capsys):
    argv = STDOUT_OR_FILE[command] + ["--seed", ZEROS]
    if command != "shor-compare":
        argv += ["--gamma", "1/4", "--insecure-small"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    code, _, err_with_file = run(capsys, *argv, "-o", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")
    note = "contains private key material"
    assert note not in err
    assert (note in err_with_file) == command.startswith("keygen")


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--lo", "2", "--hi", "20", "--gamma", "1/2")
    assert code == 0
    assert json.loads(out)["pair_count"] == 6


def test_census_csv(capsys):
    code, out, _ = run(
        capsys, "census", "--lo", "2", "--hi", "20", "--gamma", "1/2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["pair_count"] == "6"


def test_census_csv_is_the_json_in_schema_order(capsys):
    schema = json.loads((pathlib.Path(__file__).resolve().parents[1] / "docs" / "census-schema.json").read_text())
    for flags in ([], ["--mod", "6", "--a", "1", "--b", "5"]):
        argv = ["census", "--lo", "2", "--hi", "100", "--gamma", "1/2", *flags]
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = csv.reader(out.splitlines())
        assert header == schema["required"]
        assert row == ["" if doc[k] is None else str(doc[k]) for k in header]


def test_census_progression_flags_must_travel_together(capsys):
    code, _, _ = run(
        capsys, "census", "--lo", "2", "--hi", "100", "--gamma", "1/2", "--mod", "6"
    )
    assert code == 3


def test_census_progression_via_cli(capsys):
    code, out, _ = run(
        capsys, "census", "--lo", "2", "--hi", "100", "--gamma", "1/2",
        "--mod", "6", "--a", "1", "--b", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 6
    assert doc["pair_count"] > 0


def test_unknown_flag_is_parameter_error(capsys):
    code, _, _ = run(capsys, "census", "--lo", "2", "--hi", "9", "--gamma", "1/2", "--bogus")
    assert code == 3


def test_key_schema_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    schema_path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "key-schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(json.loads(key_path.read_text()), schema)


def test_report_schema_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    _, out, _ = run(capsys, "analyze", str(key_path))
    schema_path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(json.loads(out), schema)


@pytest.mark.parametrize("name", sorted(p.name for p in (DATA / "keys").glob("*k2048*.json")))
def test_analyze_golden_2048_bit_keys(name, tmp_path, capsys, wall_clock):
    jsonschema = pytest.importorskip("jsonschema")

    out = tmp_path / "report.json"
    with wall_clock(30):
        code, _, err = run(capsys, "analyze", str(DATA / "keys" / name), "-o", str(out))
    assert code == cli.EXIT_OK, err
    schema = json.loads((pathlib.Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text())
    jsonschema.validate(json.loads(out.read_text()), schema)


def test_census_schema_validates(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    docs = pathlib.Path(__file__).resolve().parents[1] / "docs"
    schema = json.loads((docs / "census-schema.json").read_text())
    _, out, _ = run(capsys, "census", "--lo", "2", "--hi", "20", "--gamma", "1/2")
    jsonschema.validate(json.loads(out), schema)
    _, out, _ = run(
        capsys, "census", "--lo", "2", "--hi", "100", "--gamma", "1/2",
        "--mod", "6", "--a", "1", "--b", "5",
    )
    jsonschema.validate(json.loads(out), schema)


def test_compare_summary_schema_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    docs = pathlib.Path(__file__).resolve().parents[1] / "docs"
    schema = json.loads((docs / "compare-summary-schema.json").read_text())
    code, out, _ = run(
        capsys, "shor-compare", "--bits", "10", "--pairs", "2", "--gamma", "0.3",
        "--seed", ZEROS, "--bases", "3", "-o", str(tmp_path / "c.csv"),
    )
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


def test_analyze_multiprime_uses_closest_pair(tmp_path, capsys):
    key_path = tmp_path / "multi.json"
    run(
        capsys, "keygen-multi", "--m", "3", "--k", "96", "--gamma", "1/4",
        "--seed", ZEROS, "--insecure-small", "-o", str(key_path),
    )
    code, out, _ = run(capsys, "analyze", str(key_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["classical"]["fermat_applicable"] is False
    assert doc["classical"]["fermat_iterations_exact"] is None
    # the reported pair must be the closest pair of the triple
    import math
    from fractions import Fraction

    primes = sorted(int(p, 16) for p in json.loads(key_path.read_text())["primes"])
    gaps = [(abs(a - b), (a, b)) for i, a in enumerate(primes) for b in primes[i + 1 :]]
    p, q = min(gaps)[1]
    num, den = doc["quantum"]["angular_separation"].split("/")
    assert Fraction(int(num), int(den)) == Fraction(math.gcd(p - 1, q - 1), (p - 1) * (q - 1))


def test_no_temp_files_left_behind(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    run(capsys, *keygen_args(key_path))
    leftovers = [p for p in tmp_path.iterdir() if p.name != "key.json"]
    assert leftovers == []


def test_analyze_compat_key_tells_the_whole_story(tmp_path, capsys):
    """Outer pair out of Fermat reach while the inner pair stays close."""
    key_path = tmp_path / "compat.json"
    run(
        capsys, "keygen-compat", "--shift", "20", "--k", "256", "--gamma", "1/4",
        "--seed", ZEROS, "--insecure-small", "-o", str(key_path),
    )
    code, out, _ = run(capsys, "analyze", str(key_path), "--fermat-budget", "1000000")
    assert code == 0
    doc = json.loads(out)
    assert doc["classical"]["gap_exceeds_quarter_root"] is True
    assert doc["classical"]["fermat_feasible"] is False
    # analytic count is astronomically beyond any realistic budget
    assert int(doc["classical"]["fermat_iterations_exact"], 16) > 1 << 80
    # quantum metrics describe the close inner pair
    kdoc = json.loads(key_path.read_text())
    p, q = (int(v, 16) for v in kdoc["inner_primes"])
    import math
    from fractions import Fraction

    num, den = doc["quantum"]["angular_separation"].split("/")
    assert Fraction(int(num), int(den)) == Fraction(math.gcd(p - 1, q - 1), (p - 1) * (q - 1))


def test_keygen_multi_infeasible_residues_is_parameter_error(tmp_path, capsys):
    # ell=2 gives M=6 with only two units: three residues cannot exist
    code, _, err = run(
        capsys, "keygen-multi", "--m", "3", "--k", "96", "--gamma", "1/4",
        "--ell", "2", "--seed", ZEROS, "--insecure-small",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert "residues" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["keygen", "--k", "64", "--ell", "20000"], "(first 20000 primes) too wide for 32-bit primes"),
        (["keygen-multi", "--k", "64", "--m", "1000000", "--ell", "30"], "k=64 too small for 1000000 primes"),
        (["keygen", "--k", "400000", "--ell", "199999"], "(first 199999 primes) too wide for 200000-bit primes"),
        (["keygen", "--k", "200000002", "--ell", "100000000"], "ell=100000000 is too large"),
    ],
    ids=["keygen", "keygen-multi", "keygen-wide-m", "keygen-huge-ell"],
)
def test_infeasible_widths_exit_3_before_any_draw(argv, message, capsys, wall_clock):
    """Each took seconds to minutes, or asked for gigabytes, when M was
    built and every residue drawn before the width checks ran."""
    with wall_clock(2):
        code, _, err = run(capsys, *argv, "--seed", ZEROS, "--insecure-small")
    assert code == cli.EXIT_BAD_PARAMS
    assert message in err


def test_console_entry_point_matches_in_process(tmp_path, capsys):
    import subprocess
    import sys as _sys

    in_proc = tmp_path / "inproc.json"
    run(capsys, *keygen_args(in_proc))
    sub = tmp_path / "subproc.json"
    result = subprocess.run(
        [_sys.executable, "-m", "proxrsa"] + keygen_args(sub),
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr
    assert sub.read_bytes() == in_proc.read_bytes()


@pytest.mark.parametrize("k", [1024, 2048])
def test_key_lifecycle_at_real_sizes(k, tmp_path, cli_process):
    """keygen -> verify -> analyze through the console entry point, each
    call under a wall-clock bound; 2048 bits needs no --insecure-small."""
    key = tmp_path / "key.json"
    small = ["--insecure-small"] if k < cli.INSECURE_SMALL_THRESHOLD else []
    steps = [
        ["keygen", "--k", str(k), "--seed", ZEROS, *small, "-o", str(key)],
        ["verify", str(key)],
        ["analyze", str(key), "-o", str(tmp_path / "report.json")],
    ]
    for argv in steps:
        result = cli_process(argv, timeout=120)
        assert result.returncode == cli.EXIT_OK, (argv, result.stderr)
    doc = json.loads(key.read_text())
    assert int(doc["N"], 16).bit_length() == k
    assert json.loads((tmp_path / "report.json").read_text())["variant"] == "standard"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["keygen", "--k", "32"], "no compliant pair within 2 restarts (k=32, gamma=1/1000000)"),
        (["keygen-multi", "--m", "3", "--k", "96"], "no compliant 3-prime cluster within 2 restarts"),
        (
            ["keygen-compat", "--k", "256", "--shift", "20"],
            "no compatible-layer key within 2 restarts (k=256, shift=20)",
        ),
    ],
    ids=["keygen", "keygen-multi", "keygen-compat"],
)
def test_every_variant_reports_restart_exhaustion(argv, message, tmp_path, capsys):
    code, _, err = run(
        capsys, *argv, "--gamma", "1/1000000", "--seed", ZEROS, "--insecure-small",
        "--max-candidates", "4", "--max-restarts", "2", "-o", str(tmp_path / "k.json"),
    )
    assert code == cli.EXIT_EXHAUSTED
    assert err == f"error: {message}\n"


# (command, fields replaced in a valid key document, documented exit code)
MALFORMED = [
    ("verify", {"M": "0x0", "residues": ["0x1"]}, cli.EXIT_VERIFY_FAILED),
    ("verify", {"M": "0x0"}, cli.EXIT_VERIFY_FAILED),
    ("verify", {"seed": 5}, cli.EXIT_BAD_PARAMS),
    ("verify", {"seed": "0x00"}, cli.EXIT_BAD_PARAMS),
    ("analyze", {"seed": 5}, cli.EXIT_BAD_PARAMS),
    ("verify", {"gamma": 5}, cli.EXIT_BAD_PARAMS),
    ("verify", {"k": "512"}, cli.EXIT_BAD_PARAMS),
    ("verify", {"primes": {}}, cli.EXIT_BAD_PARAMS),
    ("verify", {"primes": []}, cli.EXIT_VERIFY_FAILED),
    ("analyze", {"primes": []}, cli.EXIT_BAD_PARAMS),
    ("verify", {"primes": ["0x5"]}, cli.EXIT_VERIFY_FAILED),
    ("analyze", {"primes": ["0x5"]}, cli.EXIT_BAD_PARAMS),
    ("analyze", {"primes": ["0x5", "0x0", "0x7"]}, cli.EXIT_OK),  # closest pair skips the 0
    ("verify", {"primes": ["0x1", "0x5"], "e": "0x1"}, cli.EXIT_VERIFY_FAILED),
]


@pytest.mark.parametrize(
    "command, fields, code",
    MALFORMED,
    ids=[f"{cmd}-{json.dumps(fields)}" for cmd, fields, _ in MALFORMED],
)
def test_malformed_key_document_ends_with_its_exit_code(command, fields, code, tmp_path, cli_process):
    doc = json.loads((DATA / "keys" / "keygen-k512-seed00.json").read_text())
    doc.update(fields)
    key = tmp_path / "key.json"
    key.write_text(json.dumps(doc))
    result = cli_process([command, str(key)], timeout=60)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr


# entropy_report edits on a valid key document: the schema's six fields, exactly
REPORT_EDITS = {
    "null": lambda report: None,
    "empty": lambda report: {},
    "without-delta": lambda report: {k: v for k, v in report.items() if k != "delta"},
    "extra-field": lambda report: {**report, "note": "0.5"},
    "numeric-delta": lambda report: {**report, "delta": 0.5},
    "string-verdict": lambda report: {**report, "constraint_ok": "true"},
}


@pytest.mark.parametrize("edit", REPORT_EDITS.values(), ids=REPORT_EDITS.keys())
def test_verify_rejects_an_entropy_report_outside_the_schema(edit, tmp_path, capsys):
    doc = json.loads((DATA / "keys" / "keygen-k512-seed00.json").read_text())
    doc["entropy_report"] = edit(doc["entropy_report"])
    key = tmp_path / "key.json"
    key.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(key))
    assert code == cli.EXIT_BAD_PARAMS
    assert err.startswith("error: malformed key document: ")


def test_verify_accepts_a_null_decimal_in_the_entropy_report(tmp_path, capsys):
    doc = json.loads((DATA / "keys" / "keygen-k512-seed00.json").read_text())
    doc["entropy_report"]["budget_bits"] = None
    key = tmp_path / "key.json"
    key.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(key))[0] == cli.EXIT_OK


def test_verify_rejects_a_prime_congruence_modulus(tmp_path, capsys, cli_process):
    key = tmp_path / "key.json"
    run(capsys, *keygen_args(key))
    doc = json.loads(key.read_text())
    doc["M"] = hex(2**127 - 1)
    key.write_text(json.dumps(doc))
    result = cli_process(["verify", str(key)], timeout=60)
    assert result.returncode == cli.EXIT_VERIFY_FAILED
    assert "FAIL: congruence modulus M is not a product of the first primes" in result.stderr.splitlines()


@pytest.mark.parametrize(
    "fields, failure",
    [
        ({"beta": 5}, "beta outside (0, 1): 5.0"),
        ({"beta": 0}, "beta outside (0, 1): 0.0"),
        ({"k": -5}, "key size k = -5 is below 16"),
        ({"k": 15}, "key size k = 15 is below 16"),
    ],
)
def test_verify_rejects_beta_and_k_outside_the_schema(fields, failure, tmp_path, capsys):
    key = tmp_path / "key.json"
    run(capsys, *keygen_args(key))
    doc = json.loads(key.read_text())
    doc.update(fields)
    key.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(key))
    assert code == cli.EXIT_VERIFY_FAILED
    assert f"FAIL: {failure}" in err.splitlines()


@pytest.mark.parametrize("beta", ["0", "5", "-1", "NaN", "Infinity"])
def test_verify_fails_a_beta_outside_the_unit_interval_without_a_traceback(beta, tmp_path, cli_process):
    text = (DATA / "keys" / "keygen-k512-seed00.json").read_text()
    key = tmp_path / "key.json"
    key.write_text(text.replace('"beta": 0.9,', f'"beta": {beta},'))
    result = cli_process(["verify", str(key)], timeout=60)
    assert result.returncode == cli.EXIT_VERIFY_FAILED, result.stderr
    assert result.stderr.startswith("FAIL: beta outside (0, 1): ")
    assert "Traceback" not in result.stderr


def _wide_pair_key():
    """A two-prime k = 512 key that meets gamma = 9/10 but not its entropy
    budget: q is about 1.5p, so H2 is about 0.0434 bits against a budget
    of 0.1 * log2(10/9), about 0.0152."""
    p = numerics.next_prime_in_progression(3 << 254, 1, 6, 10_000)
    q = numerics.next_prime_in_progression(3 * p // 2, 5, 6, 10_000)
    n, e = p * q, 65537
    return keyfile.KeyPair(
        variant="standard",
        k=512,
        gamma=Fraction(9, 10),
        beta=0.1,
        e=e,
        d=pow(e, -1, (p - 1) * (q - 1)),
        n=n,
        primes=[p, q],
        m_modulus=6,
        residues=[1, 5],
        inner_primes=None,
        entropy_report=entropy.check_entropy_constraint(p, q, Fraction(9, 10), 0.1)[1].to_dict(),
        seed=bytes(32),
    )


@pytest.mark.parametrize(
    "variant, failure",
    [
        ("standard", "prime pair violates entropy budget"),
        ("multiprime", "multiprime key must hold at least three primes"),
    ],
)
def test_verify_fails_an_over_budget_pair_under_either_label(variant, failure, tmp_path, capsys):
    kp = _wide_pair_key()
    kp = kp._replace(variant=variant)
    key = tmp_path / "key.json"
    key.write_bytes(keyfile.document_to_bytes(keyfile.keypair_to_document(kp)))
    code, _, err = run(capsys, "verify", str(key))
    assert code == cli.EXIT_VERIFY_FAILED
    assert err == f"FAIL: {failure}\n"


def test_verify_rejects_a_multiprime_key_labelled_standard(tmp_path, capsys):
    doc = json.loads((DATA / "keys" / "keygen-multi-m4-k1024-seed00.json").read_text())
    doc["variant"] = "standard"
    key = tmp_path / "key.json"
    key.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(key))
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL: standard key must hold exactly two primes" in err.splitlines()
