import csv
import json
import pathlib

import pytest

from proxrsa import cli

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


def test_shor_compare_never_imports_numpy(cli_probe):
    _, report = cli_probe(
        [
            ["shor-compare", "--bits", "12", "--pairs", "8", "--gamma", "0.35", "--bases", "4"],
            ["shor-compare", "--bits", "16", "--pairs", "2", "--gamma", "0.2", "--bases", "1"],
        ]
    )
    assert report["codes"] == [cli.EXIT_OK] * 2
    assert not report["numpy"]


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


def test_commands_load_only_their_own_modules(tmp_path, cli_probe):
    _, report = cli_probe([["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2"]])
    assert report["codes"] == [cli.EXIT_OK]
    assert "proxrsa.shor_sim" in report["modules"]
    assert not {"proxrsa.keygen", "proxrsa.validate", "proxrsa.analysis", "proxrsa.census"} & set(report["modules"])
    _, report = cli_probe([keygen_args(tmp_path / "key.json")])
    assert report["codes"] == [cli.EXIT_OK]
    assert "proxrsa.keygen" in report["modules"]
    assert not {"proxrsa.analysis", "proxrsa.validate", "proxrsa.shor_sim", "proxrsa.census"} & set(report["modules"])


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
    assert set(rows[0]) == set(cli.COMPARE_CSV_COLUMNS)
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
