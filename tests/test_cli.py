import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import curvelab
from curvelab.catalog import load_catalog
from curvelab.cli import build_parser, entry
from curvelab.severi import SeveriEngine


def run_cli(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_germ_analyze_human(capsys):
    code, out, _ = run_cli(capsys, "germ", "analyze", "y^2-x^3")
    assert code == 0
    assert "tjurina: 2" in out
    assert "determinacy window: (2, 3)" in out
    assert "scheme length N at k=3: 7" in out


def test_germ_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "germ", "analyze", "x*y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "curvelab/v1"
    assert payload["result"]["milnor"] == 1
    assert payload["result"]["scheme_length_at"]["2"] == 5


def test_germ_analyze_errors(capsys):
    code, _, err = run_cli(capsys, "germ", "analyze", "x*y+1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "germ", "analyze", "x^2*y^2")
    assert code == 3
    assert "not isolated" in err


def test_germ_analyze_refuses_a_k_below_the_multiplicity_first(capsys):
    # the jet order is checked against the multiplicity before any scan,
    # so a non-isolated germ at such a k is refused for its k (exit 2)
    code, out, err = run_cli(capsys, "germ", "analyze", "x^2*y^2", "--k", "1")
    assert (code, out, err) == (2, "", "error: jet order 1 too small for multiplicity 4\n")
    code, out, err = run_cli(capsys, "germ", "analyze", "x^2*y^2", "--k", "4")
    assert (code, out, err) == (3, "", "error: singularity not isolated\n")


def test_germ_analyze_refuses_a_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "germ", "analyze", "2/0*x^2+y^3")
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in term '2/0*x^2'\n"


def test_germ_analyze_proves_non_isolation(capsys):
    # the scan runs to the Bezout bound of the partials plus 1, which an
    # isolated germ saturates within: the refusal is a proof, one line
    for text in ("x^2*y^2", "x^2", "x - x"):
        code, out, err = run_cli(capsys, "germ", "analyze", text)
        assert (code, out, err) == (3, "", "error: singularity not isolated\n"), text


def test_germ_analyze_reads_a_leading_minus_as_the_germ(capsys):
    # argparse once took "-y^2+x^3" for an unknown option and then refused
    # the command for a missing expr; "--" before the germ works as well
    code, out, err = run_cli(capsys, "germ", "analyze", "-y^2+x^3")
    assert (code, err) == (0, "")
    assert out.startswith("germ: -y^2 + x^3\nmultiplicity: 2\nmilnor: 2\n")
    for argv in (("-2*y^5", "--json"), ("--", "-x^3*y^2")):
        code, out, err = run_cli(capsys, "germ", "analyze", *argv)
        assert (code, out, err) == (3, "", "error: singularity not isolated\n"), argv


# a valid argv of every command, by its path
_VALID_ARGS = {
    ("germ", "analyze"): ["x^2+y^3"],
    ("germ", "catalog"): [],
    ("severi", "p2"): ["-d", "3", "--nodes", "1"],
    ("severi", "p1xp1"): ["-a", "1", "-b", "1", "--nodes", "1"],
    ("severi", "oracle"): ["--method", "floor"],
    ("fit", "nodes"): [],
    ("fit", "scan"): ["-r", "1"],
    ("series", "eval"): ["--a-table", "a.json", "--parts", "A1", "--chern", "1,1,1,1"],
    ("series", "assemble"): ["--a-table", "a.json"],
}


def test_unknown_options_are_refused_by_argparse_on_every_command(capsys):
    def subcommands(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    assert set(_VALID_ARGS) == {(name, sub) for name, parser in subcommands(build_parser()).items()
                                for sub in subcommands(parser)}
    for path, args in _VALID_ARGS.items():
        for option in ("--no-such-option", "-q"):
            with pytest.raises(SystemExit) as info:
                entry([*path, *args, option])
            assert info.value.code == 2, (path, option)
            err = capsys.readouterr().err
            assert err.startswith("usage: curvelab "), (path, option)
            assert err.endswith(f"curvelab: error: unrecognized arguments: {option}\n"), (
                path, option)


def test_germ_analyze_scans_as_far_as_the_germ_needs(capsys):
    # mu = 69 needs a scan to order 70, past the fixed ceiling of 64 that
    # once refused this germ
    code, out, err = run_cli(capsys, "germ", "analyze", "y^2 - x^70")
    assert (code, err) == (0, "")
    assert "milnor: 69\ntjurina: 69\ndeterminacy window: (69, 70)\n" in out
    # the limit comes from the germ, so there is no --ceiling to set it
    with pytest.raises(SystemExit) as info:
        entry(["germ", "analyze", "y^2 - x^70", "--ceiling", "64"])
    assert info.value.code == 2
    assert "unrecognized arguments: --ceiling 64" in capsys.readouterr().err


def test_germ_analyze_takes_any_k(capsys):
    # no build's order depends on --k: the orbit is read off the frame's
    # scan, which stops where the frame saturates, and N is a closed form
    code, out, err = run_cli(capsys, "germ", "analyze", "x^2+y^3", "--k", "513")
    assert (code, err) == (0, "")
    assert out.endswith("scheme length N at k=513: 1027\n"
                        "orbit tangent dim at k=513: 132351\n"
                        "equisingular stratum dim: 1025\n")
    code, out, _ = run_cli(capsys, "germ", "analyze", "x^2+y^3", "--k", "65")
    assert code == 0
    assert "scheme length N at k=65: 131" in out


def test_germ_analyze_json_reports_jet_counters(capsys):
    code, out, _ = run_cli(capsys, "germ", "analyze", "y^2-x^3", "--json")
    assert code == 0
    payload = json.loads(out)
    # one scan each: mu and tau stop at order 3, the frame at order 4; the
    # determinacy window, the orbit tangent dimension and dim S_0 are read
    # off the frame's scan, and the scheme length is a closed form
    assert payload["stats"] == {"ideal_builds": 3, "max_order": 4, "rows_inserted": 20}


def test_germ_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "germ", "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25  # header plus 24 entries
    assert any(line.startswith("E8") for line in lines)
    flavors = {e.label: e.flavor for e in load_catalog().values()}
    for line in lines[1:]:
        label, flavor = line.split()[:2]
        assert flavor == flavors[label]


def test_germ_catalog_single_and_alias(capsys):
    code, out, _ = run_cli(capsys, "germ", "catalog", "cusp")
    assert code == 0
    assert "label: A2" in out
    code, _, err = run_cli(capsys, "germ", "catalog", "Q99")
    assert code == 2


def test_germ_catalog_collection(capsys):
    code, out, _ = run_cli(capsys, "germ", "catalog", "--parts", "A1,A1,A1")
    assert code == 0
    assert "N total: 15" in out
    assert "symmetry order: 6" in out


def test_germ_catalog_refuses_a_label_with_parts(capsys):
    code, out, err = run_cli(capsys, "germ", "catalog", "A2", "--parts", "A1")
    assert (code, out, err) == (2, "", "error: germ catalog takes a label or --parts, not both\n")


def test_germ_catalog_refuses_an_empty_label_or_multiset(capsys):
    for argv, message in [
        (("",), "unknown singularity label ''"),
        (("--parts", ""), "empty singularity multiset"),
    ]:
        code, out, err = run_cli(capsys, "germ", "catalog", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_parts_refuse_an_empty_label(tmp_path, capsys):
    table = tmp_path / "a.json"
    table.write_text(json.dumps({"entries": [[["A1"], [[[0, 0, 0, 1], "1"]]]]}))
    for text in ("A1,,A2", "A1,A2,", ",A1", "A1, ,A1", ","):
        for argv in (("germ", "catalog", "--parts", text),
                     ("series", "eval", "--a-table", str(table), "--parts", text,
                      "--chern", "1,1,1,1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: empty label in singularity multiset {text!r}\n", argv


def test_ceiling_help_names_the_engine_default(capsys):
    from curvelab.severi import DEFAULT_DEGREE_CEILING

    for command in (("severi", "p2"), ("severi", "p1xp1")):
        with pytest.raises(SystemExit):
            entry([*command, "--help"])
        assert f"degree ceiling (default {DEFAULT_DEGREE_CEILING})" in capsys.readouterr().out


def test_fit_commands_take_no_ceiling(capsys):
    # the fit rows and the scanned degrees all lie under the default ceiling
    for command in (("fit", "nodes", "--max-r", "2"), ("fit", "scan", "-r", "2")):
        with pytest.raises(SystemExit) as info:
            entry([*command, "--ceiling", "12"])
        assert info.value.code == 2
        assert "unrecognized arguments: --ceiling 12" in capsys.readouterr().err


def test_a_huge_jet_ceiling_is_refused_at_once():
    # a huge --ceiling used to scan a non-isolated germ up to it, for
    # ever, and a huge --k to build up to it: the germ lab now takes no
    # ceiling, and no build's order depends on k, so a huge --k is
    # answered, or the germ refused, at once.  Run in a child, so that
    # such a scan fails by the timeout, not a hang
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    huge = "9" * 30
    k = int(huge)
    cusp = ("germ: y^2 - x^3\nmultiplicity: 2\nmilnor: 2\ntjurina: 2\n"
            f"determinacy window: (2, 3)\nscheme length N at k={huge}: {2 * k + 1}\n"
            f"orbit tangent dim at k={huge}: {(k + 1) * (k + 2) // 2 - 4}\n"
            f"equisingular stratum dim: {2 * k - 1}\n")
    for expr, flag, code, out, err in [
        ("x^2*y^2", "--ceiling", 2, "", f"unrecognized arguments: --ceiling {huge}\n"),
        ("x^2*y^2", "--k", 3, "", "error: singularity not isolated\n"),
        ("y^2 - x^3", "--k", 0, cusp, ""),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "curvelab", "germ", "analyze", expr, flag, huge],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (code, out), (expr, flag)
        assert proc.stderr.endswith(err), (expr, flag)


def test_severi_counts(capsys):
    code, out, _ = run_cli(capsys, "severi", "p2", "-d", "4", "--nodes", "3")
    assert code == 0
    assert out.strip() == "675"
    code, out, _ = run_cli(
        capsys, "severi", "p1xp1", "-a", "2", "-b", "2", "--nodes", "1"
    )
    assert code == 0
    assert out.strip() == "12"


def test_severi_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "severi", "p2", "-d", "4", "--nodes", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == 225
    assert payload["stats"]["computed"] > 0


def test_severi_limit_errors(capsys):
    code, _, err = run_cli(capsys, "severi", "p2", "-d", "3", "--nodes", "4")
    assert code == 3
    code, _, err = run_cli(capsys, "severi", "p2", "-d", "13", "--nodes", "1")
    assert code == 3
    code, out, _ = run_cli(
        capsys, "severi", "p2", "-d", "13", "--nodes", "1", "--ceiling", "13"
    )
    assert code == 0
    assert out.strip() == "432"


def test_limits_below_one_are_bad_input(capsys):
    # nothing is scanned below 1, so no limit can have been hit there
    for argv, message in [
        (("germ", "analyze", "x^2+y^3", "--k", "0"), "jet order must be a positive integer"),
        (("severi", "p2", "-d", "3", "--nodes", "1", "--ceiling", "-1"),
         "degree ceiling must be at least 1"),
        (("fit", "scan", "-r", "0"), "needs an order r in 1..8"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_severi_oracle_paths(capsys):
    code, out, _ = run_cli(
        capsys, "severi", "oracle", "--method", "floor", "-d", "4", "--nodes", "2"
    )
    assert code == 0
    assert out.strip() == "225"
    code, out, _ = run_cli(
        capsys, "severi", "oracle", "--method", "pencil", "-d", "3"
    )
    assert code == 0
    assert out.strip() == "12"
    code, out, _ = run_cli(
        capsys, "severi", "oracle", "--method", "pencil",
        "--surface", "p1xp1", "-a", "1", "-b", "1", "--seed", "5",
    )
    assert code == 0
    assert out.strip() == "2"


def test_severi_oracle_flag_validation(capsys):
    code, _, err = run_cli(
        capsys, "severi", "oracle", "--method", "floor", "--surface", "p1xp1",
        "-a", "1", "-b", "1", "--nodes", "1",
    )
    assert code == 2
    code, _, err = run_cli(capsys, "severi", "oracle", "--method", "pencil")
    assert code == 2
    # a flag the chosen count does not read is refused, not ignored: each
    # of these used to print the one-node count with exit 0
    for argv, message in [
        (["--method", "pencil", "-d", "3", "--nodes", "5"], "--nodes must be 1"),
        (["--method", "pencil", "--surface", "p1xp1", "-a", "2", "-b", "2", "--nodes", "3"],
         "--nodes must be 1"),
        (["--method", "pencil", "-d", "3", "-a", "2"], "the plane takes -d"),
        (["--method", "pencil", "-d", "3", "-b", "2"], "the plane takes -d"),
        (["--method", "floor", "-d", "4", "--nodes", "2", "-a", "1"], "the plane takes -d"),
        (["--method", "floor", "-d", "4", "--nodes", "2", "-b", "1"], "the plane takes -d"),
        (["--method", "floor", "-d", "4", "--nodes", "2", "--seed", "7"],
         "the floor oracle has none"),
        (["--method", "pencil", "--surface", "p1xp1", "-d", "3", "-a", "2", "-b", "2"],
         "the quadric takes -a and -b"),
    ]:
        code, out, err = run_cli(capsys, "severi", "oracle", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, argv
    # --nodes 1 is the count the pencil oracle gives
    code, out, _ = run_cli(
        capsys, "severi", "oracle", "--method", "pencil", "-d", "3", "--nodes", "1", "--seed", "5"
    )
    assert (code, out) == (0, "12\n")


def test_fit_nodes_output(capsys):
    code, out, _ = run_cli(capsys, "fit", "nodes", "--max-r", "2")
    assert code == 0
    assert "a_1 = 3*x + 2*y + t" in out
    assert "consistent: true" in out
    code, out, _ = run_cli(capsys, "fit", "nodes", "--max-r", "1", "--json")
    payload = json.loads(out)
    assert payload["result"]["residual_consistent"] is True
    assert [[1, 0, 0, 0], "3"] in payload["result"]["a"]["1"]
    # the default quadric rows grow with --max-r, so order 5 still spans
    # all four Chern directions
    code, out, err = run_cli(capsys, "fit", "nodes", "--max-r", "5")
    assert (code, err) == (0, "")
    assert out.endswith("consistent: true\n")


def test_fit_scan(capsys):
    code, out, _ = run_cli(capsys, "fit", "scan", "-r", "1")
    assert code == 0
    assert out.strip() == "threshold: d = 2"
    code, out, _ = run_cli(capsys, "fit", "scan", "-r", "2", "--json")
    assert json.loads(out)["result"] == 3


def test_a_table_round_trip(tmp_path, capsys):
    table_path = tmp_path / "atable.json"
    code, _, _ = run_cli(
        capsys, "fit", "nodes", "--max-r", "3", "--a-table-out", str(table_path)
    )
    assert code == 0
    assert table_path.exists()

    code, out, _ = run_cli(
        capsys, "series", "eval", "--a-table", str(table_path),
        "--parts", "A1,A1", "--chern", "36,-18,9,3",
    )
    assert code == 0
    prediction = int(out.strip())
    code, out, _ = run_cli(capsys, "severi", "p2", "-d", "6", "--nodes", "2")
    assert prediction == int(out.strip())


def test_series_assemble(tmp_path, capsys):
    table_path = tmp_path / "atable.json"
    run_cli(capsys, "fit", "nodes", "--max-r", "2", "--a-table-out", str(table_path))
    code, out, _ = run_cli(capsys, "series", "assemble", "--a-table", str(table_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A1: 3*x + 2*y + t"
    assert lines[1].startswith("A1,A1:")
    code, out, _ = run_cli(
        capsys, "series", "assemble", "--a-table", str(table_path), "--cap", "1"
    )
    assert out.strip().splitlines() == ["A1: 3*x + 2*y + t"]
    # a cap above the ceiling is refused at once: `--cap 65` used to run on
    for cap in ("33", "65", "9" * 30):
        argv = ("series", "assemble", "--a-table", str(table_path), "--cap", cap)
        message = f"error: truncation cap {cap} exceeds the cap ceiling 32\n"
        assert run_cli(capsys, *argv) == (3, "", message)


def test_text_outputs_match_golden_digests(tmp_path, capsys):
    # SHA-256 of whole stdouts: every polynomial and rational printed as text
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    table_path = tmp_path / "atable.json"
    code, out, _ = run_cli(capsys, "fit", "nodes", "--max-r", "4", "--a-table-out", str(table_path))
    assert code == 0
    assert digest(out) == "5a06a04152dade8845a8d139f068b31456476bdbf59e9aee94aacf2280defc56"
    assert hashlib.sha256(table_path.read_bytes()).hexdigest() == (
        "ddbc3e12e85af0cf9e5dd8a381c86cc91d581a649916e6f3d3e3992ac5d56ebf"
    )
    code, out, _ = run_cli(capsys, "series", "assemble", "--a-table", str(table_path), "--cap", "6")
    assert code == 0
    assert digest(out) == "f630c7195814e08f03d313d1f2f4648afdfe0c24dcc2d0bc2e4273cb3fd41de2"
    code, out, _ = run_cli(capsys, "germ", "analyze", "1/2*x^5 - 7/3*y^4 + x^2*y^2")
    assert code == 0
    assert digest(out) == "815bcac4e27f29ed01130effd263f5e58ba0ddd760420029edb15931c067d2f9"


def test_series_eval_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "series", "eval", "--a-table", str(tmp_path / "missing.json"),
        "--parts", "A1", "--chern", "1,1,1,1",
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, "series", "eval", "--a-table", str(bad),
        "--parts", "A1", "--chern", "1,1,1,1",
    )
    assert code == 2

    table_path = tmp_path / "atable.json"
    run_cli(capsys, "fit", "nodes", "--max-r", "1", "--a-table-out", str(table_path))
    code, _, err = run_cli(
        capsys, "series", "eval", "--a-table", str(table_path),
        "--parts", "A1,A1", "--chern", "16,-12,9,3",
    )
    assert code == 2
    assert "missing entry A1,A1" in err
    code, _, err = run_cli(
        capsys, "series", "eval", "--a-table", str(table_path),
        "--parts", "A1", "--chern", "16,-12,9",
    )
    assert code == 2


def _write_a_table(path, entries):
    path.write_text(json.dumps({"entries": entries}))
    return str(path)


def test_series_eval_stops_at_the_first_missing_entry(tmp_path):
    # sixteen labels ten times each have 11^16 - 1 sub-multisets, and the
    # table lacks A1,A1: they are listed lazily, so the eval refuses at
    # once.  Run in a child with a timeout and an address-space limit of
    # its own, so that listing them all fails the test, not the machine
    labels = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
    table = _write_a_table(tmp_path / "atable.json",
                           [[[label], [[[1, 0, 0, 0], "1"]]] for label in labels])
    parts = ",".join(label for label in labels for _ in range(10))

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvelab", "series", "eval", "--a-table", table,
         "--parts", parts, "--chern", "36,-18,9,3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=30,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: missing entry A1,A1\n")


def _series_commands(table):
    return [
        ("series", "assemble", "--a-table", table),
        ("series", "eval", "--a-table", table, "--parts", "A1", "--chern", "1,1,1,1"),
    ]


def test_a_table_rejects_malformed_exponent_vectors(tmp_path, capsys):
    for exps in ([1.5, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0], [-1, 0, 0, 0],
                 ["1", 0, 0, 0], [True, 0, 0, 0], "1000"):
        table = _write_a_table(tmp_path / "atable.json", [[["A1"], [[exps, "3"]]]])
        for argv in _series_commands(table):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (exps, argv)
            assert err.startswith("error: ") and err.count("\n") == 1


def test_a_table_rejects_a_repeated_multiset(tmp_path, capsys):
    line = [[[1, 0, 0, 0], "3"]]
    for first, second in [(["A1"], ["A1"]), (["A1", "A2"], ["A2", "A1"])]:
        entries = [[["A1"], line], [["A2"], line], [first, line], [second, line]]
        table = _write_a_table(tmp_path / "atable.json", entries)
        for argv in _series_commands(table):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: a-table file {table!r} lists the multiset "
                           f"{','.join(sorted(first))} twice\n")


def test_a_table_rejects_a_file_it_cannot_decode(tmp_path, capsys):
    path = tmp_path / "atable.json"
    for data, why in [(b"\xff\xfe\x00", "is not valid JSON"),
                      (b"[" * 100_000 + b"]" * 100_000, "nests too deep to read")]:
        path.write_bytes(data)
        for argv in _series_commands(str(path)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: a-table file {str(path)!r} {why}\n")


def test_a_table_rejects_a_multiset_given_as_a_string(tmp_path, capsys):
    # sorting "A1" would read it as the multiset {"1", "A"}
    table = _write_a_table(tmp_path / "atable.json", [["A1", [[[1, 0, 0, 0], "3"]]]])
    for argv in _series_commands(table):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: malformed a-table file {table!r}\n")


def test_a_table_rejects_entries_that_are_not_a_list(tmp_path, capsys):
    # "" and {} iterate as no entries: read as entries, they would be an
    # empty table, which `series assemble` prints as an empty line
    for entries in ("", {}, "A1", {"A1": "1"}):
        table = _write_a_table(tmp_path / "atable.json", entries)
        for argv in _series_commands(table):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: malformed a-table file {table!r}\n"), (
                entries, argv)


def test_cache_flag_round_trip(tmp_path, capsys):
    cache = tmp_path / "memo.txt"
    code, cold, _ = run_cli(
        capsys, "severi", "p2", "-d", "7", "--nodes", "2",
        "--cache", str(cache), "--json",
    )
    assert code == 0
    assert cache.exists()
    before = cache.read_bytes(), cache.stat().st_mtime_ns
    code, warm, _ = run_cli(
        capsys, "severi", "p2", "-d", "7", "--nodes", "2",
        "--cache", str(cache), "--json",
    )
    cold_payload = json.loads(cold)
    warm_payload = json.loads(warm)
    assert cold_payload["result"] == warm_payload["result"]
    assert warm_payload["stats"]["computed"] == 0
    assert warm_payload["stats"]["loaded"] > 0
    assert warm_payload["stats"]["computed"] < cold_payload["stats"]["computed"]
    # the warm run computed nothing, so it left the file unwritten
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before


def test_cache_json_lines_of_a_fill_and_a_replay(tmp_path, capsys):
    cache = tmp_path / "memo.txt"
    envelope = ('{{"result":{},"schema":"curvelab/v1","stats":'
                '{{"computed":{},"hits":{},"loaded":{},"size":{}}}}}\n')
    for argv, line in [
        ("severi p2 -d 6 --nodes 4", (437517, 237, 307, 0, 237)),
        ("severi p1xp1 -a 3 -b 3 --nodes 2", (396, 54, 32, 237, 291)),
        # replays: one key read from the 291 loaded lines
        ("severi p2 -d 6 --nodes 4", (437517, 0, 1, 291, 291)),
        ("severi p2 -d 3 --nodes 1", (12, 0, 1, 291, 291)),
        ("severi p2 -d 7 --nodes 3", (145383, 128, 118, 291, 419)),
        ("fit scan -r 2", (3, 850, 462, 419, 1269)),
        ("fit scan -r 2", (3, 0, 49, 1269, 1269)),
    ]:
        code, out, _ = run_cli(capsys, *argv.split(), "--cache", str(cache), "--json")
        assert (code, out) == (0, envelope.format(*line)), argv
    digest = hashlib.sha256(cache.read_bytes()).hexdigest()
    assert digest == "4c4f39bfaf7f96992e7ba4bb41dc0c7d174f5daa999b102a271e93943ff29674"


def _assert_one_line_error(err, cache):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cache) in err


def test_cache_corrupt_file_exits_4(tmp_path, capsys):
    cache = tmp_path / "memo.txt"
    query = ("severi", "p2", "-d", "3", "--nodes", "1", "--cache", str(cache))
    assert run_cli(capsys, *query)[0] == 0
    data = cache.read_bytes()
    # an edited value is refused on the key itself and on a count that
    # builds on it (the true counts are 12 and 27)
    cache.write_bytes(data.replace(b"P2 3 1 - 3 12\n", b"P2 3 1 - 3 13\n"))
    for d in ("3", "4"):
        code, out, err = run_cli(capsys, "severi", "p2", "-d", d, "--nodes", "1",
                                 "--cache", str(cache))
        assert (code, out) == (4, "")
        _assert_one_line_error(err, cache)
    for bad in [
        data.split(b"\n", 1)[1],  # a cache written before the header existed
        data[: len(data) * 2 // 3],
    ]:
        cache.write_bytes(bad)
        code, out, err = run_cli(capsys, *query)
        assert (code, out) == (4, "")
        _assert_one_line_error(err, cache)
        assert cache.read_bytes() == bad


def test_cache_malformed_lines_exit_2(tmp_path, capsys, write_cache):
    cache = tmp_path / "memo.txt"
    for lines in [
        ["P2 x 1 - 3 12"],
        ["P2 3 1 - 3 1x2"],
        ["P2 3 1 - 3 12", "P2 2 1 - 2 3"],
        ["P2 2 1 - 2 3", "P2 2 1 - 2 3"],
        ["P2 3 1 - 3,0 12"],
        ["P2 03 1 - 3 12"],
    ]:
        write_cache(cache, lines)
        code, out, err = run_cli(capsys, "severi", "p2", "-d", "3", "--nodes", "1",
                                 "--cache", str(cache))
        assert (code, out) == (2, "")
        _assert_one_line_error(err, cache)


def test_cache_path_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, monkeypatch):
    query = ("severi", "p2", "-d", "3", "--nodes", "1", "--cache")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *query, "")
    assert (code, out, err) == (2, "", "error: cannot read cache file '': the path is empty\n")
    code, out, err = run_cli(capsys, *query, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read cache file {str(tmp_path)!r}: ")
    _assert_one_line_error(err, tmp_path)
    missing = tmp_path / "missing" / "x.cache"
    code, out, err = run_cli(capsys, *query, str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write cache file {str(missing)!r}: ")
    _assert_one_line_error(err, missing)
    assert list(tmp_path.iterdir()) == []


def test_cache_under_a_missing_directory_is_refused_before_the_count(
    tmp_path, capsys, monkeypatch
):
    def never(self, key):
        raise AssertionError("the count ran before the cache path was checked")

    monkeypatch.setattr(SeveriEngine, "_evaluate", never)
    missing = tmp_path / "missing" / "x.cache"
    for query in (
        ("severi", "p2", "-d", "10", "--nodes", "12"),
        ("fit", "nodes", "--max-r", "2"),
        ("fit", "scan", "-r", "1"),
    ):
        code, out, err = run_cli(capsys, *query, "--cache", str(missing))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot write cache file {str(missing)!r}: "
            "its directory does not exist\n"
        )
        assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_table_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path in ("", tmp_path, tmp_path / "missing" / "atable.json"):
        code, out, err = run_cli(capsys, "fit", "nodes", "--max-r", "1",
                                 "--a-table-out", str(path),
                                 "--cache", str(tmp_path / "memo.cache"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write a-table file {str(path)!r}: ")
        assert err.count("\n") == 1
    # each path is refused before the fit runs, so no cache is written
    assert list(tmp_path.iterdir()) == []


def test_severi_one_node_count_at_degree_45(capsys):
    code, out, _ = run_cli(capsys, "severi", "p2", "-d", "45", "--nodes", "1",
                           "--ceiling", "60")
    assert (code, out) == (0, f"{3 * 44 ** 2}\n")


def test_json_output_is_byte_deterministic(tmp_path, capsys):
    table = str(tmp_path / "atable.json")
    _, first, _ = run_cli(capsys, "fit", "nodes", "--max-r", "2", "--json",
                          "--a-table-out", table)
    _, second, _ = run_cli(capsys, "fit", "nodes", "--max-r", "2", "--json")
    assert first == second
    series = {
        ("series", "assemble", "--a-table", table, "--json"):
            {"entries": 2, "keys": 3, "products": 3},
        ("series", "eval", "--a-table", table, "--parts", "A1,A1",
         "--chern", "36,-18,9,3", "--json"):
            {"entries": 2, "keys": 3, "products": 3},
    }
    for argv, stats in series.items():
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert json.loads(first)["stats"] == stats
    _, first, _ = run_cli(capsys, "germ", "catalog", "--json")
    _, second, _ = run_cli(capsys, "germ", "catalog", "--json")
    assert first == second
    # each input has one degenerate draw, which shows up in the counters:
    # the plane path, the a = 1 quadric path and the a >= 2 quadric path
    # with its resultant of (Fy, Gy)
    pencils = {
        ("-d", "3", "--seed", "3"): (12, {
            "samples": 4, "retries": 1, "exact_squarefree_fallbacks": 1}),
        ("--surface", "p1xp1", "-a", "1", "-b", "1", "--seed", "21"): (2, {
            "samples": 4, "retries": 1, "exact_squarefree_fallbacks": 0}),
        ("--surface", "p1xp1", "-a", "2", "-b", "3", "--seed", "27"): (20, {
            "samples": 4, "retries": 1, "exact_squarefree_fallbacks": 0}),
    }
    for args, (count, stats) in pencils.items():
        pencil = ("severi", "oracle", "--method", "pencil", *args, "--json")
        _, first, _ = run_cli(capsys, *pencil)
        _, second, _ = run_cli(capsys, *pencil)
        assert first == second
        payload = json.loads(first)
        assert (payload["result"], payload["stats"]) == (count, stats), args
    floor = ("severi", "oracle", "--method", "floor", "-d", "4", "--nodes", "2", "--json")
    _, first, _ = run_cli(capsys, *floor)
    _, second, _ = run_cli(capsys, *floor)
    assert first == second
    assert json.loads(first)["stats"] == {"diagrams": 13, "frames": 91}


def test_pencil_json_stats_at_seed_5(capsys):
    # the pencil commands of the compute_cold benchmark workload
    pencils = {
        ("-d", "2"): 3, ("-d", "3"): 12, ("-d", "4"): 27,
        ("-d", "5"): 48,
        ("--surface", "p1xp1", "-a", "1", "-b", "1"): 2,
        ("--surface", "p1xp1", "-a", "1", "-b", "2"): 4,
        ("--surface", "p1xp1", "-a", "2", "-b", "2"): 12,
        ("--surface", "p1xp1", "-a", "2", "-b", "3"): 20,
        ("--surface", "p1xp1", "-a", "3", "-b", "3"): 34,
    }
    for args, count in pencils.items():
        _, out, _ = run_cli(capsys, "severi", "oracle", "--method", "pencil", *args,
                            "--seed", "5", "--json")
        payload = json.loads(out)
        assert (payload["result"], payload["stats"]) == (count, {
            "samples": 3, "retries": 0, "exact_squarefree_fallbacks": 0}), args


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        entry(["severi", "p3"])


def test_module_invocation_subprocess():
    # the child imports the same curvelab as this process, installed or not
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvelab", "severi", "p2", "-d", "2", "--nodes", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_closed_stdout_exits_1_quietly():
    # the read end of stdout's pipe is closed before the child starts, so
    # its first write to stdout fails every time
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvelab", "germ", "catalog"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
