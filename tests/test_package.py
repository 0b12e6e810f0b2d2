import ast
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import curvelab


def test_public_names_are_listed_once_and_resolve():
    repeated = [name for name, n in Counter(curvelab.__all__).items() if n > 1]
    assert repeated == []
    missing = [name for name in curvelab.__all__ if not hasattr(curvelab, name)]
    assert missing == []


def test_dir_lists_every_public_name():
    assert set(dir(curvelab)) >= set(curvelab.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        curvelab.no_such_name


def test_star_import_binds_every_public_name():
    from curvelab.severi import SeveriEngine

    namespace = {}
    exec("from curvelab import *", namespace)
    assert set(curvelab.__all__) <= set(namespace)
    assert namespace["SeveriEngine"] is SeveriEngine


def _package_imports():
    """(file name, module, names) of every import statement of a curvelab
    module in the files of the package, nested ones too; a relative
    module is spelled in full."""
    package = os.path.dirname(curvelab.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    module = ".".join(filter(None, ("curvelab", module)))
                if module.split(".")[0] == "curvelab":
                    yield name, module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "curvelab":
                        yield name, alias.name, []


def test_modules_import_only_public_names_of_each_other():
    imports = list(_package_imports())
    assert {(name, module) for name, module, _ in imports} >= {
        ("oracles.py", "curvelab.poly"), ("cli.py", "curvelab.oracles")}
    private = [(name, module, imported) for name, module, names in imports
               for imported in [module.split(".")[-1], *names] if imported.startswith("_")]
    assert private == []
    # the oracles stay independent of the layers they check
    importers = {name for name, module, names in imports
                 if module == "curvelab.oracles" or (module == "curvelab" and "oracles" in names)}
    assert importers == {"cli.py"}


def _modules_loaded_by(*argv):
    """The modules a fresh process loads to run one CLI command, less the
    ones it held before importing curvelab: what the site configuration
    loads is not compared."""
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from curvelab.cli import entry\n"
        "code = entry(sys.argv[1:])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _curvelab_modules_after(*argv):
    """The curvelab.* modules a fresh process holds after running one CLI command."""
    return {m for m in _modules_loaded_by(*argv) if m.split(".")[0] == "curvelab"}


def test_germ_analyze_loads_no_fit_oracle_or_catalog():
    loaded = _curvelab_modules_after("germ", "analyze", "y^2 - x^3")
    assert "curvelab.jets" in loaded
    assert not loaded & {"curvelab.fitter", "curvelab.oracles", "curvelab.catalog"}


def test_fit_commands_load_no_germ_lab():
    # the fit solves on curvelab.poly's row echelon, which the jet lab
    # extends: the shared kernel must not pull the germ lab in
    for argv in [("fit", "nodes", "--max-r", "1"), ("fit", "scan", "-r", "1")]:
        loaded = _curvelab_modules_after(*argv)
        assert "curvelab.fitter" in loaded, argv
        assert not loaded & {"curvelab.jets", "curvelab.germs", "curvelab.catalog"}, argv


def test_severi_count_loads_only_the_engine():
    loaded = _curvelab_modules_after("severi", "p2", "-d", "4", "--nodes", "2")
    assert loaded == {"curvelab", "curvelab.cli", "curvelab.errors", "curvelab.memo",
                      "curvelab.severi", "curvelab.surfaces"}


def test_only_a_cache_file_loads_hashlib(tmp_path):
    # hashlib loads OpenSSL, which the memo store imports for cache files alone
    for argv in [
        ("severi", "p2", "-d", "4", "--nodes", "2"),
        ("fit", "scan", "-r", "2"),
        ("severi", "oracle", "--method", "pencil", "-d", "3", "--seed", "5"),
        ("germ", "catalog", "--parts", "A1,A1"),
    ]:
        assert "hashlib" not in _modules_loaded_by(*argv), argv
    cache = str(tmp_path / "memo.txt")
    assert "hashlib" in _modules_loaded_by("severi", "p2", "-d", "4", "--nodes", "2",
                                           "--cache", cache)


@pytest.fixture
def series_commands(tmp_path):
    table = tmp_path / "a.json"
    table.write_text(json.dumps(
        {"entries": [[["A1"], [[[0, 0, 0, 1], "1"], [[0, 1, 0, 0], "2"], [[1, 0, 0, 0], "3"]]]]}
    ))
    return [
        ("series", "eval", "--a-table", str(table), "--parts", "A1", "--chern", "16,-12,9,3"),
        ("series", "assemble", "--a-table", str(table)),
    ]


def test_commands_that_count_nothing_load_no_engine_or_store(series_commands):
    for argv in [
        ("germ", "analyze", "y^2 - x^3"),
        ("germ", "catalog", "A2"),
        ("severi", "oracle", "--method", "floor", "-d", "4", "--nodes", "2"),
        *series_commands,
    ]:
        loaded = _curvelab_modules_after(*argv)
        assert not loaded & {"curvelab.severi", "curvelab.memo"}, argv


def test_oracle_commands_load_no_fractions():
    # the oracles compute on curvelab.poly's integer kernel; fractions,
    # which loads decimal, would cost each of them milliseconds of start-up
    for argv in [
        ("severi", "oracle", "--method", "floor", "-d", "4", "--nodes", "0"),
        ("severi", "oracle", "--method", "pencil", "--surface", "p1xp1", "-a", "2", "-b", "2"),
    ]:
        assert "fractions" not in _modules_loaded_by(*argv), argv


def test_series_commands_load_no_fitter(series_commands):
    for argv in series_commands:
        assert "curvelab.fitter" not in _curvelab_modules_after(*argv), argv


def test_catalog_entry_loads_no_series():
    assert "curvelab.series" not in _curvelab_modules_after("germ", "catalog", "A2")
