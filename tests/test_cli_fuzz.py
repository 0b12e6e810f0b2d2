"""A seeded fuzz of the command line, run in-process through `cli.entry`.

The argv lists are drawn from `build_parser()` itself: a draw walks the
subcommands down to a command and gives each of its options and
positionals a value, or leaves it out, so a new command or flag is fuzzed
without an edit here.  The values come from a hostile vocabulary: empty
strings, signs, `1e3`, `0x3`, huge and non-ASCII digits, zero
denominators, and, for the PATH options, a directory, missing, truncated,
empty and non-UTF-8 files, and a-tables holding `NaN`, `1e400`, `true` or
a list.  Ints are small, so that a draw the command accepts stays cheap,
except one per draw, which may lie one past a ceiling (to draw that
ceiling's refusal) or be huge.  A huge `--ceiling` is cheap too: the
degree ceiling only admits the small classes drawn beside it.  A germ
expression may be non-isolated or need a scan past order 64.

Every draw must exit with a code of README's table; a failure that is
not argparse's prints exactly one `error:` line and nothing on stdout; no
traceback appears; and a `--json` draw run twice prints the same bytes.
"""

import argparse
import json
import os
import random
import re
import shutil

import pytest

from curvelab.cli import build_parser, entry
from curvelab.fitter import MAX_ORDER
from curvelab.jets import MAX_JET_ORDER
from curvelab.series import MAX_CAP
from curvelab.severi import DEFAULT_DEGREE_CEILING

EXIT_CODES = {0, 1, 2, 3, 4}
SMALL = ("0", "1", "2", "3", "-1")
BEYOND = tuple(str(ceiling + 1)
               for ceiling in (DEFAULT_DEGREE_CEILING, MAX_JET_ORDER, MAX_ORDER, MAX_CAP))
HUGE = "9" * 30
HOSTILE = ("", "-", "+2", "1e3", "0x3", "٣", "２", "1/0", "nan", " 2 ", "2,3", "x", "é")
# text by the argument's dest; an argument not listed here draws from all of it
TEXT = {
    "expr": ("y^2 - x^3", "x*y", "x^2*y^2", "x*y+1", "1/0*x^2 + y^3", "x^", "1/2*x^2 + 3*y^5",
             "y^2 - x^70", "x^2", "-y^2+x^3"),
    "label": ("A1", "node", "cusp", "E8", "Z9", "A1,A1"),
    "parts": ("A1", "A1,A1", "A1,A2", "node", "Z9", ",", "A1,,A1"),
    "chern": ("36,-18,9,3", "16,-12,9,3", "1,1,1", "1/0,1,1,1", "1/2,0,0,0"),
}
TABLE = {"entries": [[["A1"], [[[0, 0, 0, 1], "1"], [[0, 1, 0, 0], "2"], [[1, 0, 0, 0], "3"]]],
                     [["A1", "A1"], [[[0, 0, 0, 1], "-7"], [[0, 0, 1, 0], "-6"],
                                     [[0, 1, 0, 0], "-39"], [[1, 0, 0, 0], "-42"]]]]}
FILES = {
    "table.json": json.dumps(TABLE).encode(),
    "nan.json": b'{"entries": [[["A1"], [[[0, 0, 0, 1], NaN]]]]}',
    "huge.json": b'{"entries": [[["A1"], [[[0, 0, 0, 1], 1e400]]]]}',
    "true.json": b'{"entries": [[["A1"], [[[0, 0, 0, 1], true]]]]}',
    "list.json": b'[["A1"], [[[0, 0, 0, 1], "1"]]]',
    "key.json": b'{"entries": [["A1", [[[0, 0, 0, 1], "1"]]]]}',
    "empty": b"",
    "binary": b"\xff\xfe\x00curvelab",
}
PATHS = (*FILES, "cache.memo", "truncated.memo", "missing.memo", "nodir/out", "", ".",
         "new.memo", "out.json")


def commands(parser, path=()):
    """(argv prefix, parser) of every command below `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in commands(sub, path + (name,))]


def _value(rng, action, large: bool) -> str:
    if action.choices:
        return rng.choice(action.choices) if rng.random() < 0.8 else rng.choice(HOSTILE)
    if action.metavar == "PATH":
        return rng.choice(PATHS)
    if action.type is int:
        if large:
            return rng.choice(BEYOND + (HUGE,))
        return rng.choice(SMALL) if rng.random() < 0.8 else rng.choice(HOSTILE)
    text = TEXT.get(action.dest) or sum(TEXT.values(), ())
    return rng.choice(text) if rng.random() < 0.7 else rng.choice(HOSTILE)


def draw(rng, leaves) -> list:
    """One argv: a command, then some of its arguments in a random order."""
    path, parser = rng.choice(leaves)
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    ints = [a for a in actions if a.type is int]
    large = rng.choice(ints) if ints and rng.random() < 0.5 else None
    groups = []
    for action in actions:
        if action is not large and rng.random() > (
                0.9 if action.required or not action.option_strings else 0.5):
            continue
        if action.nargs == 0:
            groups.append([action.option_strings[0]])
            continue
        value = _value(rng, action, action is large)
        groups.append([rng.choice(action.option_strings), value] if action.option_strings
                      else [value])
    rng.shuffle(groups)
    return [*path, *(word for group in groups for word in group)]


@pytest.fixture(scope="module")
def cache_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "c.memo"
    assert entry(["severi", "p2", "-d", "3", "--nodes", "1", "--cache", str(path)]) == 0
    return path.read_bytes()


def run(argv, workdir, cache_bytes, capsys):
    """(exit code, stdout, stderr, argparse refused) of argv, run in a
    freshly written `workdir`."""
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    files = {**FILES, "cache.memo": cache_bytes, "truncated.memo": cache_bytes[:90]}
    for name, data in files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    capsys.readouterr()
    try:
        code, refused = entry(argv), False
    except SystemExit as exc:
        code, refused = exc.code, True
    out, err = capsys.readouterr()
    return code, out, err, refused


def test_cli_draws_exit_cleanly(tmp_path, monkeypatch, capsys, cache_bytes):
    workdir = str(tmp_path)
    monkeypatch.chdir(workdir)
    leaves = commands(build_parser())
    limits = set()
    answered_k = []
    # between them these seeds draw every limit's refusal, and seed 6 a
    # germ analyzed at a jet order past the scans' maximum, which seeds
    # 1-4 draw only behind a bad expression
    for seed in (1, 2, 3, 4, 6):
        rng = random.Random(seed)
        for _ in range(60):
            argv = draw(rng, leaves)
            code, out, err, refused = run(argv, workdir, cache_bytes, capsys)
            assert code in EXIT_CODES, argv
            assert "Traceback" not in out + err, argv
            if code and not refused:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            if not code:
                assert err == "", argv
            if "--json" in argv and not refused:
                assert run(argv, workdir, cache_bytes, capsys)[:3] == (code, out, err), argv
            if code == 3:
                limits.add(err)
            if not code and argv[:2] == ["germ", "analyze"] and "--k" in argv:
                answered_k.append(int(argv[argv.index("--k") + 1]))
    # each limit's refusal was drawn
    for refusal in ("error: degree .* exceeds ceiling", "not isolated",
                    "exceeds the order ceiling", "exceeds the cap ceiling"):
        assert any(re.search(refusal, err) for err in limits), refusal
    # a jet order is no limit: k = 513 and a huge k were each answered
    assert {MAX_JET_ORDER + 1, int(HUGE)} <= set(answered_k)
