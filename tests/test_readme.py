"""The README's command-line examples, run in order as a user would type
them: each `$ curvelab ...` line of a fenced block runs in one temporary
directory, and its stdout must equal the lines shown under it, up to the
next `$` line or the end of the block.  A line that shows no output still
runs, since a later one may read what it wrote.  A `--cache` example runs
twice, as the README speaks of repeated calls, and its second output is
the one shown."""

import shlex
from pathlib import Path

from curvelab.cli import entry

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list:
    """(argv, shown stdout lines) for every `$ curvelab` line, in order."""
    examples, fenced, shown = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ curvelab "):
            shown = []
            examples.append((shlex.split(line[2:], comments=True)[1:], shown))
        elif fenced and shown is not None:
            shown.append(line)
    return examples


def test_readme_examples_print_what_they_show(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 18
    for argv, shown in examples:
        for _ in range(2 if "--cache" in argv else 1):
            code = entry(argv)
            out = capsys.readouterr().out
        assert code == 0, argv
        if shown:
            assert out.splitlines() == shown, argv
