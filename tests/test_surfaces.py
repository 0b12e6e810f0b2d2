import ast
import json
import os
import re
import subprocess
import sys

import curvelab
from curvelab.surfaces import PLANE, QUADRIC, SURFACES

SRC = os.path.dirname(curvelab.__file__)


def test_the_table_loads_only_the_error_module():
    code = ("import json, sys, curvelab.surfaces\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'curvelab')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["curvelab", "curvelab.errors", "curvelab.surfaces"]


def _docstrings(tree) -> set:
    nodes = [tree] + [n for n in ast.walk(tree)
                      if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def test_only_the_table_names_a_surface():
    names = sorted({spelling for name in SURFACES for spelling in (name, name.lower())})
    assert {"P2", "p2", "P1XP1", "p1xp1"} <= set(names)
    pattern = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(names))
    found = []
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py") or filename == "surfaces.py":
            continue
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        docstrings = _docstrings(tree)
        found += [(filename, node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and pattern.search(node.value)]
    assert found == []


def test_a_class_is_spelled_and_parsed_by_its_row():
    assert (PLANE.spell(5), PLANE.parse("5"), PLANE.label(5)) == ("5", 5, "degree 5")
    assert (QUADRIC.spell((2, 3)), QUADRIC.parse("2,3"), QUADRIC.label((2, 3))) == (
        "2,3", (2, 3), "bidegree (2,3)")
    for surface, text in [(PLANE, "2,3"), (PLANE, "-5"), (PLANE, ""), (QUADRIC, "4"),
                          (QUADRIC, "2,3,4"), (QUADRIC, "2,x")]:
        try:
            surface.parse(text)
        except ValueError:
            continue
        raise AssertionError((surface.name, text))
    assert PLANE.valid(3) and QUADRIC.valid((1, 4))
    assert not any([PLANE.valid(True), PLANE.valid(0), PLANE.valid((3,)), QUADRIC.valid(3),
                    QUADRIC.valid((1, True)), QUADRIC.valid([1, 2]), QUADRIC.valid((1, 2, 3))])
