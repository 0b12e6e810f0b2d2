"""A seeded fuzz of the Python entry points that take a surface class,
and of the germ lab's entry points that take a jet order, on a fixed
isolated germ.

Every draw must return its result (an int, a `FitResult` from `fit_nodes`,
an `InvariantReport` from `germ_report` or a `JetSubspace` from
`ideal_in_jets`) or raise a `CurvelabError`; anything else is a defect.
The arguments come from a small hostile vocabulary, and its ints are
small, so that a draw the entry point accepts stays cheap: plane degrees
up to 3, bidegrees up to (2,2), and fits up to order 2 on the fit's own
rows, counted by one shared engine.  A germ draw sets only the order
(`k`, or the truncation order of `ideal_in_jets`); the huge one, 10**30,
is answered at once as a k, since no build's order depends on k, and
refused before any build as a truncation order.
"""

import random

import pytest

from curvelab import (
    CurvelabError,
    FitResult,
    InvariantReport,
    JetSubspace,
    SeveriEngine,
    dim_s0,
    fit_nodes,
    floor_diagram_oracle,
    germ_report,
    ideal_in_jets,
    orbit_tangent_dim,
    parse_germ,
    pencil_discriminant_oracle,
    scheme_length,
)

# ints are drawn most often, so that some draws are valid; inside a list
# or tuple they stop at 2, so that a bidegree is at most (2,2)
OTHERS = (True, False, 0.5, 2.0, "", "2", "p2", None)
SURFACE_NAMES = ("p2", "P2", "p1xp1", "P1XP1", "P3")
CUSP = parse_germ("y^2 - x^3")

ENTRY_POINTS = {
    "severi_p2": lambda engine, *args, **kwargs: engine.severi_p2(*args, **kwargs),
    "severi_quadric": lambda engine, *args, **kwargs: engine.severi_quadric(*args, **kwargs),
    "fit_nodes": lambda engine, *args, **kwargs: fit_nodes(*args, engine=engine, **kwargs),
    "pencil_discriminant_oracle": lambda engine, *args, **kwargs: pencil_discriminant_oracle(
        *args, **kwargs),
    "floor_diagram_oracle": lambda engine, *args, **kwargs: floor_diagram_oracle(*args, **kwargs),
    "germ_report": lambda engine, *args, **kwargs: germ_report(CUSP, *args, **kwargs),
    "ideal_in_jets": lambda engine, *args, **kwargs: ideal_in_jets([CUSP], *args, **kwargs),
    "scheme_length": lambda engine, *args, **kwargs: scheme_length(CUSP, *args, **kwargs),
    "orbit_tangent_dim": lambda engine, *args, **kwargs: orbit_tangent_dim(CUSP, *args, **kwargs),
    "dim_s0": lambda engine, *args, **kwargs: dim_s0(CUSP, *args, **kwargs),
}
RESULT_TYPES = {"fit_nodes": FitResult, "germ_report": InvariantReport,
                "ideal_in_jets": JetSubspace}


def _value(rng, top=3, depth=0):
    """An int in -1..top or 10**30, another scalar, or a list or tuple of
    0 to 3 values, nested at most twice."""
    r = rng.random()
    if depth < 2 and r < 0.3:
        container = rng.choice((list, tuple))
        return container(_value(rng, 2, depth + 1) for _ in range(rng.choice((0, 1, 2, 2, 3))))
    if r < 0.8:
        return rng.randint(-1, top) if rng.random() < 0.9 else 10**30
    return rng.choice(OTHERS)


def draws(seed: int, rounds: int = 150) -> list:
    """(entry point, args, kwargs) of `rounds` draws of each entry point."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        out.append(("severi_p2", (_value(rng), _value(rng)), {}))
        out.append(("severi_quadric", (_value(rng), _value(rng), _value(rng)), {}))
        out.append(("fit_nodes", (_value(rng, 2),), {}))
        surface = rng.choice(SURFACE_NAMES) if rng.random() < 0.8 else _value(rng)
        out.append(("pencil_discriminant_oracle", (surface, _value(rng)), {"seed": _value(rng)}))
        out.append(("floor_diagram_oracle", (_value(rng), _value(rng)), {}))
        out.append(("germ_report", (), {"k": _value(rng)}))
        for name in ("ideal_in_jets", "scheme_length", "orbit_tangent_dim", "dim_s0"):
            out.append((name, (_value(rng),), {}))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surface_entry_points_return_a_count_or_raise_a_curvelab_error(seed):
    engine = SeveriEngine()
    for name, args, kwargs in draws(seed):
        try:
            result = ENTRY_POINTS[name](engine, *args, **kwargs)
        except CurvelabError:
            continue
        except Exception as exc:
            pytest.fail(f"{name}{args!r} {kwargs!r} raised {exc!r}")
        want = RESULT_TYPES.get(name, int)
        assert isinstance(result, want) and not isinstance(result, bool), (name, args, kwargs)
