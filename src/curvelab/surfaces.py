"""The surfaces curvelab counts on, one row each.

A count is a universal polynomial in the Chern numbers of a polarized
surface (S, L), so the rest of the package knows a surface only by its
row and branches on no surface name.  A class L is the values of the
row's `flags`, the plane's degree d or the quadric's bidegree (a, b): an
int for one flag, a tuple for several.  Besides its `name` (in memo keys
and cache lines; lower-cased, on the command line) and the `word` and
`kind` that messages use, a row maps a class to its Chern vector (L^2,
L.K, c1^2, c2), its node cap (the most nodes of a reduced curve in it),
the highest order at which the fit lets it vote, and the Caporaso-Harris
data relative to a fixed line (a ruling on the quadric): the value of a
base key (None for other keys; whether a key is a base key depends on
its class and node count alone), the residual class left when the fixed
line splits off, and the points in which a class meets that line.
`pencil` is the pencil oracle's sampler row of a class, refusing a class
out of its range, or None; `floor` says if the floor oracle covers it.
"""

from collections import namedtuple

from .errors import InputError, is_int

# One surface and class as the pencil sampler sees it: F and G are drawn by
# `_sample_poly(rng, *draw)`; `var` picks E2 = F*Gv - Fv*G; `e_ydegs` are
# the generic y-degrees of (E1, E2); `fake` counts the spurious roots, the
# common roots of (Fv, Gv), which must have y-degrees `fake_ydegs`; row j
# reversed in x to width chart[j] moves the curve at infinity to u = 0.
Pencil = namedtuple("Pencil", "draw var e_ydegs fake fake_ydegs chart")


def _plane_pencil(d) -> Pencil:
    # Degree d, drawn by total degree, so the top y-coefficients of E1, E2
    # and Fx are constants.  Fx and Gx meet in (d-1)^2 points.  The chart
    # x = 1 misses only (0:1:0), and a member singular there has zero
    # coefficients of y^d and x*y^(d-1), so E2 would lose its y^(2d-1)
    # term: the y-degree check on E2 rejects that draw.
    if not is_int(d) or not (2 <= d <= 7):
        raise InputError("plane pencil oracle supports 2 <= d <= 7")
    return Pencil((d, d, d), 0, (2 * d - 2, 2 * d - 1), (d - 1) ** 2, (d - 1, d - 1),
                  tuple(range(d, -1, -1)))


def _quadric_pencil(bidegree) -> Pencil:
    # Bidegree (a, b), a <= b.  With a >= 2 the pair (E1, F*Gx - Fx*G) is
    # unusable: both top y-coefficients are multiples of fb'*gb - fb*gb',
    # so the resultant always degenerates at infinity.  Pairing E1 with
    # F*Gy - Fy*G instead gives coprime leading coefficients; its spurious
    # zeros are the common roots of (Fy, Gy), of which there are 2a(b-1).
    # F*Gy - Fy*G loses its top term identically, so its generic y-degree
    # is 2b - 2.  Fv and Gv have y-degree b - v.  The chart u = 1/x
    # reverses F and G in x.
    try:
        a, b = bidegree
    except (TypeError, ValueError):
        raise InputError("quadric pencil oracle needs a bidegree pair (a, b)")
    if not (is_int(a) and is_int(b)) or not (1 <= a <= 4 and 1 <= b <= 4):
        raise InputError("quadric pencil oracle supports 1 <= a, b <= 4")
    # Counts are symmetric in the bidegree, so normalise to a <= b; the
    # elimination needs the y-direction to carry the larger degree.
    a, b = min(a, b), max(a, b)
    v = 0 if a == 1 else 1
    return Pencil((a, b, a + b), v, (2 * b - 1, 2 * b if a == 1 else 2 * b - 2),
                  0 if a == 1 else 2 * a * (b - 1), (b - v, b - v), (a,) * (b + 1))


class Surface(namedtuple("Surface", "name word kind flags chern node_cap vote_order base "
                                    "residual meet pencil floor")):
    __slots__ = ()

    def klass(self, *values):
        """The class whose flags have `values`."""
        return values if len(self.flags) > 1 else values[0]

    def valid(self, klass) -> bool:
        """Whether `klass` is a class: one int >= 1 per flag, no bool."""
        values = klass if len(self.flags) > 1 else (klass,)
        return (type(values) is tuple and len(values) == len(self.flags)
                and all(is_int(v) and v >= 1 for v in values))

    def checked(self, klass):
        """`klass` if it is a class, else InputError."""
        if not self.valid(klass):
            raise InputError(f"need {self.kind} {', '.join(self.flags)} >= 1, got {klass!r}")
        return klass

    def spell(self, klass) -> str:
        """A class as a cache line spells it by value, e.g. `5` or `2,3`."""
        return ",".join("%d" % v for v in klass) if len(self.flags) > 1 else "%d" % klass

    def parse(self, text: str):
        """The class `text` spells; ValueError unless one natural per flag."""
        fields = text.split(",")
        if len(fields) != len(self.flags) or not all(f.isdigit() for f in fields):
            raise ValueError(text)
        return self.klass(*map(int, fields))

    def size(self, klass) -> int:
        """The largest flag value of a class, which the engine's ceiling bounds."""
        return max(klass) if len(self.flags) > 1 else klass

    def label(self, klass) -> str:
        """A class as messages name it, e.g. `degree 5` or `bidegree (2,3)`."""
        text = self.spell(klass)
        return f"{self.kind} {text if len(self.flags) == 1 else f'({text})'}"


SURFACES = {surface.name: surface for surface in (
    Surface(
        "P2", "plane", "degree", ("d",), pencil=_plane_pencil, floor=True,
        chern=lambda d: (d * d, -3 * d, 9, 3), vote_order=lambda d: d - 2,
        node_cap=lambda d: d * (d - 1) // 2,  # d generic lines
        base=lambda d, delta, alpha, beta: int(delta == 0) if d == 1 else None,
        residual=lambda d: d - 1, meet=lambda d: d,
    ),
    Surface(
        "P1XP1", "quadric", "bidegree", ("a", "b"), pencil=_quadric_pencil, floor=False,
        chern=lambda ab: (2 * ab[0] * ab[1], -2 * ab[0] - 2 * ab[1], 8, 4),
        vote_order=lambda ab: min(ab) - 1,
        node_cap=lambda ab: ab[0] * ab[1],  # a union of rulings
        # class (0,b): b ruling lines, transversal to the fixed line, no
        # nodes; profiles may only hold order-1 contacts
        base=lambda ab, delta, alpha, beta: (
            int(delta == 0 and len(alpha) <= 1 and len(beta) <= 1) if ab[0] == 0 else None),
        residual=lambda ab: (ab[0] - 1, ab[1]), meet=lambda ab: ab[1],
    ),
)}
PLANE, QUADRIC = SURFACES.values()
