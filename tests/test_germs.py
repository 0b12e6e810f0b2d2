import random
import re
from fractions import Fraction

import pytest

from curvelab.errors import InputError
from curvelab.germs import GermPoly, parse_germ

from reference import linear_substitute


def test_parse_basic_cusp():
    f = parse_germ("y^2 - x^3")
    assert f.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}


def test_parse_node():
    assert parse_germ("x*y").terms == {(1, 1): Fraction(1)}
    assert parse_germ("xy").terms == {(1, 1): Fraction(1)}


def test_parse_rational_coefficient():
    f = parse_germ("1/2*x^2 + 3*y^5")
    assert f.terms == {(2, 0): Fraction(1, 2), (0, 5): Fraction(3)}


def test_parse_leading_sign_and_cancellation():
    assert parse_germ("-x^3 + y^2") == parse_germ("y^2 - x^3")
    assert parse_germ("x - x").is_zero()


def test_parse_constant_term_rejected():
    with pytest.raises(InputError):
        parse_germ("1 + x")


def test_parse_rejects_garbage():
    for bad in ["", "  ", "x +", "x + + y", "z^2", "x^", "x**y", "2*", "x^-2",
                "\u0663*x", "x^\u0663", "\u0661/\u0662*x"]:
        with pytest.raises(InputError):
            parse_germ(bad)


def test_parse_rejects_a_zero_denominator_naming_the_term():
    for text, term in [("1/0", "1/0"), ("0/0*x^2", "0/0*x^2"), ("2/0*x^2+y^3", "2/0*x^2")]:
        with pytest.raises(InputError, match=re.escape(f"zero denominator in term {term!r}")):
            parse_germ(text)


def test_parse_germ_fuzz_raises_only_input_error():
    # seeded term strings from a hostile vocabulary: zero denominators,
    # stray '*' and '^', signs, huge and non-ASCII digits, empty terms
    vocabulary = [
        "x", "y", "*", "^", "/", "+", "-", " ", "", "0", "1", "7", "/0", "0/0", "1/0",
        "^2", "x^", "^^", "**", "+-", "--", "x^0", "y^3", "1/2*", "*x", "y*", "\u0663",
        "\u0661/\u0662", "\u00b2", "\u00a0", "\t", "9" * 300, "1" * 4400, "2" * 5000, ".",
        "1e3", "(", "z",
    ]
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(100):
            text = "".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 7)))
            try:
                f = parse_germ(text)
            except InputError:
                continue
            except Exception as exc:
                pytest.fail(f"parse_germ({text!r:.200}) raised {type(exc).__name__}: {exc}")
            assert isinstance(f, GermPoly), text


def test_arithmetic_and_partials():
    f = parse_germ("y^2 - x^3")
    assert f.partial_x().terms == {(2, 0): Fraction(-3)}
    assert f.partial_y().terms == {(0, 1): Fraction(2)}
    g = parse_germ("x*y")
    assert (f + g) - g == f
    assert (f * g).terms == {(1, 3): Fraction(1), (4, 1): Fraction(-1)}
    assert f.scale(Fraction(-1, 3)).terms == {
        (0, 2): Fraction(-1, 3),
        (3, 0): Fraction(1, 3),
    }


def test_multiplicity_and_degree():
    assert parse_germ("x*y").multiplicity() == 2
    assert parse_germ("y^2 - x^3").multiplicity() == 2
    assert parse_germ("x^5 - y^5").multiplicity() == 5
    assert parse_germ("y^2 - x^3").total_degree() == 3
    with pytest.raises(InputError):
        GermPoly.zero().multiplicity()


def test_linear_substitute_expands():
    f = parse_germ("x*y")
    # x -> x + y, y -> x - y turns xy into x^2 - y^2
    g = linear_substitute(f, 1, 1, 1, -1)
    assert g == parse_germ("x^2 - y^2")


def test_to_string_round_trip():
    for text in ["x*y", "y^2 - x^3", "x^3 + x*y^3", "1/2*x^2 + y^7 - 4*x*y"]:
        f = parse_germ(text)
        assert parse_germ(f.to_string()) == f


def test_the_printer_is_the_parsers_spec():
    # seeded germs of one to four terms: x-only, y-only and mixed
    # monomials with exponents 0..12, signed integer and p/q coefficients
    rng = random.Random(5)
    for _ in range(2000):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i, j = rng.choice([(rng.randint(1, 12), 0), (0, rng.randint(1, 12)),
                               (rng.randint(0, 12), rng.randint(1, 12))])
            terms[i, j] = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 12]))
        f = GermPoly(terms)
        assert parse_germ(f.to_string()) == f, f.to_string()


@pytest.mark.parametrize("text, want", [
    ("xy", {(1, 1): 1}),
    ("2x", {(1, 0): 2}),
    ("2*y", {(0, 1): 2}),
    ("x^2y", {(2, 1): 1}),
    ("1/2 x", {(1, 0): Fraction(1, 2)}),
    ("x ^ 2", {(2, 0): 1}),
    ("2 * x * y", {(1, 1): 2}),
    ("x^02", {(2, 0): 1}),
    ("yx", "cannot parse term 'yx'"),
    ("y*x", "cannot parse term 'y*x'"),
    ("x*", "cannot parse term 'x*'"),
    ("*y", "cannot parse term '*y'"),
    ("2*", "cannot parse term '2*'"),
    ("x**y", "cannot parse term 'x**y'"),
    ("x\ty", "cannot parse term 'x\\ty'"),
    ("x+", "dangling sign in 'x+'"),
    ("+-x", "dangling sign in '+-x'"),
])
def test_spellings_of_a_term(text, want):
    # the x part comes first, a '*' stands only between two parts, and
    # ASCII spaces inside a term are ignored
    if isinstance(want, dict):
        assert parse_germ(text).terms == want
    else:
        with pytest.raises(InputError, match=f"^{re.escape(want)}$"):
            parse_germ(text)


@pytest.mark.parametrize("value", [5, None, ["x"], b"x*y"])
def test_parse_germ_refuses_a_value_that_is_not_a_string(value):
    with pytest.raises(InputError, match=f"^a germ expression must be a string, got "
                                         f"{re.escape(repr(value))}$"):
        parse_germ(value)
