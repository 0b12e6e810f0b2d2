import operator
import random
import re
from fractions import Fraction

import pytest

from curvelab.errors import InconsistencyError, InputError
from curvelab.germs import GermPoly, parse_germ
from curvelab.poly import (
    add_terms,
    exact_quotient,
    mul_rows,
    mul_terms,
    partial_rows,
    partial_terms,
    sub_rows,
    subresultant,
    trim_poly,
)
from curvelab.series import ChernPolynomial
from reference import interpolated_resultant

# the Mersenne prime 2**61 - 1, the pencil oracle's certificate modulus
P = 2**61 - 1


def _random_terms(rng, nvars: int) -> dict:
    return {
        tuple(rng.randint(0, 3) for _ in range(nvars)): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(0, 6))
    }


def _value(terms: dict, point) -> int:
    total = 0
    for key, c in terms.items():
        for v, e in zip(point, key):
            c *= v ** e
        total += c
    return total


def test_term_functions_keep_integers_and_drop_cancelled_terms():
    a = {(2, 0): 3, (0, 1): -2}
    b = {(2, 0): 3, (1, 1): 5}
    results = [
        (add_terms(a, b), {(2, 0): 6, (0, 1): -2, (1, 1): 5}),
        (add_terms(a, b, -1), {(0, 1): -2, (1, 1): -5}),
        # (x + y) * (x - y): the two x*y terms cancel
        (mul_terms({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}), {(2, 0): 1, (0, 2): -1}),
        (add_terms(a, a, -1), {}),
        (partial_terms({(2, 1): 3, (0, 4): 7}, 0), {(1, 1): 6}),
        (partial_terms({(2, 1): 3, (0, 4): 7}, 1), {(2, 0): 3, (0, 3): 28}),
        (partial_terms({(1, 0, 2, 0): 5, (1, 0, 0, 0): 4}, 2), {(1, 0, 1, 0): 10}),
    ]
    for got, want in results:
        assert got == want
        assert all(type(c) is int for c in got.values())


def test_term_functions_agree_with_polynomial_arithmetic():
    rng = random.Random(8)
    for _ in range(60):
        a, b = _random_terms(rng, 2), _random_terms(rng, 2)
        f, g = GermPoly(a), GermPoly(b)
        assert GermPoly(add_terms(a, b)) == f + g
        assert GermPoly(add_terms(a, b, -1)) == f - g
        assert GermPoly(mul_terms(a, b)) == f * g
        assert GermPoly(partial_terms(a, 0)) == f.partial_x()
        assert GermPoly(partial_terms(a, 1)) == f.partial_y()
        point = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert _value(add_terms(a, b, -1), point) == _value(a, point) - _value(b, point)
        assert _value(mul_terms(a, b), point) == _value(a, point) * _value(b, point)
        p, q = _random_terms(rng, 4), _random_terms(rng, 4)
        P, Q = ChernPolynomial(p), ChernPolynomial(q)
        assert ChernPolynomial(mul_terms(p, q)) == P * Q
        assert ChernPolynomial(add_terms(p, q)) == P + Q


def _rows(terms: dict) -> list:
    """The y-rows of integer terms (i, j) -> c."""
    rows = [[] for _ in range(max((j for _, j in terms), default=-1) + 1)]
    for (i, j), c in terms.items():
        rows[j] += [0] * (i + 1 - len(rows[j]))
        rows[j][i] += c
    return trim_poly([trim_poly(row) for row in rows])


def test_row_functions_agree_with_the_term_functions():
    rng = random.Random(9)
    for _ in range(60):
        a, b = _random_terms(rng, 2), _random_terms(rng, 2)
        A, B = _rows(a), _rows(b)
        assert mul_rows(A, B) == _rows(mul_terms(a, b))
        assert sub_rows(A, B) == _rows(add_terms(a, b, -1))
        assert sub_rows(A, A) == []
        for var in (0, 1):
            assert partial_rows(A, var) == _rows(partial_terms(a, var))


def test_resultant_with_coefficients_beyond_seventeen_primes():
    # coefficients of about P^5 in each argument give a resultant, of
    # degree 3 in A's and 1 in B's, beyond P^17 (above 2**1000): no fixed
    # modulus caps the coefficient size.  A's y-degree 1 is below B's 3,
    # and both are odd, so the PRS swaps them and flips the sign.
    rng = random.Random(5)
    for big, beyond in ((P, P**2), (P**5, P**17)):
        A = _rows({(i, j): rng.randint(-big, big) for i in range(3) for j in range(2)})
        B = _rows({(i, j): rng.randint(-big, big) for i in range(2) for j in range(4)})
        R = subresultant(A, B)
        assert max(map(abs, R)) > beyond
        assert R == interpolated_resultant(A, B)


def test_inexact_division_raises():
    assert exact_quotient([6, 5, 1], [2, 1]) == [3, 1]
    assert exact_quotient([], [7, 1]) == []
    # x^2 + 1 = (x + 2)(x - 2) + 5; 2 does not divide it; x does not divide 1
    for p, q in (([1, 0, 1], [2, 1]), ([1, 0, 1], [2]), ([1], [0, 1]), ([2, 0, 1], [0, 1])):
        with pytest.raises(InconsistencyError, match="division left a remainder"):
            exact_quotient(p, q)


def test_germ_and_chern_polynomials_never_compare_or_combine():
    assert GermPoly.zero() == GermPoly.zero()
    assert GermPoly.zero() != ChernPolynomial.zero()
    assert ChernPolynomial.zero() != GermPoly.zero()
    terms = {(1, 0): Fraction(2)}
    assert GermPoly._of(dict(terms)) != ChernPolynomial._of(dict(terms))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(GermPoly(terms), ChernPolynomial.constant(1))


def test_germ_to_string_orders_terms_by_degree_then_y_power():
    rng = random.Random(5)
    for _ in range(40):
        f = GermPoly({
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.choice([-1, 1, 2]), rng.choice([1, 3]))
            for _ in range(rng.randint(1, 6))
        })
        if f.is_zero() or f.constant_term():
            continue
        text = f.to_string()
        keys = [next(iter(parse_germ(chunk).terms)) for chunk in re.split(r" [+-] ", text.lstrip("-"))]
        assert keys == sorted(f.terms, key=lambda k: (k[0] + k[1], k[1]))
        assert parse_germ(text) == f


def test_bad_exponent_keys_are_refused():
    # a negative, fractional or missing exponent names no monomial
    for key in [(-1, 0), (1.5, 2), (2,), (1, 2, 3), ("1", 2)]:
        with pytest.raises(InputError) as err:
            GermPoly({key: 1, (2, 1): 3})
        assert str(err.value) == (
            f"a germ monomial needs two nonnegative integer exponents, got {list(key)!r}"
        )
    with pytest.raises(InputError) as err:
        ChernPolynomial({(1, -1, 0, 0): 1})
    assert str(err.value) == (
        "a Chern monomial needs four nonnegative integer exponents, got [1, -1, 0, 0]"
    )
    assert GermPoly({(2, 1): 3}).to_string() == "3*x^2*y"


def test_a_key_that_is_not_a_sequence_is_refused():
    # tuple(5) raises TypeError; the key check names the rule instead
    for cls in (GermPoly, ChernPolynomial):
        for key in (5, None):
            with pytest.raises(InputError) as err:
                cls({key: 1})
            assert str(err.value) == f"{cls.KEY_RULE}, got {key!r}"
