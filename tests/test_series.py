import random
from fractions import Fraction

import pytest

from curvelab.errors import CeilingError, InputError
from curvelab.series import (
    MAX_CAP,
    ChernPolynomial,
    TruncatedSeries,
    assemble_from_table,
    assemble_series,
    aut_count,
    exp_series,
    extract_universal,
    format_rational,
    log_series,
    parse_rational,
)

from reference import (
    ONE,
    one_plus,
    power_sum_exp,
    power_sum_log,
    series_product,
    series_sum,
)

A1 = ChernPolynomial.linear(3, 2, 0, 1)


def test_rational_text_round_trip():
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert parse_rational("9/2") == Fraction(9, 2)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational(" 5 ") == 5
    for bad in ["", "x", "1/0", "2/3/4"]:
        with pytest.raises(InputError):
            parse_rational(bad)


def test_polynomial_arithmetic():
    x = ChernPolynomial({(1, 0, 0, 0): 1})
    y = ChernPolynomial({(0, 1, 0, 0): 1})
    square = (x + y) * (x + y)
    assert square.coefficient((2, 0, 0, 0)) == 1
    assert square.coefficient((1, 1, 0, 0)) == 2
    assert square.total_degree() == 2
    assert (square - square).is_zero()
    assert x.scale(Fraction(1, 3)).coefficient((1, 0, 0, 0)) == Fraction(1, 3)


def test_polynomial_linearity_and_evaluation():
    assert A1.is_linear()
    assert not (A1 * A1).is_linear()
    assert not ChernPolynomial.constant(2).is_linear()
    assert ChernPolynomial.zero().is_linear()
    # plane quartic and (2,2) quadric curve classes
    assert A1.evaluate((16, -12, 9, 3)) == 27
    assert A1.evaluate((8, -8, 8, 4)) == 12
    with pytest.raises(InputError):
        A1.evaluate((1, 2, 3))


def test_polynomial_strings():
    assert A1.to_string() == "3*x + 2*y + t"
    assert ChernPolynomial.zero().to_string() == "0"
    assert ChernPolynomial.constant(Fraction(-1, 2)).to_string() == "-1/2"
    assert (A1 * A1).to_string().startswith("9*x^2")


def test_polynomial_json_round_trip():
    p = A1 * A1 + ChernPolynomial.constant(Fraction(5, 3))
    obj = p.to_json_obj()
    assert ChernPolynomial.from_json_obj(obj) == p
    for bad in ([["not-exponents"]], [[[1, 0, 0, 0], "3"], [[1, 0, 0, 0], "4"]],
                [[[1.5, 0, 0, 0], "3"]], [[[1, 0, 0, 0, 0], "3"]]):
        with pytest.raises(InputError):
            ChernPolynomial.from_json_obj(bad)


def test_aut_count():
    assert aut_count(()) == 1
    assert aut_count(("A1",)) == 1
    assert aut_count(("A1", "A1")) == 2
    assert aut_count(("A1", "A1", "A2")) == 2
    assert aut_count(("A1",) * 4) == 24


def test_series_validation():
    with pytest.raises(InputError):
        TruncatedSeries({"A1": 1}, cap=-1)
    with pytest.raises(InputError):
        TruncatedSeries({"A1": 0})
    with pytest.raises(InputError, match="truncation cap must be a nonnegative integer"):
        TruncatedSeries({"A1": 1}, cap=True)
    with pytest.raises(InputError, match="weight of 'A1' must be a positive integer"):
        TruncatedSeries({"A1": True})
    s = TruncatedSeries({"A1": 1}, cap=3)
    with pytest.raises(InputError):
        s.key_weight(("A9",))
    # a cap above the ceiling is refused before any work: a huge one never ended
    assert TruncatedSeries({"A1": 1}, MAX_CAP).cap == MAX_CAP
    for cap in (MAX_CAP + 1, 10**30):
        with pytest.raises(CeilingError, match=f"truncation cap {cap} exceeds the cap ceiling"):
            assemble_series({("A1",): A1}, {"A1": 1}, cap)


def test_series_keys_are_multisets():
    w = {"A1": 1, "A2": 2}
    s = TruncatedSeries(w, 5, {("A2", "A1"): ChernPolynomial.constant(4)})
    assert s.coefficient(("A1", "A2")) == ChernPolynomial.constant(4)
    assert s.coefficient(("A2", "A1")) == ChernPolynomial.constant(4)


def test_series_drops_terms_beyond_cap():
    w = {"A1": 1}
    s = TruncatedSeries(w, 2, {("A1",) * 3: ChernPolynomial.constant(1)})
    assert s.coefficient(("A1",) * 3).is_zero()
    assert not s.coeffs


def _random_poly(rng, max_degree=2) -> ChernPolynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            key[rng.randrange(4)] += 1
        terms[tuple(key)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ChernPolynomial(terms)


def _random_positive_series(rng, weights, cap) -> TruncatedSeries:
    labels = sorted(weights)
    coeffs = {}
    for _ in range(6):
        key = tuple(sorted(rng.choice(labels) for _ in range(rng.randint(1, 3))))
        coeffs[key] = _random_poly(rng)
    return TruncatedSeries(weights, cap, coeffs)


def test_exp_log_round_trips_to_weight_six():
    rng = random.Random(2024)
    weights = {"A1": 1, "A2": 2, "E6": 3}
    for _ in range(8):
        s = _random_positive_series(rng, weights, 6)
        assert log_series(exp_series(s)) == s
        assert exp_series(log_series(one_plus(s))) == one_plus(s)


def _sparse_series(rng, weights, cap, entries, max_degree) -> TruncatedSeries:
    """A1 and `entries` - 1 more random keys of weight <= cap, if any fit."""
    labels = sorted(weights)
    keys = sorted({
        tuple(sorted(rng.choice(labels) for _ in range(rng.randint(1, 3))))
        for _ in range(50)
    })
    keys = [k for k in keys if sum(weights[label] for label in k) <= cap]
    chosen = [("A1",)] + rng.sample(keys, min(entries - 1, len(keys)))
    return TruncatedSeries(
        weights, cap, {k: _random_poly(rng, max_degree) for k in chosen}
    )


def test_exp_and_log_match_power_sums_at_caps_0_to_10():
    rng = random.Random(7)
    weights = {"A1": 1, "A2": 2, "D4": 4}
    for cap in range(11):
        for _ in range(3):
            s = _sparse_series(rng, weights, cap, 6, 2 if cap <= 7 else 1)
            e = exp_series(s)
            assert e == power_sum_exp(s)
            assert log_series(e) == s
            assert log_series(one_plus(s)) == power_sum_log(one_plus(s))


def test_exp_cancels_to_zero_coefficients():
    # exp(log(1 + t)) = 1 + t: every key outside t, and every monomial that
    # t lacks, has to cancel exactly
    rng = random.Random(11)
    weights = {"A1": 1, "A2": 2, "E6": 3}
    for cap in (4, 7, 10):
        t = one_plus(_sparse_series(rng, weights, cap, 3, 1))
        s = power_sum_log(t)
        assert exp_series(s) == power_sum_exp(s) == t
        assert all(not p.is_zero() for p in exp_series(s).coeffs.values())
        assert log_series(t) == s
    # one monomial cancels inside a surviving coefficient
    x = ChernPolynomial({(1, 0, 0, 0): 1})
    y = ChernPolynomial({(0, 1, 0, 0): 1})
    s = TruncatedSeries({"A1": 1}, 2, {("A1",): x + y, ("A1", "A1"): (x * x).scale(Fraction(-1, 2))})
    assert exp_series(s).coefficient(("A1", "A1")) == x * y + (y * y).scale(Fraction(1, 2))


def test_exp_counters():
    weights = {"A1": 1, "A2": 2}
    s = TruncatedSeries(weights, 3, {("A1",): A1, ("A2",): A1})
    stats = {}
    e = exp_series(s, stats)
    # keys A1, A2, A1A1, A1A2, A1A1A1 and the constant; pairs (S_A, E_B) with
    # w(A) + w(B) <= 3: A1 with E_0, E_A1, E_A1A1, E_A2; A2 with E_0, E_A1
    assert stats == {"entries": 2, "keys": 6, "products": 6}
    assert len(e.coeffs) == 6


def test_log_turns_products_into_sums():
    rng = random.Random(99)
    weights = {"A1": 1, "A2": 2}
    f = one_plus(_random_positive_series(rng, weights, 5))
    g = one_plus(_random_positive_series(rng, weights, 5))
    assert log_series(series_product(f, g)) == series_sum(log_series(f), log_series(g))


def test_exp_log_preconditions():
    weights = {"A1": 1}
    with pytest.raises(InputError):
        exp_series(TruncatedSeries(weights, 4, {(): ONE}))
    with pytest.raises(InputError):
        log_series(TruncatedSeries(weights, 4))


def test_assemble_single_label():
    series = assemble_series({("A1",): A1}, {"A1": 1}, cap=3)
    assert series.constant_coefficient() == ChernPolynomial.constant(1)
    assert series.coefficient(("A1",)) == A1
    # two nodes: a1^2/2, leading x^2 coefficient 9/2
    double = extract_universal(series, ("A1", "A1"))
    assert double == (A1 * A1).scale(Fraction(1, 2))
    assert double.coefficient((2, 0, 0, 0)) == Fraction(9, 2)


def test_assemble_cross_terms():
    a2 = ChernPolynomial.linear(0, 1, 5, -2)
    weights = {"A1": 1, "A2": 2}
    series = assemble_series({("A1",): A1, ("A2",): a2}, weights, cap=3)
    assert series.coefficient(("A1", "A2")) == A1 * a2
    assert series.coefficient(("A1", "A1", "A1")) == (A1 * A1 * A1).scale(
        Fraction(1, 6)
    )


def test_assemble_empty_table_is_one():
    series = assemble_series({}, {"A1": 1}, cap=4)
    assert series == TruncatedSeries({"A1": 1}, 4, {(): ONE})


def test_assemble_rejects_nonlinear_entries():
    with pytest.raises(InputError):
        assemble_series({("A1",): A1 * A1}, {"A1": 1}, cap=3)
    with pytest.raises(InputError):
        assemble_series({("A1",): ChernPolynomial.constant(1)}, {"A1": 1}, cap=3)


def test_assemble_rejects_a_repeated_multiset():
    a2 = ChernPolynomial.linear(0, 1, 5, -2)
    table = {("A1",): A1, ("A2",): a2, ("A1", "A2"): A1, ("A2", "A1"): a2}
    with pytest.raises(InputError) as err:
        assemble_series(table, {"A1": 1, "A2": 2}, cap=3)
    assert "multiset A1,A2 twice" in str(err.value)


def test_assemble_accepts_a_bare_label_key():
    series = assemble_series({"A1": A1}, {"A1": 1}, cap=2)
    assert series == assemble_series({("A1",): A1}, {"A1": 1}, cap=2)
    chern = (16, -12, 9, 3)  # plane quartics: 3(d - 1)^2 one-nodal curves
    assert series.coefficient(("A1",)).evaluate(chern) == 27
    assert assemble_from_table({"A1": A1}, chern, ("A1",)) == 27


def test_extract_universal_respects_cap():
    series = assemble_series({("A1",): A1}, {"A1": 1}, cap=2)
    with pytest.raises(InputError) as err:
        extract_universal(series, ("A1",) * 3)
    assert "truncation cap" in str(err.value)



def test_parts_must_be_a_sequence_of_labels():
    # a bare string used to be split into its characters ("label '1' has no
    # assigned weight", "missing entry 1"), and an int or a list label
    # raised a bare TypeError
    series = assemble_series({("A1",): A1}, {"A1": 1}, cap=2)
    chern = (16, -12, 9, 3)
    for bad in ["A1", "", 5, None, [["A1"]], ("A1", 1)]:
        with pytest.raises(InputError, match="parts must be a sequence of singularity labels"):
            extract_universal(series, bad)
        with pytest.raises(InputError, match="parts must be a sequence of singularity labels"):
            assemble_from_table({("A1",): A1}, chern, bad)
    assert extract_universal(series, ["A1"]) == A1
    assert assemble_from_table({("A1",): A1}, chern, iter(["A1"])) == 27


def test_sub_multisets_come_in_size_then_label_order():
    # the lazy walk lists what listing every pick of each label and
    # sorting by (size, labels) lists, so the first missing entry an eval
    # names is the same
    from itertools import product

    from curvelab.series import _sub_multisets

    def listed(parts):
        labels = sorted(set(parts))
        subs = [tuple(lab for lab, take in zip(labels, picks) for _ in range(take))
                for picks in product(*(range(parts.count(lab) + 1) for lab in labels))]
        return sorted((sub for sub in subs if sub), key=lambda sub: (len(sub), sub))

    rng = random.Random(11)
    labels = ["A1", "A2", "A3", "A10", "D4", "E6"]
    for _ in range(400):
        parts = tuple(sorted(rng.choice(labels) for _ in range(rng.randint(0, 7))))
        assert list(_sub_multisets(parts)) == listed(parts), parts
