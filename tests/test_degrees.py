"""Exact degree arithmetic: parsing, rendering and the Goedel operators."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzybisim.degrees import (
    ZERO,
    ONE,
    DegreeError,
    biresiduum,
    format_degree,
    inf,
    parse_degree,
    residuum,
    sup,
)

degrees = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_parse_decimal():
    assert parse_degree("0.5") == Fraction(1, 2)
    assert parse_degree("1") == ONE
    assert parse_degree("0") == ZERO
    assert parse_degree(" 0.125 ") == Fraction(1, 8)
    assert parse_degree("2/5") == Fraction(2, 5)


@pytest.mark.parametrize("bad", ["1.2", "-0.1", "abc", "", "1/0", "3/2"])
def test_parse_rejects(bad):
    with pytest.raises(DegreeError):
        parse_degree(bad)


def test_format_shortest_decimal():
    assert format_degree(Fraction(1, 2)) == "0.5"
    assert format_degree(Fraction(4, 10)) == "0.4"
    assert format_degree(ONE) == "1"
    assert format_degree(ZERO) == "0"
    assert format_degree(Fraction(123, 1000)) == "0.123"


def test_format_fallback_for_non_decimal_denominators():
    assert format_degree(Fraction(1, 3)) == "1/3"


def reference_format(d: Fraction) -> str:
    """format_degree by dividing out one factor 2 or 5 at a time."""
    num, den = d.numerator, d.denominator
    if den == 1:
        return str(num)
    shift, scaled = 0, den
    while scaled % 2 == 0:
        scaled //= 2
        shift += 1
    fives = 0
    while scaled % 5 == 0:
        scaled //= 5
        fives += 1
    if scaled != 1:
        return f"{num}/{den}"
    digits = max(shift, fives)
    text = str(num * 10**digits // den).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def test_format_matches_the_reference_on_long_and_mixed_denominators():
    exponents = [*range(1, 60), *range(60, 4300, 331), 4299, 4300]
    for e in exponents:
        for text in (f"1e-{e}", f"7{'0' * (e % 5)}3e-{min(e + 4, 4300)}", f"0.{'9' * min(e, 4290)}"):
            value = parse_degree(text)
            assert format_degree(value) == reference_format(value), text
    for twos in (0, 1, 2, 7, 61, 1000):
        for fives in (*range(0, 300, 1 if twos == 0 else 13), 431, 2999):
            for rest in (1, 3, 2**64 + 1):
                den = 2**twos * 5**fives * rest
                for num in (1, den - 1):
                    value = Fraction(num, max(den, 2))
                    assert format_degree(value) == reference_format(value), (twos, fives, rest, num)


@given(st.integers(min_value=0, max_value=10**6))
def test_parse_format_round_trip(thousandths):
    value = Fraction(thousandths, 10**6)
    assert parse_degree(format_degree(value)) == value


@given(degrees, degrees)
def test_residuum_definition(x, y):
    assert residuum(x, y) == (ONE if x <= y else y)


@given(degrees, degrees, degrees)
def test_residuum_adjunction(x, y, z):
    # min is the Goedel t-norm: min(x, z) <= y iff z <= residuum(x, y).
    assert (min(x, z) <= y) == (z <= residuum(x, y))


@given(degrees, degrees)
def test_biresiduum_symmetry_and_top(x, y):
    assert biresiduum(x, y) == biresiduum(y, x)
    assert (biresiduum(x, y) == ONE) == (x == y)


@given(st.lists(degrees, min_size=1))
def test_pool_closure(pool):
    # The operators never create degrees outside the pool plus {0, 1}.
    closed = set(pool) | {ZERO, ONE}
    for x in pool:
        for y in pool:
            assert residuum(x, y) in closed
            assert biresiduum(x, y) in closed


def test_inf_sup_defaults():
    assert inf([]) == ONE
    assert sup([]) == ZERO
    assert inf([Fraction(1, 2), Fraction(1, 4)]) == Fraction(1, 4)
    assert sup([Fraction(1, 2), Fraction(1, 4)]) == Fraction(1, 2)


def test_huge_exponents_are_rejected_before_they_are_expanded():
    for text in ("1e-99999999", "1E+99999999", "0.5e-4301"):
        with pytest.raises(DegreeError, match="exponent"):
            parse_degree(text)
    assert parse_degree("5e-1") == Fraction(1, 2)
    assert parse_degree("1e-4300") == Fraction(1, 10**4300)
