"""Crisp/fuzzy relations and the fuzzy equivalence law checks."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzybisim import CrispRelation, FuzzyRelation, relation_laws

from testlib import converse, cut, full_fuzzy_relation

H = Fraction(1, 2)

elements = st.sampled_from(["a", "b", "c", "d"])
small_fuzzy = st.dictionaries(
    st.tuples(elements, elements),
    st.fractions(min_value=0, max_value=1, max_denominator=10),
    max_size=12,
)


def test_crisp_relation_basics():
    r = CrispRelation("ab", "ab", {("a", "b"), ("a", "a")})
    assert ("a", "b") in r and ("b", "a") not in r
    assert r.forward("a") == {"a", "b"}
    assert r.backward("b") == {"a"}
    assert converse(r).pairs == {("b", "a"), ("a", "a")}


def test_crisp_relation_universe_check():
    with pytest.raises(ValueError):
        CrispRelation({"a"}, {"a"}, {("a", "b")})


def test_fuzzy_relation_drops_zeros():
    r = FuzzyRelation("ab", "ab", {("a", "b"): H, ("a", "a"): Fraction(0)})
    assert r("a", "b") == H
    assert ("a", "a") not in r.entries
    assert r("b", "b") == 0


def test_fuzzy_relation_range_check():
    with pytest.raises(ValueError):
        FuzzyRelation("a", "a", {("a", "a"): Fraction(3, 2)})
    with pytest.raises(ValueError, match="outside the universes"):
        FuzzyRelation("a", "a", {("a", "b"): H})


@pytest.mark.parametrize("degree", [Fraction(3, 2), Fraction(-1, 2), 2, 1.5, float("nan")])
def test_degrees_outside_the_unit_interval_are_refused(degree):
    # Fractions are checked by their integers, other numbers by comparison
    with pytest.raises(ValueError, match="outside"):
        FuzzyRelation("a", "a", {("a", "a"): degree})


@pytest.mark.parametrize("degree", [Fraction(0), 0, 0.0])
def test_zero_degrees_of_every_type_are_dropped(degree):
    assert FuzzyRelation("a", "a", {("a", "a"): degree}).entries == {}


@pytest.mark.parametrize("degree", [1, 0.5])
def test_degrees_are_kept_as_given(degree):
    assert FuzzyRelation("a", "a", {("a", "a"): degree}).entries[("a", "a")] is degree


def test_cut_is_antitone_in_threshold():
    r = FuzzyRelation("ab", "ab", {("a", "b"): H, ("a", "a"): Fraction(1)})
    assert cut(r, Fraction(1)).pairs == {("a", "a")}
    assert cut(r, H).pairs == {("a", "a"), ("a", "b")}


@given(small_fuzzy)
def test_converse_is_an_involution(entries):
    universe = {"a", "b", "c", "d"}
    r = FuzzyRelation(universe, universe, entries)
    assert converse(converse(r)) == r


def test_laws_on_identity_and_full():
    universe = {"a", "b"}
    assert relation_laws(full_fuzzy_relation(universe)).is_equivalence
    diag = FuzzyRelation(universe, universe, {(x, x): Fraction(1) for x in universe})
    assert relation_laws(diag).is_equivalence


def test_laws_report_witnesses():
    universe = {"a", "b", "c"}
    not_reflexive = FuzzyRelation(universe, universe, {})
    report = relation_laws(not_reflexive)
    assert not report.reflexive and "reflexive" in report.witnesses

    ones = {(x, x): Fraction(1) for x in universe}
    asymmetric = FuzzyRelation(universe, universe, {**ones, ("a", "b"): H})
    report = relation_laws(asymmetric)
    assert not report.symmetric and report.witnesses["symmetric"] in {("a", "b"), ("b", "a")}

    not_transitive = FuzzyRelation(
        universe,
        universe,
        {**ones, ("a", "b"): H, ("b", "a"): H, ("b", "c"): H, ("c", "b"): H},
    )
    report = relation_laws(not_transitive)
    assert not report.transitive
    assert report.violated() == ["transitive"]


def test_laws_require_single_universe():
    with pytest.raises(ValueError):
        relation_laws(FuzzyRelation({"a"}, {"b"}, {}))
