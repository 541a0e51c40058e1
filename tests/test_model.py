"""Transition systems: construction, interning, sizes and validation."""
from fractions import Fraction

import pytest

from fuzzybisim import FuzzySet, ModelError, Nflts, Nfts

from conftest import make_example

H = Fraction(1, 2)


def test_example_sizes():
    model = make_example()
    assert len(model.states) == 5
    assert len(model.actions) == 2
    assert len(model.transitions) == 6
    assert len(model.distributions) == 3
    # |delta| + summed support sizes of the three distinct distributions.
    assert model.size_of_delta() == 6 + 2 + 2 + 2 == 12


def test_interning_dedups_equal_targets():
    model = Nfts(
        ["s", "t"],
        ["a"],
        [("s", "a", {"t": H}), ("t", "a", {"t": H})],
    )
    assert len(model.distributions) == 1
    (mu,) = model.distributions
    assert mu("t") == H and mu("s") == 0


def test_duplicate_triples_collapse():
    model = Nfts(["s"], ["a"], [("s", "a", {"s": H}), ("s", "a", {"s": H})])
    assert len(model.transitions) == 1


def test_interning_order_follows_input_order():
    model = make_example()
    supports = [sorted(mu.support) for mu in model.distributions]
    assert supports == [["s2", "s3"], ["s3", "s5"], ["s4", "s5"]]


def test_outgoing_filters_by_action():
    model = make_example()
    assert len(list(model.outgoing("s1"))) == 2
    assert len(list(model.outgoing("s1", "a"))) == 2
    assert list(model.outgoing("s1", "b")) == []


@pytest.mark.parametrize(
    "states,actions,transitions",
    [
        ([], ["a"], []),
        (["s"], [], []),
        (["s"], ["a"], [("x", "a", {"s": H})]),
        (["s"], ["a"], [("s", "b", {"s": H})]),
        (["s"], ["a"], [("s", "a", {"x": H})]),
        (["s"], ["a"], [("s", "a", {"s": Fraction(3, 2)})]),
    ],
)
def test_invalid_models(states, actions, transitions):
    with pytest.raises(ModelError):
        Nfts(states, actions, transitions)


def test_fuzzy_set_basics():
    f = FuzzySet({"x": H, "y": Fraction(0)})
    assert f("x") == H and f("y") == 0
    assert f.support == {"x"}
    assert f.value_of({"x", "y"}) == H
    assert f.value_of(set()) == 0
    assert f <= FuzzySet({"x": Fraction(1)})
    assert not FuzzySet({"x": Fraction(1)}) <= f
    assert f == FuzzySet({"x": H})
    assert hash(f) == hash(FuzzySet({"x": H}))


def test_labels_default_empty():
    model = make_example()
    assert not model.label_of("s1")
    assert model.label_alphabet == frozenset()


def test_nflts_labels():
    model = Nflts(
        ["s", "t"], ["a"], [],
        label_alphabet=["p"],
        state_labels={"s": {"p": H}},
    )
    assert model.label_of("s")("p") == H
    assert not model.label_of("t")
    assert model.label_alphabet == {"p"}


def test_nflts_label_validation():
    with pytest.raises(ModelError):
        Nflts(["s"], ["a"], [], ["p"], {"x": {"p": H}})
    with pytest.raises(ModelError):
        Nflts(["s"], ["a"], [], ["p"], {"s": {"q": H}})


def test_degree_range_checks(monkeypatch):
    for bad in (Fraction(3, 2), Fraction(-1, 4), 2, -1, 1.5, -0.25, float("nan")):
        with pytest.raises(ModelError, match="outside"):
            FuzzySet({"x": bad})
    f = FuzzySet({"x": Fraction(0), "y": 0, "z": 0.0, "w": H, "v": 1, "u": 0.25})
    assert f.support == {"w", "v", "u"}
    assert f == FuzzySet({"w": Fraction(1, 2), "v": Fraction(1), "u": Fraction(1, 4)})
    # Fraction degrees are checked on their integers, without a Fraction
    # comparison (which goes through the numbers.Rational ABC).
    compared = []
    real = Fraction._richcmp
    monkeypatch.setattr(Fraction, "_richcmp", lambda a, b, op: compared.append(a) or real(a, b, op))
    FuzzySet({f"x{i}": Fraction(i, 10) for i in range(11)})
    assert compared == []
    FuzzySet({"x": 0.5})
    assert compared
