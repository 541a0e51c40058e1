"""Transition systems: construction, interning, sizes and validation."""
import hashlib
import random
from fractions import Fraction

import pytest

from fuzzybisim import ONE, FuzzySet, ModelError, Nflts, Nfts, oracle, parse_model, to_flg
from fuzzybisim.generate import draw, generate, random_spec
from fuzzybisim.model import STATE_MARK

from conftest import REPO_ROOT, example_arguments, labels_of, make_example

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
    # on the system as given, which the oracles read; the layout keeps the triples in ``delta``
    model, given = make_example(), oracle.System(*example_arguments())
    assert len(given.outgoing("s1")) == 2
    assert len(given.outgoing("s1", "a")) == 2
    assert given.outgoing("s1", "b") == []
    assert [(a, mu.index) for a, mu in given.outgoing("s1")] == [
        (a, k) for i, a, k in model.delta if model.names[i] == "s1"]


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
    assert model.labels == {}
    assert model.label_alphabet == frozenset()


def test_nflts_labels():
    model = Nflts(
        ["s", "t"], ["a"], [],
        label_alphabet=["p"],
        state_labels={"s": {"p": H}},
    )
    assert labels_of(model) == {"s": FuzzySet({"p": H})}
    assert model.label_alphabet == {"p"}


def test_a_state_labelled_twice_keeps_its_last_label():
    # as a mapping of the same pairs would, and as the oracles' System reads it
    for last, ids in (({}, [0, 0]), ({"p": 1}, [0, 1])):
        arguments = ["s", "t"], ["a"], [], ["p"], [("s", {"p": H}), ("s", last)]
        model = Nflts(*arguments)
        assert to_flg(model).label_ids == ids and labels_of(model).get("s", FuzzySet()) == FuzzySet(last)
        assert oracle.System(*arguments).label_of("s") == FuzzySet(last)


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


# Inputs with two faults each, and the one error raised: transitions are
# checked in input order (source, action, degrees in entry order, then the
# unknown targets of a new distribution), labels after every transition, and
# the reserved symbols only when the graph is built.
@pytest.mark.parametrize("build,message", [
    (lambda: Nfts(["s"], ["a"], [("x", "a", {"s": Fraction(3, 2)})]), "transition from unknown state 'x'"),
    (lambda: Nfts(["s"], ["a"], [("s", "b", {"s": Fraction(3, 2)})]), "transition with unknown action 'b'"),
    (lambda: Nfts(["s"], ["a"], [("s", "a", {"x": H, "s": 2})]), "degree 2 of 's' outside [0, 1]"),
    (lambda: Nfts(["s", "t"], ["a"], [("s", "a", {"t": 1.5, "s": -1})]), "degree 1.5 of 't' outside [0, 1]"),
    (lambda: Nfts(["s"], ["a"], [("s", "a", {"z": H, "x": H, "y": 0})]),
     "distribution refers to unknown states ['x', 'z']"),
    (lambda: Nfts(["s", "t"], ["a"], [("s", "a", {"t": H}), ("t", "a", {"t": H, "u": 0}), ("t", "a", {"q": H})]),
     "distribution refers to unknown states ['q']"),
    (lambda: Nflts(["s"], ["a"], [("s", "b", {"s": H})], ["p"], {"x": {"p": H}}), "transition with unknown action 'b'"),
    (lambda: Nflts(["s"], ["a"], [], ["p"], {"x": {"p": 2}}), "label on unknown state 'x'"),
    (lambda: Nflts(["s"], ["a"], [], ["p"], {"s": {"q": H, "p": 2}}), "degree 2 of 'p' outside [0, 1]"),
    (lambda: Nflts(["s"], ["a"], [], ["p"], [("s", {"q": H}), ("x", {"p": H})]),
     "label of 's' uses symbols outside the alphabet"),
    (lambda: to_flg(Nflts(["s"], ["eps*"], [], ["state*"], {})),
     "label alphabet uses the reserved vertex symbol 'state*'"),
    (lambda: to_flg(Nfts(["s"], ["eps*"], [("s", "eps*", {"s": H})])),
     "action alphabet uses the reserved edge symbol 'eps*'"),
])
def test_the_first_of_two_faults_is_reported(build, message):
    with pytest.raises(ModelError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("system", [Nfts, lambda *args: Nflts(*args, ["p"], {})])
def test_state_names_that_cannot_be_ordered_are_a_model_error(system):
    with pytest.raises(ModelError, match="state names cannot be ordered"):
        system([1, "s"], ["a"], [])


def test_a_zero_degree_to_an_unknown_state_is_accepted():
    model = Nfts(["s"], ["a"], [("s", "a", {"s": H, "x": 0}), ("s", "a", {"s": H, "y": Fraction(0)})])
    (mu,) = model.distributions
    assert dict(mu.items()) == {"s": H} and model.delta == ((0, "a", 0),)  # state id 0 is "s"
    labels = labels_of(Nflts(["s"], ["a"], [], ["p"], {"s": {"p": H, "q": 0}}))
    assert {s: dict(label.items()) for s, label in labels.items()} == {"s": {"p": H}}


def _views(model) -> str:
    """The object views of a model as text: each degree with its type, and
    the entries of each fuzzy set in their order."""
    def fuzzy(f):
        return [(repr(x), type(d).__name__, str(d)) for x, d in f.items()]
    labels, delta = labels_of(model), tuple((model.names[i], a, k) for i, a, k in model.delta)  # ids back to names
    return repr((
        [(mu.index, repr(mu), fuzzy(mu), mu.fuzzy is mu, mu == FuzzySet(dict(mu.items())))
         for mu in model.distributions],
        sorted((s, a, mu.index) for s, a, mu in model.transitions),
        [(s, fuzzy(labels.get(s, FuzzySet()))) for s in sorted(model.states)],
        [(s, [(a, k) for source, a, k in delta if source == s]) for s in sorted(model.states)],
        model.size_of_delta(), delta, sorted(model.label_alphabet), type(model).__name__,
    ))


def test_object_views_are_what_the_object_constructor_gave():
    # Digest of the views of the example and 60 generated models, plain and
    # labeled, as the constructor gave them when it built the objects eagerly;
    # re-recorded when Nflts became another name for Nfts, the class name being
    # the only part that moved.
    rng = random.Random(47)
    models = [make_example(), parse_model(REPO_ROOT / "models" / "example.json")]
    models += [generate(random_spec(rng, 6, labeled=i % 2 == 1)) for i in range(60)]
    text = "\n".join(map(_views, models))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == VIEWS_DIGEST


VIEWS_DIGEST = "2147a3f4f22f539d"


def _same_arrays(a, b):
    g, h = to_flg(a), to_flg(b)
    assert a.delta == b.delta and [dict(mu.items()) for mu in a.distributions] == [
        dict(mu.items()) for mu in b.distributions]
    assert (g.by_id, g.out, g.preds, g.label_ids, g.label_maps, g.pool) == (
        h.by_id, h.out, h.preds, h.label_ids, h.label_maps, h.pool)


def test_degree_identity_does_not_leak_into_interning():
    states = [f"s{i}" for i in range(10)]
    shared = [Fraction(k, 4) for k in range(5)]

    def items(degree):
        for i in range(200):
            yield states[i % 10], "a", {states[(i + 1) % 10]: degree(i // 10 % 5), states[(i + 3) % 10]: degree(2)}

    reference = Nfts(states, ["a"], list(items(shared.__getitem__)))
    assert len(reference.distributions) == 50 and len(reference.delta) == 50
    # Equal degrees as distinct Fraction objects, each freed once its item is
    # interned, so the next items' Fractions can reuse their addresses.
    _same_arrays(Nfts(states, ["a"], items(lambda k: Fraction(k, 4))), reference)
    # The same values as int, float and Fraction.
    mixed = {0: 0, 1: 0.25, 2: Fraction(2, 4), 3: 0.75, 4: 1}
    model = Nfts(states, ["a"], items(mixed.__getitem__))
    _same_arrays(model, reference)
    # The views hold the pool's Fractions, not the int, float or Fraction given.
    assert {type(d) for d in model.pool} == {Fraction}
    assert {id(d) for mu in model.distributions for d in mu.degrees()} <= {id(d) for d in model.pool}
    labeled = [Nflts(states, ["a"], items(degree), ["p", "q"], {s: {"p": degree(i % 5), "q": degree(1)}
                                                              for i, s in enumerate(states)})
               for degree in (shared.__getitem__, lambda k: Fraction(k, 4), mixed.__getitem__)]
    for model in labeled[1:]:
        _same_arrays(model, labeled[0])
        assert labels_of(model) == labels_of(labeled[0])


def test_label_ids_are_equal_iff_the_labels_are():
    # the graph layout interns each vertex's label: the mark on each state, its fuzzy
    # label, nothing on a distribution (the expected labels are the ones given to the
    # constructor)
    rng = random.Random(61)
    given = [draw(random_spec(rng, 6, labeled=i % 4 != 0)) for i in range(80)]
    given.append((["s", "t", "u", "v"], ["a"], [("s", "a", {"t": H}), ("u", "a", {"s": 1})], ["q", "p"],
                  {"t": {"p": H}, "u": {"q": 1}, "v": {"p": Fraction(2, 4)}}))
    graphs = [to_flg(Nfts(*arguments)) for arguments in given]
    for g, arguments in zip(graphs, given):
        label_of = arguments[4] if len(arguments) > 3 else {}
        labels = [label_of.get(s, {}) | {STATE_MARK: ONE} for s in g.names]
        labels += [{}] * (len(g.out) - len(g.names))
        ids, maps, pool = g.label_ids, g.label_maps, g.pool
        assert [{p: pool[r] for p, r in maps[k].items()} for k in ids] == labels
        assert all((ids[i] == ids[j]) == (labels[i] == labels[j]) for i in range(len(ids)) for j in range(i))
        assert len({frozenset(label.items()) for label in maps}) == len(maps)
        assert list(dict.fromkeys(ids)) == list(range(len(maps)))  # numbered in first-use order
    assert graphs[-1].label_ids == [0, 1, 2, 1, 3, 3]  # s, t, u, v (as t), then the distributions
