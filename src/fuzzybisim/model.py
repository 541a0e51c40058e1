"""Nondeterministic fuzzy (labeled) transition systems.

The constructor interns a system into arrays, which the graph, the document
writer and the disjoint union read: ``names``, the states sorted (state id i
is ``names[i]``); ``delta``, the distinct (state, action, k) triples in input
order; ``targets[k]``, distribution k as a state id -> degree id map of its
positive degrees, in the order first given (equal targets are one
distribution, numbered in first-use order); ``labels``, state id -> its
non-empty label as a symbol -> degree id map; ``pool``, the sorted distinct
positive degrees; and ``ranks[d]``, the index of degree id d in the pool.
Each degree object is range-checked once, and degrees are compared by value.
The object views ``distributions``, ``transitions`` and ``label_of`` are
built on first access, from the degree objects first given for each value.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Tuple

from .degrees import Degree, ZERO, ONE, sup


class ModelError(ValueError):
    """Raised for ill-formed systems (bad references, bad degrees)."""


def _exact(degree, element) -> Tuple[int, int]:
    """(numerator, denominator) of a degree in [0, 1].  A Fraction is checked
    by its integers: comparing one goes through the numbers.Rational ABC."""
    exact = degree if type(degree) is Fraction else Fraction(degree) if ZERO <= degree <= ONE else None
    if exact is None or not 0 <= exact.numerator <= exact.denominator:
        raise ModelError(f"degree {degree} of {element!r} outside [0, 1]")
    return exact.numerator, exact.denominator


def _items(entries):
    """The (element, degree) pairs of a mapping, a fuzzy set or a pair iterable."""
    return entries.items() if isinstance(entries, (dict, FuzzySet, Mapping)) else entries


class FuzzySet:
    """A finite fuzzy set stored by its support (positive degrees only)."""

    __slots__ = ("_entries", "_key")

    def __init__(self, entries: Mapping[object, Degree] | Iterable[Tuple[object, Degree]] = ()):
        data, key = {}, {}
        for element, degree in _items(entries):
            exact = _exact(degree, element)  # hashing a Fraction takes a modular inverse
            if exact[0]:
                data[element] = degree
                key[element] = exact
        self._entries = data
        self._key = frozenset(key.items())

    def __call__(self, element) -> Degree:
        return self._entries.get(element, ZERO)

    def value_of(self, elements: Iterable) -> Degree:
        """mu(U): the supremum of the degrees over a crisp set of elements."""
        return sup(self._entries.get(x, ZERO) for x in elements)

    @property
    def support(self) -> frozenset:
        return frozenset(self._entries)

    def items(self):
        return self._entries.items()

    def degrees(self):
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __le__(self, other: "FuzzySet") -> bool:
        return all(d <= other(x) for x, d in self._entries.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, FuzzySet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inside = ", ".join(f"{x!r}: {d}" for x, d in sorted(self._entries.items(), key=lambda kv: str(kv[0])))
        return "FuzzySet({%s})" % inside


class Distribution(FuzzySet):
    """An interned transition target: the fuzzy set over states itself, plus
    its canonical id.  Inside one system, equal sets are one distribution."""

    __slots__ = ("index",)

    def __init__(self, index: int, fuzzy: FuzzySet):
        self.index = index
        self._entries, self._key = fuzzy._entries, fuzzy._key

    @property
    def fuzzy(self) -> FuzzySet:
        return self

    def __repr__(self) -> str:
        return f"mu{self.index + 1}"


def _intern(states, actions, transitions, label_alphabet=(), state_labels=()) -> dict:
    """The arrays of a system, in the order of the checks: states and actions,
    each transition (source, action, degrees, unknown targets), then labels."""
    states, actions = frozenset(states), frozenset(actions)
    if not states:
        raise ModelError("state set must be non-empty")
    if not actions:
        raise ModelError("action set must be non-empty")
    try:
        names = tuple(sorted(states))
    except TypeError as exc:  # the ids number the states in sorted order
        raise ModelError(f"state names cannot be ordered: {exc}") from None
    index = {s: i for i, s in enumerate(names)}
    # ``values`` maps each distinct (numerator, denominator) to its degree id, in
    # first-use order, and ``given`` holds the first object given for it.  ``seen``
    # maps each degree object's id() to its degree id, -1 for zero, and ``alive``
    # holds the objects, so no id() is reused meanwhile.
    values, given, seen, alive = {}, [], {}, []

    def degree_id(degree, element) -> int:
        d = seen.get(id(degree))
        if d is None:
            exact = _exact(degree, element)
            d = seen[id(degree)] = values.setdefault(exact, len(values)) if exact[0] else -1
            alive.append(degree)
            if d == len(given):
                given.append(degree)
        return d

    interned, targets, delta = {}, [], {}  # delta: an ordered set
    for source, action, target in transitions:
        if source not in states:
            raise ModelError(f"transition from unknown state {source!r}")
        if action not in actions:
            raise ModelError(f"transition with unknown action {action!r}")
        pairs, unknown = {}, []
        for element, degree in target.items() if type(target) is dict else _items(target):
            d = seen.get(id(degree))  # degree_id's lookup, inlined on this hot path
            if d is None:
                d = degree_id(degree, element)
            if d >= 0:
                i = index.get(element)
                if i is None:
                    unknown.append(element)
                else:
                    pairs[i] = d
        if unknown:  # checked before interning: no interned distribution has an unknown state
            raise ModelError(f"distribution refers to unknown states {sorted(map(str, set(unknown)))}")
        k = interned.setdefault(frozenset(pairs.items()), len(targets))
        if k == len(targets):
            targets.append(pairs)
        delta[source, action, k] = None
    label_alphabet, labels = frozenset(label_alphabet), {}
    for state, label in _items(state_labels):
        if state not in states:
            raise ModelError(f"label on unknown state {state!r}")
        ids = {p: d for p, degree in _items(label) if (d := degree_id(degree, p)) >= 0}
        if not ids.keys() <= label_alphabet:
            raise ModelError(f"label of {state!r} uses symbols outside the alphabet")
        if ids:
            labels[index[state]] = ids
    exact = [degree if type(degree) is Fraction else Fraction(*key) for degree, key in zip(given, values)]
    # The degree ids by value: floats order them, and Fractions, whose comparison goes
    # through the numbers.Rational ABC, only break float ties.
    order = sorted(range(len(exact)), key=lambda d: (float(exact[d]), exact[d]))
    ranks = sorted(range(len(order)), key=order.__getitem__)  # order inverted: degree id -> rank
    return dict(states=states, actions=actions, names=names, delta=tuple(delta), targets=tuple(targets),
                labels=labels, label_alphabet=label_alphabet, pool=[exact[d] for d in order], ranks=ranks,
                _given=given)


class Nfts:
    """A nondeterministic fuzzy transition system <S, A, delta>.

    ``transitions`` entries are (state, action, target) where the target is a
    FuzzySet or a plain mapping state -> degree.  Duplicate triples collapse.
    """

    def __init__(self, states: Iterable, actions: Iterable, transitions: Iterable[tuple]):
        self.__dict__.update(_intern(states, actions, transitions))

    @cached_property
    def distributions(self) -> tuple:
        """delta_o: the distinct distributions, in interning order."""
        names, given = self.names, self._given
        return tuple(Distribution(k, FuzzySet({names[i]: given[d] for i, d in entries.items()}))
                     for k, entries in enumerate(self.targets))

    @cached_property
    def transitions(self) -> frozenset:
        """delta as a set of (state, action, distribution)."""
        return frozenset((s, a, self.distributions[k]) for s, a, k in self.delta)

    @cached_property
    def _label_sets(self) -> dict:
        names, given = self.names, self._given
        return {names[i]: FuzzySet({p: given[d] for p, d in ids.items()}) for i, ids in self.labels.items()}

    def size_of_delta(self) -> int:
        """|delta| plus the summed support sizes over distinct distributions."""
        return len(self.delta) + sum(map(len, self.targets))

    def outgoing(self, state, action=None):
        """Transitions leaving `state` (optionally restricted to one action)."""
        for source, act, k in self.delta:
            if source == state and (action is None or act == action):
                yield act, self.distributions[k]

    def label_of(self, state) -> FuzzySet:
        return self._label_sets.get(state, _EMPTY_LABEL)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self.states)} states, {len(self.delta)} transitions>"


_EMPTY_LABEL = FuzzySet()


class Nflts(Nfts):
    """An NFTS extended with fuzzy state labels over an alphabet sigma."""

    def __init__(self, states, actions, transitions, label_alphabet=(), state_labels: Mapping = ()):
        self.__dict__.update(_intern(states, actions, transitions, label_alphabet, state_labels))
