"""Nondeterministic fuzzy (labeled) transition systems.

A transition system carries a finite set of states, a finite set of actions
and a transition relation whose targets are fuzzy sets over states.  Fuzzy
sets are stored support-only (positive degrees), and the distinct target
distributions of a system are interned so that structurally equal ones share
one canonical id.  All types are immutable after construction.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .degrees import Degree, ZERO, ONE, sup


class ModelError(ValueError):
    """Raised for ill-formed systems (bad references, bad degrees)."""


class FuzzySet:
    """A finite fuzzy set stored by its support (positive degrees only)."""

    __slots__ = ("_entries", "_key")

    def __init__(self, entries: Mapping[object, Degree] | Iterable[Tuple[object, Degree]] = ()):
        if isinstance(entries, Mapping):
            entries = entries.items()
        data, key = {}, {}
        for element, degree in entries:
            # A Fraction is range-checked and keyed by its integers: comparing
            # one goes through the numbers.Rational ABC, and hashing one takes
            # a modular inverse.  Other numbers are compared as they are.
            if type(degree) is Fraction:
                exact = degree
            elif ZERO <= degree <= ONE:
                exact = Fraction(degree)
            else:
                raise ModelError(f"degree {degree} of {element!r} outside [0, 1]")
            n, q = exact.numerator, exact.denominator
            if not 0 <= n <= q:
                raise ModelError(f"degree {degree} of {element!r} outside [0, 1]")
            if n:
                data[element] = degree
                key[element] = n, q
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


class Distribution:
    """An interned transition target: a fuzzy set over states plus its canonical id."""

    __slots__ = ("index", "fuzzy")

    def __init__(self, index: int, fuzzy: FuzzySet):
        self.index = index
        self.fuzzy = fuzzy

    def __call__(self, state) -> Degree:
        return self.fuzzy(state)

    @property
    def support(self) -> frozenset:
        return self.fuzzy.support

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.index == other.index

    def __hash__(self) -> int:
        return hash(self.index)

    def __repr__(self) -> str:
        return f"mu{self.index + 1}"


class Nfts:
    """A nondeterministic fuzzy transition system <S, A, delta>.

    ``transitions`` entries are (state, action, target) where the target is a
    FuzzySet or a plain mapping state -> degree.  Duplicate triples collapse
    (delta is a set) and equal target maps are interned into one distribution.
    """

    def __init__(self, states: Iterable, actions: Iterable, transitions: Iterable[tuple]):
        self.states = frozenset(states)
        self.actions = frozenset(actions)
        if not self.states:
            raise ModelError("state set must be non-empty")
        if not self.actions:
            raise ModelError("action set must be non-empty")
        interned: Dict[FuzzySet, Distribution] = {}
        delta = set()
        for source, action, target in transitions:
            if source not in self.states:
                raise ModelError(f"transition from unknown state {source!r}")
            if action not in self.actions:
                raise ModelError(f"transition with unknown action {action!r}")
            if not isinstance(target, FuzzySet):
                target = FuzzySet(target)
            mu = interned.get(target)
            if mu is None:
                unknown = target.support - self.states
                if unknown:
                    raise ModelError(f"distribution refers to unknown states {sorted(map(str, unknown))}")
                mu = interned[target] = Distribution(len(interned), target)
            delta.add((source, action, mu))
        self.transitions = frozenset(delta)
        #: delta_o: the distinct distributions, in interning order.
        self.distributions = tuple(interned.values())

    def size_of_delta(self) -> int:
        """|delta| plus the summed support sizes over distinct distributions."""
        return len(self.transitions) + sum(len(mu.support) for mu in self.distributions)

    def outgoing(self, state, action=None):
        """Transitions leaving `state` (optionally restricted to one action)."""
        for source, act, mu in self.transitions:
            if source == state and (action is None or act == action):
                yield act, mu

    def label_of(self, state) -> FuzzySet:
        return _EMPTY_LABEL

    @property
    def label_alphabet(self) -> frozenset:
        return frozenset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self.states)} states, {len(self.transitions)} transitions>"


_EMPTY_LABEL = FuzzySet()


class Nflts(Nfts):
    """An NFTS extended with fuzzy state labels over an alphabet sigma."""

    def __init__(self, states, actions, transitions, label_alphabet=(), state_labels: Mapping = ()):
        super().__init__(states, actions, transitions)
        self._sigma = frozenset(label_alphabet)
        labels: Dict[object, FuzzySet] = {}
        if isinstance(state_labels, Mapping):
            state_labels = state_labels.items()
        for state, label in state_labels:
            if state not in self.states:
                raise ModelError(f"label on unknown state {state!r}")
            if not isinstance(label, FuzzySet):
                label = FuzzySet(label)
            if not label.support <= self._sigma:
                raise ModelError(f"label of {state!r} uses symbols outside the alphabet")
            if label:
                labels[state] = label
        self._labels = labels

    @property
    def label_alphabet(self) -> frozenset:
        return self._sigma

    def label_of(self, state) -> FuzzySet:
        return self._labels.get(state, _EMPTY_LABEL)
