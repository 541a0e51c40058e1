"""Nondeterministic fuzzy (labeled) transition systems.

One class, ``Nfts`` (also named ``Nflts``: an NFTS is the NFLTS over the empty
label alphabet), holds a system <S, A, delta> on dense ids and degree ranks:
``names``, the states sorted (state id i is ``names[i]``); ``delta``, the
distinct (state id, action, k) triples in input order; ``pool``, the sorted
distinct positive degrees, each degree its rank there; ``dists[k]``,
distribution k as its epsilon-edges (EPSILON, j, rank) per state id j, equal
targets being one distribution, in first-use order; and ``labels``, each
labeled state's id -> its label as a symbol -> rank map, in id order.  Each
degree object is range-checked once and compared by value.  The interner also
walks two parts (``modelio.parse_union``) into one disjoint union, with one
degree table, one distribution interning and one pool.  ``graph.to_flg``
lays the system's graph out from these fields.  The views ``distributions``
and ``transitions``, built on first access from the pool's exact
``Fraction``s, serve ``perfbench/`` until the benchmark reads the fields; the
oracles read ``oracle.System``.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Tuple

from .degrees import Degree, ZERO, ONE, sup


#: Reserved edge symbol for distribution -> state edges; must not be an action.
EPSILON = "eps*"
#: Reserved vertex-label symbol marking state vertices; must not be in sigma.
STATE_MARK = "state*"


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


def _intern(parts) -> tuple:
    """``_system``'s arguments for one part's system, or the union of parts, their states (tag, name) in
    turn.  A part, the constructor's arguments and ``read``, is taken once the one before is walked, and
    checked: states and actions, each transition (source, action, degrees, unknown targets), labels, then
    alphabets against the first part's.  ``read(text, element)`` values a document's degree strings."""
    # ``values`` maps each distinct (numerator, denominator) to its degree id, in
    # first-use order, and ``exact`` holds its value as a Fraction.  ``seen`` maps
    # each degree string, and each other degree object's id(), to its degree id, -1
    # for zero, and ``alive`` holds the objects, so no id() is reused meanwhile.
    values, exact, seen, alive = {}, [], {}, []

    def degree_id(degree, element) -> int:  # with the ``read`` of the part being walked
        key = degree if type(degree) is str else id(degree)
        d = seen.get(key)
        if d is None:
            value = degree if read is None else read(degree, element)
            pair = _exact(value, element)
            d = seen[key] = values.setdefault(pair, len(values)) if pair[0] else -1
            alive.append(degree)
            if d == len(exact):
                exact.append(value if type(value) is Fraction else Fraction(*pair))
        return d

    names, interned, targets, delta, labels = [], {}, [], {}, {}  # delta: an ordered set
    for states, actions, transitions, label_alphabet, state_labels, read in parts:
        states, actions = frozenset(states), frozenset(actions)
        if not states:
            raise ModelError("state set must be non-empty")
        if not actions:
            raise ModelError("action set must be non-empty")
        try:
            part = tuple(sorted(states))
        except TypeError as exc:  # the ids number the states in sorted order
            raise ModelError(f"state names cannot be ordered: {exc}") from None
        index = {s: i for i, s in enumerate(part, sum(map(len, names)))}
        for source, action, target in transitions:
            s = index.get(source)
            if s is None:
                raise ModelError(f"transition from unknown state {source!r}")
            if action not in actions:
                raise ModelError(f"transition with unknown action {action!r}")
            pairs, unknown = {}, []
            for element, degree in target.items() if type(target) is dict else _items(target):
                d = seen.get(degree if type(degree) is str else id(degree))  # degree_id's lookup, inlined: the hot path
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
                targets.append(pairs.items())
            delta[s, action, k] = None
        label_alphabet = frozenset(label_alphabet)
        for state, label in _items(state_labels):
            if state not in states:
                raise ModelError(f"label on unknown state {state!r}")
            ids = {p: d for p, degree in _items(label) if (d := degree_id(degree, p)) >= 0}
            if not ids.keys() <= label_alphabet:
                raise ModelError(f"label of {state!r} uses symbols outside the alphabet")
            labels[index[state]] = ids  # a state given twice keeps its last label, an empty one too
        if names and (actions, label_alphabet) != shared:  # graph.require_shared_alphabets' rule and messages
            raise ModelError(f"systems must share the {'action' if actions != shared[0] else 'label'} alphabet")
        names.append(part)
        shared = actions, label_alphabet
    # The degree ids by value: floats order them, and Fractions, whose comparison goes
    # through the numbers.Rational ABC, only break float ties.
    order = sorted(range(len(exact)), key=lambda d: (float(exact[d]), exact[d]))
    rank = sorted(range(len(order)), key=order.__getitem__)  # order inverted: degree id -> rank
    # Turned into the system's fields by the caller, once the tables above are freed.
    names = names[0] if len(names) == 1 else tuple((tag, s) for tag, part in enumerate(names) for s in part)
    return names, actions, tuple(delta), targets, labels, label_alphabet, [exact[d] for d in order], rank


def _system(names, actions, delta, targets, labels, label_alphabet, pool, rank) -> tuple:
    """``_nfts``'s fields from the state names by id, distribution k as (state id,
    degree id) pairs ``targets[k]``, the labels as state id -> symbol -> degree id
    maps, and ``rank[d]``, the rank of degree id d in ``pool``."""
    dists = [[(EPSILON, j, rank[d]) for j, d in entries] for entries in targets]
    labels = {i: {p: rank[d] for p, d in labels[i].items()} for i in sorted(labels) if labels[i]}
    return names, actions, delta, label_alphabet, pool, dists, labels


def _nfts(names, actions, delta, label_alphabet, pool, dists, labels, model=None) -> "Nfts":
    """A system holding these fields, its states the names': ``model`` itself when
    ``Nfts.__init__`` passes it, else one made without the constructor, from fields
    that its caller has checked."""
    model = object.__new__(Nfts) if model is None else model
    model.__dict__.update(states=frozenset(names), names=names, actions=actions, delta=delta,
                          label_alphabet=label_alphabet, pool=pool, dists=dists, labels=labels)
    return model


class Nfts:
    """A nondeterministic fuzzy transition system <S, A, delta>, with fuzzy
    state labels over an alphabet sigma (none by default).

    ``transitions`` entries are (state, action, target) where the target is a
    FuzzySet or a plain mapping state -> degree.  Duplicate triples collapse.
    """

    def __init__(self, states: Iterable, actions: Iterable, transitions: Iterable[tuple], label_alphabet: Iterable = (),
                 state_labels: Mapping = ()):
        _nfts(*_system(*_intern([(states, actions, transitions, label_alphabet, state_labels, None)])), self)

    @cached_property
    def distributions(self) -> tuple:
        """delta_o: the distinct distributions, in interning order."""
        names, pool = self.names, self.pool
        return tuple(Distribution(k, FuzzySet({names[j]: pool[r] for _, j, r in edges}))
                     for k, edges in enumerate(self.dists))

    @cached_property
    def transitions(self) -> frozenset:
        """delta as a set of (state, action, distribution), each state id back to its name."""
        return frozenset((self.names[s], a, self.distributions[k]) for s, a, k in self.delta)

    def size_of_delta(self) -> int:
        """|delta| plus the summed support sizes over distinct distributions."""
        return len(self.delta) + sum(map(len, self.dists))

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self.states)} states, {len(self.delta)} transitions>"


Nflts = Nfts
