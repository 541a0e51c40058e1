"""Nondeterministic fuzzy (labeled) transition systems.

One class, ``Nfts`` (also named ``Nflts``: an NFTS is the NFLTS over the empty
label alphabet), holds a system <S, A, delta> on dense ids and degree ranks:
``names``, the states sorted (state id i is ``names[i]``); ``delta``, the
distinct (state id, action, k) triples in input order; ``pool``, the sorted
distinct positive degrees, each degree its rank there; ``dists[k]``,
distribution k as its epsilon-edges (EPSILON, j, rank) per state id j, equal
targets being one distribution, in first-use order; and ``labels``, each
labeled state's id -> its label as a symbol -> rank map, in id order.  Each
distinct degree is range-checked and ranked once, before the walk writes each
edge with its rank.  The interner also walks two parts
(``modelio.parse_union``) into one disjoint union, with one distribution
interning and one pool.  ``graph.to_flg`` lays the system's graph out from
these fields.  The views ``distributions`` and ``transitions``, built on first
access from the pool's exact ``Fraction``s, serve ``perfbench/`` until the
benchmark reads the fields; the oracles read ``oracle.System``.
"""
from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
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
    """``_nfts``'s fields for one part's system, or the union of parts, their states (tag, name) in turn.  A part, the
    constructor's arguments and ``document`` (None, or their ``modelio._Document``), is taken once the one before is
    walked, and checked: states, actions, transitions (source, action, degrees, unknown targets), labels, alphabets."""
    # Before a part's walk, its distinct degrees are valued and ranked: a document's strings, each other degree
    # object by id().  Nothing there raises.  The walk writes an entry whose lookups all hit as it stands; one that
    # misses takes the checks (``checked``, the labels' miss branch), which raise its first fault or drop its zeros.
    names, interned, dists, delta, labels, pool = [], {}, [], {}, {}, []

    def checked(at, transition) -> tuple:
        source, action, target = document.transition(at) if document else transition
        if (s := index.get(source)) is None:
            raise ModelError(f"transition from unknown state {source!r}")
        if action not in actions:
            raise ModelError(f"transition with unknown action {action!r}")
        edges, unknown = {}, []
        for element, degree in _items(target):
            if (pair := _exact(degree, element))[0]:
                if (j := index.get(element)) is None:
                    unknown.append(element)
                else:
                    edges[j] = position[pair]
        if unknown:  # checked before interning: no interned distribution has an unknown state
            raise ModelError(f"distribution refers to unknown states {sorted(map(str, set(unknown)))}")
        return s, [(EPSILON, j, r) for j, r in edges.items()]

    for states, actions, transitions, label_alphabet, state_labels, document in parts:
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
        degrees, found = document.texts if document else {}, {}  # found: key -> (numerator, denominator), if positive
        if document is None:  # read twice: the lists hold each degree object, so no id() is reused meanwhile
            transitions, state_labels = [*transitions], [*_items(state_labels)]
            with suppress(LookupError, TypeError, ValueError):  # a fault ends it: the walk meets that fault first
                degrees.update((id(d), d) for entry in (*transitions, *state_labels) for _, d in _items(entry[-1]))
        with suppress(TypeError, ValueError):  # so does a degree's fault
            found.update((key, pair) for key, d in degrees.items() if (pair := _exact(d, None))[0])
        # Floats order the pool; Fractions, compared through the numbers.Rational ABC, only break float ties.
        old, pool = pool, sorted({*pool, *(Fraction(*pair) for pair in {*found.values()})}, key=lambda x: (float(x), x))
        position = {(x.numerator, x.denominator): r for r, x in enumerate(pool)}
        if 0 < len(old) < len(pool):  # a later part brings a degree new to the pool: what is written moves
            move = [position[x.numerator, x.denominator] for x in old]  # only the empty distribution is shared,
            dists[:] = [[(EPSILON, j, move[r]) for _, j, r in edges] for edges in dists]  # so no key moves
            labels = {i: {p: move[r] for p, r in ids.items()} for i, ids in labels.items()}
        rank = {key: position[pair] for key, pair in found.items()}
        for at, (source, action, target) in enumerate(transitions):
            try:  # loops, not comprehensions, which are calls before Python 3.12
                s, edges = index[source], []
                for e, d in target.items():
                    edges.append((EPSILON, index[e], rank[d if document else id(d)]))
                if action not in actions:
                    edges = None
            except (KeyError, TypeError, AttributeError):
                edges = None
            if edges is None:
                s, edges = checked(at, (source, action, target))
            if (k := interned.setdefault(frozenset(edges), n := len(dists))) == n:
                dists.append(edges)
            delta[s, action, k] = None
        label_alphabet = frozenset(label_alphabet)
        for state, label in _items(state_labels):
            try:
                i, ids = index[state], {}
                for p, d in label.items():
                    ids[p] = rank[d if document else id(d)]
            except (KeyError, TypeError, AttributeError):
                ids = None
            if ids is None:
                label = label if document is None else document.label(state)
                if (i := index.get(state)) is None:
                    raise ModelError(f"label on unknown state {state!r}")
                ids = {p: position[pair] for p, degree in _items(label) if (pair := _exact(degree, p))[0]}
            if not ids.keys() <= label_alphabet:
                raise ModelError(f"label of {state!r} uses symbols outside the alphabet")
            labels[i] = ids  # a state given twice keeps its last label, an empty one too
        if names and (actions, label_alphabet) != shared:  # graph.require_shared_alphabets' rule and messages
            raise ModelError(f"systems must share the {'action' if actions != shared[0] else 'label'} alphabet")
        names.append(part)
        shared = actions, label_alphabet
    names = names[0] if len(names) == 1 else tuple((tag, s) for tag, part in enumerate(names) for s in part)
    labels = {i: labels[i] for i in sorted(labels) if labels[i]}
    return names, actions, tuple(delta), label_alphabet, pool, dists, labels


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

    ``transitions`` entries are (state, action, target) where the target, read twice, is
    a FuzzySet or a plain mapping state -> degree.  Duplicate triples collapse.
    """

    def __init__(self, states: Iterable, actions: Iterable, transitions: Iterable[tuple], label_alphabet: Iterable = (),
                 state_labels: Mapping = ()):
        _nfts(*_intern([(states, actions, transitions, label_alphabet, state_labels, None)]), self)

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
