"""Fuzzy labeled graphs and the transformation from transition systems.

The graph corresponding to a system has one vertex per state and one vertex
per distinct distribution.  Action edges (state -> distribution) carry
degree 1 and epsilon edges (distribution -> state) carry the distribution's
degree for that state.  A reserved vertex-label symbol marks state vertices,
so no bisimulation can relate a state vertex with a distribution vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from .degrees import Degree, ZERO, ONE
from .model import FuzzySet, Nfts, Nflts, ModelError

#: Reserved edge symbol for distribution -> state edges; must not be an action.
EPSILON = "eps*"
#: Reserved vertex-label symbol marking state vertices; must not be in sigma.
STATE_MARK = "state*"

_STATE = 0
_DIST = 1


@dataclass(frozen=True, order=True)
class Vertex:
    """A graph vertex: either a state or an interned distribution."""

    kind: int
    key: object

    @property
    def is_state(self) -> bool:
        return self.kind == _STATE

    @property
    def name(self) -> str:
        if self.kind == _STATE:
            return str(self.key)
        return f"mu{self.key + 1}"

    def __repr__(self) -> str:
        return self.name


def state_vertex(state) -> Vertex:
    return Vertex(_STATE, state)


def dist_vertex(index: int) -> Vertex:
    return Vertex(_DIST, index)


class Flg:
    """A fuzzy labeled graph <V, E, L, Sigma_V, Sigma_E>."""

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Mapping[Tuple[Vertex, object, Vertex], Degree],
        labels: Mapping[Vertex, FuzzySet],
        vertex_alphabet: Iterable,
        edge_alphabet: Iterable,
    ):
        self.vertices = frozenset(vertices)
        self.vertex_alphabet = frozenset(vertex_alphabet)
        self.edge_alphabet = frozenset(edge_alphabet)
        self.edges: Dict[Tuple[Vertex, object, Vertex], Degree] = {}
        for (x, r, y), degree in edges.items():
            if degree == ZERO:
                continue
            if x not in self.vertices or y not in self.vertices:
                raise ModelError(f"edge ({x}, {r}, {y}) references unknown vertices")
            if r not in self.edge_alphabet:
                raise ModelError(f"edge ({x}, {r}, {y}) uses unknown symbol {r!r}")
            self.edges[(x, r, y)] = degree
        self.labels = {v: labels.get(v, FuzzySet()) for v in self.vertices}
        for v, label in self.labels.items():
            if not label.support <= self.vertex_alphabet:
                raise ModelError(f"label of {v} uses symbols outside the vertex alphabet")
        self._out: Dict[Vertex, list] = {v: [] for v in self.vertices}
        self._in: Dict[Vertex, list] = {v: [] for v in self.vertices}
        for (x, r, y), degree in self.edges.items():
            self._out[x].append((r, y, degree))
            self._in[y].append((r, x, degree))

    def edge_degree(self, x: Vertex, r, y: Vertex) -> Degree:
        return self.edges.get((x, r, y), ZERO)

    def out_edges(self, x: Vertex):
        """Positive outgoing edges of x as (symbol, target, degree)."""
        return self._out[x]

    def in_edges(self, y: Vertex):
        """Positive incoming edges of y as (symbol, source, degree)."""
        return self._in[y]

    def predecessors(self, y: Vertex):
        return [x for _, x, _ in self._in[y]]

    def degree_pool(self) -> list:
        """Sorted distinct positive degrees used in edges and vertex labels."""
        pool = set(self.edges.values())
        for label in self.labels.values():
            pool.update(label.degrees())
        return sorted(pool)

    def same_signature(self, other: "Flg") -> bool:
        return (
            self.vertex_alphabet == other.vertex_alphabet
            and self.edge_alphabet == other.edge_alphabet
        )

    def __repr__(self) -> str:
        return f"<Flg: {len(self.vertices)} vertices, {len(self.edges)} edges>"


def _edges_of(model: Nfts) -> Dict[Tuple[Vertex, object, Vertex], Degree]:
    if EPSILON in model.actions:
        raise ModelError(f"action alphabet uses the reserved edge symbol {EPSILON!r}")
    edges: Dict[Tuple[Vertex, object, Vertex], Degree] = {}
    for source, action, mu in model.transitions:
        edges[(state_vertex(source), action, dist_vertex(mu.index))] = ONE
    for mu in model.distributions:
        for target, degree in mu.fuzzy.items():
            edges[(dist_vertex(mu.index), EPSILON, state_vertex(target))] = degree
    return edges


def to_flg(model: Nfts) -> Flg:
    """The graph corresponding to a system: V = S + delta_o, |support(E)| =
    size(delta).  State vertices carry the state mark and, in a labeled
    system, their fuzzy label."""
    sigma = model.label_alphabet
    if STATE_MARK in sigma:
        raise ModelError(f"label alphabet uses the reserved vertex symbol {STATE_MARK!r}")
    vertices = [state_vertex(s) for s in model.states]
    vertices += [dist_vertex(mu.index) for mu in model.distributions]
    marked = FuzzySet({STATE_MARK: ONE})
    labels = {}
    for s in model.states:
        label = model.label_of(s)
        labels[state_vertex(s)] = FuzzySet([*label.items(), (STATE_MARK, ONE)]) if label else marked
    return Flg(vertices, _edges_of(model), labels, sigma | {STATE_MARK}, model.actions | {EPSILON})


def as_nflts(model: Nfts) -> Nflts:
    """View a plain NFTS as an NFLTS with an empty label alphabet."""
    if isinstance(model, Nflts):
        return model
    raw = [(s, a, mu.fuzzy) for s, a, mu in model.transitions]
    return Nflts(model.states, model.actions, raw)


def disjoint_union(a: Nflts, b: Nflts):
    """Tagged union of two systems sharing action and label alphabets.

    Returns (union, inject_a, inject_b) where the injections map original
    states to the union's (tagged) states.
    """
    if a.actions != b.actions:
        raise ModelError("disjoint union requires equal action alphabets")
    if a.label_alphabet != b.label_alphabet:
        raise ModelError("disjoint union requires equal label alphabets")
    inject_a = {s: (0, s) for s in a.states}
    inject_b = {s: (1, s) for s in b.states}
    states = list(inject_a.values()) + list(inject_b.values())
    transitions = []
    labels = {}
    for model, inject in ((a, inject_a), (b, inject_b)):
        for source, action, mu in model.transitions:
            target = {inject[t]: d for t, d in mu.fuzzy.items()}
            transitions.append((inject[source], action, target))
        for s in model.states:
            label = model.label_of(s)
            if label:
                labels[inject[s]] = label
    union = Nflts(states, a.actions, transitions, a.label_alphabet, labels)
    return union, inject_a, inject_b
