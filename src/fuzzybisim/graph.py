"""Fuzzy labeled graphs and the transformation from transition systems.

The graph corresponding to a system has one vertex per state and one vertex
per distinct distribution.  Action edges (state -> distribution) carry
degree 1 and epsilon edges (distribution -> state) carry the distribution's
degree for that state.  A reserved vertex-label symbol marks state vertices,
so no bisimulation can relate a state vertex with a distribution vertex.

``to_flg`` builds the graph once, as dense arrays.  Vertex ids 0..|S|-1 are
the states sorted by name and |S|+k is the distribution with index k, which
is the sorted order of the ``Vertex`` objects.  Degrees are stored as ranks
in the sorted pool of the graph's distinct degrees; the pool always holds 1,
the degree of the state mark.  The engines read the arrays.  The object
views that the oracles and checkers read (``vertices``, ``edges``,
``labels``, ``out_edges``, ...) are derived from them on first access.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .degrees import Degree, ZERO, ONE
from .model import FuzzySet, Nfts, Nflts, ModelError
from .relations import CrispRelation, FuzzyRelation

#: Reserved edge symbol for distribution -> state edges; must not be an action.
EPSILON = "eps*"
#: Reserved vertex-label symbol marking state vertices; must not be in sigma.
STATE_MARK = "state*"

_STATE = 0
_DIST = 1


class Vertex(NamedTuple):
    """A graph vertex: a state (kind 0, key the state) or an interned
    distribution (kind 1, key its index)."""

    kind: int
    key: object

    @property
    def is_state(self) -> bool:
        return self.kind == _STATE

    @property
    def name(self) -> str:
        return str(self.key) if self.kind == _STATE else f"mu{self.key + 1}"

    def __repr__(self) -> str:
        return self.name


def state_vertex(state) -> Vertex:
    return Vertex(_STATE, state)


def dist_vertex(index: int) -> Vertex:
    return Vertex(_DIST, index)


class Flg:
    """A fuzzy labeled graph <V, E, L, Sigma_V, Sigma_E> on dense ids.

    ``by_id[i]`` is the vertex of id i, ``out[i]`` holds the edges leaving
    it as (symbol, target id, rank), ``preds[i]`` the source id of each edge
    entering it, and ``label_ranks[i]`` its label as a symbol -> rank map;
    rank k stands for the degree ``pool[k]``.
    """

    def __init__(self, by_id: list, out: list, preds: list, label_ranks: list, pool: list,
                 vertex_alphabet, edge_alphabet):
        self.by_id, self.out, self.preds, self.label_ranks, self.pool = by_id, out, preds, label_ranks, pool
        self.vertex_alphabet = frozenset(vertex_alphabet)
        self.edge_alphabet = frozenset(edge_alphabet)

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.by_id)

    @cached_property
    def edges(self) -> dict:
        """Positive edges as (source, symbol, target) -> degree."""
        v, pool = self.by_id, self.pool
        return {(v[i], r, v[j]): pool[rk] for i, out in enumerate(self.out) for r, j, rk in out}

    @cached_property
    def labels(self) -> dict:
        """Vertex -> its label as a FuzzySet; equal labels are one object."""
        shared: dict = {}
        return {
            v: shared.setdefault(frozenset(ranks.items()), FuzzySet({p: self.pool[rk] for p, rk in ranks.items()}))
            for v, ranks in zip(self.by_id, self.label_ranks)
        }

    @cached_property
    def _incident(self) -> dict:
        """Vertex -> (out-edges, in-edges) as (symbol, other end, degree)."""
        incident = {v: ([], []) for v in self.by_id}
        for (x, r, y), degree in self.edges.items():
            incident[x][0].append((r, y, degree))
            incident[y][1].append((r, x, degree))
        return incident

    def edge_degree(self, x: Vertex, r, y: Vertex) -> Degree:
        return self.edges.get((x, r, y), ZERO)

    def out_edges(self, x: Vertex):
        """Positive outgoing edges of x as (symbol, target, degree)."""
        return self._incident[x][0]

    def in_edges(self, y: Vertex):
        """Positive incoming edges of y as (symbol, source, degree)."""
        return self._incident[y][1]

    def predecessors(self, y: Vertex):
        return [x for _, x, _ in self.in_edges(y)]

    def degree_pool(self) -> list:
        """Sorted distinct positive degrees used in edges and vertex labels."""
        return list(self.pool)

    def same_signature(self, other: "Flg") -> bool:
        return (
            self.vertex_alphabet == other.vertex_alphabet
            and self.edge_alphabet == other.edge_alphabet
        )

    def __repr__(self) -> str:
        return f"<Flg: {len(self.out)} vertices, {sum(map(len, self.out))} edges>"


def to_flg(model: Nfts) -> Flg:
    """The graph corresponding to a system: V = S + delta_o, |support(E)| =
    size(delta).  State vertices carry the state mark and, in a labeled
    system, their fuzzy label."""
    sigma = model.label_alphabet
    if STATE_MARK in sigma:
        raise ModelError(f"label alphabet uses the reserved vertex symbol {STATE_MARK!r}")
    if EPSILON in model.actions:
        raise ModelError(f"action alphabet uses the reserved edge symbol {EPSILON!r}")
    states = sorted(model.states)
    dists = model.distributions
    labels = [model.label_of(s) for s in states]
    # Rank each degree object once, keyed by id: a parsed document holds one
    # object per distinct degree, and the model keeps them all alive here.
    found = {id(ONE): ONE}
    for entries in [mu.fuzzy.degrees() for mu in dists] + [label.degrees() for label in labels]:
        found.update(zip(map(id, entries), entries))
    exact = {key: Fraction(d) for key, d in found.items()}
    pool = sorted(set(exact.values()))
    position = {d: k for k, d in enumerate(pool)}
    rank = {key: position[d] for key, d in exact.items()}
    top = len(pool) - 1
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    out: list = [[] for _ in range(n + len(dists))]
    preds: list = [[] for _ in out]
    for source, action, mu in model.transitions:
        i, j = index[source], n + mu.index
        out[i].append((action, j, top))
        preds[j].append(i)
    for sources in preds[n:]:
        sources.sort()  # the transitions set iterates in hash order
    for i, mu in enumerate(dists, n):
        for target, degree in mu.fuzzy.items():
            j = index[target]
            out[i].append((EPSILON, j, rank[id(degree)]))
            preds[j].append(i)
    label_ranks = [{**{p: rank[id(d)] for p, d in label.items()}, STATE_MARK: top} for label in labels]
    label_ranks += [{} for _ in dists]
    by_id = [*map(state_vertex, states), *map(dist_vertex, range(len(dists)))]
    return Flg(by_id, out, preds, label_ranks, pool, sigma | {STATE_MARK}, model.actions | {EPSILON})


def on_states(a: Nflts, b: Nflts, relation):
    """Graph-level vertex pairs, or a dict of them to degrees (order kept),
    restricted to S x S' and keyed by state: the relation between a and b."""
    if isinstance(relation, dict):
        kept = {(x.key, y.key): d for (x, y), d in relation.items() if x.is_state and y.is_state}
        return FuzzyRelation(a.states, b.states, kept)
    return CrispRelation(a.states, b.states, {(x.key, y.key) for x, y in relation if x.is_state and y.is_state})


def as_nflts(model: Nfts) -> Nflts:
    """View a plain NFTS as an NFLTS with an empty label alphabet."""
    if isinstance(model, Nflts):
        return model
    raw = [(s, a, mu.fuzzy) for s, a, mu in _by_distribution(model)]
    return Nflts(model.states, model.actions, raw)


def _by_distribution(model: Nfts) -> list:
    """The transitions in distribution-index order, so that a system built
    from them numbers its distributions as ``model`` does, whatever the
    iteration order of the ``transitions`` set."""
    return sorted(model.transitions, key=lambda t: t[2].index)


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
    states = [*inject_a.values(), *inject_b.values()]
    transitions, labels = [], {}
    for model, inject in ((a, inject_a), (b, inject_b)):
        for source, action, mu in _by_distribution(model):
            target = {inject[t]: d for t, d in mu.fuzzy.items()}
            transitions.append((inject[source], action, target))
        for s in model.states:
            label = model.label_of(s)
            if label:
                labels[inject[s]] = label
    union = Nflts(states, a.actions, transitions, a.label_alphabet, labels)
    return union, inject_a, inject_b
