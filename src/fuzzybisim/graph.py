"""Fuzzy labeled graphs and the transformation from transition systems.

The graph corresponding to a system has one vertex per state and one vertex
per distinct distribution.  Action edges (state -> distribution) carry
degree 1 and epsilon edges (distribution -> state) carry the distribution's
degree for that state.  A reserved vertex-label symbol marks state vertices,
so no bisimulation can relate a state vertex with a distribution vertex.

``to_flg`` lays the graph out from the system's fields (see ``model``), once
per query, on the system's ranks with 1 added to the pool: ``delta`` is on
state ids, so the layout looks up no name.  The engines read only the graph's
arrays, where id i < |S| is the state ``names[i]``.
``by_id[i]``, the ``Vertex`` of id i, and the views ``vertices``, ``edges``,
``labels``, ``out_edges`` and ``degree_pool`` are built on first access for
the graph fixpoints and for ``perfbench/``, their reader until the benchmark
reads the arrays; the system-level oracles read ``oracle.System``.
``disjoint_union`` builds the union of two built systems, and lays nothing
out; ``modelio.parse_union`` reads two documents straight into that union.
``as_nflts`` is the identity: one class holds plain and labeled systems.
"""
from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .degrees import ONE, joint_ranks
from .model import EPSILON, STATE_MARK, FuzzySet, Nfts, ModelError, _nfts
from .relations import CrispRelation, FuzzyRelation

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


class Flg:
    """A fuzzy labeled graph <V, E, L, Sigma_V, Sigma_E> on dense ids.

    Vertex id i < len(names) is the state ``names[i]`` and id len(names) + k
    distribution k.  ``out[i]`` holds the edges leaving vertex id i as (symbol,
    target id, rank): (action, |S| + k, rank of 1) per transition of state i,
    and for distribution k the system's own list ``dists[k]``; ``preds[i]`` the
    source id of each edge entering it, in id order (one pass over ``out``); and
    ``label_ids[i]`` the id of its label in ``label_maps``, the distinct labels
    as symbol -> rank maps, the state mark on each state, numbered in first-use
    order over the vertex ids.  Rank k stands for the degree ``pool[k]``.
    """

    def __init__(self, model: Nfts, pool: list):
        names, dists, n, top = model.names, model.dists, len(model.names), len(pool) - 1
        out: list = [[] for _ in range(n)]
        for i, action, k in model.delta:
            out[i].append((action, n + k, top))
        out += dists
        preds: list = [[] for _ in out]  # filled in id order: the crisp --verbose split trace follows it
        for i, edges in enumerate(out):
            for _, j, _ in edges:
                preds[j].append(i)
        # Each vertex's label as its (symbol, rank) pairs, the two defaults shared.
        mark, unlabeled = {STATE_MARK: top}, frozenset([(STATE_MARK, top)])
        keys, maps = [unlabeled] * n + [frozenset()] * len(dists), {unlabeled: mark, frozenset(): {}}
        for i, label in model.labels.items():
            label = label | mark
            keys[i] = frozenset(label.items())
            maps.setdefault(keys[i], label)
        table: dict = {}  # a label's pairs -> its id, in first-use order over the vertex ids
        self.label_ids = [table.setdefault(key, len(table)) for key in keys]
        self.label_maps = [*map(maps.get, table)]
        self.names, self.out, self.preds, self.pool = names, out, preds, pool
        self.vertex_alphabet, self.edge_alphabet = model.label_alphabet | {STATE_MARK}, model.actions | {EPSILON}

    @cached_property
    def by_id(self) -> list:
        """The ``Vertex`` of each id, made by ``tuple.__new__``: calling the class runs Python per vertex."""
        return [*map(tuple.__new__, repeat(Vertex), zip(repeat(_STATE), self.names)),
                *map(tuple.__new__, repeat(Vertex), zip(repeat(_DIST), range(len(self.out) - len(self.names))))]

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
        """Vertex -> its label as a FuzzySet, one per label id."""
        sets = [FuzzySet({p: self.pool[rk] for p, rk in label.items()}) for label in self.label_maps]
        return dict(zip(self.by_id, map(sets.__getitem__, self.label_ids)))

    @cached_property
    def out_edges(self):
        """``out_edges(x)``: the positive edges leaving vertex x as (symbol, target, degree)."""
        v, pool = self.by_id, self.pool
        return {v[i]: [(r, v[j], pool[rk]) for r, j, rk in out] for i, out in enumerate(self.out)}.__getitem__

    def degree_pool(self) -> list:
        """Sorted distinct positive degrees used in edges and vertex labels."""
        return list(self.pool)

    def __repr__(self) -> str:
        return f"<Flg: {len(self.out)} vertices, {sum(map(len, self.out))} edges>"


def to_flg(model: Nfts) -> Flg:
    """The graph corresponding to a system: V = S + delta_o, |support(E)| =
    size(delta).  State vertices carry the state mark and, in a labeled
    system, their fuzzy label."""
    if STATE_MARK in model.label_alphabet:
        raise ModelError(f"label alphabet uses the reserved vertex symbol {STATE_MARK!r}")
    if EPSILON in model.actions:
        raise ModelError(f"action alphabet uses the reserved edge symbol {EPSILON!r}")
    pool = model.pool if model.pool and model.pool[-1] == ONE else [*model.pool, ONE]  # 1 is the largest: no rank moves
    return Flg(model, pool)


def on_states(a: Nfts, b: Nfts, relation):
    """Graph-level vertex pairs, or a dict of them to degrees (order kept),
    restricted to S x S' and keyed by state: the relation between a and b."""
    if isinstance(relation, dict):
        kept = {(x.key, y.key): d for (x, y), d in relation.items() if x.is_state and y.is_state}
        return FuzzyRelation(a.states, b.states, kept)
    return CrispRelation(a.states, b.states, {(x.key, y.key) for x, y in relation if x.is_state and y.is_state})


def as_nflts(model: Nfts) -> Nfts:
    """The system itself: a plain NFTS already is the NFLTS over the empty
    alphabet.  Kept as the name whose span the benchmark's tracer reads as
    ``graph.convert`` in ``cli`` and ``simulation``."""
    return model


def require_shared_alphabets(a: Nfts, b: Nfts):
    """Two systems are simulated against or joined with each other only over
    equal action and label alphabets."""
    if a.actions != b.actions:
        raise ModelError("systems must share the action alphabet")
    if a.label_alphabet != b.label_alphabet:
        raise ModelError("systems must share the label alphabet")


def require_same_signature(g: Flg, h: Flg):
    """Two graphs are simulated against each other only over equal vertex and edge alphabets."""
    if (g.vertex_alphabet, g.edge_alphabet) != (h.vertex_alphabet, h.edge_alphabet):
        raise ModelError("graphs must share vertex and edge alphabets")


def disjoint_union(a: Nfts, b: Nfts):
    """Tagged union of two systems sharing action and label alphabets.

    Returns (union, inject_a, inject_b) where the injections map original
    states to the union's (tagged) states.  The union holds the two systems'
    distributions one after the other, re-ranked by ``joint_ranks``, and
    b's state ids shifted by |S_a|, as its names sort after a's.
    """
    require_shared_alphabets(a, b)
    pool, rank_a, rank_b = joint_ranks(a.pool, b.pool)
    # ``interned``: distribution -> k, as the constructor interns, for one empty distribution can be in both
    interned, delta, labels, injects = {}, [], {}, []
    for tag, (model, new) in enumerate(zip((a, b), (rank_a, rank_b))):  # new: rank -> joint rank
        offset = len(a.names) * tag
        k_of = [interned.setdefault(tuple([(EPSILON, offset + j, new[r]) for _, j, r in edges]), len(interned))
                for edges in model.dists]
        inject = {s: (tag, s) for s in model.names}
        delta += [(offset + i, action, k_of[k]) for i, action, k in model.delta]
        labels.update((offset + i, {p: new[r] for p, r in ranks.items()}) for i, ranks in model.labels.items())
        injects.append(inject)
    names = (*injects[0].values(), *injects[1].values())
    union = _nfts(names, a.actions, tuple(delta), a.label_alphabet, pool, [*map(list, interned)], labels)
    return union, *injects
