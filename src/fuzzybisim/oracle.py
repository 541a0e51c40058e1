"""Brute-force implementations of the lifted relations and every
bisimulation / simulation definition.

Everything here follows the definitions literally, with no data-structure
cleverness, so correctness is auditable by eye.  These functions are the
ground truth that the refinement engines are differentially tested against;
they are only meant for desk-scale inputs.

The system-level fixpoints and checkers read a ``System``, the arguments of
the ``Nfts`` constructor as given: no interning table, id or rank is shared
with the system's rank arrays, or with the graph that ``to_flg`` lays out from
them for the engines.  The graph-level ones read
the views of ``graph.Flg`` (``vertices``, ``labels``, ``out_edges``), which
remain for them and for ``perfbench/`` until the benchmark reads the arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .degrees import Degree, ZERO, residuum, biresiduum, sup, inf
from .model import Distribution, FuzzySet
from .graph import Flg, require_same_signature
from .relations import CrispRelation, FuzzyRelation


class System:
    """A system as its constructor's arguments give it, checked by nothing (so
    ``actions`` and ``label_alphabet`` go unread): ``transitions``, the distinct
    (state, action, distribution) triples in input order; ``distributions``,
    the distinct targets as ``Distribution``s numbered in first use; and
    ``labels``, each labeled state's ``FuzzySet``."""

    def __init__(self, states, actions, transitions, label_alphabet=(), state_labels=()):
        self.states, interned, triples = frozenset(states), {}, {}
        for source, action, target in transitions:
            fuzzy = FuzzySet(target)
            triples[source, action, interned.setdefault(fuzzy, Distribution(len(interned), fuzzy))] = None
        self.transitions, self.distributions = tuple(triples), tuple(interned.values())
        self.labels = {state: FuzzySet(label) for state, label in dict(state_labels).items()}

    def outgoing(self, state, action=None) -> list:
        """The (action, distribution) of each transition of ``state``, of ``action`` if given."""
        return [(a, mu) for s, a, mu in self.transitions if s == state and action in (None, a)]

    def label_of(self, state) -> FuzzySet:
        return self.labels.get(state) or FuzzySet()


@dataclass
class WitnessReport:
    """Outcome of a definitional check; a failure always carries a witness."""

    holds: bool
    clause: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


def lifted_crisp(R: CrispRelation, mu, mu_prime) -> bool:
    """mu R-dagger mu': mu(s) <= mu'(R-image of s) and mu'(s') <= mu(R-preimage of s')."""
    for s, d in mu.items():
        if d > mu_prime.value_of(R.forward(s)):
            return False
    for s_prime, d in mu_prime.items():
        if d > mu.value_of(R.backward(s_prime)):
            return False
    return True


def witness_realizes_lifting(R: CrispRelation, mu, mu_prime) -> bool:
    """Check that e(s, s') = min(mu(s), mu'(s')) for s R s', else 0, realizes the lifting."""
    states = R.left | R.right

    def e(s, s_prime):
        return min(mu(s), mu_prime(s_prime)) if (s, s_prime) in R.pairs else ZERO

    for s in states:
        if mu(s) != sup(e(s, t) for t in states):
            return False
    for s_prime in states:
        if mu_prime(s_prime) != sup(e(t, s_prime) for t in states):
            return False
    return True


def lifted_fuzzy(R: FuzzyRelation, mu, mu_prime) -> Degree:
    """The lifted degree R-ddagger(mu, mu') under the Goedel semantics."""
    forward = inf(
        residuum(d, sup(min(R(s, s_prime), mu_prime(s_prime)) for s_prime in R.right))
        for s, d in mu.items()
    )
    backward = inf(
        residuum(d, sup(min(R(s, s_prime), mu(s)) for s in R.left))
        for s_prime, d in mu_prime.items()
    )
    return min(forward, backward)


# -- checkers over transition systems -------------------------------------


def is_crisp_bisim_nfts(R: CrispRelation, model: System) -> WitnessReport:
    """Check the clauses of a crisp bisimulation for every pair of R.

    On labeled systems related states must additionally carry equal labels;
    for a plain system every label is empty and the clause is vacuous.
    """
    for s, s_prime in R.pairs:
        if model.label_of(s) != model.label_of(s_prime):
            return WitnessReport(False, "label-equality", (s, s_prime))
        for a, mu in model.outgoing(s):
            if not any(lifted_crisp(R, mu, mu2) for _, mu2 in model.outgoing(s_prime, a)):
                return WitnessReport(False, "forward-transition", (s, s_prime, a, mu))
        for a, mu_prime in model.outgoing(s_prime):
            if not any(lifted_crisp(R, mu2, mu_prime) for _, mu2 in model.outgoing(s, a)):
                return WitnessReport(False, "backward-transition", (s, s_prime, a, mu_prime))
    return WitnessReport(True)


def is_fuzzy_bisim_nfts(R: FuzzyRelation, model: System) -> WitnessReport:
    """Check the fuzzy bisimulation clauses for every pair with R(s, s') > 0.

    On labeled systems R(s, s') is additionally bounded by the biresiduum of
    the two labels at every symbol.
    """
    for (s, s_prime), degree in R.entries.items():
        label, label_prime = model.label_of(s), model.label_of(s_prime)
        for p in label.support | label_prime.support:
            if degree > biresiduum(label(p), label_prime(p)):
                return WitnessReport(False, "label-biresiduum", (s, s_prime, p))
        for a, mu in model.outgoing(s):
            best = sup(lifted_fuzzy(R, mu, mu2) for _, mu2 in model.outgoing(s_prime, a))
            if degree > best:
                return WitnessReport(False, "forward-transition", (s, s_prime, a, mu))
        for a, mu_prime in model.outgoing(s_prime):
            best = sup(lifted_fuzzy(R, mu2, mu_prime) for _, mu2 in model.outgoing(s, a))
            if degree > best:
                return WitnessReport(False, "backward-transition", (s, s_prime, a, mu_prime))
    return WitnessReport(True)


def gfp_crisp_bisim_nfts(model: System) -> CrispRelation:
    """Greatest crisp bisimulation: start from the label-compatible pairs
    (all of S x S for a plain system) and remove violating ones until stable."""
    states = sorted(model.states)
    pairs = {(s, t) for s in states for t in states if model.label_of(s) == model.label_of(t)}
    changed = True
    while changed:
        changed = False
        relation = CrispRelation(model.states, model.states, pairs)
        for pair in sorted(pairs):
            s, s_prime = pair
            ok = all(
                any(lifted_crisp(relation, mu, mu2) for _, mu2 in model.outgoing(s_prime, a))
                for a, mu in model.outgoing(s)
            ) and all(
                any(lifted_crisp(relation, mu2, mu_prime) for _, mu2 in model.outgoing(s, a))
                for a, mu_prime in model.outgoing(s_prime)
            )
            if not ok:
                pairs.discard(pair)
                changed = True
    return CrispRelation(model.states, model.states, pairs)


def gfp_fuzzy_bisim_nfts(model: System) -> FuzzyRelation:
    """Greatest fuzzy bisimulation: decrease from the label-biresiduum caps
    (the all-ones relation for a plain system) until stable."""
    states = sorted(model.states)
    values = {}
    for s in states:
        for t in states:
            label, label_t = model.label_of(s), model.label_of(t)
            values[(s, t)] = inf(
                biresiduum(label(p), label_t(p))
                for p in label.support | label_t.support
            )
    while True:
        relation = FuzzyRelation(model.states, model.states, values)
        lifted = {}
        for mu in model.distributions:
            for mu_prime in model.distributions:
                lifted[(mu.index, mu_prime.index)] = lifted_fuzzy(relation, mu, mu_prime)
        changed = False
        for pair in sorted(values):
            s, s_prime = pair
            bound = values[pair]
            for a, mu in model.outgoing(s):
                bound = min(bound, sup(lifted[mu.index, mu2.index] for _, mu2 in model.outgoing(s_prime, a)))
            for a, mu_prime in model.outgoing(s_prime):
                bound = min(bound, sup(lifted[mu2.index, mu_prime.index] for _, mu2 in model.outgoing(s, a)))
            if bound < values[pair]:
                values[pair] = bound
                changed = True
        if not changed:
            return FuzzyRelation(model.states, model.states, values)


# -- fixpoints over fuzzy labeled graphs -----------------------------------


def gfp_crisp_bisim_flg(g: Flg) -> CrispRelation:
    """Greatest crisp bisimulation of a graph, by removing violating pairs."""
    pairs = {(x, y) for x in g.vertices for y in g.vertices if g.labels[x] == g.labels[y]}
    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            if not _crisp_edge_clauses_ok(g, g, pair, pairs, both=True):
                pairs.discard(pair)
                changed = True
    return CrispRelation(g.vertices, g.vertices, pairs)


def _crisp_edge_clauses_ok(g: Flg, g_prime: Flg, pair, pairs, both: bool) -> bool:
    x, x_prime = pair
    forward = all(
        any((y, y_prime) in pairs and degree <= d2 for r2, y_prime, d2 in g_prime.out_edges(x_prime) if r2 == r)
        for r, y, degree in g.out_edges(x)
    )
    return forward and (not both or all(
        any((y, y_prime) in pairs and degree <= d2 for r2, y, d2 in g.out_edges(x) if r2 == r)
        for r, y_prime, degree in g_prime.out_edges(x_prime)
    ))


def gfp_fuzzy_bisim_flg(g: Flg) -> FuzzyRelation:
    """Greatest fuzzy bisimulation of a graph, by decreasing iteration."""
    values = {}
    for x in g.vertices:
        for y in g.vertices:
            symbols = g.labels[x].support | g.labels[y].support
            values[(x, y)] = inf(
                biresiduum(g.labels[x](p), g.labels[y](p)) for p in symbols
            )
    while True:
        changed = False
        for pair in sorted(values):
            bound = min(
                _fuzzy_edge_bound(g, g, pair, values, forward=True),
                _fuzzy_edge_bound(g, g, pair, values, forward=False),
            )
            if bound < values[pair]:
                values[pair] = bound
                changed = True
        if not changed:
            universe = g.vertices
            return FuzzyRelation(universe, universe, values)


def _fuzzy_edge_bound(g: Flg, g_prime: Flg, pair, values, forward: bool) -> Degree:
    """Cap from the existential edge clause, via the Goedel adjunction."""
    x, x_prime = pair
    if forward:
        return inf(
            sup(residuum(degree, min(d2, values.get((y, y_prime), ZERO)))
                for r2, y_prime, d2 in g_prime.out_edges(x_prime) if r2 == r)
            for r, y, degree in g.out_edges(x)
        )
    return inf(
        sup(residuum(degree, min(d2, values.get((y, y_prime), ZERO)))
            for r2, y, d2 in g.out_edges(x) if r2 == r)
        for r, y_prime, degree in g_prime.out_edges(x_prime)
    )


def gfp_crisp_sim_flg(g: Flg, g_prime: Flg) -> CrispRelation:
    """Greatest crisp simulation between two graphs over the same signature."""
    require_same_signature(g, g_prime)
    pairs = {(x, y) for x in g.vertices for y in g_prime.vertices if g.labels[x] <= g_prime.labels[y]}
    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            if not _crisp_edge_clauses_ok(g, g_prime, pair, pairs, both=False):
                pairs.discard(pair)
                changed = True
    return CrispRelation(g.vertices, g_prime.vertices, pairs)


def gfp_fuzzy_sim_flg(g: Flg, g_prime: Flg) -> FuzzyRelation:
    """Greatest fuzzy simulation between two graphs under the Goedel semantics."""
    require_same_signature(g, g_prime)
    values = {}
    for x in g.vertices:
        for y in g_prime.vertices:
            values[(x, y)] = inf(
                residuum(d, g_prime.labels[y](p)) for p, d in g.labels[x].items()
            )
    while True:
        changed = False
        for pair in sorted(values):
            bound = _fuzzy_edge_bound(g, g_prime, pair, values, forward=True)
            if bound < values[pair]:
                values[pair] = bound
                changed = True
        if not changed:
            return FuzzyRelation(g.vertices, g_prime.vertices, values)


# -- clause checkers for graph-level relations -----------------------------


def is_crisp_sim_flg(Z: CrispRelation, g: Flg, g_prime: Flg) -> WitnessReport:
    require_same_signature(g, g_prime)
    for x, x_prime in Z.pairs:
        if not g.labels[x] <= g_prime.labels[x_prime]:
            return WitnessReport(False, "label-dominance", (x, x_prime))
        if not _crisp_edge_clauses_ok(g, g_prime, (x, x_prime), Z.pairs, both=False):
            return WitnessReport(False, "forward-edge", (x, x_prime))
    return WitnessReport(True)


def is_crisp_bisim_flg(Z: CrispRelation, g: Flg) -> WitnessReport:
    for x, x_prime in Z.pairs:
        if g.labels[x] != g.labels[x_prime]:
            return WitnessReport(False, "label-equality", (x, x_prime))
        if not _crisp_edge_clauses_ok(g, g, (x, x_prime), Z.pairs, both=True):
            return WitnessReport(False, "edge-clause", (x, x_prime))
    return WitnessReport(True)


def is_fuzzy_sim_flg(Z: FuzzyRelation, g: Flg, g_prime: Flg) -> WitnessReport:
    require_same_signature(g, g_prime)
    values = {
        (x, y): Z(x, y) for x in g.vertices for y in g_prime.vertices
    }
    for (x, x_prime), degree in Z.entries.items():
        for p, d in g.labels[x].items():
            if degree > residuum(d, g_prime.labels[x_prime](p)):
                return WitnessReport(False, "label-residuum", (x, x_prime, p))
        if degree > _fuzzy_edge_bound(g, g_prime, (x, x_prime), values, forward=True):
            return WitnessReport(False, "forward-edge", (x, x_prime))
    return WitnessReport(True)


def is_fuzzy_bisim_flg(Z: FuzzyRelation, g: Flg) -> WitnessReport:
    values = {(x, y): Z(x, y) for x in g.vertices for y in g.vertices}
    for (x, x_prime), degree in Z.entries.items():
        symbols = g.labels[x].support | g.labels[x_prime].support
        for p in symbols:
            if degree > biresiduum(g.labels[x](p), g.labels[x_prime](p)):
                return WitnessReport(False, "label-biresiduum", (x, x_prime, p))
        if degree > _fuzzy_edge_bound(g, g, (x, x_prime), values, forward=True):
            return WitnessReport(False, "forward-edge", (x, x_prime))
        if degree > _fuzzy_edge_bound(g, g, (x, x_prime), values, forward=False):
            return WitnessReport(False, "backward-edge", (x, x_prime))
    return WitnessReport(True)
