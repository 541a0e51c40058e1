"""Helpers that only the tests call: random specs for the differential
batteries, graph vertices by kind, and the relation views (converse, cut,
the relation a partition encodes) that the tests compare results through.

This module imports no pytest, so that ``tests/test_cli_golden.py`` can run
as a script where pytest is not installed.
"""
from __future__ import annotations

import random
from typing import Iterable, Optional

from fuzzybisim import CrispPartition, CrispRelation, FuzzyRelation, GenSpec, ONE, Vertex
from fuzzybisim.graph import _DIST, _STATE
from fuzzybisim.partition import CfpRelation


def random_spec(rng: random.Random, max_states: int, max_actions: int = 2, max_pool: int = 7,
                labeled: Optional[bool] = None) -> GenSpec:
    """A small random GenSpec, used by the differential test batteries."""
    states = rng.randint(1, max_states)
    labeled = rng.random() < 0.5 if labeled is None else labeled
    return GenSpec(
        state_count=states,
        action_count=rng.randint(1, max_actions),
        distributions_per_state_action=(0, rng.randint(1, 2)),
        support_size=(1, max(1, min(states, rng.randint(1, 3)))),
        value_pool_size=rng.randint(3, max_pool),
        label_alphabet_size=rng.randint(1, 2) if labeled else 0,
        label_density=0.6 if labeled else 0.0,
        seed=rng.getrandbits(32),
    )


def state_vertex(state) -> Vertex:
    return Vertex(_STATE, state)


def dist_vertex(index: int) -> Vertex:
    return Vertex(_DIST, index)


def full_fuzzy_relation(universe: Iterable) -> FuzzyRelation:
    universe = frozenset(universe)
    return FuzzyRelation(universe, universe, {(x, y): ONE for x in universe for y in universe})


def converse(r):
    """The converse of a crisp or fuzzy relation."""
    if isinstance(r, CrispRelation):
        return CrispRelation(r.right, r.left, {(y, x) for x, y in r.pairs})
    return FuzzyRelation(r.right, r.left, {(y, x): d for (x, y), d in r.entries.items()})


def cut(r: FuzzyRelation, threshold) -> CrispRelation:
    """The crisp relation of pairs with degree >= threshold."""
    kept = {pair for pair, d in r.entries.items() if d >= threshold}
    return CrispRelation(r.left, r.right, kept)


def to_relation(partition):
    """The equivalence relation of a crisp partition, or the fuzzy one that a
    compact fuzzy partition encodes (quadratic output)."""
    if isinstance(partition, CrispPartition):
        pairs = {(x, y) for block in partition.blocks for x in block for y in block}
        return CrispRelation(partition.universe, partition.universe, pairs)
    identity = {x: x for x in partition.universe}
    return CfpRelation(partition, identity, identity)
