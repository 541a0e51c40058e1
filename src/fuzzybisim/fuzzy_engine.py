"""Greatest fuzzy bisimulation (Goedel semantics) of a graph as a compact
fuzzy partition, and the system-level pipeline.

The Goedel operators only compare degrees, so the engine works on the dense
vertex ids and degree ranks of ``refinement.adjacency``: rank i is the i-th
threshold of the sorted degree pool, with 1 always included.  It sweeps the
levels i = 0, 1, ... in ascending order.  At level i two vertices stay together iff
their labels agree, with every rank >= i in one bucket, and they reach the
same blocks over edges of rank >= i.  Both conditions form one key; since
the coarsest stable refinement is unique, this gives the same partition as
splitting by labels first and then refining.  ``to_flg`` interns the labels
once per graph, so a level makes the label part of a key once per label id,
on first use.

The partition left by level i-1 is stable for its key, and at level i the
key changes only for vertices with an out-edge or a label at rank i-1.  So
level 0 keys the one initial block, and level i > 0 marks only those
vertices: the key of every other vertex changes by one shared bijection, so
the unmarked members of each block still share one key (see `refinement`).

The chain of partitions is the chain of cuts of the greatest fuzzy
bisimulation.  The tree is built from the split events as the parent array
that the partition stores: a block that splits at level i becomes a node of
degree thresholds[i-1] (0 at level 0), and later splits of its pieces at the
same level add siblings under that node.  The system's tree is built from
the events of the state blocks (of ids i < |S|, named ``names[i]``) alone.

``fuzzy_partition_oracle`` is the engine's naive twin: the definitional
fixpoint of the graph, restricted to pairs of states.
"""
from __future__ import annotations

import sys

from .degrees import ZERO, ONE, format_degree
from .graph import Flg, on_states, to_flg
from .model import Nfts
from .partition import CompactFuzzyPartition, cfp_from_relation
from .refinement import RefinableMap, adjacency
from . import oracle


def _trace(message: str):
    print(f"[fuzzy] {message}", file=sys.stderr)


def greatest_fuzzy_bisim_cfp_flg(g: Flg, verbose: bool = False, *, states: bool = False) -> CompactFuzzyPartition:
    """Compact fuzzy partition of the greatest fuzzy bisimulation of a graph,
    or with ``states`` (for a graph built by ``to_flg``) of its states.
    ``verbose`` traces the blocks per threshold, then the graph partition."""
    thresholds = g.pool  # holds 1, the degree of the state mark
    edges, preds, label_ids, label_maps = adjacency(g)
    ranks_of = [set(label.values()) for label in label_maps]
    # touched[i]: vertices whose key may change at level i.
    touched = [[] for _ in range(len(thresholds) + 1)]
    for x in range(len(edges)):
        for rk in {rk for _, _, rk in edges[x]} | ranks_of[label_ids[x]]:
            touched[rk + 1].append(x)
    state = RefinableMap(preds)
    assignment = state.assignment
    levels: list = []

    for level, threshold in enumerate(thresholds):
        table = [None] * len(label_maps)  # label id -> its key part at this level, made on first use

        def key(x):
            i = label_ids[x]
            if table[i] is None:
                table[i] = frozenset([(p, min(rk, level)) for p, rk in label_maps[i].items()])
            return table[i], frozenset([(r, assignment[y]) for r, y, rk in edges[x] if rk >= level])

        state.mark(touched[level])
        state.refine(key)
        levels += [level] * (len(state.events) - len(levels))
        if verbose:
            _trace(f"threshold {format_degree(threshold)}: {len(state.blocks)} blocks")

    if verbose or not states:
        graph = CompactFuzzyPartition(_tree_from_events(state, levels, thresholds, g.by_id))
        if verbose:
            _trace(f"graph partition: {graph.text()}")
        if not states:
            return graph
    return CompactFuzzyPartition(_tree_from_events(state, levels, thresholds, g.names))


def _tree_from_events(state: RefinableMap, levels: list, thresholds: list, names) -> tuple:
    """Nest the sweep's split events, tagged with their levels, into the
    (parent, degrees, elements) arrays of a tree of the blocks of ids below
    ``len(names)``, ``kept``, with ``names[x]`` in the leaves, parents first.
    Each block id has a leaf (``node_of``) under a node (``parent_of``); its
    first split at a level turns its leaf into a node of that level's degree,
    with a new leaf for it and for each piece split off then.  The state mark
    splits states from distributions at level 0, so only the root can lose
    subblocks to ``kept``; left with one, it gives way."""
    kept = {bid for bid, members in enumerate(state.blocks) if next(iter(members)) < len(names)}
    parent, degrees = [-1], [ONE]
    node_of, parent_of = {0: 0}, {0: -1}
    born = {0: -1}  # block id -> level at which its leaf was made
    for level, (new, old) in zip(levels, state.events):
        if new not in kept:
            continue
        if born[old] < level:
            node = parent_of[old] = node_of[old]
            degrees[node] = thresholds[level - 1] if level else ZERO
            if old in kept:
                node_of[old] = len(parent)
                parent.append(node)
                degrees.append(ONE)
            born[old] = level
        node_of[new], parent_of[new], born[new] = len(parent), parent_of[old], level
        parent.append(parent_of[old])
        degrees.append(ONE)
    elements = [None] * len(parent)
    for bid in kept:
        elements[node_of[bid]] = frozenset(map(names.__getitem__, state.blocks[bid]))
    if parent.count(0) == 1:  # the root's one subblock is node 1
        return [-1, *(p - 1 for p in parent[2:])], degrees[1:], elements[1:]
    return parent, degrees, elements


def fuzzy_partition_system(model: Nfts, verbose: bool = False) -> CompactFuzzyPartition:
    """Compact fuzzy partition of the greatest fuzzy bisimulation of a system."""
    return greatest_fuzzy_bisim_cfp_flg(to_flg(model), verbose, states=True)


def fuzzy_partition_oracle(model: Nfts) -> CompactFuzzyPartition:
    """``fuzzy_partition_system`` by the naive graph fixpoint, restricted to
    the pairs of states before the tree is built."""
    return cfp_from_relation(on_states(model, model, oracle.gfp_fuzzy_bisim_flg(to_flg(model)).entries))
