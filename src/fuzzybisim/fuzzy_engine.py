"""Greatest fuzzy bisimulation (Goedel semantics) of a graph as a compact
fuzzy partition, and the system-level pipeline.

The Goedel operators only compare degrees, so the engine works on the dense
vertex ids and degree ranks of ``refinement.adjacency``: rank i is the i-th
threshold of the sorted degree pool, with 1 always included.  It sweeps the
levels i = 0, 1, ... in ascending order.  At level i two vertices stay together iff
their labels agree, with every rank >= i in one bucket, and they reach the
same blocks over edges of rank >= i.  Both conditions form one key; since
the coarsest stable refinement is unique, this gives the same partition as
splitting by labels first and then refining.

The partition left by level i-1 is stable for its key, and at level i the
key changes only for vertices with an out-edge or a label at rank i-1.  So
level 0 queues the one initial block, and level i > 0 queues only the
blocks of those vertices; each split then re-queues as `refinement`
describes.

The chain of partitions is the chain of cuts of the greatest fuzzy
bisimulation.  The tree is built from the split events: a block that splits
at level i becomes a node of degree thresholds[i-1] (0 at level 0), and
later splits of its pieces at the same level add siblings under that node.

``fuzzy_partition_oracle`` is the engine's naive twin: the definitional
fixpoint of the graph, then the same restriction to states.
"""
from __future__ import annotations

import sys

from .degrees import ZERO, ONE, format_degree
from .graph import Flg, to_flg
from .model import Nfts
from .partition import Block, CompactFuzzyPartition, cfp_from_relation, fold_tree
from .refinement import RefinableMap, adjacency
from . import oracle


def _trace(message: str):
    print(f"[fuzzy] {message}", file=sys.stderr)


def greatest_fuzzy_bisim_cfp_flg(g: Flg, verbose: bool = False) -> CompactFuzzyPartition:
    """Compact fuzzy partition of the greatest fuzzy bisimulation of a graph."""
    thresholds = sorted(set(g.degree_pool()) | {ONE})
    vertices, edges, preds, labels = adjacency(g, thresholds)
    # touched[i]: vertices whose key may change at level i.
    touched = [[] for _ in range(len(thresholds) + 1)]
    for x in range(len(vertices)):
        for rk in {rk for _, _, rk in edges[x]} | set(labels[x].values()):
            touched[rk + 1].append(x)
    state = RefinableMap(range(len(vertices)), preds)
    assignment = state.assignment
    levels: list = []

    for level, threshold in enumerate(thresholds):

        def key(x):
            return (
                frozenset((p, rk if rk < level else level) for p, rk in labels[x].items()),
                frozenset((r, assignment[y]) for r, y, rk in edges[x] if rk >= level),
            )

        state.dirty.update(assignment[x] for x in touched[level])
        state.refine(key)
        levels += [level] * (len(state.events) - len(levels))
        if verbose:
            _trace(f"threshold {format_degree(threshold)}: {state.block_count()} blocks")

    return CompactFuzzyPartition(_tree_from_events(state, levels, vertices, thresholds))


def _tree_from_events(state: RefinableMap, levels: list, vertices: list, thresholds: list) -> Block:
    """Nest the split events of the sweep, tagged with their levels, into a tree."""
    root = Block(ONE)
    node_of = {0: root}  # block id -> the leaf holding its current members
    born = {0: -1}  # block id -> level at which that leaf was made
    internal = []
    for level, (new, old) in zip(levels, state.events):
        if born[old] < level:
            node = node_of[old]
            node.degree = thresholds[level - 1] if level else ZERO
            node.subblocks = []
            internal.append(node)
            node_of[old] = _add_leaf(node)
            born[old] = level
        node_of[new] = _add_leaf(node_of[old].parent)
        born[new] = level
    for bid, members in state.blocks.items():
        node_of[bid].elements = frozenset(vertices[x] for x in members)
    for node in internal:
        node.subblocks = tuple(node.subblocks)
    return root


def _add_leaf(parent: Block) -> Block:
    leaf = Block(ONE)
    leaf.parent = parent
    parent.subblocks.append(leaf)
    return leaf


def fuzzy_partition_system(model: Nfts, verbose: bool = False) -> CompactFuzzyPartition:
    """Compact fuzzy partition of the greatest fuzzy bisimulation of a system."""
    graph_cfp = greatest_fuzzy_bisim_cfp_flg(to_flg(model), verbose)
    if verbose:
        _trace(f"graph partition: {graph_cfp.text()}")
    return _state_cfp(model, graph_cfp)


def fuzzy_partition_oracle(model: Nfts) -> CompactFuzzyPartition:
    """``fuzzy_partition_system`` by the naive graph fixpoint."""
    return _state_cfp(model, cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(to_flg(model))))


def _state_cfp(model: Nfts, graph_cfp: CompactFuzzyPartition) -> CompactFuzzyPartition:
    """The state part of a graph partition.

    With no transitions the graph partition over V = S is returned directly;
    otherwise the top-level state blocks are collected under a degree-0 root
    (unless there is exactly one of them).
    """
    if not model.transitions:
        return CompactFuzzyPartition(_strip_vertices(graph_cfp.root))
    kept = [
        _strip_vertices(block)
        for block in graph_cfp.top_blocks()
        if block.any_element().is_state
    ]
    if len(kept) == 1:
        return CompactFuzzyPartition(kept[0])
    return CompactFuzzyPartition(Block(ZERO, subblocks=tuple(kept)))


def _strip_vertices(block: Block) -> Block:
    """Rebuild a subtree with state vertices unwrapped to state identifiers."""

    def strip(b: Block, children: list) -> Block:
        if b.is_crisp:
            return Block(b.degree, elements=frozenset(v.key for v in b.elements))
        return Block(b.degree, subblocks=tuple(children))

    return fold_tree(block, strip)
