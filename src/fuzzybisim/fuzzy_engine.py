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
level 0 keys the one initial block, and level i > 0 marks only those
vertices: the key of every other vertex changes by one shared bijection, so
the unmarked members of each block still share one key (see `refinement`).

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
    thresholds = g.degree_pool()  # holds 1, the degree of the state mark
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

        state.mark(touched[level])
        state.refine(key)
        levels += [level] * (len(state.events) - len(levels))
        if verbose:
            _trace(f"threshold {format_degree(threshold)}: {state.block_count()} blocks")

    return CompactFuzzyPartition(_tree_from_events(state, levels, vertices, thresholds))


def _tree_from_events(state: RefinableMap, levels: list, vertices: list, thresholds: list) -> Block:
    """Nest the split events of the sweep, tagged with their levels, into a
    tree.  Each block id has a leaf for its members (``node_of``) hanging from
    a node (``parent_of``).  A block's first split at a level turns its leaf
    into a node of that level's degree, under which every piece split off at
    that level, and the block itself, get a new leaf."""
    root = Block(ONE)
    node_of, parent_of = {0: root}, {0: None}
    born = {0: -1}  # block id -> level at which its leaf was made
    internal = []
    for level, (new, old) in zip(levels, state.events):
        if born[old] < level:
            node = parent_of[old] = node_of[old]
            node.degree = thresholds[level - 1] if level else ZERO
            node_of[old] = Block(ONE)
            node.subblocks = [node_of[old]]
            internal.append(node)
            born[old] = level
        parent_of[new] = parent_of[old]
        node_of[new] = Block(ONE)
        parent_of[new].subblocks.append(node_of[new])
        born[new] = level
    for bid, members in state.blocks.items():
        node_of[bid].elements = frozenset(vertices[x] for x in members)
    for node in internal:
        node.subblocks = tuple(node.subblocks)
    return root


def fuzzy_partition_system(model: Nfts, verbose: bool = False) -> CompactFuzzyPartition:
    """Compact fuzzy partition of the greatest fuzzy bisimulation of a system."""
    graph_cfp = greatest_fuzzy_bisim_cfp_flg(to_flg(model), verbose)
    if verbose:
        _trace(f"graph partition: {graph_cfp.text()}")
    return _state_cfp(graph_cfp)


def fuzzy_partition_oracle(model: Nfts) -> CompactFuzzyPartition:
    """``fuzzy_partition_system`` by the naive graph fixpoint."""
    return _state_cfp(cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(to_flg(model))))


def _state_cfp(graph_cfp: CompactFuzzyPartition) -> CompactFuzzyPartition:
    """The state part of a graph partition: the root's subblocks that hold
    states (or the root itself when it is crisp) under the root's degree, or
    the only one.  The state mark keeps each subblock pure and makes the root
    degree 0 whenever distributions exist; their subtrees are never walked."""
    root = graph_cfp.root
    kept = [
        _strip_vertices(block)
        for block in (root.subblocks or (root,))
        if block.any_element().is_state
    ]
    if len(kept) == 1:
        return CompactFuzzyPartition(kept[0])
    return CompactFuzzyPartition(Block(root.degree, subblocks=tuple(kept)))


def _strip_vertices(block: Block) -> Block:
    """Rebuild a subtree with state vertices unwrapped to state identifiers."""

    def strip(b: Block, children: list) -> Block:
        if b.is_crisp:
            return Block(b.degree, elements=frozenset(v.key for v in b.elements))
        return Block(b.degree, subblocks=tuple(children))

    return fold_tree(block, strip)
