"""Greatest crisp bisimulation of a graph as a partition, and the
system-level pipeline (transform, refine, keep the state blocks).

The engine refines one block by a single key: the vertex label, and the
(edge symbol, target block) -> max degree signature, on degree ranks.  The
coarsest stable refinement is unique, so this is the same partition as
splitting by labels first and then by signatures.  ``crisp_partition_oracle``
is its naive twin: the definitional fixpoint, then the same restriction.
"""
from __future__ import annotations

import sys

from .graph import Flg, to_flg
from .model import Nfts
from .partition import CrispPartition
from .refinement import RefinableMap, adjacency
from . import oracle


def _trace(message: str):
    print(f"[crisp] {message}", file=sys.stderr)


def greatest_crisp_bisim_partition_flg(g: Flg, verbose: bool = False) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a finite graph."""
    vertices, out, preds, labels = adjacency(g, g.degree_pool())
    label_key = [frozenset(label.items()) for label in labels]
    state = RefinableMap(range(len(vertices)), preds)
    assignment = state.assignment

    def key(x):
        best = {}
        for r, y, rk in out[x]:
            edge = (r, assignment[y])
            if best.get(edge, -1) < rk:
                best[edge] = rk
        return label_key[x], frozenset(best.items())

    state.refine(key, trace=_trace if verbose else None)
    if verbose:
        _trace(f"stable with {state.block_count()} blocks")
    return CrispPartition([vertices[x] for x in block] for block in state.blocks.values())


def crisp_partition_system(model: Nfts, verbose: bool = False) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a transition system.

    Builds the corresponding graph, partitions its vertices and keeps the
    blocks made of state vertices.  Labeled systems go through the same
    pipeline with their labels carried onto the graph.
    """
    graph_partition = greatest_crisp_bisim_partition_flg(to_flg(model), verbose)
    if verbose:
        _trace(f"graph partition: {graph_partition.text()}")
    return restrict_to_states(graph_partition)


def crisp_partition_oracle(model: Nfts) -> CrispPartition:
    """``crisp_partition_system`` by the naive graph fixpoint."""
    return restrict_to_states(CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(to_flg(model))))


def restrict_to_states(graph_partition: CrispPartition) -> CrispPartition:
    """Keep the blocks of state vertices, unwrapped to state identifiers."""
    kept = []
    for block in graph_partition.blocks:
        if block[0].is_state:
            kept.append([v.key for v in block])
    return CrispPartition(kept)
