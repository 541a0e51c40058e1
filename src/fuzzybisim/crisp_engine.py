"""Greatest crisp bisimulation of a graph as a partition, and the
system-level pipeline (transform, refine, keep the state blocks).

The engine refines the kernel's seeded blocks of states and distributions
by one key per kind, on degree ranks: a state's label id and (action, target
block) set, with no max as every action edge has the top rank, and a
distribution's target block -> max rank signature.  The coarsest stable
refinement is unique, so this is the same partition as splitting by labels
first and then by signatures.  The blocks hold vertex
ids, and a state block only ids i < |S|: a system query builds one
partition, of the states ``names[i]``, straight from those blocks.  The
graph partition, of ``Vertex`` objects, is built only for the graph-level
API and ``--verbose``, which refine the whole graph; a system query stops once
every state stands alone (see `refinement`).  ``crisp_partition_oracle`` is the
naive twin.
"""
from __future__ import annotations

import sys

from .graph import Flg, on_states, to_flg
from .model import Nfts
from .partition import CrispPartition
from .refinement import RefinableMap, adjacency
from . import oracle


def _trace(message: str):
    print(f"[crisp] {message}", file=sys.stderr)


def greatest_crisp_bisim_partition_flg(g: Flg, verbose: bool = False, *, states: bool = False) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a finite graph, or with
    ``states`` (for a graph built by ``to_flg``) of its states.  ``verbose``
    traces the splits, then the graph partition."""
    out, preds, label_ids, _ = adjacency(g)
    n = len(g.names)
    state = RefinableMap(preds, n if states and not verbose else None, n)
    assignment = state.assignment

    def key(x):
        if x < n:  # every action edge has the top rank
            return label_ids[x], frozenset([(r, assignment[y]) for r, y, _ in out[x]])
        best = {}
        for _, y, rk in out[x]:
            if best.get(assignment[y], -1) < rk:
                best[assignment[y]] = rk
        return frozenset(best.items())

    state.refine(key, trace=_trace if verbose else None)
    if verbose:
        _trace(f"stable with {len(state.blocks)} blocks")
    graph = restrict_to_states(state.blocks, g.by_id) if verbose or not states else None
    if verbose:
        _trace(f"graph partition: {graph.text()}")
    return restrict_to_states(state.blocks, g.names) if states else graph


def crisp_partition_system(model: Nfts, verbose: bool = False) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a transition system, labeled
    or not: the blocks of state vertices of its graph's partition."""
    return greatest_crisp_bisim_partition_flg(to_flg(model), verbose, states=True)


def crisp_partition_oracle(model: Nfts) -> CrispPartition:
    """``crisp_partition_system`` by the naive graph fixpoint, restricted to the states."""
    return CrispPartition.from_relation(on_states(model, model, oracle.gfp_crisp_bisim_flg(to_flg(model)).pairs))


def restrict_to_states(blocks, names) -> CrispPartition:
    """The partition of the states ``names`` (of all vertices, given ``by_id``) from the
    blocks of vertex ids that hold one below ``len(names)`` (a block never mixes the kinds)."""
    return CrispPartition([names[x] for x in block] for block in blocks if next(iter(block)) < len(names))
