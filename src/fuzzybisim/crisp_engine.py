"""Greatest crisp bisimulation of a graph as a partition, and the
system-level pipeline (transform, refine, keep the state blocks)."""
from __future__ import annotations

import sys
from dataclasses import dataclass

from .graph import Flg, to_flg
from .model import Nfts
from .partition import CrispPartition
from .refinement import RefinableMap, adjacency
from . import oracle

STRATEGIES = ("efficient-refinement", "baseline-fixpoint")


@dataclass
class CrispEngineConfig:
    strategy: str = "efficient-refinement"
    verbose: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def trace(self, message: str):
        if self.verbose:
            print(f"[crisp] {message}", file=sys.stderr)


def greatest_crisp_bisim_partition_flg(g: Flg, config: CrispEngineConfig | None = None) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a finite graph.

    Both strategies return the identical partition; the efficient one splits
    blocks by (edge label, target block) -> max degree signatures.
    """
    config = config or CrispEngineConfig()
    if config.strategy == "baseline-fixpoint":
        return CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))
    return _refine_crisp(g, config)


def _refine_crisp(g: Flg, config: CrispEngineConfig) -> CrispPartition:
    vertices, out, preds = adjacency(g)
    # Degrees are compared through their rank in the sorted pool; signature
    # maps stay small and hashing avoids repeated Fraction comparisons.
    pool = sorted(set(g.edges.values()))
    rank = {d: i for i, d in enumerate(pool)}
    ranked_out = [[(r, y, rank[d]) for r, y, d in edges] for edges in out]
    state = RefinableMap(range(len(vertices)), preds)
    state.split_all(lambda x: g.labels[vertices[x]])
    config.trace(f"label grouping: {state.block_count()} initial blocks")

    assignment = state.assignment

    def signature(x):
        best = {}
        for r, y, rk in ranked_out[x]:
            key = (r, assignment[y])
            if best.get(key, -1) < rk:
                best[key] = rk
        return frozenset(best.items())

    state.mark_all_dirty()
    state.refine(signature, trace=config.trace if config.verbose else None)
    config.trace(f"stable with {state.block_count()} blocks")
    return CrispPartition([vertices[x] for x in block] for block in state.blocks.values())


def crisp_partition_system(model: Nfts, config: CrispEngineConfig | None = None) -> CrispPartition:
    """Partition of the greatest crisp bisimulation of a transition system.

    Builds the corresponding graph, partitions its vertices and keeps the
    blocks made of state vertices.  Labeled systems go through the same
    pipeline with their labels carried onto the graph.
    """
    config = config or CrispEngineConfig()
    graph_partition = greatest_crisp_bisim_partition_flg(to_flg(model), config)
    if config.verbose:
        config.trace(f"graph partition: {graph_partition.text()}")
    return restrict_to_states(graph_partition)


def restrict_to_states(graph_partition: CrispPartition) -> CrispPartition:
    """Keep the blocks of state vertices, unwrapped to state identifiers."""
    kept = []
    for block in graph_partition.blocks:
        if block[0].is_state:
            kept.append([v.key for v in block])
    return CrispPartition(kept)
