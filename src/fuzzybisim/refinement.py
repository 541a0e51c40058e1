"""Worklist-driven partition refinement over fuzzy labeled graphs.

The bisimulation engines read a graph through ``adjacency``: dense vertex
ids, id i < |S| the state ``names[i]``, and degrees as ranks in the graph's
sorted pool.  The Goedel operators only compare degrees, so ranks are exact.
``to_flg`` fixes the ids and ranks once per query, and ``adjacency`` returns
the graph's stored arrays.  The kernel partitions the ids.

Both bisimulation engines split blocks by per-vertex keys computed against
the current partition (Paige and Tarjan, SIAM J. Comput. 1987; Valmari,
"Bisimilarity minimization in O(m log n) time", 2009).  A block is queued
with its marked members, the ones whose key may have changed; the unmarked
members of every block share one key, so a split keys the marked members
and one representative of the rest.  The largest group keeps the block id
and every other group gets a new one.  If a marked group is the largest,
the unmarked rest moves with its representative's group, and is smaller
than the marked group, so a split costs O(marked).  Keys refer to blocks by
id, so a vertex keeps its key unless it is a predecessor of a moved vertex;
those predecessors are marked.  Each split is recorded as a (new block,
parent block) event, from which the fuzzy engine builds its tree.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Set, Tuple

from .graph import Flg


class RefinableMap:
    """The vertex ids 0..len(preds)-1 in blocks: v's block id ``assignment[v]``,
    the members ``blocks[bid]`` (a split appends one), and a dirty queue, block
    id -> marked members, holding the fresh map's one block all marked."""

    def __init__(self, preds: list):
        self.assignment: List[int] = [0] * len(preds)
        self.blocks: List[Set[int]] = [set(range(len(preds)))]
        self.preds = preds
        self.dirty: Dict[int, Set[int]] = defaultdict(set, {0: set(self.blocks[0])})
        self.events: List[Tuple[int, int]] = []

    def mark(self, vertices: Iterable[int]):
        """Queue each vertex's block with the vertex marked; never a block of one."""
        assignment, blocks, dirty = self.assignment, self.blocks, self.dirty
        for v in vertices:
            bid = assignment[v]
            if len(blocks[bid]) > 1:
                dirty[bid].add(v)

    def split_block(self, bid: int, key_of: Callable[[int], object], marked=None) -> bool:
        """Split a block by keying its ``marked`` members (all when None) and one
        other member; returns True when it split."""
        members = self.blocks[bid]
        if len(members) == 1:
            return False
        marked = members if marked is None else marked
        rest = len(members) - len(marked)
        groups: Dict[object, list] = {}
        for v in marked:
            groups.setdefault(key_of(v), []).append(v)
        if rest:  # the unmarked members, keyed through one representative
            rest_group = groups.setdefault(key_of(next(v for v in members if v not in marked)), [])
        if len(groups) < 2:
            return False
        kept = max(groups.values(), key=len)
        if rest and len(rest_group) + rest > len(kept):
            kept = rest_group
        elif rest:  # the rest moves with its group, which is smaller than kept
            rest_group += [v for v in members if v not in marked]
        moved = [group for group in groups.values() if group is not kept]
        assignment, blocks = self.assignment, self.blocks
        for group in moved:
            new_bid = len(blocks)
            blocks.append(set(group))
            members.difference_update(group)
            for v in group:
                assignment[v] = new_bid
            self.events.append((new_bid, bid))
        preds = self.preds
        self.mark([p for group in moved for v in group for p in preds[v]])
        return True

    def refine(self, key_of: Callable[[int], object], trace=None):
        """Split queued blocks until the queue is empty.

        The unmarked members of every block must share one key under
        ``key_of``; the result is then the coarsest refinement of the
        current partition on which ``key_of`` is uniform.  Each split keeps
        the largest group's id and marks the predecessors of moved vertices.
        """
        while self.dirty:
            bid, marked = self.dirty.popitem()
            if self.split_block(bid, key_of, marked) and trace is not None:
                trace(f"block {bid} split; {len(self.blocks)} blocks now")

    def snapshot(self) -> List[int]:
        return list(self.assignment)


def adjacency(g: Flg):
    """Dense-id adjacency on the ranks of ``g.pool`` for refinement runs: the
    out-edges of vertex id i as ``(symbol, target id, rank)``, the predecessor
    ids of vertex id i, the label id of vertex id i, and the distinct labels
    as symbol -> rank maps.  These are the graph's stored lists."""
    return g.out, g.preds, g.label_ids, g.label_maps
