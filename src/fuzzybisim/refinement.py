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

No bisimulation of a graph built by ``to_flg`` relates a state with a
distribution (see ``graph``), so the kernel starts from that split, given the
state count: the state ids as block 0 and the rest as block 1, both queued
with every member marked, and the event (1, 0).  The engines key each kind apart.

A map watches the ids below a bound, all by default, and counts the watched
ids that share their block; ``refine`` returns when the count reaches 0, as
the blocks of watched ids are then final.  A system query watches the state ids.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .graph import Flg


class RefinableMap:
    """The vertex ids 0..len(preds)-1 in blocks: v's block id ``assignment[v]``,
    the members ``blocks[bid]`` (a split appends one), a dirty queue, block
    id -> marked members, and ``shared``, the number of ids below ``watched``
    not alone in their block.  A fresh map queues the ids below ``states`` and
    the rest, all marked, as blocks 0 and 1 (one block if either is empty)."""

    def __init__(self, preds: list, watched: Optional[int] = None, states: int = 0):
        ids = range(len(preds))
        self.watched = len(preds) if watched is None else min(watched, len(preds))
        parts = [part for part in (ids[:states], ids[states:]) if part] or [ids]
        self.shared = sum(len(part) > 1 and len(range(part.start, min(part.stop, self.watched))) for part in parts)
        self.assignment: List[int] = [bid for bid, part in enumerate(parts) for _ in part]
        self.blocks: List[Set[int]] = [set(part) for part in parts]
        self.preds = preds
        self.dirty: Dict[int, Set[int]] = defaultdict(set, {bid: set(part) for bid, part in enumerate(parts)})
        self.events: List[Tuple[int, int]] = [(1, 0)] if len(parts) == 2 else []

    def mark(self, vertices: Iterable[int]):
        """Queue each vertex's block with the vertex marked; never a block of one."""
        assignment, blocks, dirty = self.assignment, self.blocks, self.dirty
        for v in vertices:
            bid = assignment[v]
            if len(blocks[bid]) > 1:
                dirty[bid].add(v)

    def split_block(self, bid: int, key_of: Callable[[int], object], marked: Set[int]) -> bool:
        """Split a block by keying its ``marked`` members and one other member;
        returns True when it split."""
        members = self.blocks[bid]
        if len(members) == 1:
            return False
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
        assignment, blocks, watched = self.assignment, self.blocks, self.watched
        for group in moved:
            new_bid = len(blocks)
            blocks.append(set(group))
            members.difference_update(group)
            for v in group:
                assignment[v] = new_bid
            self.events.append((new_bid, bid))
            self.shared -= len(group) == 1 and group[0] < watched  # a watched id left alone
        self.shared -= len(members) == 1 and min(members) < watched
        preds = self.preds
        self.mark([p for group in moved for v in group for p in preds[v]])
        return True

    def refine(self, key_of: Callable[[int], object], trace=None):
        """Split queued blocks until the queue is empty or every watched id stands alone.

        The unmarked members of every block must share one key under
        ``key_of``; the result is then the coarsest refinement of the
        current partition on which ``key_of`` is uniform, or one that agrees
        with it on the watched ids.  Each split keeps the largest group's id
        and marks the predecessors of moved vertices.
        """
        while self.dirty and self.shared:
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
