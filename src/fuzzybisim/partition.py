"""Crisp partitions and compact fuzzy partitions.

A compact fuzzy partition represents a fuzzy equivalence relation (under the
Goedel semantics) as a degree-annotated tree in linear space: the degree of a
pair of elements is the degree stored at the lowest common ancestor of their
leaves.  The tree is stored as three arrays in pre-order, siblings ordered
by their least element: each node's parent (-1 at the root), its degree,
and a leaf's elements (None at an inner node).  Every producer (the fuzzy
engine's split events, a relation, a JSON document) hands the constructor
such arrays with each parent before its children, and one pass checks the
laws and lays them out canonically; `root`, a tree of `Block`s, is a view
of them built on first use.

The LCA of leaves i < j in pre-order is the shallowest LCA of the consecutive
leaves between them (Bender & Farach-Colton, LATIN 2000).  Between two
consecutive leaves the walk enters one non-first child, whose parent is their
LCA, and ancestors precede descendants in pre-order, so the least pre-order
number over a range of those gaps names the LCA exactly.  A sparse table over
the gaps, built on the first query, answers each degree lookup in O(1), and
`row_groups` reads rows off it in one pass, one list of cells per leaf.  Trees
can be as deep as the number of distinct degrees, so every walk is iterative.
"""
from __future__ import annotations

import reprlib
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .degrees import Degree, ONE, format_degree, parse_degree
from .relations import FuzzyRelation, CrispRelation, relation_laws


class NotAnEquivalenceError(ValueError):
    """Raised when a relation misses one of the fuzzy equivalence laws."""

    def __init__(self, laws: list, witnesses: dict):
        self.laws = laws
        self.witnesses = witnesses
        detail = "; ".join(f"{law} fails at {witnesses.get(law)}" for law in laws)
        super().__init__(f"not a fuzzy equivalence relation: {detail}")


class CrispPartition:
    """Disjoint non-empty blocks covering a finite universe, canonically ordered."""

    def __init__(self, blocks: Iterable[Iterable]):
        canonical = []
        seen = set()
        for block in blocks:
            block = tuple(sorted(set(block)))
            if not block:
                raise ValueError("empty block in partition")
            if not seen.isdisjoint(block):
                raise ValueError("overlapping blocks in partition")
            seen.update(block)
            canonical.append(block)
        canonical.sort(key=lambda b: b[0])
        self.blocks: Tuple[tuple, ...] = tuple(canonical)
        self.universe = frozenset(seen)
        self._block_of = {x: i for i, block in enumerate(self.blocks) for x in block}

    @classmethod
    def from_relation(cls, relation: CrispRelation) -> "CrispPartition":
        """Blocks of an equivalence relation given as a set of pairs: the
        elements grouped by the set each relates to."""
        grouped: Dict[frozenset, list] = {}
        for x in relation.left:
            grouped.setdefault(frozenset(relation.forward(x)), []).append(x)
        return cls(grouped.values())

    def same_block(self, x, y) -> bool:
        return self._block_of[x] == self._block_of[y]

    def to_relation(self) -> CrispRelation:
        pairs = {(x, y) for block in self.blocks for x in block for y in block}
        return CrispRelation(self.universe, self.universe, pairs)

    def refines(self, coarser: "CrispPartition") -> bool:
        """True when every block here lies inside one block of `coarser`."""
        return all(
            len({coarser._block_of[x] for x in block}) == 1 for block in self.blocks
        )

    def text(self) -> str:
        inner = ",".join("{" + ",".join(map(str, block)) + "}" for block in self.blocks)
        return "{" + inner + "}"

    def __eq__(self, other) -> bool:
        return isinstance(other, CrispPartition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return self.text()


class Block:
    """A node of the `root` view of a compact fuzzy partition: a leaf has
    degree 1 and its elements; an inner node has elements None and at least
    two subblocks, each of a higher degree."""

    __slots__ = ("degree", "elements", "subblocks")

    def __init__(self, degree: Degree, elements: Optional[frozenset], subblocks):
        self.degree = degree
        self.elements = elements
        self.subblocks = subblocks

    @property
    def is_crisp(self) -> bool:
        return self.elements is not None


def _flatten(root, node: Callable) -> tuple:
    """The (parent, degrees, elements) arrays of a tree, each parent before its
    children, where ``node(n)`` is n's degree, elements (None unless a leaf)
    and children."""
    parent, degrees, elements, stack = [], [], [], [(root, -1)]
    while stack:
        n, p = stack.pop()
        degree, leaf, children = node(n)
        stack += [(child, len(parent)) for child in children]
        parent.append(p)
        degrees.append(degree)
        elements.append(leaf)
    return parent, degrees, elements


def _json_node(n) -> tuple:
    """A `to_json` node, {"degree", "elements": [names]} or {"degree", "subblocks": [nodes]}."""
    if isinstance(n, dict) and isinstance(n.get("degree"), str):
        elements = n.get("elements")
        if isinstance(elements, list) and all(isinstance(x, str) for x in elements):
            return parse_degree(n["degree"]), frozenset(elements), ()
        if "elements" not in n and isinstance(n.get("subblocks"), list):
            return parse_degree(n["degree"]), None, n["subblocks"]
    raise ValueError(f"malformed compact fuzzy partition node {reprlib.repr(n)}")


class CompactFuzzyPartition:
    """A validated, canonically ordered compact fuzzy partition with LCA queries."""

    def __init__(self, tree):
        """From (parent, degrees, elements) arrays in which the root comes
        first, with parent -1, and each parent precedes its children."""
        parent, degrees, elements = tree
        if not parent:
            raise ValueError("compact fuzzy partition tree has no nodes")
        children: List[list] = [[] for _ in parent]
        for i in range(1, len(parent)):
            children[parent[i]].append(i)
        least, seen = [None] * len(parent), set()  # least element below each node
        for i in reversed(range(len(parent))):  # children before their parent
            leaf, below = elements[i], children[i]
            if leaf is not None:
                if degrees[i] != 1:  # an int operand takes Fraction's fast path
                    raise ValueError("crisp block must have degree 1")
                if not leaf:
                    raise ValueError("crisp block must be non-empty")
                if not seen.isdisjoint(leaf):
                    raise ValueError(f"element {next(iter(seen & leaf))!r} appears in two leaves")
                seen.update(leaf)
                least[i] = min(leaf)
                continue
            if len(below) < 2:
                raise ValueError("fuzzy block needs at least two subblocks")
            # A leaf child has degree 1, so only inner children need a Fraction comparison.
            if not degrees[i] < 1 or any(degrees[k] <= degrees[i] for k in below if elements[k] is None):
                raise ValueError("degrees must strictly increase towards the leaves")
            below.sort(key=least.__getitem__)
            least[i] = least[below[0]]
        if degrees[0] < 0:  # the degrees rise from the root's to 1
            raise ValueError(f"degree {degrees[0]} outside [0, 1]")
        order, number, stack = [], [0] * len(parent), [0]  # number: node -> its pre-order number
        while stack:
            i = stack.pop()
            number[i] = len(order)
            order.append(i)
            stack += reversed(children[i])
        self._parent = [-1, *(number[parent[i]] for i in order[1:])]
        self._degrees = [degrees[i] if elements[i] is None else ONE for i in order]
        self._elements = [elements[i] for i in order]
        self.universe = frozenset(seen)
        self._table: Optional[List[List[int]]] = None

    @cached_property
    def root(self) -> Block:
        """The tree as `Block`s, built on first use."""
        blocks = [Block(d, leaf, [] if leaf is None else ()) for d, leaf in zip(self._degrees, self._elements)]
        for block, p in zip(blocks[1:], self._parent[1:]):
            blocks[p].subblocks.append(block)
        for block in blocks:
            block.subblocks = tuple(block.subblocks)
        return blocks[0]

    def _build_index(self):
        """Leaf positions, and per gap between consecutive leaves the
        pre-order number of their LCA, with a sparse table of range minima."""
        self._position: Dict[object, int] = {}  # element -> its leaf's position
        gaps: List[int] = []
        for i, (p, leaf) in enumerate(zip(self._parent, self._elements)):
            if p != i - 1:  # a non-first child: a first child follows its parent
                gaps.append(p)
            if leaf is not None:
                self._position.update(dict.fromkeys(leaf, len(gaps)))
        self._table = [gaps]
        while 2 ** len(self._table) <= len(gaps):
            prev, half = self._table[-1], 2 ** (len(self._table) - 1)
            self._table.append(list(map(min, prev, prev[half:])))

    # -- queries ------------------------------------------------------

    def _lca(self, i: int, j: int) -> int:
        """Pre-order number of the LCA of the leaves at positions i <= j; for
        i == j, that of the last node in pre-order: a leaf, so of degree 1."""
        if i == j:
            return len(self._degrees) - 1
        k = (j - i).bit_length() - 1
        row = self._table[k]
        a, b = row[i], row[j - (1 << k)]
        return a if a < b else b

    def degree_of(self, x, y) -> Degree:
        """The degree of the lowest common ancestor of the leaves holding x and y."""
        if self._table is None:
            self._build_index()
        try:
            i, j = self._position[x], self._position[y]
        except KeyError as exc:
            raise KeyError(f"element {exc.args[0]!r} not in the partition") from exc
        return self._degrees[self._lca(i, j) if i <= j else self._lca(j, i)]

    def row_groups(self, xs: list, ys: list, cell: Callable, of: Optional[Callable] = None) -> Iterator[tuple]:
        """``(a, cells)`` for each (a, x) of ``xs``: ``cell(b, t)`` for each (b, y) of ``ys`` at a positive
        d = degree_of(x, y), t being d or ``of(d)`` (applied once per node).  Each cell, never empty, is
        made once per (b, node), and the xs of one leaf share one cells list, built in O(|ys|) as running
        minima, outwards from that leaf, of the LCAs of consecutive distinct leaves of the ys."""
        if self._table is None:
            self._build_index()
        position, lca, groups = self._position, self._lca, {}  # groups: leaf position -> its cells
        leaves = sorted({position[y] for _, y in ys})
        links, index = [*map(lca, leaves, leaves[1:])], {p: k for k, p in enumerate(leaves)}
        right = [(b, index[position[y]], {}) for b, y in ys]  # b, its distinct leaf, tree node -> its cell
        degree, low = [of(d) if of else d for d in self._degrees], 0 if self._degrees[0] else 1  # only the root can be 0
        for a, x in xs:
            if (i := position[x]) not in groups:
                r = bisect_left(leaves, i)
                nodes = [*accumulate([lca(leaves[r - 1], i), *reversed(links[: r - 1])], min)][::-1] if r else []
                nodes += accumulate([lca(i, leaves[r]), *links[r:]], min) if r < len(leaves) else ()
                groups[i] = [made.get(n) or made.setdefault(n, cell(b, degree[n]))
                             for b, k, made in right if (n := nodes[k]) >= low]
            yield a, groups[i]

    def to_relation(self) -> FuzzyRelation:
        """The fuzzy equivalence relation this tree encodes (quadratic output)."""
        identity = {x: x for x in self.universe}
        return CfpRelation(self, identity, identity)

    def leaf_partition(self) -> CrispPartition:
        return CrispPartition(leaf for leaf in self._elements if leaf is not None)

    def text(self) -> str:
        out, path, degrees = [], [], self._degrees  # path: the open inner nodes
        for i, (p, leaf) in enumerate(zip(self._parent, self._elements)):
            while path and path[-1] != p:
                out.append("}:" + format_degree(degrees[path.pop()]))
            out.append("{" if p == i - 1 else ",{")
            if leaf is None:
                path.append(i)
            else:
                out.append(",".join(map(str, sorted(leaf))) + "}:1")
        out += ["}:" + format_degree(degrees[i]) for i in reversed(path)]
        return "".join(out)

    def to_json(self) -> dict:
        nodes: List[dict] = []
        for p, d, leaf in zip(self._parent, self._degrees, self._elements):
            node = {"degree": format_degree(d)}
            if leaf is None:
                node["subblocks"] = []
            else:
                node["elements"] = sorted(map(str, leaf))
            if p >= 0:
                nodes[p]["subblocks"].append(node)
            nodes.append(node)
        return nodes[0]

    @classmethod
    def from_json(cls, data: dict) -> "CompactFuzzyPartition":
        return cls(_flatten(data, _json_node))

    def __eq__(self, other) -> bool:
        return isinstance(other, CompactFuzzyPartition) and (self._parent, self._degrees, self._elements) == (
            other._parent, other._degrees, other._elements)

    def __hash__(self) -> int:
        return hash(self.text())

    def __repr__(self) -> str:
        return self.text()


class CfpRelation(FuzzyRelation):
    """The fuzzy relation that a compact fuzzy partition encodes between two
    universes, each mapped into its elements by an injection (a dict).  Its
    sorted rows come off the LCA index in one pass; ``entries`` on first use."""

    def __init__(self, cfp: CompactFuzzyPartition, inject_left: dict, inject_right: dict):
        self.cfp, self.inject_left, self.inject_right = cfp, inject_left, inject_right
        self.left, self.right = frozenset(inject_left), frozenset(inject_right)

    def row_groups(self, cell: Callable, of: Optional[Callable] = None) -> Iterator[tuple]:
        """`CompactFuzzyPartition.row_groups` of the two universes, each sorted by name."""
        return self.cfp.row_groups(sorted(self.inject_left.items()), sorted(self.inject_right.items()), cell, of)

    def positive_rows(self, of: Optional[Callable] = None) -> list:  # the `row_groups` as [a, b, d] lists
        return [[a, b, d] for a, cells in self.row_groups(lambda *cell: cell, of) for b, d in cells]

    @cached_property
    def entries(self) -> Dict[tuple, Degree]:
        return {(x, y): d for x, y, d in self.positive_rows()}


def cfp_from_relation(r: FuzzyRelation) -> CompactFuzzyPartition:
    """Build the compact fuzzy partition of a fuzzy equivalence relation.

    The relation is checked first; a violation raises NotAnEquivalenceError
    naming the broken law and a witness tuple.
    """
    report = relation_laws(r)
    if not report.is_equivalence:
        raise NotAnEquivalenceError(report.violated(), report.witnesses)
    return CompactFuzzyPartition(_flatten(sorted(r.left), lambda group: _split(group, r)))


def _split(elements: list, r: FuzzyRelation) -> tuple:
    """Elements as a `_flatten` node: their least degree, then any classes above it."""
    degree = min(
        (r(x, y) for i, x in enumerate(elements) for y in elements[i + 1 :]),
        default=ONE,
    )
    if degree == ONE:
        return ONE, frozenset(elements), ()
    # Classes of x ~ y iff r(x, y) > degree; transitivity makes one scan enough.
    classes: Dict[object, list] = {}  # each class under its first element
    for x in elements:
        classes.setdefault(next((c for c in classes if r(c, x) > degree), x), []).append(x)
    return degree, None, classes.values()
