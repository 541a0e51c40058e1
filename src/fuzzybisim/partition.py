"""Crisp partitions and compact fuzzy partitions.

A compact fuzzy partition represents a fuzzy equivalence relation (under the
Goedel semantics) as a degree-annotated tree in linear space: the degree of a
pair of elements is the degree stored at the lowest common ancestor of their
leaves.  The LCA of leaves i < j in depth-first order is the shallowest
LCA of the consecutive leaves between them (Bender & Farach-Colton, LATIN
2000).  Between two consecutive leaves the walk enters one non-first child,
whose parent is their LCA, and ancestors precede descendants in pre-order,
so the least pre-order number over a range of those gaps names the LCA
exactly.  A sparse table over the gaps, built on the first query, answers
each degree lookup in O(1).  Trees can be as deep as the number of distinct
degrees, so every walk over one is iterative.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .degrees import Degree, ZERO, ONE, format_degree, parse_degree
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
            if seen & set(block):
                raise ValueError("overlapping blocks in partition")
            seen.update(block)
            canonical.append(block)
        canonical.sort(key=lambda b: b[0])
        self.blocks: Tuple[tuple, ...] = tuple(canonical)
        self.universe = frozenset(seen)
        self._block_of = {x: i for i, block in enumerate(self.blocks) for x in block}

    @classmethod
    def from_assignment(cls, assignment: Dict) -> "CrispPartition":
        grouped: Dict[object, list] = {}
        for element, key in assignment.items():
            grouped.setdefault(key, []).append(element)
        return cls(grouped.values())

    @classmethod
    def from_relation(cls, relation: CrispRelation) -> "CrispPartition":
        """Blocks of an equivalence relation given as a set of pairs."""
        assignment = {}
        for x in relation.left:
            assignment[x] = frozenset(relation.forward(x))
        return cls.from_assignment(assignment)

    def block_of(self, x) -> tuple:
        return self.blocks[self._block_of[x]]

    def same_block(self, x, y) -> bool:
        return self._block_of[x] == self._block_of[y]

    def to_relation(self) -> CrispRelation:
        pairs = {(x, y) for block in self.blocks for x in block for y in block}
        return CrispRelation(self.universe, self.universe, pairs)

    def restrict(self, universe: Iterable) -> "CrispPartition":
        universe = frozenset(universe)
        kept = [[x for x in block if x in universe] for block in self.blocks]
        return CrispPartition(b for b in kept if b)

    def refines(self, coarser: "CrispPartition") -> bool:
        """True when every block here lies inside one block of `coarser`."""
        return all(
            len({coarser._block_of[x] for x in block}) == 1 for block in self.blocks
        )

    def text(self, name=str) -> str:
        inner = ",".join("{" + ",".join(name(x) for x in block) + "}" for block in self.blocks)
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
    """A node of a compact fuzzy partition tree.

    A crisp block stores its elements and has degree 1; a fuzzy block stores
    at least two subblocks and a degree strictly below all of theirs.
    """

    __slots__ = ("degree", "elements", "subblocks")

    def __init__(self, degree: Degree, elements: Optional[frozenset] = None, subblocks: Tuple["Block", ...] = ()):
        self.degree = degree
        self.elements = elements
        self.subblocks = subblocks

    @property
    def is_crisp(self) -> bool:
        return self.elements is not None

    def all_elements(self) -> set:
        return {x for leaf in _leaves(self) for x in leaf.elements}

    def __repr__(self) -> str:
        return cfp_text_of_block(self)


def crisp_block(elements: Iterable) -> Block:
    elements = frozenset(elements)
    if not elements:
        raise ValueError("crisp block must be non-empty")
    return Block(ONE, elements=elements)


def fuzzy_block(degree: Degree, subblocks: Iterable[Block]) -> Block:
    subblocks = tuple(subblocks)
    if len(subblocks) < 2:
        raise ValueError("fuzzy block needs at least two subblocks")
    if not ZERO <= degree < ONE:
        raise ValueError("fuzzy block degree must lie in [0, 1)")
    return Block(degree, subblocks=subblocks)


_subblocks = attrgetter("subblocks")
_second = itemgetter(1)


def fold_tree(root, combine: Callable, children: Callable = _subblocks):
    """Post-order fold without recursion: ``combine(node, [child values])``."""
    values: list = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            start = len(values) - len(children(node))
            folded = combine(node, values[start:])
            del values[start:]
            values.append(folded)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children(node)))
    return values[0]


def _leaves(block: Block):
    stack = [block]
    while stack:
        block = stack.pop()
        if block.is_crisp:
            yield block
        else:
            stack.extend(block.subblocks)


def cfp_text_of_block(block: Block, name=str) -> str:
    def text(b: Block, inner: list) -> str:
        if b.is_crisp:
            inner = [name(x) for x in sorted(b.elements)]
        return "{" + ",".join(inner) + "}:" + format_degree(b.degree)

    return fold_tree(block, text)


class CompactFuzzyPartition:
    """A validated, canonically ordered compact fuzzy partition with LCA queries."""

    def __init__(self, root: Block):
        seen: set = set()

        def copy(b: Block, children: list) -> tuple:
            """(canonical copy of b, least element below b), checking b."""
            if b.is_crisp:
                if b.degree != 1:  # an int operand takes Fraction's fast path
                    raise ValueError("crisp block must have degree 1")
                if not seen.isdisjoint(b.elements):
                    raise ValueError(f"element {next(iter(seen & b.elements))!r} appears in two leaves")
                seen.update(b.elements)
                return Block(ONE, elements=b.elements), min(b.elements)
            if len(children) < 2:
                raise ValueError("fuzzy block needs at least two subblocks")
            if any(child.degree <= b.degree for child, _ in children):
                raise ValueError("degrees must strictly increase towards the leaves")
            children.sort(key=_second)
            return Block(b.degree, subblocks=tuple(child for child, _ in children)), children[0][1]

        self.root = fold_tree(root, copy)[0]
        self.universe = frozenset(seen)
        self._table: Optional[List[List[int]]] = None

    def _build_index(self):
        """Leaf positions, and per gap between consecutive leaves the
        pre-order number of their LCA, with a sparse table of range minima."""
        self._position: Dict[object, int] = {}  # element -> its leaf's position
        self._degrees: List[Degree] = []  # by pre-order number
        gaps: List[int] = []
        stack = [(self.root, None)]  # (node, parent's number unless a first child)
        while stack:
            node, gap = stack.pop()
            if gap is not None:
                gaps.append(gap)
            number = len(self._degrees)
            self._degrees.append(node.degree)
            if node.is_crisp:
                self._position.update(dict.fromkeys(node.elements, len(gaps)))
            else:
                stack += [(child, number) for child in reversed(node.subblocks[1:])]
                stack.append((node.subblocks[0], None))
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

    def positive_rows(self, xs: list, ys: list, of: Optional[Callable] = None) -> list:
        """``[a, b, d]`` for each (a, x) of ``xs``, then each (b, y) of ``ys``, where
        d = degree_of(x, y) is positive, or ``of(d)``, applied once per tree node, in
        O(|ys|) per x.  The LCAs of consecutive distinct leaves of the ys are found once;
        outwards from the leaf of x, their running minima give its LCA with each."""
        if self._table is None:
            self._build_index()
        position, lca, rows = self._position, self._lca, []
        leaves = sorted({position[y] for _, y in ys})
        links, index = [*map(lca, leaves, leaves[1:])], {p: k for k, p in enumerate(leaves)}
        names, at = [b for b, _ in ys], [index[position[y]] for _, y in ys]
        degree = [(of(d) if of else d) if d else None for d in self._degrees].__getitem__  # only the root can be 0
        for a, x in xs:
            i = position[x]
            r = bisect_left(leaves, i)
            before = [*accumulate([lca(leaves[r - 1], i), *reversed(links[: r - 1])], min)][::-1] if r else []
            after = accumulate([lca(i, leaves[r]), *links[r:]], min) if r < len(leaves) else ()
            at_leaf = [*map(degree, before), *map(degree, after)].__getitem__
            rows += [[a, b, d] for b, d in zip(names, map(at_leaf, at)) if d is not None]
        return rows

    def to_relation(self) -> FuzzyRelation:
        """The fuzzy equivalence relation this tree encodes (quadratic output)."""
        identity = {x: x for x in self.universe}
        return CfpRelation(self, identity, identity)

    def leaf_partition(self) -> CrispPartition:
        return CrispPartition(leaf.elements for leaf in _leaves(self.root))

    def text(self, name=str) -> str:
        return cfp_text_of_block(self.root, name)

    def to_json(self, name=str) -> dict:
        def encode(block: Block, subblocks: list) -> dict:
            if block.is_crisp:
                return {"degree": format_degree(block.degree), "elements": sorted(name(x) for x in block.elements)}
            return {"degree": format_degree(block.degree), "subblocks": subblocks}

        return fold_tree(self.root, encode)

    @classmethod
    def from_json(cls, data: dict) -> "CompactFuzzyPartition":
        def decode(node: dict, subblocks: list) -> Block:
            degree = parse_degree(node["degree"])
            if "elements" in node:
                return Block(degree, elements=frozenset(node["elements"]))
            return Block(degree, subblocks=tuple(subblocks))

        def children(node: dict) -> list:
            return () if "elements" in node else node["subblocks"]

        return cls(fold_tree(data, decode, children))

    def structurally_equal(self, other: "CompactFuzzyPartition") -> bool:
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.degree != b.degree or a.is_crisp != b.is_crisp:
                return False
            if a.is_crisp:
                if a.elements != b.elements:
                    return False
            elif len(a.subblocks) != len(b.subblocks):
                return False
            else:
                stack.extend(zip(a.subblocks, b.subblocks))
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, CompactFuzzyPartition) and self.structurally_equal(other)

    def __hash__(self) -> int:
        return hash(self.text())

    def __repr__(self) -> str:
        return self.text()


class CfpRelation(FuzzyRelation):
    """The fuzzy relation that a compact fuzzy partition encodes between two
    universes, each mapped into its elements by an injection (a dict).  Its
    sorted rows come off the LCA index in one pass; ``entries`` on first use."""

    def __init__(self, cfp: CompactFuzzyPartition, inject_left: dict, inject_right: dict):
        if cfp.root.degree < 0:  # the tree's degrees rise from the root's to 1
            raise ValueError(f"degree {cfp.root.degree} outside [0, 1]")
        self.cfp, self.inject_left, self.inject_right = cfp, inject_left, inject_right
        self.left, self.right = frozenset(inject_left), frozenset(inject_right)

    def positive_rows(self, of: Optional[Callable] = None) -> list:  # the rows as lists
        return self.cfp.positive_rows(*(sorted(inject.items()) for inject in (self.inject_left, self.inject_right)), of)

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
    return CompactFuzzyPartition(_build_block(sorted(r.left), r))


def _build_block(elements: list, r: FuzzyRelation) -> Block:
    degree = min(
        (r(x, y) for i, x in enumerate(elements) for y in elements[i + 1 :]),
        default=ONE,
    )
    if degree == ONE:
        return Block(ONE, elements=frozenset(elements))
    # Classes of x ~ y iff r(x, y) > degree; transitivity makes one scan enough.
    classes: List[list] = []
    for x in elements:
        for group in classes:
            if r(group[0], x) > degree:
                group.append(x)
                break
        else:
            classes.append([x])
    return Block(degree, subblocks=tuple(_build_block(group, r) for group in classes))


def degree_query(cfp: CompactFuzzyPartition, x, y) -> Degree:
    """Pointwise degree of the encoded relation; equals cfp.to_relation()(x, y)."""
    return cfp.degree_of(x, y)
