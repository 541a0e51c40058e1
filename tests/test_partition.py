"""Crisp partitions and compact fuzzy partitions (construction, queries,
round trips, validation)."""
import random
from itertools import accumulate
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzybisim import (
    CompactFuzzyPartition,
    CrispPartition,
    FuzzyRelation,
    NotAnEquivalenceError,
    ONE,
    ZERO,
    cfp_from_relation,
    format_degree,
)
from fuzzybisim import partition
from fuzzybisim.partition import Block, CfpRelation

from conftest import SEVEN_ELEMENT_TEXT, example_fuzzy_table, root_arrays, seven_element_relation

H = Fraction(1, 2)


def tree(node) -> tuple:
    """The constructor's (parent, degrees, elements) arrays of a nested tree in
    which a leaf is a frozenset and an inner node a (degree, [children]) pair."""
    return partition._flatten(node, lambda n: (ONE, n, ()) if isinstance(n, frozenset) else (n[0], None, n[1]))


def leaf(*elements) -> frozenset:
    return frozenset(elements)


def chain(names: list, degree) -> tuple:
    """The arrays of a chain: spine node k, of degree ``degree(k)``, holds the leaf
    of names[k] and spine node k + 1; the last name is the deepest leaf."""
    parent, degrees, elements = [], [], []
    for k, name in enumerate(names[:-1]):
        parent += [2 * k - 2 if k else -1, 2 * k]
        degrees += [degree(k), ONE]
        elements += [None, leaf(name)]
    return parent + [len(parent) - 2], degrees + [ONE], elements + [leaf(names[-1])]


# -- crisp partitions --------------------------------------------------------


def test_blocks_are_canonically_ordered():
    p = CrispPartition([["s5", "s2"], ["s3", "s4"], ["s1"]])
    assert p.text() == "{{s1},{s2,s5},{s3,s4}}"
    assert p.same_block("s3", "s4") and not p.same_block("s1", "s3")


def test_overlapping_blocks_rejected():
    with pytest.raises(ValueError, match="^overlapping blocks in partition$"):
        CrispPartition([["a", "b"], ["b"]])
    with pytest.raises(ValueError, match="^overlapping blocks in partition$"):
        CrispPartition([["a", "b"], ("c",), {"c", "d"}])
    assert CrispPartition([["b", "a", "b"], ["c"]]).blocks == (("a", "b"), ("c",))  # a repeat is no overlap
    with pytest.raises(ValueError):
        CrispPartition([[]])


def test_from_relation_and_back():
    p = CrispPartition([["a", "b"], ["c"]])
    assert CrispPartition.from_relation(p.to_relation()) == p


def test_refines():
    fine = CrispPartition([["a"], ["b"], ["c", "d"]])
    coarse = CrispPartition([["a", "b"], ["c", "d"]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)


# -- compact fuzzy partitions -------------------------------------------------


def test_seven_element_golden_structure():
    cfp = cfp_from_relation(seven_element_relation())
    assert cfp.text() == SEVEN_ELEMENT_TEXT


def test_seven_element_degrees():
    cfp = cfp_from_relation(seven_element_relation())
    assert cfp.degree_of("x2", "x4") == Fraction("0.6")
    assert cfp.degree_of("x1", "x2") == Fraction("0.4")
    assert cfp.degree_of("x1", "x7") == 0
    assert cfp.degree_of("x3", "x4") == 1
    assert cfp.degree_of("x5", "x6") == Fraction("0.3")


def test_example_table_round_trip():
    table = example_fuzzy_table()
    cfp = cfp_from_relation(table)
    assert cfp.text() == "{{{s1}:1,{s2,s5}:1}:0.4,{s3,s4}:1}:0"
    assert cfp.to_relation() == table


def test_lca_matches_expanded_relation():
    cfp = cfp_from_relation(seven_element_relation())
    expanded = cfp.to_relation()
    for x in cfp.universe:
        for y in cfp.universe:
            assert cfp.degree_of(x, y) == expanded(x, y)


def test_degree_of_unknown_element():
    cfp = cfp_from_relation(seven_element_relation())
    with pytest.raises(KeyError):
        cfp.degree_of("x1", "nope")


def test_json_round_trip():
    cfp = cfp_from_relation(seven_element_relation())
    again = CompactFuzzyPartition.from_json(cfp.to_json())
    assert again == cfp
    assert again.text() == cfp.text()
    leaf = {"degree": "1", "elements": ["a"]}
    for document, node in [
        ({"degree": "1", "elements": "ab"}, "{'degree': '1', 'elements': 'ab'}"),  # not the leaf {a, b}
        ({"degree": "1", "elements": [["a"]]}, "{'degree': '1', 'elements': [['a']]}"),
        (["a"], "['a']"),
        ({"elements": ["a"]}, "{'elements': ['a']}"),
        ({"degree": 1, "elements": ["a"]}, "{'degree': 1, 'elements': ['a']}"),
        ({"degree": "0", "subblocks": {"a": leaf}}, "{'degree': '0', 'subblocks': {'a': {'degree': '1', 'elements': ['a']}}}"),
        ({"degree": "0", "subblocks": [leaf, "b"]}, "'b'"),
    ]:
        with pytest.raises(ValueError) as info:
            CompactFuzzyPartition.from_json(document)
        assert str(info.value) == f"malformed compact fuzzy partition node {node}"


def test_leaf_partition_is_the_one_cut():
    cfp = cfp_from_relation(seven_element_relation())
    assert cfp.leaf_partition().text() == "{{x1},{x2},{x3,x4},{x5},{x6},{x7}}"


def test_not_an_equivalence_is_rejected():
    universe = {"a", "b"}
    ones = {(x, x): Fraction(1) for x in universe}
    r = FuzzyRelation(universe, universe, {**ones, ("a", "b"): H})
    with pytest.raises(NotAnEquivalenceError) as info:
        cfp_from_relation(r)
    assert "symmetric" in str(info.value)


def test_tree_validation():
    with pytest.raises(ValueError):
        # crisp leaves must carry degree 1
        CompactFuzzyPartition(([-1], [H], [leaf("a")]))
    with pytest.raises(ValueError):
        # so must a leaf under an inner node of the same degree
        CompactFuzzyPartition(([-1, 0, 0], [H, ONE, H], [None, leaf("a"), leaf("b")]))
    with pytest.raises(ValueError):
        CompactFuzzyPartition(tree((H, [leaf("a")])))
    with pytest.raises(ValueError, match="non-empty"):
        CompactFuzzyPartition(([-1], [ONE], [leaf()]))
    with pytest.raises(ValueError, match="strictly increase"):
        CompactFuzzyPartition(tree((ONE, [leaf("a"), leaf("b")])))
    with pytest.raises(ValueError):
        # an element may appear in only one leaf
        CompactFuzzyPartition(tree((H, [leaf("a"), leaf("a")])))


def test_tree_validation_names_the_broken_law():
    cases = [
        (([-1], [H], [leaf("a")]), "degree 1"),
        (tree((H, [leaf("a")])), "two subblocks"),
        (tree((H, [leaf("a"), (H, [leaf("b"), leaf("c")])])), "strictly increase"),
        (tree((H, [leaf("a"), (ZERO, [leaf("b"), leaf("c")])])), "strictly increase"),
        (tree((ONE, [leaf("a"), leaf("b")])), "strictly increase"),  # leaf children only
        (tree((H, [leaf("a", "b"), leaf("b", "c")])), "'b' appears in two leaves"),
    ]
    for arrays, message in cases:
        with pytest.raises(ValueError, match=message):
            CompactFuzzyPartition(arrays)


def test_an_empty_leaf_is_named_as_such():
    for build in (
        lambda: CompactFuzzyPartition(([-1], [ONE], [leaf()])),
        lambda: CompactFuzzyPartition.from_json({"degree": "1", "elements": []}),
        lambda: cfp_from_relation(FuzzyRelation([], [], {})),
    ):
        with pytest.raises(ValueError, match="crisp block must be non-empty"):
            build()


# -- randomized round trips ---------------------------------------------------


def random_equivalence(rng: random.Random, size: int) -> FuzzyRelation:
    """Build a random fuzzy equivalence by decorating a random tree."""
    names = [f"e{i}" for i in range(size)]
    pool = sorted(rng.sample([Fraction(k, 10) for k in range(1, 10)], 4))

    def build(elements, depth):
        if len(elements) == 1 or depth >= len(pool) or rng.random() < 0.3:
            return frozenset(elements)
        k = rng.randint(2, len(elements))
        rng.shuffle(elements)
        cuts = sorted(rng.sample(range(1, len(elements)), k - 1)) if k > 1 else []
        groups, prev = [], 0
        for cut in cuts + [len(elements)]:
            groups.append(elements[prev:cut])
            prev = cut
        if len(groups) == 1:
            return frozenset(elements)
        return pool[depth], [build(g, depth + 1) for g in groups]

    root = build(list(names), 0)
    if isinstance(root, frozenset):
        return FuzzyRelation(names, names, {(x, y): Fraction(1) for x in names for y in names})
    return CompactFuzzyPartition(tree(root)).to_relation()


@pytest.mark.parametrize("seed", range(25))
def test_random_equivalences_round_trip(seed):
    rng = random.Random(seed)
    r = random_equivalence(rng, rng.randint(1, 12))
    cfp = cfp_from_relation(r)
    assert cfp.to_relation() == r
    for x in cfp.universe:
        for y in cfp.universe:
            assert cfp.degree_of(x, y) == r(x, y)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cfp_from_relation_is_stable(seed):
    rng = random.Random(seed)
    r = random_equivalence(rng, rng.randint(1, 8))
    once = cfp_from_relation(r)
    twice = cfp_from_relation(r)
    assert once.text() == twice.text()


def test_deep_cfp_round_trips_without_recursion():
    depth = 2000
    names = [f"x{k:04d}" for k in range(depth + 1)]
    cfp = CompactFuzzyPartition(chain(names, lambda k: Fraction(k, depth + 1)))
    text = cfp.text()
    assert text.startswith("{{x0000}:1,{{x0001}:1,{{x0002}:1,")
    again = CompactFuzzyPartition.from_json(cfp.to_json())
    assert again == cfp and again.text() == text
    assert cfp.universe == frozenset(names) and CompactFuzzyPartition(root_arrays(cfp)) == cfp
    assert len(cfp.leaf_partition()) == depth + 1
    assert cfp.degree_of(names[0], names[depth]) == 0
    assert cfp.degree_of(names[depth - 1], names[depth]) == Fraction(depth - 1, depth + 1)


def test_leaf_order_index_on_a_deep_and_wide_tree():
    """More than 64 leaves, so every sparse-table level is used: a caterpillar
    40 deep whose spine nodes also hold wide nodes, shuffled so canonical
    ordering moves subtrees, and leaves of several elements."""
    rng = random.Random(13)
    names = iter(f"e{k:03d}" for k in range(1000))
    node = leaf(next(names), next(names))
    for level in range(39, -1, -1):
        wide = [leaf(*(next(names) for _ in range(rng.randint(1, 2)))) for _ in range(rng.randint(2, 5))]
        children = [node, leaf(next(names))]
        if level % 3 == 0:
            children.append((Fraction(2 * level + 1, 100), wide))
        rng.shuffle(children)
        node = Fraction(level, 50), children
    cfp = CompactFuzzyPartition(tree(node))
    assert len(cfp.leaf_partition()) > 64
    expanded = cfp.to_relation()
    for x in cfp.universe:
        for y in cfp.universe:
            assert cfp.degree_of(x, y) == expanded(x, y), (x, y)


def test_the_constructor_range_checks_the_root_degree():
    # Degrees rise from the root to the leaves, so the root bounds them all.
    with pytest.raises(ValueError, match=r"^degree -1/2 outside \[0, 1\]$"):
        CompactFuzzyPartition(([-1, 0, 0], [Fraction(-1, 2), 1, 1], [None, {"a"}, {"b"}]))
    view = CfpRelation(CompactFuzzyPartition(tree((ZERO, [leaf("a"), leaf("b")]))),
                       {"a": "a"}, {"a": "a", "b": "b"})
    assert view.rows() == [("a", "a", 1)] and view.entries == {("a", "a"): 1}


def test_the_constructor_names_an_empty_tree():
    with pytest.raises(ValueError, match="^compact fuzzy partition tree has no nodes$"):
        CompactFuzzyPartition(([], [], []))


def _degree_by_paths(root: Block):
    """Brute-force LCA degrees: the last block the two root-to-leaf paths share."""
    paths, stack = {}, [(root, ())]
    while stack:
        block, path = stack.pop()
        path += (block,)
        if block.is_crisp:
            paths.update(dict.fromkeys(block.elements, path))
        else:
            stack += [(child, path) for child in block.subblocks]
    return lambda x, y: [a for a, b in zip(paths[x], paths[y]) if a is b][-1].degree


@pytest.mark.parametrize("seed", range(20))
def test_positive_rows_match_a_walk_of_root_to_leaf_paths(seed):
    rng = random.Random(seed)
    cfp = cfp_from_relation(random_equivalence(rng, rng.randint(1, 12)))
    degree, universe = _degree_by_paths(cfp.root), sorted(cfp.universe)
    for _ in range(6):
        many = rng.sample(universe, rng.randint(0, len(universe)))
        few = rng.sample(universe, rng.randint(0, min(2, len(universe))))
        for xs, ys in ((many, few), (few, many), (many, many)):
            xs, ys = sorted((("l", x), x) for x in xs), sorted((("r", y), y) for y in ys)
            expected = [[a, b, degree(x, y)] for a, x in xs for b, y in ys if degree(x, y) > 0]
            relation = CfpRelation(cfp, dict(xs), dict(ys))  # its sides, each sorted by name, are xs and ys
            assert relation.positive_rows() == expected
            assert relation.positive_rows(format_degree) == [[a, b, format_degree(d)] for a, b, d in expected]


def test_positive_rows_work_follows_the_ys_not_the_leaves(monkeypatch):
    """Many xs against one y on a chain of 400 leaves: each x reads a running
    minimum per distinct leaf of the ys, not per leaf of the tree."""
    names = [f"x{k:03d}" for k in range(400)]
    cfp = CompactFuzzyPartition(chain(names, lambda k: Fraction(k, 400)))
    read = []

    def counted(items, func):
        items = list(items)
        read.append(len(items))
        return accumulate(items, func)

    monkeypatch.setattr(partition, "accumulate", counted)
    xs, ys = [(x, x) for x in names], [("y", names[200])]
    rows = CfpRelation(cfp, dict(xs), dict(ys)).positive_rows()
    assert rows == [[x, "y", cfp.degree_of(x, names[200])] for x in names[1:]]
    assert sum(read) <= 2 * len(xs)
