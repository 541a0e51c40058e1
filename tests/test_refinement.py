"""The generic signature-refinement machinery used by both engines."""
from fuzzybisim import Nfts, to_flg
from fuzzybisim.graph import state_vertex
from fuzzybisim.refinement import RefinableMap, adjacency

from conftest import make_example


def fresh_map():
    vertices = [state_vertex(s) for s in "abcd"]
    preds = {v: [] for v in vertices}
    return vertices, RefinableMap(vertices, preds)


def test_starts_as_one_block():
    _, state = fresh_map()
    assert state.block_count() == 1


def test_split_by_key():
    vertices, state = fresh_map()
    state.split_all(lambda v: v.key in ("a", "b"))
    assert state.block_count() == 2
    assert state.assignment[vertices[0]] == state.assignment[vertices[1]]
    assert state.assignment[vertices[0]] != state.assignment[vertices[2]]


def test_constant_key_is_a_no_op():
    vertices, state = fresh_map()
    assert state.split_all(lambda v: 0) == 0
    assert state.block_count() == 1
    before = state.snapshot()
    state.refine(lambda v: "same")
    assert state.snapshot() == before


def test_refine_reaches_a_fixpoint():
    vertices, state = fresh_map()
    # each vertex gets its own signature: fully discrete partition
    state.refine(lambda v: v.key)
    assert state.block_count() == 4
    assert len(set(state.assignment.values())) == 4


def test_snapshot_is_independent():
    vertices, state = fresh_map()
    snap = state.snapshot()
    state.split_all(lambda v: v.key)
    assert len(set(snap.values())) == 1


def test_split_requeues_only_predecessors_of_new_groups():
    elements = ["a", "b", "c", "p", "q"]
    # p points only into a, q only into c
    preds = {"a": ["p"], "b": [], "c": ["q"], "p": [], "q": []}
    state = RefinableMap(elements, preds)
    state.split_all(lambda v: v if v in "pq" else "abc")
    state.dirty.clear()
    bid = state.assignment["a"]
    assert state.split_block(bid, lambda v: v == "c")
    # the larger group {a, b} keeps the id, so p's signature is unchanged
    assert state.assignment["a"] == state.assignment["b"] == bid
    assert state.dirty == {state.assignment["q"]}
    assert state.events[-1] == (state.assignment["c"], bid)


def test_adjacency_matches_the_graph():
    g = to_flg(make_example())
    vertices, out, preds = adjacency(g)
    assert sorted(g.vertices) == vertices
    for i, v in enumerate(vertices):
        assert sorted((r, vertices[j], d) for r, j, d in out[i]) == sorted(g.out_edges(v))
        assert sorted(vertices[j] for j in preds[i]) == sorted(g.predecessors(v))
