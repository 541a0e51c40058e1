"""The generic signature-refinement machinery used by both engines."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzybisim import (
    CrispPartition, GenSpec, Nflts, Nfts, cfp_from_relation, crisp_partition_system, fuzzy_partition_system, generate,
    greatest_fuzzy_bisim_cfp_flg, oracle, to_flg,
)
from fuzzybisim.crisp_engine import greatest_crisp_bisim_partition_flg, restrict_to_states
from fuzzybisim.refinement import RefinableMap, adjacency

from conftest import CATERPILLARS, make_example
from test_fuzzy_engine import state_tree_by_restriction
from test_workloads import load_workloads


def fresh_map():
    """Four unconnected vertices, ids 0..3, in one block."""
    return RefinableMap([[] for _ in range(4)])


def test_starts_as_one_block():
    state = fresh_map()
    assert len(state.blocks) == 1
    assert state.assignment == [0, 0, 0, 0] and state.blocks == [{0, 1, 2, 3}]


def test_split_by_key():
    state = fresh_map()
    assert state.split_block(0, lambda v: v in (0, 1), state.blocks[0])
    assert len(state.blocks) == 2
    assert state.assignment[0] == state.assignment[1]
    assert state.assignment[0] != state.assignment[2]


def test_constant_key_is_a_no_op():
    state = fresh_map()
    assert not state.split_block(0, lambda v: 0, state.blocks[0])
    assert len(state.blocks) == 1
    before = state.snapshot()
    state.refine(lambda v: "same")
    assert state.snapshot() == before


def test_refine_reaches_a_fixpoint():
    state = fresh_map()
    # each vertex gets its own signature: fully discrete partition
    state.refine(lambda v: v)
    assert len(state.blocks) == 4
    assert len(set(state.assignment)) == 4


def test_snapshot_is_independent():
    state = fresh_map()
    snap = state.snapshot()
    state.split_block(0, lambda v: v, state.blocks[0])
    assert snap == [0, 0, 0, 0]


def test_split_requeues_only_predecessors_of_new_groups():
    a, b, c, p, q = range(5)
    # p points only into a, q only into c
    state = RefinableMap([[p], [], [q], [], []])
    state.split_block(0, lambda v: "pq" if v in (p, q) else "abc", state.blocks[0])
    state.dirty.clear()
    bid = state.assignment[a]
    assert state.split_block(bid, lambda v: v == c, state.blocks[bid])
    # the larger group {a, b} keeps the id, so p's signature is unchanged
    assert state.assignment[a] == state.assignment[b] == bid
    assert state.dirty == {state.assignment[q]: {q}}
    assert state.events[-1] == (state.assignment[c], bid)


def counted(key):
    calls = []

    def key_of(v):
        calls.append(v)
        return key(v)

    return key_of, calls


def ten_in_one_block(preds=None):
    state = RefinableMap(preds or [[] for _ in range(10)])
    state.dirty.clear()
    return state


def test_split_keys_the_marked_members_and_one_representative():
    state = ten_in_one_block()
    key_of, calls = counted(lambda v: v < 2)
    assert state.split_block(0, key_of, {0, 1, 2})
    assert len(calls) == 4
    # the unmarked rest {3, ..., 9} is the largest group and keeps the id
    assert state.blocks[0] == {2, 3, 4, 5, 6, 7, 8, 9}
    assert state.events == [(1, 0)] and state.blocks[1] == {0, 1}


def test_unmarked_rest_moves_when_a_marked_group_is_largest():
    state = ten_in_one_block()
    key_of, calls = counted(lambda v: v < 7)
    assert state.split_block(0, key_of, set(range(7)))
    assert len(calls) == 8
    assert state.blocks[0] == set(range(7))
    assert state.blocks[1] == {7, 8, 9} and state.assignment[8] == 1
    assert state.events == [(1, 0)]


def test_one_event_per_moved_group():
    state = ten_in_one_block()
    assert state.split_block(0, lambda v: min(v, 3), {0, 1, 2})
    assert state.blocks[0] == set(range(3, 10))
    assert sorted(state.events) == [(1, 0), (2, 0), (3, 0)]
    assert sorted(len(state.blocks[new]) for new, _ in state.events) == [1, 1, 1]


def test_marked_members_agreeing_with_the_rest_do_not_split():
    state = ten_in_one_block()
    key_of, calls = counted(lambda v: "same")
    assert not state.split_block(0, key_of, {4, 5})
    assert len(calls) == 3 and len(state.blocks) == 1 and not state.events


def test_singleton_blocks_are_never_queued():
    # 9 points into 1; 9 and 2 point into 4
    preds = [[] for _ in range(10)]
    preds[1], preds[4] = [9], [9, 2]
    state = ten_in_one_block(preds)
    assert state.split_block(0, lambda v: v if v in (1, 9) else -1, state.blocks[0])
    assert len(state.blocks) == 3 and not state.dirty
    state.mark([1, 9, 4])
    assert state.dirty == {0: {4}}
    assert state.split_block(0, lambda v: v == 4, state.dirty.pop(0))
    assert state.dirty == {0: {2}}


def test_refine_stops_once_every_watched_id_stands_alone():
    # 2 -> 0 and 3 -> 1; labels a, b, c, c: the first split leaves 0 and 1 alone and marks 2 and 3
    succ, label = [[], [], [0], [1]], "abcc"
    for watched, blocks in ((2, [{2, 3}, {0}, {1}]), (None, [{2}, {0}, {1}, {3}])):
        state = RefinableMap([[2], [3], [], []], watched)
        assert state.shared == (watched or 4)
        state.refine(lambda v: (label[v], frozenset(state.assignment[y] for y in succ[v])))
        assert state.blocks == blocks and state.shared == 0
        assert state.dirty == ({0: {2, 3}} if watched else {})


# -- the seeded start: states and distributions in blocks 0 and 1 --------------


def test_a_seeded_map_starts_with_the_states_and_the_distributions_apart():
    # states 0..2, distributions 3 and 4; only states are watched
    state = RefinableMap([[3], [4], [], [0, 1], [0, 2]], 3, 3)
    assert state.blocks == [{0, 1, 2}, {3, 4}] and state.assignment == [0, 0, 0, 1, 1]
    assert state.events == [(1, 0)] and state.dirty == {0: {0, 1, 2}, 1: {3, 4}}
    assert state.shared == 3
    assert RefinableMap([[3], [4], [], [0, 1], [0, 2]], None, 3).shared == 5


def test_a_system_with_no_transitions_is_one_block():
    model = Nfts(["s", "t", "u"], ["a"], [])
    g = to_flg(model)
    state = RefinableMap(g.preds, len(g.names), len(g.names))
    assert state.blocks == [{0, 1, 2}] and not state.events and state.shared == 3
    assert crisp_partition_system(model).text() == "{{s,t,u}}"
    assert fuzzy_partition_system(model).text() == "{s,t,u}:1"


def test_one_state_with_distributions_shares_nothing_watched(monkeypatch):
    model = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction(1, 2)}), ("s", "a", {"s": Fraction(1, 3)})])
    g = to_flg(model)
    assert RefinableMap(g.preds, 1, 1).shared == 0
    assert RefinableMap(g.preds, None, 1).shared == 2
    counts = count_work(monkeypatch)
    assert crisp_partition_system(model).text() == "{{s}}" and fuzzy_partition_system(model).text() == "{s}:1"
    assert counts == [0, 0]  # nothing is refined once the one state stands alone
    assert greatest_crisp_bisim_partition_flg(g).text() == "{{s},{mu1},{mu2}}"


def test_an_empty_support_distribution_is_a_vertex_with_no_out_edge():
    # s and t both reach an empty distribution; t also reaches {s: 1/2}
    model = Nfts(["s", "t"], ["a"], [("s", "a", {}), ("t", "a", {}), ("t", "a", {"s": Fraction(1, 2)})])
    g = to_flg(model)
    assert g.out[2] == [] and RefinableMap(g.preds, None, 2).blocks == [{0, 1}, {2, 3}]
    assert greatest_crisp_bisim_partition_flg(g).text() == "{{s},{t},{mu1},{mu2}}"
    assert greatest_crisp_bisim_partition_flg(g) == CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))
    assert greatest_fuzzy_bisim_cfp_flg(g) == cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spec=st.builds(GenSpec, state_count=st.integers(2, 6), action_count=st.integers(1, 2),
                      distributions_per_state_action=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                      support_size=st.sampled_from([(0, 1), (1, 1), (1, 2)]), value_pool_size=st.integers(3, 6),
                      label_alphabet_size=st.integers(0, 2), label_density=st.sampled_from([0.0, 0.5, 1.0]),
                      seed=st.integers(0, 2**32 - 1)))
def test_graph_partitions_are_the_oracle_fixpoints(spec):
    g = to_flg(generate(spec))
    assert greatest_crisp_bisim_partition_flg(g) == CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))
    assert greatest_fuzzy_bisim_cfp_flg(g) == cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))


# -- work counts: keyed vertices stay linear on deep partitions ---------------


def count_work(monkeypatch):
    """Count the ``split_block`` calls and the ``key_of`` calls they make."""
    counts = [0, 0]
    split = RefinableMap.split_block

    def counting(self, bid, key_of, *args):
        counts[0] += 1

        def key(v):
            counts[1] += 1
            return key_of(v)

        return split(self, bid, key, *args)

    monkeypatch.setattr(RefinableMap, "split_block", counting)
    return counts


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
@pytest.mark.parametrize("engine", [greatest_crisp_bisim_partition_flg, greatest_fuzzy_bisim_cfp_flg])
def test_key_calls_are_linear_on_caterpillars(monkeypatch, family, engine):
    calls = count_work(monkeypatch)
    counts = []
    for n in (250, 500, 1000):
        g = to_flg(CATERPILLARS[family](n))
        calls[1] = 0
        engine(g)
        assert calls[1] <= 6 * len(g.by_id), (n, calls[1])
        counts.append(calls[1])
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts


def test_deep_label_partition_keys_each_vertex_about_three_times(monkeypatch):
    # 700 unconnected states with distinct label degrees: a CFP of depth 699
    calls = count_work(monkeypatch)
    states = [f"s{i}" for i in range(700)]
    model = Nflts(states, ["a"], [], ["p"], {s: {"p": Fraction(i + 1, 1000)} for i, s in enumerate(states)})
    assert fuzzy_partition_system(model).root.degree == Fraction(1, 1000)
    assert calls[1] <= 3 * len(to_flg(model).by_id)


# (split_block calls, keyed vertices) per engine on the graph, as the engines
# stood when these were recorded; a faster key must not cost more refinement
# work.  Blocks are int sets, so the counts do not depend on the hash seed.
WORK = {
    "label caterpillar": {"crisp": (1, 250), "fuzzy": (250, 748)},
    "edge caterpillar": {"crisp": (2, 500), "fuzzy": (500, 1496)},
    "two hubs": {"crisp": (2, 502), "fuzzy": (748, 1996)},
    "planted": {"crisp": (288, 3142), "fuzzy": (620, 5863)},
}


@pytest.mark.parametrize("family", sorted(WORK))
def test_refinement_work_is_no_more_than_recorded(monkeypatch, family):
    if family == "planted":  # 16 relabelled copies of a 20-state model, half with a moved degree
        workloads = load_workloads(monkeypatch)
        rng = random.Random(15)
        base = generate(workloads._base_spec(20, 12, rng.getrandbits(32)))
        model = workloads.planted(base, 16, 8, 0.005, rng)[0]
    else:
        model = CATERPILLARS[family](250)
    g = to_flg(model)
    counts = count_work(monkeypatch)
    for name, engine in (("crisp", greatest_crisp_bisim_partition_flg), ("fuzzy", greatest_fuzzy_bisim_cfp_flg)):
        counts[:] = [0, 0]
        engine(g)
        split_calls, keyed = WORK[family][name]
        assert counts[0] <= split_calls and counts[1] <= keyed, (name, counts)


def test_adjacency_matches_the_graph():
    g = to_flg(make_example())
    pool = g.degree_pool()
    out, preds, ids, maps = adjacency(g)
    assert out is g.out and preds is g.preds and ids is g.label_ids and maps is g.label_maps
    vertices = g.by_id
    assert sorted(g.vertices) == vertices
    for i, v in enumerate(vertices):
        assert sorted((r, vertices[j], pool[rk]) for r, j, rk in out[i]) == sorted(g.out_edges(v))
        assert sorted(preds[i]) == sorted(x for x, edges in enumerate(out) for _, j, _ in edges if j == i)
        assert {p: pool[rk] for p, rk in maps[ids[i]].items()} == dict(g.labels[v].items())


# -- a system query stops once every state stands alone -------------------------


def _graph_partition_of_states(g):
    """The graph-level crisp partition (``states=False``) restricted to the states."""
    ids = {v: i for i, v in enumerate(g.by_id)}
    return restrict_to_states([[ids[v] for v in block] for block in greatest_crisp_bisim_partition_flg(g).blocks],
                              g.names)


def test_a_system_query_stops_refining_once_every_state_stands_alone(monkeypatch):
    # random-sweep's shape: 40 degrees, nothing merges
    model = generate(GenSpec(state_count=60, action_count=2, distributions_per_state_action=(1, 2),
                             support_size=(1, 3), value_pool_size=40, seed=7))
    g = to_flg(model)
    assert len(crisp_partition_system(model)) == len(model.states)
    counts = count_work(monkeypatch)
    for engine in (greatest_crisp_bisim_partition_flg, greatest_fuzzy_bisim_cfp_flg):
        work = []
        for states in (True, False):
            counts[:] = [0, 0]
            engine(g, states=states)
            work.append(tuple(counts))
        assert work[0][0] < work[1][0] and work[0][1] < work[1][1], (engine.__name__, work)
    assert greatest_crisp_bisim_partition_flg(g, states=True) == _graph_partition_of_states(g)
    assert greatest_fuzzy_bisim_cfp_flg(g, states=True) == state_tree_by_restriction(model)


@pytest.mark.parametrize("model", [Nfts(["s"], ["a"], []), Nfts(["s"], ["a"], [("s", "a", {"s": Fraction(1, 2)})])],
                         ids=["one vertex", "one state"])
def test_one_state_is_one_block(model):
    assert crisp_partition_system(model).text() == _graph_partition_of_states(to_flg(model)).text() == "{{s}}"
    assert fuzzy_partition_system(model).text() == state_tree_by_restriction(model).text() == "{s}:1"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spec=st.builds(GenSpec, state_count=st.integers(2, 7), action_count=st.integers(1, 2),
                      distributions_per_state_action=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                      support_size=st.sampled_from([(1, 1), (1, 2)]), value_pool_size=st.integers(3, 8),
                      label_alphabet_size=st.integers(0, 2), label_density=st.sampled_from([0.0, 0.5, 1.0]),
                      seed=st.integers(0, 2**32 - 1)))
def test_system_results_are_the_graph_results_restricted_to_the_states(spec):
    # The system query stops early; the graph-level call refines the whole graph.
    model = generate(spec)
    g = to_flg(model)
    assert crisp_partition_system(model) == _graph_partition_of_states(g)
    assert fuzzy_partition_system(model) == state_tree_by_restriction(model)
