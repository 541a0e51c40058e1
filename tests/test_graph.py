"""The graph corresponding to a system: vertices, edges, labels, unions."""
import dataclasses
import operator
import random
from fractions import Fraction

import pytest

from fuzzybisim import (Distribution, FuzzySet, ModelError, Nflts, Nfts, as_nflts, bisimulation_between_nflts,
                        crisp_simulation_nflts, disjoint_union, fuzzy_simulation_nflts, oracle, parse_model, to_flg)
from fuzzybisim.generate import generate
from fuzzybisim.graph import EPSILON, STATE_MARK, on_states
from fuzzybisim.refinement import adjacency

from testlib import dist_vertex, random_spec, state_vertex
from conftest import REPO_ROOT, labels_of, make_example

H = Fraction(1, 2)


def test_example_graph_shape():
    g = to_flg(make_example())
    assert len(g.vertices) == 8          # 5 states + 3 distinct distributions
    assert len(g.edges) == 12            # 6 action edges + 6 epsilon edges


def test_example_edge_degrees():
    g = to_flg(make_example())
    mu1 = dist_vertex(0)
    assert g.edges[state_vertex("s1"), "a", mu1] == 1
    assert g.edges[mu1, EPSILON, state_vertex("s3")] == Fraction("0.8")
    assert (mu1, EPSILON, state_vertex("s1")) not in g.edges


def test_state_vertices_are_marked():
    g = to_flg(make_example())
    for v in g.vertices:
        assert g.labels[v](STATE_MARK) == (1 if v.is_state else 0)


def test_degree_pool_sorted_distinct():
    g = to_flg(make_example())
    pool = g.degree_pool()
    assert pool == sorted(set(pool))
    assert Fraction("0.4") in pool and Fraction(1) in pool


def test_reserved_edge_symbol_rejected():
    with pytest.raises(ModelError):
        to_flg(Nfts(["s"], [EPSILON], []))


def test_reserved_vertex_symbol_rejected():
    with pytest.raises(ModelError):
        to_flg(Nflts(["s"], ["a"], [], [STATE_MARK], {}))


def test_labeled_graph_carries_state_labels():
    model = Nflts(["s", "t"], ["a"], [], ["p"], {"s": {"p": H}})
    g = to_flg(model)
    assert g.labels[state_vertex("s")]("p") == H
    assert g.labels[state_vertex("t")]("p") == 0
    assert g.vertex_alphabet == {"p", STATE_MARK}


def test_adjacency_is_consistent():
    g = to_flg(make_example())
    ids = {v: i for i, v in enumerate(g.by_id)}
    for (x, r, y), d in g.edges.items():
        assert (r, y, d) in g.out_edges(x)
        assert (r, ids[y], g.pool.index(d)) in g.out[ids[x]]
        assert ids[x] in g.preds[ids[y]]


def test_as_nflts_preserves_structure():
    model = make_example()
    view = as_nflts(model)
    assert view.states == model.states
    assert view.label_alphabet == frozenset()
    assert view.size_of_delta() == model.size_of_delta()
    assert as_nflts(view) is view


def test_as_nflts_is_the_system_itself(monkeypatch):
    # An NFTS is the NFLTS over the empty alphabet: one class, so no view and no copy.
    assert Nflts is Nfts
    model = Nfts(["s", "t"], ["a"], [("s", "a", {"t": H}), ("t", "a", {"t": H})])
    built = []
    for cls in (FuzzySet, Distribution, Nfts):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real: built.append(type(self)) or real(self, *args))
    assert as_nflts(model) is model
    assert model.label_alphabet == frozenset() and model.labels == {}
    assert built == []
    other = Nfts(["s"], ["a"], [("s", "a", {"s": H})])  # the counters do see constructors
    assert built == [Nfts]
    # the object views are built on first access, once per instance
    assert len(model.distributions) == 1 and len(other.distributions) == 1
    assert built == [Nfts] + [FuzzySet, Distribution] * 2


def test_to_flg_shares_the_systems_distribution_lists():
    # to_flg lays the graph out from the system's fields: a distribution vertex's
    # out-list is the system's own list, and 1, the degree of the state mark, is
    # appended to the graph's pool only
    example = make_example()
    labeled = Nflts(["s", "t"], ["a"], [("s", "a", {"t": H})], ["p"], {"t": {"p": 1}})
    for model in (example, labeled):
        g, n = to_flg(model), len(model.names)
        assert len(g.out) == n + len(model.dists) and all(map(operator.is_, g.out[n:], model.dists))
        assert g.names is model.names
    assert to_flg(example).pool == [*example.pool, 1] and example.pool[-1] != 1
    assert to_flg(labeled).pool is labeled.pool == [H, 1]


def test_plain_system_and_its_unlabeled_view_give_equal_graphs():
    rng = random.Random(31)
    models = [make_example()] + [generate(random_spec(rng, 6, labeled=False)) for _ in range(20)]
    for model in models:
        # One transition list for both, so distributions are numbered alike.
        raw = [(s, a, mu.fuzzy) for s, a, mu in model.transitions]
        plain = to_flg(Nfts(model.states, model.actions, raw))
        view = to_flg(Nflts(model.states, model.actions, raw, ()))
        assert plain.vertices == view.vertices
        assert plain.edges == view.edges
        assert plain.labels == view.labels
        assert plain.vertex_alphabet == view.vertex_alphabet == {STATE_MARK}
        assert plain.edge_alphabet == view.edge_alphabet
        # every state vertex shares the one state-mark label
        assert len({id(label) for label in plain.labels.values() if label}) == 1
        # a labeled state keeps the mark next to its label
        first = min(model.states)
        labeled = to_flg(Nflts(model.states, model.actions, raw, ["p"], {first: {"p": H}}))
        assert labeled.labels[state_vertex(first)] == FuzzySet({"p": H, STATE_MARK: 1})
        assert labeled.edges == plain.edges


def test_sources_of_a_shared_distribution_are_in_id_order():
    # the refinement kernel marks predecessors in list order, and the crisp
    # --verbose split trace follows it: the sources are in id order
    states = [f"s{i:02}" for i in range(40)]
    g = to_flg(Nfts(states, ["a", "b"], [(s, a, {"s00": H}) for s in reversed(states) for a in "ab"]))
    assert g.preds[len(states)] == sorted(g.preds[len(states)]) == [i for i in range(40) for _ in "ab"]


def test_disjoint_union_shapes():
    a = as_nflts(make_example())
    b = as_nflts(make_example())
    union, inject_a, inject_b = disjoint_union(a, b)
    assert len(union.states) == 10
    assert len(union.transitions) == 12
    assert set(inject_a.values()) | set(inject_b.values()) == union.states
    assert set(inject_a.values()).isdisjoint(inject_b.values())


def test_disjoint_union_preserves_labels():
    a = Nflts(["s"], ["a"], [], ["p"], {"s": {"p": H}})
    b = Nflts(["s"], ["a"], [], ["p"], {})
    union, inject_a, inject_b = disjoint_union(a, b)
    assert labels_of(union) == {inject_a["s"]: FuzzySet({"p": H})}


def _union_by_definition(a, b):
    """The disjoint union built by the constructor from the object views."""
    transitions, labels = [], []
    for tag, model in enumerate((a, b)):
        transitions += [((tag, model.names[i]), action, {(tag, t): d for t, d in model.distributions[k].items()})
                        for i, action, k in model.delta]
        labels += [((tag, s), label) for s, label in labels_of(model).items()]
    return Nflts([(tag, s) for tag, m in enumerate((a, b)) for s in m.states], a.actions, transitions,
                 a.label_alphabet, labels)


def test_disjoint_union_concatenates_the_arrays():
    rng = random.Random(53)
    empty = Nfts(["s1", "s2"], ["a0"], [("s1", "a0", {}), ("s2", "a0", {"s1": 0}), ("s2", "a0", {"s2": H})])
    pairs = [(empty, empty), (make_example(), make_example())]
    for i in range(40):
        spec = random_spec(rng, 6, labeled=i % 2 == 1)
        sibling = dataclasses.replace(spec, seed=spec.seed + 1, state_count=rng.randint(1, 6))
        sibling.support_size = (1, min(sibling.support_size[1], sibling.state_count))
        pairs.append((generate(spec), generate(sibling)))
    for a, b in pairs:
        a, b = as_nflts(a), as_nflts(b)
        union, inject_a, inject_b = disjoint_union(a, b)
        expected = _union_by_definition(a, b)
        for name in ("states", "names", "actions", "delta", "pool", "dists", "labels", "label_alphabet"):
            assert getattr(union, name) == getattr(expected, name), name
        assert [dict(mu.items()) for mu in union.distributions] == [dict(mu.items()) for mu in expected.distributions]
        assert labels_of(union) == labels_of(expected)
        assert inject_a == {s: (0, s) for s in a.states} and inject_b == {s: (1, s) for s in b.states}
        g, h = to_flg(union), to_flg(expected)
        assert (g.out, g.preds, g.label_ids, g.label_maps, g.pool) == (h.out, h.preds, h.label_ids, h.label_maps, h.pool)
    union = disjoint_union(as_nflts(empty), as_nflts(empty))[0]
    assert len(union.dists) == 3  # one empty distribution


def _union_as_given(*systems):
    """The constructor's arguments of the disjoint union of labeled systems given by theirs."""
    states, transitions, labels = [], [], {}
    for tag, (names, actions, moves, alphabet, labeling) in enumerate(systems):
        states += [(tag, s) for s in names]
        transitions += [((tag, s), act, {(tag, t): d for t, d in mu.items()}) for s, act, mu in moves]
        labels.update(((tag, s), label) for s, label in labeling.items())
    return states, actions, transitions, alphabet, labels


def test_systems_on_interleaved_pools_meet_on_one_scale():
    """Two systems whose degree pools interleave, only one of them holding 1:
    the simulations and both between-system modes equal the oracle fixpoints,
    the between ones on the union of the two systems as given."""
    d = {k: Fraction(k, 10) for k in (2, 4, 6, 8)}
    loop = ("v", "a", {"v": d[6]})  # in both systems, so a pair of states is crisp bisimilar
    given_a = (["s", "t", "u", "v"], ["a"],
               [("s", "a", {"t": d[6], "u": 1}), ("t", "a", {"u": d[2]}), ("u", "a", {"u": 1}), loop],
               ["p"], {"s": {"p": d[6]}, "t": {"p": 1}})
    given_b = (["s", "t", "u", "v"], ["a"],
               [("s", "a", {"t": d[8], "u": d[4]}), ("t", "a", {"t": d[4]}), ("u", "a", {"s": d[8]}), loop],
               ["p"], {"s": {"p": d[4]}, "u": {"p": d[8]}})
    a, b = Nflts(*given_a), Nflts(*given_b)
    assert a.pool == [d[2], d[6], 1] and b.pool == [d[4], d[6], d[8]]
    degrees = set()
    for (left, right), given in (((a, b), (given_a, given_b)), ((b, a), (given_b, given_a))):
        g, g_prime = to_flg(left), to_flg(right)
        assert crisp_simulation_nflts(left, right) == on_states(left, right, oracle.gfp_crisp_sim_flg(g, g_prime).pairs)
        fuzzy = fuzzy_simulation_nflts(left, right)
        assert fuzzy == on_states(left, right, oracle.gfp_fuzzy_sim_flg(g, g_prime).entries)
        expected = oracle.System(*_union_as_given(*given))
        crisp_bisim, fuzzy_bisim = oracle.gfp_crisp_bisim_nfts(expected), oracle.gfp_fuzzy_bisim_nfts(expected)
        pairs = [(s, t) for s in left.states for t in right.states]
        crisp = bisimulation_between_nflts(left, right, "crisp").pairs
        assert crisp == {(s, t) for s, t in pairs if ((0, s), (1, t)) in crisp_bisim.pairs} and ("v", "v") in crisp
        between = bisimulation_between_nflts(left, right, "fuzzy")
        assert all(between(s, t) == fuzzy_bisim((0, s), (1, t)) for s, t in pairs)
        degrees |= {*fuzzy.entries.values(), *between.entries.values()}
    assert {d[2], d[4], d[6], d[8]} & degrees  # degrees of both pools reach the results


def test_disjoint_union_requires_equal_alphabets():
    a = as_nflts(Nfts(["s"], ["a"], []))
    b = as_nflts(Nfts(["s"], ["b"], []))
    with pytest.raises(ModelError, match="^systems must share the action alphabet$"):
        disjoint_union(a, b)
    with pytest.raises(ModelError, match="^systems must share the label alphabet$"):
        disjoint_union(Nflts(["s"], ["a"], [], ["p"]), Nflts(["s"], ["a"], [], ["q"]))


def _graph_by_definition(model):
    """Vertices, edges and labels of the corresponding graph, from its definition."""
    vertices = {state_vertex(s) for s in model.states} | {dist_vertex(mu.index) for mu in model.distributions}
    edges = {(state_vertex(s), a, dist_vertex(mu.index)): 1 for s, a, mu in model.transitions}
    for mu in model.distributions:
        edges.update({(dist_vertex(mu.index), EPSILON, state_vertex(t)): d for t, d in mu.fuzzy.items()})
    label_of = labels_of(model)
    labels = {
        v: FuzzySet([*label_of.get(v.key, FuzzySet()).items(), (STATE_MARK, 1)]) if v.is_state else FuzzySet()
        for v in vertices
    }
    return vertices, edges, labels


def test_dense_graph_invariants():
    rng = random.Random(47)
    models = [parse_model(REPO_ROOT / "models" / "example.json")]
    models += [generate(random_spec(rng, 6, labeled=i % 2 == 1)) for i in range(60)]
    for model in models:
        g = to_flg(model)
        vertices, edges, labels = _graph_by_definition(model)
        # ids: the states by name, then the distributions by index
        assert g.by_id == sorted(vertices)
        assert [v.key for v in g.by_id[:len(model.states)]] == sorted(model.states) == list(g.names)
        assert g.pool == sorted(set(g.pool)) and g.pool[-1] == 1 and g.degree_pool() == g.pool
        # the arrays and the views derived from them match the definition
        assert {(g.by_id[i], r, g.by_id[j]): g.pool[rk] for i, out in enumerate(g.out) for r, j, rk in out} == edges
        assert [sorted(sources) for sources in g.preds] == [
            sorted(g.by_id.index(x) for (x, _, y) in edges if y == v) for v in g.by_id
        ]
        assert [{p: g.pool[rk] for p, rk in g.label_maps[k].items()} for k in g.label_ids] == [
            dict(labels[v].items()) for v in g.by_id
        ]
        assert g.vertices == vertices and g.edges == edges and g.labels == labels
        for v in g.by_id:
            assert sorted(g.out_edges(v)) == sorted((r, y, d) for (x, r, y), d in edges.items() if x == v)
        # the engines' view of the graph is the stored arrays
        out, preds, ids, maps = adjacency(g)
        assert out is g.out and preds is g.preds and ids is g.label_ids and maps is g.label_maps
