"""The graph corresponding to a system: vertices, edges, labels, unions."""
import random
from fractions import Fraction

import pytest

from fuzzybisim import Distribution, FuzzySet, ModelError, Nflts, Nfts, as_nflts, disjoint_union, parse_model, to_flg
from fuzzybisim.generate import generate, random_spec
from fuzzybisim.graph import EPSILON, STATE_MARK, dist_vertex, state_vertex
from fuzzybisim.refinement import adjacency

from conftest import REPO_ROOT, make_example

H = Fraction(1, 2)


def test_example_graph_shape():
    g = to_flg(make_example())
    assert len(g.vertices) == 8          # 5 states + 3 distinct distributions
    assert len(g.edges) == 12            # 6 action edges + 6 epsilon edges


def test_example_edge_degrees():
    g = to_flg(make_example())
    mu1 = dist_vertex(0)
    assert g.edge_degree(state_vertex("s1"), "a", mu1) == 1
    assert g.edge_degree(mu1, EPSILON, state_vertex("s3")) == Fraction("0.8")
    assert g.edge_degree(mu1, EPSILON, state_vertex("s1")) == 0


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
    for (x, r, y), d in g.edges.items():
        assert (r, y, d) in g.out_edges(x)
        assert (r, x, d) in g.in_edges(y)
        assert x in g.predecessors(y)


def test_as_nflts_preserves_structure():
    model = make_example()
    view = as_nflts(model)
    assert view.states == model.states
    assert view.label_alphabet == frozenset()
    assert view.size_of_delta() == model.size_of_delta()
    assert as_nflts(view) is view


def test_as_nflts_is_a_view_that_runs_no_constructor(monkeypatch):
    model = Nfts(["s", "t"], ["a"], [("s", "a", {"t": H}), ("t", "a", {"t": H})])
    built = []
    for cls in (FuzzySet, Distribution, Nfts, Nflts):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real: built.append(type(self)) or real(self, *args))
    view = as_nflts(model)
    assert built == []
    assert type(view) is Nflts and type(model) is Nfts
    assert view.delta is model.delta and view.distributions is model.distributions
    assert view.label_alphabet == frozenset() and not view.label_of("s")
    Nfts(["s"], ["a"], [("s", "a", {"s": H})])  # the counters do see constructors
    assert built == [Nfts, FuzzySet, Distribution]


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
    assert union.label_of(inject_a["s"])("p") == H
    assert not union.label_of(inject_b["s"])


def test_disjoint_union_requires_equal_alphabets():
    a = as_nflts(Nfts(["s"], ["a"], []))
    b = as_nflts(Nfts(["s"], ["b"], []))
    with pytest.raises(ModelError):
        disjoint_union(a, b)


def _graph_by_definition(model):
    """Vertices, edges and labels of the corresponding graph, from its definition."""
    vertices = {state_vertex(s) for s in model.states} | {dist_vertex(mu.index) for mu in model.distributions}
    edges = {(state_vertex(s), a, dist_vertex(mu.index)): 1 for s, a, mu in model.transitions}
    for mu in model.distributions:
        edges.update({(dist_vertex(mu.index), EPSILON, state_vertex(t)): d for t, d in mu.fuzzy.items()})
    labels = {
        v: FuzzySet([*model.label_of(v.key).items(), (STATE_MARK, 1)]) if v.is_state else FuzzySet()
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
        assert [v.key for v in g.by_id[:len(model.states)]] == sorted(model.states)
        assert g.pool == sorted(set(g.pool)) and g.pool[-1] == 1 and g.degree_pool() == g.pool
        # the arrays and the views derived from them match the definition
        assert {(g.by_id[i], r, g.by_id[j]): g.pool[rk] for i, out in enumerate(g.out) for r, j, rk in out} == edges
        assert [sorted(sources) for sources in g.preds] == [
            sorted(g.by_id.index(x) for (x, _, y) in edges if y == v) for v in g.by_id
        ]
        assert [{p: g.pool[rk] for p, rk in ranks.items()} for ranks in g.label_ranks] == [
            dict(labels[v].items()) for v in g.by_id
        ]
        assert g.vertices == vertices and g.edges == edges and g.labels == labels
        for v in g.by_id:
            assert sorted(g.out_edges(v)) == sorted((r, y, d) for (x, r, y), d in edges.items() if x == v)
            assert sorted(g.in_edges(v)) == sorted((r, x, d) for (x, r, y), d in edges.items() if y == v)
            assert sorted(g.predecessors(v)) == sorted(x for (x, _, y) in edges if y == v)
        # the engines' view of the graph's own pool is the stored arrays
        by_id, out, preds, ranks = adjacency(g, g.degree_pool())
        assert by_id is g.by_id and out is g.out and preds is g.preds and ranks is g.label_ranks
        if not isinstance(model, Nflts):
            assert to_flg(as_nflts(model)).edges == g.edges


def test_adjacency_re_ranks_onto_a_joint_pool():
    g = to_flg(make_example())
    joint = sorted(set(g.pool) | {Fraction(1, 10), Fraction(3, 4)})
    by_id, out, preds, ranks = adjacency(g, joint)
    assert by_id is g.by_id and preds is g.preds
    assert [[(r, j, joint[rk]) for r, j, rk in edges] for edges in out] == [
        [(r, j, g.pool[rk]) for r, j, rk in edges] for edges in g.out
    ]
    assert [{p: joint[rk] for p, rk in label.items()} for label in ranks] == [
        {p: g.pool[rk] for p, rk in label.items()} for label in g.label_ranks
    ]
