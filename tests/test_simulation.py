"""Simulations between systems and between-system bisimulations."""
import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    ONE,
    ZERO,
    CompactFuzzyPartition,
    CrispRelation,
    FuzzyRelation,
    ModelError,
    Nflts,
    Nfts,
    as_nflts,
    bisimulation_between_nflts,
    disjoint_union,
    crisp_simulation_nflts,
    fuzzy_partition_system,
    fuzzy_simulation_nflts,
    greatest_crisp_simulation_flg,
    greatest_fuzzy_simulation_flg,
    model_to_document,
    relation_to_document,
    to_flg,
)
from fuzzybisim import oracle, simulation
from fuzzybisim.cli import run
from fuzzybisim.degrees import inf, residuum
from fuzzybisim.graph import dist_vertex, on_states, state_vertex
from fuzzybisim.generate import GenSpec, generate

from conftest import edge_caterpillar, label_caterpillar, labels_of, make_example

H = Fraction(1, 2)


def test_self_simulation_contains_identity():
    g = to_flg(make_example())
    Z = greatest_crisp_simulation_flg(g, g)
    assert all((v, v) in Z.pairs for v in g.vertices)
    F = greatest_fuzzy_simulation_flg(g, g)
    assert all(F(v, v) == 1 for v in g.vertices)


def test_bisimilar_states_simulate_both_ways():
    model = make_example()
    Z = crisp_simulation_nflts(model, model)
    assert ("s3", "s4") in Z.pairs and ("s4", "s3") in Z.pairs
    assert ("s2", "s5") in Z.pairs and ("s5", "s2") in Z.pairs


def test_degrees_dominate_for_crisp_simulation():
    # t's self-loop is weaker than s's, so s cannot be simulated by t.
    model_s = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction("0.8")})])
    model_t = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction("0.5")})])
    assert ("s", "s") not in crisp_simulation_nflts(model_s, model_t).pairs
    assert ("s", "s") in crisp_simulation_nflts(model_t, model_s).pairs


def test_fuzzy_simulation_degree_is_the_residuum():
    model_s = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction("0.8")})])
    model_t = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction("0.5")})])
    # 0.8-mass can only be matched up to 0.5, and 0.5 <= 0.8 matches fully.
    assert fuzzy_simulation_nflts(model_s, model_t)("s", "s") == Fraction("0.5")
    assert fuzzy_simulation_nflts(model_t, model_s)("s", "s") == 1


def test_label_clauses():
    a = Nflts(["s"], ["x"], [], ["p"], {"s": {"p": Fraction("0.7")}})
    b = Nflts(["s"], ["x"], [], ["p"], {"s": {"p": Fraction("0.4")}})
    assert crisp_simulation_nflts(a, b).pairs == set()
    assert crisp_simulation_nflts(b, a).pairs == {("s", "s")}
    # residuum(0.7, 0.4) = 0.4 forward; 0.4 <= 0.7 gives 1 backward
    assert fuzzy_simulation_nflts(a, b)("s", "s") == Fraction("0.4")
    assert fuzzy_simulation_nflts(b, a)("s", "s") == 1


def test_alphabet_mismatch_rejected():
    a = Nfts(["s"], ["x"], [])
    b = Nfts(["s"], ["y"], [])
    with pytest.raises(ModelError):
        crisp_simulation_nflts(a, b)
    c = Nflts(["s"], ["x"], [], ["p"], {})
    d = Nflts(["s"], ["x"], [], ["q"], {})
    with pytest.raises(ModelError):
        fuzzy_simulation_nflts(c, d)
    # One rule for two graphs, in the efficient engines and in the oracles alike.
    no_pairs = lambda g, h: CrispRelation(g.vertices, h.vertices, ())
    no_entries = lambda g, h: FuzzyRelation(g.vertices, h.vertices)
    checks = [greatest_crisp_simulation_flg, greatest_fuzzy_simulation_flg, oracle.gfp_crisp_sim_flg,
              oracle.gfp_fuzzy_sim_flg, lambda g, h: oracle.is_crisp_sim_flg(no_pairs(g, h), g, h),
              lambda g, h: oracle.is_fuzzy_sim_flg(no_entries(g, h), g, h)]
    for left, right in ((a, b), (c, d)):  # different action, then label alphabets
        for check in checks:
            with pytest.raises(ModelError) as raised:
                check(to_flg(left), to_flg(right))
            assert str(raised.value) == "graphs must share vertex and edge alphabets"


def test_one_cut_of_fuzzy_simulation_contains_crisp():
    rng = random.Random(606)
    for _ in range(30):
        seed_a, seed_b = rng.getrandbits(32), rng.getrandbits(32)
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        a = generate(GenSpec(state_count=na, support_size=(1, min(2, na)), seed=seed_a))
        b = generate(GenSpec(state_count=nb, support_size=(1, min(2, nb)), seed=seed_b))
        crisp = crisp_simulation_nflts(a, b)
        fuzzy = fuzzy_simulation_nflts(a, b)
        for pair in crisp.pairs:
            assert fuzzy(*pair) == 1


def test_engines_match_the_oracle_fixpoints():
    rng = random.Random(707)
    for _ in range(40):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        a = generate(GenSpec(state_count=na, support_size=(1, min(2, na)),
                             seed=rng.getrandbits(32)))
        b = generate(GenSpec(state_count=nb, support_size=(1, min(2, nb)),
                             seed=rng.getrandbits(32)))
        ga, gb = to_flg(as_nflts(a)), to_flg(as_nflts(b))
        assert greatest_crisp_simulation_flg(ga, gb) == oracle.gfp_crisp_sim_flg(ga, gb)
        assert greatest_fuzzy_simulation_flg(ga, gb) == oracle.gfp_fuzzy_sim_flg(ga, gb)


def test_between_system_bisimulation_crisp():
    model = make_example()
    Z = bisimulation_between_nflts(model, model, mode="crisp")
    # the cross relation is exactly "same block of the auto-bisimulation"
    blocks = [{"s1"}, {"s2", "s5"}, {"s3", "s4"}]
    expected = {(s, t) for block in blocks for s in block for t in block}
    assert Z.pairs == expected


def test_between_system_bisimulation_fuzzy():
    model = make_example()
    Z = bisimulation_between_nflts(model, model, mode="fuzzy")
    assert Z("s1", "s2") == Fraction("0.4")
    assert Z("s2", "s5") == 1
    assert Z("s1", "s3") == 0
    # symmetric because both sides are the same system
    assert Z.converse() == Z


def _between_pairs(count: int, seed: int):
    """Generated pairs with shared alphabets and different state counts."""
    rng = random.Random(seed)
    for i in range(count):
        labels = 2 * (i % 2)
        sizes = rng.sample(range(1, 7), 2)
        yield tuple(
            as_nflts(generate(GenSpec(state_count=n, support_size=(1, min(2, n)), value_pool_size=rng.randint(3, 7),
                                      label_alphabet_size=labels, label_density=0.5 if labels else 0.0,
                                      seed=rng.getrandbits(32))))
            for n in sizes
        )


def test_fuzzy_between_view_equals_the_pairwise_relation():
    zero_pairs = 0
    for a, b in _between_pairs(40, 1414):
        view = bisimulation_between_nflts(a, b, mode="fuzzy")
        union, inject_a, inject_b = disjoint_union(a, b)
        cfp = fuzzy_partition_system(union)
        pairwise = FuzzyRelation(a.states, b.states, {
            (s, t): cfp.degree_of(inject_a[s], inject_b[t]) for s in a.states for t in b.states
        })
        doc = relation_to_document(view)
        assert "entries" not in vars(view)  # the document is read off the rows
        assert doc == relation_to_document(pairwise)
        assert view.entries == pairwise.entries
        assert view == pairwise and pairwise == view and hash(view) == hash(pairwise)
        assert all(view(s, t) == pairwise(s, t) for s in a.states for t in b.states)
        for threshold in {ZERO, ONE, *pairwise.entries.values()}:
            assert view.cut(threshold) == pairwise.cut(threshold)
        assert view.converse() == pairwise.converse()
        zero_pairs += len(a.states) * len(b.states) - len(pairwise.entries)
    assert zero_pairs > 0


def test_fuzzy_between_view_on_systems_of_very_different_sizes():
    # Deep caterpillars: the big side has a leaf per state and about as many degrees.
    pairs = [(as_nflts(family(60)), as_nflts(family(2))) for family in (edge_caterpillar, label_caterpillar)]
    for a, b in pairs + [pair[::-1] for pair in pairs]:
        union, inject_a, inject_b = disjoint_union(a, b)
        cfp = fuzzy_partition_system(union)
        pairwise = FuzzyRelation(a.states, b.states, {
            (s, t): cfp.degree_of(inject_a[s], inject_b[t]) for s in a.states for t in b.states
        })
        view = bisimulation_between_nflts(a, b, mode="fuzzy")
        assert relation_to_document(view) == relation_to_document(pairwise) and view == pairwise


def test_fuzzy_between_json_makes_no_degree_queries(monkeypatch, tmp_path):
    calls = []
    real = CompactFuzzyPartition.degree_of
    monkeypatch.setattr(CompactFuzzyPartition, "degree_of", lambda *args: calls.append(1) or real(*args))
    for i, (a, b) in enumerate(_between_pairs(6, 1515)):
        paths = [tmp_path / f"{i}-{side}.json" for side in "ab"]
        for path, model in zip(paths, (a, b)):
            path.write_text(json.dumps(model_to_document(model)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["bisim-between", "--mode", "fuzzy", "--json", *map(str, paths)]) == 0
    assert calls == []


def test_between_system_bisimulation_bad_mode():
    model = make_example()
    with pytest.raises(ValueError):
        bisimulation_between_nflts(model, model, mode="sorta")


def test_simulation_outputs_pass_their_clause_checkers():
    rng = random.Random(808)
    for _ in range(30):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        a = generate(GenSpec(state_count=na, support_size=(1, min(2, na)),
                             seed=rng.getrandbits(32)))
        b = generate(GenSpec(state_count=nb, support_size=(1, min(2, nb)),
                             seed=rng.getrandbits(32)))
        ga, gb = to_flg(as_nflts(a)), to_flg(as_nflts(b))
        assert oracle.is_crisp_sim_flg(greatest_crisp_simulation_flg(ga, gb), ga, gb)
        assert oracle.is_fuzzy_sim_flg(greatest_fuzzy_simulation_flg(ga, gb), ga, gb)


def _labeled_pair(rng, max_states=4):
    pool, labels = rng.randint(3, 7), rng.randint(1, 2)

    def one():
        n = rng.randint(1, max_states)
        return generate(GenSpec(state_count=n, support_size=(1, min(2, n)), value_pool_size=pool,
                                label_alphabet_size=labels, label_density=0.6,
                                seed=rng.getrandbits(32)))

    return one(), one()


def test_kernel_matches_the_oracles_on_labeled_systems():
    rng = random.Random(909)
    for _ in range(40):
        a, b = _labeled_pair(rng)
        ga, gb = to_flg(a), to_flg(b)
        assert greatest_crisp_simulation_flg(ga, gb) == oracle.gfp_crisp_sim_flg(ga, gb)
        assert greatest_fuzzy_simulation_flg(ga, gb) == oracle.gfp_fuzzy_sim_flg(ga, gb)


def test_each_cut_is_the_kernel_on_the_edges_at_or_above_it():
    # The t-cut of Z is the greatest crisp simulation, inside the cut below
    # t and the pairs with label cap >= t, between the graphs that keep only
    # the edges of degree >= t.
    rng = random.Random(1010)
    for _ in range(20):
        a, b = _labeled_pair(rng)
        ga, gb = to_flg(a), to_flg(b)
        fuzzy = greatest_fuzzy_simulation_flg(ga, gb)
        left, right = sorted(ga.vertices), sorted(gb.vertices)
        index = {v: i for i, v in enumerate(left)}
        index_prime = {v: i for i, v in enumerate(right)}
        width = len(right)
        previous = {(x, y) for x in left for y in right}
        for t in sorted(set(ga.degree_pool()) | set(gb.degree_pool()) | {ONE}):
            start = {
                index[x] * width + index_prime[y]
                for x, y in previous
                if inf(residuum(d, gb.labels[y](p)) for p, d in ga.labels[x].items()) >= t
            }
            edges = [(index[x], r, index[y], 0) for (x, r, y), d in ga.edges.items() if d >= t]
            edges_prime = [(index_prime[x], r, index_prime[y], 0) for (x, r, y), d in gb.edges.items() if d >= t]
            alive = simulation._simulate(edges, edges_prime, start, width)
            cut = {(left[p // width], right[p % width]) for p in alive}
            assert cut == set(fuzzy.cut(t).pairs)
            previous = cut


def test_cuts_are_not_simulations_of_the_graphs_clipped_at_the_threshold():
    a = Nflts(["x", "y"], ["a"], [("x", "a", {"y": H})], ["p"], {"y": {"p": ONE}})
    b = Nflts(["x", "y"], ["a"], [("x", "a", {"y": H})], ["p"], {"y": {"p": H}})
    ga, gb = to_flg(a), to_flg(b)
    fuzzy = greatest_fuzzy_simulation_flg(ga, gb)
    assert fuzzy == oracle.gfp_fuzzy_sim_flg(ga, gb)
    mu = dist_vertex(0)
    assert fuzzy(state_vertex("y"), state_vertex("y")) == H
    assert fuzzy(mu, mu) == 1 and fuzzy(state_vertex("x"), state_vertex("x")) == 1
    assert fuzzy_simulation_nflts(a, b).entries == {("x", "x"): ONE, ("y", "y"): H}
    # Clipping at 1 changes no degree, and the crisp simulation of those
    # graphs needs (y, y) for the 0.5-edge, so it drops (x, x) from the 1-cut.
    assert ("x", "x") not in crisp_simulation_nflts(a, b).pairs


def _renamed(model: Nflts, name) -> Nflts:
    transitions = [(name(s), act, {name(t): d for t, d in mu.fuzzy.items()}) for s, act, mu in model.transitions]
    labels = {name(s): dict(label.items()) for s, label in labels_of(model).items()}
    return Nflts([name(s) for s in model.states], model.actions, transitions, model.label_alphabet, labels)


def test_renaming_states_renames_both_simulations():
    rng = random.Random(1111)
    for _ in range(15):
        a, b = _labeled_pair(rng)
        a2, b2 = _renamed(a, lambda s: "left-" + s[::-1]), _renamed(b, lambda s: "right-" + s[::-1])
        crisp, crisp2 = crisp_simulation_nflts(a, b), crisp_simulation_nflts(a2, b2)
        assert crisp2.pairs == {("left-" + x[::-1], "right-" + y[::-1]) for x, y in crisp.pairs}
        fuzzy, fuzzy2 = fuzzy_simulation_nflts(a, b), fuzzy_simulation_nflts(a2, b2)
        assert fuzzy2.entries == {
            ("left-" + x[::-1], "right-" + y[::-1]): d for (x, y), d in fuzzy.entries.items()
        }


def test_each_copy_in_a_disjoint_union_simulates_its_state_fully():
    rng = random.Random(1212)
    for _ in range(10):
        a, _ = _labeled_pair(rng)
        union, inject_a, inject_b = disjoint_union(a, a)
        there, back = fuzzy_simulation_nflts(a, union), fuzzy_simulation_nflts(union, a)
        crisp = crisp_simulation_nflts(a, union)
        for s in a.states:
            for copy in (inject_a[s], inject_b[s]):
                assert there(s, copy) == 1 and back(copy, s) == 1
                assert (s, copy) in crisp.pairs


def _with_empty_support(model: Nflts, rng) -> Nflts:
    """``model`` plus a transition of one state to the distribution of empty support."""
    transitions = [(s, act, dict(mu.fuzzy.items())) for s, act, mu in model.transitions]
    transitions.append((rng.choice(sorted(model.states)), rng.choice(sorted(model.actions)), {}))
    labels = {s: dict(label.items()) for s, label in labels_of(model).items()}
    return Nflts(model.states, model.actions, transitions, model.label_alphabet, labels)


def test_the_system_path_equals_the_graph_path_on_states():
    # Systems seed only same-kind pairs (and empty-support distributions
    # against states) and read their rows off state ids; no state pair moves.
    rng = random.Random(1616)
    kinds = {"one state": 0, "empty support": 0}
    for i in range(48):
        a, b = _labeled_pair(rng, max_states=1 if i % 4 == 0 else 4)
        if i % 3 == 0:
            a, b = _with_empty_support(a, rng), (_with_empty_support(b, rng) if i % 2 else b)
        kinds["one state"] += len(a.states) == 1 or len(b.states) == 1
        kinds["empty support"] += any(not mu.fuzzy for mu in a.distributions)
        ga, gb = to_flg(a), to_flg(b)
        assert crisp_simulation_nflts(a, b) == on_states(a, b, greatest_crisp_simulation_flg(ga, gb).pairs)
        assert fuzzy_simulation_nflts(a, b) == on_states(a, b, greatest_fuzzy_simulation_flg(ga, gb).entries)
    assert min(kinds.values()) >= 10


def test_a_simulation_query_builds_one_kernel(monkeypatch):
    built = []

    class Counted(simulation._Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.levels)

    monkeypatch.setattr(simulation, "_Kernel", Counted)
    for pool, states in ((3, 6), (8, 12), (40, 40)):
        model = as_nflts(generate(GenSpec(state_count=states, value_pool_size=pool, seed=pool)))
        levels = len(to_flg(model).pool)
        assert levels >= min(pool - 1, 10)
        built.clear()
        fuzzy_simulation_nflts(model, model)
        assert built == [levels]  # one kernel swept over every level
        built.clear()
        crisp_simulation_nflts(model, model)
        assert built == [1]


def test_one_level_per_degree_families_match_the_oracle():
    for n in range(1, 9):
        for family in (edge_caterpillar, label_caterpillar):
            g = to_flg(as_nflts(family(n)))
            assert len(g.pool) == n + 1
            assert greatest_fuzzy_simulation_flg(g, g) == oracle.gfp_fuzzy_sim_flg(g, g)
            assert greatest_crisp_simulation_flg(g, g) == oracle.gfp_crisp_sim_flg(g, g)


def test_a_sweep_of_more_levels_than_a_byte_holds():
    # Both caterpillars: s_i simulates s_j fully when i <= j, else to the
    # degree (j+1)/(n+1) of s_j; 301 levels do not fit the one-byte death levels.
    n = 300
    expected = {(f"s{i}", f"s{j}"): ONE if i <= j else Fraction(j + 1, n + 1) for i in range(n) for j in range(n)}
    for family in (edge_caterpillar, label_caterpillar):
        model = as_nflts(family(n))
        assert fuzzy_simulation_nflts(model, model).entries == expected
        assert crisp_simulation_nflts(model, model).pairs == {pair for pair, d in expected.items() if d == ONE}
