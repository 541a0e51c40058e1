"""The threshold-sweep fuzzy refinement engine against goldens and the oracle."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzybisim import (
    CompactFuzzyPartition,
    FuzzyRelation,
    Nflts,
    Nfts,
    as_nflts,
    cfp_from_relation,
    disjoint_union,
    fuzzy_partition_oracle,
    fuzzy_partition_system,
    greatest_fuzzy_bisim_cfp_flg,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.generate import GenSpec, draw, generate

from testlib import random_spec, to_relation
from conftest import (
    CATERPILLARS,
    REPO_ROOT,
    EXAMPLE_FUZZY_TEXT,
    EXAMPLE_GRAPH_FUZZY_TEXT,
    example_fuzzy_table,
    labels_of,
    make_example,
    root_arrays,
)


def test_golden_system_partition():
    assert fuzzy_partition_system(make_example()).text() == EXAMPLE_FUZZY_TEXT
    assert fuzzy_partition_oracle(make_example()).text() == EXAMPLE_FUZZY_TEXT


def test_golden_graph_partition():
    g = to_flg(make_example())
    cfp = greatest_fuzzy_bisim_cfp_flg(g)
    assert cfp.text() == EXAMPLE_GRAPH_FUZZY_TEXT


def test_expanded_relation_matches_the_table():
    cfp = fuzzy_partition_system(make_example())
    assert to_relation(cfp) == example_fuzzy_table()
    assert cfp.degree_of("s1", "s5") == Fraction("0.4")
    assert cfp.degree_of("s2", "s5") == 1
    assert cfp.degree_of("s1", "s3") == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.builds(GenSpec, state_count=st.integers(2, 6), action_count=st.integers(1, 2),
                      distributions_per_state_action=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                      support_size=st.sampled_from([(1, 1), (1, 2)]), value_pool_size=st.integers(8, 12),
                      label_alphabet_size=st.integers(1, 3), label_density=st.just(1.0),
                      seed=st.integers(0, 2**32 - 1)))
def test_many_distinct_labels_per_level_match_the_oracle(spec):
    # Every state labeled from a pool of at least 6 values: many distinct
    # labels per level, each of whose key parts is made once and reused.
    model = generate(spec)
    assert fuzzy_partition_system(model) == fuzzy_partition_oracle(model)


def test_label_degrees_become_biresiduum_degrees():
    model = Nflts(
        ["s", "t"], ["a"], [],
        ["p"],
        {"s": {"p": Fraction("0.3")}, "t": {"p": Fraction(1)}},
    )
    cfp = fuzzy_partition_system(model)
    assert cfp.degree_of("s", "t") == Fraction("0.3")
    assert fuzzy_partition_oracle(model).text() == cfp.text()


def test_no_transitions_no_labels_is_one_leaf():
    model = Nfts(["s", "t"], ["a"], [])
    cfp = fuzzy_partition_system(model)
    assert cfp.text() == "{s,t}:1"
    assert cfp.degree_of("s", "t") == 1


def test_single_state():
    model = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction(1, 2)})])
    cfp = fuzzy_partition_system(model)
    assert cfp.text() == "{s}:1"


def test_matches_the_system_level_oracle():
    rng = random.Random(303)
    for _ in range(50):
        arguments = draw(random_spec(rng, max_states=5))
        got = to_relation(fuzzy_partition_system(Nfts(*arguments)))
        assert got == oracle.gfp_fuzzy_bisim_nfts(oracle.System(*arguments))


def test_strategies_agree_on_random_graphs():
    rng = random.Random(404)
    for _ in range(50):
        g = to_flg(generate(random_spec(rng, max_states=5)))
        a = greatest_fuzzy_bisim_cfp_flg(g)
        b = cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))
        assert a == b


def test_crisp_partition_refines_the_one_cut():
    # Crisp-bisimilar pairs always have fuzzy degree 1; the converse can
    # fail (a degree-1 pair may match transitions only through partially
    # related targets), so only this containment is asserted.
    from fuzzybisim import crisp_partition_system

    rng = random.Random(505)
    for _ in range(30):
        model = generate(random_spec(rng, max_states=5))
        cfp = fuzzy_partition_system(model)
        crisp = crisp_partition_system(model)
        for s in model.states:
            for t in model.states:
                if crisp.same_block(s, t):
                    assert cfp.degree_of(s, t) == 1


def test_verbose_traces_do_not_change_the_result(capsys):
    cfp = fuzzy_partition_system(make_example(), verbose=True)
    assert cfp.text() == EXAMPLE_FUZZY_TEXT
    captured = capsys.readouterr()
    assert "[fuzzy] threshold 0.4:" in captured.err
    assert captured.out == ""


# -- families where random models rarely give a deep tree ---------------------


def assert_graph_cfp_matches_oracle(model):
    g = to_flg(model)
    expected = cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))
    assert greatest_fuzzy_bisim_cfp_flg(g) == expected


def planted_copies(rng: random.Random, copies: int = 5, size: int = 3) -> tuple:
    """The constructor's arguments of copies of one base model; copy j > 0 raises
    the j-th smallest base degree in one transition."""
    pool = [Fraction(k, 10) for k in range(1, 10)]
    base = []
    for s in range(size):
        targets = {(s + 1) % size: rng.choice(pool), rng.randrange(size): rng.choice(pool)}
        base.append((s, rng.choice("ab"), targets))
    used = sorted({d for _, _, targets in base for d in targets.values()})
    transitions = []
    for j in range(copies):
        moved = used[j - 1] if 0 < j <= len(used) else None
        for s, action, targets in base:
            raised = {t: d + Fraction(1, 20) if d == moved else d for t, d in targets.items()}
            if raised != targets:
                moved = None  # one transition per copy
            transitions.append((f"c{j}s{s}", action, {f"c{j}s{t}": d for t, d in raised.items()}))
    states = [f"c{j}s{s}" for j in range(copies) for s in range(size)]
    return states, ["a", "b"], transitions


def test_planted_copies_match_the_oracle():
    rng = random.Random(606)
    for _ in range(8):
        arguments = planted_copies(rng)
        model = Nfts(*arguments)
        assert_graph_cfp_matches_oracle(model)
        got = fuzzy_partition_system(model)
        assert to_relation(got) == oracle.gfp_fuzzy_bisim_nfts(oracle.System(*arguments))


def test_many_distinct_label_degrees_match_the_oracle():
    rng = random.Random(707)
    pool = [Fraction(k, 100) for k in range(1, 100)]
    for _ in range(25):
        states = [f"s{i}" for i in range(rng.randint(2, 7))]
        transitions = [
            (s, "a", {rng.choice(states): rng.choice(pool)})
            for s in states
            if rng.random() < 0.5
        ]
        labels = {s: {p: rng.choice(pool) for p in "pq" if rng.random() < 0.8} for s in states}
        assert_graph_cfp_matches_oracle(Nflts(states, ["a"], transitions, ["p", "q"], labels))


def test_models_without_transitions_match_the_oracle():
    rng = random.Random(808)
    pool = [Fraction(k, 100) for k in range(1, 101)]
    for _ in range(25):
        states = [f"s{i}" for i in range(rng.randint(1, 9))]
        labels = {s: {p: rng.choice(pool) for p in "pq" if rng.random() < 0.7} for s in states}
        arguments = states, ["a"], [], ["p", "q"], labels
        model = Nflts(*arguments)
        assert_graph_cfp_matches_oracle(model)
        got = fuzzy_partition_system(model)
        assert to_relation(got) == oracle.gfp_fuzzy_bisim_nfts(oracle.System(*arguments))


def test_no_transitions_keeps_a_positive_root_over_many_top_blocks():
    """Labels alone: every pair of top blocks meets at degree 0.5, so the
    state partition is the graph partition with a root above 0."""
    d = Fraction
    labels = {
        "x": {"p": d("0.5"), "q": d(1)},
        "y": {"p": d(1), "q": d("0.5")},
        "z": {"p": d(1), "q": d(1)},
        "z2": {"p": d(1), "q": d(1)},
        "v": {"p": d("0.7"), "q": d(1)},
        "w": {"p": d("0.5"), "q": d("0.5")},
    }
    arguments = list(labels), ["a"], [], ["p", "q"], labels
    model = Nflts(*arguments)
    cfp = fuzzy_partition_system(model)
    assert cfp.root.degree == d("0.5") and len(cfp.root.subblocks) == 4
    assert cfp == fuzzy_partition_oracle(model)
    expanded = to_relation(cfp)
    assert expanded == oracle.gfp_fuzzy_bisim_nfts(oracle.System(*arguments))
    for x in model.states:
        for y in model.states:
            assert cfp.degree_of(x, y) == expanded(x, y), (x, y)
    assert cfp.degree_of("z", "z2") == 1 and cfp.degree_of("v", "z") == d("0.7")


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_caterpillars_match_the_oracle(family):
    for n in range(1, 13):
        model = CATERPILLARS[family](n)
        assert_graph_cfp_matches_oracle(model)
        assert fuzzy_partition_system(model) == fuzzy_partition_oracle(model)


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_each_state_has_degree_one_with_its_copy(family):
    for n in (1, 5, 12):
        model = as_nflts(CATERPILLARS[family](n))
        union, inject_a, inject_b = disjoint_union(model, model)
        cfp = fuzzy_partition_system(union)
        for s in model.states:
            assert cfp.degree_of(inject_a[s], inject_b[s]) == 1, (n, s)


def test_renaming_states_renames_the_partition():
    rng = random.Random(909)
    for _ in range(30):
        model = as_nflts(generate(random_spec(rng, max_states=6)))
        rename = {s: f"t{len(model.states) - i}" for i, s in enumerate(sorted(model.states))}
        renamed = Nflts(
            [rename[s] for s in model.states],
            model.actions,
            [(rename[s], a, {rename[t]: d for t, d in mu.fuzzy.items()}) for s, a, mu in model.transitions],
            model.label_alphabet,
            {rename[s]: label for s, label in labels_of(model).items()},
        )
        cfp = fuzzy_partition_system(model)
        parent, degrees, elements = root_arrays(cfp)
        leaves = [None if leaf is None else frozenset(map(rename.__getitem__, leaf)) for leaf in elements]
        expected = CompactFuzzyPartition((parent, degrees, leaves))
        assert fuzzy_partition_system(renamed) == expected


# -- the state tree straight from the split events of state blocks --------------


def state_tree_by_restriction(model):
    """The state tree by the definition: the graph tree's relation on pairs of
    states, rebuilt as a tree."""
    graph = to_relation(greatest_fuzzy_bisim_cfp_flg(to_flg(model)))
    entries = {(x.key, y.key): d for (x, y), d in graph.entries.items() if x.is_state and y.is_state}
    return cfp_from_relation(FuzzyRelation(model.states, model.states, entries))


d = Fraction
# name -> (model, its state tree's text, the graph partition line of --verbose)
STATE_TREE_CASES = {
    "no transitions": (Nfts(["s", "t", "u"], ["a"], []), "{s,t,u}:1", "{s,t,u}:1"),
    "one state": (Nfts(["s"], ["a"], [("s", "a", {"s": d("0.5")})]), "{s}:1", "{{s}:1,{mu1}:1}:0"),
    "labels only": (
        Nflts(["x", "y", "z", "w"], ["a"], [], ["p", "q"],
              {"x": {"p": d("0.5"), "q": d(1)}, "y": {"p": d(1), "q": d("0.5")},
               "z": {"p": d("0.5"), "q": d(1)}, "w": {"p": d("0.2")}}),
        "{{w}:1,{{x,z}:1,{y}:1}:0.5}:0",
        "{{w}:1,{{x,z}:1,{y}:1}:0.5}:0",
    ),
    "all bisimilar": (
        Nfts(["s", "t", "u"], ["a"], [(x, "a", {"s": d("0.5"), "t": d("0.5"), "u": d("0.5")}) for x in "stu"]),
        "{s,t,u}:1",
        "{{s,t,u}:1,{mu1}:1}:0",
    ),
    "edge caterpillar": (
        CATERPILLARS["edge caterpillar"](4),
        "{{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2",
        "{{{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2,{{mu1}:1,{{mu2}:1,{{mu3}:1,{mu4}:1}:0.6}:0.4}:0.2}:0",
    ),
    "label caterpillar": (
        CATERPILLARS["label caterpillar"](4),
        "{{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2",
        "{{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2",
    ),
    "two hubs": (
        CATERPILLARS["two hubs"](4),
        "{{h0,h1}:1,{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2",
        "{{{h0,h1}:1,{s0}:1,{{s1}:1,{{s2}:1,{s3}:1}:0.6}:0.4}:0.2,"
        "{{mu1}:1,{{mu2}:1,{{mu3}:1,{mu4}:1}:0.6}:0.4}:0.2}:0",
    ),
}


@pytest.mark.parametrize("case", sorted(STATE_TREE_CASES))
def test_state_tree_matches_the_recorded_text_and_the_oracle(case, capsys):
    model, text, graph_text = STATE_TREE_CASES[case]
    cfp = fuzzy_partition_system(model, verbose=True)
    assert cfp.text() == text
    assert cfp == fuzzy_partition_oracle(model) == state_tree_by_restriction(model)
    assert f"[fuzzy] graph partition: {graph_text}\n" in capsys.readouterr().err


def test_a_crisp_root_over_all_states_is_the_whole_tree():
    model = STATE_TREE_CASES["all bisimilar"][0]
    root = fuzzy_partition_system(model).root
    assert root.is_crisp and root.elements == model.states


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_caterpillar_state_trees_are_the_restricted_graph_trees(family):
    for n in range(1, 13):
        model = CATERPILLARS[family](n)
        assert fuzzy_partition_system(model) == state_tree_by_restriction(model), n


def test_state_trees_of_random_models_are_the_restricted_graph_trees():
    rng = random.Random(1212)
    for i in range(60):
        model = generate(random_spec(rng, max_states=6, labeled=i % 2 == 1))
        assert fuzzy_partition_system(model) == state_tree_by_restriction(model)


def test_verbose_cli_prints_the_graph_partition(capsys):
    from fuzzybisim.cli import run

    example = str(REPO_ROOT / "models" / "example.json")
    assert run(["fuzzy-partition", example, "--verbose"]) == 0
    assert f"[fuzzy] graph partition: {EXAMPLE_GRAPH_FUZZY_TEXT}\n" in capsys.readouterr().err


def test_one_tree_is_built_per_system_query(monkeypatch):
    built = []
    real = CompactFuzzyPartition.__init__
    monkeypatch.setattr(CompactFuzzyPartition, "__init__", lambda self, root: built.append(1) or real(self, root))
    rng = random.Random(1313)
    models = [make_example(), *(model for model, _, _ in STATE_TREE_CASES.values())]
    models += [generate(random_spec(rng, max_states=6, labeled=i % 2 == 1)) for i in range(10)]
    for model in models:
        built.clear()
        fuzzy_partition_system(model)
        assert len(built) == 1


# -- the stored arrays against their Block view and their JSON form -------------


def assert_round_trips(cfp, json=True):
    """The stored tree equals the one rebuilt from the arrays of its Block view,
    and (for string elements) the one read back from its JSON document."""
    rebuilt = [CompactFuzzyPartition(root_arrays(cfp))]
    if json:
        rebuilt.append(CompactFuzzyPartition.from_json(cfp.to_json()))
    for again in rebuilt:
        assert again == cfp and again.text() == cfp.text()


def test_engine_trees_round_trip_through_blocks_and_json():
    rng = random.Random(1414)
    for i in range(40):
        model = generate(random_spec(rng, max_states=30, labeled=i % 2 == 1))
        assert_round_trips(fuzzy_partition_system(model))
        assert_round_trips(greatest_fuzzy_bisim_cfp_flg(to_flg(model)), json=False)  # vertices in the leaves


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_deep_caterpillar_trees_round_trip_through_blocks_and_json(family):
    model = CATERPILLARS[family](1000)
    cfp = fuzzy_partition_system(model)
    assert cfp.universe == model.states and cfp.degree_of("s0", "s999") == Fraction(1, 1001)
    assert_round_trips(cfp)
