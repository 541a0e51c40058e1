"""The brute-force definitional checkers and greatest fixpoints."""
import random
from fractions import Fraction

from fuzzybisim import (
    CrispPartition,
    CrispRelation,
    FuzzyRelation,
    FuzzySet,
    Nflts,
    greatest_crisp_bisim_partition_flg,
    greatest_fuzzy_bisim_cfp_flg,
    relation_laws,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.generate import draw, generate
from fuzzybisim.model import Nfts

from testlib import converse, full_fuzzy_relation, random_spec, state_vertex, to_relation
from conftest import (
    EXAMPLE_CRISP_TEXT,
    EXAMPLE_GRAPH_CRISP_TEXT,
    example_arguments,
    example_fuzzy_table,
    make_example,
)

ONE = Fraction(1)


def example_crisp_relation() -> CrispRelation:
    return to_relation(CrispPartition([["s1"], ["s2", "s5"], ["s3", "s4"]]))


def distributions(model):
    return {f"mu{mu.index + 1}": mu for mu in model.distributions}


# -- liftings -----------------------------------------------------------------


def test_lifted_crisp_on_the_example():
    model = oracle.System(*example_arguments())
    mu = distributions(model)
    R = example_crisp_relation()
    assert oracle.lifted_crisp(R, mu["mu1"], mu["mu1"])
    # mu1(s2)=0.5 has no match of degree >= 0.5 in mu2 over {s2, s5}
    assert not oracle.lifted_crisp(R, mu["mu1"], mu["mu2"])
    # mu1(s3)=0.8 exceeds mu3 on the block {s3, s4}: max 0.7
    assert not oracle.lifted_crisp(R, mu["mu1"], mu["mu3"])


def test_lifted_fuzzy_on_the_example():
    model = oracle.System(*example_arguments())
    mu = distributions(model)
    R = example_fuzzy_table()
    assert oracle.lifted_fuzzy(R, mu["mu1"], mu["mu3"]) == Fraction("0.5")
    assert oracle.lifted_fuzzy(R, mu["mu1"], mu["mu1"]) == ONE


def test_lifted_fuzzy_trivial_cases():
    left = FuzzyRelation({"a", "b"}, {"a", "b"}, {("a", "a"): ONE, ("b", "b"): ONE})
    mu = {"a": Fraction("0.5")}
    nu = {"b": Fraction("0.5")}
    from fuzzybisim.model import FuzzySet

    assert oracle.lifted_fuzzy(left, FuzzySet(mu), FuzzySet(mu)) == ONE
    # disjoint supports with a diagonal relation: no matching mass at all
    assert oracle.lifted_fuzzy(left, FuzzySet(mu), FuzzySet(nu)) == 0


def test_lifting_symmetry_small_random():
    rng = random.Random(7)
    for _ in range(40):
        model = oracle.System(*draw(random_spec(rng, max_states=4, labeled=False)))
        states = sorted(model.states)
        pairs = {
            (x, y) for x in states for y in states if rng.random() < 0.5
        }
        R = CrispRelation(model.states, model.states, pairs)
        F = FuzzyRelation(
            model.states,
            model.states,
            {
                (x, y): Fraction(rng.randint(0, 4), 4)
                for x in states
                for y in states
            },
        )
        for mu in model.distributions:
            for nu in model.distributions:
                assert oracle.lifted_crisp(R, mu, nu) == oracle.lifted_crisp(
                    converse(R), nu, mu
                )
                assert oracle.lifted_fuzzy(F, mu, nu) == oracle.lifted_fuzzy(
                    converse(F), nu, mu
                )


def test_witness_realizes_lifting():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        model = oracle.System(*draw(random_spec(rng, max_states=4, labeled=False)))
        states = sorted(model.states)
        pairs = {(x, y) for x in states for y in states if rng.random() < 0.6}
        R = CrispRelation(model.states, model.states, pairs)
        for mu in model.distributions:
            for nu in model.distributions:
                if oracle.lifted_crisp(R, mu, nu):
                    assert oracle.witness_realizes_lifting(R, mu, nu)
                    checked += 1
    assert checked > 10
    # With no pair related, e has no positive value: mass on either side is not realized.
    empty, half = CrispRelation({"s"}, {"s"}, set()), FuzzySet({"s": Fraction(1, 2)})
    assert not oracle.witness_realizes_lifting(empty, half, FuzzySet())
    assert not oracle.witness_realizes_lifting(empty, FuzzySet(), half)
    assert oracle.witness_realizes_lifting(empty, FuzzySet(), FuzzySet())


# -- system-level checkers ------------------------------------------------------


def test_a_system_is_numbered_as_its_constructor_numbers_it():
    # distributions in first use, with duplicate triples and zero degrees dropped
    half = Fraction(1, 2)
    arguments = (["s", "t"], ["a", "b"], [("t", "b", {"s": half, "t": 0}), ("s", "a", {"t": 1}),
                                          ("t", "a", {"s": half}), ("t", "b", {"s": half}), ("s", "a", {})],
                 ["p"], [("t", {"p": half, "q": 0})])
    system = oracle.System(*arguments)
    first, second, empty = system.distributions
    assert [dict(mu.items()) for mu in system.distributions] == [{"s": half}, {"t": 1}, {}]
    assert system.transitions == (("t", "b", first), ("s", "a", second), ("t", "a", first), ("s", "a", empty))
    assert system.outgoing("t") == [("b", first), ("a", first)] and system.outgoing("t", "a") == [("a", first)]
    assert system.label_of("t") == FuzzySet({"p": half}) and not system.label_of("s")
    rng = random.Random(29)
    for model_arguments in [arguments] + [draw(random_spec(rng, 6)) for _ in range(30)]:
        model, system = Nfts(*model_arguments), oracle.System(*model_arguments)
        assert list(map(repr, system.distributions)) == list(map(repr, model.distributions))
        assert [dict(mu.items()) for mu in system.distributions] == [dict(mu.items()) for mu in model.distributions]
        assert [(s, a, mu.index) for s, a, mu in system.transitions] == [
            (model.names[i], a, k) for i, a, k in model.delta]


def test_crisp_checker_on_the_example():
    model = oracle.System(*example_arguments())
    assert oracle.is_crisp_bisim_nfts(example_crisp_relation(), model)
    report = oracle.is_crisp_bisim_nfts(
        CrispRelation(model.states, model.states,
                      {(s, t) for s in model.states for t in model.states}),
        model,
    )
    assert not report.holds and report.witness is not None
    assert oracle.is_crisp_bisim_nfts(
        CrispRelation(model.states, model.states, set()), model
    )
    # t moves and s does not: only the backward clause fails.
    idle = oracle.System(["s", "t"], ["a"], [("t", "a", {"t": ONE})])
    report = oracle.is_crisp_bisim_nfts(CrispRelation(idle.states, idle.states, {("s", "t")}), idle)
    assert (report.holds, report.clause, report.witness) == (
        False, "backward-transition", ("s", "t", "a", idle.distributions[0]))


def test_fuzzy_checker_on_the_example():
    model = oracle.System(*example_arguments())
    assert oracle.is_fuzzy_bisim_nfts(example_fuzzy_table(), model)
    report = oracle.is_fuzzy_bisim_nfts(full_fuzzy_relation(model.states), model)
    assert not report.holds and report.clause is not None
    zero = FuzzyRelation(model.states, model.states, {})
    assert oracle.is_fuzzy_bisim_nfts(zero, model)
    # Labels 1/2 and 1 bound the pair at 1/2; t moves and s does not.
    labeled = oracle.System(["s", "t"], ["a"], [], ["p"], {"s": {"p": Fraction(1, 2)}, "t": {"p": ONE}})
    idle = oracle.System(["s", "t"], ["a"], [("t", "a", {"t": ONE})])
    for system, clause, witness in [
        (labeled, "label-biresiduum", ("s", "t", "p")),
        (idle, "backward-transition", ("s", "t", "a", idle.distributions[0])),
    ]:
        report = oracle.is_fuzzy_bisim_nfts(FuzzyRelation(system.states, system.states, {("s", "t"): ONE}), system)
        assert (report.holds, report.clause, report.witness) == (False, clause, witness)


# -- greatest fixpoints ----------------------------------------------------------


def test_gfp_crisp_on_the_example():
    model = oracle.System(*example_arguments())
    R = oracle.gfp_crisp_bisim_nfts(model)
    assert CrispPartition.from_relation(R).text() == EXAMPLE_CRISP_TEXT


def test_gfp_crisp_trivial():
    empty = oracle.System(["s", "t"], ["a"], [])
    assert len(oracle.gfp_crisp_bisim_nfts(empty).pairs) == 4
    single = oracle.System(["s"], ["a"], [])
    assert oracle.gfp_crisp_bisim_nfts(single).pairs == {("s", "s")}


def test_gfp_fuzzy_on_the_example():
    model = oracle.System(*example_arguments())
    assert oracle.gfp_fuzzy_bisim_nfts(model) == example_fuzzy_table()


def test_gfp_fuzzy_trivial():
    empty = oracle.System(["s", "t"], ["a"], [])
    assert oracle.gfp_fuzzy_bisim_nfts(empty) == full_fuzzy_relation(empty.states)

    half = Fraction(1, 2)
    twin = oracle.System(["s", "t"], ["a"], [("s", "a", {"s": half}), ("t", "a", {"t": half})])
    assert oracle.gfp_fuzzy_bisim_nfts(twin) == full_fuzzy_relation(twin.states)


def test_gfp_outputs_satisfy_the_laws():
    rng = random.Random(23)
    for _ in range(20):
        model = oracle.System(*draw(random_spec(rng, max_states=5, labeled=False)))
        crisp = oracle.gfp_crisp_bisim_nfts(model)
        # an equivalence: reflexive, symmetric, transitive
        assert all((s, s) in crisp.pairs for s in model.states)
        assert converse(crisp) == crisp
        fuzzy = oracle.gfp_fuzzy_bisim_nfts(model)
        assert relation_laws(fuzzy).is_equivalence


# -- graph-level fixpoints -------------------------------------------------------


def test_gfp_crisp_flg_golden():
    g = to_flg(make_example())
    partition = CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))
    assert partition.text() == EXAMPLE_GRAPH_CRISP_TEXT


def test_gfp_fuzzy_flg_restricts_to_the_table():
    model = make_example()
    Z = oracle.gfp_fuzzy_bisim_flg(to_flg(model))
    table = example_fuzzy_table()
    for s in model.states:
        for t in model.states:
            assert Z(state_vertex(s), state_vertex(t)) == table(s, t)


def test_graph_checkers_accept_the_greatest_bisimulations_and_nothing_larger():
    rng = random.Random(41)
    for _ in range(16):
        g = to_flg(generate(random_spec(rng, max_states=5)))
        vertices = sorted(g.vertices)
        crisp = to_relation(greatest_crisp_bisim_partition_flg(g))
        assert oracle.is_crisp_bisim_flg(crisp, g).holds
        for pair in [(x, y) for x in vertices for y in vertices if (x, y) not in crisp.pairs]:
            larger = CrispRelation(crisp.left, crisp.right, crisp.pairs | {pair})
            assert not oracle.is_crisp_bisim_flg(larger, g).holds, pair

        fuzzy = to_relation(greatest_fuzzy_bisim_cfp_flg(g))
        assert oracle.is_fuzzy_bisim_flg(fuzzy, g).holds
        degrees = sorted(set(g.degree_pool()) | {Fraction(1)})
        below_one = [(x, y) for x in vertices for y in vertices if fuzzy(x, y) < 1]
        for x, y in rng.sample(below_one, min(3, len(below_one))):
            raised = dict(fuzzy.entries)
            raised[(x, y)] = next(d for d in degrees if d > fuzzy(x, y))
            larger = FuzzyRelation(fuzzy.left, fuzzy.right, raised)
            assert not oracle.is_fuzzy_bisim_flg(larger, g).holds, (x, y)


def test_simulation_checkers_report_each_clause():
    """One mutant per clause: the pair (s, s) of two one-state systems, which
    violates that clause alone."""
    def system(label, moves):
        return Nflts(["s"], ["a"], [("s", "a", {"s": ONE})] if moves else [], ["p"], {"s": {"p": label}})

    s = state_vertex("s")
    for (left, right), crisp_clause, fuzzy_clause, fuzzy_witness in [
        ((system(ONE, False), system(Fraction(1, 2), False)), "label-dominance", "label-residuum", (s, s, "p")),
        ((system(ONE, True), system(ONE, False)), "forward-edge", "forward-edge", (s, s)),
    ]:
        g, g_prime = to_flg(left), to_flg(right)
        crisp = oracle.is_crisp_sim_flg(CrispRelation(g.vertices, g_prime.vertices, {(s, s)}), g, g_prime)
        assert (crisp.holds, crisp.clause, crisp.witness) == (False, crisp_clause, (s, s))
        fuzzy = oracle.is_fuzzy_sim_flg(FuzzyRelation(g.vertices, g_prime.vertices, {(s, s): ONE}), g, g_prime)
        assert (fuzzy.holds, fuzzy.clause, fuzzy.witness) == (False, fuzzy_clause, fuzzy_witness)


def test_gfp_crisp_sim_contains_identity():
    g = to_flg(make_example())
    Z = oracle.gfp_crisp_sim_flg(g, g)
    assert all((v, v) in Z.pairs for v in g.vertices)


def test_sim_requires_matching_signatures():
    import pytest
    from fuzzybisim import ModelError, Nfts

    g = to_flg(make_example())
    h = to_flg(Nfts(["s"], ["c"], []))
    with pytest.raises(ModelError):
        oracle.gfp_crisp_sim_flg(g, h)
