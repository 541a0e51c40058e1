"""The seeded model generator: determinism, validation, statistics."""
import pytest

from fuzzybisim import GenSpec, GenSpecError, Nflts, generate, parse_model, serialize_model


def spec(**kwargs) -> GenSpec:
    base = dict(
        state_count=5,
        action_count=2,
        distributions_per_state_action=(1, 2),
        support_size=(1, 2),
        value_pool_size=6,
        seed=7,
    )
    base.update(kwargs)
    return GenSpec(**base)


def test_same_seed_same_model():
    assert serialize_model(generate(spec())) == serialize_model(generate(spec()))


def test_different_seeds_differ():
    assert serialize_model(generate(spec(seed=1))) != serialize_model(generate(spec(seed=2)))


def test_infeasible_support_rejected():
    with pytest.raises(GenSpecError):
        generate(spec(support_size=(1, 6)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(state_count=0),
        dict(action_count=0),
        dict(distributions_per_state_action=(3, 1)),
        dict(support_size=(2, 1)),
        dict(value_pool_size=2),
        dict(value_pool_size=1002),
        dict(label_alphabet_size=-1),
        dict(label_alphabet_size=1, label_density=-0.1),
        dict(label_alphabet_size=1, label_density=1.5),
        dict(label_alphabet_size=1, label_density=float("nan")),
    ],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(GenSpecError):
        generate(spec(**kwargs))


def test_generated_model_passes_validation():
    model = generate(spec())
    again = parse_model(serialize_model(model))
    assert again.states == model.states
    assert again.size_of_delta() == model.size_of_delta()


def test_statistics_match_the_spec():
    s = spec(state_count=12, action_count=3, support_size=(2, 3), value_pool_size=5)
    model = generate(s)
    assert len(model.states) == 12
    assert len(model.actions) == 3
    used = set()
    for mu in model.distributions:
        assert 2 <= len(mu.support) <= 3
        used.update(mu.fuzzy.degrees())
    # at most l - 2 distinct values, all strictly inside (0, 1)
    assert len(used) <= 3
    assert all(0 < d < 1 for d in used)


def test_labeled_generation():
    model = generate(spec(label_alphabet_size=2, label_density=1.0))
    assert isinstance(model, Nflts)
    assert model.label_alphabet == {"p0", "p1"}
    assert any(model.label_of(s) for s in model.states)
