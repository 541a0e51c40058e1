"""Reproducible random model generation for differential testing and benching."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .model import Nfts

#: Identifier of the pseudo-random source, recorded as ``rng`` in each ``bench.BenchRecord``.
RNG_ALGORITHM = "mt19937"


class GenSpecError(ValueError):
    """Infeasible generation parameters."""


@dataclass
class GenSpec:
    """Parameters of one random instance; the seed fixes it completely.

    ``value_pool_size`` is the number of fuzzy values used plus 2, so the
    generator draws degrees from exactly value_pool_size - 2 distinct values
    strictly inside (0, 1).
    """

    state_count: int = 5
    action_count: int = 2
    distributions_per_state_action: Tuple[int, int] = (0, 2)
    support_size: Tuple[int, int] = (1, 2)
    value_pool_size: int = 6
    label_alphabet_size: int = 0
    label_density: float = 0.0
    seed: int = 0

    def validate(self):
        if self.state_count < 1 or self.action_count < 1:
            raise GenSpecError("state and action counts must be positive")
        lo, hi = self.support_size
        if lo > hi or lo < 0:
            raise GenSpecError("bad support-size range")
        if hi > self.state_count:
            raise GenSpecError(
                f"support size {hi} exceeds the state count {self.state_count}"
            )
        dlo, dhi = self.distributions_per_state_action
        if dlo > dhi or dlo < 0:
            raise GenSpecError("bad distributions-per-state-action range")
        if self.value_pool_size < 3:
            raise GenSpecError("value pool size must be at least 3")
        if self.value_pool_size - 2 > 999:
            raise GenSpecError("value pool size too large for the decimal grid")
        if self.label_alphabet_size < 0:
            raise GenSpecError("label alphabet size must not be negative")
        if not 0 <= self.label_density <= 1:
            raise GenSpecError(f"label density {self.label_density} outside [0, 1]")


def generate(spec: GenSpec) -> Nfts:
    """A pseudo-random model matching the spec; identical per seed."""
    return Nfts(*draw(spec))


def draw(spec: GenSpec) -> tuple:
    """The constructor's arguments of ``generate(spec)``: (states, actions,
    transitions), then (label_alphabet, state_labels) for a labeled spec."""
    spec.validate()
    rng = random.Random(spec.seed)
    states = [f"s{i}" for i in range(spec.state_count)]
    actions = [f"a{i}" for i in range(spec.action_count)]
    # Degrees live on the thousandths grid so documents stay exact decimals.
    pool = [Fraction(k, 1000) for k in sorted(rng.sample(range(1, 1000), spec.value_pool_size - 2))]
    transitions = []
    for state in states:
        for action in actions:
            for _ in range(rng.randint(*spec.distributions_per_state_action)):
                size = rng.randint(*spec.support_size)
                targets = rng.sample(states, size)
                transitions.append(
                    (state, action, {t: rng.choice(pool) for t in targets})
                )
    if spec.label_alphabet_size == 0:
        return states, actions, transitions
    alphabet = [f"p{i}" for i in range(spec.label_alphabet_size)]
    labels = {}
    for state in states:
        entries = {
            symbol: rng.choice(pool)
            for symbol in alphabet
            if rng.random() < spec.label_density
        }
        if entries:
            labels[state] = entries
    return states, actions, transitions, alphabet, labels
