"""Crisp and fuzzy relations over finite universes.

Fuzzy relations store only positive entries.  These types carry the results
of the simulation engines and the brute-force fixpoints, and back the law
checks (reflexivity, symmetry, min-transitivity) used to validate fuzzy
equivalence relations.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .degrees import Degree, ZERO, ONE


class CrispRelation:
    """A set of pairs between two finite universes (possibly the same one)."""

    def __init__(self, left: Iterable, right: Iterable, pairs: Iterable[tuple]):
        self.left = frozenset(left)
        self.right = frozenset(right)
        self.pairs = frozenset(pairs)
        for x, y in self.pairs:
            if x not in self.left or y not in self.right:
                raise ValueError(f"pair ({x!r}, {y!r}) outside the universes")

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrispRelation)
            and self.left == other.left
            and self.right == other.right
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.left, self.right, self.pairs))

    def forward(self, x) -> set:
        """The image {y | x R y}."""
        return {b for a, b in self.pairs if a == x}

    def backward(self, y) -> set:
        """The preimage {x | x R y}."""
        return {a for a, b in self.pairs if b == y}

    def __repr__(self) -> str:
        return f"<CrispRelation: {len(self.pairs)} pairs>"


class FuzzyRelation:
    """A fuzzy relation between two finite universes; zeros are not stored."""

    def __init__(self, left: Iterable, right: Iterable, entries: Mapping[tuple, Degree] | Iterable = ()):
        self.left = frozenset(left)
        self.right = frozenset(right)
        if isinstance(entries, Mapping):
            entries = entries.items()
        self.entries: Dict[Tuple[object, object], Degree] = {}
        for (x, y), degree in entries:
            if x not in self.left or y not in self.right:
                raise ValueError(f"entry ({x!r}, {y!r}) outside the universes")
            # A Fraction is range-checked by its integers, as in model.FuzzySet.
            n, q = (degree.numerator, degree.denominator) if type(degree) is Degree else (degree, 1)
            if not 0 <= n <= q:
                raise ValueError(f"degree {degree} outside [0, 1]")
            if n:
                self.entries[(x, y)] = degree

    def __call__(self, x, y) -> Degree:
        return self.entries.get((x, y), ZERO)

    def rows(self) -> list:
        """The positive entries as (x, y, degree), sorted by (x, y)."""
        return [(x, y, d) for (x, y), d in sorted(self.entries.items())]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzyRelation)
            and self.left == other.left
            and self.right == other.right
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.left, self.right, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"<FuzzyRelation: {len(self.entries)} positive entries>"


@dataclass
class LawReport:
    """Which fuzzy equivalence laws hold, with a witness for each failure."""

    reflexive: bool = True
    symmetric: bool = True
    transitive: bool = True
    witnesses: dict = field(default_factory=dict)

    @property
    def is_equivalence(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive

    def violated(self) -> list:
        return [law for law in ("reflexive", "symmetric", "transitive") if not getattr(self, law)]


def relation_laws(r: FuzzyRelation) -> LawReport:
    """Check reflexivity, symmetry and min-transitivity of a fuzzy relation on one universe."""
    if r.left != r.right:
        raise ValueError("law check requires a relation on a single universe")
    report = LawReport()
    for x in r.left:
        if r(x, x) != ONE:
            report.reflexive = False
            report.witnesses["reflexive"] = (x,)
            break
    for (x, y), d in r.entries.items():
        if r(y, x) != d:
            report.symmetric = False
            report.witnesses["symmetric"] = (x, y)
            break
    done = False
    for (x, y), d1 in r.entries.items():
        for (y2, z), d2 in r.entries.items():
            if y2 == y and min(d1, d2) > r(x, z):
                report.transitive = False
                report.witnesses["transitive"] = (x, y, z)
                done = True
                break
        if done:
            break
    return report
