"""Exact degree arithmetic under the Goedel semantics.

Degrees are `fractions.Fraction` values in [0, 1].  They are parsed from
decimal strings and never go through floating point, because the refinement
engines branch on exact equality and exact order of degrees.  All operators
here are purely order-theoretic (min / max / residuum), so any result on a
finite pool of degrees stays inside that pool extended with 0 and 1.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

Degree = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DegreeError(ValueError):
    """Raised for degree strings that are malformed or outside [0, 1]."""


#: Largest decimal exponent accepted, the same as Python's default limit on
#: the digits of an integer string.  "1e-99999999" would otherwise build a
#: denominator of 10**99999999 before any range check could reject it.
MAX_EXPONENT = 4300

_LOG2_5 = math.log2(5)

#: A degree string: ASCII digits only (``Fraction`` alone would take other
#: scripts' digits, and underscores from Python 3.11 on), with an optional
#: sign and surrounding spaces; a decimal with an optional exponent, or p/q.
_DEGREE = re.compile(r"\s*[-+]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?0*(?P<exponent>\d+))?)\s*", re.ASCII)


def parse_degree(text: str) -> Degree:
    """Parse a decimal (or p/q) string into an exact degree in [0, 1]."""
    match = _DEGREE.fullmatch(text)
    if match is None:
        raise DegreeError(f"malformed degree {text!r}")
    exponent = match["exponent"] or "0"  # no leading zeros: 6 digits or more exceed the limit
    if len(exponent) > 5 or int(exponent) > MAX_EXPONENT:
        raise DegreeError(f"degree {text!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:  # p/0, or more digits than int() reads
        raise DegreeError(f"malformed degree {text!r}") from exc
    if not ZERO <= value <= ONE:
        raise DegreeError(f"degree {text!r} outside [0, 1]")
    return value


def format_degree(d: Degree) -> str:
    """Render a degree as its shortest exact decimal string.

    Falls back to "p/q" for denominators that have prime factors other
    than 2 and 5 (cannot happen for degrees parsed from decimal input,
    since Goedel operators never create new values).
    """
    num, den = d.numerator, d.denominator
    if den == 1:
        return str(num)
    shift = (den & -den).bit_length() - 1  # the factors 2 of den
    odd = den >> shift
    # 5**k has floor(k * log2(5)) + 1 bits; those intervals are wider than 1,
    # so the bit length alone gives the only k for which odd can be 5**k.
    fives = round((odd.bit_length() - 0.5) / _LOG2_5)
    if 5**fives != odd:
        return f"{num}/{den}"
    digits = max(shift, fives)
    scaled_num = num * 10**digits // den
    text = str(scaled_num).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def joint_ranks(pool_a: list, pool_b: list) -> tuple:
    """(joint, rank_a, rank_b): the sorted union of two degree pools, and the
    rank in it of each degree of ``pool_a`` and of ``pool_b``."""
    joint = sorted({*pool_a, *pool_b})
    position = {d: k for k, d in enumerate(joint)}
    return joint, [*map(position.__getitem__, pool_a)], [*map(position.__getitem__, pool_b)]


def residuum(x: Degree, y: Degree) -> Degree:
    """Goedel residuum: 1 if x <= y, else y."""
    return ONE if x <= y else y


def biresiduum(x: Degree, y: Degree) -> Degree:
    """Goedel biresiduum: 1 if x == y, else min(x, y)."""
    return min(residuum(x, y), residuum(y, x))


def inf(values) -> Degree:
    """Minimum of an iterable of degrees (1 when empty)."""
    return min(values, default=ONE)


def sup(values) -> Degree:
    """Maximum of an iterable of degrees (0 when empty)."""
    return max(values, default=ZERO)
