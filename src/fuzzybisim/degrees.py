"""Exact degree arithmetic under the Goedel semantics.

Degrees are `fractions.Fraction` values in [0, 1].  They are parsed from
decimal strings and never go through floating point, because the refinement
engines branch on exact equality and exact order of degrees.  All operators
here are purely order-theoretic (min / max / residuum), so any result on a
finite pool of degrees stays inside that pool extended with 0 and 1.
"""
from __future__ import annotations

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


def _exponent(text: str) -> int:
    """Magnitude of the decimal exponent written in ``text``; 0 if none is readable."""
    if "e" not in text and "E" not in text:
        return 0
    try:
        return abs(int(text.lower().partition("e")[2]))
    except ValueError:
        return 0


def parse_degree(text: str) -> Degree:
    """Parse a decimal (or p/q) string into an exact degree in [0, 1]."""
    if _exponent(text) > MAX_EXPONENT:
        raise DegreeError(f"degree {text!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
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
    shift = 0
    scaled = den
    while scaled % 2 == 0:
        scaled //= 2
        shift += 1
    fives = 0
    while scaled % 5 == 0:
        scaled //= 5
        fives += 1
    if scaled != 1:
        return f"{num}/{den}"
    digits = max(shift, fives)
    scaled_num = num * 10**digits // den
    text = str(scaled_num).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def residuum(x: Degree, y: Degree) -> Degree:
    """Goedel residuum: 1 if x <= y, else y."""
    return ONE if x <= y else y


def biresiduum(x: Degree, y: Degree) -> Degree:
    """Goedel biresiduum: 1 if x == y, else min(x, y)."""
    return min(residuum(x, y), residuum(y, x))


def inf(values, default: Degree = ONE) -> Degree:
    """Minimum of an iterable of degrees (`default` when empty)."""
    return min(values, default=default)


def sup(values, default: Degree = ZERO) -> Degree:
    """Maximum of an iterable of degrees (`default` when empty)."""
    return max(values, default=default)
