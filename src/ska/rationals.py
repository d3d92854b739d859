"""Exact rational plumbing shared across the package.

Every entropy, rate and report value is a `fractions.Fraction`, so the
identities the analyses rely on can be asserted as exact equalities.
Floating point is confined to the min-norm-point solver in
:mod:`ska.submodular` and never reaches reported results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable


def parse_rational(value: str | int) -> Fraction:
    """Parse a rational encoded as ``"p/q"`` or an integer string (plain
    ints are accepted too, floats are not)."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render as ``"p/q"``, without the ``/q`` when the denominator is 1."""
    return str(Fraction(value))


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty iterable)."""
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out
