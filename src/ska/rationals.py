"""Exact rational plumbing shared across the package.

Every entropy, rate and report value is a `fractions.Fraction`, so the
identities the analyses rely on can be asserted as exact equalities.
Floating point is confined to the min-norm-point solver in
:mod:`ska.submodular` and never reaches reported results.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import SkaError

# Longest repr of a rejected value that an error message echoes in full.
SHOWN_CHARACTERS = 40


def parse_rational(value: str | int) -> Fraction:
    """Parse a rational encoded as ``"p/q"`` or an integer string (plain
    ints are accepted too, floats are not).

    Python converts at most ``sys.get_int_max_str_digits()`` digits (4300 by
    default) of a string to an int; a numerator or denominator with more
    digits is rejected with a message that names that bound. The message
    echoes a long value as its first characters and its length."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    reason = ""
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            limit = sys.get_int_max_str_digits()
            if limit and any(sum(c.isdigit() for c in side) > limit for side in value.split("/")):
                reason = (
                    f" has a numerator or denominator of more than {limit} digits,"
                    " the bound on integer strings"
                )
    shown = repr(value)
    if len(shown) > SHOWN_CHARACTERS:
        length = len(value) if isinstance(value, str) else len(shown)
        shown = f"{shown[:SHOWN_CHARACTERS]}... ({length} characters)"
    raise ValueError(f"not a rational: {shown}{reason}")


def format_rational(value: Fraction) -> str:
    """Render as ``"p/q"``, without the ``/q`` when the denominator is 1.

    A numerator or denominator of more than ``sys.get_int_max_str_digits()``
    digits cannot be printed; that raises SkaError naming the bound."""
    try:
        return str(Fraction(value))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SkaError(
            f"an answer has a numerator or denominator of more than {limit} digits,"
            " the bound on integer strings (sys.get_int_max_str_digits())"
        ) from None


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty iterable)."""
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out
