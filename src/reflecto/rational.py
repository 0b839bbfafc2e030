"""Exact rational scalars: strict parsing, canonical formatting, vector helpers.

Every numeric quantity in this package is a ``fractions.Fraction``.  Strings
are the only accepted external representation ("p", "-p" or "p/q"); floats are
rejected at the boundary so rounding can never leak into a computation.
``Fraction`` already maintains the canonical form this package relies on:
positive denominator and gcd(|p|, q) = 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import RationalParseError

Rational = Fraction

RationalLike = Union[Rational, int, str]

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Rational:
    """Parse a canonical rational literal.

    Accepts "p", "-p" and "p/q" (q > 0 after reduction); anything else,
    including floats, scientific notation and a zero denominator, is rejected.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected a string, got {type(text).__name__}")
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise RationalParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise RationalParseError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise RationalParseError(str(exc)) from None


def format_rational(value: Rational) -> str:
    """Render a rational in its canonical "p" or "p/q" form."""
    return str(Fraction(value))


def as_rational(value: RationalLike) -> Rational:
    """Coerce an int, canonical string or Fraction to a Fraction.

    Floats are deliberately not accepted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise RationalParseError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise RationalParseError(f"cannot interpret {value!r} as an exact rational")


def as_rational_vector(values: Iterable[RationalLike]) -> tuple[Rational, ...]:
    """Coerce an iterable of rational-likes into a tuple of Fractions."""
    return tuple(as_rational(v) for v in values)


def parse_rational_csv(text: str) -> tuple[Rational, ...]:
    """Parse a comma-separated list of rational literals; no entry may be empty."""
    items = text.split(",")
    if any(piece.strip() == "" for piece in items):
        raise RationalParseError(f"empty entry in rational list {text!r}")
    return tuple(parse_rational(piece) for piece in items)


def format_rational_vector(values: Sequence[Rational]) -> list[str]:
    """Render a vector as canonical strings, ready for JSON."""
    return [format_rational(v) for v in values]
