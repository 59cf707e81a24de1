"""The min-plus semiring over exact rationals.

A scalar is an exact rational or the distinguished element infinity.
Tropical addition is min under the total order with infinity largest,
tropical multiplication is rational addition with infinity absorbing.
The additive identity is infinity; the multiplicative identity is 0.
All values are immutable; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, ParseError

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


class Trop:
    """A tropical scalar: Fraction or infinity (encoded as value None)."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None and not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value

    @property
    def is_inf(self) -> bool:
        return self.value is None

    # Tropical sum: min, with infinity largest.
    def __add__(self, other: "Trop") -> "Trop":
        if self.value is None:
            return other
        if other.value is None:
            return self
        return self if self.value <= other.value else other

    # Tropical product: rational addition, infinity absorbs.
    def __mul__(self, other: "Trop") -> "Trop":
        if self.value is None or other.value is None:
            return INF
        return Trop(self.value + other.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trop) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Trop", self.value))

    # a > b and a >= b fall back to b < a and b <= a; a non-Trop operand
    # gets NotImplemented, so Python raises TypeError
    def __lt__(self, other: "Trop") -> bool:
        if not isinstance(other, Trop):
            return NotImplemented
        if other.value is None:
            return self.value is not None
        if self.value is None:
            return False
        return self.value < other.value

    def __le__(self, other: "Trop") -> bool:
        return self < other or self == other

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return "Trop(inf)" if self.value is None else "Trop(%s)" % (self.value,)

    @staticmethod
    def parse(text) -> "Trop":
        """Parse 'p/q', 'p' or 'inf'; exact integers are also accepted."""
        if text == "inf":
            return INF
        return Trop(Fraction(*parse_ratio(text)))


def parse_ratio(text) -> tuple[int, int]:
    """The ints (p, q), q > 0 and not reduced, of a 'p' or 'p/q' string or a JSON int.

    The one rational grammar of the package, matched against the whole
    string: an optional '-', ASCII digits 0-9, then optionally '/' and a
    denominator without a leading zero.
    """
    if type(text) is int:
        return text, 1
    if not isinstance(text, str):
        raise ParseError("expected rational string or 'inf', got %r" % (text,))
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError("not a 'p/q' rational: %r" % (text,))
    num, _, den = text.partition("/")
    try:
        return int(num), int(den) if den else 1
    except ValueError:  # more digits than int() converts
        raise ParseError("not a rational: %r" % (text,))


INF = Trop(None)


def dot(w: Sequence[Trop], u: Sequence[int]) -> Trop:
    """Weighted dot product w.u with the convention infinity * 0 = 0.

    Coordinates with exponent 0 contribute nothing even when the weight
    there is infinite; a positive exponent on an infinite weight makes the
    whole product infinite.
    """
    if len(w) != len(u):
        raise DimensionError("weight has %d coordinates, exponent has %d" % (len(w), len(u)))
    total = Fraction(0)
    for wi, ui in zip(w, u):
        if ui == 0:
            continue
        if wi.value is None:
            return INF
        total += wi.value * ui
    return Trop(total)


def weight_sigma(w: Sequence[Trop]) -> frozenset[int]:
    """Indices of the infinite coordinates of a weight vector."""
    return frozenset(i for i, wi in enumerate(w) if wi.is_inf)


def all_infinite(w: Sequence[Trop]) -> bool:
    return all(wi.is_inf for wi in w)
