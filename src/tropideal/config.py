"""Run configuration: the enumeration cap.

Enumerating operations take an optional `cap` argument and charge their
work to a `Budget`; a cap of None means `DEFAULT_CAP`.  Nothing is read
from the environment, so whether a call is refused depends on its
arguments alone.
"""

from __future__ import annotations

from .errors import InputError, SizeGuardError

DEFAULT_CAP = 5_000_000


def resolve_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: the explicit argument, else the default."""
    if cap is None:
        return DEFAULT_CAP
    if cap < 1:
        raise InputError("enumeration cap must be >= 1, got %r" % (cap,))
    return cap


class Budget:
    """Counts enumerated subsets and fails loudly past the cap."""

    __slots__ = ("remaining", "cap")

    def __init__(self, cap: int | None = None):
        self.cap = resolve_cap(cap)
        self.remaining = self.cap

    def charge(self, amount: int, what: str = "enumeration") -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise SizeGuardError(
                "%s needs %d more subsets; cap is %d (pass --cap or cap= to raise it)"
                % (what, -self.remaining, self.cap)
            )
