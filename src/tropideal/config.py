"""Run configuration: the enumeration cap.

Enumerating operations take an optional `budget` argument and charge their
work to it; nested calls hand the same budget on, so one cap bounds a
whole run.  A budget of None is a fresh `Budget()` with `DEFAULT_CAP`.
Nothing is read from the environment, so whether a call is refused
depends on its arguments alone.
"""

from __future__ import annotations

from .errors import InputError, SizeGuardError

DEFAULT_CAP = 5_000_000


class Budget:
    """Counts enumerated subsets and fails loudly past the cap."""

    __slots__ = ("remaining", "cap")

    def __init__(self, cap: int | None = None):
        if cap is not None and cap < 1:
            raise InputError("enumeration cap must be >= 1, got %r" % (cap,))
        self.cap = DEFAULT_CAP if cap is None else cap
        self.remaining = self.cap

    def charge(self, amount: int, what: str = "enumeration") -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise SizeGuardError(
                "%s needs %d more subsets; cap is %d (pass --cap or budget=Budget(n) "
                "to raise it)" % (what, -self.remaining, self.cap)
            )
