"""Run configuration: the enumeration cap.

Enumerating operations take an optional `cap` argument and charge their
work to a `Budget`.  A `Budget(None)` reads the `TROPIDEAL_CAP` environment
variable when it is made, so whether such a call is refused depends on the
environment unless the caller passes the cap explicitly.
"""

from __future__ import annotations

import os

from .errors import InputError, SizeGuardError

DEFAULT_CAP = 5_000_000
CAP_ENV_VAR = "TROPIDEAL_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: explicit argument, else env override, else default."""
    if cap is not None:
        if cap < 1:
            raise InputError("enumeration cap must be >= 1, got %r" % (cap,))
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise InputError("%s must be an integer, got %r" % (CAP_ENV_VAR, env))
        if value < 1:
            raise InputError("%s must be >= 1, got %r" % (CAP_ENV_VAR, env))
        return value
    return DEFAULT_CAP


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
                "%s needs %d more subsets; cap is %d (set %s to raise it)"
                % (what, -self.remaining, self.cap, CAP_ENV_VAR)
            )
