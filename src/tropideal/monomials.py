"""Monomials as exponent tuples, with the global graded lexicographic order.

The canonical order is fixed package-wide: lower total degree first, and
within a degree the lexicographically larger exponent vector first (so
x0^d heads the degree-d block).  Every serialized list of monomials uses
this order.
"""

from __future__ import annotations

from .errors import InputError

Monomial = tuple  # tuple[int, ...]


def grlex_key(u: Monomial):
    """Sort key for the canonical order (ascending degree, then lex descending)."""
    return (sum(u), tuple(-e for e in u))


def sort_canonical(monomials) -> list[Monomial]:
    return sorted(monomials, key=grlex_key)


def monomials_of_degree(nvars: int, d: int) -> list[Monomial]:
    """All exponent vectors of total degree d, in canonical order."""
    out: list[Monomial] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    if nvars < 1:
        raise InputError("need at least one variable")
    rec([], d, nvars)
    return out


def mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(u, v))


def divides(v: Monomial, u: Monomial) -> bool:
    return all(a <= b for a, b in zip(v, u))


def times_var(u: Monomial, i: int) -> Monomial:
    return u[:i] + (u[i] + 1,) + u[i + 1:]


def uses_sigma(u: Monomial, sigma) -> bool:
    """True when u is divisible by some variable with index in sigma."""
    return any(u[i] > 0 for i in sigma)


def label(u: Monomial) -> str:
    """Human/JSON label: 'x0^2*x1', or '1' for the constant monomial."""
    parts = []
    for i, e in enumerate(u):
        if e == 1:
            parts.append("x%d" % i)
        elif e > 1:
            parts.append("x%d^%d" % (i, e))
    return "*".join(parts) if parts else "1"
