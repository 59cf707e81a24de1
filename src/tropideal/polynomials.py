"""Tropical polynomials: finite maps from exponent vectors to finite scalars.

The empty map, TropPoly(n), is the polynomial infinity, a first-class value
(it is the additive identity and evaluates to infinity everywhere).  Stored
coefficients are never infinite; absence encodes infinity.  + and * are the
semiring operations; a multiple c x^v f is f * TropPoly(n, {v: c}).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import monomials as mon
from .config import Budget
from .errors import DegenerateInputError, DimensionError, InputError
from .semiring import INF, Trop, dot


class TropPoly:
    """A tropical polynomial in num_vars variables."""

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Trop] | Iterable = ()):
        if num_vars < 1:
            raise InputError("a polynomial needs at least one variable")
        self.num_vars = num_vars
        data: dict[tuple, Trop] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for u, c in items:
            u = tuple(int(e) for e in u)
            if len(u) != num_vars:
                raise DimensionError("exponent %r has wrong length for %d variables" % (u, num_vars))
            if any(e < 0 for e in u):
                raise InputError("negative exponent in %r" % (u,))
            if not isinstance(c, Trop):
                c = Trop(c)
            if c.is_inf:
                continue
            prev = data.get(u)
            data[u] = c if prev is None else prev + c
        self._terms = data

    # Basic views ----------------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return not self._terms

    def support(self) -> list[tuple]:
        return mon.sort_canonical(self._terms.keys())

    def terms(self) -> list[tuple]:
        """(exponent, coefficient) pairs in canonical order."""
        return [(u, self._terms[u]) for u in self.support()]

    def coeff(self, u) -> Trop:
        return self._terms.get(tuple(u), INF)

    def degree(self) -> int:
        if not self._terms:
            raise DegenerateInputError("the infinity polynomial has no degree")
        return max(sum(u) for u in self._terms)

    def min_support_degree(self) -> int:
        if not self._terms:
            raise DegenerateInputError("the infinity polynomial has no degree")
        return min(sum(u) for u in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(u) for u in self._terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, TropPoly) and self.num_vars == other.num_vars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_inf:
            return "TropPoly(inf)"
        bits = []
        for u, c in self.terms():
            m = mon.label(u)
            if m == "1":
                bits.append(str(c))
            elif c == Trop(0):
                bits.append(m)
            else:
                bits.append("(%s)*%s" % (c, m))
        return "TropPoly(%s)" % " + ".join(bits)

    # Semiring operations ----------------------------------------------------

    def __add__(self, other: "TropPoly") -> "TropPoly":
        if self.num_vars != other.num_vars:
            raise DimensionError("variable counts differ")
        return TropPoly(self.num_vars, [*self._terms.items(), *other._terms.items()])

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        if self.num_vars != other.num_vars:
            raise DimensionError("variable counts differ")
        return TropPoly(self.num_vars, [(mon.mul(u, v), a * b)
                                        for u, a in self._terms.items()
                                        for v, b in other._terms.items()])

    # Initial forms ------------------------------------------------------------

    def initial_form(self, w: Sequence[Trop]) -> frozenset:
        """Monomials attaining min over the support of coeff + w.u; empty
        when that minimum is infinite.

        Requires w not identically infinite.
        """
        if all(wi.is_inf for wi in w):
            raise InputError("initial form needs a weight with a finite coordinate")
        if len(w) != self.num_vars:
            raise DimensionError("point has %d coordinates, polynomial has %d variables"
                                 % (len(w), self.num_vars))
        best = INF
        argmin: set[tuple] = set()
        for u, a in self._terms.items():
            v = a * dot(w, u)
            if v.is_inf:
                continue
            if best.is_inf or v < best:
                best = v
                argmin = {u}
            elif v == best:
                argmin.add(u)
        return frozenset(argmin)

    # Structural operations ----------------------------------------------------

    def strip_sigma(self, sigma) -> "TropPoly":
        """Drop every term divisible by a variable with index in sigma."""
        sigma = frozenset(sigma)
        bad = [i for i in sigma if i < 0 or i >= self.num_vars]
        if bad:
            raise InputError("sigma indices %r out of range" % (bad,))
        data = {u: a for u, a in self._terms.items() if not mon.uses_sigma(u, sigma)}
        return TropPoly(self.num_vars, data)


# Univariate factorization ------------------------------------------------------


def _univariate_coeffs(f: TropPoly) -> dict[int, Trop]:
    if f.num_vars != 1:
        raise InputError("expected a univariate polynomial")
    if f.is_inf:
        raise DegenerateInputError("expected a nonempty univariate polynomial")
    return {u[0]: a for u, a in f._terms.items()}


def _lower_hull(b: dict[int, Trop]) -> list[tuple[int, Fraction]]:
    """Vertices (j, b_j) of the lower convex hull of the points, by increasing j.

    Andrew's monotone chain, exact in Fractions: a point on or above the
    segment between its neighbours is popped, so consecutive edges have
    strictly increasing slopes.
    """
    hull: list[tuple[int, Fraction]] = []
    for k in sorted(b):
        yk = b[k].value
        while len(hull) >= 2:
            (i, yi), (j, yj) = hull[-2], hull[-1]
            if (yj - yi) * (k - i) < (yk - yi) * (j - i):
                break
            hull.pop()
        hull.append((k, yk))
    return hull


def least_coefficients(f: TropPoly, budget: Budget | None = None) -> TropPoly:
    """The smallest-coefficient polynomial defining the same function.

    c_j is the value at j of the lower hull of the points (j, b_j), read
    off one hull scan: each edge between hull vertices i < k writes the
    coefficients at i + 1 .. k by linear interpolation, and the lowest
    exponent keeps its own.  The budget is charged up front the number of
    coefficients written, max(b) - min(b) + 1, which also bounds the hull
    scan, since the terms are at most that many.
    """
    b = _univariate_coeffs(f)
    budget = Budget() if budget is None else budget
    budget.charge(max(b) - min(b) + 1, "least coefficients")
    hull = _lower_hull(b)
    low, y_low = hull[0]
    out = {(low,): Trop(y_low)}
    for (i, yi), (k, yk) in zip(hull, hull[1:]):
        slope = (yk - yi) / (k - i)
        for j in range(i + 1, k + 1):
            out[(j,)] = Trop(yi + slope * (j - i))
    return TropPoly(1, out)


def tropical_roots(f: TropPoly) -> list[tuple[Fraction, int]]:
    """Finite tropical roots with multiplicities, sorted by root value.

    A root is a point where the univariate minimum is attained at least
    twice; its multiplicity is the gap between the extreme attaining
    exponents.  Each lower hull edge of the points (j, b_j) gives one
    root, minus its slope, with the edge width as multiplicity, so the
    multiplicities plus the lowest support exponent sum to the top exponent.
    """
    hull = _lower_hull(_univariate_coeffs(f))
    return sorted((-(yk - yi) / (k - i), k - i) for (i, yi), (k, yk) in zip(hull, hull[1:]))
