"""Exact rational polyhedral cells and one-stratum complexes in stratified space.

A cell lives in one stratum (the points whose infinite coordinates are
exactly sigma) and is stored as a closed system of equalities and
inequalities over the finite coordinates, plus an opaque label; a complex
holds the cells of one stratum.  Cell rows are primitive integers
(canonical_row); fm_solve takes int rows as given.  Rows stay integer
through equality substitution and each Fourier-Motzkin step; rationals
appear only in bounds and points, and a point P / q meets rows and tie
sets in integers.  Feasibility, points in the relative interior and
dimensions come from Fourier-Motzkin elimination with midpoint
back-substitution; all exact, with no floating point and no perturbation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .config import Budget
from .errors import InputError, InvariantViolationError
from .linalg import echelon
from .polynomials import TropPoly

Row = tuple  # (coeffs: tuple[int, ...], rhs: int), primitive: the gcd of all entries is 1


def _scaled(xs) -> tuple[list[int], int]:
    """Integers P and q > 0 with xs = P / q, for rationals xs."""
    vals = [Fraction(x) for x in xs]
    q = lcm(*(v.denominator for v in vals))
    return [v.numerator * (q // v.denominator) for v in vals], q


def canonical_row(coeffs, rhs, equality: bool = False) -> Row:
    """Primitive integer form; equalities get a positive leading coefficient."""
    ints = (*coeffs, rhs)
    if not all(type(v) is int for v in ints):
        ints = _scaled(ints)[0]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if equality and next((v for v in ints if v != 0), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints[:-1]), ints[-1]


# Core exact linear programming ------------------------------------------------------


def _dedupe(ineqs):
    """Keep the tightest constraint per direction; detect constant violations.

    A row's direction is its coefficient vector divided by the gcd g of the
    coefficients, and its bound is rhs / g, kept as the pair (rhs, g) and
    compared by cross-multiplying (g > 0).  Returns None when a constant
    row is violated.
    """
    best: dict[tuple, tuple[int, int, bool]] = {}
    for coeffs, rhs, strict in ineqs:
        g = gcd(*coeffs)
        if g == 0:
            if rhs < 0 or (strict and rhs == 0):
                return None
            continue
        prim = tuple(c // g for c in coeffs)
        old = best.get(prim)
        if old is not None:
            new_side, old_side = rhs * old[1], old[0] * g
            if new_side > old_side or (new_side == old_side and (old[2] or not strict)):
                continue
        best[prim] = (rhs, g, strict)
    # the bound rhs/g in lowest terms is (rhs/h)/(g/h), h = gcd(rhs, g); its
    # primitive integer row is ((g/h) * prim, rhs/h)
    out = []
    for k, (rhs, g, strict) in best.items():
        h = gcd(rhs, g)
        out.append(([c * (g // h) for c in k], rhs // h, strict))
    return out


def _fm_eliminate(ineqs, var: int):
    """One Fourier-Motzkin step; returns (kept, combined) or None if infeasible."""
    pos, neg, zero = [], [], []
    for row in ineqs:
        c = row[0][var]
        (pos if c > 0 else neg if c < 0 else zero).append(row)
    out = list(zero)
    for pc, prhs, pstrict in pos:
        a1 = pc[var]
        for nc, nrhs, nstrict in neg:
            a2 = -nc[var]
            coeffs = [a2 * x + a1 * y for x, y in zip(pc, nc)]
            rhs = a2 * prhs + a1 * nrhs
            out.append((coeffs, rhs, pstrict or nstrict))
    return _dedupe(out)


def fm_solve(m: int, eqs: Sequence[Row], ineqs: Sequence[Row],
             strict: Sequence[Row] = ()) -> Optional[tuple]:
    """An exact point with a.w = b on eqs, a.w <= b on ineqs and a.w < b on
    strict, or None.

    For a closed system the returned point lies in the relative interior:
    equalities are eliminated first and each remaining variable is chosen
    inside the relative interior of its feasible interval (its midpoint when
    bounded).  Int rows are taken as given: echelon's reduced form over d
    and _dedupe's primitive rows do not depend on a row's scale.
    """
    eq_rows = [coeffs + (rhs,) for coeffs, rhs, _ in _normalize_rows(eqs, m, False)]
    pivots, prows, d = echelon(eq_rows)
    if pivots and pivots[-1] == m:
        return None  # the equalities reduce to 0 = nonzero
    if d < 0:
        d, prows = -d, [[-x for x in prow] for prow in prows]
    free = [c for c in range(m) if c not in pivots]
    rows = _normalize_rows(ineqs, m, False) + _normalize_rows(strict, m, True)
    if pivots:
        for k, (coeffs, rhs, is_strict) in enumerate(rows):
            # d * row minus row[c] times the pivot row of c; each pivot row
            # carries d at its own column, so the pivot columns become 0
            row = [d * x for x in (*coeffs, rhs)]
            for c, prow in zip(pivots, prows):
                if coeffs[c]:
                    row = [a - coeffs[c] * b for a, b in zip(row, prow)]
            rows[k] = (row[:m], row[m], is_strict)
    rows = _dedupe(rows)
    if rows is None:
        return None
    levels = []
    for v in free:
        levels.append((v, rows))
        rows = _fm_eliminate(rows, v)
        if rows is None:
            return None
    values: dict[int, Fraction] = {}
    for v, lrows in reversed(levels):
        lower: Optional[tuple[Fraction, bool]] = None
        upper: Optional[tuple[Fraction, bool]] = None
        for coeffs, rhs, is_strict in lrows:
            a = coeffs[v]
            if a == 0:
                continue
            rest = rhs - sum(coeffs[j] * values[j] for j in values if coeffs[j] != 0 and j != v)
            bound = Fraction(rest, a)
            if a > 0:
                if upper is None or bound < upper[0] or (bound == upper[0] and is_strict):
                    upper = (bound, is_strict)
            else:
                if lower is None or bound > lower[0] or (bound == lower[0] and is_strict):
                    lower = (bound, is_strict)
        if lower is None and upper is None:
            values[v] = Fraction(0)
        elif lower is None:
            values[v] = upper[0] - 1
        elif upper is None:
            values[v] = lower[0] + 1
        elif lower[0] < upper[0]:
            values[v] = (lower[0] + upper[0]) / 2
        elif lower[0] == upper[0] and not lower[1] and not upper[1]:
            values[v] = lower[0]
        else:
            return None
    for col, prow in zip(pivots, prows):
        values[col] = Fraction(prow[m] - sum(prow[j] * values[j] for j in free if prow[j] != 0), d)
    return tuple(values[c] for c in range(m))


def _normalize_rows(rows, m, strict: bool):
    """(coeffs, rhs, strict) int rows; only rows with a non-int entry are scaled."""
    out = []
    for coeffs, rhs in rows:
        if len(coeffs) != m:
            raise InputError("row has wrong width")
        if type(rhs) is int and set(map(type, coeffs)) <= {int}:
            coeffs = tuple(coeffs)
        else:
            coeffs, rhs = canonical_row(coeffs, rhs)
        out.append((coeffs, rhs, strict))
    return out


# Cells and complexes ------------------------------------------------------------------


class Cell:
    """A closed polyhedron inside one stratum, with a label.

    Rows are primitive integer (coeffs, rhs) over the cell's free
    coordinates; equality rows mean a.w = b, inequality rows a.w <= b.  core
    is a pair (eqs, strict) of row lists, a.w = b and a.w < b, cutting out
    exactly the relative interior, as fm_solve's eqs and strict: given by
    the builder, else solved once on first use.
    """

    __slots__ = ("ambient", "sigma", "free", "eqs", "ineqs", "label", "_core",
                 "_relint", "_tight", "_dim", "_solved")

    def __init__(self, ambient: int, sigma, eqs, ineqs, label=None, free=None, core=None):
        self.ambient = ambient
        self.sigma = frozenset(sigma)
        if any(i < 0 or i >= ambient for i in self.sigma):
            raise InputError("sigma indices out of range")
        self.free = tuple(free) if free is not None else tuple(
            i for i in range(ambient) if i not in self.sigma)
        m = len(self.free)
        self.eqs = tuple(canonical_row(c, r, equality=True) for c, r in eqs)
        self.ineqs = tuple(canonical_row(c, r) for c, r in ineqs)
        for c, _ in itertools.chain(self.eqs, self.ineqs):
            if len(c) != m:
                raise InputError("row width %d does not match %d free coordinates" % (len(c), m))
        self.label = label
        self._core = core
        self._relint = None
        self._tight = None
        self._dim = None
        self._solved = False

    def _solve(self):
        if self._solved:
            return
        self._solved = True
        m = len(self.free)
        p = fm_solve(m, self.eqs, self.ineqs)
        self._relint = p
        if p is None:
            return
        P, q = _scaled(p)
        tight = frozenset(i for i, (c, r) in enumerate(self.ineqs)
                          if sum(a * x for a, x in zip(c, P)) == r * q)
        self._tight = tight
        rows = [c for c, _ in self.eqs] + [self.ineqs[i][0] for i in tight]
        self._dim = m - len(echelon(rows)[0])

    def relint_point(self) -> Optional[tuple]:
        self._solve()
        return self._relint

    def dim(self) -> Optional[int]:
        """The affine-hull dimension, or None when the closed system is empty."""
        self._solve()
        return self._dim

    def _holds_at(self, P: Sequence[int], q: int) -> bool:
        """Whether the point P / q (q > 0) lies in the closed cell."""
        for c, r in self.eqs:
            if sum(a * x for a, x in zip(c, P)) != r * q:
                return False
        for c, r in self.ineqs:
            if sum(a * x for a, x in zip(c, P)) > r * q:
                return False
        return True

    @property
    def core(self):
        """The builder's core, else the equalities plus the tight rows with
        every other row strict (the infeasible 0 < 0 for an empty cell)."""
        if self._core is None:
            self._solve()
            if self._relint is None:
                self._core = ((), [((0,) * len(self.free), 0)])
            else:
                eqs, strict = list(self.eqs), []
                for i, row in enumerate(self.ineqs):
                    (eqs if i in self._tight else strict).append(row)
                self._core = (eqs, strict)
        return self._core

    def __repr__(self) -> str:
        return "Cell(sigma=%s, dim=%s, label=%r)" % (sorted(self.sigma), self.dim(), self.label)


@dataclass
class PolyComplex:
    """The cells of the stratum sigma, with pairwise disjoint relative interiors."""

    ambient: int
    sigma: frozenset
    cells: list  # list[Cell]
    quotiented: bool = False

    def cell_count(self) -> int:
        return len(self.cells)


# Normal complexes --------------------------------------------------------------------


def _tie_system(terms, scale: int, T, rows=None):
    """Integer rows of the closed cell where the terms in T attain the minimum.

    terms are (u, c) with c the coefficient times scale.  The representative
    rep = min(T) ties with each other t in T and is at most every term
    outside T: scale * (u_rep - u) . w = c - c_rep, and <= for the rest.
    Given rows, the inequalities are only those against the terms in rows.
    """
    rep = min(T)
    urep, crep = terms[rep]
    eqs, ineqs = [], []
    for t in range(len(terms)) if rows is None else sorted(T.union(rows)):
        if t != rep:
            u, c = terms[t]
            row = (tuple(scale * (a - b) for a, b in zip(urep, u)), c - crep)
            (eqs if t in T else ineqs).append(row)
    return eqs, ineqs


def _tie_at(terms, scale: int, point):
    """The terms attaining the minimum at point, compared as c q + scale u.P
    with point = P / q."""
    P, q = _scaled(point)
    best = None
    arg = set()
    for i, (u, c) in enumerate(terms):
        v = c * q + scale * sum(e * x for e, x in zip(u, P))
        if best is None or v < best:
            best, arg = v, {i}
        elif v == best:
            arg.add(i)
    return frozenset(arg)


def normal_complex(f: TropPoly, sigma=(), budget: Budget | None = None) -> PolyComplex:
    """Cells of constant initial form of f inside the given stratum.

    Cells are labeled by their tie sets (the monomials attaining the
    minimum on the relative interior) and listed in sorted tie-set order.
    The cells are the faces of the regular subdivision induced by the
    coefficients, found by a walk over the lifted vertices only.

    A vertex is a term whose region is full-dimensional, i.e. whose lifted
    point (u, c) is a vertex of the lower hull.  Term i is tested by cutting
    planes: solve the strict system {i < j : j in S} from S = {}, and take the
    tie set T at the returned point.  T = {i} proves i a vertex; otherwise
    T - {i} misses S (every j in S is strictly above i there) and joins S.
    The system describes a superset of i's open region, so infeasibility
    proves i is no vertex, and the loop ends within one round per term.

    The walk probes T + {v} from every tie set T it finds, for the vertices
    v outside T only, on T's equalities and the vertex rows only.  This is
    exact: a term's lifted point lies on or above the lower hull of the
    vertices, so at every weight the minimum over the vertices is the
    minimum over all terms and the other rows are implied.  Every cell is a
    face of the region of a vertex in its tie set, and is reached from that
    region by a chain of facets, each cut out by a vertex row; the probe's
    relative-interior witness then lands in that facet.  Redundant rows
    change no Fourier-Motzkin projection, so each witness is the one the
    full system gives.  Stored rows stay complete.  The core is T's
    equalities and vertex rows, strict: on the relative interior the argmin
    is exactly T, and where those rows hold the minimum is attained on T's
    vertices only, whose face of the lower hull holds exactly the terms in
    T.  Never enumerates subsets of the support.
    """
    sigma = frozenset(sigma)
    ambient = f.num_vars
    free = tuple(i for i in range(ambient) if i not in sigma)
    stripped = f.strip_sigma(sigma)
    if stripped != f:
        raise InputError("normal_complex expects a polynomial with no terms in the stratum's "
                         "infinite variables; apply strip_sigma first")
    budget = Budget() if budget is None else budget
    what = "normal complex, stratum %s" % (sorted(sigma),)
    if f.is_inf:
        return PolyComplex(ambient, sigma, [Cell(ambient, sigma, [], [], label="inf")])
    # no term uses sigma, so u's lex order is that of its free coordinates
    full = sorted((u, c.value) for u, c in f.terms())
    scale = lcm(*(c.denominator for _, c in full))
    terms = [(tuple(u[i] for i in free), c.numerator * (scale // c.denominator)) for u, c in full]

    def label_of(T):
        return frozenset(full[t][0] for t in T)

    m = len(free)
    vertices = []
    for i in range(len(terms)):
        S: set[int] = set()
        while True:
            budget.charge(1, what)
            _, ineqs = _tie_system(terms, scale, {i}, rows=S)
            p = fm_solve(m, [], [], ineqs)
            if p is None:
                break
            T = _tie_at(terms, scale, p)
            if T == {i}:
                vertices.append(i)
                break
            S |= T - {i}

    discovered: dict[frozenset, Cell] = {}
    queue: list[frozenset] = []

    def register(T):
        if T not in discovered:
            eqs, ineqs = _tie_system(terms, scale, T)
            strict = _tie_system(terms, scale, T, rows=vertices)[1]
            discovered[T] = Cell(ambient, sigma, eqs, ineqs, label=label_of(T), core=(eqs, strict))
            queue.append(T)

    for i in vertices:
        register(frozenset({i}))
    while queue:
        T = queue.pop()
        for v in vertices:
            if v in T:
                continue
            budget.charge(1, what)
            eqs, ineqs = _tie_system(terms, scale, T | {v}, rows=vertices)
            p = fm_solve(m, eqs, ineqs)
            if p is not None:
                register(_tie_at(terms, scale, p))
    return PolyComplex(ambient, sigma, [discovered[T] for T in sorted(discovered, key=sorted)])


# Refinement --------------------------------------------------------------------------


def refine(complexes: Sequence[PolyComplex], budget: Budget | None = None) -> PolyComplex:
    """Common refinement: the nonempty intersections of one cell per input complex.

    A pairwise left fold, keyed by the flat tuple of input cells whose
    relative interiors meet: then ri(A & B) = ri A & ri B and cl(A & B) =
    A & B (Rockafellar, Convex Analysis, Thm 6.5), a tuple meets only if its
    prefixes do, and one strict solve on the concatenated cores decides each
    (prefix, cell) pair.  Cells are listed by key, with rows concatenated and
    labels tupled in input order, 1-tuples for a single complex.
    """
    if not complexes:
        raise InputError("refine needs at least one complex")
    first = complexes[0]
    shape = (first.ambient, first.sigma, first.quotiented)
    if any((c.ambient, c.sigma, c.quotiented) != shape for c in complexes[1:]):
        raise InputError("refine needs complexes over the same ambient space and stratum")
    budget = Budget() if budget is None else budget
    what = "refinement pairs, stratum %s" % (sorted(first.sigma),)
    # key -> (input cells, their cores' equalities and strict rows), in key order
    partial = {(j,): ([cell], *cell.core) for j, cell in enumerate(first.cells)}
    for other in complexes[1:]:
        found: dict[tuple, tuple] = {}
        for key, (reps, eqs, strict) in partial.items():
            for j, cell in enumerate(other.cells):
                budget.charge(1, what)
                meet_eqs, meet_strict = [*eqs, *cell.core[0]], [*strict, *cell.core[1]]
                p = fm_solve(len(cell.free), meet_eqs, (), meet_strict)
                if p is None:
                    continue
                P, q = _scaled(p)
                if not all(c._holds_at(P, q) for c in (*reps, cell)):
                    raise InvariantViolationError("refinement point escaped the input complexes")
                found[key + (j,)] = ([*reps, cell], meet_eqs, meet_strict)
        partial = found
    return PolyComplex(first.ambient, first.sigma, [
        Cell(first.ambient, first.sigma,
             [row for rep in reps for row in rep.eqs],
             [row for rep in reps for row in rep.ineqs],
             label=tuple(rep.label for rep in reps),
             free=reps[0].free)
        for reps, _, _ in partial.values()], first.quotiented)


# Lineality quotient -------------------------------------------------------------------


def quotient_lineality(C: PolyComplex) -> PolyComplex:
    """Rewrite every cell modulo the all-ones direction of the stratum.

    Requires each cell to be invariant under that line (all row sums 0);
    the last finite coordinate is normalized to 0 and dropped.
    """
    if C.quotiented:
        raise InputError("complex is already quotiented")
    cells = []
    for cell in C.cells:
        if len(cell.free) == 0:
            raise InputError("cannot quotient a zero-dimensional stratum")
        for c, _ in itertools.chain(cell.eqs, cell.ineqs):
            if sum(c) != 0:
                raise InvariantViolationError(
                    "cell in stratum %s is not invariant under the all-ones line"
                    % (sorted(C.sigma),))
        cells.append(Cell(
            C.ambient, C.sigma,
            [(c[:-1], r) for c, r in cell.eqs],
            [(c[:-1], r) for c, r in cell.ineqs],
            label=cell.label,
            free=cell.free[:-1]))
    return PolyComplex(C.ambient, C.sigma, cells, quotiented=True)
