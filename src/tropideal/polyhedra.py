"""Exact rational polyhedral cells and one-stratum complexes in stratified space.

A cell lives in one stratum (the points whose infinite coordinates are
exactly sigma) and is stored as a closed system of equalities and
inequalities over the finite coordinates, plus an opaque label; a complex
holds the cells of one stratum.  Cell and fm_solve take int rows as given
(_rows); builders make each row primitive (canonical_row).  Rows stay integer
through equality substitution and each Fourier-Motzkin step; rationals
appear only in bounds and points, and a point P / q meets rows and tie
sets in integers.  Feasibility, points in the relative interior and
dimensions come from Fourier-Motzkin elimination with midpoint
back-substitution; all exact, with no floating point and no perturbation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Optional, Sequence

from .config import Budget
from .errors import InputError, InvariantViolationError
from .linalg import echelon
from .polynomials import TropPoly

Row = tuple  # (coeffs: tuple[int, ...], rhs: int), primitive in every built cell


def _scaled(xs) -> tuple[list[int], int]:
    """Integers P and q > 0 with xs = P / q, for rationals xs.  A string is
    read by int() when that parses, unless it holds "_": Fraction, which
    reads every other string, reads underscores only from Python 3.11 on."""
    vals = []
    for x in xs:
        if type(x) is str and "_" not in x:
            try:
                x = int(x)
            except ValueError:
                pass
        vals.append(x if type(x) in (int, Fraction) else Fraction(x))
    q = lcm(*(v.denominator for v in vals))
    return [v.numerator * (q // v.denominator) for v in vals], q


def canonical_row(coeffs, rhs, equality: bool = False) -> Row:
    """Primitive integer form; equalities get a positive leading coefficient."""
    ints = (*coeffs, rhs)
    if not set(map(type, ints)) <= {int}:
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
    bounded).  Int rows are taken as given (_rows): echelon's reduced form
    over d and _dedupe's primitive rows do not depend on a row's scale.
    """
    rows = [(*row, False) for row in _rows(ineqs, m)] + [(*row, True) for row in _rows(strict, m)]
    pivots, prows, d = [], [], 1
    if eqs:
        pivots, prows, d = echelon([c + (r,) for c, r in _rows(eqs, m)])
        if pivots and pivots[-1] == m:
            return None  # the equalities reduce to 0 = nonzero
        if d < 0:
            d, prows = -d, [[-x for x in prow] for prow in prows]
        for k, (coeffs, rhs, is_strict) in enumerate(rows):
            # d * row minus row[c] times the pivot row of c; each pivot row
            # carries d at its own column, so the pivot columns become 0.
            # A row no pivot touches keeps its scale: _dedupe ignores it
            hits = [(coeffs[c], prow) for c, prow in zip(pivots, prows) if coeffs[c]]
            if hits:
                row = [d * x for x in (*coeffs, rhs)]
                for a, prow in hits:
                    row = [x - a * y for x, y in zip(row, prow)]
                rows[k] = (row[:m], row[m], is_strict)
    free = [c for c in range(m) if c not in pivots]
    rows = _dedupe(rows)
    if rows is None:
        return None
    levels = []
    for v in free:
        levels.append((v, rows))
        rows = _fm_eliminate(rows, v)
        if rows is None:
            return None
    # back-substitution over one common denominator: coordinate j is X[j] / den,
    # and a row bounds side * w_v <= n / (k * den) with side the sign of its
    # coefficient, k > 0; its other columns are all chosen (X is 0 elsewhere)
    X, den = [0] * m, 1
    for v, lrows in reversed(levels):
        best: dict[bool, tuple] = {}  # side -> tightest (n, k, strict)
        for coeffs, rhs, is_strict in lrows:
            if coeffs[v]:
                n, k, side = rhs * den - sum(map(mul, coeffs, X)), abs(coeffs[v]), coeffs[v] > 0
                old = best.get(side)
                if old is None or n * old[1] < old[0] * k or (n * old[1] == old[0] * k and is_strict):
                    best[side] = (n, k, is_strict)
        upper, lower = best.get(True), best.get(False)
        hi = None if upper is None else Fraction(upper[0], upper[1])
        lo = None if lower is None else Fraction(-lower[0], lower[1])
        if lo is None:
            t = Fraction(0) if hi is None else hi - den  # the value times den
        elif hi is None:
            t = lo + den
        elif lo < hi:
            t = (lo + hi) / 2
        elif lo == hi and not lower[2] and not upper[2]:
            t = lo
        else:
            return None
        if t.denominator > 1:
            den *= t.denominator
            X = [x * t.denominator for x in X]
        X[v] = t.numerator
    point = [Fraction(x, den) for x in X]
    for col, prow in zip(pivots, prows):
        point[col] = Fraction(prow[m] * den - sum(map(mul, prow, X)), d * den)
    return tuple(point)


def _rows(rows, m: int, equality: bool = False) -> list:
    """Cell's and fm_solve's rows of width m: an all-int row as given (the row
    object itself when its coefficients are a tuple), any other canonical_row."""
    out = []
    for row in rows:
        coeffs, rhs = row
        if len(coeffs) != m:
            raise InputError("row width %d does not match %d free coordinates" % (len(coeffs), m))
        if type(rhs) is int and set(map(type, coeffs)) <= {int}:
            out.append(row if type(row) is tuple and type(coeffs) is tuple else (tuple(coeffs), rhs))
        else:
            out.append(canonical_row(coeffs, rhs, equality))
    return out


# Cells and complexes ------------------------------------------------------------------


def _holds(eqs, ineqs, P: Sequence[int], q: int, strict: bool = False) -> bool:
    """Whether P / q (q > 0) has a.w = b on eqs and a.w <= b on ineqs, a.w < b
    when strict."""
    for c, r in eqs:
        if sum(map(mul, c, P)) != r * q:
            return False
    for c, r in ineqs:
        v = sum(map(mul, c, P)) - r * q
        if v > 0 or (strict and v == 0):
            return False
    return True


class Cell:
    """A closed polyhedron inside one stratum, with a label.

    Rows are integer (coeffs, rhs) over the cell's free coordinates, as _rows
    reads them; equality rows mean a.w = b, inequality rows a.w <= b.  core
    is a pair (eqs, strict) of row lists, a.w = b and a.w < b, cutting out
    exactly the relative interior, as fm_solve's eqs and strict.  The cell
    holds one point, its witness relint_point().  A builder passes both: the
    core, and the witness, the point of its solve of exactly the cell's
    point set or its relative interior.  fm_solve picks each coordinate,
    highest column first, in ri of its fibre, and the fibre of ri C over a
    point of ri D is ri of C's fibre (Rockafellar, Convex Analysis, Thm
    6.8), so that point depends on the set alone.  A cell built without
    them solves its witness on first use, and its core is its equalities
    plus the rows tight at the witness, every other row strict.  dim() is
    read off the core: its strict rows cut a nonempty open subset of the
    solution set of its equalities.
    """

    __slots__ = ("ambient", "sigma", "free", "eqs", "ineqs", "label", "_core",
                 "_relint", "_solved")

    def __init__(self, ambient: int, sigma, eqs, ineqs, label=None, free=None, core=None,
                 witness=None):
        self.ambient = ambient
        self.sigma = frozenset(sigma)
        if any(i < 0 or i >= ambient for i in self.sigma):
            raise InputError("sigma indices out of range")
        self.free = tuple(free) if free is not None else tuple(
            i for i in range(ambient) if i not in self.sigma)
        self.eqs = tuple(_rows(eqs, len(self.free), equality=True))
        self.ineqs = tuple(_rows(ineqs, len(self.free)))
        self.label = label
        self._core = core
        self._relint = witness
        self._solved = witness is not None

    def relint_point(self) -> Optional[tuple]:
        """The witness: fm_solve's point of the closed system, or None."""
        if not self._solved:
            self._solved = True
            self._relint = fm_solve(len(self.free), self.eqs, self.ineqs)
        return self._relint

    def dim(self) -> Optional[int]:
        """The affine-hull dimension, or None when the closed system is empty."""
        if self.relint_point() is None:
            return None
        return len(self.free) - len(echelon([c for c, _ in self.core[0]])[0])

    @property
    def core(self):
        """The builder's core, else the equalities plus the rows tight at the
        witness with every other row strict (the infeasible 0 < 0 for an
        empty cell)."""
        if self._core is None:
            if self.relint_point() is None:
                self._core = ((), [((0,) * len(self.free), 0)])
            else:
                P, q = _scaled(self._relint)
                eqs, strict = list(self.eqs), []
                for c, r in self.ineqs:
                    (eqs if sum(map(mul, c, P)) == r * q else strict).append((c, r))
                self._core = (eqs, strict)
        return self._core

    def __repr__(self) -> str:
        return "Cell(sigma=%s, dim=%s, label=%r)" % (sorted(self.sigma), self.dim(), self.label)


@dataclass
class PolyComplex:
    """The cells of the stratum sigma, with pairwise disjoint relative interiors;
    _covers marks one whose relative interiors cover the stratum and whose
    labels are tie sets, a normal complex."""

    ambient: int
    sigma: frozenset
    cells: list  # list[Cell]
    _covers: bool = field(default=False, repr=False, compare=False)

    def cell_count(self) -> int:
        return len(self.cells)


# Normal complexes --------------------------------------------------------------------


def _tie_system(terms, scale: int, T, rows=None):
    """Canonical rows of the closed cell where the terms in T attain the minimum.

    terms are (u, c) with c the coefficient times scale.  The representative
    rep = min(T) ties with each other t in T and is at most every term
    outside T: scale * (u_rep - u) . w = c - c_rep, and <= for the rest.
    Given rows, the inequalities are only those against the terms in rows.
    No other builder makes a row that is not primitive.
    """
    rep = min(T)
    urep, crep = terms[rep]
    eqs, ineqs = [], []
    for t in range(len(terms)) if rows is None else sorted(T.union(rows)):
        if t != rep:
            u, c = terms[t]
            row = canonical_row([scale * (a - b) for a, b in zip(urep, u)], c - crep, t in T)
            (eqs if t in T else ineqs).append(row)
    return eqs, ineqs


def _tie_at(terms, scale: int, point, among=None):
    """The terms (of among, default all) attaining the minimum at point,
    compared as c q + scale u.P with point = P / q."""
    P, q = _scaled(point)
    best = None
    arg = set()
    for i in range(len(terms)) if among is None else among:
        u, c = terms[i]
        v = c * q + scale * sum(map(mul, u, P))
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
    point (u, c) is a vertex of the lower hull.  A term u on or above a
    chord, with u + e and u - e terms and c(u+e) + c(u-e) <= 2 c(u) for some
    e in {e_a - e_b, e_a}, is none.  Each survivor i is tested by cutting
    planes: solve the strict system {i < j : j in S} from S = {}, and take the
    survivors' tie set T at the returned point.  T = {i} proves i a vertex
    (a term tying with i alone would share its lifted point); otherwise
    T - {i} misses S (every j in S is strictly above i there), and its least
    term, which cuts the point off (Kelley, 1960), joins S.  The system
    describes a superset of i's open region, so infeasibility proves i is
    no vertex, and the loop ends within one round per survivor.

    The walk keeps each tie set T under its vertices T & V, V the vertex
    set, and probes (T & V) + {v} from it for the vertices v outside T
    only: the probe ties those vertices and bounds the other vertex rows
    only.  This is exact.  A term's lifted point lies on or above the lower
    hull of the vertices, so at every weight the minimum over the vertices
    is the minimum over all terms and the other rows are implied.  The face
    of the lower hull that a weight picks is the hull of its tied vertices
    and holds every term it ties, and a face of a regular subdivision is
    fixed by its vertex set (De Loera-Rambau-Santos, Triangulations, 2010,
    ch. 2): so where T's vertices tie at the minimum, all of T ties, and
    the full tie set at a probe's witness, a scan of every term, is read
    once per new tie set among the vertices.  Every cell is a face of the
    region of a vertex in its tie set, and is reached from that region by a
    chain of facets, each cut out by a vertex row; the probe's
    relative-interior witness then lands in that facet.  Redundant rows
    change no Fourier-Motzkin projection, so each witness is the one the
    full system gives, and the cell is built with it; a vertex's region
    solves its own witness when asked.  Stored rows stay complete.  Each
    cell is built with its core, in canonical rows, which ties T & V and
    keeps the other vertex rows strict: on the relative interior the argmin
    is exactly T, and where those rows hold the minimum is attained on T's
    vertices only, whose face holds exactly the terms in T.  Never
    enumerates subsets of the support.
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
        whole = Cell(ambient, sigma, [], [], frozenset(), core=((), ()))
        return PolyComplex(ambient, sigma, [whole], _covers=True)
    # no term uses sigma, so u's lex order is that of its free coordinates
    full = sorted((u, c.value) for u, c in f.terms())
    scale = lcm(*(c.denominator for _, c in full))
    terms = [(tuple(u[i] for i in free), c.numerator * (scale // c.denominator)) for u, c in full]

    def label_of(T):
        return frozenset(full[t][0] for t in T)

    m = len(free)
    coeff = dict(terms)
    units = [tuple(int(k == a) for k in range(m)) for a in range(m)]
    steps = units + [tuple(map(sub, x, y)) for x, y in itertools.combinations(units, 2)]

    def on_or_above_a_chord(u, c):
        ends = ((coeff.get(tuple(map(add, u, e))), coeff.get(tuple(map(sub, u, e)))) for e in steps)
        return any(a is not None and b is not None and a + b <= 2 * c for a, b in ends)

    survivors = [i for i, (u, c) in enumerate(terms) if not on_or_above_a_chord(u, c)]
    vertices: list[int] = []
    for i in survivors:
        S: set[int] = set()
        while True:
            budget.charge(1, what)
            _, ineqs = _tie_system(terms, scale, {i}, rows=S)
            p = fm_solve(m, [], [], ineqs)
            if p is None:
                break
            T = _tie_at(terms, scale, p, among=survivors)
            if T == {i}:
                vertices.append(i)
                break
            S.add(min(T - {i}))

    discovered: dict[frozenset, tuple] = {}  # vertex tie set -> (tie set, cell)
    queue: list[frozenset] = []

    def register(TV, T, p=None):
        core = _tie_system(terms, scale, TV, rows=vertices)
        discovered[TV] = (T, Cell(ambient, sigma, *_tie_system(terms, scale, T),
                                  label=label_of(T), core=core, witness=p))
        queue.append(TV)

    for i in vertices:
        register(frozenset({i}), frozenset({i}))
    while queue:
        TV = queue.pop()
        for v in vertices:
            if v in TV:
                continue
            budget.charge(1, what)
            p = fm_solve(m, *_tie_system(terms, scale, TV | {v}, rows=vertices))
            if p is not None:
                U = _tie_at(terms, scale, p, among=vertices)
                if U not in discovered:
                    register(U, _tie_at(terms, scale, p), p)
    return PolyComplex(ambient, sigma, [cell for _, cell in sorted(
        discovered.values(), key=lambda tc: sorted(tc[0]))], _covers=True)


# Refinement --------------------------------------------------------------------------


def _core_within(inner, outer) -> bool:
    """A sufficient test that the core inner = (eqs, strict) cuts out a set
    inside outer's: every strict row of outer is one of inner's, and every
    equality of outer lies in the span of inner's, right-hand sides included,
    so on inner's set (where its equalities are consistent) outer's rows
    hold.  Rows compare as tuples, so both cores hold canonical rows."""
    (eqs, strict), (outer_eqs, outer_strict) = inner, outer
    if not set(strict).issuperset(outer_strict):
        return False
    extra = [c + (r,) for c, r in set(outer_eqs).difference(eqs)]
    if not extra:
        return True
    rows = [c + (r,) for c, r in eqs]
    return len(echelon(rows + extra)[0]) == len(echelon(rows)[0])


def refine(complexes: Sequence[PolyComplex], budget: Budget | None = None) -> PolyComplex:
    """Common refinement of normal complexes: the nonempty intersections of
    one cell per input complex.

    A pairwise left fold, keyed by the flat tuple of input cells whose
    relative interiors meet: then ri(A & B) = ri A & ri B and cl(A & B) =
    A & B (Rockafellar, Convex Analysis, Thm 6.5), a tuple meets only if its
    prefixes do, and one strict solve on the concatenated cores decides each
    (prefix, cell) pair.  Cells are listed by key, with rows and cores
    concatenated and labels tupled in input order, 1-tuples for a single
    complex: by that theorem the concatenated cores cut out ri of the cell.

    Each prefix P keeps its witness; the next cell whose core holds there,
    the start, meets P with no solve.  The next cells that meet ri(P) are
    connected under the face relation (a segment in ri(P) crosses cells one
    after another, each a face of the next or the next a face of it), so
    only face-neighbours of pairs that meet are solved.  In a normal complex
    the cell with tie set T has closed rows {w : T <= argmin(w)}, so a is a
    face of b exactly when a's label contains b's.  When the start alone
    meets P, ri(P) lies in its relative interior and the pair keeps P's
    witness; else it is solved too, so every refined cell is built with its
    witness.  Containment of cores skips solves: when every strict row of
    the start's core is one of P's and its equalities lie in the span of
    P's, ri(P) lies in ri(start), so the start alone meets P and there is
    no walk; when a cell's core lies in P's that way, ri(cell) lies in
    ri(P), the pair's meet is the cell, and its witness is the cell's own.
    Both tests are sufficient only, on rows compared as tuples (normal
    complexes hold canonical cores); a pair neither decides is solved.
    All of this needs the cores to partition the stratum, so every
    input must be a normal complex (marked _covers): any other raises
    InputError, and a point that no core holds InvariantViolationError.  Each
    prefix is charged one unit per next cell.
    """
    if not complexes:
        raise InputError("refine needs at least one complex")
    if not all(c._covers for c in complexes):
        raise InputError("refine takes normal complexes only")
    first = complexes[0]
    if any((c.ambient, c.sigma) != (first.ambient, first.sigma) for c in complexes[1:]):
        raise InputError("refine needs complexes over the same ambient space and stratum")
    budget = Budget() if budget is None else budget
    what = "refinement pairs, stratum %s" % (sorted(first.sigma),)
    # key -> (input cells, their cores' equalities and strict rows, the meet's
    # witness), in key order
    partial = {(j,): ([cell], *cell.core, cell.relint_point()) for j, cell in enumerate(first.cells)}
    for other in complexes[1:]:
        cells = other.cells
        near: dict[int, list] = {}  # j -> the cells that are faces of j or have j as a face
        found: dict[tuple, tuple] = {}
        for key, (reps, eqs, strict, point) in partial.items():
            budget.charge(len(cells), what)
            at = _scaled(point)
            start = next((j for j, c in enumerate(cells) if _holds(*c.core, *at, strict=True)),
                         None)
            if start is None:
                raise InvariantViolationError("no core of a normal complex holds at a point "
                                              "of its stratum")

            def witness(cell, meet_eqs, meet_strict):
                # ri(cell) inside ri(P) makes the meet the cell itself
                if _core_within(cell.core, (eqs, strict)):
                    return cell.relint_point()
                return fm_solve(len(point), meet_eqs, (), meet_strict)

            alone = _core_within((eqs, strict), cells[start].core)  # ri(P) inside ri(start)
            todo, seen, hits = [start], {start}, {}
            for j in todo:  # the walk appends to todo as it goes
                cell = cells[j]
                meet_eqs, meet_strict = [*eqs, *cell.core[0]], [*strict, *cell.core[1]]
                p = point if j == start else witness(cell, meet_eqs, meet_strict)
                if p is None:
                    continue
                hits[j] = ([*reps, cell], meet_eqs, meet_strict, p)
                if alone:
                    break
                if j not in near:
                    near[j] = [k for k, c in enumerate(cells) if k != j and (
                        c.label <= cell.label or cell.label <= c.label)]
                todo += [k for k in near[j] if k not in seen]
                seen.update(near[j])
            if len(hits) > 1:  # ri(P) crosses other cells, so its meet with the start is smaller
                meet = hits[start][:3]
                hits[start] = (*meet, witness(cells[start], *meet[1:]))
            for j in sorted(hits):
                meet_reps, _, _, p = found[key + (j,)] = hits[j]
                if p is None:
                    raise InvariantViolationError("the start's pair has no point")
                P, q = _scaled(p)
                if not all(_holds(c.eqs, c.ineqs, P, q) for c in meet_reps):
                    raise InvariantViolationError("refinement point escaped the input complexes")
        partial = found
    refined = [Cell(first.ambient, first.sigma, [row for rep in reps for row in rep.eqs],
                    [row for rep in reps for row in rep.ineqs],
                    label=tuple(rep.label for rep in reps), core=(eqs, strict), witness=point)
               for reps, eqs, strict, point in partial.values()]
    return PolyComplex(first.ambient, first.sigma, refined)


# Lineality quotient -------------------------------------------------------------------


def quotient_lineality(cell: Cell) -> Cell:
    """The cell modulo the all-ones direction of its stratum.

    Requires the cell to be invariant under that line: every row sum is 0,
    of the closed rows and of the core's.  The last finite coordinate is
    normalized to 0 and dropped from the rows and from the core, so a cell
    with fewer free coordinates than its stratum has is already quotiented.
    The closed rows are checked first, before any solve.  Canonical rows
    stay canonical: the dropped entry is minus the sum of the others, so the
    gcd does not change, nor does the leading nonzero entry.
    """
    if len(cell.free) + len(cell.sigma) < cell.ambient:
        raise InputError("cell is already quotiented")
    if not cell.free:
        raise InputError("cannot quotient a zero-dimensional stratum")

    def dropped(*parts):
        if any(sum(c) for c, _ in itertools.chain(*parts)):
            raise InvariantViolationError("cell in stratum %s is not invariant under the "
                                          "all-ones line" % (sorted(cell.sigma),))
        return [[(c[:-1], r) for c, r in part] for part in parts]

    eqs, ineqs = dropped(cell.eqs, cell.ineqs)
    # the parent's witness has last coordinate 0: by the all-ones line that
    # coordinate's fibre is the whole line, chosen first, at 0; the rest is
    # the quotient system's own solve
    p = cell.relint_point()
    return Cell(cell.ambient, cell.sigma, eqs, ineqs, label=cell.label, free=cell.free[:-1],
                core=tuple(dropped(*cell.core)), witness=None if p is None else p[:-1])
