"""Degree-truncated tropical ideals.

A truncated ideal is a compatible tower of valuated matroids M_0, ..., M_D
where M_d lives on the canonical list of degree-d monomials.  Everything
here is explicit about the truncation degree D; results describe the
ideal up to degree D only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import monomials as mon
from .config import Budget
from .errors import (DimensionError, InputError, InvariantViolationError,
                     OutOfRangeError)
from .linalg import echelon
from .matroids import (VMatroid, _bits, _mask_of, circuits, is_vector,
                       lex_min_basis_of_subset)
from .polynomials import TropPoly
from .semiring import Trop, all_infinite, dot, weight_sigma


# Classical-side input ------------------------------------------------------------


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); the first 12 reach only 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or past _MR_LIMIT is refused."""
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _MR_LIMIT:
        raise InputError("p-adic valuation needs p below %d, got %d" % (_MR_LIMIT, n))
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Valuation:
    """Trivial or p-adic valuation of the rationals."""

    kind: str = "trivial"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("trivial", "padic"):
            raise InputError("valuation kind must be 'trivial' or 'padic'")
        if self.kind == "padic" and not _is_prime(self.p):
            raise InputError("p-adic valuation needs a prime, got %r" % (self.p,))

    def of_int(self, n: int) -> int:
        """The valuation of a nonzero integer."""
        if self.kind == "trivial":
            return 0
        n = abs(n)
        count = 0
        while n % self.p == 0:
            n //= self.p
            count += 1
        return count


class QPoly:
    """A polynomial with exact rational coefficients (classical side)."""

    __slots__ = ("num_vars", "coeffs")

    def __init__(self, num_vars: int, coeffs):
        self.num_vars = num_vars
        data: dict[tuple, Fraction] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for u, c in items:
            u = tuple(int(e) for e in u)
            if len(u) != num_vars:
                raise DimensionError("exponent %r has wrong length" % (u,))
            if any(e < 0 for e in u):
                raise InputError("negative exponent in %r" % (u,))
            c = Fraction(c)
            if c == 0:
                continue
            data[u] = data.get(u, Fraction(0)) + c
        self.coeffs = {u: c for u, c in data.items() if c != 0}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if self.is_zero:
            raise InputError("the zero polynomial has no degree")
        return max(sum(u) for u in self.coeffs)

    def is_homogeneous(self) -> bool:
        return len({sum(u) for u in self.coeffs}) <= 1

    def __mul__(self, other: "QPoly") -> "QPoly":
        return QPoly(self.num_vars, [(mon.mul(u, v), a * b)
                                     for u, a in self.coeffs.items()
                                     for v, b in other.coeffs.items()])

    def __repr__(self) -> str:
        bits = ["%s*%s" % (c, mon.label(u)) for u, c in sorted(self.coeffs.items(), key=lambda t: mon.grlex_key(t[0]))]
        return "QPoly(%s)" % " + ".join(bits) if bits else "QPoly(0)"


@dataclass(frozen=True)
class ClassicalInput:
    generators: tuple
    valuation: Valuation

    def __post_init__(self):
        if not self.generators:
            raise InputError("need at least one generator")
        nv = {g.num_vars for g in self.generators}
        if len(nv) != 1:
            raise InputError("generators use different variable counts")
        for g in self.generators:
            if g.is_zero:
                raise InputError("zero generator")
            if not g.is_homogeneous():
                raise InputError("inhomogeneous generator %r" % (g,))

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars


# The truncated ideal -------------------------------------------------------------


class TruncIdeal:
    """Layers M_0 .. M_D of valuated matroids on the degree-d monomials."""

    __slots__ = ("num_vars", "degree_bound", "layers", "mode")

    def __init__(self, num_vars: int, layers: Sequence[VMatroid], mode: str = "rational"):
        if num_vars < 1:
            raise InputError("need at least one variable")
        if mode not in ("rational", "boolean"):
            raise InputError("mode must be 'rational' or 'boolean'")
        if not layers:
            raise InputError("need at least the degree-0 layer")
        self.num_vars = num_vars
        self.degree_bound = len(layers) - 1
        self.layers = tuple(layers)
        self.mode = mode
        for d, M in enumerate(self.layers):
            expected = tuple(mon.monomials_of_degree(num_vars, d))
            if M.ground != expected:
                raise InputError("layer %d is not on the canonical degree-%d monomials" % (d, d))
        if mode == "boolean":
            for d, M in enumerate(self.layers):
                if any(M._val.values()):
                    raise InputError("boolean layer %d carries nonzero values" % (d,))

    def layer(self, d: int) -> VMatroid:
        if d < 0 or d > self.degree_bound:
            raise OutOfRangeError("degree %d outside truncation 0..%d" % (d, self.degree_bound))
        return self.layers[d]

    def hilbert(self, d: int) -> int:
        """The rank of the degree-d layer."""
        return self.layer(d).rank

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncIdeal) and self.num_vars == other.num_vars
                and self.mode == other.mode and self.layers == other.layers)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.mode, self.layers))

    def __repr__(self) -> str:
        return "TruncIdeal(vars=%d, D=%d, mode=%s)" % (self.num_vars, self.degree_bound, self.mode)


# Tropicalization ----------------------------------------------------------------


def _nonzero_minors(rows):
    """Every nonzero square minor of a sparse integer matrix, grouped by row set.

    rows lists (r, entries) by increasing r, with entries the (c, a) pairs of
    the row's nonzero entries; r and c are bit positions, so row and column
    sets are bitmasks.  Yields (R, minors) once per row set R that has a
    nonzero minor, minors mapping each column set C with det A[R, C] != 0 to
    that determinant; the empty row set comes first, with {0: 1}.

    The minors of R + r, for a row r below every row of R, come from those
    of R by Laplace expansion along r, which is then the first row:
    det A[R + r, C + c] collects (-1)^j a_rc det A[R, C] over the c, where
    j counts the columns of C below c.  Zero minors are dropped as they
    appear, since they add nothing to a larger one.  The walk is depth
    first on an explicit stack of (R, minors of R, rows still to try).
    """
    empty = {0: 1}
    stack = [(0, empty, len(rows))]
    yield 0, empty
    while stack:
        R, minors, top = stack.pop()
        if top == 0:
            continue
        stack.append((R, minors, top - 1))
        r, entries = rows[top - 1]
        grown: dict[int, int] = {}
        for C, det in minors.items():
            for c, a in entries:
                bit = 1 << c
                if C & bit:
                    continue
                term = a * det
                if (C & (bit - 1)).bit_count() & 1:
                    term = -term
                grown[C | bit] = grown.get(C | bit, 0) + term
        grown = {C: det for C, det in grown.items() if det}
        if grown:
            R |= 1 << r
            yield R, grown
            stack.append((R, grown, top - 1))


def _layer_from_row_space(ground: Sequence[tuple], pivots: list[int],
                          reduced: list[list[int]], d: int, valuation: Valuation,
                          budget: Budget) -> VMatroid:
    """The valuated matroid dual to the column matroid of a reduced row basis.

    The dual valuation of a set S of columns is the valuation of the maximal
    minor on S; for the matroid itself, p(B) is read off the complementary
    minor.  With the rows in reduced echelon form [I | A] (up to a column
    permutation), the maximal minor on the complement of B equals, up to
    sign, the minor of A on rows indexed by pivot columns inside B and
    columns indexed by free columns outside B.  Signs do not affect
    valuations.  The rows given are d times that form, so an s x s minor
    of theirs has valuation s * v(d) above the minor of A.  B is therefore
    R + (free columns - C) for the nonzero minors det A[R, C], with rows
    and columns named by their ground index.
    """
    N = len(ground)
    free = [c for c in range(N) if c not in set(pivots)]
    vd = valuation.of_int(d)
    corank = len(free)
    budget.charge(math.comb(N, corank), "tropicalization minors")
    # the A-block, scaled by d: row i sits at pivot column pivots[i]
    rows = [(p, [(c, reduced[i][c]) for c in free if reduced[i][c]])
            for i, p in enumerate(pivots)]
    free_mask = _mask_of(free)
    # R lies outside free_mask and C inside it, so the masks are distinct
    return VMatroid(ground, corank,
                    (((R | free_mask) ^ C, valuation.of_int(det) - R.bit_count() * vd)
                     for R, minors in _nonzero_minors(rows) for C, det in minors.items()))


def tropicalize(inp: ClassicalInput, D: int, budget: Budget | None = None) -> TruncIdeal:
    """Tropicalization of a classical homogeneous ideal, truncated at degree D.

    For each degree d the Macaulay matrix of all monomial multiples of the
    generators is row reduced exactly; the layer matroid is dual to the
    column matroid of the row space, with the valuation of each maximal
    minor as the dual value.  Rows are cleared of denominators first, so
    the elimination and every minor stay in the integers.
    """
    if D < 0:
        raise InputError("truncation degree must be nonnegative")
    nv = inp.num_vars
    budget = Budget() if budget is None else budget
    layers = []
    for d in range(D + 1):
        ground = tuple(mon.monomials_of_degree(nv, d))
        index = {u: i for i, u in enumerate(ground)}
        rows: list[list[int]] = []
        for g in inp.generators:
            dg = g.degree()
            if dg > d:
                continue
            scale = math.lcm(*(c.denominator for c in g.coeffs.values()))
            for u in mon.monomials_of_degree(nv, d - dg):
                row = [0] * len(ground)
                for v, c in g.coeffs.items():
                    row[index[mon.mul(v, u)]] = c.numerator * (scale // c.denominator)
                rows.append(row)
        pivots, reduced, det = echelon(rows)
        layers.append(_layer_from_row_space(ground, pivots, reduced, det, inp.valuation,
                                            budget))
    return TruncIdeal(nv, layers, mode="rational")


# Direct constructions -------------------------------------------------------------


def point_ideal(a: Sequence[Trop], D: int, budget: Budget | None = None) -> TruncIdeal:
    """The homogeneous ideal of the point a: binomial circuits in every degree.

    The degree-d layer has rank one; the valuation of the singleton {x^u}
    is a.u (with infinity * 0 = 0), so the circuits are the binomials
    (a.v) x^u + (a.u) x^v, degenerating to monomials where a.u is infinite.
    Compatibility of the resulting tower is verified, not assumed.
    """
    a = tuple(x if isinstance(x, Trop) else Trop(x) for x in a)
    if all_infinite(a):
        raise InputError("the all-infinity point is not a point of projective space")
    if D < 0:
        raise InputError("truncation degree must be nonnegative")
    budget = Budget() if budget is None else budget
    layers = []
    for d in range(D + 1):
        budget.charge(math.comb(len(a) + d - 1, d), "point ideal layer %d" % d)
        ground = tuple(mon.monomials_of_degree(len(a), d))
        layers.append(VMatroid(ground, 1, [(1 << i, dot(a, u)) for i, u in enumerate(ground)]))
    I = TruncIdeal(len(a), layers, mode="rational")
    witness = check_compatibility(I, budget)
    if witness is not None:
        raise InvariantViolationError("point ideal failed compatibility: %r" % (witness,))
    return I


def nonrealizable_ideal(n: int, D: int, budget: Budget | None = None) -> TruncIdeal:
    """A tower whose degree-d layer has rank d+1 and 0/infinity values.

    A (d+1)-subset B of the degree-d monomials gets value 0 exactly when,
    for every k <= d, no degree-k monomial divides more than d-k+1 elements
    of B.  Requires at least three variables (n >= 2).
    """
    if n < 2:
        raise InputError("need n >= 2")
    if D < 0:
        raise InputError("truncation degree must be nonnegative")
    budget = Budget() if budget is None else budget
    nv = n + 1
    layers = []
    for d in range(D + 1):
        ground = tuple(mon.monomials_of_degree(nv, d))
        budget.charge(math.comb(len(ground), d + 1), "nonrealizable layer")
        # (the ground elements a degree-k monomial divides, the limit d - k + 1)
        divisors = [(_mask_of(i for i, u in enumerate(ground) if mon.divides(v, u)), d - k + 1)
                    for k in range(1, d + 1) for v in mon.monomials_of_degree(nv, k)]
        bases = (B for B in map(_mask_of, itertools.combinations(range(len(ground)), d + 1))
                 if all((divided & B).bit_count() <= limit for divided, limit in divisors))
        layers.append(VMatroid(ground, d + 1, ((B, 0) for B in bases)))
    return TruncIdeal(nv, layers, mode="rational")


# Compatibility --------------------------------------------------------------------


@dataclass(frozen=True)
class CompatibilityWitness:
    degree: int
    variable: int
    U: tuple
    V: tuple

    def __repr__(self) -> str:
        return ("CompatibilityWitness(d=%d, x%d, U=%s, V=%s)"
                % (self.degree, self.variable,
                   [mon.label(u) for u in self.U], [mon.label(v) for v in self.V]))


def _vector_classes(val: dict[int, int], n: int, k: int, inside: bool) -> list:
    """The lexicographically first k-subset S of range(n) per vector class.

    The vector of S has coordinate j equal to p(S - j) for j in S (inside)
    or p(S + j) for j outside S, where that value is finite.  Two vectors
    whose finite coordinates differ by one constant behave alike against
    every partner in the compatibility test, so one S per class suffices.
    All-infinite vectors never fail the test and are dropped.  Returns
    (S, [(j, value), ...]) pairs in the order of their first occurrence.
    """
    full = (1 << n) - 1
    reps: dict[tuple, tuple] = {}
    for S in itertools.combinations(range(n), k):
        mask = _mask_of(S)
        coords = [(j, val[mask ^ (1 << j)]) for j in _bits(mask if inside else full ^ mask)
                  if mask ^ (1 << j) in val]
        if not coords:
            continue
        low = min(p for _, p in coords)
        key = tuple((j, p - low) for j, p in coords)
        if key not in reps:
            reps[key] = (S, coords)
    return list(reps.values())


def check_compatibility(I: TruncIdeal,
                        budget: Budget | None = None) -> Optional[CompatibilityWitness]:
    """None when consecutive layers are compatible, else a witness.

    The criterion: for every degree d < D, variable x_i, (r_d+1)-subset U of
    the degree-d monomials and (r_{d+1}-1)-subset V of the degree-(d+1)
    monomials, the minimum over x^u in x_i U \\ V of
    p_d(U - x^u/x_i) + p_{d+1}(V + x^u) is infinite or attained twice.

    The test sees U only through the vector u -> p_d(U - u) and V only
    through w -> p_{d+1}(V + w).  Sets whose vectors are tropically
    proportional pass or fail alike against every partner (Dress and
    Wenzel, Valuated matroids, 1992), so the scan pairs the first U and V
    of each class.  The witness is still the first failing (x_i, U, V) of
    the full scan in lexicographic order.
    """
    budget = Budget() if budget is None else budget
    den = math.lcm(*(M.den for M in I.layers))  # every layer's ints over den
    for d in range(I.degree_bound):
        Md, Mn = I.layers[d], I.layers[d + 1]
        gd, gn = Md.ground, Mn.ground
        next_index = {u: i for i, u in enumerate(gn)}
        rd, rn = Md.rank, Mn.rank
        if rd + 1 > len(gd) or rn - 1 < 0:
            continue
        what = "compatibility degree %d" % d
        budget.charge(math.comb(len(gd), rd + 1) + math.comb(len(gn), rn - 1), what)
        sd, sn = den // Md.den, den // Mn.den
        us = _vector_classes(Md._val, len(gd), rd + 1, inside=True)
        vs = [(V, {j: p * sn for j, p in coords}) for V, coords in
              _vector_classes(Mn._val, len(gn), rn - 1, inside=False)]
        budget.charge(len(us) * len(vs) * I.num_vars, what)
        for i in range(I.num_vars):
            shift = [next_index[mon.times_var(u, i)] for u in gd]
            for U, coords in us:
                lifted = [(shift[j], p * sd) for j, p in coords]
                for V, pn in vs:
                    best = None
                    twice = False
                    for t, p in lifted:
                        q = pn.get(t)  # None when x^u is in V or V + x^u is no basis
                        if q is None:
                            continue
                        total = p + q
                        if best is None or total < best:
                            best, twice = total, False
                        elif total == best:
                            twice = True
                    if best is not None and not twice:
                        return CompatibilityWitness(
                            d, i,
                            tuple(gd[j] for j in U),
                            tuple(gn[j] for j in V))
    return None


# Membership, initial ideals, comparison -------------------------------------------


def contains(I: TruncIdeal, f: TropPoly, budget: Budget | None = None) -> bool:
    """Membership of a homogeneous polynomial in the truncated ideal."""
    if f.num_vars != I.num_vars:
        raise InputError("polynomial has %d variables, ideal has %d" % (f.num_vars, I.num_vars))
    if f.is_inf:
        return True
    if not f.is_homogeneous():
        raise InputError("membership needs a homogeneous polynomial")
    d = f.degree()
    M = I.layer(d)
    vec = tuple(f.coeff(u) for u in M.ground)
    return is_vector(M, vec, budget)


def _sigma_mask(ground: Sequence[tuple], sigma) -> int:
    """The monomials of ground divisible by a variable in sigma, as a mask."""
    return _mask_of(i for i, u in enumerate(ground) if mon.uses_sigma(u, sigma))


def _basis_table(M: VMatroid, num_vars: int, sigma) -> tuple[TropPoly, dict]:
    """The stratum polynomial of the layer M on the stratum sigma, and its
    basis table.

    With S the sigma-monomials and B_S the least basis of M restricted to S,
    the layer contracted by S has a basis B - B_S for each basis B of M with
    B & S == B_S (the sigma-face of M), valued p(B) up to a global shift.
    The table maps each exponent e = total - sum of u over B - B_S (total
    summing the monomials outside S) to the least p(B), less the least kept
    p, and the masks B | S of the bases attaining it.  At a weight w infinite
    exactly on sigma the initial matroid's bases minimize p(B) + w.e, so they
    are the entries of the exponents that tie at w; S returns as coloops.
    Exponents are packed into fixed-width int fields; no field borrows, as
    the sum over B - B_S is at most total.
    """
    S = _sigma_mask(M.ground, sigma)
    BS = lex_min_basis_of_subset(M, S)
    outside = [u for j, u in enumerate(M.ground) if not (S >> j) & 1]
    total = [sum(u[i] for u in outside) for i in range(num_vars)]
    width = max(total).bit_length()
    packed = [sum(e << (width * i) for i, e in enumerate(u)) for u in M.ground]
    best: dict[int, tuple[int, list[int]]] = {}
    for B, p in M._val.items():
        if B & S != BS:
            continue
        s = 0
        for j in _bits(B ^ BS):
            s += packed[j]
        old = best.get(s)
        if old is None or p < old[0]:
            best[s] = (p, [B | S])
        elif p == old[0]:
            old[1].append(B | S)
    low = min(p for p, _ in best.values())
    table = {tuple(t - ((s >> (width * i)) & ((1 << width) - 1)) for i, t in enumerate(total)):
             (Fraction(p - low, M.den), frozenset(masks)) for s, (p, masks) in best.items()}
    return TropPoly(num_vars, {e: Trop(p) for e, (p, _) in table.items()}), table


def initial_ideal(I: TruncIdeal, w: Sequence[Trop]) -> TruncIdeal:
    """The Boolean tower of initial matroids with respect to the weight w.

    In each degree the monomials supported on the infinite coordinates of w
    are contracted away, the rest is degenerated by the induced weight
    w.u, and the contracted monomials return as coloops: the bases are the
    basis-table entries of the stratum polynomial's initial form at w.
    """
    w = tuple(x if isinstance(x, Trop) else Trop(x) for x in w)
    if len(w) != I.num_vars:
        raise DimensionError("weight has %d coordinates, ideal has %d variables"
                             % (len(w), I.num_vars))
    if all_infinite(w):
        raise InputError("initial ideal needs a weight with a finite coordinate")
    sigma, layers = weight_sigma(w), []
    for M in I.layers:
        f, table = _basis_table(M, I.num_vars, sigma)
        layers.append(VMatroid.from_bases(
            M.ground, frozenset().union(*(table[e][1] for e in f.initial_form(w)))))
    return TruncIdeal(I.num_vars, layers, mode="boolean")


@dataclass(frozen=True)
class CompareReport:
    relation: str  # equal | subset | superset | incomparable
    hilbert_left: tuple
    hilbert_right: tuple
    equal_through_degree: int
    first_difference: Optional[int]


def compare(I: TruncIdeal, J: TruncIdeal, budget: Budget | None = None) -> CompareReport:
    """Layerwise comparison of two truncations of the same shape.

    Inclusion is tested by circuit containment (circuits generate each
    layer; the tie criterion is the membership oracle).  Inclusion with
    identical Hilbert functions forces equality, which is asserted.
    """
    if I.num_vars != J.num_vars or I.degree_bound != J.degree_bound:
        raise InputError("ideals have different shapes")
    if I.mode != J.mode:
        raise InputError("ideals have different coefficient modes")
    D = I.degree_bound
    budget = Budget() if budget is None else budget

    def included(A: TruncIdeal, B: TruncIdeal) -> bool:
        for d in range(D + 1):
            MB = B.layers[d]
            for H in circuits(A.layers[d], budget):
                if not is_vector(MB, H, budget):
                    return False
        return True

    hv_i = tuple(I.hilbert(d) for d in range(D + 1))
    hv_j = tuple(J.hilbert(d) for d in range(D + 1))
    equal_layers = [I.layers[d] == J.layers[d] for d in range(D + 1)]
    first_diff = next((d for d in range(D + 1) if not equal_layers[d]), None)
    equal_through = D if first_diff is None else first_diff - 1

    inc_ij = included(I, J)
    inc_ji = included(J, I)
    if inc_ij and inc_ji:
        if not all(equal_layers):
            raise InvariantViolationError("mutual inclusion without layer equality")
        relation = "equal"
    elif inc_ij or inc_ji:
        if hv_i == hv_j:
            raise InvariantViolationError(
                "strict inclusion with identical Hilbert functions contradicts layer rigidity")
        relation = "subset" if inc_ij else "superset"
    else:
        relation = "incomparable"
    return CompareReport(relation, hv_i, hv_j, equal_through, first_diff)
