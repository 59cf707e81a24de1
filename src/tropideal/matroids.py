"""Valuated matroids over the min-plus semiring.

A matroid is the Boolean valuated matroid that values each of its bases 0
(Dress-Wenzel, Valuated matroids, 1992), so VMatroid is the one matroid
type.  Basis valuations are stored sparsely (absence encodes infinity) on
subsets encoded as bitmasks over an ordered ground set, as ints over one
denominator, normalized so the minimum finite value is 0 and no factor
above 1 divides the denominator and every int.  That makes equality of
valuated matroids a direct map comparison.  Vectors over the ground set are
tuples of tropical scalars aligned with the ground order, circuits
canonicalized to minimum coordinate 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Sequence

from .config import Budget
from .errors import (DimensionError, InputError, InvalidMatroidError,
                     PreconditionError)
from .semiring import INF, Trop

VVector = tuple  # tuple[Trop, ...] aligned with the ground order


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _loops_mask(masks: Iterable[int], n: int) -> int:
    """The elements of range(n) in none of the given basis masks."""
    union = 0
    for m in masks:
        union |= m
    return ((1 << n) - 1) & ~union


def _as_mask(M, subset) -> int:
    """subset as a bitmask over M's ground: a mask already, or ground labels."""
    return subset if isinstance(subset, int) else _mask_of(M._index[e] for e in subset)


class VMatroid:
    """A valuated matroid: ground set, rank, sparse basis valuation map.

    The valuation is defined up to a global tropical scalar.  It is stored
    as ints _val over one denominator den > 0, p(B) = _val[B] / den, in the
    canonical form: the minimum value is 0 and gcd(den, *_val) is 1.  Values
    may be given as ints, Fractions, Trops or rational strings.  The
    valuation is a mapping or any iterable of (set, value) pairs, read once,
    that lists each set once, with INF entries skipped; the layer builders
    hand their pairs over as they make them, so each layer is held once.
    """

    __slots__ = ("ground", "rank", "_index", "_val", "den")

    def __init__(self, ground: Sequence[Hashable], rank: int, valuation):
        self.ground = tuple(ground)
        self._index = {e: i for i, e in enumerate(self.ground)}
        if len(self._index) != len(self.ground):
            raise InputError("duplicate ground labels")
        if rank < 0 or rank > len(self.ground):
            raise InvalidMatroidError("rank %d out of range for %d elements" % (rank, len(self.ground)))
        self.rank = rank
        items = valuation.items() if hasattr(valuation, "items") else valuation
        val: dict[int, int | Fraction] = {}
        infinite = set()
        den = 1  # the lcm of the Fraction values' denominators
        for key, value in items:
            mask = key if type(key) is int else _as_mask(self, key)
            if mask.bit_count() != rank:
                raise InvalidMatroidError("valuated set of size %d in a rank-%d matroid"
                                          % (mask.bit_count(), rank))
            if mask in val or mask in infinite:
                raise InvalidMatroidError("the set %s is valued twice"
                                          % ([self.ground[i] for i in _bits(mask)],))
            if type(value) is not int:
                if isinstance(value, Trop):
                    if value.is_inf:
                        infinite.add(mask)
                        continue
                    value = value.value
                value = Fraction(value)
                if value.denominator == 1:
                    value = value.numerator
                else:
                    den = math.lcm(den, value.denominator)
            val[mask] = value
        if not val:
            raise InvalidMatroidError("no subset has a finite value")
        if den > 1:  # every value over den, in place
            for m, v in val.items():
                val[m] = v * den if type(v) is int else v.numerator * (den // v.denominator)
        low = min(val.values())
        g = den
        for v in val.values():
            if g == 1:
                break
            g = math.gcd(g, v - low)
        if low or g > 1:
            for m, v in val.items():
                val[m] = (v - low) // g
        self._val = val
        self.den = den // g

    # Access -----------------------------------------------------------------

    def value_mask(self, mask: int) -> Optional[Fraction]:
        v = self._val.get(mask)
        return None if v is None else Fraction(v, self.den)

    def value(self, subset) -> Trop:
        v = self.value_mask(_as_mask(self, subset))
        return INF if v is None else Trop(v)

    def basis_masks(self) -> list[int]:
        return sorted(self._val)

    def valuation_items(self) -> list[tuple[int, Fraction]]:
        return [(m, Fraction(v, self.den)) for m, v in sorted(self._val.items())]

    def bases_as_sets(self) -> list[frozenset]:
        return [frozenset(self.ground[i] for i in _bits(m)) for m in self.basis_masks()]

    @classmethod
    def from_bases(cls, ground: Sequence[Hashable], bases: Iterable) -> "VMatroid":
        """Boolean valuated matroid: value 0 on every listed basis.

        Bases are masks or label sets, each listed once; the rank is the
        size of the first.
        """
        bases = iter(bases)
        first = next(bases, None)
        if first is None:
            raise InvalidMatroidError("a matroid needs at least one basis")
        rank = first.bit_count() if isinstance(first, int) else len(first)
        return cls(ground, rank, ((B, 0) for B in itertools.chain((first,), bases)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, VMatroid) and self.ground == other.ground
                and self.rank == other.rank and self.den == other.den
                and self._val == other._val)

    def __hash__(self) -> int:
        return hash((self.ground, self.rank, self.den, frozenset(self._val.items())))

    def __repr__(self) -> str:
        return "VMatroid(|E|=%d, rank=%d, %d bases)" % (len(self.ground), self.rank, len(self._val))

# Operations --------------------------------------------------------------------


def _witness(M: VMatroid, A: int, B: int, a: int):
    return (frozenset(M.ground[i] for i in _bits(A)),
            frozenset(M.ground[i] for i in _bits(B)),
            M.ground[a])


def _exchange_three_term(M: VMatroid, budget: Budget):
    """Three-term Plucker scan: the first violated local exchange, or None.

    For every (r-2)-subset S and every four elements i < j < k < l outside
    S, the minimum of p(Sij)+p(Skl), p(Sik)+p(Sjl), p(Sil)+p(Sjk) must be
    infinite or attained at least twice.  If t1 = p(Sij)+p(Skl) is the
    strict minimum, exchanging i out of A = Sij into B = Skl leaves only
    the terms t2 and t3, both larger, so (A, B, i) is an exchange witness;
    likewise for t2 and t3.

    The scan is driven from the bases: p(S+x+y) is finite only when x and
    y lie in used[S], the union of the pairs {x, y} with S+x+y a basis.  A
    quadruple with an element outside used[S] has three infinite terms and
    is skipped.  Within one S, x ~ x' when their rows p(S+x+y), y in
    used[S], differ by a constant (Dress-Wenzel).  A row is infinite at its
    own element, so a quadruple holding x and x' has one infinite and two
    equal terms and passes, and x' in place of x shifts all three terms
    alike.  So the first violating quadruple holds only the least of each
    class, or the least in place of another would violate and sort
    earlier.  S runs in itertools.combinations order and quadruples in
    combinations order over those least elements, so the first violation
    is the one a scan over every S and every quadruple outside S finds.
    """
    n = len(M.ground)
    val = M._val
    budget.charge(len(val) * math.comb(M.rank, 2), "valuated exchange check")
    used: dict[int, int] = {}
    for B in val:
        for x, y in itertools.combinations(_bits(B), 2):
            pair = (1 << x) | (1 << y)
            used[B ^ pair] = used.get(B ^ pair, 0) | pair
    budget.charge(sum(math.comb(u.bit_count(), 4) for u in used.values()),
                  "valuated exchange check")
    inf = math.inf  # int + inf is inf, and inf compares above every int
    pv = [[inf] * n for _ in range(n)]
    scan = sorted((S for S, u in used.items() if u.bit_count() >= 4),
                  key=lambda S: tuple(_bits(S)))
    for smask in scan:
        rest = list(_bits(used[smask]))
        # p(S + x + y) for x, y in used[S]; only these entries are read below
        for x, y in itertools.combinations(rest, 2):
            pv[x][y] = pv[y][x] = val.get(smask | (1 << x) | (1 << y), inf)
        least: dict[tuple, int] = {}  # row less its minimum -> least element, ascending
        row_of = operator.itemgetter(*rest)
        for x in rest:
            row = row_of(pv[x])
            low = min(row)  # finite: x is in some basis S + x + y
            least.setdefault(tuple([v - low for v in row]), x)
        for i, j, k, l in itertools.combinations(least.values(), 4):
            t1 = pv[i][j] + pv[k][l]
            t2 = pv[i][k] + pv[j][l]
            t3 = pv[i][l] + pv[j][k]
            if t1 < t2 and t1 < t3:
                A, B = (1 << i) | (1 << j), (1 << k) | (1 << l)
            elif t2 < t1 and t2 < t3:
                A, B = (1 << i) | (1 << k), (1 << j) | (1 << l)
            elif t3 < t1 and t3 < t2:
                A, B = (1 << i) | (1 << l), (1 << j) | (1 << k)
            else:
                continue  # the minimum is infinite or attained twice
            return _witness(M, smask | A, smask | B, i)
    return None


def _disconnected_witness(M: VMatroid):
    """None when single swaps connect all bases of M, else a witness.

    Bases sharing an (r-1)-set are one swap apart.  Let A be the smallest
    basis mask and B the smallest one that A cannot reach.  Walk A towards
    B: take the lowest a in A \\ B; if no b in B \\ A makes A - a + b and
    B - b + a both bases, (A, B, a) violates exchange, else A := A - a + b.
    Each step stays in A's component, which B is not in, and shrinks
    |A \\ B| by one, so a witness comes within r steps.
    """
    faces: dict[int, list[int]] = {}
    for B in M._val:
        for x in _bits(B):
            faces.setdefault(B ^ (1 << x), []).append(B)
    A = min(M._val)
    reached, stack = {A}, [A]
    while stack:
        C = stack.pop()
        for x in _bits(C):
            for D in faces.pop(C ^ (1 << x), ()):
                if D not in reached:
                    reached.add(D)
                    stack.append(D)
    if len(reached) == len(M._val):
        return None
    B = min(m for m in M._val if m not in reached)
    while True:
        diff = A & ~B
        abit = diff & -diff
        for b in _bits(B & ~A):
            bbit = 1 << b
            if ((A ^ abit) | bbit) in M._val and ((B ^ bbit) | abit) in M._val:
                A = (A ^ abit) | bbit
                break
        else:
            return _witness(M, A, B, abit.bit_length() - 1)


def check_valuated_exchange(M: VMatroid, budget: Budget | None = None):
    """None when the valuated basis exchange axiom holds, else a witness.

    A witness is (A, B, a): finite sets A, B and a in A \\ B such that no
    b in B \\ A satisfies p(A) + p(B) >= p(A+b-a) + p(B+a-b).

    The decision is the three-term scan followed by a connectivity check of
    the support, at every size.  It is sound on any support:
    - a quadruple with exactly one finite term is a failure of Boolean
      exchange between two bases with |A \\ B| = 2, and the scan reports
      it as a strict minimum;
    - Boolean exchange for every such pair plus a basis graph connected
      by single swaps makes the support the bases of a matroid (Maurer,
      Matroid basis graphs I, 1973);
    - on a matroid support, the three-term relations for every S are the
      local exchange criterion for a valuated matroid (Murota, Matrices and
      Matroids for Systems Analysis; Dress-Wenzel, Valuated matroids, 1992).
    """
    budget = Budget() if budget is None else budget
    return _exchange_three_term(M, budget) or _disconnected_witness(M)


def _fundamental_circuit_idx(M: VMatroid, mask: int, ei: int) -> VVector:
    """Coordinate i is p(B + e - i) less the least such value; p(B) sits at e."""
    if mask not in M._val:
        raise PreconditionError("B is not a basis of the underlying matroid")
    ebit = 1 << ei
    if mask & ebit:
        raise PreconditionError("e must lie outside B")
    extended = mask | ebit
    coords = [None] * len(M.ground)
    for i in _bits(extended):
        coords[i] = M._val.get(extended ^ (1 << i))
    low = min(v for v in coords if v is not None)
    return tuple(INF if v is None else Trop(Fraction(v - low, M.den)) for v in coords)


def circuits(M: VMatroid, budget: Budget | None = None) -> list[VVector]:
    """All valuated circuits, one per support, canonicalized and sorted.

    Fundamental circuits over all (basis, external element) pairs cover
    every circuit; circuits with equal support are tropical multiples of
    each other, so support dedup is exact.  The circuit of (B, e) is read
    off X = B + e alone, so each X is computed once, for its first pair.
    """
    budget = Budget() if budget is None else budget
    n = len(M.ground)
    masks = M.basis_masks()
    budget.charge(len(masks) * max(1, n - M.rank), "circuit enumeration")
    val = M._val
    full = (1 << n) - 1
    first: dict[int, int] = {}  # B + e -> e of the first pair (B, e) giving it
    for B in masks:
        for e in _bits(full & ~B):
            first.setdefault(B | (1 << e), e)
    seen: dict[int, VVector] = {}
    for X, e in first.items():
        smask = 0  # the support: each i in X with X - i a basis; values p(X - i)
        for i in _bits(X):
            if X ^ (1 << i) in val:
                smask |= 1 << i
        if smask not in seen:
            seen[smask] = _fundamental_circuit_idx(M, X ^ (1 << e), e)
    return [seen[m] for m in sorted(seen)]


def is_vector(M: VMatroid, v: Sequence[Trop], budget: Budget | None = None) -> bool:
    """Normative membership test for the tropical span of the circuits.

    v belongs iff for every (corank+1)-subset S the minimum over e in S of
    p(E \\ S + e) + v_e is infinite or attained at least twice.  With
    p = _val / den and the finite v_e = P_e / q, each term times den q is
    the int _val q + den P_e.
    """
    n = len(M.ground)
    if len(v) != n:
        raise DimensionError("vector has %d coordinates, ground has %d" % (len(v), n))
    v = [(c if isinstance(c, Trop) else Trop(c)).value for c in v]
    q = math.lcm(*(x.denominator for x in v if x is not None))
    P = [None if x is None else M.den * x.numerator * (q // x.denominator) for x in v]
    k = n - M.rank + 1
    if k > n:  # rank 0: every element is a loop, everything is a vector
        return True
    budget = Budget() if budget is None else budget
    budget.charge(math.comb(n, k), "vector membership")
    val = M._val
    full = (1 << n) - 1
    for S in itertools.combinations(range(n), k):
        rest = full ^ _mask_of(S)
        best: Optional[int] = None
        count = 0
        for e in S:
            if P[e] is None:
                continue
            p = val.get(rest | (1 << e))
            if p is None:
                continue
            t = p * q + P[e]
            if best is None or t < best:
                best, count = t, 1
            elif t == best:
                count += 1
        if best is not None and count < 2:
            return False
    return True


def lex_min_basis_of_subset(M: VMatroid, subset) -> int:
    """The lexicographically smallest basis of the restriction to subset S.

    Every basis of the restriction has the form B & S for a basis B of M: a
    maximal independent I in S extends to a basis B, and B & S, independent
    and containing I, is I.  So the bases of M|S are the B & S of the
    largest size, and Gale's greedy basis, which takes each element of S in
    order when it stays independent, is the first of them in sorted-bit
    order.  One scan keeps the largest and, among those, the smallest: two
    sets of one size compare by the lowest bit where they differ.
    """
    mask = _as_mask(M, subset)
    best, size = 0, 0
    for B in M._val:
        X = B & mask
        k = X.bit_count()
        if k > size:
            best, size = X, k
        elif k == size and X & (X ^ best) & -(X ^ best):
            best = X
    return best
