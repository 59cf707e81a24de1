"""Reference helpers shared by the test modules: point charts, membership,
the refinement by product, the direct exchange quantifier, the univariate
chord scan and root expansion, term merging, contraction, initial
matroids, elimination witnesses, stratum polynomials and initial towers by
contraction, and tropical evaluation, hypersurface membership, the
tropicalization of a classical polynomial and the loops of a matroid.

These are oracles, not library API: they read a cell's rows with plain
Fractions, so the integer kernels in tropideal.polyhedra can be checked
against them; they solve every tuple of cells, so refine's locate-and-walk
can be; they take the least coefficients of a univariate polynomial by
brute force, so the lower hull in tropideal.polynomials can be; and they
build each stratum from `contract` and `initial_matroid_by_fractions` on
ground labels, so the basis table that reads the sigma-face off the layer
can be; and they decide valuated exchange by its quantifier over all pairs
of bases, so the three-term scan and connectivity walk can be.  They
evaluate a tropical polynomial term by term, so the hypersurfaces that
varieties and tropical bases cut out can be checked pointwise, and they
tropicalize a classical polynomial coefficient by coefficient, so the
layers that tropicalize builds from minors can be.  `charged` runs one call
alone on a fresh budget, so a run's nested calls can be summed against the
single budget the run hands them.  `macaulay_rank` eliminates a Macaulay
matrix with plain Fractions, so the layer ranks tropicalize reads off its
echelon form can be checked.  The last few builders (`T`, `line_ideal`,
`circuit_supports`) are shared by several test modules.
"""

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from tropideal.config import Budget
from tropideal.errors import InvalidMatroidError
from tropideal.ideals import ClassicalInput, QPoly, TruncIdeal, Valuation, tropicalize
from tropideal.matroids import (VMatroid, VVector, _as_mask, _bits,
                                _fundamental_circuit_idx, _loops_mask, _mask_of,
                                circuits, lex_min_basis_of_subset)
from tropideal.monomials import monomials_of_degree, uses_sigma
from tropideal.polyhedra import Cell, PolyComplex, fm_solve
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop, dot, weight_sigma


def charged(call, *args):
    """call(*args, budget) on a fresh default budget: (result, subsets charged)."""
    budget = Budget()
    result = call(*args, budget)
    return result, budget.cap - budget.remaining


def weight_to_cell_coords(cell, w):
    """Coordinates of an ambient weight inside the cell's chart, or None.

    None when the weight's infinite coordinates do not match the cell's
    stratum.  In a quotiented cell, one with fewer free coordinates than its
    stratum has, the last finite coordinate is subtracted from the others
    and dropped.
    """
    assert len(w) == cell.ambient, "weight has wrong length"
    sig = frozenset(i for i, x in enumerate(w) if x.is_inf)
    if sig != cell.sigma:
        return None
    full_free = tuple(i for i in range(cell.ambient) if i not in cell.sigma)
    if cell.free == full_free:
        return tuple(w[i].value for i in cell.free)
    last = w[full_free[-1]].value
    return tuple(w[i].value - last for i in full_free[:-1])


def contains_by_fractions(cell, point, relint):
    """Whether point lies in the closed cell, or with relint in its relative
    interior: there a row is tight exactly when it is tight at the cell's
    witness."""

    def slack(c, r, w):
        return r - sum(a * Fraction(x) for a, x in zip(c, w))

    witness = cell.relint_point() if relint else None
    if relint and witness is None or any(slack(c, r, point) for c, r in cell.eqs):
        return False
    for c, r in cell.ineqs:
        s = slack(c, r, point)
        if s < 0 or relint and (s == 0) != (slack(c, r, witness) == 0):
            return False
    return True


def refine_by_product(complexes):
    """Reference refinement: solve every tuple of the product of the inputs'
    cells, and key each feasible one by the cells whose relative interiors
    hold its point."""
    first = complexes[0]
    lists = [c.cells for c in complexes]
    found = {}
    for combo in itertools.product(*lists):
        p = fm_solve(len(combo[0].free), [row for cell in combo for row in cell.eqs],
                     [row for cell in combo for row in cell.ineqs])
        if p is None:
            continue
        located = tuple(next(i for i, cell in enumerate(lst)
                             if contains_by_fractions(cell, p, relint=True))
                        for lst in lists)
        if located in found:
            continue
        reps = [lists[i][j] for i, j in enumerate(located)]
        found[located] = Cell(first.ambient, first.sigma,
                              [row for rep in reps for row in rep.eqs],
                              [row for rep in reps for row in rep.ineqs],
                              label=tuple(rep.label for rep in reps),
                              free=combo[0].free)
    return PolyComplex(first.ambient, first.sigma, [found[k] for k in sorted(found)])


def assert_same_refinement(R, S):
    """Same space, and cell by cell the same rows, labels and witnesses."""
    assert (R.ambient, R.sigma) == (S.ambient, S.sigma)
    assert len(R.cells) == len(S.cells)
    for a, b in zip(R.cells, S.cells):
        assert (a.free, a.eqs, a.ineqs, a.label) == (b.free, b.eqs, b.ineqs, b.label)
        assert a.relint_point() == b.relint_point()


def exchange_holds_at(val, A, B, a):
    """Some b in B \\ A has p(A) + p(B) >= p(A - a + b) + p(B - b + a).

    val is a valuation, or a positive scaling of one, keyed by mask.
    """
    lhs = val[A] + val[B]
    abit = 1 << a
    for b in range(B.bit_length()):
        bbit = 1 << b
        if B & ~A & bbit:
            v1 = val.get((A ^ abit) | bbit)
            v2 = val.get((B ^ bbit) | abit)
            if v1 is not None and v2 is not None and v1 + v2 <= lhs:
                return True
    return False


def exchange_by_quantifier(M):
    """The first (A, B, a) in basis-mask order where exchange fails, as
    label sets, or None: O(bases**2) pairs, each tried at every a in A \\ B."""
    val = M._val
    masks = sorted(val)
    for A in masks:
        for B in masks:
            for a in range(len(M.ground)):
                if (A & ~B) >> a & 1 and not exchange_holds_at(val, A, B, a):
                    return (frozenset(e for i, e in enumerate(M.ground) if A >> i & 1),
                            frozenset(e for i, e in enumerate(M.ground) if B >> i & 1),
                            M.ground[a])
    return None


def least_coefficients_by_chords(f):
    """c_j = min(b_j, every chord (b_i*(k-j) + b_k*(j-i)) / (k-i), i < j < k)
    for j up to the top exponent, over the finite coefficients b of the
    univariate f: O(top * terms**2) steps."""
    b = {u[0]: a for u, a in f.terms()}
    top = max(b)
    finite = sorted(b)
    out = {}
    for j in range(top + 1):
        best = b.get(j, INF)
        for i in finite:
            if i >= j:
                break
            for k in finite:
                if k <= j:
                    continue
                chord = Trop(Fraction(b[i].value * (k - j) + b[k].value * (j - i), k - i))
                best = best + chord
        if not best.is_inf:
            out[(j,)] = best
    return TropPoly(1, out)


def merge_terms(pairs, combine):
    """One coefficient per exponent: (exponent, coefficient) pairs folded
    left to right, a repeated exponent's coefficients joined by combine."""
    out = {}
    for u, c in pairs:
        out[u] = combine(out[u], c) if u in out else c
    return out


def stratum_poly_by_contraction(I, d, sigma):
    """The degree-d stratum polynomial on sigma: contract the layer by its
    sigma-monomials, and give each basis B of the contraction the term
    p(B) x^e, e the sum of the contraction's ground outside B; equal
    exponents merge by minimum."""
    M = I.layer(d)
    C = contract(M, [u for u in M.ground if uses_sigma(u, sigma)])
    terms = {}
    for mask, p in C.valuation_items():
        outside = [u for i, u in enumerate(C.ground) if not (mask >> i) & 1]
        e = tuple(sum(u[i] for u in outside) for i in range(I.num_vars))
        if e not in terms or p < terms[e]:
            terms[e] = p
    return TropPoly(I.num_vars, {e: Trop(p) for e, p in terms.items()})


def initial_layers_by_label_sets(I, w):
    """The initial tower at the weight w by ground labels.

    Contract each layer by its sigma-monomials given as labels, weight the
    rest by the tropical dot product w.u, and add the sigma-monomials back
    to every basis as a label set.
    """
    sigma = weight_sigma(w)
    layers = []
    for M in I.layers:
        sigma_mons = [u for u in M.ground if uses_sigma(u, sigma)]
        C = contract(M, sigma_mons)
        N = initial_matroid_by_fractions(C, [dot(w, u).value for u in C.ground])
        bases = [set(B) | set(sigma_mons) for B in N.bases_as_sets()]
        layers.append(VMatroid.from_bases(M.ground, bases))
    return layers


def poly_from_roots(leading: Trop, roots, x_power: int = 0) -> TropPoly:
    """Expand leading * prod (x + a_i)^{m_i} * x^{x_power}."""
    out = TropPoly(1, {(x_power,): leading})
    for a, m in roots:
        factor = TropPoly(1, {(1,): Trop(0), (0,): Trop(a)})
        for _ in range(m):
            out = out * factor
    return out


def boolean_image(I: TruncIdeal) -> TruncIdeal:
    """Forget coefficients: finite values become 0, layerwise."""
    layers = [VMatroid.from_bases(M.ground, M.basis_masks()) for M in I.layers]
    return TruncIdeal(I.num_vars, layers, mode="boolean")


def fundamental_circuit(M: VMatroid, B, e) -> VVector:
    """The valuated fundamental circuit of the element e over the basis B.

    Coordinate e' carries p(B + e - e') - p(B); sets of the wrong size have
    infinite value, so the support sits inside B + e.  The result is
    canonicalized to minimum coordinate 0.  B may be a label set or a
    bitmask; e is always a ground label.
    """
    return _fundamental_circuit_idx(M, _as_mask(M, B), M._index[e])


def initial_matroid_by_fractions(M, w):
    """The Boolean matroid of the bases minimizing the Fraction p(B) - sum
    of w over B, for a finite weight w on the ground."""
    weights = [Fraction(x) for x in w]
    best, arg = None, []
    for mask, p in M.valuation_items():
        t = p - sum(weights[i] for i in _bits(mask))
        if best is None or t < best:
            best, arg = t, [mask]
        elif t == best:
            arg.append(mask)
    return VMatroid.from_bases(M.ground, arg)


def contract(M: VMatroid, A) -> VMatroid:
    """Contraction by A, using the lexicographically smallest basis of A.

    The choice only shifts the valuation by a global scalar, which the
    canonical normalization removes.
    """
    amask = _as_mask(M, A)
    if amask == 0:
        return M
    BA = lex_min_basis_of_subset(M, amask)
    keep = [i for i in range(len(M.ground)) if not (amask >> i) & 1]
    ground = tuple(M.ground[i] for i in keep)
    newrank = M.rank - BA.bit_count()
    val: dict[int, int] = {}
    for mask, p in M._val.items():
        if mask & BA != BA or mask & amask != BA:
            continue
        rest = mask ^ BA
        val[_mask_of(j for j, i in enumerate(keep) if (rest >> i) & 1)] = p
    if not val:
        raise InvalidMatroidError("contraction produced no basis; B_A was not extendable")
    return VMatroid(ground, newrank, {m: Fraction(p, M.den) for m, p in val.items()})


def circuit_elimination_witness(all_circuits: Sequence[VVector], G: VVector, H: VVector,
                                e: int, eprime: int) -> Optional[VVector]:
    """A circuit F with F_e infinite, F_e' = G_e', and F >= G + H, if present.

    Candidates are tropical rescalings of the canonical circuit list, since
    circuits come in full scalar orbits.
    """
    target = G[eprime]
    if target.is_inf:
        return None
    for C in all_circuits:
        if not C[e].is_inf or C[eprime].is_inf:
            continue
        lam = Trop(target.value - C[eprime].value)
        F = tuple(lam * c for c in C)
        if all(F[i] >= G[i] + H[i] for i in range(len(F))):
            return F
    return None


def vector_elimination_witness(M: VMatroid, G: Sequence[Trop], H: Sequence[Trop],
                               e: int, circuit_list: Sequence[VVector]) -> Optional[VVector]:
    """Construct the eliminated vector for G, H at coordinate e, or None.

    Any eliminated vector is a tropical combination of circuits, each piece
    lying above G + H and infinite at e; one piece must attain the value of
    G + H at each coordinate where G and H differ.  Searching circuit_list,
    the circuits of M, per coordinate and taking the minimum is therefore a
    complete procedure.
    """
    n = len(M.ground)
    GH = tuple(G[i] + H[i] for i in range(n))
    diff = [i for i in range(n) if G[i] != H[i]]
    pieces: list[VVector] = []
    for i in diff:
        target = GH[i]
        assert not target.is_inf  # differing coordinates cannot both be infinite
        found = None
        for C in circuit_list:
            if not C[e].is_inf or C[i].is_inf:
                continue
            lam = Trop(target.value - C[i].value)
            scaled = tuple(lam * c for c in C)
            if all(scaled[j] >= GH[j] for j in range(n)):
                found = scaled
                break
        if found is None:
            return None
        pieces.append(found)
    if not pieces:
        return tuple(INF for _ in range(n))
    return tuple(min(p[j] for p in pieces) for j in range(n))


def _min_terms(f: TropPoly, w: Sequence[Trop]):
    """(min over the support of coeff + w.u, the exponents attaining it)."""
    best, argmin = INF, set()
    for u, a in f.terms():
        v = a * dot(w, u)
        if v.is_inf:
            continue
        if best.is_inf or v < best:
            best, argmin = v, {u}
        elif v == best:
            argmin.add(u)
    return best, argmin


def evaluate(f: TropPoly, w: Sequence[Trop]) -> Trop:
    """f at w: min over the support of coeff + w.u; infinity for empty support."""
    return _min_terms(f, w)[0]


def min_twice(f: TropPoly, w: Sequence[Trop]) -> bool:
    """Membership of w in the tropical hypersurface of f."""
    value, argmin = _min_terms(f, w)
    return value.is_inf or len(argmin) >= 2


def valuation_of(valuation: Valuation, q: Fraction) -> Trop:
    """The valuation of a rational, infinity at 0."""
    if q == 0:
        return INF
    return Trop(valuation.of_int(q.numerator) - valuation.of_int(q.denominator))


def trop(g: QPoly, valuation: Valuation) -> TropPoly:
    """The tropical polynomial of the valuations of g's coefficients."""
    return TropPoly(g.num_vars, {u: valuation_of(valuation, c) for u, c in g.coeffs.items()})


def loops(M: VMatroid) -> list:
    """The ground elements in no basis of M, in ground order."""
    return [M.ground[i] for i in _bits(_loops_mask(M.basis_masks(), len(M.ground)))]


def macaulay_rank(gens, d):
    """Exact rank of the degree-d Macaulay matrix, by Gauss elimination on Fractions."""
    nv = gens[0].num_vars
    cols = monomials_of_degree(nv, d)
    index = {u: i for i, u in enumerate(cols)}
    rows = []
    for g in gens:
        dg = g.degree()
        if dg > d:
            continue
        for u in monomials_of_degree(nv, d - dg):
            shifted = g * QPoly(nv, {u: 1})
            row = [Fraction(0)] * len(cols)
            for v, c in shifted.coeffs.items():
                row[index[v]] = c
            rows.append(row)
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                fct = rows[r][c] / rows[rank][c]
                rows[r] = [a - fct * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# Shared builders ---------------------------------------------------------------------


def T(pairs, nvars):
    """The tropical polynomial with the given (exponent, coefficient) terms."""
    return TropPoly(nvars, {u: Trop(c) for u, c in pairs})


def line_ideal(D=1):
    """The tropicalization of x + y + z under the trivial valuation, truncated at D."""
    g = QPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    return tropicalize(ClassicalInput((g,), Valuation("trivial")), D)


def circuit_supports(M):
    """The supports of the circuits of M, as sets of ground labels."""
    return [frozenset(u for u, c in zip(M.ground, H) if not c.is_inf) for H in circuits(M)]
