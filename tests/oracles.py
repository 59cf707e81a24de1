"""Reference helpers shared by the test modules: point charts, membership,
the direct exchange quantifier, the univariate chord scan, term merging,
and stratum polynomials and initial towers by contraction.

These are oracles, not library API: they read a cell's rows with plain
Fractions, so the integer kernels in tropideal.polyhedra can be checked
against them; they take the least coefficients of a univariate polynomial
by brute force, so the lower hull in tropideal.polynomials can be; and they
build each stratum from the public contract and initial_matroid on ground
labels, so the basis table that reads the sigma-face off the layer can be;
and they decide valuated exchange by its quantifier over all pairs of
bases, so the three-term scan and connectivity walk can be.
"""

from fractions import Fraction

from tropideal.matroids import VMatroid, contract, initial_matroid
from tropideal.monomials import uses_sigma
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop, dot, weight_sigma


def weight_to_cell_coords(cell, w, quotiented):
    """Coordinates of an ambient weight inside the cell's chart, or None.

    None when the weight's infinite coordinates do not match the cell's
    stratum.  In a quotiented complex the last finite coordinate is
    subtracted from the others and dropped.
    """
    assert len(w) == cell.ambient, "weight has wrong length"
    sig = frozenset(i for i, x in enumerate(w) if x.is_inf)
    if sig != cell.sigma:
        return None
    if not quotiented:
        return tuple(w[i].value for i in cell.free)
    full_free = tuple(i for i in range(cell.ambient) if i not in cell.sigma)
    last = w[full_free[-1]].value
    return tuple(w[i].value - last for i in full_free[:-1])


def contains_by_fractions(cell, point, relint):
    """Whether point lies in the closed cell, or with relint in its relative
    interior: there the tight rows hold with equality and the others strictly."""
    if relint and cell.relint_point() is None:
        return False
    point = tuple(Fraction(x) for x in point)
    for c, r in cell.eqs:
        if sum(a * x for a, x in zip(c, point)) != r:
            return False
    tight = cell._tight if relint else frozenset()
    for i, (c, r) in enumerate(cell.ineqs):
        v = sum(a * x for a, x in zip(c, point))
        if i in tight:
            if v != r:
                return False
        elif v > r or (relint and v == r):
            return False
    return True


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
        N = initial_matroid(C, [dot(w, u).value for u in C.ground])
        bases = [set(B) | set(sigma_mons) for B in N.bases_as_sets()]
        layers.append(VMatroid.from_bases(M.ground, bases))
    return layers
