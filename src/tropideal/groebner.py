"""Groebner complexes, varieties, tropical bases and Nullstellensatz certificates.

The weight space of a truncated ideal decomposes, stratum by stratum, into
cells on which every degenerated layer is constant.  Each stratum's
decomposition is the common refinement of the normal complexes of one
polynomial per degree, read with its basis table straight off the
layer's sigma-face (ideals._basis_table; no contracted matroid is built).
A cell's fingerprint, its tower of degenerated layers, is read off the tie
sets in its label (the initial matroids are the faces of the regular
subdivision the coefficients induce; Speyer, "Tropical linear spaces",
2008); its exact interior witness is only reported.  Everything is
reported for the truncation only.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .config import Budget
from .errors import InputError, InvariantViolationError
from .ideals import TruncIdeal, _basis_table, _sigma_mask
from .matroids import (_bits, _fundamental_circuit_idx, _loops_mask,
                       lex_min_basis_of_subset)
from .polyhedra import Cell, fm_solve, normal_complex, quotient_lineality, refine
from .polynomials import TropPoly
from .semiring import INF, Trop


def groebner_poly(I: TruncIdeal, d: int, sigma=()) -> TropPoly:
    """The stratum polynomial whose normal complex cuts out the degree-d cells.

    Terms are indexed by the bases of the layer contracted by the monomials
    supported on sigma; the term of a basis B has coefficient p(B) and
    exponent the sum of the remaining monomials.  Equal exponents merge by
    minimum.
    """
    return _basis_table(I.layer(d), I.num_vars, frozenset(sigma))[0]


@dataclass
class GroebnerCell:
    """One refinement cell with its interior witness and layer fingerprint."""

    cell: Cell
    witness: tuple            # ambient weight, infinite on the stratum
    fingerprint: tuple        # per degree: frozenset of basis masks
    in_variety: bool

    def fingerprint_digest(self) -> str:
        payload = ";".join(
            ",".join(format(m, "x") for m in sorted(layer)) for layer in self.fingerprint)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class GroebnerComplex:
    """Cells per stratum sigma, iterated by the size of sigma, then sigma:
    all strata as built (affine), or as variety quotients them (projective)."""

    ideal: TruncIdeal
    presentation: str                  # affine | projective
    strata: dict                       # frozenset sigma -> list[GroebnerCell]
    quotiented: bool

    def sigmas(self) -> list:
        return sorted(self.strata, key=lambda s: (len(s), sorted(s)))

    def all_cells(self):
        for sigma in self.sigmas():
            for gc in self.strata[sigma]:
                yield sigma, gc

    def cell_count(self) -> int:
        return sum(len(v) for v in self.strata.values())

    def in_variety_cells(self):
        return [(s, gc) for s, gc in self.all_cells() if gc.in_variety]


VarietySubcomplex = GroebnerComplex  # a variety is its Groebner complex in a presentation


def groebner_complex(I: TruncIdeal, budget: Budget | None = None) -> GroebnerComplex:
    """Stratified cell decomposition of weight space at truncation level.

    Per stratum this is the common refinement of the normal complexes of
    the degree-d stratum polynomials for all d up to the bound.  Each layer
    is read once per stratum into a basis table, which gives the stratum
    polynomial and, in degree d, a cell's fingerprint: the bases of the
    exponents in its degree-d tie set.  The exact interior witness is
    only reported.  Cells with equal fingerprints are grouped, never merged.
    """
    nv = I.num_vars
    budget = Budget() if budget is None else budget
    strata: dict = {}
    for size in range(nv + 1):
        for sig in itertools.combinations(range(nv), size):
            sigma = frozenset(sig)
            polys, tables = zip(*(_basis_table(M, nv, sigma) for M in I.layers))
            refined = refine([normal_complex(f, sigma, budget) for f in polys], budget)
            out = []
            for cell in refined.cells:
                fingerprint = tuple(frozenset().union(*(table[e][1] for e in label))
                                    for table, label in zip(tables, cell.label))
                has_loop = any(_loops_mask(bases, len(M.ground))
                               for bases, M in zip(fingerprint, I.layers))
                coords = dict(zip(cell.free, cell.relint_point()))
                w = tuple(INF if i in sigma else Trop(coords[i]) for i in range(nv))
                out.append(GroebnerCell(cell, w, fingerprint, in_variety=not has_loop))
            strata[sigma] = out
    return GroebnerComplex(I, "affine", strata, False)


# Varieties -----------------------------------------------------------------------


def variety(G: GroebnerComplex, presentation: str = "projective") -> GroebnerComplex:
    """The affine G in a presentation; its in-variety cells, those whose
    degenerated layers are monomial-free, are the variety of G.ideal.

    The affine presentation is G itself, all strata of the ambient
    stratified space including the all-infinite point; the projective one
    drops that point and rewrites every cell modulo the all-ones line.
    """
    if presentation not in ("affine", "projective"):
        raise InputError("presentation must be 'affine' or 'projective'")
    if G.presentation != "affine":
        raise InputError("variety takes an affine Groebner complex")
    if presentation == "affine":
        return G
    strata = {sigma: [replace(gc, cell=quotient_lineality(gc.cell)) for gc in gcs]
              for sigma, gcs in G.strata.items() if len(sigma) < G.ideal.num_vars}
    return GroebnerComplex(G.ideal, "projective", strata, True)


def variety_supports_equal(V1: GroebnerComplex, V2: GroebnerComplex) -> bool:
    """Exact set equality of the two varieties' supports, cell by cell.

    The support of V1 is covered by V2 iff no in-variety cell of V1 meets
    the relative interior of an out-of-variety cell of V2; that meeting is
    a mixed strict feasibility problem, decided exactly.
    """
    if V1.presentation != V2.presentation or set(V1.strata) != set(V2.strata):
        return False

    def covered(A: GroebnerComplex, B: GroebnerComplex) -> bool:
        for sigma, gcs in A.strata.items():
            bad = [gc.cell for gc in B.strata[sigma] if not gc.in_variety]
            for gc in gcs:
                if not gc.in_variety:
                    continue
                # a refined cell repeats the rows its input cells share
                P = gc.cell
                eqs, ineqs = list(dict.fromkeys(P.eqs)), list(dict.fromkeys(P.ineqs))
                for R in bad:
                    if fm_solve(len(P.free), [*eqs, *R.core[0]], ineqs, R.core[1]) is not None:
                        return False
        return True

    return covered(V1, V2) and covered(V2, V1)


# Tropical bases --------------------------------------------------------------------


def tropical_basis(G: GroebnerComplex) -> list[TropPoly]:
    """Finitely many elements of G.ideal whose hypersurfaces cut out its variety.

    Every cell whose fingerprint has a loop contributes the fundamental
    circuit of the smallest loop monomial over the lexicographically
    smallest degenerated basis; on that cell the circuit's minimum is
    attained only at the loop, so its hypersurface misses the cell.
    """
    I = G.ideal
    polys, seen = [], set()
    for sigma, gc in G.all_cells():
        if gc.in_variety:
            continue
        for layer, M in zip(gc.fingerprint, I.layers):
            loops = _loops_mask(layer, len(M.ground))
            if loops:
                break
        loop_idx = next(_bits(loops))
        sigma_mask = _sigma_mask(M.ground, sigma)
        BA = lex_min_basis_of_subset(M, sigma_mask)
        layer_basis = min(layer, key=lambda m: tuple(_bits(m)))
        B = (layer_basis & ~sigma_mask) | BA
        if M.value_mask(B) is None:
            raise InvariantViolationError("degenerated basis is not a basis of the layer")
        H = _fundamental_circuit_idx(M, B, loop_idx)
        f = TropPoly(I.num_vars, dict(zip(M.ground, H)))
        if f not in seen:
            seen.add(f)
            polys.append(f)
    polys.sort(key=lambda f: (f.degree(), [(u, str(c)) for u, c in f.terms()]))
    return polys


# Nullstellensatz --------------------------------------------------------------------


@dataclass
class Certificate:
    """Outcome of the emptiness test: exactly one branch is populated."""

    kind: str                      # unit | nonempty | inconclusive
    degree: Optional[int] = None   # unit branch: all degree-d monomials in the ideal
    witness_sigma: Optional[frozenset] = None
    witness_cell: Optional[GroebnerCell] = None
    truncation: int = 0


def nullstellensatz(I: TruncIdeal, budget: Budget | None = None) -> Certificate:
    """Unit certificate, nonempty-variety witness, or honest inconclusive.

    If some degree at or below the truncation bound has every monomial in
    the ideal, the ideal contains that power of the irrelevant ideal and
    the variety is empty.  Otherwise an in-variety cell of the projective
    variety is returned when one exists.  Neither condition can be decided
    past the truncation, so the remaining case is reported as inconclusive
    rather than forced.
    """
    for d, M in enumerate(I.layers):
        if M.rank == 0:  # every monomial is a loop
            return Certificate("unit", degree=d, truncation=I.degree_bound)
    # the first in-variety cell of the projective variety, in stratum order
    for sigma, gc in groebner_complex(I, budget).all_cells():
        if gc.in_variety and len(sigma) < I.num_vars:
            return Certificate("nonempty", witness_sigma=sigma,
                               witness_cell=replace(gc, cell=quotient_lineality(gc.cell)),
                               truncation=I.degree_bound)
    return Certificate("inconclusive", truncation=I.degree_bound)
