"""JSON (de)serialization for every core type.

Rationals travel as canonical reduced 'p/q' strings ('p' when q = 1),
never as floats; 'inf' appears only where a scalar field admits it.
Inside polynomial term lists infinity is encoded by absence, so 'inf'
coefficients are rejected there.  All emitted lists are canonically
sorted, which makes serialization deterministic.

A rational is read by one grammar, semiring.parse_ratio: a JSON integer
(not a boolean) or a string 'p' or 'p/q', reduced or not ('2/4' reads as
1/2), with q written without a leading zero.  Integer fields such as
'rank' and 'vars' reject booleans too, and a matroid's valuation sets and
bases list distinct integer indices into its ground, and a polynomial
lists each exponent once.  A matroid valuation is written as VMatroid
stores it, ints over one denominator; it is read with integer values as
ints and the others as Fractions, which VMatroid brings over one
denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import monomials as mon
from .errors import ParseError
from .groebner import Certificate, GroebnerCell, GroebnerComplex
from .ideals import ClassicalInput, QPoly, TruncIdeal, Valuation
from .matroids import VMatroid, _bits
from .polyhedra import Cell
from .polynomials import TropPoly
from .semiring import Trop, parse_ratio


def _ratio(text) -> tuple[int, int]:
    """The unreduced (p, q) of a finite rational; 'inf' is rejected."""
    if text == "inf":
        raise ParseError("'inf' is not allowed here")
    return parse_ratio(text)


def _parse_frac(text) -> Fraction:
    return Fraction(*_ratio(text))


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("missing %r in %s" % (key, where))
    value = obj[key]
    if kind is not None and (not isinstance(value, kind)
                             or (kind is int and type(value) is bool)):
        raise ParseError("%r in %s has the wrong type" % (key, where))
    return value


# Tropical polynomials --------------------------------------------------------------


def poly_to_json(f: TropPoly) -> dict:
    return {"vars": f.num_vars,
            "terms": [{"exp": list(u), "coeff": str(c)} for u, c in f.terms()]}


def _exponent(item, where, terms: dict) -> tuple:
    """A term's exponent as a tuple; a ParseError when terms already has it."""
    exp = _expect(item, "exp", list, where)
    if not all(type(e) is int for e in exp):
        raise ParseError("%s: every exponent must be a JSON integer" % where)
    if tuple(exp) in terms:
        raise ParseError("%s repeats the exponent %s" % (where, exp))
    return tuple(exp)


def poly_from_json(obj) -> TropPoly:
    nv = _expect(obj, "vars", int, "polynomial")
    terms = {}
    for i, item in enumerate(_expect(obj, "terms", list, "polynomial")):
        exp = _exponent(item, "term %d" % i, terms)
        coeff = _expect(item, "coeff", None, "term %d" % i)
        if coeff == "inf":
            raise ParseError("term %d: absence encodes infinity; 'inf' is not allowed" % i)
        terms[exp] = Trop(_parse_frac(coeff))
    return TropPoly(nv, terms)


def qpoly_from_json(obj) -> QPoly:
    nv = _expect(obj, "vars", int, "generator")
    coeffs = {}
    for i, item in enumerate(_expect(obj, "terms", list, "generator")):
        where = "generator term %d" % i
        exp = _exponent(item, where, coeffs)
        coeffs[exp] = _parse_frac(_expect(item, "coeff", None, where))
    return QPoly(nv, coeffs)


def classical_input_from_json(obj) -> ClassicalInput:
    gens = tuple(qpoly_from_json(g) for g in _expect(obj, "generators", list, "input"))
    val = _expect(obj, "valuation", dict, "input")
    kind = _expect(val, "type", str, "valuation")
    p = val.get("p", 0)
    return ClassicalInput(gens, Valuation(kind, p))


# Weights ---------------------------------------------------------------------------


def weight_from_json(items) -> tuple:
    if not isinstance(items, list):
        raise ParseError("a weight is a JSON list")
    return tuple(Trop.parse(x) for x in items)


def weight_to_json(w) -> list:
    return [str(x) for x in w]


# Matroids --------------------------------------------------------------------------


def _ground_label(e) -> str:
    return mon.label(e) if isinstance(e, tuple) else str(e)


def vmatroid_to_json(M: VMatroid, boolean: bool = False) -> dict:
    out = {"ground": [_ground_label(e) for e in M.ground], "rank": M.rank}
    if boolean:
        out["bases"] = [list(_bits(m)) for m in M.basis_masks()]
    else:
        den = M.den
        out["valuation"] = [{"set": list(_bits(m)),
                             "val": str(v) if den == 1 else str(Fraction(v, den))}
                            for m, v in sorted(M._val.items())]
    return out


def _index_mask(idxs, n: int, where: str) -> int:
    """The bitmask of a JSON list of distinct indices into a ground of size n."""
    if not isinstance(idxs, list):
        raise ParseError("%s has bad indices" % where)
    mask = 0
    for j in idxs:
        if type(j) is not int or not 0 <= j < n:
            raise ParseError("%s has bad indices" % where)
        mask |= 1 << j
    if mask.bit_count() != len(idxs):
        raise ParseError("%s lists an index twice" % where)
    return mask


def vmatroid_from_json(obj, ground=None) -> VMatroid:
    labels = _expect(obj, "ground", list, "matroid")
    if any(isinstance(e, (list, dict)) for e in labels):
        raise ParseError("a ground label is a JSON scalar")
    if ground is None:
        ground = tuple(labels)
    if len(ground) != len(labels):
        raise ParseError("ground size mismatch")
    rank = _expect(obj, "rank", int, "matroid")
    n = len(ground)
    if "valuation" in obj:
        # an integer value stays an int; VMatroid brings Fractions over one den
        items = []
        for i, item in enumerate(_expect(obj, "valuation", list, "matroid")):
            where = "valuation entry %d" % i
            mask = _index_mask(_expect(item, "set", list, where), n, where)
            p, q = _ratio(_expect(item, "val", None, where))
            items.append((mask, p if q == 1 else Fraction(p, q)))
        return VMatroid(ground, rank, items)
    if "bases" in obj:
        masks = [_index_mask(idxs, n, "basis %d" % i)
                 for i, idxs in enumerate(_expect(obj, "bases", list, "matroid"))]
        M = VMatroid.from_bases(ground, masks)
        if M.rank != rank:
            raise ParseError("declared rank %d but bases have size %d" % (rank, M.rank))
        return M
    raise ParseError("matroid needs 'valuation' or 'bases'")


# Truncated ideals ------------------------------------------------------------------


def ideal_to_json(I: TruncIdeal) -> dict:
    return {"vars": I.num_vars, "degree_bound": I.degree_bound, "mode": I.mode,
            "layers": [vmatroid_to_json(M, boolean=(I.mode == "boolean"))
                       for M in I.layers]}


def ideal_from_json(obj) -> TruncIdeal:
    nv = _expect(obj, "vars", int, "ideal")
    D = _expect(obj, "degree_bound", int, "ideal")
    mode = obj.get("mode", "rational")
    layer_objs = _expect(obj, "layers", list, "ideal")
    if len(layer_objs) != D + 1:
        raise ParseError("degree_bound %d but %d layers" % (D, len(layer_objs)))
    layers = []
    for d, lobj in enumerate(layer_objs):
        labels = _expect(lobj, "ground", list, "layer %d" % d)
        # the size first, so a short ground never lists comb(nv + d - 1, d) monomials;
        # nv < 1 is left to monomials_of_degree, as math.comb refuses negatives
        if nv >= 1 and len(labels) != math.comb(nv + d - 1, d):
            raise ParseError("layer %d ground is not the canonical degree-%d list" % (d, d))
        ground = tuple(mon.monomials_of_degree(nv, d))
        if labels != [_ground_label(u) for u in ground]:
            raise ParseError("layer %d ground is not the canonical degree-%d list" % (d, d))
        layers.append(vmatroid_from_json(lobj, ground=ground))
    return TruncIdeal(nv, layers, mode=mode)


# Complexes -------------------------------------------------------------------------


def _row_to_json(row) -> list:
    coeffs, rhs = row
    return [str(c) for c in coeffs] + [str(rhs)]


def _label_to_json(label) -> list:
    """A refined cell's label, one tie set of exponents per input complex."""
    return [sorted(mon.label(u) for u in T) for T in label]


def cell_to_json(cell: Cell) -> dict:
    return {"sigma": sorted(cell.sigma),
            "eq": [_row_to_json(r) for r in cell.eqs],
            "ineq": [_row_to_json(r) for r in cell.ineqs],
            "label": _label_to_json(cell.label),
            "dim": cell.dim()}


def _gcell_to_json(gc: GroebnerCell, verbose: bool) -> dict:
    out = cell_to_json(gc.cell)
    out["witness"] = weight_to_json(gc.witness)
    out["fingerprint"] = gc.fingerprint_digest()
    out["in_variety"] = gc.in_variety
    if verbose:
        out["fingerprint_full"] = [sorted(list(_bits(m)) for m in layer)
                                   for layer in gc.fingerprint]
    return out


def _strata_to_json(X: GroebnerComplex, verbose: bool) -> list:
    """Each stratum's sigma and cells, in all_cells order."""
    return [{"sigma": sorted(sigma),
             "cells": [_gcell_to_json(gc, verbose) for gc in X.strata[sigma]]}
            for sigma in X.sigmas()]


def groebner_complex_to_json(G: GroebnerComplex, verbose: bool = False) -> dict:
    strata = _strata_to_json(G, verbose)
    classes: dict[str, list] = {}
    for stratum in strata:
        for pos, cell in enumerate(stratum["cells"]):
            classes.setdefault(cell["fingerprint"], []).append([stratum["sigma"], pos])
    return {"ambient": G.ideal.num_vars, "degree_bound": G.ideal.degree_bound,
            "strata": strata,
            "classes": [{"fingerprint": k, "cells": v}
                        for k, v in sorted(classes.items())]}


def variety_to_json(V: GroebnerComplex, verbose: bool = False) -> dict:
    return {"ambient": V.ideal.num_vars, "presentation": V.presentation,
            "quotiented": V.quotiented, "strata": _strata_to_json(V, verbose)}


def certificate_to_json(cert: Certificate) -> dict:
    out = {"kind": cert.kind, "truncation": cert.truncation}
    if cert.kind == "unit":
        out["degree"] = cert.degree
    if cert.kind == "nonempty":
        out["witness_sigma"] = sorted(cert.witness_sigma)
        out["witness_cell"] = _gcell_to_json(cert.witness_cell, verbose=False)
    return out
