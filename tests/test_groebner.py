import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropideal.groebner import (groebner_complex, groebner_poly,
                                nullstellensatz, tropical_basis, variety,
                                variety_supports_equal)
from tropideal.ideals import (ClassicalInput, QPoly, Valuation, initial_ideal,
                              nonrealizable_ideal, point_ideal, tropicalize)
from tropideal.matroids import circuits
from tropideal.polyhedra import fm_solve
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop

from oracles import (contains_by_fractions, initial_layers_by_label_sets,
                     stratum_poly_by_contraction, weight_to_cell_coords)


def line_ideal(D=1):
    g = QPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    return tropicalize(ClassicalInput((g,), Valuation("trivial")), D)


def two_planes_ideal():
    # <x0 - x1, x2 - x3> in four variables
    g1 = QPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    g2 = QPoly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1})
    return tropicalize(ClassicalInput((g1, g2), Valuation("trivial")), 1)


def unit_ideal(nv=3, D=1):
    one = QPoly(nv, {(0,) * nv: 1})
    return tropicalize(ClassicalInput((one,), Valuation("trivial")), D)


def T(pairs, nvars):
    return TropPoly(nvars, {u: Trop(c) for u, c in pairs})


# groebner_poly ---------------------------------------------------------------------


def test_groebner_poly_line():
    F = groebner_poly(line_ideal(), 1, ())
    assert F == T([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3)


def test_groebner_poly_two_planes():
    I = two_planes_ideal()
    F = groebner_poly(I, 1, ())
    assert F == T([((1, 0, 1, 0), 0), ((1, 0, 0, 1), 0),
                   ((0, 1, 1, 0), 0), ((0, 1, 0, 1), 0)], 4)
    G = groebner_poly(I, 1, (0, 1))
    assert G == T([((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0)], 4)


def test_groebner_poly_merges_equal_exponents_by_min():
    # the point (0, 3): degree-2 bases are singletons with values 0, 3, 6
    I = point_ideal((Trop(0), Trop(3)), 2)
    F = groebner_poly(I, 2, ())
    # exponents: (1,3) from x0^2, (2,2) from x0x1, (3,1) from x1^2
    assert F == T([((1, 3), 0), ((2, 2), 3), ((3, 1), 6)], 2)


# groebner_complex ------------------------------------------------------------------


def test_groebner_complex_two_planes_nine_classes():
    G = groebner_complex(two_planes_ideal())
    cells = G.strata[frozenset()]
    assert len(cells) == 9
    assert len({gc.fingerprint for gc in cells}) == 9


def test_groebner_complex_point_ideal_sign_cells():
    G = groebner_complex(point_ideal((Trop(0), Trop(0)), 2))
    cells = G.strata[frozenset()]
    assert len(cells) == 3
    dims = sorted(c.cell.dim() for c in cells)
    assert dims == [1, 2, 2]
    in_v = [c for c in cells if c.in_variety]
    assert len(in_v) == 1 and in_v[0].cell.dim() == 1


def test_groebner_complex_unit_ideal():
    G = groebner_complex(unit_ideal())
    for sigma, gcs in G.strata.items():
        assert len(gcs) == 1
        assert not gcs[0].in_variety


def test_fingerprint_ranks_match_hilbert():
    I = line_ideal(2)
    G = groebner_complex(I)
    for sigma, gc in G.all_cells():
        if sigma == frozenset(range(3)):
            continue
        if sigma:
            continue  # rank drop only guaranteed on the finite stratum
        for d, layer in enumerate(gc.fingerprint):
            rank = bin(next(iter(layer))).count("1")
            assert rank == I.hilbert(d)


def other_interior_point(cell):
    """A relative-interior point besides the relint point p.

    It is the midpoint of p and a point of the closed cell on its first
    satisfiable row, interior by convexity.  A cell without inequality rows
    gets p shifted along the all-ones direction instead: every row of a
    homogeneous ideal's cell sums to 0, so the shift keeps p in the cell.
    """
    p = cell.relint_point()
    m = len(cell.free)
    for i, row in enumerate(cell.ineqs):
        q = fm_solve(m, cell.eqs + (row,), cell.ineqs[:i] + cell.ineqs[i + 1:])
        if q is not None and q != p:
            return tuple((a + b) / 2 for a, b in zip(p, q))
    return tuple(x + 2 for x in p)


def test_witness_stability_on_cells():
    I = line_ideal(2)
    G = groebner_complex(I)
    checked = 0
    for sigma, gc in G.all_cells():
        other = other_interior_point(gc.cell)
        if other == gc.cell.relint_point():
            continue  # the all-infinite point has no free coordinate
        assert contains_by_fractions(gc.cell, other, relint=True)
        checked += 1
        coords = dict(zip(gc.cell.free, other))
        w = tuple(INF if i in sigma else Trop(coords[i]) for i in range(3))
        layers = initial_ideal(I, w).layers
        assert tuple(frozenset(M.basis_masks()) for M in layers) == gc.fingerprint
    assert checked == G.cell_count() - 1


def assert_fingerprints_match_initial_bases(I):
    """Oracle: each cell's label-read fingerprint and in_variety against the
    initial matroids that initial_layers_by_label_sets builds at the cell's
    witness by contracting on ground labels."""
    G = groebner_complex(I)
    for sigma, gc in G.all_cells():
        layers = initial_layers_by_label_sets(I, gc.witness)
        want = tuple(frozenset(N.basis_masks()) for N in layers)
        assert gc.fingerprint == want, (sorted(sigma), gc.cell.label)
        assert gc.in_variety == (not any(N.loops() for N in layers))


@pytest.mark.parametrize("D", [2, 3, 4])
def test_fingerprints_match_initial_bases_on_towers(D):
    assert_fingerprints_match_initial_bases(nonrealizable_ideal(2, D))


# points in 2 or 3 coordinates, inf and fractions with denominators up to 3 included
points = st.integers(2, 3).flatmap(lambda nv: st.lists(
    st.one_of(st.just(INF), st.builds(Trop, st.builds(Fraction, st.integers(-6, 6),
                                                      st.integers(1, 3)))),
    min_size=nv, max_size=nv).filter(lambda a: not all(x.is_inf for x in a)))


@settings(max_examples=25, deadline=None)
@given(points, st.integers(0, 4))
def test_fingerprints_match_initial_bases_on_point_ideals(a, D):
    assert_fingerprints_match_initial_bases(point_ideal(tuple(a), D))


@st.composite
def small_classical_inputs(draw, primes=(2, 5)):
    """One or two homogeneous generators in three variables, p-adic for a p in primes."""
    deg = draw(st.integers(1, 2))
    monos = [u for u in itertools.product(range(deg + 1), repeat=3) if sum(u) == deg]
    coeff = st.sampled_from([1, -1, 2, -3, 4, 5, 10, 25])
    gens = []
    for _ in range(draw(st.integers(1, 1 if deg == 2 else 2))):
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        gens.append(QPoly(3, {u: draw(coeff) for u in support}))
    return ClassicalInput(tuple(gens), Valuation("padic", draw(st.sampled_from(primes)))), deg


@settings(max_examples=15, deadline=None)
@given(small_classical_inputs(), st.integers(0, 1))
def test_fingerprints_match_initial_bases_on_tropicalized_inputs(case, extra):
    inp, deg = case
    assert_fingerprints_match_initial_bases(tropicalize(inp, deg + extra))


@st.composite
def stratum_oracle_ideals(draw):
    """A point ideal, a divisibility tower or a 5-adic tropicalization."""
    kind = draw(st.sampled_from(["point", "tower", "padic"]))
    if kind == "point":
        return point_ideal(tuple(draw(points)), draw(st.integers(0, 3)))
    if kind == "tower":
        return nonrealizable_ideal(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2)])))
    inp, deg = draw(small_classical_inputs(primes=(5,)))
    return tropicalize(inp, deg + draw(st.integers(0, 1)))


@settings(max_examples=40, deadline=None)
@given(stratum_oracle_ideals())
@example(point_ideal((Trop(0), Trop(Fraction(1, 2)), INF), 3))  # den 2, B_S smaller than S
@example(nonrealizable_ideal(2, 3))
def test_groebner_poly_matches_contraction(I):
    for d in range(I.degree_bound + 1):
        for size in range(I.num_vars + 1):
            for sigma in itertools.combinations(range(I.num_vars), size):
                assert groebner_poly(I, d, sigma) == stratum_poly_by_contraction(I, d, sigma)


def test_full_dimensional_cells_have_monomial_fingerprints():
    for I in (line_ideal(2), point_ideal((Trop(0), Trop(1), Trop(2)), 2)):
        G = groebner_complex(I)
        for sigma, gc in G.all_cells():
            free_dim = I.num_vars - len(sigma)
            if gc.cell.dim() == free_dim:
                for layer in gc.fingerprint:
                    assert len(layer) == 1


# variety ---------------------------------------------------------------------------


def test_variety_of_point_ideal_is_single_projective_point():
    I = point_ideal((Trop(0), Trop(0), Trop(0)), 2)
    V = variety(groebner_complex(I), "projective")
    hits = V.in_variety_cells()
    assert V.ideal is I and len(hits) == 1
    sigma, gc = hits[0]
    assert sigma == frozenset()
    assert gc.cell.dim() == 0
    coords = weight_to_cell_coords(gc.cell, (Trop(0), Trop(0), Trop(0)), quotiented=True)
    assert coords is not None and gc.cell.contains_closed(coords)


def test_variety_of_unit_ideal_is_empty():
    V = variety(groebner_complex(unit_ideal()), "projective")
    assert V.in_variety_cells() == []


def test_variety_of_divisibility_tower_is_tropical_line():
    I = nonrealizable_ideal(2, 3)
    V = variety(groebner_complex(I), "projective")
    by_sigma = {}
    for sigma, gc in V.in_variety_cells():
        by_sigma.setdefault(sigma, []).append(gc)
    # torus part: one vertex and three rays
    torus = by_sigma[frozenset()]
    assert sorted(gc.cell.dim() for gc in torus) == [0, 1, 1, 1]
    vertex = [gc for gc in torus if gc.cell.dim() == 0][0]
    origin = (Trop(0), Trop(0), Trop(0))
    assert vertex.cell.contains_closed(weight_to_cell_coords(vertex.cell, origin, True))
    # each ray contains the weight with a single raised coordinate
    for i in range(3):
        w = tuple(Trop(5 if j == i else 0) for j in range(3))
        hit = [gc for gc in torus if gc.cell.dim() == 1 and gc.cell.contains_closed(
            weight_to_cell_coords(gc.cell, w, True))]
        assert len(hit) == 1
    # boundary strata: a single point each at the coordinate vertices of the plane
    for i in range(3):
        cells = by_sigma[frozenset({i})]
        assert len(cells) == 1 and cells[0].cell.dim() == 0
    for pair in itertools.combinations(range(3), 2):
        assert frozenset(pair) not in by_sigma
    assert frozenset({0, 1, 2}) not in by_sigma


def test_variety_supports_equal_line_vs_tower():
    V1 = variety(groebner_complex(nonrealizable_ideal(2, 3)), "projective")
    V2 = variety(groebner_complex(line_ideal(3)), "projective")
    assert variety_supports_equal(V1, V2)
    V3 = variety(groebner_complex(point_ideal((Trop(0), Trop(0), Trop(0)), 3)), "projective")
    assert not variety_supports_equal(V1, V3)


def test_variety_monotone_in_truncation():
    rng = random.Random(53)
    V3 = variety(groebner_complex(nonrealizable_ideal(2, 3)), "projective")
    V2 = variety(groebner_complex(nonrealizable_ideal(2, 2)), "projective")
    # support at D=3 is contained in support at D=2 (more constraints, smaller variety)
    for sigma, gc in V3.in_variety_cells():
        p = gc.cell.relint_point()
        hit = [g for g in V2.strata[sigma]
               if g.in_variety and g.cell.contains_closed(p)]
        assert hit


def test_variety_crosscheck_by_circuit_sampling():
    rng = random.Random(59)
    I = nonrealizable_ideal(2, 2)
    V = variety(groebner_complex(I), "affine")
    all_circuits = {d: circuits(I.layers[d]) for d in range(3)}
    grounds = {d: I.layers[d].ground for d in range(3)}
    for trial in range(500):
        sigma = frozenset(s for s in range(3) if rng.random() < 0.25)
        if len(sigma) == 3:
            sigma = frozenset()
        w = tuple(INF if i in sigma else
                  Trop(Fraction(rng.randint(-8, 8), rng.randint(1, 3))) for i in range(3))
        vanishes = True
        for d in range(3):
            for H in all_circuits[d]:
                f = TropPoly(3, {u: H[i] for i, u in enumerate(grounds[d])})
                if not f.min_twice(w):
                    vanishes = False
                    break
            if not vanishes:
                break
        in_cell = False
        for s, gc in V.all_cells():
            if not gc.in_variety or s != sigma:
                continue
            coords = weight_to_cell_coords(gc.cell, w, quotiented=False)
            if coords is not None and gc.cell.contains_closed(coords):
                in_cell = True
                break
        assert vanishes == in_cell, (w, vanishes, in_cell)


def test_boundary_condition_on_sampled_limits():
    # pushing the relative interior of a finite-stratum cell to infinity in
    # the sigma coordinates lands inside some single cell of the sigma stratum
    for I in (line_ideal(2), point_ideal((Trop(0), Trop(1), Trop(3)), 2)):
        G = groebner_complex(I)
        for gc in G.strata[frozenset()]:
            p = gc.cell.relint_point()
            for sigma in ({0}, {1}, {0, 2}):
                limit = tuple(INF if i in sigma else Trop(p[i]) for i in range(3))
                holders = []
                for other in G.strata[frozenset(sigma)]:
                    coords = weight_to_cell_coords(other.cell, limit, quotiented=False)
                    if coords is not None and other.cell.contains_closed(coords):
                        holders.append(other)
                assert holders
                in_relint = [o for o in holders if contains_by_fractions(
                    o.cell, weight_to_cell_coords(o.cell, limit, quotiented=False), relint=True)]
                assert len(in_relint) == 1


# tropical bases --------------------------------------------------------------------


def test_tropical_basis_of_line():
    basis = tropical_basis(groebner_complex(line_ideal()))
    assert basis == [T([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3)]


def test_tropical_basis_of_point():
    basis = tropical_basis(groebner_complex(point_ideal((Trop(0), Trop(0)), 1)))
    assert basis == [T([((1, 0), 0), ((0, 1), 0)], 2)]


def test_tropical_basis_of_tower_contains_line():
    basis = tropical_basis(groebner_complex(nonrealizable_ideal(2, 3)))
    line = T([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3)
    assert line in basis


def test_tropical_basis_cuts_out_variety_on_samples():
    rng = random.Random(61)
    I = point_ideal((Trop(0), Trop(2)), 2)
    G = groebner_complex(I)
    basis = tropical_basis(G)
    V = variety(G, "affine")
    for _ in range(300):
        sigma = frozenset(s for s in range(2) if rng.random() < 0.2)
        if len(sigma) == 2:
            sigma = frozenset()
        w = tuple(INF if i in sigma else
                  Trop(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for i in range(2))
        on_all = all(f.min_twice(w) for f in basis)
        in_cell = any(
            gc.in_variety and s == sigma and
            gc.cell.contains_closed(weight_to_cell_coords(gc.cell, w, False))
            for s, gc in V.all_cells()
            if weight_to_cell_coords(gc.cell, w, False) is not None)
        assert on_all == in_cell


def test_tropical_basis_polynomials_belong_to_ideal():
    from tropideal.ideals import contains
    I = nonrealizable_ideal(2, 2)
    for f in tropical_basis(groebner_complex(I)):
        assert contains(I, f)


# nullstellensatz -------------------------------------------------------------------


def test_nullstellensatz_unit():
    cert = nullstellensatz(unit_ideal())
    assert cert.kind == "unit" and cert.degree == 0


def test_nullstellensatz_point_witness():
    I = point_ideal((Trop(0), Trop(0), Trop(0)), 2)
    cert = nullstellensatz(I)
    assert cert.kind == "nonempty"
    assert cert.witness_sigma == frozenset()
    coords = weight_to_cell_coords(cert.witness_cell.cell,
                                   (Trop(0), Trop(0), Trop(0)), quotiented=True)
    assert cert.witness_cell.cell.contains_closed(coords)


def test_nullstellensatz_hyperplane_witness():
    g = QPoly(2, {(1, 0): 1, (0, 1): -1})
    I = tropicalize(ClassicalInput((g,), Valuation("trivial")), 2)
    cert = nullstellensatz(I)
    assert cert.kind == "nonempty"
    cell = cert.witness_cell.cell
    # the witness cell is the diagonal w0 = w1
    coords = weight_to_cell_coords(cell, (Trop(7), Trop(7)), quotiented=True)
    assert cell.contains_closed(coords)
    coords = weight_to_cell_coords(cell, (Trop(1), Trop(0)), quotiented=True)
    assert not cell.contains_closed(coords)


def test_nullstellensatz_inconclusive_then_unit():
    g1 = QPoly(2, {(2, 0): 1})
    g2 = QPoly(2, {(0, 2): 1})
    inp = ClassicalInput((g1, g2), Valuation("trivial"))
    assert nullstellensatz(tropicalize(inp, 2)).kind == "inconclusive"
    cert = nullstellensatz(tropicalize(inp, 3))
    assert cert.kind == "unit" and cert.degree == 3


def test_nullstellensatz_branches_are_exclusive():
    for I in (unit_ideal(), point_ideal((Trop(0), Trop(0)), 2), line_ideal(2)):
        cert = nullstellensatz(I)
        V = variety(groebner_complex(I), "projective")
        if cert.kind == "unit":
            assert V.in_variety_cells() == []
        if cert.kind == "nonempty":
            assert V.in_variety_cells()
