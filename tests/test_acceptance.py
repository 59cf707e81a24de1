"""Acceptance suite: one test per criterion, run with `pytest -v -s`.

Each test prints a single PASS line when its criterion holds at the stated
tolerance (all criteria here are exact or counting-based; nothing is
deferred to later calibration).
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropideal.groebner import (groebner_complex, groebner_poly,
                                nullstellensatz, tropical_basis, variety,
                                variety_supports_equal)
from tropideal.ideals import (ClassicalInput, QPoly, TruncIdeal, Valuation,
                              check_compatibility, compare, contains,
                              initial_ideal, nonrealizable_ideal, point_ideal,
                              tropicalize)
from tropideal.matroids import (VMatroid, check_valuated_exchange,
                                circuit_elimination_witness, circuits,
                                is_vector, vector_elimination_witness)
from tropideal.monomials import monomials_of_degree
from tropideal.polynomials import (TropPoly, least_coefficients,
                                   poly_from_roots, tropical_roots)
from tropideal.semiring import INF, Trop

from oracles import weight_to_cell_coords


def report(k, text):
    print("\nACCEPTANCE %2d: PASS - %s" % (k, text))


def T(pairs, nvars):
    return TropPoly(nvars, {u: Trop(c) for u, c in pairs})


# Shared expensive objects -----------------------------------------------------------


@pytest.fixture(scope="module")
def tower4():
    return nonrealizable_ideal(2, 4)


@pytest.fixture(scope="module")
def tower4_complex(tower4):
    return groebner_complex(tower4)


def line_ideal(D):
    g = QPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    return tropicalize(ClassicalInput((g,), Valuation("trivial")), D)


@pytest.fixture(scope="module")
def example_2_7():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    g = QPoly(3, {x: 1, y: 1, z: 1}) * QPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    gp = QPoly(3, {x: 1, y: 1}) * QPoly(3, {x: 1, z: 1}) * QPoly(3, {y: 1, z: 1})
    I = tropicalize(ClassicalInput((g,), Valuation("trivial")), 4)
    Ip = tropicalize(ClassicalInput((gp,), Valuation("trivial")), 4)
    f = (gp * QPoly(3, {x: 1, y: -1, z: -1})).trop(Valuation("trivial"))
    return I, Ip, f


def macaulay_rank(gens, d):
    """Independent oracle: exact rank of the degree-d Macaulay matrix."""
    nv = gens[0].num_vars
    cols = monomials_of_degree(nv, d)
    index = {u: i for i, u in enumerate(cols)}
    rows = []
    for g in gens:
        dg = g.degree()
        if dg > d:
            continue
        for u in monomials_of_degree(nv, d - dg):
            shifted = g.times_monomial(u)
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


# 1 -----------------------------------------------------------------------------------


def test_criterion_01_nonrealizable_tower(tower4):
    I = tower4
    for d in range(5):
        assert check_valuated_exchange(I.layers[d]) is None
    assert check_compatibility(I) is None
    assert (Trop(0), Trop(0), Trop(0)) in circuits(I.layers[1])
    cubes = frozenset({(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)})
    assert not I.layers[3].value(cubes).is_inf  # independent: it is a basis
    report(1, "divisibility tower at D=4: exchange, compatibility, line circuit, "
              "independent cubes")


# 2 -----------------------------------------------------------------------------------


def test_criterion_02_variety_is_tropical_line(tower4, tower4_complex):
    V = variety(tower4_complex, "projective")
    by_sigma = {}
    for sigma, gc in V.in_variety_cells():
        by_sigma.setdefault(sigma, []).append(gc)
    torus = by_sigma[frozenset()]
    assert sorted(gc.cell.dim() for gc in torus) == [0, 1, 1, 1]
    origin = (Trop(0), Trop(0), Trop(0))
    vertex = next(gc for gc in torus if gc.cell.dim() == 0)
    vcoord = weight_to_cell_coords(vertex.cell, origin, True)
    assert vertex.cell.contains_closed(vcoord)
    rays = [gc for gc in torus if gc.cell.dim() == 1]
    for gc in rays:
        # the rays meet at the vertex
        assert gc.cell.contains_closed(vcoord)
    for i in range(3):
        w = tuple(Trop(7 if j == i else 0) for j in range(3))
        assert sum(1 for gc in rays
                   if gc.cell.contains_closed(weight_to_cell_coords(gc.cell, w, True))) == 1
    for i in range(3):
        assert [gc.cell.dim() for gc in by_sigma[frozenset({i})]] == [0]
    for pair in itertools.combinations(range(3), 2):
        assert frozenset(pair) not in by_sigma
    # exact cellwise support comparison against the linear ideal's variety
    assert variety_supports_equal(V, variety(groebner_complex(line_ideal(3)), "projective"))
    basis = tropical_basis(tower4_complex)
    assert T([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3) in basis
    report(2, "projective variety = standard tropical line (vertex, 3 rays, 3 boundary "
              "points); basis contains x0+x1+x2")


# 3 -----------------------------------------------------------------------------------


def test_criterion_03_same_variety_different_ideals(example_2_7):
    I, Ip, f = example_2_7
    rep = compare(I, Ip)
    assert rep.equal_through_degree == 3
    assert rep.first_difference == 4
    assert rep.relation == "incomparable"
    assert contains(Ip, f)
    assert not contains(I, f)
    V1 = variety(groebner_complex(I), "projective")
    V2 = variety(groebner_complex(Ip), "projective")
    assert variety_supports_equal(V1, V2)
    report(3, "cubic ideals agree through degree 3, split at 4 on the witness "
              "polynomial, varieties coincide cellwise")


# 4 -----------------------------------------------------------------------------------


def test_criterion_04_stratum_polynomials_and_classes():
    g1 = QPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    g2 = QPoly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1})
    I = tropicalize(ClassicalInput((g1, g2), Valuation("trivial")), 1)
    F = groebner_poly(I, 1, ())
    assert F == T([((1, 0, 1, 0), 0), ((1, 0, 0, 1), 0),
                   ((0, 1, 1, 0), 0), ((0, 1, 0, 1), 0)], 4)
    G01 = groebner_poly(I, 1, (0, 1))
    assert G01 == T([((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0)], 4)
    G = groebner_complex(I)
    assert len(G.strata[frozenset()]) == 9
    assert len({gc.fingerprint for gc in G.strata[frozenset()]}) == 9
    report(4, "stratum polynomials match and the finite stratum splits into 9 "
              "fingerprint classes")


# 5 -----------------------------------------------------------------------------------


def test_criterion_05_dependence_only_at_n():
    for n in (2, 3):
        def family(lam):
            g1 = QPoly(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1})
            g2 = QPoly(4, {(0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -lam})
            return ClassicalInput((g1, g2), Valuation("trivial"))

        X = [(n, 0, 0, 0), (0, 1, n - 1, 0)]
        X += [(0, 0, n - k, k) for k in range(2, n + 1)]
        assert len(X) == n + 1
        for lam in (n - 1, n, n + 1):
            I = tropicalize(family(lam), n)
            dependent = I.layers[n].value(frozenset(X)).is_inf
            assert dependent == (lam == n)
            for d in range(n + 1):
                assert I.hilbert(d) == d + 1
    report(5, "monomial set dependent exactly at lambda = n for n in {2, 3}; "
              "Hilbert function d+1 throughout")


# 6 -----------------------------------------------------------------------------------


def random_small_inputs(rng):
    """Five linear and five principal ideals, alternating valuations."""
    out = []
    while len(out) < 5:
        nv = rng.choice((2, 3))
        forms = []
        for _ in range(rng.randint(1, 2)):
            coeffs = {}
            for i in range(nv):
                c = rng.randint(-4, 4) * rng.choice((1, 1, 5))
                if c:
                    coeffs[tuple(1 if j == i else 0 for j in range(nv))] = c
            if coeffs:
                forms.append(QPoly(nv, coeffs))
        if not forms:
            continue
        val = Valuation("padic", 5) if len(out) % 2 else Valuation("trivial")
        out.append(ClassicalInput(tuple(forms), val))
    while len(out) < 10:
        nv = rng.choice((2, 3))
        coeffs = {}
        for u in monomials_of_degree(nv, 2):
            c = rng.randint(-4, 4) * rng.choice((1, 1, 25))
            if c and rng.random() < 0.8:
                coeffs[u] = c
        if not coeffs:
            continue
        val = Valuation("padic", 5) if len(out) % 2 else Valuation("trivial")
        out.append(ClassicalInput((QPoly(nv, coeffs),), val))
    return out


def test_criterion_06_hilbert_preservation_and_initial_invariance():
    rng = random.Random(60606)
    inputs = random_small_inputs(rng)
    assert len(inputs) == 10
    weights_checked = 0
    for inp in inputs:
        I = tropicalize(inp, 3)
        for d in range(4):
            corank = len(monomials_of_degree(inp.num_vars, d)) - macaulay_rank(
                list(inp.generators), d)
            assert I.hilbert(d) == corank
        for _ in range(2):
            w = tuple(Trop(rng.randint(-50, 50)) for _ in range(inp.num_vars))
            J = initial_ideal(I, w)
            for d in range(4):
                assert J.hilbert(d) == I.hilbert(d)
            weights_checked += 1
    assert weights_checked == 20
    report(6, "10 random ideals: Hilbert = Macaulay corank for d <= 3 and invariant "
              "under 20 weight degenerations")


# 7 -----------------------------------------------------------------------------------


def monomialization_ideals():
    g1 = QPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    g2 = QPoly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1})
    return [
        line_ideal(2),
        point_ideal((Trop(0), Trop(3)), 2),
        nonrealizable_ideal(2, 2),
        tropicalize(ClassicalInput((g1, g2), Valuation("trivial")), 1),
    ]


def test_criterion_07_generic_monomialization():
    rng = random.Random(70707)
    box = 10 ** 6
    for I in monomialization_ideals():
        monomial_count = 0
        for _ in range(100):
            w = tuple(Trop(rng.randint(-box, box)) for _ in range(I.num_vars))
            J = initial_ideal(I, w)
            if all(len(M.basis_masks()) == 1 for M in J.layers):
                monomial_count += 1
        assert monomial_count >= 95, monomial_count
        G = groebner_complex(I)
        for sigma, gc in G.all_cells():
            if gc.cell.dim() == I.num_vars - len(sigma):
                assert all(len(layer) == 1 for layer in gc.fingerprint)
    report(7, ">=95/100 random integer weights give monomial degenerations; every "
              "full-dimensional cell has a monomial fingerprint")


# 8 -----------------------------------------------------------------------------------


def test_criterion_08_univariate_suite():
    f = T([((2,), 0), ((1,), 7), ((0,), 1)], 1)
    assert least_coefficients(f) == T([((2,), 0), ((1,), Fraction(1, 2)), ((0,), 1)], 1)
    rng = random.Random(80808)
    for _ in range(200):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        poly = TropPoly(1, {(e,): Trop(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                            for e in exps})
        g = least_coefficients(poly)
        assert g * poly == g * g
        roots = tropical_roots(poly)
        rebuilt = poly_from_roots(poly.coeff((max(exps),)), roots, x_power=min(exps))
        assert rebuilt == g
    report(8, "least coefficients exact on the reference polynomial; g*f = g*g and "
              "root re-expansion exact on 200 random inputs")


# 9 -----------------------------------------------------------------------------------


def test_criterion_09_nullstellensatz():
    one = tropicalize(ClassicalInput((QPoly(3, {(0, 0, 0): 1}),), Valuation("trivial")), 1)
    cert = nullstellensatz(one)
    assert cert.kind == "unit" and cert.degree == 0

    points = [(Trop(0), Trop(0), Trop(0)), (Trop(0), INF, Trop(3))]
    ideals = [one]
    for a in points:
        I = point_ideal(a, 2)
        ideals.append(I)
        cert = nullstellensatz(I)
        assert cert.kind == "nonempty"
        coords = weight_to_cell_coords(cert.witness_cell.cell, a, quotiented=True)
        assert coords is not None and cert.witness_cell.cell.contains_closed(coords)

    ideals.append(line_ideal(2))
    for I in ideals:
        cert = nullstellensatz(I)
        has_unit_degree = any(
            len(M.basis_masks()) == 1 and M.rank == 0 for M in I.layers)
        has_variety_cell = bool(variety(groebner_complex(I), "projective").in_variety_cells())
        assert not (has_unit_degree and has_variety_cell)
        assert (cert.kind == "unit") == has_unit_degree
        assert (cert.kind == "nonempty") == has_variety_cell
    report(9, "unit certificate for the unit ideal; point ideals yield witness cells "
              "containing their points; branches mutually exclusive")


# 10 ----------------------------------------------------------------------------------


def _mutations(I):
    """Every single-basis-valuation edit of every positive-degree layer."""
    for d in range(1, I.degree_bound + 1):
        M = I.layers[d]
        for mask, v in M.valuation_items():
            for change in ("bump", "drop"):
                val = dict(M.valuation_items())
                if change == "bump":
                    val[mask] = v + 1
                else:
                    del val[mask]
                yield d, mask, change, val


def _detected(I, d, val):
    from tropideal.errors import TropidealError
    try:
        mutated_layer = VMatroid(I.layers[d].ground, I.layers[d].rank, val)
        layers = list(I.layers)
        layers[d] = mutated_layer
        J = TruncIdeal(I.num_vars, layers, mode=I.mode)
    except TropidealError:
        return True
    if check_valuated_exchange(J.layers[d]) is not None:
        return True
    if any(J.hilbert(e) != I.hilbert(e) for e in range(I.degree_bound + 1)):
        return True
    if check_compatibility(J) is not None:
        return True
    try:
        return compare(I, J).relation != "equal"
    except TropidealError:
        return True


def test_criterion_10_layer_rigidity():
    g = QPoly(2, {(1, 0): 1, (0, 1): 1})
    cases = [point_ideal((Trop(0), Trop(3)), 2),
             tropicalize(ClassicalInput((g,), Valuation("trivial")), 2)]
    mutation_count = 0
    for I in cases:
        J = TruncIdeal(I.num_vars, list(I.layers), mode=I.mode)
        rep = compare(I, J)
        assert rep.relation == "equal"
        assert rep.hilbert_left == rep.hilbert_right
        for d, mask, change, val in _mutations(I):
            assert _detected(I, d, val), (d, mask, change)
            mutation_count += 1
    assert mutation_count >= 20
    report(10, "equal towers compare equal; all %d single-valuation mutations "
               "detected" % mutation_count)


# 11 ----------------------------------------------------------------------------------


def elimination_ideals():
    g = QPoly(2, {(1, 0): 1, (0, 1): 1})
    return [
        point_ideal((Trop(0), Trop(3)), 3),
        tropicalize(ClassicalInput((g,), Valuation("trivial")), 3),
        point_ideal((Trop(0), INF, Trop(1)), 2),
        nonrealizable_ideal(2, 2),
        line_ideal(2),
    ]


def test_criterion_11_elimination_axioms():
    circuit_checks = vector_checks = 0
    for I in elimination_ideals():
        assert I.degree_bound <= 3
        for d in range(I.degree_bound + 1):
            M = I.layers[d]
            cs = circuits(M)
            n = len(M.ground)
            for G, H0 in itertools.product(cs, cs):
                for e in range(n):
                    if G[e].is_inf or H0[e].is_inf:
                        continue
                    lam = Trop(G[e].value - H0[e].value)
                    H = tuple(lam * c for c in H0)
                    for ep in range(n):
                        if not G[ep] < H[ep]:
                            continue
                        F = circuit_elimination_witness(cs, G, H, e, ep)
                        assert F is not None
                        assert F[e].is_inf and F[ep] == G[ep]
                        assert all(F[i] >= min(G[i], H[i]) for i in range(n))
                        circuit_checks += 1
                    if G != H:
                        F = vector_elimination_witness(M, G, H, e, circuit_list=cs)
                        assert F is not None and F[e].is_inf
                        assert is_vector(M, F)
                        vector_checks += 1
    assert circuit_checks > 100 and vector_checks > 100
    report(11, "circuit elimination on %d aligned pairs and vector elimination on %d "
               "pairs, all witnessed" % (circuit_checks, vector_checks))


# 12 ----------------------------------------------------------------------------------


def test_criterion_12_point_variety_at_degree_five():
    a = (Trop(0), Trop(Fraction(3, 2)), Trop(-2))
    V = variety(groebner_complex(point_ideal(a, 5)), "projective")
    cells = V.in_variety_cells()
    assert len(cells) == 1
    sigma, gc = cells[0]
    assert sigma == frozenset() and gc.cell.dim() == 0
    # the witness is the point up to the all-ones line
    assert len({w.value - x.value for w, x in zip(gc.witness, a)}) == 1
    report(12, "the D=5 point ideal's projective variety is the single cell at its point, "
               "among %d cells" % V.cell_count())
