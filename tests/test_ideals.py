import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropideal import monomials as mon
from tropideal.config import Budget
from tropideal.errors import InputError, OutOfRangeError, SizeGuardError
from tropideal.ideals import (ClassicalInput, CompatibilityWitness, QPoly,
                              TruncIdeal, Valuation, check_compatibility,
                              compare, contains, initial_ideal,
                              nonrealizable_ideal, point_ideal, tropicalize)
from tropideal.ideals import _layer_from_row_space
from tropideal.linalg import echelon
from tropideal.matroids import VMatroid, check_valuated_exchange, circuits, is_vector
from tropideal.monomials import monomials_of_degree
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop

from oracles import (boolean_image, charged, circuit_supports, initial_layers_by_label_sets,
                     loops, macaulay_rank, trop, valuation_of)


# Test-local oracles ---------------------------------------------------------------


def is_cycle(M, subset):
    """Whether subset is a union of circuit supports of M."""
    inside = [C for C in circuit_supports(M) if C <= subset]
    return frozenset().union(*inside) == frozenset(subset)


def compatible_by_circuit_push(I):
    """Oracle: x_i times every circuit of M_d must be a vector of M_{d+1}."""
    for d in range(I.degree_bound):
        nxt = I.layers[d + 1]
        order = {u: i for i, u in enumerate(nxt.ground)}
        for i in range(I.num_vars):
            for H in circuits(I.layers[d]):
                coords = {u: INF for u in nxt.ground}
                for j, u in enumerate(I.layers[d].ground):
                    shifted = u[:i] + (u[i] + 1,) + u[i + 1:]
                    coords[shifted] = H[j]
                vec = tuple(coords[u] for u in nxt.ground)
                if not is_vector(nxt, vec):
                    return False
    return True


def compatibility_by_product(I):
    """Oracle: the full scan of every x_i, (r_d+1)-set U and (r_{d+1}-1)-set V."""
    for d in range(I.degree_bound):
        Md, Mn = I.layers[d], I.layers[d + 1]
        gd, gn = Md.ground, Mn.ground
        index = {u: j for j, u in enumerate(gn)}
        if Md.rank + 1 > len(gd) or Mn.rank < 1:
            continue
        for i in range(I.num_vars):
            for U in itertools.combinations(range(len(gd)), Md.rank + 1):
                umask = sum(1 << j for j in U)
                for V in itertools.combinations(range(len(gn)), Mn.rank - 1):
                    vmask = sum(1 << j for j in V)
                    totals = []
                    for j in U:
                        t = index[gd[j][:i] + (gd[j][i] + 1,) + gd[j][i + 1:]]
                        pd = Md.value_mask(umask ^ (1 << j))
                        pn = Mn.value_mask(vmask | (1 << t))
                        if t not in V and pd is not None and pn is not None:
                            totals.append(pd + pn)
                    if totals and totals.count(min(totals)) < 2:
                        return CompatibilityWitness(d, i, tuple(gd[j] for j in U),
                                                    tuple(gn[j] for j in V))
    return None


def linear_x_plus_y():
    return ClassicalInput((QPoly(2, {(1, 0): 1, (0, 1): 1}),), Valuation("trivial"))


# tropicalize ---------------------------------------------------------------------


def test_tropicalize_x_plus_y():
    I = tropicalize(linear_x_plus_y(), 2)
    assert I.hilbert(0) == 1 and I.hilbert(1) == 1 and I.hilbert(2) == 1
    M1 = I.layers[1]
    assert M1.rank == 1
    assert M1.value(frozenset({(1, 0)})) == Trop(0)
    assert M1.value(frozenset({(0, 1)})) == Trop(0)
    M2 = I.layers[2]
    assert M2.rank == 1
    for u in monomials_of_degree(2, 2):
        assert M2.value(frozenset({u})) == Trop(0)


def test_tropicalize_unit_ideal():
    one = ClassicalInput((QPoly(2, {(0, 0): 1}),), Valuation("trivial"))
    I = tropicalize(one, 1)
    for d in range(2):
        assert I.hilbert(d) == 0
        assert loops(I.layers[d]) == monomials_of_degree(2, d)


def test_tropicalize_rejects_bad_input():
    with pytest.raises(InputError):
        ClassicalInput((QPoly(2, {(1, 0): 1, (0, 0): 1}),), Valuation("trivial"))
    with pytest.raises(InputError):
        Valuation("padic", 6)
    with pytest.raises(InputError):
        ClassicalInput((QPoly(2, {}),), Valuation("trivial"))


def lambda_family(lam, nv=4):
    # <x - z - w, y - z - lam*w> in variables x, y, z, w
    g1 = QPoly(nv, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1})
    g2 = QPoly(nv, {(0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -lam})
    return ClassicalInput((g1, g2), Valuation("trivial"))


def test_lambda_family_dependence_at_two():
    X = [(2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]  # x^2, yz, w^2
    for lam, dependent in ((1, False), (2, True), (3, False)):
        I = tropicalize(lambda_family(lam), 2)
        M2 = I.layers[2]
        assert M2.rank == 3
        is_basis = not M2.value(frozenset(X)).is_inf
        assert is_basis == (not dependent)


def test_lambda_family_hilbert():
    I = tropicalize(lambda_family(2), 3)
    for d in range(4):
        assert I.hilbert(d) == d + 1


# point ideals ---------------------------------------------------------------------


def test_point_ideal_binomial_circuits():
    I = point_ideal((Trop(0), Trop(0)), 2)
    M2 = I.layers[2]
    assert M2.rank == 1
    supports = set()
    for H in circuits(M2):
        assert all(c == Trop(0) or c.is_inf for c in H)
        supports.add(frozenset(i for i, c in enumerate(H) if not c.is_inf))
    assert supports == {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}


def test_point_ideal_with_infinite_coordinate():
    I = point_ideal((Trop(0), INF), 1)
    M1 = I.layers[1]
    assert loops(M1) == [(0, 1)]
    assert M1.bases_as_sets() == [frozenset({(1, 0)})]


def test_point_ideal_valued_circuit():
    I = point_ideal((Trop(0), Trop(3)), 1)
    assert circuits(I.layers[1]) == [(Trop(3), Trop(0))]


def test_point_ideal_rejects_all_infinite():
    with pytest.raises(InputError):
        point_ideal((INF, INF), 1)


def test_point_ideal_charges_each_layer_before_building(monkeypatch):
    # layers of 1, 3 and 6 monomials fit a cap of 10; the 10 monomials of
    # degree 3 are refused before they are listed, whatever D is
    built = []
    listing = mon.monomials_of_degree
    monkeypatch.setattr(mon, "monomials_of_degree",
                        lambda nvars, d: built.append(d) or listing(nvars, d))
    with pytest.raises(SizeGuardError, match="point ideal layer 3"):
        point_ideal((Trop(0), Trop(1), Trop(2)), 10_000, budget=Budget(10))
    assert built == [0, 1, 2]


def test_point_ideal_charges_its_compatibility_check_to_one_budget():
    a, D = (Trop(0), Trop(1), Trop(3)), 3
    I = point_ideal(a, D)
    layers = sum(math.comb(len(a) + d - 1, d) for d in range(D + 1))
    total = layers + charged(check_compatibility, I)[1]
    budget = Budget()
    assert point_ideal(a, D, budget) == I
    assert budget.remaining == budget.cap - total
    point_ideal(a, D, Budget(total))
    with pytest.raises(SizeGuardError, match="compatibility degree 2"):
        point_ideal(a, D, Budget(total - 1))


def test_point_ideal_matches_padic_tropicalization():
    # the ideal of the point (1 : 5) tropicalizes to the ideal of (0, 1)
    J = ClassicalInput((QPoly(2, {(1, 0): 5, (0, 1): -1}),), Valuation("padic", 5))
    assert tropicalize(J, 3).layers == point_ideal((Trop(0), Trop(1)), 3).layers


def laplace_det(rows):
    """Test-local determinant over Fraction by cofactor expansion."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j] != 0)


def principal_layer_by_minors(g, valuation, d):
    """Degree-d layer of <g> from its Macaulay rows, which are independent.

    p(B) is the valuation of the maximal minor on the columns outside B.
    """
    ground = monomials_of_degree(g.num_vars, d)
    rows = []
    for u in monomials_of_degree(g.num_vars, d - g.degree()):
        shifted = (g * QPoly(g.num_vars, {u: 1})).coeffs
        rows.append([shifted.get(v, Fraction(0)) for v in ground])
    corank = len(ground) - len(rows)
    val = {}
    for B in itertools.combinations(range(len(ground)), corank):
        rest = [c for c in range(len(ground)) if c not in B]
        minor = laplace_det([[row[c] for c in rest] for row in rows])
        if minor != 0:
            val[frozenset(ground[i] for i in B)] = valuation_of(valuation, minor)
    return VMatroid(ground, corank, val)


@pytest.mark.parametrize("g", [
    QPoly(2, {(1, 0): 5, (0, 1): 1}),                                  # 5x + y
    QPoly(3, {(1, 0, 0): 25, (0, 1, 0): Fraction(1, 5), (0, 0, 1): 3}),
    QPoly(3, {(2, 0, 0): 5, (1, 1, 0): Fraction(-10, 3), (0, 0, 2): 1}),
])
def test_padic_tropicalize_matches_fraction_minors(g):
    # the pivots of these Macaulay matrices are divisible by 5, so the
    # integer elimination must correct every s x s minor by s * v(d)
    val = Valuation("padic", 5)
    I = tropicalize(ClassicalInput((g,), val), 3)
    for d in range(g.degree(), 4):
        assert I.layers[d] == principal_layer_by_minors(g, val, d)


def layer_by_echelon_minors(ground, pivots, reduced, d, valuation):
    """Reference: one exact elimination per corank-subset B of the ground.

    p(B) is the valuation of the minor of the A-block on the pivot rows in
    B and the free columns outside B, less s * v(d) for an s x s minor.
    """
    N, k = len(ground), len(pivots)
    if k == 0:
        return VMatroid(ground, N, {(1 << N) - 1: 0})
    free = [c for c in range(N) if c not in pivots]
    if not free:
        return VMatroid(ground, 0, {0: 0})
    vd = valuation_of(valuation, Fraction(d)).value
    val = {}
    for B in itertools.combinations(range(N), N - k):
        sub_rows = [i for i, p in enumerate(pivots) if p in B]
        sub_cols = [c for c in free if c not in B]
        mpivots, _, minor = echelon([[reduced[i][c] for c in sub_cols] for i in sub_rows])
        if len(mpivots) == len(sub_rows):
            val[sum(1 << i for i in B)] = (valuation_of(valuation, Fraction(minor)).value
                                           - len(sub_rows) * vd)
    return VMatroid(ground, N - k, val)


@st.composite
def row_spaces(draw):
    """Integer rows, often sparse (zero minors) and often with entries divisible by p."""
    N = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, 5, -5, 10, 25])
    rows = draw(st.lists(st.lists(entry, min_size=N, max_size=N), max_size=6))
    if rows and draw(st.booleans()):  # a dependent row: rank-deficient input
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return N, rows


VALUATIONS = (Valuation(), Valuation("padic", 2), Valuation("padic", 5))


@settings(max_examples=300, deadline=None)
@given(row_spaces(), st.sampled_from(VALUATIONS))
@example((3, []), Valuation())                                         # k = 0
@example((3, [[0, 0, 0]]), Valuation("padic", 2))                      # k = 0
@example((2, [[1, 2], [3, 4]]), Valuation())                           # no free column
@example((4, [[1, 0, 1, 1], [0, 1, 1, 1]]), Valuation())               # a zero 2 x 2 minor
@example((4, [[1, 0, 3, 1], [0, 1, 1, 1]]), Valuation("padic", 2))     # det 2 = 3 - 1
@example((3, [[5, 1, 0], [0, 5, 1]]), Valuation("padic", 5))           # 5 | d
def test_minors_walk_matches_echelon_per_minor(space, valuation):
    N, rows = space
    ground = tuple(range(N))
    pivots, reduced, d = echelon(rows)
    got = _layer_from_row_space(ground, pivots, reduced, d, valuation, Budget())
    want = layer_by_echelon_minors(ground, pivots, reduced, d, valuation)
    assert got == want


def test_minors_walk_budget_charges_before_any_minor(monkeypatch):
    # a 12-element ground with 3 pivots charges comb(12, 9) = 220 before the walk
    import tropideal.ideals as ideals_mod
    walked = []
    monkeypatch.setattr(ideals_mod, "_nonzero_minors",
                        lambda rows: walked.append(rows) or iter(()))
    rows = [[1 if j in (i, i + 3, 11) else 0 for j in range(12)] for i in range(3)]
    pivots, reduced, d = echelon(rows)
    with pytest.raises(SizeGuardError, match="tropicalization minors"):
        _layer_from_row_space(tuple(range(12)), pivots, reduced, d, Valuation(), Budget(219))
    assert walked == []


def test_builders_hold_each_layer_once():
    # the builders stream their (set, value) pairs into VMatroid, which is
    # the only holder of a layer's valuation; a builder that filled a dict
    # of its own for VMatroid to copy would peak near twice what it keeps
    import json
    import tracemalloc
    from pathlib import Path

    from tropideal.jsonio import classical_input_from_json
    path = Path(__file__).parent / "golden" / "inputs" / "example27_g.json"
    g = classical_input_from_json(json.loads(path.read_text()))
    for build in (lambda: tropicalize(g, 5), lambda: nonrealizable_ideal(3, 3)):
        tracemalloc.start()
        try:
            ideal = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * held, (peak, held)
        del ideal


def test_padic_prime_check_is_fast_and_bounded():
    import time
    t0 = time.perf_counter()
    Valuation("padic", 2 ** 61 - 1)
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(InputError):
        Valuation("padic", (2 ** 31 - 1) * (2 ** 61 - 1))
    # the smallest strong pseudoprime to the first 12 prime bases
    with pytest.raises(InputError):
        Valuation("padic", 318665857834031151167461)


def test_is_prime_matches_trial_division():
    from tropideal.ideals import _is_prime

    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 4 + 1) if _is_prime(n)] == \
        [n for n in range(10 ** 4 + 1) if trial(n)]


# the divisibility-valued tower ------------------------------------------------------


def test_nonrealizable_degree_one_uniform():
    I = nonrealizable_ideal(2, 1)
    M1 = I.layers[1]
    assert M1.rank == 2
    assert len(M1.basis_masks()) == 3  # all 2-subsets of the three variables


def test_nonrealizable_divisibility_exclusion():
    I = nonrealizable_ideal(2, 2)
    B = [(2, 0, 0), (1, 1, 0), (1, 0, 1)]  # x0 divides all three
    assert I.layers[2].value(frozenset(B)).is_inf


def test_nonrealizable_independent_cubes():
    I = nonrealizable_ideal(2, 3)
    X = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    assert not I.layers[3].value(frozenset(X)).is_inf


def test_nonrealizable_line_circuit():
    I = nonrealizable_ideal(2, 1)
    assert circuits(I.layers[1]) == [(Trop(0), Trop(0), Trop(0))]


def test_nonrealizable_circuit_description():
    # circuits are minimal sets C with |C| > d - deg(gcd C) + 1
    I = nonrealizable_ideal(2, 3)
    for d in (2, 3):
        ground = I.layers[d].ground

        def too_big(idxs):
            mons = [ground[i] for i in idxs]
            gcd = tuple(min(u[j] for u in mons) for j in range(3))
            return len(mons) > d - sum(gcd) + 1

        expected = set()
        for size in range(2, d + 3):
            for C in itertools.combinations(range(len(ground)), size):
                if not too_big(C):
                    continue
                minimal = True
                for sub_size in range(2, len(C)):
                    if any(too_big(sub) for sub in itertools.combinations(C, sub_size)):
                        minimal = False
                        break
                if minimal:
                    expected.add(frozenset(C))
        got = {frozenset(i for i, c in enumerate(H) if not c.is_inf)
               for H in circuits(I.layers[d])}
        assert got == expected


def test_nonrealizable_rejects_small_n():
    with pytest.raises(InputError):
        nonrealizable_ideal(1, 2)


# compatibility ---------------------------------------------------------------------


def test_compatibility_point_and_nonrealizable():
    assert check_compatibility(point_ideal((Trop(0), Trop(0)), 3)) is None
    assert check_compatibility(nonrealizable_ideal(2, 3)) is None


def test_compatibility_cross_checked_by_circuit_push():
    for I in (point_ideal((Trop(0), Trop(3)), 2), nonrealizable_ideal(2, 2),
              tropicalize(linear_x_plus_y(), 2)):
        assert check_compatibility(I) is None
        assert compatible_by_circuit_push(I)


def test_compatibility_failure_detected():
    # degree-1 layer of <x + y>, degree-2 layer missing the vector x^2 + y^2
    m0 = VMatroid(monomials_of_degree(2, 0), 1, {frozenset({(0, 0)}): 0})
    m1 = VMatroid(monomials_of_degree(2, 1), 1,
                  {frozenset({(1, 0)}): 0, frozenset({(0, 1)}): 0})
    # its one circuit x^2 + x*y: the bases are the complements of x^2 and x*y
    m2 = VMatroid(monomials_of_degree(2, 2), 2,
                  {frozenset({(1, 1), (0, 2)}): 0, frozenset({(2, 0), (0, 2)}): 0})
    broken = TruncIdeal(2, [m0, m1, m2])
    witness = check_compatibility(broken)
    assert witness is not None and witness.degree == 1
    assert not compatible_by_circuit_push(broken)


NONREALIZABLE_2_3 = nonrealizable_ideal(2, 3)


@st.composite
def perturbed_towers(draw):
    """A point ideal or the n=2, D=3 divisibility tower, changed layer by layer.

    Per layer: kept; shifted by a weight on the ground (still a valuated
    matroid, usually no longer compatible); values perturbed by rationals
    with denominators 1-3; or some bases dropped.
    """
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        I = NONREALIZABLE_2_3
    else:
        nv = draw(st.integers(2, 3))
        coords = st.one_of(st.just(INF), st.fractions(-3, 3, max_denominator=3).map(Trop))
        point = draw(st.lists(coords, min_size=nv, max_size=nv)
                     .filter(lambda a: any(not c.is_inf for c in a)))
        I = point_ideal(point, draw(st.integers(2, 3)))

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    layers = []
    for M in I.layers:
        val = dict(M.valuation_items())
        mode = draw(st.sampled_from(["perturb", "shift", "drop", "keep"]))
        if mode == "shift":
            w = [rational() for _ in M.ground]
            val = {m: v + sum(w[i] for i in range(len(w)) if (m >> i) & 1)
                   for m, v in val.items()}
        elif mode == "perturb":
            val = {m: v + rational() if rng.random() < 0.3 else v for m, v in val.items()}
        elif mode == "drop" and len(val) > 1:
            kept = rng.choice(sorted(val))
            val = {m: v for m, v in val.items() if m == kept or rng.random() < 0.7}
        layers.append(VMatroid(M.ground, M.rank, val))
    return TruncIdeal(I.num_vars, layers)


@settings(max_examples=60, deadline=None)
@given(perturbed_towers())
def test_compatibility_classes_match_product_oracle(J):
    witness = check_compatibility(J)
    assert repr(witness) == repr(compatibility_by_product(J))
    if all(check_valuated_exchange(M) is None for M in J.layers):
        assert (witness is None) == compatible_by_circuit_push(J)


def test_compatibility_budget_charges_classes_not_pairs(monkeypatch):
    # nonrealizable(2, 4): the full scan would charge about 1.04M (U, V, x_i)
    # triples; the class scan charges the U- and V-sets plus the class pairs
    import tropideal.ideals as ideals
    J = nonrealizable_ideal(2, 4)
    assert check_compatibility(J, budget=Budget(200_000)) is None
    # 87 U classes x 216 V classes x 3 variables at degree 3
    with pytest.raises(SizeGuardError, match="compatibility degree 3"):
        check_compatibility(J, budget=Budget(50_000))
    # degree 3 has C(10, 5) U-sets and C(15, 4) V-sets; the charge for them
    # must refuse before any of them is enumerated
    sizes = []
    enumerate_classes = ideals._vector_classes
    monkeypatch.setattr(ideals, "_vector_classes",
                        lambda val, n, k, inside: sizes.append(k) or
                        enumerate_classes(val, n, k, inside))
    with pytest.raises(SizeGuardError, match="compatibility degree 3"):
        check_compatibility(J, budget=Budget(252 + 1365 - 1))
    assert sizes == [3, 2, 4, 3]  # the U and V sizes of degrees 1 and 2 only


# hilbert, membership ---------------------------------------------------------------


def test_hilbert_out_of_range():
    I = point_ideal((Trop(0), Trop(0)), 2)
    with pytest.raises(OutOfRangeError):
        I.hilbert(3)


def cubic_products():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    lin = QPoly(3, {x: 1, y: 1, z: 1})
    quad = QPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    g = lin * quad
    xy = QPoly(3, {x: 1, y: 1})
    xz = QPoly(3, {x: 1, z: 1})
    yz = QPoly(3, {y: 1, z: 1})
    gp = xy * xz * yz
    return g, gp


def quartic_witness_polynomial():
    g, gp = cubic_products()
    extra = QPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): -1})
    f = trop(gp * extra, Valuation("trivial"))
    assert set(f.support()) == {
        (3, 1, 0), (3, 0, 1), (1, 3, 0), (0, 3, 1), (1, 0, 3), (0, 1, 3),
        (1, 2, 1), (1, 1, 2), (0, 2, 2)}
    assert all(c == Trop(0) for _, c in f.terms())
    return f


def test_same_variety_membership_discrepancy():
    g, gp = cubic_products()
    I = tropicalize(ClassicalInput((g,), Valuation("trivial")), 4)
    Ip = tropicalize(ClassicalInput((gp,), Valuation("trivial")), 4)
    f = quartic_witness_polynomial()
    assert contains(Ip, f)
    assert not contains(I, f)
    assert contains(I, TropPoly(3))
    report = compare(I, Ip)
    assert report.relation == "incomparable"
    assert report.equal_through_degree == 3
    assert report.first_difference == 4
    assert report.hilbert_left == report.hilbert_right


def test_compare_charges_its_nested_calls_to_one_budget():
    g, gp = cubic_products()
    I, Ip = (tropicalize(ClassicalInput((h,), Valuation("trivial")), 4) for h in (g, gp))
    total = 0
    for A, B in ((I, Ip), (Ip, I)):  # each inclusion stops at its first non-vector
        inside = True
        for MA, MB in zip(A.layers, B.layers):
            Hs, n = charged(circuits, MA)
            total += n
            for H in Hs:
                inside, n = charged(is_vector, MB, H)
                total += n
                if not inside:
                    break
            if not inside:
                break
    assert total == 17_513
    budget = Budget()
    assert compare(I, Ip, budget).relation == "incomparable"
    assert budget.remaining == budget.cap - total
    compare(I, Ip, Budget(total))
    with pytest.raises(SizeGuardError):
        compare(I, Ip, Budget(total - 1))


def test_contains_rejects_inhomogeneous():
    I = point_ideal((Trop(0), Trop(0)), 2)
    with pytest.raises(InputError):
        contains(I, TropPoly(2, {(1, 0): Trop(0), (0, 0): Trop(0)}))


# initial ideals --------------------------------------------------------------------


def test_initial_ideal_of_line():
    I = tropicalize(ClassicalInput(
        (QPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),), Valuation("trivial")), 1)
    J = initial_ideal(I, (Trop(0), Trop(0), Trop(1)))
    assert J.mode == "boolean"
    lay = J.layers[1]
    assert circuit_supports(lay) == [frozenset({(1, 0, 0), (0, 1, 0)})]
    K = initial_ideal(I, (Trop(0), Trop(1), Trop(2)))
    assert loops(K.layers[1]) == [(1, 0, 0)]
    Z = initial_ideal(I, (Trop(0), Trop(0), Trop(0)))
    assert Z.layers[1] == boolean_image(I).layers[1]


def test_initial_ideal_rejects_all_infinite():
    I = point_ideal((Trop(0), Trop(0)), 1)
    with pytest.raises(InputError):
        initial_ideal(I, (INF, INF))


def test_initial_ideal_with_infinite_weight_coordinates():
    I = point_ideal((Trop(0), INF), 2)
    J = initial_ideal(I, (Trop(0), INF))
    # the point itself lies in the variety: no loops in any layer
    for d in range(3):
        assert loops(J.layers[d]) == []
    K = initial_ideal(I, (Trop(0), Trop(0)))
    assert (0, 1) in loops(K.layers[1])


@functools.lru_cache(maxsize=None)
def initial_oracle_ideals():
    g, gp = cubic_products()
    trivial = Valuation("trivial")
    return (nonrealizable_ideal(2, 2), nonrealizable_ideal(2, 3),
            tropicalize(ClassicalInput((g,), trivial), 3),
            tropicalize(ClassicalInput((gp,), trivial), 3),
            tropicalize(ClassicalInput((QPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1,
                                                  (0, 0, 1): 1}),), trivial), 3))


_weight_coord = st.one_of(st.just(INF),
                          st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Trop))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_initial_layers_match_the_label_set_route(data):
    if data.draw(st.booleans(), label="point ideal"):
        a = data.draw(st.lists(_weight_coord, min_size=3, max_size=3)
                      .filter(lambda a: not all(x.is_inf for x in a)), label="point")
        I = point_ideal(a, data.draw(st.integers(0, 3), label="D"))
    else:
        I = data.draw(st.sampled_from(initial_oracle_ideals()), label="ideal")
    w = tuple(data.draw(st.lists(_weight_coord, min_size=I.num_vars, max_size=I.num_vars)
                        .filter(lambda w: not all(x.is_inf for x in w)), label="weight"))
    assert initial_ideal(I, w).layers == tuple(initial_layers_by_label_sets(I, w))


def test_hilbert_preserved_under_initial(run_count=10):
    rng = random.Random(42)
    I = tropicalize(lambda_family(3), 3)
    for _ in range(run_count):
        w = tuple(Trop(rng.randint(-9, 9)) for _ in range(4))
        J = initial_ideal(I, w)
        for d in range(4):
            assert J.hilbert(d) == I.hilbert(d)


def test_initial_commutes_with_tropicalization_principal():
    # classical oracle: a single generator is a universal Groebner basis,
    # so the initial ideal is generated by the initial form of the generator
    rng = random.Random(99)
    for _ in range(8):
        coeffs = {}
        for u in monomials_of_degree(3, 2):
            if rng.random() < 0.7:
                coeffs[u] = Fraction(rng.randint(-4, 4))
        g = QPoly(3, coeffs)
        if g.is_zero or not g.is_homogeneous():
            continue
        I = tropicalize(ClassicalInput((g,), Valuation("trivial")), 3)
        w = tuple(Trop(rng.randint(-3, 3)) for _ in range(3))
        wvals = [x.value for x in w]
        best = min(sum(wi * ui for wi, ui in zip(wvals, u)) for u in g.coeffs)
        in_g = QPoly(3, {u: c for u, c in g.coeffs.items()
                         if sum(wi * ui for wi, ui in zip(wvals, u)) == best})
        lhs = initial_ideal(I, w)
        rhs = boolean_image(tropicalize(ClassicalInput((in_g,), Valuation("trivial")), 3))
        assert lhs.layers == rhs.layers


def test_initial_commutes_with_tropicalization_linear():
    # classical oracle: circuits of a linear ideal form a universal Groebner basis
    rng = random.Random(7)
    nv = 3
    for _ in range(6):
        forms = []
        for _ in range(2):
            coeffs = {}
            for i in range(nv):
                c = rng.randint(-3, 3)
                if c:
                    coeffs[tuple(1 if j == i else 0 for j in range(nv))] = Fraction(c)
            if coeffs:
                forms.append(QPoly(nv, coeffs))
        if not forms or macaulay_rank(forms, 1) != len(forms):
            continue
        I = tropicalize(ClassicalInput(tuple(forms), Valuation("trivial")), 2)
        w = tuple(Trop(rng.randint(-3, 3)) for _ in range(nv))
        wv = [x.value for x in w]
        # circuits of the row space via the degree-1 matroid of I itself would be
        # circular; enumerate supports by brute-force elimination instead
        circuit_polys = []
        vectors = [[g.coeffs.get(tuple(1 if j == i else 0 for j in range(nv)), Fraction(0))
                    for i in range(nv)] for g in forms]
        for size in range(2, nv + 1):
            for S in itertools.combinations(range(nv), size):
                rows = [r[:] for r in vectors]
                for c in [i for i in range(nv) if i not in S]:
                    piv = next((r for r in range(len(rows)) if rows[r][c] != 0), None)
                    if piv is None:
                        continue
                    pivrow = rows[piv]
                    rows = [[a - (row[c] / pivrow[c]) * b for a, b in zip(row, pivrow)]
                            for r, row in enumerate(rows) if r != piv]
                for row in rows:
                    supp = frozenset(i for i in range(nv) if row[i] != 0)
                    if supp == frozenset(S):
                        if not any(set(p) < supp for p in
                                   [q[0] for q in circuit_polys]):
                            circuit_polys.append((supp, row))
        minimal = [t for t in circuit_polys
                   if not any(o[0] < t[0] for o in circuit_polys)]
        gens = []
        seen = set()
        for supp, row in minimal:
            if supp in seen:
                continue
            seen.add(supp)
            best = min(wv[i] for i in supp)
            init = {tuple(1 if j == i else 0 for j in range(nv)): row[i]
                    for i in supp if wv[i] == best}
            gens.append(QPoly(nv, init))
        lhs = initial_ideal(I, w)
        rhs = boolean_image(tropicalize(ClassicalInput(tuple(gens), Valuation("trivial")), 2))
        assert lhs.layers == rhs.layers


def test_initial_layer_cycles_are_supports_of_degenerated_circuits():
    # the support of the degeneration of any layer circuit is a cycle of the
    # corresponding boolean layer
    rng = random.Random(77)
    for I in (point_ideal((Trop(0), Trop(3)), 2),
              tropicalize(linear_x_plus_y(), 2)):
        for _ in range(10):
            w = tuple(Trop(rng.randint(-5, 5)) for _ in range(I.num_vars))
            J = initial_ideal(I, w)
            for d in range(I.degree_bound + 1):
                M = I.layers[d]
                for H in circuits(M):
                    f = TropPoly(I.num_vars, {u: H[i] for i, u in enumerate(M.ground)})
                    supp = f.initial_form(w)
                    assert is_cycle(J.layers[d], supp)


def test_boolean_image_preserves_ranks_and_compatibility():
    I = point_ideal((Trop(0), Trop(3), Trop(1)), 2)
    B = boolean_image(I)
    assert B.mode == "boolean"
    for d in range(3):
        assert B.hilbert(d) == I.hilbert(d)
    assert check_compatibility(B) is None


# compare ---------------------------------------------------------------------------


def test_compare_equal():
    I = point_ideal((Trop(0), Trop(0)), 2)
    J = point_ideal((Trop(0), Trop(0)), 2)
    assert compare(I, J).relation == "equal"


def test_compare_shape_mismatch():
    I = point_ideal((Trop(0), Trop(0)), 2)
    J = point_ideal((Trop(0), Trop(0)), 1)
    with pytest.raises(InputError):
        compare(I, J)


def test_hilbert_matches_macaulay_corank():
    rng = random.Random(5)
    cases = [linear_x_plus_y(),
             ClassicalInput(cubic_products()[:1], Valuation("trivial")),
             lambda_family(2)]
    for inp in cases:
        I = tropicalize(inp, 3)
        for d in range(4):
            nmon = len(monomials_of_degree(inp.num_vars, d))
            assert I.hilbert(d) == nmon - macaulay_rank(list(inp.generators), d)
