import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropideal import polyhedra
from tropideal.errors import InputError, InvariantViolationError, SizeGuardError
from tropideal.polyhedra import (Cell, PolyComplex, canonical_row, fm_solve,
                                 normal_complex, quotient_lineality, refine)
from tropideal.polyhedra import _tie_at, _tie_system
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop

from oracles import contains_by_fractions, weight_to_cell_coords


def C1(eqs, ineqs, ambient=1, sigma=()):
    return Cell(ambient, sigma, eqs, ineqs)


def test_feasible_dim_examples():
    empty = C1([], [((Fraction(-1),), Fraction(-1)), ((Fraction(1),), Fraction(0))])
    # w >= 1 and w <= 0
    assert empty.dim() is None
    line = Cell(2, (), [((1, -1), 0)], [])
    assert line.dim() == 1
    space = Cell(3, (), [], [])
    assert space.dim() == 3


def test_relint_point_is_interior():
    cell = Cell(2, (), [], [((1, 0), 0), ((0, 1), 0)])  # w0 <= 0, w1 <= 0
    p = cell.relint_point()
    assert p is not None and p[0] < 0 and p[1] < 0
    mid = tuple((a + b) / 2 for a, b in zip(p, (0, 0)))  # toward the closed cell's vertex
    assert mid != p and contains_by_fractions(cell, mid, relint=True)


def test_relint_with_implied_equality():
    # w0 <= w1 and w1 <= w0 force equality; relint point must satisfy it
    cell = Cell(2, (), [], [((1, -1), 0), ((-1, 1), 0), ((1, 0), 5)])
    p = cell.relint_point()
    assert p[0] == p[1] and p[0] < 5
    assert cell.dim() == 1


def test_fm_solve_strict():
    assert fm_solve(1, [], [((Fraction(1),), Fraction(0), True),
                           ((Fraction(-1),), Fraction(0), True)]) is None
    p = fm_solve(2, [], [((Fraction(1), Fraction(0)), Fraction(1), True),
                         ((Fraction(-1), Fraction(0)), Fraction(1), True)])
    assert p is not None and -1 < p[0] < 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=5), st.booleans())
def test_canonical_row_int_path_matches_fraction_path(row, equality):
    # int rows skip the Fraction/lcm scaling; the result must be the same
    # primitive row, with the same sign fix for equalities
    got = canonical_row(row[:-1], row[-1], equality)
    assert got == canonical_row([Fraction(v) for v in row[:-1]], Fraction(row[-1]), equality)
    assert all(type(v) is int for v in (*got[0], got[1]))


def dedupe_by_fractions(ineqs):
    """Oracle: _dedupe with each direction's bound as the Fraction rhs / g."""
    best = {}
    for coeffs, rhs, strict in ineqs:
        g = math.gcd(*coeffs)
        if g == 0:
            if rhs < 0 or (strict and rhs == 0):
                return None
            continue
        prim = tuple(c // g for c in coeffs)
        bound = Fraction(rhs, g)
        old = best.get(prim)
        if old is None or bound < old[0] or (bound == old[0] and strict and not old[1]):
            best[prim] = (bound, strict)
    return [([c * b.denominator for c in k], b.numerator, strict)
            for k, (b, strict) in best.items()]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.tuples(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, -6, 4]), min_size=m, max_size=m),
              st.integers(-8, 8), st.booleans()), max_size=12)))
def test_dedupe_integer_bounds_match_fraction_bounds(ineqs):
    # few distinct coefficients, so rows often share a direction at different
    # scales and equal bounds meet with and without strictness
    assert polyhedra._dedupe(ineqs) == dedupe_by_fractions(ineqs)


def test_fm_solve_random_feasible_systems():
    # rows built around a known rational point: the system is feasible, so
    # fm_solve must return an exact Fraction point satisfying every row
    rng = random.Random(99)

    def rat():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    for trial in range(400):
        m = rng.randint(1, 4)
        x0 = [rat() for _ in range(m)]
        eqs, ineqs = [], []
        for _ in range(rng.randint(0, m)):
            a = [rat() for _ in range(m)]
            eqs.append((a, sum(c * x for c, x in zip(a, x0))))
        for _ in range(rng.randint(0, 6)):
            a = [rat() for _ in range(m)]
            strict = rng.random() < 0.5
            slack = Fraction(rng.randint(1 if strict else 0, 3), rng.randint(1, 4))
            ineqs.append((a, sum(c * x for c, x in zip(a, x0)) + slack, strict))
        p = fm_solve(m, eqs, ineqs)
        assert p is not None and len(p) == m
        assert all(type(x) is Fraction for x in p)
        for a, r in eqs:
            assert sum(c * x for c, x in zip(a, p)) == r
        for a, r, strict in ineqs:
            lhs = sum(c * x for c, x in zip(a, p))
            assert lhs < r if strict else lhs <= r


@st.composite
def primitive_systems(draw):
    """Primitive integer rows in 1..3 variables, feasible or not, with a
    positive scale or a denominator per row."""
    m = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    row = st.tuples(st.lists(entry, min_size=m, max_size=m), entry)
    eqs = [canonical_row(c, r, True) for c, r in draw(st.lists(row, max_size=2))]
    ineqs = [(*canonical_row(c, r), draw(st.booleans()))
             for c, r in draw(st.lists(row, max_size=6))]
    factors = draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                            min_size=len(eqs) + len(ineqs), max_size=len(eqs) + len(ineqs)))
    return m, eqs, ineqs, factors


@settings(max_examples=300, deadline=None)
@given(primitive_systems())
def test_fm_solve_ignores_row_scaling(case):
    # all-int rows are taken as given and Fraction rows are scaled to primitive
    # ints; either way the point is the one the primitive rows give
    m, eqs, ineqs, factors = case

    def rescale(coeffs, rhs, k, as_fraction):
        if as_fraction:
            return [Fraction(c, k) for c in coeffs], Fraction(rhs, k)
        return tuple(k * c for c in coeffs), k * rhs

    eq_factors, ineq_factors = factors[:len(eqs)], factors[len(eqs):]
    scaled_eqs = [rescale(c, r, *f) for (c, r), f in zip(eqs, eq_factors)]
    scaled_ineqs = [(*rescale(c, r, *f), strict) for (c, r, strict), f in zip(ineqs, ineq_factors)]
    want = fm_solve(m, eqs, ineqs)
    got = fm_solve(m, scaled_eqs, scaled_ineqs)
    assert got == want
    assert got is None or all(type(x) is Fraction for x in got)


def test_fm_solve_determined_by_equalities():
    p = fm_solve(2, [((2, 1), 3), ((1, -1), Fraction(1, 2))], [])
    assert p == (Fraction(7, 6), Fraction(2, 3))
    assert all(type(x) is Fraction for x in p)
    assert fm_solve(2, [((1, 1), 1), ((2, 2), 3)], []) is None


def poly(pairs, nvars):
    return TropPoly(nvars, {u: Trop(c) for u, c in pairs})


def test_normal_complex_of_line():
    f = poly([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)], 2)
    N = normal_complex(f)
    cells = N.cells
    assert len(cells) == 7
    dims = sorted(c.dim() for c in cells)
    assert dims == [0, 1, 1, 1, 2, 2, 2]
    vertex = [c for c in cells if c.dim() == 0][0]
    assert vertex.contains_closed((Fraction(0), Fraction(0)))
    assert vertex.label == frozenset({(1, 0), (0, 1), (0, 0)})


def test_normal_complex_single_monomial():
    f = poly([((2, 1), 5)], 2)
    N = normal_complex(f)
    cells = N.cells
    assert len(cells) == 1 and cells[0].dim() == 2 and not cells[0].eqs and not cells[0].ineqs


def test_normal_complex_univariate():
    f = poly([((1,), 0), ((0,), 0)], 1)
    N = normal_complex(f)
    cells = N.cells
    assert len(cells) == 3
    by_dim = {}
    for c in cells:
        by_dim.setdefault(c.dim(), []).append(c)
    assert len(by_dim[1]) == 2 and len(by_dim[0]) == 1
    assert by_dim[0][0].contains_closed((Fraction(0),))


def test_normal_complex_of_infinity_polynomial():
    N = normal_complex(TropPoly.infinity(2))
    cells = N.cells
    assert len(cells) == 1 and cells[0].label == "inf" and cells[0].dim() == 2


def test_normal_complex_requires_stripped_input():
    f = poly([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(InputError):
        normal_complex(f, sigma={0})
    stripped = f.strip_sigma({0})
    N = normal_complex(stripped, sigma={0})
    assert len(N.cells) == 1 and N.sigma == {0}


def test_normal_complex_labels_match_initial_forms():
    rng = random.Random(31)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            u = (rng.randint(0, 3), rng.randint(0, 3))
            terms[u] = Trop(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        f = TropPoly(2, terms)
        N = normal_complex(f)
        for cell in N.cells:
            p = cell.relint_point()
            w = tuple(Trop(x) for x in p)
            assert f.initial_form(w) == cell.label


def test_normal_complex_covering_property():
    rng = random.Random(37)
    f = poly([((2, 0), 0), ((1, 1), 1), ((0, 2), 0), ((0, 0), 2)], 2)
    N = normal_complex(f)
    cells = N.cells
    for _ in range(1000):
        p = (Fraction(rng.randint(-60, 60), rng.randint(1, 7)),
             Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
        containing = [c for c in cells if c.contains_closed(p)]
        assert containing, "point not covered"
        exact = [c for c in containing if contains_by_fractions(c, p, relint=True)]
        if len(containing) == 1:
            assert exact == containing
        else:
            # shared boundary: the unique cell whose relint holds the point
            assert len(exact) == 1


def test_disjoint_relative_interiors():
    f = poly([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)], 2)
    cells = normal_complex(f).cells
    for i, a in enumerate(cells):
        assert a.dim() is not None
        for b in cells[i + 1:]:
            assert not contains_by_fractions(b, a.relint_point(), relint=True)
            # the strict-intersection system of the pair is infeasible
            (ea, sa), (eb, sb) = solved_core(a), solved_core(b)
            assert fm_solve(2, ea + eb, sa + sb) is None


def solved_core(cell):
    """The core a copy of the cell solves for itself, built without one."""
    return Cell(cell.ambient, cell.sigma, cell.eqs, cell.ineqs, free=cell.free).core


def axis_complex(var, ambient=2):
    """Three cells: {w_var <= 0}, {w_var = 0}, {w_var >= 0}."""
    coeff_pos = tuple(Fraction(1 if i == var else 0) for i in range(ambient))
    coeff_neg = tuple(Fraction(-1 if i == var else 0) for i in range(ambient))
    cells = [
        Cell(ambient, (), [], [(coeff_pos, 0)], label="neg%d" % var),
        Cell(ambient, (), [(coeff_pos, 0)], [], label="zero%d" % var),
        Cell(ambient, (), [], [(coeff_neg, 0)], label="pos%d" % var),
    ]
    return PolyComplex(ambient, frozenset(), cells)


def test_refine_two_lines_gives_nine_cells():
    R = refine([axis_complex(0), axis_complex(1)])
    cells = R.cells
    assert len(cells) == 9
    dims = sorted(c.dim() for c in cells)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2]
    for c in cells:
        assert isinstance(c.label, tuple) and len(c.label) == 2


def test_refine_identity():
    A = axis_complex(0)
    assert refine([A]) is A
    allspace = PolyComplex(2, frozenset(), [Cell(2, (), [], [], label="all")])
    R = refine([A, allspace])
    assert R.cell_count() == 3
    assert sorted(c.dim() for c in R.cells) == sorted(c.dim() for c in A.cells)


def refine_by_product(complexes):
    """Reference: solve every tuple of the product of the inputs' cells."""
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
    return PolyComplex(first.ambient, first.sigma, [found[k] for k in sorted(found)],
                       first.quotiented)


def assert_same_refinement(R, S):
    assert (R.ambient, R.sigma, R.quotiented) == (S.ambient, S.sigma, S.quotiented)
    assert len(R.cells) == len(S.cells)
    for a, b in zip(R.cells, S.cells):
        assert (a.free, a.eqs, a.ineqs, a.label) == (b.free, b.eqs, b.ineqs, b.label)
        assert a.relint_point() == b.relint_point()


@st.composite
def polys_and_stratum(draw):
    nvars = draw(st.integers(2, 3))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    polys = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=4),
                          min_size=2, max_size=3))
    return [TropPoly(nvars, {u: Trop(c) for u, c in terms.items()}).strip_sigma(sigma)
            for terms in polys], sigma


@settings(max_examples=100, deadline=None)
@given(polys_and_stratum())
def test_refine_fold_matches_product_oracle(case):
    polys, sigma = case
    complexes = [normal_complex(f, sigma) for f in polys]
    assert_same_refinement(refine(complexes), refine_by_product(complexes))


def test_refine_empty_input_stratum():
    empty = PolyComplex(2, frozenset(), [])
    for complexes in ([axis_complex(0), empty], [empty, axis_complex(1)],
                      [axis_complex(0), empty, axis_complex(1)]):
        R = refine(complexes)
        assert R.cells == []
        assert_same_refinement(R, refine_by_product(complexes))
    three = [axis_complex(0), axis_complex(1), axis_complex(0)]
    assert_same_refinement(refine(three), refine_by_product(three))


def arrangement_complex(lines):
    """Every sign vector of a line arrangement in the plane as one cell with no
    core, empty ones included; zero signs are written as two opposite
    inequalities, so those rows are tight."""
    cells = []
    for signs in itertools.product((-1, 0, 1), repeat=len(lines)):
        rows = []
        for s, (a, b) in zip(signs, lines):
            if s <= 0:
                rows.append((a, b))
            if s >= 0:
                rows.append((tuple(-x for x in a), -b))
        cells.append(Cell(2, (), [], rows, label=signs))
    return PolyComplex(2, frozenset(), cells)


def test_refine_cells_without_core_match_product_oracle():
    rng = random.Random(11)

    def line():
        a = (0, 0)
        while a == (0, 0):
            a = (rng.randint(-2, 2), rng.randint(-2, 2))
        return a, rng.randint(-2, 2)

    tight_axes = [arrangement_complex([((1, 0), 0)]), arrangement_complex([((0, 1), 0)])]
    cases = [tight_axes + [arrangement_complex([((1, -1), 0)])]]
    for _ in range(6):
        cases.append([arrangement_complex([line()]), arrangement_complex([line(), line()]),
                      arrangement_complex([line()])])
    for complexes in cases:
        assert_same_refinement(refine(complexes), refine_by_product(complexes))
    with_empty = [tight_axes[0], PolyComplex(2, frozenset(), []), tight_axes[1]]
    assert refine(with_empty).cells == []


def test_refine_rejects_a_core_that_escapes_its_rows():
    allspace = PolyComplex(2, frozenset(), [Cell(2, (), [], [], label="all")])
    # rows say w0 <= 0, the core says w0 > 1
    bad = Cell(2, (), [], [((1, 0), 0)], core=((), [((-1, 0), -1, True)]))
    with pytest.raises(InvariantViolationError, match="escaped"):
        refine([allspace, PolyComplex(2, frozenset(), [bad])])


def test_refine_rejects_inputs_over_different_spaces():
    A = axis_complex(0)
    for other in (axis_complex(0, ambient=3), PolyComplex(2, frozenset({0}), []),
                  PolyComplex(2, frozenset(), [], quotiented=True)):
        with pytest.raises(InputError, match="same ambient space and stratum"):
            refine([A, other])
        with pytest.raises(InputError, match="same ambient space and stratum"):
            refine([other, A])


def test_refine_charges_one_unit_per_prefix_and_cell():
    f = poly([((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((2, 0), 1), ((1, 1), 3)], 2)
    g = poly([((0, 0), 1), ((0, 1), 0), ((1, 1), -1)], 2)
    complexes = [normal_complex(f), normal_complex(g), axis_complex(0),
                 arrangement_complex([((1, 1), 1)])]
    pairs = sum(refine(complexes[:k]).cell_count() * complexes[k].cell_count()
                for k in range(1, len(complexes)))
    assert refine(complexes, cap=pairs).cell_count() == refine(complexes).cell_count()
    with pytest.raises(SizeGuardError, match="refinement pairs"):
        refine(complexes, cap=pairs - 1)


# The Fraction tie-set kernel, kept as the oracle of the integer one ---------------


def tie_system_by_fractions(terms, T):
    rep = min(T)
    urep, crep = terms[rep]
    eqs = []
    for t in sorted(T):
        if t == rep:
            continue
        u, c = terms[t]
        eqs.append((tuple(Fraction(a - b) for a, b in zip(urep, u)), Fraction(c - crep)))
    ineqs = []
    for v, (u, c) in enumerate(terms):
        if v in T:
            continue
        ineqs.append((tuple(Fraction(a - b) for a, b in zip(urep, u)), Fraction(c - crep)))
    return eqs, ineqs


def tie_at_by_fractions(terms, point):
    best = None
    arg = set()
    for i, (u, c) in enumerate(terms):
        v = c + sum(Fraction(e) * x for e, x in zip(u, point))
        if best is None or v < best:
            best, arg = v, {i}
        elif v == best:
            arg.add(i)
    return frozenset(arg)


def merged_terms(f, sigma):
    """The (projected exponent, Fraction coefficient) terms normal_complex works on."""
    free = [i for i in range(f.num_vars) if i not in sigma]
    merged = {}
    for u, c in f.terms():
        proj = tuple(u[i] for i in free)
        if proj not in merged or c.value < merged[proj]:
            merged[proj] = c.value
    return sorted(merged.items())


def normal_complex_by_term_probes(f, sigma):
    """Reference cells: seed every term and probe every term from every tie set,
    on full Fraction tie systems (the walk before the vertex walk)."""
    sigma = frozenset(sigma)
    free = [i for i in range(f.num_vars) if i not in sigma]
    if f.is_inf:
        return [Cell(f.num_vars, sigma, [], [], label="inf")]
    terms = merged_terms(f, sigma)
    full = {u: tuple(0 if i in sigma else u[free.index(i)] for i in range(f.num_vars))
            for u, _ in terms}
    discovered, queue = {}, []

    def register(point):
        T = tie_at_by_fractions(terms, point)
        if T not in discovered:
            eqs, ineqs = tie_system_by_fractions(terms, T)
            discovered[T] = Cell(f.num_vars, sigma, eqs, ineqs,
                                 label=frozenset(full[terms[t][0]] for t in T))
            queue.append(T)

    for i in range(len(terms)):
        eqs, ineqs = tie_system_by_fractions(terms, {i})
        p = fm_solve(len(free), eqs, ineqs)
        if p is not None:
            register(p)
    while queue:
        T = queue.pop()
        for v in range(len(terms)):
            if v not in T:
                eqs, ineqs = tie_system_by_fractions(terms, set(T) | {v})
                p = fm_solve(len(free), eqs, ineqs)
                if p is not None:
                    register(p)
    return [discovered[T] for T in sorted(discovered, key=sorted)]


@st.composite
def poly_in_stratum(draw):
    """A tropical polynomial with coefficient denominators 1..7, stripped to a stratum."""
    nvars = draw(st.integers(2, 3))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    return TropPoly(nvars, {u: Trop(c) for u, c in terms.items()}).strip_sigma(sigma), sigma


def probe_points(cells, m, rng):
    """Relative-interior points, points on each tight row, and random points.

    Besides the relint point p, each cell gives the midpoint of p and a point
    q of the closed cell; by convexity it lies in the relative interior too.
    A cell without inequality rows is an affine space, and q is a solution
    of its equalities with one coordinate below p's.
    """
    points = []
    for cell in cells:
        p = cell.relint_point()
        if p is None:
            continue
        qs = [fm_solve(m, cell.eqs + (row,), cell.ineqs[:i] + cell.ineqs[i + 1:])
              for i, row in enumerate(cell.ineqs)]  # a point of the closed cell on row i
        if not cell.ineqs:
            qs = [fm_solve(m, cell.eqs, [(tuple(int(k == j) for k in range(m)), p[j] - 1)])
                  for j in range(m)]
        qs = [q for q in qs if q is not None]
        points += [p, *qs]
        if qs:
            points.append(tuple((a + b) / 2 for a, b in zip(p, qs[-1])))
    points += [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(m))
               for _ in range(6)]
    return points


@settings(max_examples=150, deadline=None)
@given(poly_in_stratum(), st.randoms(use_true_random=False))
def test_integer_tie_kernel_matches_fraction_oracle(case, rng):
    f, sigma = case
    m = f.num_vars - len(sigma)
    got = normal_complex(f, sigma).cells
    want = normal_complex_by_term_probes(f, sigma)
    assert [(c.label, c.eqs, c.ineqs, c.relint_point()) for c in got] == \
        [(c.label, c.eqs, c.ineqs, c.relint_point()) for c in want]
    if f.is_inf:
        return
    terms = merged_terms(f, sigma)
    scale = math.lcm(*(c.denominator for _, c in terms))
    int_terms = [(u, int(c * scale)) for u, c in terms]
    for T in [frozenset(T) for k in range(1, len(terms) + 1)
              for T in itertools.combinations(range(len(terms)), k)]:
        new_eqs, new_ineqs = _tie_system(int_terms, scale, T)
        old_eqs, old_ineqs = tie_system_by_fractions(terms, T)
        assert [canonical_row(c, r, True) for c, r in new_eqs] == \
            [canonical_row(c, r, True) for c, r in old_eqs]
        assert [canonical_row(c, r) for c, r in new_ineqs] == \
            [canonical_row(c, r) for c, r in old_ineqs]
    for p in probe_points(got, m, rng):
        assert _tie_at(int_terms, scale, p) == tie_at_by_fractions(terms, p)
        for cell in got:
            assert cell.contains_closed(p) == contains_by_fractions(cell, p, relint=False)


@st.composite
def dense_poly_in_stratum(draw):
    """Up to about 20 terms in 2-4 variables, many of them lifted onto faces or
    strictly above the lower hull: all-zero coefficients put every lattice
    point on the hull, and a midpoint of two terms whose coefficient exceeds
    their average lies strictly above it.  sigma may be nonempty; exponents
    are zero on sigma so every term survives the stratum."""
    nvars = draw(st.integers(2, 4))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    free = [i for i in range(nvars) if i not in sigma]
    top = {1: 10, 2: 4}.get(len(free), 2)
    even = st.integers(0, top).map(lambda x: 2 * x)  # so every midpoint is a lattice point
    base = draw(st.lists(st.tuples(*[even] * len(free)), min_size=4, max_size=10, unique=True))
    kind = draw(st.sampled_from(("zero", "above", "random")))
    frac = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    terms = {u: Fraction(0) if kind == "zero" else draw(frac) for u in base}
    lift = st.sampled_from((0, Fraction(1, 3), 1, 5))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base)),
                              min_size=6, max_size=12)):
        mid = tuple((x + y) // 2 for x, y in zip(a, b))
        if mid not in terms:
            terms[mid] = (Fraction(0) if kind == "zero" else draw(frac) if kind == "random"
                          else (terms[a] + terms[b]) / 2 + draw(lift))
    full = {u: tuple(0 if i in sigma else u[free.index(i)] for i in range(nvars))
            for u in terms}
    return TropPoly(nvars, {full[u]: Trop(c) for u, c in terms.items()}), sigma


@settings(max_examples=120, deadline=None)
@given(st.one_of(dense_poly_in_stratum(), poly_in_stratum()))
def test_vertex_walk_matches_term_probe_walk(case):
    f, sigma = case
    got = normal_complex(f, sigma).cells
    want = normal_complex_by_term_probes(f, sigma)
    assert [(c.label, c.eqs, c.ineqs, c.relint_point()) for c in got] == \
        [(c.label, c.eqs, c.ineqs, c.relint_point()) for c in want]


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_poly_in_stratum(), poly_in_stratum()))
def test_core_rows_solve_like_relint_systems(case):
    f, sigma = case
    cells = normal_complex(f, sigma).cells
    m = f.num_vars - len(sigma)
    for a, b in itertools.combinations_with_replacement(cells, 2):
        (ea, sa), (eb, sb) = solved_core(a), solved_core(b)
        assert fm_solve(m, [*a.core[0], *b.core[0]], [*a.core[1], *b.core[1]]) == \
            fm_solve(m, ea + eb, sa + sb)


def test_normal_complex_charges_before_each_solve(monkeypatch):
    # a tropical line with a non-vertex term (1, 1) strictly above the hull
    f = poly([((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((2, 0), 1), ((1, 1), 3)], 2)
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return fm_solve(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "fm_solve", counting)
    cells = normal_complex(f).cell_count()
    n = len(solves)
    assert normal_complex(f, cap=n).cell_count() == cells
    for cap in (1, n - 1):
        solves.clear()
        with pytest.raises(SizeGuardError, match="normal complex"):
            normal_complex(f, cap=cap)
        assert len(solves) == cap


def test_membership_on_tight_rows_and_outside():
    # the square 0 <= w <= 1: corner, edge, interior and outside points
    sq = Cell(2, (), [], [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    half, third = Fraction(1, 2), Fraction(1, 3)
    for point, closed in [((half, third), True), ((0, third), True), ((0, 0), True),
                          ((1, Fraction(4, 3)), False)]:
        assert sq.contains_closed(point) is closed
    edge = Cell(2, (), [((1, 0), 0)], [((0, -1), 0), ((0, 1), 1)])
    assert edge.contains_closed((0, half)) and edge.contains_closed((0, 1))
    assert not edge.contains_closed((Fraction(1, 7), half))
    with pytest.raises(InputError):
        edge.contains_closed((0,))


def test_quotient_lineality():
    # the diagonal fan: cells of x0 + x1 (homogeneous)
    f = poly([((1, 0), 0), ((0, 1), 0)], 2)
    N = normal_complex(f)
    Q = quotient_lineality(N)
    cells = Q.cells
    assert len(cells) == 3
    assert sorted(c.dim() for c in cells) == [0, 1, 1]
    allspace = PolyComplex(2, frozenset(), [Cell(2, (), [], [])])
    Q2 = quotient_lineality(allspace)
    assert Q2.cells[0].dim() == 1


def test_quotient_rejects_non_invariant():
    bad = PolyComplex(2, frozenset(), [Cell(2, (), [], [((1, 0), 0)])])
    with pytest.raises(InvariantViolationError):
        quotient_lineality(bad)


def test_weight_to_cell_coords():
    cell = Cell(3, {1}, [], [])
    w = (Trop(2), INF, Trop(5))
    assert weight_to_cell_coords(cell, w, quotiented=False) == (Fraction(2), Fraction(5))
    assert weight_to_cell_coords(cell, (Trop(1), Trop(1), Trop(1)), False) is None
    qcell = Cell(3, {1}, [], [], free=(0,))
    assert weight_to_cell_coords(qcell, w, quotiented=True) == (Fraction(-3),)
