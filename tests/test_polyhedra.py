import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropideal import jsonio, polyhedra
from tropideal.config import Budget
from tropideal.errors import InputError, InvariantViolationError, SizeGuardError
from tropideal.groebner import groebner_poly
from tropideal.polyhedra import (Cell, PolyComplex, canonical_row, fm_solve,
                                 normal_complex, quotient_lineality, refine)
from tropideal.polyhedra import _holds, _scaled, _tie_at, _tie_system
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop

from oracles import T as poly
from oracles import (assert_same_refinement, contains_by_fractions, refine_by_product,
                     weight_to_cell_coords)


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
    assert fm_solve(1, [], [], [((Fraction(1),), Fraction(0)),
                               ((Fraction(-1),), Fraction(0))]) is None
    p = fm_solve(2, [], [], [((Fraction(1), Fraction(0)), Fraction(1)),
                             ((Fraction(-1), Fraction(0)), Fraction(1))])
    assert p is not None and -1 < p[0] < 1


def test_fm_solve_strictness_is_positional():
    # x <= 0 and -x <= 0 meet at 0; x < 0 and -x < 0 do not meet
    rows = [((1,), 0), ((-1,), 0)]
    assert fm_solve(1, [], rows) == (Fraction(0),)
    assert fm_solve(1, [], [], rows) is None
    assert fm_solve(1, [], rows[:1], rows[1:]) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=5), st.booleans())
def test_canonical_row_int_path_matches_fraction_path(row, equality):
    # int rows skip the Fraction/lcm scaling; the result must be the same
    # primitive row, with the same sign fix for equalities
    got = canonical_row(row[:-1], row[-1], equality)
    assert got == canonical_row([Fraction(v) for v in row[:-1]], Fraction(row[-1]), equality)
    assert all(type(v) is int for v in (*got[0], got[1]))


def test_cell_keeps_int_rows_and_reads_other_rows_canonically():
    # all-int rows are taken as given, the row objects themselves: neither
    # rescaled nor, for an equality, sign-flipped
    eq, ineq = ((-2, 4), 6), ((3, 0), 9)
    cell = Cell(2, (), [eq], [ineq])
    assert cell.eqs[0] is eq and cell.ineqs[0] is ineq
    assert Cell(2, (), [([-2, 4], 6)], []).eqs == (((-2, 4), 6),)
    # string and Fraction rows are read by canonical_row, equalities with a
    # positive leading entry, inequalities keeping their sign
    cell = Cell(2, (), [(("-2", "4"), "6"), ((Fraction(0), Fraction(-3, 2)), Fraction(3))],
                [(("-2", "0"), "4"), ((Fraction(3), Fraction(0)), Fraction(9, 2))])
    assert cell.eqs == (((1, -2), -3), ((0, 1), -2))
    assert cell.ineqs == (((-1, 0), 2), ((2, 0), 3))
    for c, r in cell.eqs + cell.ineqs:
        assert all(type(v) is int for v in (*c, r))


def test_cell_and_fm_solve_raise_the_same_width_error():
    messages = set()
    for row in (((1, 2, 3), 0), (("1",), "0")):
        for build in (lambda: Cell(2, (), [row], []), lambda: Cell(2, (), [], [row]),
                      lambda: fm_solve(2, [row], []), lambda: fm_solve(2, [], [row]),
                      lambda: fm_solve(2, [], [], [row])):
            with pytest.raises(InputError) as err:
                build()
            messages.add(str(err.value))
    assert messages == {"row width 3 does not match 2 free coordinates",
                        "row width 1 does not match 2 free coordinates"}


def test_refined_cells_share_their_input_cells_rows():
    # refine hands Cell its inputs' canonical rows, which the intake keeps:
    # a refined cell holds no row object of its own
    A = axis_complex(0)
    B = normal_complex(poly([((1, 0), 0), ((0, 1), Fraction(1, 2)), ((2, 0), Fraction(3, 4)),
                             ((0, 0), 0)], 2))
    R = refine([A, B])
    assert R.cell_count() > len(A.cells)
    for cell in R.cells:
        reps = [next(c for c in X.cells if c.label == label)
                for X, label in zip((A, B), cell.label)]
        for rows, inputs in ((cell.eqs, [r for rep in reps for r in rep.eqs]),
                             (cell.ineqs, [r for rep in reps for r in rep.ineqs])):
            assert len(rows) == len(inputs)
            assert all(row is given for row, given in zip(rows, inputs))


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
        eqs, ineqs, strict = [], [], []
        for _ in range(rng.randint(0, m)):
            a = [rat() for _ in range(m)]
            eqs.append((a, sum(c * x for c, x in zip(a, x0))))
        for _ in range(rng.randint(0, 6)):
            a = [rat() for _ in range(m)]
            is_strict = rng.random() < 0.5
            slack = Fraction(rng.randint(1 if is_strict else 0, 3), rng.randint(1, 4))
            (strict if is_strict else ineqs).append((a, sum(c * x for c, x in zip(a, x0)) + slack))
        p = fm_solve(m, eqs, ineqs, strict)
        assert p is not None and len(p) == m
        assert all(type(x) is Fraction for x in p)
        for a, r in eqs:
            assert sum(c * x for c, x in zip(a, p)) == r
        for a, r in ineqs:
            assert sum(c * x for c, x in zip(a, p)) <= r
        for a, r in strict:
            assert sum(c * x for c, x in zip(a, p)) < r


@st.composite
def primitive_systems(draw):
    """Primitive integer rows in 1..3 variables, feasible or not, with a
    positive scale or a denominator per row."""
    m = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    row = st.tuples(st.lists(entry, min_size=m, max_size=m), entry)
    eqs = [canonical_row(c, r, True) for c, r in draw(st.lists(row, max_size=2))]
    ineqs, strict = [], []
    for c, r in draw(st.lists(row, max_size=6)):
        (strict if draw(st.booleans()) else ineqs).append(canonical_row(c, r))
    factors = [draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                             min_size=len(rows), max_size=len(rows)))
               for rows in (eqs, ineqs, strict)]
    return m, (eqs, ineqs, strict), factors


@settings(max_examples=300, deadline=None)
@given(primitive_systems())
def test_fm_solve_ignores_row_scaling(case):
    # all-int rows are taken as given and Fraction rows are scaled to primitive
    # ints; either way the point is the one the primitive rows give
    m, system, factors = case

    def rescale(coeffs, rhs, k, as_fraction):
        if as_fraction:
            return [Fraction(c, k) for c in coeffs], Fraction(rhs, k)
        return tuple(k * c for c in coeffs), k * rhs

    scaled = [[rescale(c, r, *f) for (c, r), f in zip(rows, fs)]
              for rows, fs in zip(system, factors)]
    want = fm_solve(m, *system)
    got = fm_solve(m, *scaled)
    assert got == want
    assert got is None or all(type(x) is Fraction for x in got)


def test_fm_solve_determined_by_equalities():
    p = fm_solve(2, [((2, 1), 3), ((1, -1), Fraction(1, 2))], [])
    assert p == (Fraction(7, 6), Fraction(2, 3))
    assert all(type(x) is Fraction for x in p)
    assert fm_solve(2, [((1, 1), 1), ((2, 2), 3)], []) is None


def test_normal_complex_of_line():
    f = poly([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)], 2)
    N = normal_complex(f)
    cells = N.cells
    assert len(cells) == 7
    dims = sorted(c.dim() for c in cells)
    assert dims == [0, 1, 1, 1, 2, 2, 2]
    vertex = [c for c in cells if c.dim() == 0][0]
    assert contains_by_fractions(vertex, (Fraction(0), Fraction(0)), relint=False)
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
    assert contains_by_fractions(by_dim[0][0], (Fraction(0),), relint=False)


def test_normal_complex_of_infinity_polynomial():
    N = normal_complex(TropPoly(2))
    cells = N.cells
    assert len(cells) == 1 and cells[0].label == frozenset() and cells[0].dim() == 2


def test_refined_cell_of_infinity_polynomial_serializes():
    # the label is the tie set, empty where the minimum is infinite
    cell = refine([normal_complex(TropPoly(2))]).cells[0]
    assert jsonio.cell_to_json(cell)["label"] == [[]]


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
        containing = [c for c in cells if contains_by_fractions(c, p, relint=False)]
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
            (ea, sa), (eb, sb) = fresh(a).core, fresh(b).core
            assert fm_solve(2, ea + eb, [], sa + sb) is None


def fresh(cell):
    """A copy of the cell with no builder's witness or core: it solves its own."""
    return Cell(cell.ambient, cell.sigma, cell.eqs, cell.ineqs, free=cell.free)


def axis_complex(var, ambient=2):
    """The normal complex of x_var + 0: {w_var <= 0}, {w_var = 0}, {w_var >= 0}."""
    unit = tuple(int(i == var) for i in range(ambient))
    return normal_complex(poly([(unit, 0), ((0,) * ambient, 0)], ambient))


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
    R = refine([A])
    assert [(c.eqs, c.ineqs, c.label) for c in R.cells] == [
        (c.eqs, c.ineqs, (c.label,)) for c in A.cells]
    allspace = normal_complex(poly([((0, 0), 0)], 2))
    R = refine([A, allspace])
    assert R.cell_count() == 3
    assert sorted(c.dim() for c in R.cells) == sorted(c.dim() for c in A.cells)


@st.composite
def polys_and_stratum(draw, top=2, bound=3, size=4):
    """Two or three polynomials over a stratum: exponents at most top,
    coefficients in [-bound, bound] with denominators up to bound, at most
    size terms each."""
    nvars = draw(st.integers(2, 3))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    coeffs = st.fractions(min_value=-bound, max_value=bound, max_denominator=bound)
    polys = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=size),
                          min_size=2, max_size=3))
    return [TropPoly(nvars, {u: Trop(c) for u, c in terms.items()}).strip_sigma(sigma)
            for terms in polys], sigma


@settings(max_examples=180, deadline=None)
@given(st.one_of(polys_and_stratum(), polys_and_stratum(top=3, bound=4, size=6)))
def test_refine_fold_matches_product_oracle(case):
    # normal complexes cover the stratum, so refine locates and walks; the
    # oracle's cells also check each handed-over witness against a fresh solve
    polys, sigma = case
    complexes = [normal_complex(f, sigma) for f in polys]
    assert_same_refinement(refine(complexes), refine_by_product(complexes))


def arrangement_complex(lines):
    """The normal complex of a product of binomials, one per line a.w = b of
    an arrangement in the plane: x^max(a, 0) with coefficient 0 plus
    x^max(-a, 0) with coefficient b, whose terms tie exactly on the line.
    Its cells are the arrangement's nonempty sign vectors."""
    f = poly([((0, 0), 0)], 2)
    for a, b in lines:
        f = f * poly([(tuple(max(x, 0) for x in a), 0), (tuple(max(-x, 0) for x in a), b)], 2)
    return normal_complex(f)


def test_refine_cells_without_core_match_product_oracle():
    # line arrangements against the product oracle; the refined cells carry
    # no builder's core
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


def test_refine_rejects_a_core_that_escapes_its_rows():
    allspace = normal_complex(poly([((0, 0), 0)], 2))  # its witness is the origin
    # rows say w0 <= -1, the core says w0 > -2: it holds at the origin
    bad = Cell(2, (), [], [((1, 0), -1)], core=((), [((-1, 0), 2)]))
    with pytest.raises(InvariantViolationError, match="escaped"):
        refine([allspace, PolyComplex(2, frozenset(), [bad], _covers=True)])
    # a core that holds nowhere leaves the origin in no cell
    gap = Cell(2, (), [], [((1, 0), -1)], core=((), [((1, 0), -1)]))
    with pytest.raises(InvariantViolationError, match="no core"):
        refine([allspace, PolyComplex(2, frozenset(), [gap], _covers=True)])
    # a prefix core, w0 < -1, that misses its witness, the origin: the start
    # (w0 > -1/2) holds there, its face-neighbour meets the core, and the
    # start's own pair is then empty
    prefix = Cell(2, (), [], [], label=frozenset({0}), core=((), [((1, 0), -1)]))
    start = Cell(2, (), [], [], label=frozenset({0}), core=((), [((-2, 0), 1)]))
    other = Cell(2, (), [], [], label=frozenset({0, 1}), core=((), []))
    with pytest.raises(InvariantViolationError, match="start's pair has no point"):
        refine([PolyComplex(2, frozenset(), [prefix], _covers=True),
                PolyComplex(2, frozenset(), [start, other], _covers=True)])


def test_refine_rejects_inputs_over_different_spaces():
    A = axis_complex(0)
    for other in (axis_complex(0, ambient=3), normal_complex(poly([((0, 1), 0)], 2), {0})):
        with pytest.raises(InputError, match="same ambient space and stratum"):
            refine([A, other])
        with pytest.raises(InputError, match="same ambient space and stratum"):
            refine([other, A])
    # only normal complexes cover their stratum: not a hand-built or a refined one
    for other in (PolyComplex(2, frozenset(), [Cell(2, (), [], [])]), refine([A])):
        with pytest.raises(InputError, match="normal complexes only"):
            refine([A, other])
        with pytest.raises(InputError, match="normal complexes only"):
            refine([other, A])


def assert_handed_points_match_fresh_solves(cells):
    """Witness, dimension and core of each cell match a fresh copy's, the
    cores as sets: the same fm_solve point, and the same membership at every
    witness and at probe points off them.  Returns how many witnesses the
    builder handed over."""
    handed = sum(cell._solved for cell in cells)
    m = len(cells[0].free) if cells else 0
    points = [_scaled(p) for p in probe_points(cells, m, random.Random(len(cells)))]
    for cell in cells:
        copy = fresh(cell)
        assert (cell.relint_point(), cell.dim()) == (copy.relint_point(), copy.dim())
        (eqs, strict), (copy_eqs, copy_strict) = cell.core, copy.core
        assert fm_solve(m, eqs, (), strict) == fm_solve(m, copy_eqs, (), copy_strict)
        for P, q in points:
            assert _holds(eqs, strict, P, q, strict=True) == \
                _holds(copy_eqs, copy_strict, P, q, strict=True)
    return handed


def test_refine_hands_every_cell_its_witness():
    # a start cell that shares its prefix with other cells gets its pair
    # solved like theirs: the line w0 = 0 meets the whole plane beside its
    # two half-planes, and in the golden point ideal's sigma = {} fold the
    # whole-stratum degree-0 cell meets all seven degree-1 cells, one of them
    # the start, whose pair the degree-2 level then keeps
    allspace = normal_complex(poly([((0, 0), 0)], 2))
    ideal = jsonio.ideal_from_json(json.loads(
        (Path(__file__).resolve().parent / "golden" / "inputs" / "point.json").read_text()))
    folds = [[allspace, axis_complex(0)],
             [normal_complex(groebner_poly(ideal, d)) for d in range(ideal.degree_bound + 1)]]
    for complexes, count in zip(folds, (3, 7)):
        R = refine(complexes)
        assert len(R.cells) == count and all(cell._solved for cell in R.cells)
        for cell in R.cells:
            assert cell.relint_point() == fresh(cell).relint_point()


@st.composite
def homogeneous_polys_and_stratum(draw):
    """Two or three homogeneous polynomials of one degree, stripped to a
    stratum with a free coordinate left: their cells hold the all-ones line."""
    nvars = draw(st.integers(2, 3))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    k = draw(st.integers(1, 3))
    mons = [u for u in itertools.product(range(k + 1), repeat=nvars) if sum(u) == k]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    polys = draw(st.lists(st.dictionaries(st.sampled_from(mons), coeffs, min_size=1,
                                          max_size=6), min_size=2, max_size=3))
    return [TropPoly(nvars, {u: Trop(c) for u, c in terms.items()}).strip_sigma(sigma)
            for terms in polys], sigma


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys_and_stratum(), homogeneous_polys_and_stratum()))
def test_handed_witnesses_match_fresh_solves(case):
    polys, sigma = case
    complexes = [normal_complex(f, sigma) for f in polys]
    for C in complexes:
        assert_handed_points_match_fresh_solves(C.cells)
    R = refine(complexes)
    assert assert_handed_points_match_fresh_solves(R.cells) == len(R.cells)
    if all(sum(c) == 0 for cell in R.cells for c, _ in (*cell.eqs, *cell.ineqs)):
        Q = [quotient_lineality(cell) for cell in R.cells]
        assert assert_handed_points_match_fresh_solves(Q) == len(Q)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=" \t\n+-_/0123456789\u0663\u06f7\uff11", max_size=8))
@example("1_000")
@example(" -12\n")
@example("+\u0663\u06f7")
@example("\uff11_2")
def test_scaled_reads_a_string_as_fraction_does(s):
    try:
        n = int(s)
    except ValueError:
        n = None
    # Fraction reads "_" from Python 3.11 on; _scaled sends such strings to it
    if n is not None and ("_" not in s or sys.version_info >= (3, 11)):
        assert n == Fraction(s)
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ZeroDivisionError)):
            _scaled([s])
        return
    assert _scaled([s]) == ([want.numerator], want.denominator)


def test_refine_charges_one_unit_per_prefix_and_cell():
    f = poly([((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((2, 0), 1), ((1, 1), 3)], 2)
    g = poly([((0, 0), 1), ((0, 1), 0), ((1, 1), -1)], 2)
    complexes = [normal_complex(f), normal_complex(g), axis_complex(0),
                 arrangement_complex([((1, 1), 1)])]
    pairs = sum(refine(complexes[:k]).cell_count() * complexes[k].cell_count()
                for k in range(1, len(complexes)))
    assert refine(complexes, budget=Budget(pairs)).cell_count() == refine(complexes).cell_count()
    with pytest.raises(SizeGuardError, match="refinement pairs"):
        refine(complexes, budget=Budget(pairs - 1))


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
        return [Cell(f.num_vars, sigma, [], [], label=frozenset())]
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
            assert _holds(cell.eqs, cell.ineqs, *_scaled(p)) == \
                contains_by_fractions(cell, p, relint=False)


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
    solved = [fresh(cell).core for cell in cells]  # each cell's core solved once
    m = f.num_vars - len(sigma)
    for (a, (ea, sa)), (b, (eb, sb)) in itertools.combinations_with_replacement(
            zip(cells, solved), 2):
        assert fm_solve(m, [*a.core[0], *b.core[0]], [], [*a.core[1], *b.core[1]]) == \
            fm_solve(m, ea + eb, [], sa + sb)


def vertices_unscreened(f, sigma):
    """The lifted vertices, by cutting planes over every term with all of
    T - {i} joining S each round: the vertex test with no chord screen."""
    terms = merged_terms(f, sigma)
    scale = math.lcm(*(c.denominator for _, c in terms))
    int_terms = [(u, int(c * scale)) for u, c in terms]
    vertices = []
    for i in range(len(terms)):
        S = set()
        while True:
            _, ineqs = _tie_system(int_terms, scale, {i}, rows=S)
            p = fm_solve(f.num_vars - len(sigma), [], [], ineqs)
            if p is None:
                break
            T = _tie_at(int_terms, scale, p)
            if T == {i}:
                vertices.append(terms[i][0])
                break
            S |= T - {i}
    return vertices


@st.composite
def near_chord_poly_in_stratum(draw):
    """Triples u - e, u, u + e, e a unit vector or a difference of two, with
    integer coefficients a, b at the ends and (a + b) // 2 - 1, + 0 or + 1 at
    u: u lies just below, on or just above the chord, the screen's boundary.
    Exponents are zero on sigma."""
    nvars = draw(st.integers(2, 3))
    sigma = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    free = [i for i in range(nvars) if i not in sigma]
    units = [tuple(int(k == j) for k in range(len(free))) for j in range(len(free))]
    steps = units + [tuple(x - y for x, y in zip(p, q)) for p, q in itertools.combinations(units, 2)]
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        u = tuple(draw(st.integers(1, 3)) for _ in free)
        e = draw(st.sampled_from(steps))
        a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
        mid = (a + b) // 2 + draw(st.sampled_from((-1, 0, 1)))
        for v, c in ((tuple(x + y for x, y in zip(u, e)), a),
                     (tuple(x - y for x, y in zip(u, e)), b), (u, mid)):
            terms.setdefault(v, c)
    full = {u: tuple(0 if i in sigma else u[free.index(i)] for i in range(nvars))
            for u in terms}
    return TropPoly(nvars, {full[u]: Trop(c) for u, c in terms.items()}), sigma


@settings(max_examples=120, deadline=None)
@given(st.one_of(dense_poly_in_stratum(), poly_in_stratum(), near_chord_poly_in_stratum()))
def test_chord_screen_keeps_every_vertex(case):
    # a vertex's region is the cell with a one-element tie set, and cells are
    # listed in term order
    f, sigma = case
    if f.is_inf:
        return
    free = [i for i in range(f.num_vars) if i not in sigma]
    screened = [tuple(u[i] for i in free) for cell in normal_complex(f, sigma).cells
                if len(cell.label) == 1 for u in cell.label]
    assert screened == vertices_unscreened(f, sigma)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dense_poly_in_stratum(), poly_in_stratum(), near_chord_poly_in_stratum()))
def test_normal_complex_faces_are_read_off_tie_sets(case):
    # refine walks a normal complex by label containment, which must be the
    # face relation: b's closed rows hold at a's witness exactly when b's tie
    # set lies inside a's
    f, sigma = case
    cells = normal_complex(f, sigma).cells
    points = [_scaled(cell.relint_point()) for cell in cells]
    for (a, pa), (b, pb) in itertools.combinations(zip(cells, points), 2):
        assert (b.label <= a.label) == _holds(b.eqs, b.ineqs, *pa)
        assert (a.label <= b.label) == _holds(a.eqs, a.ineqs, *pb)


@settings(max_examples=120, deadline=None)
@given(st.one_of(near_chord_poly_in_stratum(), dense_poly_in_stratum(), poly_in_stratum()),
       st.randoms(use_true_random=False))
def test_vertex_only_cores_match_all_term_cores(case, rng):
    # a core ties only the vertices of its tie set T; where they tie at the
    # minimum, every term of T ties too, on their face of the lower hull, so
    # the core that ties every term of T cuts out the same set
    f, sigma = case
    if f.is_inf:
        return
    free = [i for i in range(f.num_vars) if i not in sigma]
    terms = merged_terms(f, sigma)
    scale = math.lcm(*(c.denominator for _, c in terms))
    int_terms = [(u, int(c * scale)) for u, c in terms]
    index = {u: t for t, (u, _) in enumerate(terms)}
    cells = normal_complex(f, sigma).cells
    ties = [frozenset(index[tuple(u[i] for i in free)] for u in cell.label) for cell in cells]
    vertices = sorted(t for T in ties if len(T) == 1 for t in T)
    points = [_scaled(p) for p in probe_points(cells, len(free), rng)]
    for cell, T in zip(cells, ties):
        full = (_tie_system(int_terms, scale, T)[0],
                _tie_system(int_terms, scale, T, rows=vertices)[1])
        assert fm_solve(len(free), cell.core[0], [], cell.core[1]) == \
            fm_solve(len(free), full[0], [], full[1])
        for P, q in points:
            assert _holds(*cell.core, P, q, strict=True) == _holds(*full, P, q, strict=True)


@st.composite
def poly_pair_in_stratum(draw):
    """(f, g, monomial, sigma): f from poly_in_stratum, g and the monomial
    with exponents up to 1 on the free coordinates only.  f * f puts terms
    on the faces of f's lifted hull."""
    f, sigma = draw(poly_in_stratum())
    exps = st.tuples(*[st.just(0) if i in sigma else st.integers(0, 1)
                       for i in range(f.num_vars)])
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    g = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    return f, poly(g.items(), f.num_vars), poly([(draw(exps), draw(coeffs))], f.num_vars), sigma


@settings(max_examples=40, deadline=None)
@given(poly_pair_in_stratum())
@example((poly([((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((2, 0), 1), ((1, 1), 3)], 2),
          poly([((0, 0), 1), ((0, 1), 0), ((1, 1), -1)], 2),
          poly([((1, 2), Fraction(1, 2))], 2), set()))
def test_refine_decides_contained_cores_without_solving(case):
    # f squared and f times a monomial give f's subdivision with the same
    # canonical cores, so each prefix's core lies in its start's and refine
    # solves only the first complex's vertex regions, whose witnesses no
    # builder handed over; f times g refines f's complex, and g is unrelated
    f, g, mono, sigma = case
    A = normal_complex(f, sigma)
    for other, same in ((f * f, True), (f * mono, True), (f * g, False), (g, False)):
        B = normal_complex(other, sigma)
        unsolved = sum(not cell._solved for cell in A.cells)
        solves = []

        def counting(*args):
            solves.append(args)
            return fm_solve(*args)

        with mock.patch.object(polyhedra, "fm_solve", counting):
            R = refine([A, B])
        assert_same_refinement(R, refine_by_product([A, B]))
        if same:
            assert len(solves) == unsolved


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
    assert normal_complex(f, budget=Budget(n)).cell_count() == cells
    for cap in (1, n - 1):
        solves.clear()
        with pytest.raises(SizeGuardError, match="normal complex"):
            normal_complex(f, budget=Budget(cap))
        assert len(solves) == cap


def test_membership_on_tight_rows_and_outside():
    # the square 0 <= w <= 1: corner, edge, interior and outside points
    sq = Cell(2, (), [], [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    half, third = Fraction(1, 2), Fraction(1, 3)
    for point, closed in [((half, third), True), ((0, third), True), ((0, 0), True),
                          ((1, Fraction(4, 3)), False)]:
        assert _holds(sq.eqs, sq.ineqs, *_scaled(point)) is closed
        assert contains_by_fractions(sq, point, relint=False) is closed
    edge = Cell(2, (), [((1, 0), 0)], [((0, -1), 0), ((0, 1), 1)])
    for point, closed in [((0, half), True), ((0, 1), True), ((Fraction(1, 7), half), False)]:
        assert _holds(edge.eqs, edge.ineqs, *_scaled(point)) is closed
        assert contains_by_fractions(edge, point, relint=False) is closed


def test_quotient_lineality():
    # the diagonal fan: cells of x0 + x1 (homogeneous)
    f = poly([((1, 0), 0), ((0, 1), 0)], 2)
    cells = [quotient_lineality(cell) for cell in normal_complex(f).cells]
    assert len(cells) == 3
    assert sorted(c.dim() for c in cells) == [0, 1, 1]
    assert all(c.free == (0,) for c in cells)
    assert quotient_lineality(Cell(2, (), [], [])).dim() == 1
    assert quotient_lineality(Cell(3, {1}, [], [])).free == (0,)


def test_quotient_rejects_non_invariant():
    with pytest.raises(InvariantViolationError):
        quotient_lineality(Cell(2, (), [], [((1, 0), 0)]))
    # the rows hold the all-ones line but the given core does not: the
    # quotient maps the core too, so it checks the core's rows as well
    with pytest.raises(InvariantViolationError):
        quotient_lineality(Cell(2, (), [], [((1, -1), 0)], core=((), [((1, 0), 0)])))


def test_quotient_rejects_a_quotiented_or_zero_dimensional_cell():
    # a quotiented cell has fewer free coordinates than its stratum
    for cell in (quotient_lineality(Cell(2, (), [], [])), Cell(3, {1}, [], [], free=(0,))):
        with pytest.raises(InputError, match="already quotiented"):
            quotient_lineality(cell)
    with pytest.raises(InputError, match="zero-dimensional"):
        quotient_lineality(Cell(2, {0, 1}, [], []))


def test_weight_to_cell_coords():
    cell = Cell(3, {1}, [], [])
    w = (Trop(2), INF, Trop(5))
    assert weight_to_cell_coords(cell, w) == (Fraction(2), Fraction(5))
    assert weight_to_cell_coords(cell, (Trop(1), Trop(1), Trop(1))) is None
    qcell = Cell(3, {1}, [], [], free=(0,))
    assert weight_to_cell_coords(qcell, w) == (Fraction(-3),)
