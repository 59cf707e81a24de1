import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate, least_coefficients_by_chords, poly_from_roots
from tropideal.config import Budget
from tropideal.errors import DegenerateInputError, SizeGuardError
from tropideal.polynomials import TropPoly, least_coefficients, tropical_roots
from tropideal.semiring import Trop


def U(pairs):
    return TropPoly(1, {(e,): Trop(c) for e, c in pairs})


def roots_by_breakpoint_scan(f):
    """Independent oracle: candidate roots come from pairwise breakpoints;
    the multiplicity at a root is the gap between the extreme argmin exponents."""
    coeffs = {u[0]: c.value for u, c in f.terms()}
    exps = sorted(coeffs)
    candidates = set()
    for i in exps:
        for k in exps:
            if i < k:
                candidates.add(Fraction(coeffs[i] - coeffs[k], k - i))
    roots = []
    for w in sorted(candidates):
        values = {j: coeffs[j] + j * w for j in exps}
        m = min(values.values())
        arg = [j for j, v in values.items() if v == m]
        if len(arg) >= 2:
            roots.append((w, max(arg) - min(arg)))
    return roots


def test_least_coefficients_known_value():
    f = U([(2, 0), (1, 7), (0, 1)])
    assert least_coefficients(f) == U([(2, 0), (1, Fraction(1, 2)), (0, 1)])


def test_least_coefficients_already_least():
    assert least_coefficients(U([(1, 0), (0, 0)])) == U([(1, 0), (0, 0)])
    f = U([(2, 1), (1, 0), (0, 3)])
    # chord through (0,3) and (2,1) at exponent 1 is 2 > 0, so nothing moves
    assert least_coefficients(f) == f


def test_least_coefficients_preserves_ends_and_function():
    rng = random.Random(101)
    for _ in range(100):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        f = U([(e, Fraction(rng.randint(-12, 12), rng.randint(1, 4))) for e in exps])
        g = least_coefficients(f)
        assert g.coeff((min(exps),)) == f.coeff((min(exps),))
        assert g.coeff((max(exps),)) == f.coeff((max(exps),))
        for _ in range(10):
            q = (Trop(Fraction(rng.randint(-40, 40), rng.randint(1, 6))),)
            assert evaluate(f, q) == evaluate(g, q)


def test_least_coefficients_function_equality_dense():
    rng = random.Random(919)
    f = U([(3, 5), (2, -1), (0, 2)])
    g = least_coefficients(f)
    for _ in range(1000):
        q = (Trop(Fraction(rng.randint(-600, 600), rng.randint(1, 13))),)
        assert evaluate(f, q) == evaluate(g, q)


def test_least_coefficients_idempotent():
    rng = random.Random(202)
    for _ in range(60):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        f = U([(e, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for e in exps])
        g = least_coefficients(f)
        assert least_coefficients(g) == g


def test_least_coefficients_g_squared_identity():
    rng = random.Random(303)
    for _ in range(200):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        f = U([(e, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for e in exps])
        g = least_coefficients(f)
        assert g * f == g * g


def test_tropical_roots_examples():
    assert tropical_roots(U([(2, 0), (0, 1)])) == [(Fraction(1, 2), 2)]
    assert tropical_roots(U([(1, 0), (0, 0)])) == [(Fraction(0), 1)]
    assert tropical_roots(U([(2, 1), (1, 0), (0, 3)])) == [(Fraction(-1), 1), (Fraction(3), 1)]


def test_tropical_roots_against_breakpoint_scan():
    rng = random.Random(404)
    for _ in range(200):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        f = U([(e, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for e in exps])
        assert tropical_roots(f) == roots_by_breakpoint_scan(f)


def test_root_expansion_recovers_least_coefficients():
    rng = random.Random(505)
    for _ in range(200):
        exps = sorted(rng.sample(range(7), rng.randint(1, 7)))
        f = U([(e, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for e in exps])
        roots = tropical_roots(f)
        leading = f.coeff((max(exps),))
        rebuilt = poly_from_roots(leading, roots, x_power=min(exps))
        assert rebuilt == least_coefficients(f)


def test_multiplicities_are_positive_integers():
    rng = random.Random(606)
    for _ in range(100):
        exps = sorted(rng.sample(range(7), rng.randint(2, 7)))
        f = U([(e, Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for e in exps])
        for _, m in tropical_roots(f):
            assert isinstance(m, int) and m >= 1


def test_empty_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        least_coefficients(TropPoly(1))
    with pytest.raises(DegenerateInputError):
        tropical_roots(TropPoly(1))


def test_least_coefficients_charges_the_cap():
    f = U([(10 ** 3, 0), (0, 1)])
    with pytest.raises(SizeGuardError):
        least_coefficients(f, budget=Budget(1000))
    least_coefficients(f, budget=Budget(1001))  # one unit per coefficient written


def test_tropical_roots_of_a_wide_binomial_is_one_edge():
    f = U([(10 ** 7, 0), (0, 1)])
    start = time.perf_counter()
    assert tropical_roots(f) == [(Fraction(1, 10 ** 7), 10 ** 7)]
    assert time.perf_counter() - start < 0.1


@st.composite
def sparse_univariate(draw):
    """Up to 12 exponents in 0..60 with rational coefficients: some on one
    common line, the rest off it, and up to three middle points of triples
    moved onto their chord."""
    exps = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=12)))
    ratio = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    base, slope = draw(ratio), draw(ratio)
    b = {e: base + slope * e + draw(st.one_of(st.just(Fraction(0)), ratio)) for e in exps}
    if len(exps) >= 3:
        for _ in range(draw(st.integers(0, 3))):
            i, j, k = sorted(draw(st.lists(st.sampled_from(exps), min_size=3, max_size=3,
                                           unique=True)))
            b[j] = (b[i] * (k - j) + b[k] * (j - i)) / (k - i)
    return U(b.items())


@settings(max_examples=150, deadline=None)
@given(sparse_univariate())
def test_hull_matches_the_chord_scan(f):
    expected = least_coefficients_by_chords(f)
    assert least_coefficients(f) == expected
    exps = [u[0] for u in f.support()]
    leading = f.coeff((max(exps),))
    assert poly_from_roots(leading, tropical_roots(f), x_power=min(exps)) == expected
