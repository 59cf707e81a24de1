import random
from fractions import Fraction

import pytest

from tropideal.errors import DegenerateInputError, SizeGuardError
from tropideal.polynomials import (TropPoly, least_coefficients,
                                   poly_from_roots, tropical_roots)
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
            assert f.evaluate(q) == g.evaluate(q)


def test_least_coefficients_function_equality_dense():
    rng = random.Random(919)
    f = U([(3, 5), (2, -1), (0, 2)])
    g = least_coefficients(f)
    for _ in range(1000):
        q = (Trop(Fraction(rng.randint(-600, 600), rng.randint(1, 13))),)
        assert f.evaluate(q) == g.evaluate(q)


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
        least_coefficients(TropPoly.infinity(1))
    with pytest.raises(DegenerateInputError):
        tropical_roots(TropPoly.infinity(1))


def test_least_coefficients_charges_the_cap():
    f = U([(10 ** 3, 0), (0, 1)])
    for run in (least_coefficients, tropical_roots):
        with pytest.raises(SizeGuardError):
            run(f, cap=4003)
        run(f, cap=4004)  # (top + 1) * terms**2 steps
