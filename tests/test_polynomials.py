import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropideal.errors import DimensionError, InputError
from tropideal.ideals import QPoly
from tropideal.monomials import grlex_key, label, monomials_of_degree
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop

from oracles import evaluate, merge_terms, min_twice


def T(*pairs, nvars=None):
    nvars = nvars if nvars is not None else len(pairs[0][0])
    return TropPoly(nvars, {u: Trop(c) for u, c in pairs})


def test_monomial_order_is_graded_lex():
    assert monomials_of_degree(3, 2)[:3] == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    ms = [u for d in range(3) for u in monomials_of_degree(2, d)]
    assert ms == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert ms == sorted(ms, key=grlex_key)


def test_monomial_labels_round_trip():
    assert label((2, 0, 1)) == "x0^2*x2"
    assert label((0, 0)) == "1"


def test_terms_drop_infinite_coefficients():
    f = TropPoly(2, {(1, 0): Trop(1), (0, 1): INF})
    assert f.support() == [(1, 0)]
    assert TropPoly(2).is_inf


def test_eval_examples():
    # direct term-by-term: min(0 + 2w, 0) at w = 1 is min(2, 0) = 0
    f = T(((2,), 0), ((0,), 0))
    assert evaluate(f, (Trop(1),)) == Trop(0)
    assert evaluate(TropPoly(1), (Trop(5),)) == INF
    g = T(((1, 0), 0), ((0, 1), 0))
    assert evaluate(g, (INF, Trop(3))) == Trop(3)
    with pytest.raises(DimensionError):
        evaluate(f, (Trop(1), Trop(2)))


def test_initial_form_examples():
    f = T(((2,), 0), ((0,), 0))
    assert f.initial_form((Trop(1),)) == frozenset({(0,)})
    g = T(((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))
    assert g.initial_form((Trop(0), Trop(0), Trop(0))) == frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    h = T(((1, 0), 0), ((0, 1), 0))
    assert h.initial_form((INF, Trop(0))) == frozenset({(0, 1)})
    with pytest.raises(InputError):
        h.initial_form((INF, INF))
    with pytest.raises(DimensionError):
        h.initial_form((Trop(0),))


def test_min_twice_examples():
    f = T(((1, 0), 0), ((0, 1), 0), ((0, 0), 0))
    assert min_twice(f, (Trop(0), Trop(0)))
    # min(1, 2, 0) = 0 attained once
    assert not min_twice(f, (Trop(1), Trop(2)))
    assert min_twice(TropPoly(2), (Trop(1), Trop(1)))


def test_strip_sigma_examples():
    f = T(((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))
    assert f.strip_sigma({0}) == T(((0, 1, 0), 0), ((0, 0, 1), 0))
    g = T(((1, 1), 0), ((0, 2), 0))
    assert g.strip_sigma({0}) == T(((0, 2), 0), nvars=2)
    assert T(((2, 0), 0), nvars=2).strip_sigma({0}).is_inf


def test_initial_form_of_combination():
    # when a*f and b*g have the same finite value at w, initial forms unite
    rng = random.Random(11)
    for _ in range(100):
        terms_f = {(rng.randint(0, 3), rng.randint(0, 3)): Trop(rng.randint(-5, 5)) for _ in range(3)}
        terms_g = {(rng.randint(0, 3), rng.randint(0, 3)): Trop(rng.randint(-5, 5)) for _ in range(3)}
        f, g = TropPoly(2, terms_f), TropPoly(2, terms_g)
        w = (Trop(Fraction(rng.randint(-4, 4), rng.randint(1, 3))), Trop(rng.randint(-4, 4)))
        fv, gv = evaluate(f, w), evaluate(g, w)
        if fv.is_inf or gv.is_inf:
            continue
        # pick a, b with a + f(w) = b + g(w) = 0
        a = TropPoly(2, {(0, 0): Trop(-fv.value)})
        b = TropPoly(2, {(0, 0): Trop(-gv.value)})
        combo = f * a + g * b
        assert combo.initial_form(w) == f.initial_form(w) | g.initial_form(w)


def test_initial_form_of_variable_multiple():
    rng = random.Random(13)
    for _ in range(100):
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): Trop(rng.randint(-5, 5)) for _ in range(4)}
        f = TropPoly(2, terms)
        w = (Trop(rng.randint(-4, 4)), Trop(rng.randint(-4, 4)))
        i = rng.randint(0, 1)
        shifted = f * TropPoly(2, {(1, 0) if i == 0 else (0, 1): Trop(0)})
        expected = frozenset(
            (u[0] + (1 - i * 1), u[1]) if i == 0 else (u[0], u[1] + 1)
            for u in f.initial_form(w)
        )
        assert shifted.initial_form(w) == expected


def test_product_and_sum_are_exact():
    f = T(((1, 0), Fraction(1, 3)), ((0, 1), 0))
    g = T(((1, 0), 0), ((0, 0), Fraction(-1, 3)))
    fg = f * g
    assert fg.coeff((2, 0)) == Trop(Fraction(1, 3))
    assert fg.coeff((1, 1)) == Trop(0)
    assert fg.coeff((1, 0)) == Trop(0)  # min(1/3 - 1/3, ...) merged
    assert fg.coeff((0, 1)) == Trop(Fraction(-1, 3))
    assert (f + g).coeff((1, 0)) == Trop(0)


def _exp_sum(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _polys(nv, coeffs):
    """Up to 8 terms with exponents in 0..2, so sums and products often land
    on one exponent."""
    exps = st.tuples(*[st.integers(0, 2)] * nv)
    return st.dictionaries(exps, coeffs, max_size=8)


_trop = st.fractions(-5, 5, max_denominator=4).map(Trop)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda nv: st.tuples(
    st.just(nv), _polys(nv, _trop), _polys(nv, _trop))))
@example((1, {(1,): Trop(0)}, {(1,): Trop(3)}))
def test_operators_merge_repeated_exponents_by_min(case):
    nv, tf, tg = case
    f, g = TropPoly(nv, tf), TropPoly(nv, tg)
    assert f + g == TropPoly(nv, merge_terms([*tf.items(), *tg.items()], min))
    product = [(_exp_sum(u, v), Trop(a.value + b.value))
               for u, a in tf.items() for v, b in tg.items()]
    assert f * g == TropPoly(nv, merge_terms(product, min))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda nv: st.tuples(
    st.just(nv), _polys(nv, st.integers(-3, 3)), _polys(nv, st.integers(-3, 3)))))
def test_qpoly_product_sums_repeated_exponents(case):
    nv, cf, cg = case
    product = merge_terms([(_exp_sum(u, v), Fraction(a * b)) for u, a in cf.items()
                           for v, b in cg.items()], operator.add)
    assert (QPoly(nv, cf) * QPoly(nv, cg)).coeffs == {u: c for u, c in product.items() if c}


def test_qpoly_product_drops_cancelled_terms():
    x0, x1 = (1, 0), (0, 1)
    p = QPoly(2, {x0: 1, x1: 1}) * QPoly(2, {x0: 1, x1: -1})
    assert p.coeffs == {(2, 0): 1, (0, 2): -1}
