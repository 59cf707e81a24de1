import operator
import random
from fractions import Fraction

import pytest

from tropideal.errors import DimensionError, ParseError
from tropideal.semiring import INF, Trop, dot, parse_ratio, weight_sigma


def rand_scalar(rng):
    if rng.random() < 0.2:
        return INF
    return Trop(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))


def test_identities():
    a = Trop(Fraction(3, 2))
    assert a + INF == a
    assert INF + a == a
    assert a * Trop(0) == a
    assert a * INF == INF
    assert INF * INF == INF


def test_order_infinity_largest():
    assert Trop(5) < INF
    assert not INF < Trop(5)
    assert INF <= INF
    assert max(Trop(1), INF) == INF


def test_comparisons_reflect_and_reject_other_types():
    # > and >= are the swapped < and <=; against an int every order raises
    scalars = [INF, Trop(-1), Trop(Fraction(1, 2)), Trop(3)]
    for a in scalars:
        for b in scalars:
            assert (a > b) == (b < a)
            assert (a >= b) == (b <= a)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((Trop(1), 3), (3, Trop(1)), (INF, 3)):
            with pytest.raises(TypeError):
                op(a, b)


def test_semiring_laws_randomized():
    rng = random.Random(20240517)
    for _ in range(500):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + a == a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_dot_convention():
    # infinity times zero exponent contributes nothing
    assert dot((INF, Trop(3)), (0, 1)) == Trop(3)
    assert dot((INF, Trop(3)), (1, 1)) == INF
    assert dot((Trop(Fraction(1, 2)), Trop(1)), (2, 3)) == Trop(4)
    with pytest.raises(DimensionError):
        dot((Trop(1),), (1, 2))


def test_weight_sigma():
    assert weight_sigma((Trop(0), INF, Trop(2))) == frozenset({1})


def test_parse_and_format():
    assert Trop.parse("3/4") == Trop(Fraction(3, 4))
    assert Trop.parse("-2") == Trop(-2)
    assert Trop.parse("inf") == INF
    assert Trop.parse(7) == Trop(7)
    assert str(Trop(Fraction(6, 4))) == "3/2"
    assert str(INF) == "inf"
    for bad in ("1.5", "x", "", None, 1.5, True):
        with pytest.raises(ParseError):
            Trop.parse(bad)


def test_parse_ratio_keeps_the_written_pair():
    assert parse_ratio("2/4") == (2, 4)
    assert parse_ratio("-5/6") == (-5, 6)
    assert parse_ratio("-0") == (0, 1)
    assert parse_ratio(-3) == (-3, 1)
    for bad in ("inf", "1/0", "1/02", "+1", "\u0663", "5\n", "1/2\n", True, 2.0):
        with pytest.raises(ParseError):
            parse_ratio(bad)
