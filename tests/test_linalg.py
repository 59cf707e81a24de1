import itertools
import random

import pytest

from tropideal.linalg import echelon

sympy = pytest.importorskip("sympy")


def random_matrix(rng):
    """Random integer rows: sparse, or a random mix of a few basis rows (rank-deficient)."""
    n, m = rng.randint(1, 6), rng.randint(1, 7)
    if rng.random() < 0.5:
        return [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(m)]
                for _ in range(n)]
    basis = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(rng.randint(0, min(n, m)))]
    return [[sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(m)]
            for _ in range(n)]


def check_against_sympy(rows):
    pivots, reduced, d = echelon(rows)
    M = sympy.Matrix(rows)
    R, sympy_pivots = M.rref()
    assert tuple(pivots) == sympy_pivots
    assert d != 0 and len(reduced) == len(pivots)
    for i, row in enumerate(reduced):
        assert all(isinstance(x, int) for x in row)
        assert [sympy.Rational(x, d) for x in row] == list(R.row(i))
    if M.rows == M.cols:
        det = M.det()
        assert (len(pivots) == M.rows and abs(d) == abs(det)) or (len(pivots) < M.rows
                                                                 and det == 0)


def test_echelon_matches_sympy_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(1500):
        check_against_sympy(random_matrix(rng))


@pytest.mark.parametrize("rows", [
    [[0, 0, 3], [0, 2, 1], [4, 1, 1]],      # every pivot needs a row swap
    [[0, 0], [0, 0]],                       # zero rows
    [[2, 4, 6], [1, 2, 3], [0, 0, 5]],      # rank-deficient, pivot skips a column
    [[6, 4], [3, 2], [0, 0], [9, 6]],       # more rows than rank
    [[5]],
])
def test_echelon_edge_cases(rows):
    check_against_sympy(rows)


def test_echelon_empty_input():
    assert echelon([]) == ([], [], 1)
    assert echelon([[0, 0, 0]]) == ([], [], 1)


def test_echelon_d_is_a_pivot_block_determinant():
    rng = random.Random(7)
    for _ in range(300):
        rows = random_matrix(rng)
        pivots, _, d = echelon(rows)
        if not pivots:
            continue
        dets = {abs(sympy.Matrix([[rows[i][c] for c in pivots] for i in subset]).det())
                for subset in itertools.combinations(range(len(rows)), len(pivots))}
        assert abs(d) in dets
