import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import tropideal.matroids as matroids
from tropideal.config import Budget
from tropideal.errors import InvalidMatroidError, PreconditionError, SizeGuardError
from tropideal.ideals import nonrealizable_ideal
from tropideal.jsonio import vmatroid_from_json
from tropideal.matroids import VMatroid, check_valuated_exchange, circuits, is_vector
from tropideal.semiring import INF, Trop

from oracles import (circuit_elimination_witness, circuit_supports, contract,
                     exchange_by_quantifier, exchange_holds_at, fundamental_circuit,
                     initial_matroid_by_fractions, loops, vector_elimination_witness)


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def uniform(ground, r):
    return VMatroid(ground, r, {frozenset(B): 0 for B in itertools.combinations(ground, r)})


def pair_matroid(vals):
    """Rank 2 on {1,2,3,4} with arbitrary finite values per 2-subset."""
    return VMatroid((1, 2, 3, 4), 2, {frozenset(k): v for k, v in vals.items()})


def test_exchange_uniform_ok():
    assert check_valuated_exchange(uniform("abc", 2)) is None


def test_exchange_plucker_ok():
    # three-term relation min(p12+p34, p13+p24, p14+p23) = min(2, 0, 0): twice
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    assert check_valuated_exchange(M) is None


def test_exchange_violation_witnessed():
    # min(-2, 0, 0) attained once
    vals = {(1, 2): -1, (3, 4): -1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    witness = check_valuated_exchange(M)
    assert witness is not None
    A, B, a = witness
    # the witness really fails: no valid b
    assert a in A - B
    for b in B - A:
        v1 = M.value((A - {a}) | {b})
        v2 = M.value((B - {b}) | {a})
        assert v1.is_inf or v2.is_inf or M.value(A) * M.value(B) < v1 * v2


def test_no_finite_basis_rejected():
    with pytest.raises(InvalidMatroidError):
        VMatroid("ab", 1, {})


def test_fundamental_circuit_uniform():
    M = uniform("abc", 2)
    H = fundamental_circuit(M, frozenset("ab"), "c")
    assert H == (Trop(0), Trop(0), Trop(0))


def test_fundamental_circuit_support_stays_in_basis_plus_element():
    # sets larger than the rank have infinite value, so coordinate 4 is infinite
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    H = fundamental_circuit(M, frozenset({1, 3}), 2)
    assert H == (Trop(0), Trop(0), Trop(1), INF)


def test_fundamental_circuit_rank_one():
    M = VMatroid("ab", 1, {frozenset("a"): 0, frozenset("b"): 2})
    H = fundamental_circuit(M, frozenset("a"), "b")
    assert H == (Trop(2), Trop(0))


def test_fundamental_circuit_preconditions():
    M = uniform("abc", 2)
    with pytest.raises(PreconditionError):
        fundamental_circuit(M, frozenset("ab"), "a")
    N = VMatroid("abc", 2, {frozenset("ab"): 0})
    with pytest.raises(PreconditionError):
        fundamental_circuit(N, frozenset("ac"), "b")


def test_circuits_uniform_single():
    assert circuits(uniform("abc", 2)) == [(Trop(0), Trop(0), Trop(0))]


def test_circuits_rank_one():
    M = VMatroid("ab", 1, {frozenset("a"): 0, frozenset("b"): 0})
    assert circuits(M) == [(Trop(0), Trop(0))]


def first_fundamental_circuits(M):
    """Oracle: every fundamental circuit in (basis mask, element) order, the
    first one kept per support, listed by support mask."""
    first = {}
    for B in M.basis_masks():
        for e in range(len(M.ground)):
            if not (B >> e) & 1:
                H = fundamental_circuit(M, B, M.ground[e])
                first.setdefault(sum(1 << i for i, c in enumerate(H) if not c.is_inf), H)
    return [first[m] for m in sorted(first)]


def test_circuits_first_fundamental_circuit_per_support():
    rng = random.Random(31)
    cases = []
    for _ in range(120):
        n = rng.randint(3, 7)
        r = rng.randint(1, n - 1)
        vals = {frozenset(S): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for S in itertools.combinations(range(n), r) if rng.random() < 0.6}
        if vals:
            cases.append(VMatroid(range(n), r, vals))
    # layers of a tower, and two disjoint rank-3 blocks (not a matroid): in
    # both, many pairs (B, e) give one set B + e
    cases.extend(nonrealizable_ideal(2, 3).layers)
    n, bases = _blocks((5, 6), 3, shared=0)
    blocks = VMatroid(range(n), 3, {frozenset(B): Fraction(sum(B) % 5, 1 + sum(B) % 2)
                                    for B in bases})
    pairs = [B | (1 << e) for B in blocks.basis_masks() for e in range(n) if not (B >> e) & 1]
    assert len(set(pairs)) < len(pairs)
    cases.append(blocks)
    for M in cases:
        assert circuits(M) == first_fundamental_circuits(M)


def test_is_vector_examples():
    M = uniform("xyz", 2)
    assert is_vector(M, (Trop(0), Trop(0), Trop(0)))
    assert not is_vector(M, (Trop(0), Trop(1), INF))
    assert is_vector(M, (INF, INF, INF))


def test_circuits_are_vectors_and_combinations_too():
    rng = random.Random(71)
    vals = {(1, 2): Fraction(1, 2), (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    cs = circuits(M)
    for H in cs:
        assert is_vector(M, H)
    for _ in range(50):
        picks = rng.sample(cs, rng.randint(1, min(3, len(cs))))
        lams = [Trop(rng.randint(-3, 3)) for _ in picks]
        combo = tuple(
            min((lam * H[i] for lam, H in zip(lams, picks)))
            for i in range(4)
        )
        assert is_vector(M, combo)


def test_initial_matroid_examples():
    M = uniform("abc", 2)
    N = initial_matroid_by_fractions(M, [0, 0, 1])
    assert N.bases_as_sets() == [frozenset("ac"), frozenset("bc")]
    assert circuit_supports(N) == [frozenset("ab")]
    N2 = initial_matroid_by_fractions(M, [0, 1, 2])
    assert N2.bases_as_sets() == [frozenset("bc")]
    assert circuit_supports(N2) == [frozenset("a")]
    assert loops(N2) == ["a"]
    N3 = initial_matroid_by_fractions(M, [0, 0, 0])
    assert N3 == VMatroid.from_bases(M.ground, M.basis_masks())


def test_initial_matroid_bases_are_bases_of_underlying():
    rng = random.Random(17)
    for _ in range(30):
        vals = {}
        for k in itertools.combinations(range(5), 3):
            if rng.random() < 0.8:
                vals[frozenset(k)] = Fraction(rng.randint(-3, 3))
        try:
            M = VMatroid(range(5), 3, vals)
        except InvalidMatroidError:
            continue
        if check_valuated_exchange(M) is not None:
            continue
        w = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        N = initial_matroid_by_fractions(M, w)
        assert N.rank == M.rank
        assert set(N.basis_masks()) <= set(M.basis_masks())


def test_initial_circuits_are_minimal_initial_forms_of_circuits():
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    w = [Fraction(0), Fraction(1), Fraction(0), Fraction(2)]
    N = initial_matroid_by_fractions(M, w)
    inits = set()
    for H in circuits(M):
        vals_at = [(H[i].value + w[i]) if not H[i].is_inf else None for i in range(4)]
        finite = [v for v in vals_at if v is not None]
        m = min(finite)
        inits.add(frozenset(i + 1 for i, v in enumerate(vals_at) if v == m))
    minimal = {s for s in inits if not any(t < s for t in inits)}
    assert set(circuit_supports(N)) == minimal


def test_contract_examples():
    M = uniform("abc", 2)
    C = contract(M, "a")
    assert C.ground == ("b", "c") and C.rank == 1
    assert C.basis_masks() == [1, 2]
    assert contract(M, ()) == M
    Z = contract(M, "abc")
    assert Z.ground == () and Z.rank == 0


def test_contract_vectors_are_restrictions():
    rng = random.Random(23)
    vals = {(1, 2): Fraction(1, 2), (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    C = contract(M, (1,))
    for H in circuits(M):
        restricted = H[1:]
        assert is_vector(C, restricted)
    for _ in range(20):
        cs = circuits(M)
        picks = rng.sample(cs, 2)
        combo = tuple(min(picks[0][i], picks[1][i]) for i in range(4))
        assert is_vector(C, combo[1:])


def test_circuit_elimination_axiom_exhaustive():
    # every axiom instance up to global scaling: rescale H so G_e = H_e
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    checked = 0
    for M in (uniform("abcd", 2), pair_matroid(vals)):
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
                    assert F is not None, (G, H, e, ep)
                    assert F[e].is_inf and F[ep] == G[ep]
                    assert all(F[i] >= min(G[i], H[i]) for i in range(n))
                    checked += 1
    assert checked > 0


def test_three_term_scan_agrees_with_direct_exchange():
    # the two implementations must give the same verdict on random inputs
    from tropideal.config import Budget
    from tropideal.matroids import _exchange_three_term
    rng = random.Random(2024)
    checked = violations = 0
    for _ in range(400):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        vals = {}
        for S in itertools.combinations(range(n), r):
            if rng.random() < rng.choice([0.4, 0.8, 1.0]):
                vals[frozenset(S)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if not vals:
            continue
        M = VMatroid(range(n), r, vals)
        brute = exchange_by_quantifier(M)
        fast = _exchange_three_term(M, Budget())
        assert (brute is None) == (fast is None)
        if fast is not None:
            A, B, a = fast
            Am = sum(1 << M.ground.index(e) for e in A)
            Bm = sum(1 << M.ground.index(e) for e in B)
            assert not exchange_holds_at(M._val, Am, Bm, M.ground.index(a))
            violations += 1
        checked += 1
    assert checked > 300 and violations > 100


def stiefel_valuation(A, B):
    """Tropical determinant of the columns B of A: a valuated matroid on the columns."""
    return min(sum(A[row][col] for row, col in zip(range(len(A)), perm))
               for perm in itertools.permutations(B))


def exchange_verdicts_agree(M):
    """The integer three-term scan and the direct quantifier agree on M."""
    fast = check_valuated_exchange(M)
    assert (fast is None) == (exchange_by_quantifier(M) is None)
    if fast is not None:
        A, B, a = fast
        assert a in A - B
        for b in B - A:
            v1 = M.value((A - {a}) | {b})
            v2 = M.value((B - {b}) | {a})
            assert v1.is_inf or v2.is_inf or M.value(A) * M.value(B) < v1 * v2
    return fast is None


def test_integer_three_term_scan_matches_bruteforce_on_uniform_support():
    # every r-set is a basis, so the three-term relations are equivalent to
    # exchange; Fraction values make the scan scale by their common denominator
    rng = random.Random(4242)
    valid = invalid = 0
    for _ in range(150):
        n = rng.randint(4, 7)
        r = rng.randint(2, min(3, n - 2))
        A = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(r)]
        vals = {B: stiefel_valuation(A, B) for B in itertools.combinations(range(n), r)}
        if rng.random() < 0.5:  # perturb a few bases; usually breaks exchange
            for B in rng.sample(sorted(vals), 2):
                vals[B] += Fraction(rng.choice([-1, 1]), rng.randint(2, 6))
        M = VMatroid(range(n), r, {frozenset(B): v for B, v in vals.items()})
        if exchange_verdicts_agree(M):
            valid += 1
        else:
            invalid += 1
    assert valid > 50 and invalid > 30


def test_three_term_scan_keeps_fraction_ties():
    # p12 + p34 = 1/2 + 1/3 ties p13 + p24 = 5/6 + 0 below p14 + p23 = 1
    vals = {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 3), (1, 3): Fraction(5, 6),
            (2, 4): 0, (1, 4): 1, (2, 3): 0}
    assert exchange_verdicts_agree(pair_matroid(vals))
    vals[(1, 3)] = Fraction(6, 7)  # the tie breaks: 5/6 is attained once
    assert not exchange_verdicts_agree(pair_matroid(vals))


def three_term_by_full_scan(M):
    """Oracle: the three-term scan over every (r-2)-set S and every i<j<k<l outside S."""
    n, r = len(M.ground), M.rank
    if r < 2 or n - r < 2:
        return None
    val = M._val
    inf = math.inf
    pv = [[inf] * n for _ in range(n)]
    for S in itertools.combinations(range(n), r - 2):
        smask = sum(1 << i for i in S)
        rest = [i for i in range(n) if not (smask >> i) & 1]
        for x, y in itertools.combinations(rest, 2):
            pv[x][y] = val.get(smask | (1 << x) | (1 << y), inf)
        for i, j, k, l in itertools.combinations(rest, 4):
            t1 = pv[i][j] + pv[k][l]
            t2 = pv[i][k] + pv[j][l]
            t3 = pv[i][l] + pv[j][k]
            if t1 < t2 and t1 < t3:
                A, B = (i, j), (k, l)
            elif t2 < t1 and t2 < t3:
                A, B = (i, k), (j, l)
            elif t3 < t1 and t3 < t2:
                A, B = (i, l), (j, k)
            else:
                continue
            return (frozenset(M.ground[e] for e in S + A),
                    frozenset(M.ground[e] for e in S + B), M.ground[i])
    return None


def assert_witness_fails(M, witness):
    A, B, a = witness
    assert a in A - B
    Am, Bm = (sum(1 << M.ground.index(e) for e in X) for X in (A, B))
    assert not exchange_holds_at(M._val, Am, Bm, M.ground.index(a))


def _stiefel_with_infinities(A, B):
    """Tropical determinant of the columns B of A, None standing for infinity."""
    best = None
    for perm in itertools.permutations(B):
        terms = [A[row][col] for row, col in enumerate(perm)]
        if None not in terms and (best is None or sum(terms) < best):
            best = sum(terms)
    return best


@st.composite
def matroid_supports(draw):
    """Valuations whose support is a matroid: uniform, or tropical Stiefel."""
    n = draw(st.integers(4, 8))
    r = draw(st.integers(2, min(4, n - 2)))
    sets = list(itertools.combinations(range(n), r))
    frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if draw(st.booleans()):
        vals = {B: draw(frac) if draw(st.booleans()) else 0 for B in sets}
    else:
        entry = st.one_of(frac, frac, st.none())
        A = [[draw(entry) for _ in range(n)] for _ in range(r)]
        vals = {B: _stiefel_with_infinities(A, B) for B in sets}
        vals = {B: v for B, v in vals.items() if v is not None}
        if not vals:
            vals = {sets[0]: 0}  # a single basis is a matroid too
        for B in draw(st.lists(st.sampled_from(sorted(vals)), max_size=2, unique=True)):
            vals[B] += draw(frac)
    return VMatroid(range(n), r, {frozenset(B): v for B, v in vals.items()})


def _two_dips():
    """U(4,6) with p = -1 at 0345 and 1245: S = {0,3} comes before {1,2} only
    in index-tuple order, not in mask order."""
    vals = {frozenset(B): 0 for B in itertools.combinations(range(6), 4)}
    vals[frozenset((0, 3, 4, 5))] = vals[frozenset((1, 2, 4, 5))] = -1
    return VMatroid(range(6), 4, vals)


@settings(max_examples=250, deadline=None)
@given(matroid_supports())
@example(_two_dips())
def test_basis_driven_scan_matches_full_scan_on_matroid_supports(M):
    fast = matroids._exchange_three_term(M, Budget())
    assert fast == three_term_by_full_scan(M)
    if fast is not None:
        assert_witness_fails(M, fast)


@st.composite
def class_twin_supports(draw):
    """A matroid support or any family of r-sets, with class twins planted.

    A twin x' of x with constant c: each r-set holding x' takes the value of
    the set with x in place of x', plus c, and is dropped when that set has
    none (always when it holds x too).  So p(S+x'+y) = p(S+x+y) + c for
    every S missing x and x'.  Planting into a valuated matroid gives a
    parallel extension, which passes; any other family mostly fails.
    """
    if draw(st.booleans()):
        M = draw(matroid_supports())
        n, r = len(M.ground), M.rank
        vals = dict(M.valuation_items())
    else:
        n = draw(st.integers(4, 8))
        r = draw(st.integers(2, min(4, n - 2)))
        masks = [sum(1 << i for i in S) for S in itertools.combinations(range(n), r)]
        chosen = draw(st.lists(st.sampled_from(masks), min_size=1, unique=True))
        vals = {m: Fraction(draw(st.integers(-2, 2))) for m in chosen}
    for _ in range(draw(st.integers(1, 3))):
        x, twin = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        for S in itertools.combinations(range(n), r):
            S = sum(1 << i for i in S)
            if (S >> twin) & 1:
                T = S ^ (1 << twin) | (1 << x)
                if T in vals:
                    vals[S] = vals[T] + c
                else:
                    vals.pop(S, None)
    assume(vals)
    return VMatroid(range(n), r, vals)


def _planted_tower_layer():
    """Layer 3 of the (2,3) tower with basis {0, 1, 3, 6} revalued to 1: its
    first violating S has 7 elements in 6 classes, and a scan keeping the
    largest of each class finds another witness."""
    with open(GOLDEN_INPUTS / "tower_d3_layer3_planted.json") as f:
        return vmatroid_from_json(json.load(f))


def _rows_read_one_way():
    """Rank 2 on 0..4, finite at 12, 03, 13, 24, 34: the rows of 2 and 3 differ
    only below the diagonal, so a scan that filled p(x+y) for x < y alone
    would take 2 and 3 for one class and miss the violation at 0123."""
    pairs = [((1, 2), 1), ((0, 3), 0), ((1, 3), 1), ((2, 4), 0), ((3, 4), 0)]
    return VMatroid(range(5), 2, {frozenset(S): v for S, v in pairs})


@settings(max_examples=300, deadline=None)
@given(class_twin_supports())
@example(_planted_tower_layer())
@example(_rows_read_one_way())
def test_class_scan_matches_full_scan_on_any_support(M):
    fast = matroids._exchange_three_term(M, Budget())
    assert fast == three_term_by_full_scan(M)
    event("violating" if fast else "passing")


def circuit_masks_by_fundamental_circuits(M):
    """Reference: for every basis B and element e outside it, e plus each x in B
    with B + e - x a basis, read off the bases alone.  Every fundamental circuit
    of a matroid is a circuit and every circuit arises that way."""
    bases = set(M.basis_masks())
    found = set()
    for B in bases:
        for e in range(len(M.ground)):
            if (B >> e) & 1:
                continue
            circ = 1 << e
            for x in matroids._bits(B):
                if (B | (1 << e)) ^ (1 << x) in bases:
                    circ |= 1 << x
            found.add(circ)
    return sorted(found)


@settings(max_examples=150, deadline=None)
@given(matroid_supports())
def test_circuit_supports_match_underlying_matroid(M):
    def supports(N):
        return [sum(1 << i for i, c in enumerate(H) if not c.is_inf) for H in circuits(N)]

    masks = supports(M)
    assert masks == circuit_masks_by_fundamental_circuits(M)
    assert supports(VMatroid.from_bases(M.ground, M.basis_masks())) == masks
    # the circuits are the minimal sets in no basis
    bases = M.basis_masks()
    indep = {S for S in range(1 << len(M.ground)) if any(S & ~B == 0 for B in bases)}
    assert masks == [S for S in range(1 << len(M.ground)) if S not in indep
                     and all(S ^ (1 << i) in indep for i in matroids._bits(S))]


def _blocks(sizes, r, shared):
    """Rank-r uniform blocks of the given sizes; consecutive blocks share `shared` elements."""
    blocks, start = [], 0
    for size in sizes:
        blocks.append(range(start, start + size))
        start += size - shared
    return start + shared, [B for block in blocks for B in itertools.combinations(block, r)]


@st.composite
def off_matroid_supports(draw):
    """Supports that are mostly not matroids: sparse, disjoint blocks, blocks sharing one element."""
    frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    kind = draw(st.sampled_from(["sparse", "blocks", "shared"]))
    if kind == "sparse":
        n = draw(st.integers(3, 7))
        r = draw(st.integers(1, n - 1))
        sets = list(itertools.combinations(range(n), r))
        bases = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets), unique=True))
    else:
        r = draw(st.integers(1, 3))
        sizes = draw(st.lists(st.integers(r + 1, r + 3), min_size=2,
                              max_size=3 if kind == "blocks" else 2))
        n, bases = _blocks(sizes, r, shared=0 if kind == "blocks" else 1)
        bases = sorted(set(bases))
    valued = draw(st.booleans())
    return VMatroid(range(n), r, {frozenset(B): draw(frac) if valued else 0 for B in bases})


@settings(max_examples=300, deadline=None)
@given(off_matroid_supports())
def test_exchange_check_matches_bruteforce_off_matroid_supports(M):
    fast = check_valuated_exchange(M)
    assert (fast is None) == (exchange_by_quantifier(M) is None)
    if fast is not None:
        assert_witness_fails(M, fast)


@pytest.mark.parametrize("r,sizes", [(4, (12, 12)), (3, (4, 5, 6)), (3, (3, 3))])
def test_disjoint_boolean_blocks_are_not_a_matroid(r, sizes):
    # for r >= 3 an (r-2)-set S meets one block, so every quadruple the scan
    # visits lies inside a block, where all relations hold; only the
    # connectivity check sees that the support is not a matroid
    n, bases = _blocks(sizes, r, shared=0)
    M = VMatroid(range(n), r, {frozenset(B): 0 for B in bases})
    assert matroids._exchange_three_term(M, Budget()) is None
    witness = check_valuated_exchange(M)
    assert witness is not None
    assert_witness_fails(M, witness)


def test_exchange_budget_is_charged_before_any_quadruple():
    # U(3,7) with p(012) = -1: the first quadruple (S={0}; 1,2,3,4) violates,
    # so a scan that visited any quadruple would return instead of raising
    vals = {frozenset(B): 0 for B in itertools.combinations(range(7), 3)}
    vals[frozenset((0, 1, 2))] = -1
    M = VMatroid(range(7), 3, vals)
    pairs = 35 * 3  # bases times C(r, 2), charged before `used` is built
    quads = 7 * math.comb(6, 4)  # sum over S of C(|used[S]|, 4)
    assert check_valuated_exchange(M, budget=Budget(pairs + quads)) is not None
    with pytest.raises(SizeGuardError, match="valuated exchange check needs 1 more"):
        check_valuated_exchange(M, budget=Budget(pairs + quads - 1))
    with pytest.raises(SizeGuardError, match="valuated exchange check needs 1 more"):
        check_valuated_exchange(M, budget=Budget(pairs - 1))


def test_matroid_checks_charge_their_formulas_on_a_tower_layer():
    # the per-class scan and the once-per-set circuits skip work, not charges:
    # p(S+x+y) is finite only for x, y in used[S], the pairs completing S
    M = nonrealizable_ideal(2, 4).layer(4)
    n, r, bases = len(M.ground), M.rank, M.basis_masks()
    used = {}
    for B in bases:
        for x, y in itertools.combinations(matroids._bits(B), 2):
            pair = (1 << x) | (1 << y)
            used[B ^ pair] = used.get(B ^ pair, 0) | pair
    budget = Budget()
    assert check_valuated_exchange(M, budget) is None
    assert (budget.cap - budget.remaining
            == len(bases) * math.comb(r, 2) + sum(math.comb(u.bit_count(), 4)
                                                  for u in used.values())
            == 1848 * 10 + 149967)
    budget = Budget()
    circuits(M, budget)
    assert budget.cap - budget.remaining == len(bases) * max(1, n - r) == 1848 * 10


def test_vector_elimination_on_circuit_pairs():
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    cs = circuits(M)
    for G, H0 in itertools.product(cs, cs):
        for e in range(4):
            if G[e].is_inf or H0[e].is_inf:
                continue
            lam = Trop(G[e].value - H0[e].value)
            H = tuple(lam * c for c in H0)
            F = vector_elimination_witness(M, G, H, e, circuit_list=cs)
            assert F is not None
            assert F[e].is_inf
            assert is_vector(M, F)
            for i in range(4):
                assert F[i] >= min(G[i], H[i])
                if G[i] != H[i]:
                    assert F[i] == min(G[i], H[i])


@st.composite
def valuations_and_weights(draw):
    """A matroid support, or any nonempty family of r-sets, with fractional
    and negative values, and a weight with the same kind of entries."""
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if draw(st.booleans()):
        M = draw(matroid_supports())
    else:
        n = draw(st.integers(1, 6))
        r = draw(st.integers(0, n))
        sets = list(itertools.combinations(range(n), r))
        chosen = draw(st.lists(st.sampled_from(sets), min_size=1, unique=True))
        M = VMatroid(range(n), r, {frozenset(B): draw(frac) for B in chosen})
    w = draw(st.lists(st.one_of(frac, st.integers(-3, 3)),
                      min_size=len(M.ground), max_size=len(M.ground)))
    return M, w


def lex_min_basis_by_greedy(M, mask):
    """Reference: Gale's greedy over the elements of mask, one rank scan each."""
    chosen = 0
    for i in matroids._bits(mask):
        candidate = chosen | (1 << i)
        if max((candidate & B).bit_count() for B in M._val) == candidate.bit_count():
            chosen = candidate
    return chosen


@settings(max_examples=300, deadline=None)
@given(matroid_supports(), st.data())
def test_one_scan_lex_min_basis_matches_greedy(M, data):
    subset = data.draw(st.integers(0, (1 << len(M.ground)) - 1))
    assert (matroids.lex_min_basis_of_subset(M, subset)
            == lex_min_basis_by_greedy(M, subset))


def is_vector_by_fractions(M, v):
    """Reference: the tie criterion on Fraction sums p(E \\ S + e) + v_e."""
    n = len(M.ground)
    full = (1 << n) - 1
    for S in itertools.combinations(range(n), n - M.rank + 1):
        rest = full ^ sum(1 << e for e in S)
        terms = [M.value_mask(rest | (1 << e)) + v[e].value for e in S
                 if not v[e].is_inf and M.value_mask(rest | (1 << e)) is not None]
        if terms and terms.count(min(terms)) < 2:
            return False
    return True


@st.composite
def valuations_and_vectors(draw):
    """A matroid support or any family of r-sets, and a vector with fractional,
    negative and infinite coordinates: random, or a combination of circuits."""
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    M, _ = draw(valuations_and_weights())
    n = len(M.ground)
    cs = circuits(M)
    if cs and draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(cs), min_size=1, max_size=3))
        lams = [Trop(draw(frac)) for _ in picks]
        v = tuple(min(lam * H[i] for lam, H in zip(lams, picks)) for i in range(n))
    else:
        coord = st.one_of(frac.map(Trop), st.integers(-3, 3).map(Trop), st.just(INF))
        v = tuple(draw(coord) for _ in range(n))
    return M, v


@settings(max_examples=300, deadline=None)
@given(valuations_and_vectors())
def test_integer_is_vector_matches_fraction_sums(case):
    M, v = case
    assert is_vector(M, v) == is_vector_by_fractions(M, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_construction_route_gives_one_canonical_matroid(data):
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(0, n))
    masks = [sum(1 << i for i in B) for B in itertools.combinations(range(n), r)]
    chosen = data.draw(st.lists(st.sampled_from(masks), min_size=1, unique=True))
    den = data.draw(st.integers(1, 12))
    shift = data.draw(st.integers(-5, 5))
    ints = {m: data.draw(st.integers(-20, 20)) for m in chosen}
    ground = tuple(range(n))
    M = VMatroid(ground, r, {m: Fraction(a, den) for m, a in ints.items()})
    routes = [
        VMatroid(ground, r, {m: Fraction(a + shift * den, den) for m, a in ints.items()}),
        VMatroid(ground, r, [(m, str(Fraction(a, den))) for m, a in ints.items()]),
        VMatroid(ground, r, [(m, Trop(Fraction(ints[m], den)) if m in ints else INF)
                             for m in masks]),
        contract(M, ()),
    ]
    for N in routes:
        assert N == M and hash(N) == hash(M)
        assert N.valuation_items() == M.valuation_items()
        assert min(N._val.values()) == 0
        assert math.gcd(N.den, *N._val.values()) == 1


def test_a_set_valued_twice_is_rejected():
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid("abc", 2, [("ab", 0), ("ba", 3), ("ac", 1)])
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid("abc", 2, [("ab", INF), ("ab", INF), ("ac", 1)])
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid("abc", 2, [("ab", INF), ("ac", 1), ("ab", 0)])
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid.from_bases("abc", ["ab", "ac", "ba"])
    # the layer builders hand their pairs over as one-shot generators
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid("abc", 2, ((m, v) for m, v in [(0b011, 0), (0b101, 1), (0b011, 2)]))
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid("abc", 2, ((m, v) for m, v in [(0b011, INF), (0b101, 1), (0b011, INF)]))
    with pytest.raises(InvalidMatroidError, match="valued twice"):
        VMatroid.from_bases("abc", (m for m in [0b011, 0b101, 0b011]))
    pairs = [(0b011, INF), (0b101, 1), (0b110, Trop(2))]
    assert VMatroid("abc", 2, (p for p in pairs)) == VMatroid("abc", 2, pairs)
