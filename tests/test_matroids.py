import itertools
import random
from fractions import Fraction

import pytest

from tropideal.errors import (InvalidMatroidError, LabelCollisionError,
                              PreconditionError)
from tropideal.matroids import (VMatroid, check_valuated_exchange,
                                circuit_elimination_witness, circuits,
                                coloop_extension, contract, dual,
                                fundamental_circuit, initial_matroid,
                                is_vector, vector_elimination_witness)
from tropideal.semiring import INF, Trop


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


def test_circuits_first_fundamental_circuit_per_support():
    # oracle: every fundamental circuit in (basis mask, element) order, the
    # first one kept per support, listed by support mask
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(3, 7)
        r = rng.randint(1, n - 1)
        vals = {frozenset(S): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for S in itertools.combinations(range(n), r) if rng.random() < 0.6}
        if not vals:
            continue
        M = VMatroid(range(n), r, vals)
        first = {}
        for B in M.basis_masks():
            for e in range(n):
                if not (B >> e) & 1:
                    H = fundamental_circuit(M, B, e)
                    first.setdefault(sum(1 << i for i, c in enumerate(H) if not c.is_inf), H)
        assert circuits(M) == [first[m] for m in sorted(first)]


def test_circuit_supports_match_underlying_matroid():
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    supp = {frozenset(i + 1 for i, c in enumerate(H) if not c.is_inf) for H in circuits(M)}
    assert supp == set(map(frozenset, M.underlying().circuits()))
    # supports are pairwise incomparable
    for a in supp:
        for b in supp:
            assert a == b or not a < b


def test_dual_examples():
    M = uniform("abc", 2)
    D = dual(M)
    assert D.rank == 1 and D.basis_masks() == [1, 2, 4]
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    N = pair_matroid(vals)
    assert dual(dual(N)) == N
    loops = VMatroid("ab", 0, {frozenset(): 0})
    assert dual(loops).rank == 2


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
    N = initial_matroid(M, [0, 0, 1])
    assert N.bases_as_sets() == [frozenset("ac"), frozenset("bc")]
    assert N.circuits() == [frozenset("ab")]
    N2 = initial_matroid(M, [0, 1, 2])
    assert N2.bases_as_sets() == [frozenset("bc")]
    assert N2.circuits() == [frozenset("a")]
    assert N2.loops() == ["a"]
    N3 = initial_matroid(M, [0, 0, 0])
    assert N3.bases == M.underlying().bases


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
        N = initial_matroid(M, w)
        assert N.rank == M.rank
        under = M.underlying()
        for B in N.bases:
            assert under.is_basis(B)


def test_initial_circuits_are_minimal_initial_forms_of_circuits():
    vals = {(1, 2): 1, (3, 4): 1}
    vals.update({k: 0 for k in itertools.combinations((1, 2, 3, 4), 2) if k not in vals})
    M = pair_matroid(vals)
    w = [Fraction(0), Fraction(1), Fraction(0), Fraction(2)]
    N = initial_matroid(M, w)
    inits = set()
    for H in circuits(M):
        vals_at = [(H[i].value + w[i]) if not H[i].is_inf else None for i in range(4)]
        finite = [v for v in vals_at if v is not None]
        m = min(finite)
        inits.add(frozenset(i + 1 for i, v in enumerate(vals_at) if v == m))
    minimal = {s for s in inits if not any(t < s for t in inits)}
    assert set(map(frozenset, N.circuits())) == minimal


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


def test_coloop_extension_examples():
    M = VMatroid("ab", 1, {frozenset("a"): 0, frozenset("b"): 0})
    E = coloop_extension(M, ("z",))
    assert E.bases_as_sets() == [frozenset("az"), frozenset("bz")]
    assert coloop_extension(M, ()) == M
    Z = VMatroid((), 0, {frozenset(): 0})
    F = coloop_extension(Z, ("z",))
    assert F.bases_as_sets() == [frozenset("z")]
    with pytest.raises(LabelCollisionError):
        coloop_extension(M, ("a",))


def test_dual_is_involution_randomized():
    rng = random.Random(29)
    for _ in range(30):
        vals = {}
        for k in itertools.combinations(range(5), 2):
            if rng.random() < 0.7:
                vals[frozenset(k)] = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        if not vals:
            continue
        M = VMatroid(range(5), 2, vals)
        assert dual(dual(M)) == M


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
    from tropideal.matroids import (_exchange_bruteforce, _exchange_holds_at,
                                    _exchange_three_term)
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
        brute = _exchange_bruteforce(M, Budget())
        fast = _exchange_three_term(M, Budget())
        assert (brute is None) == (fast is None)
        if fast is not None:
            A, B, a = fast
            Am = sum(1 << M.index_of(e) for e in A)
            Bm = sum(1 << M.index_of(e) for e in B)
            assert not _exchange_holds_at(M._val, Am, Bm, M.index_of(a))
            violations += 1
        checked += 1
    assert checked > 300 and violations > 100


def stiefel_valuation(A, B):
    """Tropical determinant of the columns B of A: a valuated matroid on the columns."""
    return min(sum(A[row][col] for row, col in zip(range(len(A)), perm))
               for perm in itertools.permutations(B))


def exchange_verdicts_agree(M):
    """The integer three-term scan and the direct quantifier agree on M."""
    from tropideal.config import Budget
    from tropideal.matroids import _exchange_bruteforce
    fast = check_valuated_exchange(M)
    assert (fast is None) == (_exchange_bruteforce(M, Budget()) is None)
    if fast is not None:
        A, B, a = fast
        assert a in A - B
        for b in B - A:
            v1 = M.value((A - {a}) | {b})
            v2 = M.value((B - {b}) | {a})
            assert v1.is_inf or v2.is_inf or M.value(A) * M.value(B) < v1 * v2
    return fast is None


def test_integer_three_term_scan_matches_bruteforce_on_uniform_support(monkeypatch):
    # every r-set is a basis, so the three-term relations are equivalent to
    # exchange; Fraction values make the scan scale by their common denominator
    import tropideal.matroids as matroids
    monkeypatch.setattr(matroids, "_BRUTE_PAIR_LIMIT", 0)
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


def test_three_term_scan_keeps_fraction_ties(monkeypatch):
    # p12 + p34 = 1/2 + 1/3 ties p13 + p24 = 5/6 + 0 below p14 + p23 = 1
    import tropideal.matroids as matroids
    monkeypatch.setattr(matroids, "_BRUTE_PAIR_LIMIT", 0)
    vals = {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 3), (1, 3): Fraction(5, 6),
            (2, 4): 0, (1, 4): 1, (2, 3): 0}
    assert exchange_verdicts_agree(pair_matroid(vals))
    vals[(1, 3)] = Fraction(6, 7)  # the tie breaks: 5/6 is attained once
    assert not exchange_verdicts_agree(pair_matroid(vals))


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
