import random
from fractions import Fraction

import pytest

from gradedseries import algebras
from gradedseries.algebras import (
    NotAnAutomorphismError,
    NotNormalError,
    NotRegularError,
    _apply_to_word,
    _rref_add,
    betti_numbers,
    brute_force_trace,
    build_truncation,
    check_automorphism,
    euler_check,
    free_algebra,
    growth_estimate,
    identity_trace,
    monomial_quotient,
    normal_quotient,
    quantum_affine,
    skew_symmetric_q,
    tor_inequalities,
)
from gradedseries.cyclofield import CyclotomicMatrix, CyclotomicNumber, FieldFraction
from gradedseries.exact import Poly, Series, expand, normalize, one_minus_power, reconstruct
from gradedseries.groups import (
    PROVENANCE_BRUTE_FORCE,
    TraceAssignment,
    closure,
    hdet,
    molien,
    reciprocal_charpoly_trace,
)
from gradedseries.hilbert import quotient_series


def P(*coeffs):
    return Poly(coeffs)


def koszul_dual_square_zero():
    """k<x,y>/(x^2, xy, y^2): four-dimensional, Hilbert series 1 + 2t + t^2."""
    return monomial_quotient(["x", "y"], [(0, 0), (0, 1), (1, 1)])


def mystic_g():
    return CyclotomicMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]])


def double_swap_g():
    return CyclotomicMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 0, 1], [0, 0, 1, 0]])


def random_monomial_quotient(rng, n):
    """k<x_1..x_n> modulo 2 to 6 random relation words of length 2 to 4."""
    pool = [w for length in (2, 3, 4) for w in _words(n, length)]
    relations = rng.sample(pool, rng.randint(2, 6))
    return monomial_quotient([f"x{k}" for k in range(n)], relations), relations


def _words(n, length):
    if length == 0:
        return [()]
    return [w + (i,) for w in _words(n, length - 1) for i in range(n)]


def _occurs(word, factor):
    return any(word[k:k + len(factor)] == factor
               for k in range(len(word) - len(factor) + 1))


def anick_chain_betti(n, relations, cutoff, degrees=None):
    """Betti numbers of k<x_1..x_n>/(relations), generator i in degree
    degrees[i] (all 1 by default), counted as Anick chains (Anick, Trans. AMS
    296, 1986), whose resolution is minimal for a monomial algebra:
    b(0, 0) = 1, b(1, d_i) counts the 0-chains x_i, and b(k + 1, j) counts
    the k-chains of internal degree j, the sum of their letters' degrees.  In
    the tail form (Ufnarovski): a k-chain extends a (k - 1)-chain with tail t
    by a word s such that an obstruction (a relation with no other relation
    as a factor) starting inside t ends t + s, and t + s less its last letter
    contains none; s is the new tail."""
    degrees = degrees or (1,) * n

    def degree(word):
        return sum(degrees[a] for a in word)

    obstructions = [r for r in set(relations)
                    if not any(o != r and _occurs(r, o) for o in relations)]
    counts = {(0, 0): 1}
    for a in range(n):
        if degrees[a] <= cutoff:
            counts[1, degrees[a]] = counts.get((1, degrees[a]), 0) + 1
    layer = [((a,), (a,)) for a in range(n)]
    index = 1
    while layer:
        index += 1
        grown = []
        for chain, tail in layer:
            for r in obstructions:
                for start in range(len(tail)):
                    overlap = tail[start:]
                    s = r[len(overlap):]
                    if (r[:len(overlap)] != overlap or not s
                            or degree(chain) + degree(s) > cutoff
                            or any(_occurs(tail + s[:-1], o)
                                   for o in obstructions)):
                        continue
                    grown.append((chain + s, s))
        for chain, _ in grown:
            key = (index, degree(chain))
            counts[key] = counts.get(key, 0) + 1
        layer = grown
    return counts


class TestBuildTruncation:
    def test_skew_three_space_dims(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 3)
        assert trunc.dims() == [1, 3, 6, 10]

    def test_square_zero_dims(self):
        trunc = build_truncation(koszul_dual_square_zero(), 3)
        assert trunc.dims() == [1, 2, 1, 0]

    def test_quantum_plane_mod_x2(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        trunc = build_truncation(pres, 4)
        assert trunc.dims() == [1, 2, 2, 2, 2]
        # oracle: monomials x^a y^b with a <= 1
        for d in range(5):
            count = sum(1 for a in range(2) for b in range(d + 1)
                        if a + b == d)
            assert trunc.dims()[d] == count

    def test_quantum_affine_dims_match_series(self):
        for degrees in [(1, 1), (1, 2), (1, 1, 2), (2, 3)]:
            q = skew_symmetric_q(len(degrees))
            trunc = build_truncation(quantum_affine(q, degrees=degrees), 10)
            want = expand(quotient_series(list(degrees)), 10)
            assert trunc.hilbert_coefficients() == want

    def test_normal_sequence_dims_match_series(self):
        # k_{-1}[x, y] / (x^2, y^2) has series (1-t^2)^2/(1-t)^2 = (1+t)^2
        pres = normal_quotient(skew_symmetric_q(2),
                               [{(2, 0): 1}, {(0, 2): 1}])
        trunc = build_truncation(pres, 6)
        want = expand(quotient_series([1, 1], [2, 2]), 6)
        assert trunc.hilbert_coefficients() == want

    def test_central_quadric_quotient(self):
        # commutative k[x,y,z]/(x^2+y^2+z^2)
        ones = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
        pres = normal_quotient(ones, [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}])
        trunc = build_truncation(pres, 8)
        want = expand(quotient_series([1, 1, 1], [2]), 8)
        assert trunc.hilbert_coefficients() == want

    def test_not_normal(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(1, 0): 1, (0, 1): 1}])
        with pytest.raises(NotNormalError):
            build_truncation(pres, 4)

    def test_not_regular(self):
        # x*y is normal in k_{-1}[x,y] but x kills it... x y * x = -x^2 y != 0;
        # instead quotient twice by x^2: the second copy dies
        pres = normal_quotient(skew_symmetric_q(2),
                               [{(2, 0): 1}, {(2, 0): 1}])
        with pytest.raises(NotRegularError):
            build_truncation(pres, 4)

    def test_zero_divisor_detected(self):
        # in k<x,y>/(x^2=0 style): use quantum affine mod x^2 then x*? --
        # x itself is a zero divisor mod x^2
        pres = normal_quotient(skew_symmetric_q(2),
                               [{(2, 0): 1}, {(1, 0): 1}])
        with pytest.raises(NotRegularError):
            build_truncation(pres, 4)

    def test_associativity_spot_check(self):
        rng = random.Random(9)
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        trunc = build_truncation(pres, 6)
        for _ in range(20):
            d1, d2, d3 = rng.choice([(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 3)])
            def rand_vec(d):
                return {lab: Fraction(rng.randint(-2, 2))
                        for lab in trunc.bases[d]}
            u, v, w = rand_vec(d1), rand_vec(d2), rand_vec(d3)
            left = trunc.mul(d1 + d2, trunc.mul(d1, u, d2, v), d3, w)
            right = trunc.mul(d1, u, d2 + d3, trunc.mul(d2, v, d3, w))
            assert left == right

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monomial_product_tests_only_the_join(self, seed):
        # basis words avoid every relation, so testing the windows across
        # the join must agree with scanning the whole product word
        rng = random.Random(seed)
        for n, cutoff in ((2, 6), (3, 5)):
            pres, relations = random_monomial_quotient(rng, n)
            trunc = build_truncation(pres, cutoff)
            for d1 in range(cutoff + 1):
                for d2 in range(cutoff + 1 - d1):
                    for a in trunc.bases[d1]:
                        for b in trunc.bases[d2]:
                            whole = any(_occurs(a + b, r) for r in relations)
                            want = {} if whole else {a + b: 1}
                            assert trunc.mul_basis(d1, a, d2, b) == want, \
                                (relations, a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monomial_basis_is_every_word_avoiding_the_relations(self, seed):
        # the basis grows a word by one letter and tests the relations as
        # suffixes; a whole-word scan of every word must give the same basis,
        # with one-letter relations and generators of degree 2 among them,
        # and each degree's basis in sorted order
        rng = random.Random(seed)
        for n, cutoff in ((2, 7), (3, 5), (2, 7), (3, 5)):
            degrees = [rng.choice((1, 2)) for _ in range(n)]
            pool = [w for length in (1, 2, 3, 4) for w in _words(n, length)]
            relations = rng.sample(pool, rng.randint(1, 6))
            trunc = build_truncation(monomial_quotient(
                [f"x{k}" for k in range(n)], relations, degrees), cutoff)
            by_degree = [[] for _ in range(cutoff + 1)]
            for length in range(cutoff + 1):
                for w in _words(n, length):
                    d = sum(degrees[a] for a in w)
                    if d <= cutoff and not any(_occurs(w, r)
                                               for r in relations):
                        by_degree[d].append(w)
            assert [list(b) for b in trunc.bases] == \
                [sorted(b) for b in by_degree], \
                (degrees, relations)
            for d1 in range(cutoff + 1):
                for a in by_degree[d1]:
                    for d2 in range(cutoff + 1 - d1):
                        for b in by_degree[d2]:
                            want = {a + b: 1} if a + b in by_degree[d1 + d2] \
                                else {}
                            assert trunc.mul_basis(d1, a, d2, b) == want


class TestNormalSequences:
    """Normal sequences of other shapes and orders.  A quotient holds one
    echelon form of its ideal per degree, so its basis, its products and its
    Betti table depend on the ideal, not on the order of the sequence."""

    X2, Y2 = {(2, 0, 0): 1}, {(0, 2, 0): 1}

    @pytest.mark.parametrize("sequence", [
        (X2, Y2), (Y2, X2),
        # x^2 + y^2 is central, and it is y^2 modulo x^2
        (X2, {(2, 0, 0): 1, (0, 2, 0): 1}),
    ])
    def test_one_ideal_in_any_order(self, sequence):
        # k_{-1}[x, y, z] / (x^2, y^2): the words with at most one x and at
        # most one y, and Poincare series (1 + st)^3 / (1 - s^2 t^2)^2, so
        # b(i, i) = 2i + 1 and nothing off the diagonal
        cutoff = 7
        q = skew_symmetric_q(3)
        ambient = build_truncation(quantum_affine(q), cutoff)
        trunc = build_truncation(normal_quotient(q, list(sequence)), cutoff)
        for d in range(cutoff + 1):
            assert trunc.bases[d] == tuple(w for w in ambient.bases[d]
                                           if w.count(0) < 2 and w.count(1) < 2)
            # the pivots of the ideal are the words outside the basis
            assert set(trunc.ideal[d]) == \
                set(ambient.bases[d]) - set(trunc.bases[d])
        assert trunc.hilbert_coefficients() == expand(
            quotient_series([1, 1, 1], [2, 2]), cutoff)
        # the ideal is spanned by words, so letter counts grade it
        assert trunc.grading()[0] == [1, cutoff + 1, (cutoff + 1) ** 2]
        assert betti_numbers(trunc).entries == {
            (i, i): 2 * i + 1 for i in range(cutoff + 1)}

    def test_two_binomials(self):
        # commutative k[x, y, z, w] / (x^2 + y^2, z^2 + w^2), a complete
        # intersection with series (1 - t^2)^2 / (1 - t)^4 and Poincare series
        # (1 + st)^4 / (1 - s^2 t^2)^2, so b(i, i) = 4i for i >= 1
        cutoff = 6
        ones = [[1] * 4 for _ in range(4)]
        sequence = [{(2, 0, 0, 0): 1, (0, 2, 0, 0): 1},
                    {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1}]
        trunc = build_truncation(normal_quotient(ones, sequence), cutoff)
        assert trunc.hilbert_coefficients() == expand(
            quotient_series([1] * 4, [2, 2]), cutoff)
        # x^2 + y^2 is a row of two words: the grading is the degree
        digits, generators = trunc.grading()
        assert digits == (1, 1, 1, 1)
        assert generators == [(1, 1, {(i,): 1}) for i in range(4)]
        assert betti_numbers(trunc).entries == {
            (0, 0): 1, **{(i, i): 4 * i for i in range(1, cutoff + 1)}}
        rng = random.Random(16)

        def rand_vec(d):
            return {lab: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for lab in trunc.bases[d]}

        for _ in range(40):
            d1, d2, d3 = rng.choice([(1, 1, 1), (1, 2, 1), (2, 1, 2),
                                     (1, 1, 3), (2, 2, 2), (1, 3, 2)])
            u, v, w = rand_vec(d1), rand_vec(d2), rand_vec(d3)
            left = trunc.mul(d1 + d2, trunc.mul(d1, u, d2, v), d3, w)
            right = trunc.mul(d1, u, d2 + d3, trunc.mul(d2, v, d3, w))
            assert left == right


def exponent_q_merge(q, left, right):
    """Oracle: the product of x^left and x^right, exponent tuples, in PBW
    normal form: x_j x_i = q_ij x_i x_j for i < j, so each x_i of right
    passes each x_j (j > i) of left at the factor q_ij."""
    n = len(q)
    scalar = 1
    for i in range(n):
        for j in range(i + 1, n):
            scalar = scalar * q[i][j] ** (left[j] * right[i])
    return scalar, tuple(a + b for a, b in zip(left, right))


def exponents(word, n):
    return tuple(word.count(i) for i in range(n))


class TestWordLabels:
    """Every truncation labels its basis by words of generator indices."""

    z12 = CyclotomicNumber.zeta(12)
    # (presentation, cutoff, dims)
    CASES = {
        "free": (free_algebra(2), 6, [1, 2, 4, 8, 16, 32, 64]),
        "monomial with a one-letter relation": (monomial_quotient(
            ["x", "y", "z"], [(1,), (0, 0), (2, 0, 2)]), 6,
            [1, 2, 3, 4, 4, 4, 4]),
        "weighted quantum affine": (quantum_affine(
            [[1, 2, -1], [Fraction(1, 2), 1, Fraction(-3, 2)],
             [-1, Fraction(-2, 3), 1]], degrees=(1, 2, 1)), 8,
            [1, 2, 4, 6, 9, 12, 16, 20, 25]),
        "normal quotient by x^2 and yz": (normal_quotient(
            skew_symmetric_q(3), [{(2, 0, 0): 1}, {(0, 1, 1): 1}]), 6,
            [1, 3, 4, 4, 4, 4, 4]),
        "weighted normal quotient by x^2 + y^2 - z": (normal_quotient(
            [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1}], degrees=(1, 1, 2)),
            8, [1, 2, 3, 4, 5, 6, 7, 8, 9]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_labels_are_words_of_the_right_degree(self, name):
        pres, cutoff, dims = self.CASES[name]
        trunc = build_truncation(pres, cutoff)
        assert trunc.dims() == dims
        for d, basis in enumerate(trunc.bases):
            for lab in basis:
                assert type(lab) is tuple
                assert all(type(i) is int and 0 <= i < pres.ngens
                           for i in lab), lab
                assert sum(pres.degrees[i] for i in lab) == d, lab
                if pres.q is not None:
                    assert list(lab) == sorted(lab), lab

    @pytest.mark.parametrize("q, degrees", [
        (CASES["weighted quantum affine"][0].q, (1, 2, 1)),
        (((1, z12, z12 ** 5), (z12 ** 11, 1, -1), (z12 ** 7, -1, 1)),
         (1, 1, 1)),
    ])
    def test_q_merge_of_words_matches_the_exponent_rule(self, q, degrees):
        cutoff = 6
        trunc = build_truncation(quantum_affine(q, degrees=degrees), cutoff)
        n = len(q)
        for d1 in range(cutoff + 1):
            for d2 in range(cutoff + 1 - d1):
                for a in trunc.bases[d1]:
                    for b in trunc.bases[d2]:
                        scalar, exp = exponent_q_merge(
                            q, exponents(a, n), exponents(b, n))
                        word = tuple(i for i in range(n)
                                     for _ in range(exp[i]))
                        assert trunc.mul_basis(d1, a, d2, b) == \
                            {word: scalar}, (a, b)

    def test_negative_exponents_are_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            normal_quotient([[1, 1], [1, 1]], [{(3, -1): 1, (1, 1): 1}])
        with pytest.raises(ValueError, match="nonnegative"):
            normal_quotient([[1, 1], [1, 1]], [{(2, 0): 1, (0, -1): 0}])


class TestBruteForceTrace:
    def test_identity_gives_hilbert_series(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 8)
        got = brute_force_trace(CyclotomicMatrix.identity(3), trunc)
        assert got == trunc.hilbert_coefficients()

    @pytest.mark.parametrize("degrees, dim, message", [
        ([1, 2], 2, "the multiplicative extension needs degree-1 generators"),
        # both checks fail: the degree check comes first everywhere
        ([1, 2], 3, "the multiplicative extension needs degree-1 generators"),
        ([1, 1], 3, "matrix dimension must match the generator count"),
    ])
    def test_one_message_per_bad_input_from_every_entry_point(
            self, degrees, dim, message):
        pres = quantum_affine(skew_symmetric_q(2), degrees=degrees)
        trunc = build_truncation(pres, 4)
        g = CyclotomicMatrix.identity(dim)
        for entry in (lambda: brute_force_trace(g, trunc),
                      lambda: identity_trace(trunc, dim),
                      lambda: check_automorphism(g, trunc)):
            with pytest.raises(ValueError) as err:
                entry()
            assert str(err.value) == message

    def test_mystic_trace(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 12)
        target = normalize(P(1), P(1, 1) * one_minus_power(2))
        group = closure([mystic_g()], cap=10)
        for g in group.elements[1:]:  # g, g^2, g^3
            series = brute_force_trace(g, trunc)
            assert reconstruct(series, 0, 3) == target

    def test_double_swap_trace(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(4)), 12)
        series = brute_force_trace(double_swap_g(), trunc)
        assert reconstruct(series, 0, 4) == normalize(P(1), P(1, 0, 1) ** 2)

    def test_diagonal_matches_eigenvalue_formula(self):
        z = CyclotomicNumber.zeta(6)
        lams = [z, z ** 4, -1]
        g = CyclotomicMatrix([[lams[0], 0, 0], [0, lams[1], 0], [0, 0, lams[2]]])
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 10)
        got = brute_force_trace(g, trunc)
        prod = [1]
        for lam in lams:
            nxt = [0] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i] = nxt[i] + c
                nxt[i + 1] = nxt[i + 1] - c * lam
            prod = nxt
        want = FieldFraction.reciprocal(prod).expand(10)
        assert all(a == b for a, b in zip(got, want))

    def test_irrational_trace_reconstructs_over_the_field(self):
        # 1/((1 - t)(1 - z t)) has coefficients 1 + z + ... + z^n, irrational
        # in Q(zeta_3); reconstruct and normalize stay in that field
        z = CyclotomicNumber.zeta(3)
        g = CyclotomicMatrix([[z, 0], [0, 1]])
        trunc = build_truncation(quantum_affine([[1, 1], [1, 1]]), 12)
        closed = reconstruct(brute_force_trace(g, trunc), 0, 2)
        assert closed == reciprocal_charpoly_trace(g)
        assert not closed.is_rational()

    def test_rejects_non_automorphism(self):
        trunc = build_truncation(quantum_affine([[1, 2], [Fraction(1, 2), 1]]), 4)
        shear = CyclotomicMatrix([[1, 1], [0, 1]])
        with pytest.raises(NotAnAutomorphismError):
            brute_force_trace(shear, trunc)

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    def test_rejects_singular_matrix(self, rows):
        # both respect x y + y x = 0, so only det g = 0 rules them out; their
        # "traces" would read 1 and 1 + t + t^2 + ...
        trunc = build_truncation(quantum_affine(skew_symmetric_q(2)), 4)
        with pytest.raises(NotAnAutomorphismError, match="singular"):
            brute_force_trace(CyclotomicMatrix(rows), trunc)

    def test_quotient_automorphism_check(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        trunc = build_truncation(pres, 6)
        # swapping x and y does not preserve the ideal (x^2)
        swap = CyclotomicMatrix([[0, 1], [1, 0]])
        with pytest.raises(NotAnAutomorphismError):
            brute_force_trace(swap, trunc)
        # scaling x keeps it
        scale = CyclotomicMatrix([[2, 0], [0, 1]])
        got = brute_force_trace(scale, trunc)
        want = expand(normalize(P(1, 2), one_minus_power(2)), 6)  # hand check below
        # fixed basis x^a y^b, a <= 1: trace_d = sum over monomials 2^a
        manual = [sum(2 ** a for a in range(2) for b in range(d + 1)
                      if a + b == d) for d in range(7)]
        assert list(got) == manual

    def test_normal_element_above_the_cutoff(self):
        # the swap does not preserve (x^7) in k[x, y], and a truncation below
        # degree 7 does not see x^7: the check builds one that does
        pres = normal_quotient([[1, 1], [1, 1]], [{(7, 0): 1}])
        trunc = build_truncation(pres, 6)
        swap = CyclotomicMatrix([[0, 1], [1, 0]])
        with pytest.raises(NotAnAutomorphismError, match="normal element 0"):
            check_automorphism(swap, trunc)
        minus = CyclotomicMatrix([[-1, 0], [0, -1]])
        assert brute_force_trace(minus, trunc) == \
            Series([(-1) ** d * (d + 1) for d in range(7)])

    def test_cutoff_zero(self):
        # no generator lies within the cutoff, so the trace is 1
        g = CyclotomicMatrix([[1, 0], [0, -1]])
        for pres in (normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}]),
                     koszul_dual_square_zero(), free_algebra(2)):
            trunc = build_truncation(pres, 0)
            assert trunc.generator_vector(0) == (1, {})
            assert brute_force_trace(g, trunc) == Series([1])

    def test_monomial_quotient_identity_and_negation(self):
        trunc = build_truncation(koszul_dual_square_zero(), 3)
        got = brute_force_trace(CyclotomicMatrix.identity(2), trunc)
        assert got == Series([1, 2, 1, 0])
        neg = CyclotomicMatrix([[-1, 0], [0, -1]])
        assert list(brute_force_trace(neg, trunc)) == [1, -2, 1, 0]


def word_by_word_trace(g, trunc, order):
    """Oracle: each basis word's image built letter by letter with
    _apply_to_word, and its own coefficient read off."""
    n = trunc.presentation.ngens
    gen_vectors = []
    for i in range(n):
        vec = {}
        for j in range(n):
            for lab, s in trunc.generator_vector(j)[1].items():
                vec[lab] = vec.get(lab, 0) + g.rows[j][i] * s
        gen_vectors.append({k: v for k, v in vec.items() if v})
    coefficients = [1]
    for d in range(1, order + 1):
        total = 0
        for lab in trunc.bases[d]:
            image = _apply_to_word(trunc, gen_vectors, lab)
            total = total + image.get(lab, 0)
        coefficients.append(total)
    return Series(coefficients)


def seeded_matrices(rng, n, count=4):
    """The identity, signed permutations and diagonal 12th roots of unity."""
    matrices = [CyclotomicMatrix.identity(n)]
    for _ in range(count):
        perm = rng.sample(range(n), n)
        matrices.append(CyclotomicMatrix(
            [[rng.choice((1, -1)) if perm[j] == i else 0 for j in range(n)]
             for i in range(n)]))
        roots = [CyclotomicNumber.zeta(12, rng.randrange(12)) for _ in range(n)]
        matrices.append(CyclotomicMatrix(
            [[roots[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    return matrices


class TestPrefixImages:
    """brute_force_trace builds each word's image from its prefix's; the
    oracle builds it from scratch, letter by letter."""

    z12 = CyclotomicNumber.zeta(12)
    CASES = {
        "free": (free_algebra(3), 5),
        "monomial, length-3 relations": (
            monomial_quotient(["x", "y", "z"], [(0, 1, 0), (1, 0, 1)]), 6),
        "quantum affine over Q": (quantum_affine(skew_symmetric_q(3)), 7),
        "quantum affine over Q(zeta_12)": (quantum_affine(
            [[1, z12, z12 ** 5], [z12 ** 11, 1, -1], [z12 ** 7, -1, 1]]), 6),
        "normal quotient by x^2": (
            normal_quotient(skew_symmetric_q(3), [{(2, 0, 0): 1}]), 6),
        "normal quotient by x^2 + y^2 + z^2": (normal_quotient(
            skew_symmetric_q(3), [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}]),
            6),
        # each preserved by the shear x -> x, y -> x + y
        "shear-fixed monomial quotient by x^2, yxy": (
            monomial_quotient(["x", "y"], [(0, 0), (1, 0, 1)]), 6),
        "shear-fixed normal quotient by x^2": (
            normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}]), 6),
    }
    shear = CyclotomicMatrix([[1, 1], [0, 1]])

    @pytest.mark.parametrize("name", CASES)
    def test_matches_word_by_word_oracle(self, name):
        pres, cutoff = self.CASES[name]
        trunc = build_truncation(pres, cutoff)
        rng = random.Random(sorted(self.CASES).index(name))
        accepted = rejected = 0
        for g in seeded_matrices(rng, pres.ngens):
            try:
                check_automorphism(g, trunc)
            except NotAnAutomorphismError:
                with pytest.raises(NotAnAutomorphismError):
                    brute_force_trace(g, trunc)
                rejected += 1
                continue
            accepted += 1
            assert brute_force_trace(g, trunc) == \
                word_by_word_trace(g, trunc, cutoff), g
            # order < cutoff
            assert brute_force_trace(g, trunc, cutoff - 2) == \
                word_by_word_trace(g, trunc, cutoff - 2), g
        assert accepted >= 3, (accepted, rejected)

    @pytest.mark.parametrize("name", [
        "shear-fixed monomial quotient by x^2, yxy",
        "shear-fixed normal quotient by x^2"])
    def test_shear_is_an_automorphism(self, name):
        pres, cutoff = self.CASES[name]
        trunc = build_truncation(pres, cutoff)
        check_automorphism(self.shear, trunc)
        # the shear is unipotent: its trace on A_d is dim A_d
        assert brute_force_trace(self.shear, trunc) == Series(trunc.dims())
        assert word_by_word_trace(self.shear, trunc, cutoff) == \
            Series(trunc.dims())

    def test_shear_maps_the_monomial_ideal_into_itself(self):
        # independent of the algebra's product: in the free algebra, each
        # word of length <= 6 with a factor x^2 or yxy goes to a sum of
        # such words
        relations = [(0, 0), (1, 0, 1)]
        images = {0: [(0,)], 1: [(0,), (1,)]}  # x -> x, y -> x + y
        for length in range(2, 7):
            for word in _words(2, length):
                if not any(_occurs(word, r) for r in relations):
                    continue
                image = [()]
                for letter in word:
                    image = [w + v for w in image for v in images[letter]]
                assert all(any(_occurs(w, r) for r in relations)
                           for w in image), word

    def test_shear_on_the_skew_plane_is_rejected(self):
        # (x + y) x + x (x + y) = 2 x^2 is not zero in k_{-1}[x, y]
        trunc = build_truncation(quantum_affine(skew_symmetric_q(2)), 6)
        with pytest.raises(NotAnAutomorphismError, match="commutation"):
            check_automorphism(self.shear, trunc)
        with pytest.raises(NotAnAutomorphismError):
            brute_force_trace(self.shear, trunc)

    def test_relations_beyond_the_cutoff_are_checked(self):
        # the relation word xyx has length 3 > cutoff 2, and the swap sends
        # it to yxy, which is no relation
        pres = monomial_quotient(["x", "y"], [(0, 1, 0)])
        swap = CyclotomicMatrix([[0, 1], [1, 0]])
        with pytest.raises(NotAnAutomorphismError, match="relation x y x"):
            check_automorphism(swap, build_truncation(pres, 2))

    def test_rejections_still_come_first(self):
        trunc = build_truncation(quantum_affine([[1, 2], [Fraction(1, 2), 1]]), 4)
        with pytest.raises(NotAnAutomorphismError):
            brute_force_trace(CyclotomicMatrix([[1, 1], [0, 1]]), trunc)
        trunc = build_truncation(*self.CASES["normal quotient by x^2"])
        swap = CyclotomicMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        with pytest.raises(NotAnAutomorphismError):
            brute_force_trace(swap, trunc)
        with pytest.raises(ValueError):
            brute_force_trace(CyclotomicMatrix.identity(3), trunc,
                              trunc.cutoff + 1)


def obeys_scalar_rule(x):
    """An int, a Fraction that is not integral, or an irrational number."""
    if type(x) is int:
        return True
    if type(x) is Fraction:
        return x.denominator != 1
    return type(x) is CyclotomicNumber and any(x.coords[1:])


class TestScalarRule:
    def test_every_layer_returns_rationals_as_ints_and_fractions(self):
        # diagonal and monomial 2x2 matrices with zeta_N entries, through
        # matrix arithmetic, charpolys, trace series, hdet and brute force
        rng = random.Random(29)
        trunc = build_truncation(quantum_affine([[1, 1], [1, 1]]), 6)
        for n in (2, 3, 4, 6, 12):
            for monomial in (False, True) * 3:
                a, b = (CyclotomicNumber.zeta(n, rng.randrange(n))
                        for _ in range(2))
                g = CyclotomicMatrix([[0, a], [b, 0]] if monomial
                                     else [[a, 0], [0, b]])
                for m in (g, g * g, g.inverse()):
                    assert all(obeys_scalar_rule(x) for row in m.rows
                               for x in row), m
                assert all(obeys_scalar_rule(c)
                           for c in g.reciprocal_charpoly()), g
                trace = reciprocal_charpoly_trace(g)
                assert all(obeys_scalar_rule(c) for c in
                           trace.num.coeffs + trace.den.coeffs), trace
                h = hdet(trace, 2, 2)
                # hdet is det g on the commutative polynomial ring
                assert obeys_scalar_rule(h) and h == (-a * b if monomial
                                                      else a * b), g
                assert all(obeys_scalar_rule(c)
                           for c in brute_force_trace(g, trunc)), g


class TestMolienWithBruteForce:
    def brute_assignment(self, group, trunc, den_bound):
        traces = tuple(
            reconstruct(brute_force_trace(g, trunc), 0, den_bound)
            for g in group.elements)
        return TraceAssignment(group, traces,
                               (PROVENANCE_BRUTE_FORCE,) * group.order)

    def test_mystic_fixed_ring(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 12)
        group = closure([mystic_g()], cap=10)
        got = molien(group, self.brute_assignment(group, trunc, 3))
        want = quotient_series([2, 2, 2, 3], [6])
        assert got == want

    def test_double_swap_fixed_ring(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(4)), 12)
        group = closure([double_swap_g()], cap=10)
        got = molien(group, self.brute_assignment(group, trunc, 4))
        want = normalize(P(1, -2, 4, -2, 1),
                         P(1, -1) ** 4 * P(1, 0, 1) ** 2)
        assert got == want

    def test_matches_invariant_dimension_count(self):
        # independent oracle: Molien coefficients = dim ker(g - I) per degree;
        # for a cyclic group, fixed under the generator means fixed under all
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 12)
        group = closure([mystic_g()], cap=10)
        series = expand(molien(group, self.brute_assignment(group, trunc, 3)), 12)
        g = mystic_g()
        gen_vectors = []
        for i in range(3):
            col = {}
            for j in range(3):
                c = g.rows[j][i]
                if c:
                    col[(j,)] = c
            gen_vectors.append(col)
        assert series[0] == 1
        for d in range(1, 13):
            labels = trunc.bases[d]
            pos = {lab: k for k, lab in enumerate(labels)}
            rank = 0
            reduced = {}
            for lab in labels:
                word = lab
                cur = dict(gen_vectors[word[0]])
                for deg, letter in enumerate(word[1:], start=1):
                    cur = trunc.mul(deg, cur, 1, gen_vectors[letter])
                dense = [Fraction(0)] * len(labels)
                for lab2, c in cur.items():
                    dense[pos[lab2]] += Fraction(c)
                dense[pos[lab]] -= 1
                if _rref_add(reduced, dict(enumerate(dense))) is not None:
                    rank += 1
            assert len(labels) - rank == series[d]


class TestBetti:
    def test_square_zero_row_sums(self):
        trunc = build_truncation(koszul_dual_square_zero(), 8)
        table = betti_numbers(trunc)
        for i in range(7):
            assert table.row_sum(i) == i + 1
        # concentrated on the diagonal (Koszul)
        assert all(i == j for (i, j) in table.entries)

    def test_commutative_plane_is_koszul_complex(self):
        ones = [[1, 1], [1, 1]]
        trunc = build_truncation(quantum_affine(ones), 8)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_quantum_plane(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(2)), 8)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_free_algebra(self):
        trunc = build_truncation(free_algebra(2), 6)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 2}

    def test_first_syzygies_are_generators(self):
        trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 6)
        table = betti_numbers(trunc)
        assert table.b(1, 1) == 3
        assert all(j == 1 for (i, j) in table.entries if i == 1)

    def test_hypersurface_pattern(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        trunc = build_truncation(pres, 8)
        table = betti_numbers(trunc)
        assert [table.row_sum(i) for i in range(9)] == [1, 2, 2, 2, 2, 2, 2, 2, 2]

    def test_quadratic_monomial_quotient_matches_anick_chains(self):
        # k<x_1..x_n>/(W) with W a set of length-2 words has a minimal Anick
        # resolution (Anick, Trans. AMS 296, 1986): b(1, 1) = n, b(i, i)
        # counts the length-i words whose every length-2 factor lies in W,
        # and nothing sits off the diagonal
        rng = random.Random(31)
        for n, cutoff in ((2, 7), (3, 5), (3, 6)) * 5:
            pairs = [(a, b) for a in range(n) for b in range(n)]
            relations = set(rng.sample(pairs, rng.randint(0, len(pairs))))
            want = {(0, 0): 1, (1, 1): n}
            chains = [(a,) for a in range(n)]
            for i in range(2, cutoff + 1):
                chains = [c + (b,) for c in chains for b in range(n)
                          if (c[-1], b) in relations]
                if chains:
                    want[(i, i)] = len(chains)
            pres = monomial_quotient([f"x{k}" for k in range(n)],
                                     sorted(relations))
            table = betti_numbers(build_truncation(pres, cutoff))
            assert table.entries == want, sorted(relations)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_letter_relation_kills_its_generator(self, seed):
        # k<x0, x1, x2>/(x0, W) is k<x1, x2>/(W): x0 is no basis word and acts
        # as zero, so it adds nothing to any (m K)_j
        _, relations = random_monomial_quotient(random.Random(seed), 2)
        for rels in (relations, [(0, 1), (0, 0, 0)]):
            killed = monomial_quotient(
                ["x0", "x1", "x2"],
                [(0,)] + [tuple(i + 1 for i in r) for r in rels])
            trunc = build_truncation(killed, 6)
            assert trunc.generator_vector(0) == (1, {})
            want = betti_numbers(build_truncation(
                monomial_quotient(["x1", "x2"], rels), 6))
            assert betti_numbers(trunc).entries == want.entries, rels

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monomial_quotient_matches_anick_chains_in_every_row(self, seed):
        # relations up to length 4 put entries off the diagonal, in rows
        # where the (m K)_j span fills K_j early and where products test a
        # relation across the join
        rng = random.Random(seed)
        for n, cutoff in ((2, 7), (3, 6), (2, 7), (3, 6)):
            pres, relations = random_monomial_quotient(rng, n)
            table = betti_numbers(build_truncation(pres, cutoff))
            assert table.entries == anick_chain_betti(n, relations, cutoff), \
                relations

    def test_weighted_quantum_affine_is_koszul_complex(self):
        # any quantum affine space is resolved by its Koszul complex: b(i, j)
        # counts the i-subsets of the generator degrees with sum j; the q
        # entries put Fraction and Q(zeta_3) scalars on the pivots
        z = CyclotomicNumber.zeta(3)
        values = [-1, 2, Fraction(-1, 3), z, z * z]
        rng = random.Random(43)
        for n in (2, 3, 2, 3, 2, 3):
            degrees = [rng.choice((1, 2, 3)) for _ in range(n)]
            q = [[1] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    q[i][j] = rng.choice(values)
                    q[j][i] = 1 / q[i][j]
            want = {}
            for mask in range(1 << n):
                subset = [d for k, d in enumerate(degrees) if mask >> k & 1]
                key = (len(subset), sum(subset))
                want[key] = want.get(key, 0) + 1
            trunc = build_truncation(quantum_affine(q, degrees=degrees),
                                     sum(degrees))
            assert betti_numbers(trunc).entries == want, (degrees, q)

    def test_generator_killed_by_a_normal_element(self):
        pres = normal_quotient(skew_symmetric_q(3), [{(1, 0, 0): 1}])
        trunc = build_truncation(pres, 6)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
        assert not any(euler_check(table, trunc.hilbert_coefficients(), 6))


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weighted_monomial_quotient_matches_anick_chains(self, seed):
        # generators of degree 2 give chains whose internal degree is not
        # their length, and weight blocks that share a degree
        rng = random.Random(seed)
        for n, cutoff in ((2, 8), (3, 6), (2, 8), (3, 6)):
            degrees = [rng.choice((1, 2)) for _ in range(n)]
            _, relations = random_monomial_quotient(rng, n)
            pres = monomial_quotient([f"x{k}" for k in range(n)], relations,
                                     degrees)
            table = betti_numbers(build_truncation(pres, cutoff))
            assert table.entries == anick_chain_betti(n, relations, cutoff,
                                                      degrees), \
                (degrees, relations)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_weighted_quantum_affine_is_koszul_complex(self, seed):
        # b(i, j) counts the i-subsets of the generator degrees with sum j,
        # and the window runs past the top of the Koszul complex
        rng = random.Random(seed)
        values = [1, -1, 2, Fraction(-1, 3), Fraction(3, 2)]
        for n in (2, 3, 4):
            degrees = [rng.choice((1, 2)) for _ in range(n)]
            q = [[1] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    q[i][j] = rng.choice(values)
                    q[j][i] = 1 / Fraction(q[i][j])
            cutoff = sum(degrees) + 1
            want = {}
            for mask in range(1 << n):
                subset = [d for k, d in enumerate(degrees) if mask >> k & 1]
                key = (len(subset), sum(subset))
                want[key] = want.get(key, 0) + 1
            trunc = build_truncation(quantum_affine(q, degrees=degrees),
                                     cutoff)
            assert betti_numbers(trunc).entries == want, (degrees, q)

    @pytest.mark.parametrize("normal, degrees, cutoff, want", [
        # a monomial: graded by letter counts, with x2 in degree 2
        ({(0, 2, 0): 1}, (1, 2, 1), 8,
         {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 2, (2, 4): 1,
          (3, 4): 1, (3, 5): 2, (3, 6): 1, (4, 6): 1, (4, 7): 2, (4, 8): 1,
          (5, 8): 1}),
        # a central element that is no monomial: graded by the degree alone
        ({(2, 0, 0): 1, (0, 2, 0): Fraction(1, 2), (0, 0, 2): 1},
         (1, 1, 1), 7,
         {(0, 0): 1, (1, 1): 3, (2, 2): 4, (3, 3): 4, (4, 4): 4, (5, 5): 4,
          (6, 6): 4, (7, 7): 4}),
    ])
    def test_normal_quotient_tables(self, normal, degrees, cutoff, want):
        pres = normal_quotient(skew_symmetric_q(3), [normal], degrees=degrees)
        trunc = build_truncation(pres, cutoff)
        table = betti_numbers(trunc)
        assert table.entries == want
        assert not any(euler_check(table, trunc.hilbert_coefficients(),
                                   cutoff))

    def test_block_lookups_check_the_degree(self):
        # with three letters, the weight of x3 less that of x2 is the weight
        # of x2^cutoff, of another degree; the blocks are visited in
        # increasing degree, so that block is not built yet when x3's is
        pres = normal_quotient(skew_symmetric_q(3), [{(0, 0, 2): 1}])
        trunc = build_truncation(pres, 5)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 4, (3, 3): 4,
                                 (4, 4): 4, (5, 5): 4}
        assert not any(euler_check(table, trunc.hilbert_coefficients(), 5))

    @pytest.mark.parametrize("make", [
        lambda c: free_algebra(2, (1, c)),
        lambda c: quantum_affine(skew_symmetric_q(2), degrees=(1, c)),
        lambda c: monomial_quotient("xy", [(0, 1)], (1, c)),
    ], ids=["free", "quantum", "monomial"])
    @pytest.mark.parametrize("cutoff", [3, 5])
    def test_block_lookups_check_the_degree_at_the_cutoff(self, make,
                                                          cutoff):
        # y has the degree of the cutoff, and its weight less that of x is
        # the weight of x^cutoff: a block of the same degree as y's, built
        # before it.  x times it lies above the cutoff; a free or quantum
        # product does not drop it, so a lookup by weight alone would count
        # x^(cutoff + 1) in the span at y and lose y from row 1
        table = betti_numbers(build_truncation(make(cutoff), cutoff))
        assert table.b(1, 1) == 1 and table.b(1, cutoff) == 1
        assert table.row_sum(1) == 2

    def test_negative_cutoff_is_bad_input(self):
        trunc = build_truncation(quantum_affine([[1, -1], [-1, 1]]), 4)
        with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
            betti_numbers(trunc, -1)

    def test_nullspace_only_where_a_generator_sits(self, monkeypatch):
        # the (-1)-skew 4-space has Koszul rows C(4, i) at degree i.  Every
        # other block of each kernel is spanned from below, and row 1 needs
        # no elimination (k is 0 above degree 0), so the differential is
        # solved only at the 6 + 4 + 1 weight blocks that hold a generator
        # of rows 2-4
        calls = []

        def spy(columns):
            calls.append(len(columns))
            return nullspace(columns)

        nullspace = algebras._nullspace
        monkeypatch.setattr(algebras, "_nullspace", spy)
        trunc = build_truncation(quantum_affine(skew_symmetric_q(4)), 6)
        table = betti_numbers(trunc)
        assert table.entries == {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4,
                                 (4, 4): 1}
        assert len(calls) <= 11

    def test_a_short_nullspace_is_an_error(self, monkeypatch):
        # the differential must be onto the kernel one step down; a kernel
        # smaller than that predicts is reported, not resolved further
        nullspace = algebras._nullspace
        monkeypatch.setattr(algebras, "_nullspace",
                            lambda columns: nullspace(columns)[:-1])
        trunc = build_truncation(quantum_affine(skew_symmetric_q(2)), 3)
        with pytest.raises(RuntimeError, match="^d_1 is not onto K_0 at "):
            betti_numbers(trunc)


def dense_independent(vectors):
    """Indices of the sparse vectors that enlarge the span of those before
    them, by dense forward elimination over Q."""
    keys = sorted({k for v in vectors for k in v})
    index = {k: c for c, k in enumerate(keys)}
    echelon, picked = [], []
    for n, vec in enumerate(vectors):
        row = [Fraction(0)] * len(keys)
        for k, x in vec.items():
            row[index[k]] += x
        for pivot, other in echelon:
            if row[pivot]:
                f = row[pivot]
                row = [a - f * b for a, b in zip(row, other)]
        pivot = next((c for c, a in enumerate(row) if a), None)
        if pivot is not None:
            echelon.append((pivot, [a / row[pivot] for a in row]))
            picked.append(n)
    return picked


def dense_nullspace(columns):
    """A kernel basis of the matrix with these sparse columns, by dense
    Gauss-Jordan elimination over Q: one vector per free column."""
    keys = sorted({k for col in columns for k in col})
    index = {k: r for r, k in enumerate(keys)}
    m = [[Fraction(0)] * len(columns) for _ in keys]
    for c, col in enumerate(columns):
        for k, x in col.items():
            m[index[k]][c] += x
    pivots = []
    for c in range(len(columns)):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(columns)) if c not in pivots):
        vec = {free: 1}
        for r, c in enumerate(pivots):
            if m[r][free]:
                vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def plain_betti(trunc, cutoff):
    """Betti numbers of the trivial module by the textbook minimal
    resolution, one block per degree and no weights: K_0 = A_+ in F_0 = A;
    the minimal generators of K_{i-1} in degree j are the vectors of a basis
    of K_{i-1,j} that enlarge the span of every x_k v, v in K_{i-1,j-|x_k|};
    F_i is free on them and K_i is the dense nullspace of F_i -> F_{i-1},
    degree by degree.  Products go through ``Truncation.mul``.  Vectors of
    a free module are dicts keyed by (generator, basis word)."""
    degree = {lab: j for j in range(cutoff + 1) for lab in trunc.bases[j]}
    xs = [trunc.generator_vector(k)
          for k in range(trunc.presentation.ngens)]

    def times(d, x, vec):
        out = {}
        for (s, lab), c in vec.items():
            for lab2, c2 in trunc.mul(d, x, degree[lab], {lab: c}).items():
                out[s, lab2] = out.get((s, lab2), 0) + c2
        return out

    entries = {(0, 0): 1}
    kernel = {j: [{(0, lab): 1} for lab in trunc.bases[j]]
              for j in range(1, cutoff + 1)}
    for i in range(1, cutoff + 1):
        gens = []  # (degree, vector) of each generator of F_i
        for j in range(1, cutoff + 1):
            span = [times(d, x, v) for d, x in xs if d < j
                    for v in kernel[j - d]]
            gens.extend((j, kernel[j][n - len(span)])
                        for n in dense_independent(span + kernel[j])
                        if n >= len(span))
        if not gens:
            break
        for j, _ in gens:
            entries[i, j] = entries.get((i, j), 0) + 1
        for j in range(1, cutoff + 1):
            domain = [(s, lab) for s, (ds, _) in enumerate(gens) if ds <= j
                      for lab in trunc.bases[j - ds]]
            columns = [times(j - gens[s][0], {lab: 1}, gens[s][1])
                       for s, lab in domain]
            kernel[j] = [{domain[c]: x for c, x in vec.items()}
                         for vec in dense_nullspace(columns)]
    return entries


def oracle_sweep_algebras(rng):
    """(presentation, cutoff) pairs: weighted monomial quotients, some with
    one-letter relations; weighted quantum affine spaces with Fraction q;
    free algebras; and quotients of the (-1)-skew 3-space by central sums
    of squares, which the ideal grades by degree alone."""
    for _ in range(4):
        n = rng.choice((2, 3))
        pool = [w for length in (2, 3, 4) for w in _words(n, length)]
        relations = rng.sample(pool, rng.randint(1, 5))
        if rng.random() < 0.3:
            relations.append((rng.randrange(n),))
        degrees = [rng.choice((1, 1, 2)) for _ in range(n)]
        yield (monomial_quotient([f"x{k}" for k in range(n)], relations,
                                 degrees), 5)
    for _ in range(3):
        n = rng.choice((2, 3))
        degrees = [rng.choice((1, 2)) for _ in range(n)]
        q = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = rng.choice((1, -1, 2, Fraction(-1, 3)))
                q[j][i] = 1 / Fraction(q[i][j])
        yield quantum_affine(q, degrees=degrees), 5
    n = rng.choice((1, 2))
    yield free_algebra(n, [rng.choice((1, 2)) for _ in range(n)]), 4
    c = rng.choice((2, -1, Fraction(1, 2), Fraction(-3, 2)))
    yield normal_quotient(skew_symmetric_q(3),
                          [{(2, 0, 0): 1, (0, 2, 0): c, (0, 0, 2): 1}]), 5
    yield normal_quotient(skew_symmetric_q(3),
                          [{(2, 0, 0): 1, (0, 0, 2): c}, {(0, 2, 0): 1}]), 5


class TestPlainResolution:
    def test_oracle_on_pinned_tables(self):
        # the square-zero algebra's rows i + 1 on the diagonal; the
        # hypersurface k_{-1}[x, y]/(x^2), (1 + st)^2 / (1 - s^2 t^2); and
        # the free algebra, resolved in one step
        trunc = build_truncation(koszul_dual_square_zero(), 5)
        assert plain_betti(trunc, 5) == {(i, i): i + 1 for i in range(6)}
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        assert plain_betti(build_truncation(pres, 5), 5) == {
            (0, 0): 1, **{(i, i): 2 for i in range(1, 6)}}
        trunc = build_truncation(free_algebra(2, (1, 2)), 4)
        assert plain_betti(trunc, 4) == {(0, 0): 1, (1, 1): 1, (1, 2): 1}

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_betti_numbers_match_the_plain_resolution(self, seed):
        for pres, cutoff in oracle_sweep_algebras(random.Random(seed)):
            trunc = build_truncation(pres, cutoff)
            assert betti_numbers(trunc).entries == plain_betti(trunc, cutoff), \
                pres


class TestEulerCheck:
    def test_square_zero(self):
        trunc = build_truncation(koszul_dual_square_zero(), 8)
        table = betti_numbers(trunc)
        h = normalize(P(1, 2, 1), P(1))
        assert not any(euler_check(table, h, 8))

    def test_free_algebra(self):
        trunc = build_truncation(free_algebra(2), 8)
        table = betti_numbers(trunc)
        h = normalize(P(1), P(1, -2))
        assert not any(euler_check(table, h, 8))

    def test_quantum_plane_mod_square(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        trunc = build_truncation(pres, 8)
        table = betti_numbers(trunc)
        h = quotient_series([1, 1], [2])
        assert not any(euler_check(table, h, 8))

    def test_wrong_series_leaves_the_exact_residual(self):
        # the free algebra on 2 generators has Betti polynomial 1 - 2t; the
        # commutative plane's 1/(1 - t)^2 gives (1 - 2t) sum (k+1) t^k - 1,
        # whose coefficient of t^k is -(k - 1) for k >= 1
        table = betti_numbers(build_truncation(free_algebra(2), 6))
        assert table.entries == {(0, 0): 1, (1, 1): 2}
        want = Series([0, 0, -1, -2, -3, -4, -5])
        assert euler_check(table, normalize(P(1), P(1, -1) ** 2), 6) == want
        assert euler_check(table, Series(range(1, 10)), 6) == want


class TestTorInequalities:
    def test_quantum_plane_and_hypersurface(self):
        a = betti_numbers(build_truncation(
            quantum_affine(skew_symmetric_q(2)), 10))
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        b = betti_numbers(build_truncation(pres, 10))
        verdicts = tor_inequalities(a, b, 2)
        assert all(v.bound_holds for v in verdicts)
        assert all(v.gap_holds for v in verdicts if v.gap_holds is not None)
        assert verdicts[8].gap_holds is not None

    def test_commutative_quadric(self):
        ones = [[1, 1], [1, 1]]
        a = betti_numbers(build_truncation(quantum_affine(ones), 10))
        pres = normal_quotient(ones, [{(2, 0): 1, (0, 2): 1}])
        b = betti_numbers(build_truncation(pres, 10))
        assert [b.row_sum(i) for i in range(5)] == [1, 2, 2, 2, 2]
        verdicts = tor_inequalities(a, b, 2)
        assert all(v.bound_holds for v in verdicts)
        assert all(v.gap_holds for v in verdicts if v.gap_holds is not None)

    def test_degree_zero_guard(self):
        a = betti_numbers(build_truncation(
            quantum_affine(skew_symmetric_q(2)), 8))
        with pytest.raises(ValueError):
            tor_inequalities(a, a, 0)


class TestGrowthEstimate:
    def test_linear_row_growth(self):
        trunc = build_truncation(koszul_dual_square_zero(), 12)
        hint = growth_estimate(betti_numbers(trunc))
        assert hint.kind == "estimate"
        # the log-log slope of n(n+1)/2-type sums converges to 2 from below
        assert 1.4 < hint.value < 2.2

    def test_finite_resolution(self):
        ones = [[1, 1], [1, 1]]
        hint = growth_estimate(betti_numbers(
            build_truncation(quantum_affine(ones), 8)))
        assert hint.kind == "zero"
        assert hint.value == 0.0

    def test_hypersurface_is_one(self):
        pres = normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}])
        hint = growth_estimate(betti_numbers(build_truncation(pres, 10)))
        assert hint.kind == "estimate"
        assert abs(hint.value - 1) < 0.2

    def test_exponential_is_divergent(self):
        pres = monomial_quotient(["x", "y"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        trunc = build_truncation(pres, 8)
        hint = growth_estimate(betti_numbers(trunc))
        assert hint.kind == "divergent"
