import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedseries.algebras import build_truncation, normal_quotient, skew_symmetric_q
from gradedseries.cyclofield import CyclotomicMatrix, CyclotomicNumber
from gradedseries.cyclotomic import euler_phi
from gradedseries.exact import (
    AmbiguousDataError,
    Immutable,
    NonUnitConstantError,
    NoSolutionError,
    Poly,
    RationalFunction,
    Series,
    ZeroDenominatorError,
    _reduce_vec,
    _rref_add,
    _simplify,
    _solve_linear,
    expand,
    multiplicity_at_one,
    normalize,
    one_minus_power,
    poly_gcd,
    poly_to_str,
    reconstruct,
    scalar_inverse,
    series_quotient,
)
from gradedseries.groups import closure, subgroups


def long_division_oracle(p, q, n):
    """Independent series oracle: divide p by q term by term over Fraction."""
    out = []
    pc = list(p.coeffs) + [0] * (n + 1)
    qc = list(q.coeffs)
    q0 = Fraction(qc[0])
    for k in range(n + 1):
        acc = Fraction(pc[k])
        for j in range(1, min(k, len(qc) - 1) + 1):
            acc -= qc[j] * out[k - j]
        out.append(acc / q0)
    return [Fraction(c) for c in out]


def P(*coeffs):
    return Poly(coeffs)


ONE_MINUS_T = P(1, -1)


class TestPoly:
    def test_strip_and_zero(self):
        assert Poly((0, 0)).coeffs == ()
        assert not Poly()
        assert P(1, 0, 2).degree == 2

    def test_arithmetic(self):
        a = P(1, 2)
        b = P(0, 0, 3)
        assert a + b == P(1, 2, 3)
        assert a - a == Poly()
        assert a * b == P(0, 0, 3, 6)
        assert (ONE_MINUS_T ** 3) == P(1, -3, 3, -1)
        assert a(2) == 5

    def test_divmod_exact(self):
        num = one_minus_power(6)
        q, r = divmod(num, one_minus_power(3))
        assert r == Poly()
        assert q == P(1, 0, 0, 1)
        assert num.exact_div(one_minus_power(2)) == P(1, 0, 1, 0, 1)

    def test_mod_is_the_divmod_remainder(self):
        rng = random.Random(17)
        for field in ("int", "fraction", "cyclotomic"):
            for _ in range(25):
                p = Poly([random_scalar(rng, field)
                          for _ in range(rng.randint(0, 7))])
                q = Poly([random_scalar(rng, field)
                          for _ in range(rng.randint(1, 4))])
                if q:
                    assert p % q == divmod(p, q)[1], (p, q)
        with pytest.raises(ZeroDivisionError):
            P(1, 2) % Poly()

    def test_series_quotient(self):
        assert series_quotient(one_minus_power(6), P(1, 0, 0, -1)) == \
            P(1, 0, 0, 1)
        assert series_quotient(Poly(), ONE_MINUS_T) == Poly()
        # 1 - t does not divide 1 + t^2, nor anything of lower degree
        assert series_quotient(P(1, 0, 1), ONE_MINUS_T) is None
        assert series_quotient(P(1), ONE_MINUS_T) is None
        rng = random.Random(19)
        for _ in range(25):
            q = Poly([random_scalar(rng, "cyclotomic") for _ in range(4)])
            d = Poly([1] + [random_scalar(rng, "cyclotomic") for _ in range(3)])
            if q:
                assert series_quotient(q * d, d) == q

    def test_gcd_subresultant(self):
        a = one_minus_power(2) ** 3
        b = ONE_MINUS_T ** 7
        g = poly_gcd(a, b)
        assert g == (ONE_MINUS_T ** 3).monic()
        # gcd of coprime polynomials is 1
        assert poly_gcd(P(1, -1, 1), ONE_MINUS_T ** 2) == P(1)
        # random smoke check: gcd divides both
        rng = random.Random(7)
        for _ in range(25):
            f = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
            g1 = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
            h = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            if not (f and g1 and h):
                continue
            d = poly_gcd(f * h, g1 * h)
            (f * h).exact_div(d)
            (g1 * h).exact_div(d)

    @pytest.mark.parametrize("field", ["fraction", 3, 4, 12])
    def test_gcd_over_the_coefficient_field(self, field):
        rng = random.Random(53)

        def scalar():
            if field == "fraction":
                return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            z = CyclotomicNumber.zeta(field)
            return sum(rng.randint(-2, 2) * z ** k
                       for k in range(euler_phi(field)))

        def poly(degree):
            while True:
                p = Poly([scalar() for _ in range(degree + 1)])
                if p.degree == degree:
                    return p

        for _ in range(15):
            h = poly(rng.randint(1, 3))
            a = poly(rng.randint(0, 4)) * h
            b = poly(rng.randint(0, 4)) * h
            g = poly_gcd(a, b)
            assert g.leading == 1
            assert not a % g and not b % g
            assert not g % h
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert poly_gcd(P(1, 2), Poly()) == P(Fraction(1, 2), 1)
        assert poly_gcd(P(1, 2), P(2, 4)) == P(Fraction(1, 2), 1)

    def test_inflate_reverse_multiplicity(self):
        assert P(1, 2).inflated(3) == P(1, 0, 0, 2)
        assert P(1, 2, 1).reversed() == P(1, 2, 1)
        assert P(0, 1).reversed() == P(1)
        assert multiplicity_at_one(ONE_MINUS_T ** 4 * P(1, 1)) == 4

    def test_printing(self):
        assert poly_to_str(P(1, -2, 4, -2, 1)) == "1 - 2t + 4t^2 - 2t^3 + t^4"
        assert poly_to_str(P(0, 1)) == "t"
        assert poly_to_str(P(-1, 0, -1)) == "-1 - t^2"
        assert poly_to_str(Poly()) == "0"
        assert poly_to_str(P(Fraction(1, 2), Fraction(3, 2))) == "1/2 + (3/2)t"

    @pytest.mark.parametrize("scalar", [
        3, -1, 0, Fraction(2, 3), Fraction(-5, 7),
        CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(8, 3) + 1])
    def test_constants_hash_as_their_scalar(self, scalar):
        # equal values hash alike, so a set or dict key does not split them
        values = [RationalFunction([scalar])]
        if not isinstance(scalar, CyclotomicNumber):
            values.append(Poly((scalar,)))
        for value in values:
            assert value == scalar and hash(value) == hash(scalar)
            assert len({scalar, value}) == 1
        assert hash(Poly(())) == hash(0) and len({0, Poly(())}) == 1

    def test_cyclotomic_scalars_meet_polys(self):
        # a CyclotomicNumber is a scalar to + - and == as it is to *, on
        # either side, and a constant Poly of it equals it
        z = CyclotomicNumber.zeta(5)
        one = Poly((1,))
        assert one + z == z + one == Poly((1 + z,))
        assert one - z == Poly((1 - z,)) and z - one == Poly((z - 1,))
        assert Poly((1, 1)) * z == Poly((z, z))
        assert Poly((z,)) == z and z == Poly((z,))
        assert Poly((z,)) != CyclotomicNumber.zeta(5, 2)
        assert len({z, Poly((z,))}) == 1


class TestNormalize:
    def test_stanley_forms(self):
        # (1-t^2)^3 / (1-t)^7 reduces to (1+t)^3 / (1-t)^4
        f = normalize(one_minus_power(2) ** 3, ONE_MINUS_T ** 7)
        assert f.num == P(1, 1) ** 3
        assert f.den == ONE_MINUS_T ** 4

    def test_self_cancellation(self):
        for p in (P(2, 1), P(1, 0, 5), P(-3, 4)):
            f = normalize(p, p)
            assert f.num == P(1) and f.den == P(1)

    def test_two_forms_of_order3_fixed_ring(self):
        a = normalize(P(1, -1, 1), ONE_MINUS_T ** 2 * one_minus_power(3))
        b = normalize(one_minus_power(6),
                      ONE_MINUS_T * one_minus_power(2) * one_minus_power(3) ** 2)
        assert a == b

    def test_errors(self):
        with pytest.raises(ZeroDenominatorError):
            normalize(P(1), Poly())
        with pytest.raises(NonUnitConstantError):
            normalize(P(1), P(0, 1))
        with pytest.raises(NonUnitConstantError):
            normalize(P(1), P(2, -1))  # 1/(2-t) is not an integer series

    def test_idempotent_and_coprime(self):
        f = normalize(P(2, 2) * one_minus_power(3), ONE_MINUS_T * P(2, 0, 2))
        again = normalize(f.num, f.den)
        assert f == again
        assert poly_gcd(f.num, f.den) == P(1)
        assert f.den.constant_term == 1

    def test_fraction_input_cleared(self):
        f = normalize(Poly((Fraction(1, 3), Fraction(2, 3))),
                      Poly((Fraction(1, 3), Fraction(-1, 3))))
        assert f == normalize(P(1, 2), ONE_MINUS_T)

    def test_common_factors_of_t_cancel_first(self):
        t = P(0, 1)
        for p, q in ((P(1, 2), ONE_MINUS_T), (P(3), P(1, 1) * ONE_MINUS_T),
                     (one_minus_power(2), ONE_MINUS_T ** 2)):
            assert normalize(t * p, t * q) == normalize(p, q)
            assert normalize(t * t * p, t * q * t) == normalize(p, q)
        with pytest.raises(NonUnitConstantError):
            normalize(t, t * t)  # 1/t once the common t cancels
        with pytest.raises(NonUnitConstantError):
            normalize(t, t * P(2, -1))

    def test_rational_cyclotomic_coefficients_give_the_same_value(self):
        # one reducer over Q and Q(zeta_N): the value does not depend on the
        # field its rational coefficients were written in
        rng = random.Random(23)
        for n in (3, 4, 12):
            for _ in range(10):
                p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
                q = Poly([1] + [rng.randint(-3, 3)
                                for _ in range(rng.randint(0, 4))])
                g = Poly([rng.randint(1, 3)] + [rng.randint(-3, 3)
                                                for _ in range(rng.randint(0, 2))])
                if not p:
                    continue
                f = normalize(p, q)

                def lifted(poly):
                    return Poly([CyclotomicNumber(n, [c] + [0] * (euler_phi(n) - 1))
                                 for c in poly.coeffs])

                h = RationalFunction(lifted(p * g), lifted(q * g))
                assert h == f and hash(h) == hash(f) and str(h) == str(f)
                assert h.is_rational() and h.to_rational_function() == f


class TestExpand:
    def test_binomial_series(self):
        f = normalize(P(1), ONE_MINUS_T ** 2)
        assert expand(f, 3) == Series([1, 2, 3, 4])

    def test_veronese_of_plane(self):
        f = normalize(P(1, 2), ONE_MINUS_T ** 2)
        assert expand(f, 3) == Series([1, 4, 7, 10])

    def test_three_factor_convolution(self):
        f = normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2))
        assert expand(f, 5) == Series([1, 2, 4, 6, 9, 12])

    def test_against_long_division_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            q = Poly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            f = normalize(p, q)
            got = expand(f, 12)
            want = long_division_oracle(p, q, 12)
            assert [Fraction(c) for c in got] == want

    def test_arithmetic_commutes_with_expand(self):
        f = normalize(P(1, 1), ONE_MINUS_T ** 2)
        g = normalize(P(1), one_minus_power(2))
        n = 10
        assert expand(f * g, n) == expand(f, n) * expand(g, n)
        assert expand(f + g, n) == expand(f, n) + expand(g, n)


class TestReconstruct:
    def test_geometric(self):
        s = Series([1] * 9)
        f = reconstruct(s, 0, 1)
        assert f == normalize(P(1), ONE_MINUS_T)

    def test_mystic_trace_series(self):
        target = normalize(P(1), P(1, 1) * one_minus_power(2))
        s = expand(target, 12)
        assert reconstruct(s, 0, 3) == target

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(20):
            p = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            q = Poly([1] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 4))])
            if not p:
                continue
            f = normalize(p, q)
            s = expand(f, f.num.degree + 2 * f.den.degree + 4)
            assert reconstruct(s, max(f.num.degree, 0), f.den.degree) == f

    @pytest.mark.parametrize("bounds", [(2, -2), (0, -1), (-1, 1)])
    def test_negative_bound_is_bad_input(self, bounds):
        # 1/(1 - t) fits these data, so "no solution" would be false
        with pytest.raises(ValueError, match="degree bounds must be "
                           "nonnegative") as err:
            reconstruct(Series([1] * 9), *bounds)
        assert type(err.value) is ValueError

    def test_failure_modes(self):
        with pytest.raises(AmbiguousDataError):
            reconstruct(Series([1, 1, 1]), 0, 3)
        # e^t-like data is not rational within the bounds
        s = Series([Fraction(1, 2) ** (k * k) for k in range(12)])
        with pytest.raises(NoSolutionError):
            reconstruct(s, 1, 1)


def random_scalar(rng, field):
    """A scalar of the field, zero about a third of the time."""
    if rng.random() < 0.35:
        return 0
    if field == "int":
        return rng.randint(-3, 3)
    if field == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    z = CyclotomicNumber.zeta(12)
    return sum(rng.randint(-2, 2) * z ** k for k in range(4))


def combination(rng, field, vectors, ncols):
    out = [0] * ncols
    for vec in vectors:
        c = random_scalar(rng, field)
        for k, x in enumerate(vec):
            out[k] = out[k] + c * x
    return out


class TestRref:
    FIELDS = ("int", "fraction", "cyclotomic")

    def random_matrix(self, rng, field):
        """Rows of a random matrix, some of them combinations of the others."""
        ncols = rng.randint(1, 6)
        rows = [[random_scalar(rng, field) for _ in range(ncols)]
                for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randrange(len(rows) + 1),
                        combination(rng, field, rows, ncols))
        return rows, ncols

    def test_sparse_rows_contract(self):
        rng = random.Random(61)
        for trial in range(60):
            field = self.FIELDS[trial % 3]
            matrix, ncols = self.random_matrix(rng, field)
            rows, dropped = {}, {}
            for vec in matrix:
                got = _rref_add(rows, dict(enumerate(vec)))
                sparse = {k: x for k, x in enumerate(vec) if x}
                assert (got is None) == (_rref_add(dropped, sparse) is None)
            # explicit zero entries change nothing
            assert rows == dropped
            for p, row in rows.items():
                assert row[p] == 1 and min(row) == p
                assert all(row.values())
                assert not (set(row) & set(rows)) - {p}
            for vec in matrix:
                assert _reduce_vec(rows, dict(enumerate(vec))) == {}
            before = {p: dict(row) for p, row in rows.items()}
            in_span = combination(rng, field, matrix, ncols)
            assert _rref_add(rows, dict(enumerate(in_span))) is None
            assert rows == before

    def test_solve_linear(self):
        rng = random.Random(67)
        for trial in range(45):
            field = self.FIELDS[trial % 3]
            matrix, ncols = self.random_matrix(rng, field)
            x = [random_scalar(rng, field) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in matrix]
            sol = _solve_linear(matrix, rhs)
            assert sol is not None
            for row, r in zip(matrix, rhs):
                assert sum((a * b for a, b in zip(row, sol)), 0) == r
            # the same left-hand side twice with two right-hand sides
            assert _solve_linear(matrix + [matrix[0]], rhs + [rhs[0] + 1]) is None


ZETA_5 = CyclotomicNumber.zeta(5)
# int keys, and (generator, word) keys as a free module's would be
RREF_KEYS = {"int": list(range(6)),
             "tuple": [(s, w) for s in range(2) for w in ((), (0,), (0, 1), (1,))]}


def dense_rref(vectors, columns):
    """Gauss-Jordan on the dense rows of vectors, columns in the given order:
    the oracle for ``_rref_add``, as {pivot: sparse row}."""
    rows = [[v.get(k, 0) for k in columns] for v in vectors]
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = scalar_inverse(rows[rank][c])
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[rank])]
        rank += 1
    return {columns[min(c for c, x in enumerate(row) if x)]:
            {columns[c]: x for c, x in enumerate(row) if x}
            for row in rows[:rank]}


@st.composite
def rref_inputs(draw):
    """(field, key kind, vectors): sparse vectors over Q or Q(zeta_5), some
    combinations of the earlier ones, with 1 a frequent entry so that many
    residuals need no rescaling."""
    field = draw(st.sampled_from(["Q", "Q(zeta_5)"]))
    kind = draw(st.sampled_from(sorted(RREF_KEYS)))

    def scalar():
        if draw(st.booleans()):
            return draw(st.sampled_from([0, 1]))
        if field == "Q":
            x = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            return x.numerator if x.denominator == 1 else x
        return sum((draw(st.integers(-2, 2)) * ZETA_5 ** k for k in range(3)),
                   0)

    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        if vectors and draw(st.booleans()):
            vec = {}
            for v in vectors:
                c = scalar()
                for k, x in v.items():
                    vec[k] = vec.get(k, 0) + c * x
        else:
            keys = draw(st.lists(st.sampled_from(RREF_KEYS[kind]),
                                 max_size=4, unique=True))
            vec = {k: scalar() for k in keys}
        vectors.append(vec)
    return field, kind, vectors


class TestRrefProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rref_inputs())
    def test_incremental_rows_are_the_dense_rref(self, inputs):
        _, kind, vectors = inputs
        columns = sorted(RREF_KEYS[kind])
        rows, added = {}, []
        for n, vec in enumerate(vectors):
            before = dict(vec)
            got = _rref_add(rows, vec)
            added.append((vec, before))
            want = dense_rref(vectors[:n + 1], columns)
            assert rows == want
            # None exactly when vec lies in the span of the earlier vectors
            assert (got is None) == (len(want) == len(dense_rref(vectors[:n],
                                                                 columns)))
            assert got is None or rows[min(got)] is got
            for p, row in rows.items():
                assert row[p] == 1 and not (set(row) & set(rows)) - {p}
            # the caller's dict is left as it was and is never stored
            assert vec == before
            assert all(row is not vec for row in rows.values())
        # nor reached by the later additions
        assert all(vec == before for vec, before in added)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rref_inputs())
    # a row operation makes an integral Fraction: 0 - 2 * (1/2) while vec
    # is reduced, and 3/2 - (1/2) * (-1) while a stored row is cleared
    @example(("Q", "int", [{0: 2, 1: 1}, {0: 2}]))
    @example(("Q", "int", [{0: 1, 1: Fraction(1, 2), 2: Fraction(3, 2)},
                           {1: 1, 2: -1}]))
    def test_stored_entries_keep_the_scalar_rule(self, inputs):
        # inputs that follow the scalar rule (a combination of Fractions can
        # be integral) give rows and residuals that follow it, whatever the
        # pivots; an empty form stores the row the dense RREF has
        _, kind, vectors = inputs
        columns = sorted(RREF_KEYS[kind])
        vectors = [{k: _simplify(x) for k, x in vec.items()} for vec in vectors]

        def integral_fractions(row):
            return [x for x in row.values()
                    if type(x) is Fraction and x.denominator == 1]

        rows = {}
        for vec in vectors:
            assert not integral_fractions(_reduce_vec(rows, vec))
            _rref_add(rows, vec)
            for row in rows.values():
                assert not integral_fractions(row), rows
            alone = {}
            got = _rref_add(alone, vec)
            assert alone == dense_rref([vec], columns)
            assert got is None or got is alone[min(got)]
            assert got is None or not integral_fractions(got)


class TestSeries:
    def test_section_and_prefix(self):
        s = Series(range(10))
        assert s.section(3) == Series([0, 3, 6, 9])

    def test_rational_function_algebra(self):
        f = normalize(P(1, 1), ONE_MINUS_T)
        assert f - f == RationalFunction(Poly(), P(1))
        assert f / f == RationalFunction(P(1), P(1))
        assert f ** 2 == f * f
        assert f.inflated(2) == normalize(P(1, 0, 1), one_minus_power(2))


def types(values):
    return tuple(type(c) for c in values)


class TestScalarRuleAtConstructors:
    """Poly and Series simplify only Fractions; a bool stays an int, and is
    kept as it was given, as before the rule was tested by exact type."""

    @pytest.mark.parametrize("cls", [Poly, Series])
    def test_integral_fraction_becomes_int(self, cls):
        value = cls((Fraction(4, 2), Fraction(1, 2), 3, Fraction(-6, 3)))
        assert value.coeffs == (2, Fraction(1, 2), 3, -2)
        assert types(value.coeffs) == (int, Fraction, int, int)

    @pytest.mark.parametrize("cls", [Poly, Series])
    def test_cyclotomic_coefficients_pass_unchanged(self, cls):
        z = CyclotomicNumber.zeta(12)
        w = 1 + z ** 5
        for coeffs in ((z, w), (Fraction(4, 2), z, Fraction(1, 2), w)):
            value = cls(coeffs)
            kept = [c for c in value.coeffs if isinstance(c, CyclotomicNumber)]
            assert kept[0] is z and kept[1] is w

    def test_bool_coefficients(self):
        # the values and types the arithmetic gave before this rule
        p = Poly((True, False, True))
        assert p.coeffs == (True, False, True)
        assert types(p.coeffs) == (bool, bool, bool)
        assert Poly((True, False)).coeffs == (True,)
        assert Poly((False,)).coeffs == ()
        assert types((p + True).coeffs) == (int, bool, bool)
        assert (p + True).coeffs == (2, False, True)
        assert (p * True).coeffs == (1, False, 1)
        assert types((p * True).coeffs) == (int, bool, int)
        assert p != True and Poly((1,)) == True
        assert scalar_inverse(True) is True
        assert str(p) == "True + t^2"
        assert all(type(c) in (int, bool) for c in p.coeffs)
        s = Series((True, Fraction(4, 2), 0))
        assert types(s.coeffs) == (bool, int, int)
        f = RationalFunction((True,), (True, -1))
        assert types(f.num.coeffs + f.den.coeffs) == (bool, bool, int)
        assert f.is_rational()
        assert RationalFunction((1,), (1,)) == True
        assert RationalFunction((1,), (1, -1)) + True == \
            RationalFunction((2, -1), (1, -1))
        z = CyclotomicNumber.zeta(3)
        assert z * True == z and z / True == z and z * False == 0
        assert z + True == z + 1 and z != True
        rows = CyclotomicMatrix([[True, 0], [0, True]]).rows
        assert types((rows[0][0], rows[1][1])) == (bool, bool)

    @pytest.mark.parametrize("field", ["int", "fraction", "cyclotomic"])
    def test_constant_num_or_den_matches_the_gcd_path(self, field):
        # both sides times a nonconstant h with h(0) = 1 have a nontrivial
        # gcd, so the reduction of (num h) / (den h) takes it; the reduced
        # form is unique, so it must give the same coefficients
        rng = random.Random(31)

        def scalar():
            while True:
                c = random_scalar(rng, field)
                if c:
                    return c

        def poly(degree):
            return Poly([scalar() for _ in range(degree + 1)])

        for _ in range(40):
            constant = Poly((scalar(),))
            other = poly(rng.randint(1, 4))
            h = Poly([1] + [random_scalar(rng, field)
                            for _ in range(rng.randint(0, 2))] + [scalar()])
            for num, den in ((constant, other), (other, constant)):
                got = RationalFunction(num, den)
                want = RationalFunction(num * h, den * h)
                assert got.num.coeffs == want.num.coeffs
                assert got.den.coeffs == want.den.coeffs
                assert types(got.num.coeffs) == types(want.num.coeffs)
                assert types(got.den.coeffs) == types(want.den.coeffs)


def _typed(x):
    """x with each scalar paired with its exact type and each immutable
    value unfolded into its slots (all but its cache slots), so that == also
    compares the types inside."""
    if isinstance(x, Immutable):
        return type(x), tuple((n, _typed(getattr(x, n))) for n in x.__slots__
                              if n not in type(x)._CACHES)
    if isinstance(x, (tuple, list)):
        return type(x), tuple(_typed(y) for y in x)
    if isinstance(x, dict):
        return dict, tuple((_typed(k), _typed(v)) for k, v in x.items())
    if isinstance(x, frozenset):
        return frozenset, frozenset(_typed(y) for y in x)
    return type(x), x


_Z6 = CyclotomicNumber.zeta(6)


def _subgroup_with_caches():
    """A subgroup, which keeps its parent, after its index, multiplication
    table and rational classes are built."""
    group = closure([CyclotomicMatrix([[_Z6 ** 2, 0], [0, 1]]),
                     CyclotomicMatrix([[0, 1], [1, 0]])])
    sub = next(h for h in subgroups(group) if h.order == 6)
    sub.rational_classes()
    return sub


def _right_factor():
    """A matrix after a product that fills its cache of nonzero columns."""
    matrix = CyclotomicMatrix([[_Z6, 1], [Fraction(1, 2), 0]])
    CyclotomicMatrix.identity(2) * matrix
    return matrix


IMMUTABLE_VALUES = {
    "Poly": lambda: Poly([1, Fraction(1, 2), _Z6]),
    "RationalFunction": lambda: RationalFunction([1, _Z6], [1, Fraction(-1, 3)]),
    "Series": lambda: Series([1, Fraction(2, 3), _Z6]),
    "CyclotomicNumber": lambda: _Z6 + Fraction(1, 2),
    "CyclotomicMatrix": _right_factor,
    "MatrixGroup": _subgroup_with_caches,
    # a normal quotient's truncation holds an echelon form of its ideal
    "Truncation": lambda: build_truncation(normal_quotient(
        skew_symmetric_q(2), [{(2, 0): Fraction(1, 2), (0, 2): 3}]), 4),
}


@pytest.mark.parametrize("make", IMMUTABLE_VALUES.values(), ids=IMMUTABLE_VALUES)
@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_immutable_values_copy_and_pickle(make, copier):
    value = make()
    hash(value)
    caches = type(value)._CACHES
    assert all(getattr(value, n) is not None for n in caches)
    again = copier(value)
    assert type(again) is type(value)
    # the copy's cached hash (and every other cache slot) is empty: a value
    # cached on the original is not copied, it is computed again
    assert all(getattr(again, n) is None for n in caches)
    assert _typed(again) == _typed(value)
    # MatrixGroup and Truncation compare by identity, so only their slots
    # can match
    if type(value).__eq__ is not object.__eq__:
        assert again == value and hash(again) == hash(value)
    with pytest.raises(AttributeError, match="is immutable"):
        again.extra = 1

