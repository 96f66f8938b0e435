import random
from fractions import Fraction
from math import gcd

import pytest

from gradedseries.cyclofield import (
    CyclotomicMatrix,
    CyclotomicNumber,
    FieldFraction,
)
from gradedseries.cyclotomic import cyclotomic_polynomial, euler_phi
from gradedseries.exact import (Poly, expand, normalize, one_minus_power,
                                scalar_inverse)


def P(*coeffs):
    return Poly(coeffs)


z3 = CyclotomicNumber.zeta(3)
z4 = CyclotomicNumber.zeta(4)
ORDERS = (3, 4, 5, 6, 8, 9, 12, 15)


def random_number(rng, n):
    """A random element of Q(zeta_n), from coordinates with few nonzeros."""
    return CyclotomicNumber(n, [Fraction(rng.choice((0, 0, 1, -2, 3)),
                                         rng.randint(1, 2))
                                for _ in range(euler_phi(n))])


def assert_scalar_rule(x):
    """x is an int, a non-integral Fraction, or a number whose coordinates
    are each an int or a non-integral Fraction."""
    values = (x,)
    if isinstance(x, CyclotomicNumber):
        values = x.coords
        assert len(values) == euler_phi(x.order) and any(values[1:])
    for c in values:
        assert type(c) is (int if c.denominator == 1 else Fraction), (x, c)


class TestCyclotomicNumber:
    def test_minimal_polynomial(self):
        assert z3 ** 3 == 1
        assert z3 * z3 + z3 + 1 == 0
        assert z4 * z4 == -1

    def test_rational_detection(self):
        assert z3 + z3 ** 2 == -1 and type(z3 + z3 ** 2) is int
        assert z4 ** 2 == -1 and type(z4 ** 2) is int
        half = CyclotomicNumber(4, [Fraction(1, 2), 0])
        assert half == Fraction(1, 2) and type(half) is Fraction
        assert isinstance(z3, CyclotomicNumber)

    def test_degree_two_products_that_land_on_ints(self):
        # in Q(i), Phi_4 = z^2 + 1: Fraction coordinates whose product's
        # coordinates are integral follow the scalar rule
        half = CyclotomicNumber(4, [Fraction(1, 2), Fraction(1, 2)])
        one = half * CyclotomicNumber(4, [1, -1])
        assert one == 1 and type(one) is int
        z = half * CyclotomicNumber(4, [1, 1])
        assert z == z4 and type(z) is CyclotomicNumber
        assert z.coords == (0, 1) and [type(c) for c in z.coords] == [int, int]

    def test_inverse_and_division(self):
        assert z3.inverse() == z3 ** 2
        x = 2 * z3 - 1
        assert x * x.inverse() == 1
        assert (1 / z4) == -z4
        assert (z3 / z3) == 1

    def test_lift_and_cross_order_equality(self):
        z6 = CyclotomicNumber.zeta(6)
        assert z6 ** 2 == z3  # zeta_6^2 = zeta_3
        assert z3.lift(6) == z6 ** 2
        assert z3.lift(12) * z4.lift(12) == CyclotomicNumber.zeta(12, 7)
        # equal values hash alike whatever order they carry
        assert hash(z3) == hash(z6 ** 2)
        assert len({z3, z6 ** 2}) == 1
        rng = random.Random(5)
        for n in (3, 4, 5, 12):
            phi = euler_phi(n)
            for _ in range(10):
                x = CyclotomicNumber(n, [Fraction(rng.randint(-4, 4),
                                                  rng.randint(1, 3))
                                         for _ in range(phi)])
                if not isinstance(x, CyclotomicNumber):
                    continue  # a rational draw, an int or a Fraction
                for m in (2 * n, 3 * n, 60):
                    assert x.lift(m) == x
                    assert hash(x.lift(m)) == hash(x)
        a = FieldFraction([1], [1, -z3])
        b = FieldFraction([1], [1, -z6 ** 2])
        assert a == b and hash(a) == hash(b)

    def test_mixed_scalar_arithmetic(self):
        assert z3 + Fraction(1, 2) == Fraction(1, 2) + z3
        assert (2 * z3) * Fraction(1, 2) == z3
        assert z3 - z3 == 0
        # a rational operand (int, Fraction, rational coordinates of any
        # order) acts as the rational with coordinates [q, 0, ...] does,
        # hashes included
        rng = random.Random(17)
        for n in (1, 3, 4, 12):
            phi = euler_phi(n)
            for _ in range(10):
                x = CyclotomicNumber(n, [Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 4))
                                         for _ in range(phi)])
                k = rng.randint(-6, 6)
                value = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                other_order = rng.choice((1, 3, 4, 12))
                v = CyclotomicNumber(other_order, [value] + [0] * (
                    euler_phi(other_order) - 1))
                assert v == value and type(v) is (
                    int if value.denominator == 1 else Fraction)
                for q, rq in ((k, k), (value, value), (v, value)):
                    r = CyclotomicNumber(n, [rq] + [0] * (phi - 1))
                    for got, want in ((x * q, x * r), (q * x, r * x),
                                      (x + q, x + r), (x - q, x - r)):
                        assert got == want and hash(got) == hash(want)
                    if not isinstance(x, CyclotomicNumber):
                        continue  # a rational draw has no coordinates
                    # the same values from the coordinates and, over
                    # Q(zeta_n) with n > 1, from two full products
                    assert x * q == CyclotomicNumber(
                        n, [c * rq for c in x.coords])
                    assert x + q == CyclotomicNumber(
                        n, [x.coords[0] + rq] + list(x.coords[1:]))
                    if n > 1:
                        y = CyclotomicNumber.zeta(n)
                        assert x * q == x * (y + q) - x * y

    def test_coordinates_follow_the_scalar_rule(self):
        rng = random.Random(3)
        for n in ORDERS:
            for k in range(n):
                assert_scalar_rule(CyclotomicNumber.zeta(n, k))
            for _ in range(15):
                x, y = random_number(rng, n), random_number(rng, n)
                assert_scalar_rule(x)
                if not isinstance(x, CyclotomicNumber):
                    continue  # a rational draw is Python's arithmetic
                for value in (x + y, x - y, x * y, 2 * x, x * Fraction(1, 2),
                              x.inverse()):
                    assert_scalar_rule(value)
                for m in (2 * n, 3 * n):
                    assert_scalar_rule(x.lift(m))

    def test_field_axioms_across_orders(self):
        rng = random.Random(29)
        for _ in range(60):
            x, y, w = (random_number(rng, rng.choice(ORDERS)) for _ in range(3))
            assert (x * y) * w == x * (y * w)
            assert (x + y) + w == x + (y + w)
            assert x * (y + w) == x * y + x * w
            if x:
                assert x * scalar_inverse(x) == 1
            # x again, carried in the order lcm(order of x, m)
            zm = CyclotomicNumber.zeta(rng.choice(ORDERS))
            again = (x + zm) - zm
            assert again == x and hash(again) == hash(x)
            assert hash(x * y + w) == hash(w + y * x)

    def test_galois_is_a_field_automorphism(self):
        rng = random.Random(41)

        def sigma(x, k):
            return x.galois(k) if isinstance(x, CyclotomicNumber) else x
        for n in ORDERS:
            units = [k for k in range(1, 2 * n) if gcd(k, n) == 1]
            for k in units:
                assert sigma(CyclotomicNumber.zeta(n), k) == \
                    CyclotomicNumber.zeta(n, k)
            for _ in range(12):
                x, y = random_number(rng, n), random_number(rng, n)
                j, k = rng.choice(units), rng.choice(units)
                sx, sy = sigma(x, k), sigma(y, k)
                assert sigma(x * y, k) == sx * sy
                assert sigma(x + y, k) == sx + sy
                assert sigma(sx, j) == sigma(x, j * k)
                assert_scalar_rule(sx)
                if not isinstance(x, CyclotomicNumber):
                    continue  # a rational draw, fixed by every sigma_k
                # p(z) -> p(z^k), summed over the power basis
                power_sum = sum(c * CyclotomicNumber.zeta(n, i * k)
                                for i, c in enumerate(x.coords))
                assert sx == power_sum and hash(sx) == hash(power_sum)
                # sigma_k commutes with lift; equal results hash alike
                for m in (2 * n, 3 * n):
                    if gcd(k, m) == 1:
                        lifted = x.lift(m).galois(k)
                        assert lifted.order == m and lifted == sx.lift(m)
                        assert len({lifted, sx}) == 1
        for n, k in ((4, 2), (9, 3), (12, 10), (5, 0)):
            with pytest.raises(ValueError):
                CyclotomicNumber.zeta(n).galois(k)

    def test_kernel_matches_poly_arithmetic(self):
        # the in-place product, the sums and the lifts against the public
        # Poly formula (x.residue * y.residue) % Phi_M in the lcm order M
        orders = tuple(range(1, 13)) + (15, 16, 20, 24, 30)

        def residue(v, m):
            if isinstance(v, CyclotomicNumber):
                return v.lift(m).residue
            return Poly((v,))

        def assert_value(v, expected, m, *operands):
            # v is the value of the residue `expected` in Q(zeta_m)
            assert residue(v, m) == expected
            if expected.degree <= 0:
                assert type(v) is not CyclotomicNumber
                if any(type(u) is CyclotomicNumber for u in operands):
                    assert_scalar_rule(v)  # else it is Python's arithmetic
            else:
                assert type(v) is CyclotomicNumber and m % v.order == 0

        def trace(x):
            # Tr(x) over Q: the trace of multiplication by x on the basis
            # 1, z, z^2, ... of Q(zeta_n)
            n = x.order
            total = 0
            for j in range(euler_phi(n)):
                coeffs = residue(x * CyclotomicNumber.zeta(n, j), n).coeffs
                total += coeffs[j] if j < len(coeffs) else 0
            return total

        def lcm(a, b):
            return a * b // gcd(a, b)

        rng = random.Random(19)
        for nx in orders * 7:
            ny = rng.choice(orders)
            m = lcm(nx, ny)
            # a third order that keeps phi(lcm) small enough for Poly's %
            nw = rng.choice([n for n in orders if lcm(m, n) <= max(m, 60)])
            x, y, w = (random_number(rng, n) for n in (nx, ny, nw))
            phi = cyclotomic_polynomial(m)
            rx, ry = residue(x, m), residue(y, m)
            assert_value(x * y, (rx * ry) % phi, m, x, y)
            assert_value(x + y, rx + ry, m, x, y)
            assert_value(x - y, rx - ry, m, x, y)
            # three orders in one expression
            m3 = lcm(m, nw)
            phi3 = cyclotomic_polynomial(m3)
            assert_value(x * y - w * x + w,
                         ((residue(x, m3) * residue(y, m3)
                           - residue(w, m3) * residue(x, m3)) % phi3
                          + residue(w, m3)), m3, x, y, w)
            if not isinstance(x, CyclotomicNumber):
                continue
            for k in (2, 3):
                assert x.lift(k * nx).residue == \
                    x.residue.inflated(k) % cyclotomic_polynomial(k * nx)
            # a rational operand of 0 or 1 gives the other operand itself
            assert x * 1 is x and 1 * x is x and x * Fraction(1) is x
            assert x + 0 is x and 0 + x is x and x - 0 is x
            assert x * 0 == 0 and type(x * 0) is int
            assert x * -1 == -x and (x * -1).residue == -x.residue
            # the kept hash is the first one computed, and it is the hash of
            # the normalized trace Tr(x)/phi, whatever the order
            again = CyclotomicNumber(nx, x.coords)
            assert again is not x
            first = hash(again)
            assert hash(again) == first == hash(x) == hash(x.lift(2 * nx))
            assert first == hash(x.lift(3 * nx)) == hash(
                CyclotomicNumber(nx, x.coords))
            normalized = Fraction(trace(x)) / euler_phi(nx)
            assert first == hash(normalized)

    def test_power_basis_reduction(self):
        # zeta_9^6 reduces against Phi_9 = 1 + t^3 + t^6
        z9 = CyclotomicNumber.zeta(9)
        assert z9 ** 6 + z9 ** 3 + 1 == 0


class TestCyclotomicMatrix:
    def test_identity_and_product(self):
        m = CyclotomicMatrix([[0, 1], [1, 0]])
        assert m * m == CyclotomicMatrix.identity(2)

    def test_order_lifting(self):
        d = CyclotomicMatrix([[z3, 0], [0, z3 ** 2]])
        p = CyclotomicMatrix([[0, 1], [1, 0]])
        prod = d * p
        assert prod.rows[0][1] == z3

    def test_product_follows_the_scalar_rule(self):
        def assert_entries(m, expected):
            assert m.rows == expected
            for row, want in zip(m.rows, expected):
                assert [type(x) for x in row] == [type(x) for x in want]

        half, third = Fraction(1, 2), Fraction(1, 3)
        M = CyclotomicMatrix
        # Fraction x int products and Fraction sums that land on integers
        assert_entries(M([[half, 0], [0, 1]]) * M([[2, 0], [0, 1]]),
                       ((1, 0), (0, 1)))
        assert_entries(M([[half, half], [third, 1]]) * M([[1, 2], [1, 0]]),
                       ((1, 1), (Fraction(4, 3), Fraction(2, 3))))
        # products of numbers that land in Q: z3 * z3^2 = 1, z4 * z4 = -1
        z32 = z3 ** 2
        assert_entries(M([[z3, 0], [0, z4]]) * M([[z32, 0], [0, z4]]),
                       ((1, 0), (0, -1)))
        assert_entries(M([[z3, half], [0, z32]]) * M([[z32, 0], [2, z3]]),
                       ((2, half * z3), (2 * z32, 1)))
        # a sum of numbers that lands in Q: z3 + z3^2 = -1
        assert_entries(M([[z3, z32], [0, 1]]) * M([[1, 0], [1, 0]]),
                       ((-1, 0), (1, 0)))
        rng = random.Random(11)
        for _ in range(20):
            a, b = (M([[rng.choice((0, 1, -1, half, 2 * third, z3, z32, z4,
                                    half * z4))
                        for _ in range(3)] for _ in range(3)])
                    for _ in range(2))
            for row in (a * b).rows:
                for x in row:
                    assert type(x) in (int, Fraction, CyclotomicNumber)
                    assert_scalar_rule(x)

    def test_inverse(self):
        m = CyclotomicMatrix([[1, z3], [0, 1]])
        inv = m.inverse()
        assert m * inv == CyclotomicMatrix.identity(2)
        with pytest.raises(ZeroDivisionError):
            CyclotomicMatrix([[1, 1], [1, 1]]).inverse()

    def test_det(self):
        z6 = CyclotomicNumber.zeta(6)
        assert CyclotomicMatrix([[z6, 0], [0, z6 ** 5]]).det() == 1
        assert CyclotomicMatrix([[0, 1], [1, 0]]).det() == -1
        assert CyclotomicMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1
        singular = CyclotomicMatrix([[1, z3], [z3 ** 2, 1]]).det()
        assert type(singular) is int and singular == 0
        rng = random.Random(7)
        for _ in range(10):
            a, b = (CyclotomicMatrix([[random_number(rng, 12) for _ in range(3)]
                                      for _ in range(3)]) for _ in range(2))
            assert (a * b).det() == a.det() * b.det()
            # det(I - t a) ends in (-t)^3 det a
            cp = list(a.reciprocal_charpoly()) + [0] * 4
            assert cp[3] == -a.det()

    def test_rank_of_difference(self):
        swap2 = CyclotomicMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                                  [0, 0, 0, 1], [0, 0, 1, 0]])
        assert swap2.rank_of_difference_with_identity() == 2
        assert CyclotomicMatrix.identity(3).rank_of_difference_with_identity() == 0

    def test_reciprocal_charpoly_identity(self):
        cp = CyclotomicMatrix.identity(3).reciprocal_charpoly()
        assert list(cp) == [1, -3, 3, -1]

    def test_reciprocal_charpoly_permutation(self):
        p = CyclotomicMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cp = p.reciprocal_charpoly()
        assert list(cp) == [1, 0, 0, -1]  # 1 - t^3

    def test_reciprocal_charpoly_scalar(self):
        s = CyclotomicMatrix([[z3, 0, 0], [0, z3, 0], [0, 0, z3]])
        cp = s.reciprocal_charpoly()
        # det(I - t z I) = (1 - z t)^3 = 1 - 3z t + 3z^2 t^2 - t^3
        assert cp[0] == 1
        assert cp[1] == -3 * z3
        assert cp[2] == 3 * z3 ** 2
        assert cp[3] == -1


class TestFieldFraction:
    def test_expand_matches_exact(self):
        f = normalize(P(1), P(1, -1) ** 2)
        one = CyclotomicNumber(3, [1, 0])  # the same value, over Q(zeta_3)
        ff = FieldFraction([one], [one, -2 * one, one])
        got = list(expand(ff, 5))
        assert got == list(expand(f, 5))

    def test_cyclotomic_sum_cancels(self):
        # (1/3) [1/(1-t)^3 + 1/(1-zt)^3 + 1/(1-z^2 t)^3] keeps degrees 0 mod 3
        total = None
        for k in range(3):
            lam = z3 ** k
            den = [1, -3 * lam, 3 * lam ** 2, -(lam ** 3)]
            term = FieldFraction.reciprocal(den)
            total = term if total is None else total + term
        total = total * Fraction(1, 3)
        f = total.to_rational_function()
        assert f is not None
        want = normalize(P(1, 7, 1).inflated(3), one_minus_power(3) ** 3)
        assert f == want

    def test_pole_order(self):
        f = normalize(P(1), P(1, 1) * one_minus_power(2))
        assert f.pole_order_at_one() == 1
        g = FieldFraction.reciprocal([1, -z3, z3 ** 2 * 0, ])
        assert g.pole_order_at_one() == 0

    def test_reduction(self):
        # (1-t^2)/(1-t) reduces to 1+t
        a = FieldFraction([1, 0, -1], [1, -1])
        b = FieldFraction([1, 1], [1])
        assert a == b
        total = a + FieldFraction([0], [1])
        assert total == b

    def test_irrational_detected(self):
        g = FieldFraction.reciprocal([1, -z3])
        assert g.to_rational_function() is None

    def test_equal_values_hash_alike(self):
        # p*g / (q*g) must reduce to p/q, over Q and over Q(zeta_3)
        rng = random.Random(7)
        for scalars in ([Fraction(c) for c in range(-3, 4)],
                        [a + b * z3 for a in range(-2, 3) for b in range(-2, 3)]):
            for _ in range(25):
                p = Poly([rng.choice(scalars) for _ in range(rng.randint(1, 4))])
                q = Poly([1] + [rng.choice(scalars)
                                for _ in range(rng.randint(0, 3))])
                g = Poly([rng.choice(scalars) for _ in range(rng.randint(1, 3))])
                if not p or not g:
                    continue
                reduced = FieldFraction(p, q)
                bloated = FieldFraction(p * g, q * g)
                assert bloated == reduced
                assert hash(bloated) == hash(reduced)
        for a, b in ((FieldFraction([1, 1], [1, 0, -1]),
                      FieldFraction([1], [1, -1])),
                     (FieldFraction([1, 1], P(1, 1) * P(1, -z3)),
                      FieldFraction([1], [1, -z3]))):
            assert a == b and hash(a) == hash(b)


class TestCacheSlots:
    """A number's and a rational function's hash, and a matrix's nonzero
    columns, are kept in slots that start empty and are filled once."""

    def equal_numbers(self):
        """(value, the same value built another way) pairs of numbers."""
        rng = random.Random(36)
        for _ in range(20):
            x, y = random_number(rng, 12), random_number(rng, 12)
            if not all(isinstance(v, CyclotomicNumber) for v in (x, y, x * y)):
                continue
            # a lift into a larger field, and a conjugate product
            yield x, x.lift(24)
            yield (x * y).galois(5), x.galois(5) * y.galois(5)
        # z_12^2 keeps the order 12; it equals z_6
        yield CyclotomicNumber.zeta(12) ** 2, CyclotomicNumber.zeta(6)

    def test_a_number_hashes_once_like_an_equal_number(self):
        for a, b in self.equal_numbers():
            assert type(a) is type(b) is CyclotomicNumber
            assert a._hash is None and b._hash is None and a == b
            h = hash(a)
            assert a._hash == h and hash(a) == h == hash(b) == b._hash

    def test_a_rational_function_hashes_once_like_an_equal_one(self):
        half = Fraction(1, 2)
        num, den = P(1, z3), P(1, -half, z4)
        extra = P(3, z4, half)
        for a, b in ((FieldFraction(num, den),
                      FieldFraction(num * extra, den * extra)),
                     (-FieldFraction(num, den), FieldFraction(-num, den)),
                     (FieldFraction(P(2, 2 * z3), P(2)), FieldFraction(num))):
            assert a._hash is None and b._hash is None and a == b
            h = hash(a)
            assert a._hash == h and hash(a) == h == hash(b) == b._hash
        # a constant rational function still hashes as its scalar
        assert hash(FieldFraction(P(half), P(1))) == hash(half)

    def test_a_right_factor_scans_its_columns_once(self, monkeypatch):
        built = []
        build = CyclotomicMatrix._nonzero_columns

        def spy(m):
            built.append(m)
            return build(m)

        monkeypatch.setattr(CyclotomicMatrix, "_nonzero_columns", spy)
        g = CyclotomicMatrix([[0, z3, 0], [0, 0, Fraction(1, 2)], [1, 0, 0]])
        assert g._columns is None
        power = CyclotomicMatrix.identity(3)
        for _ in range(4):
            power = power * g
        assert built == [g]
        assert g._columns == ((((2, 1),), ((0, z3),), ((1, Fraction(1, 2)),)))
        # every product starts with an empty cache of its own
        assert power._columns is None
        assert power == g * g * g * g
