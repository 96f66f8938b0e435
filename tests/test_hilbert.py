from math import comb

import pytest

from gradedseries.cyclotomic import is_cyclotomic
from gradedseries.exact import Poly, Series, expand, normalize, one_minus_power
from gradedseries.hilbert import quotient_series, veronese_section


def P(*coeffs):
    return Poly(coeffs)


ONE_MINUS_T = P(1, -1)


# The closed-form route to a Veronese section, for denominators (1-t)^d: the
# independent oracle that veronese_section is checked against.

def partition_count(bound, parts, total):
    """Number of tuples (n_1..n_parts) with 0 <= n_i <= bound summing to total."""
    if bound < 0 or parts < 0 or total < 0:
        raise ValueError("arguments must be nonnegative")
    ways = [1] + [0] * total
    for _ in range(parts):
        acc = [0] * (total + 1)
        for c in range(total + 1):
            lo = max(0, c - bound)
            acc[c] = sum(ways[lo:c + 1])
        ways = acc
    return ways[total]


def veronese_transform(numerator, d, r):
    """r-section of (h_0 + ... + h_s t^s) / (1-t)^d in closed form.

    The new numerator coefficients are h'_i = sum_j C(r-1, d, i*r - j) h_j
    for i up to max(s, d); the denominator exponent d is unchanged.
    """
    if r < 1:
        raise ValueError("stride must be >= 1")
    if d < 0:
        raise ValueError("denominator exponent must be >= 0")
    h = numerator if isinstance(numerator, Poly) else Poly(numerator)
    if not h:
        return normalize(Poly(), Poly((1,)))
    s = h.degree
    m = max(s, d)
    coeffs = []
    for i in range(m + 1):
        acc = 0
        for j, hj in enumerate(h.coeffs):
            if hj and i * r - j >= 0:
                acc += partition_count(r - 1, d, i * r - j) * hj
        coeffs.append(acc)
    return normalize(Poly(coeffs), ONE_MINUS_T ** d)


def brute_partition_count(a, b, c):
    """Oracle: enumerate all tuples directly."""
    if b == 0:
        return 1 if c == 0 else 0
    return sum(brute_partition_count(a, b - 1, c - v) for v in range(min(a, c) + 1))


class TestPartitionCount:
    def test_examples(self):
        assert partition_count(1, 3, 1) == 3
        assert partition_count(3, 2, 4) == 3
        for a in range(5):
            for d in range(5):
                assert partition_count(a, d, 0) == 1

    def test_against_enumeration(self):
        for a in range(4):
            for b in range(5):
                for c in range(8):
                    assert partition_count(a, b, c) == brute_partition_count(a, b, c)

    def test_symmetry(self):
        for a in range(1, 4):
            for b in range(1, 5):
                for c in range(a * b + 1):
                    assert partition_count(a, b, c) == partition_count(a, b, a * b - c)

    def test_inclusion_exclusion(self):
        for a in range(1, 4):
            for b in range(1, 5):
                for c in range(10):
                    expected = sum(
                        (-1) ** k * comb(b, k) * comb(c - k * (a + 1) + b - 1, b - 1)
                        for k in range(b + 1)
                        if c - k * (a + 1) + b - 1 >= b - 1
                    )
                    assert partition_count(a, b, c) == expected

    def test_exceeds_dimension(self):
        # C(r-1, d, r) > d once r, d >= 3; at r = 2, d = 3 equality holds instead,
        # yet the d >= 3 sections still fail cyclotomicity (see the sweep below)
        for d in range(3, 7):
            for r in range(3, 7):
                assert partition_count(r - 1, d, r) > d
        assert partition_count(1, 3, 2) == 3


class TestVeroneseTransform:
    def test_plane_sections(self):
        for r in range(2, 7):
            f = veronese_transform(P(1), 2, r)
            assert f == normalize(P(1, r - 1), ONE_MINUS_T ** 2)
        assert veronese_transform(P(1), 2, 3) == normalize(P(1, 2), ONE_MINUS_T ** 2)

    def test_section_oracle_d4_r2(self):
        got = veronese_transform(P(1), 4, 2)
        ambient = expand(normalize(P(1), ONE_MINUS_T ** 4), 24)
        assert expand(got, 12) == ambient.section(2)
        assert expand(got, 2).coeffs == (1, 10, 35)

    def test_stride_one_is_identity(self):
        f = veronese_transform(P(1, 3, 1), 3, 1)
        assert f == normalize(P(1, 3, 1), ONE_MINUS_T ** 3)

    def test_agrees_with_section_on_grid(self):
        # full stated range: strides and exponents up to 6, numerators up to degree 6
        hs = (P(1), P(1, 1), P(1, 0, 2), P(2, 1, 0, 1),
              P(1, 2, 3, 4, 5, 6, 7), P(1, 0, 0, 0, 0, 0, 1))
        for d in range(0, 7):
            for r in range(1, 7):
                for h in hs:
                    f = normalize(h, ONE_MINUS_T ** d)
                    assert veronese_transform(h, d, r) == veronese_section(f, r)


class TestVeroneseSection:
    def test_even_quartic_section(self):
        f = normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2))
        got = veronese_section(f, 4)
        want = normalize(P(1, 6, 1), ONE_MINUS_T ** 3)
        assert got == want
        # the same series written in the ambient grading
        inflated = got.inflated(4)
        displayed = normalize(P(1, 0, 0, 0, 6, 0, 0, 0, 1), one_minus_power(4) ** 3)
        assert expand(inflated, 40) == expand(displayed, 40)
        assert not is_cyclotomic(got)

    def test_odd_cubic_section(self):
        f = normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2))
        got = veronese_section(f, 3)
        displayed_num = Poly({0: 1, 3: 6, 6: 11, 12: -21, 15: -18, 18: 5,
                              21: 12, 24: 4}.get(k, 0) for k in range(25))
        displayed = normalize(displayed_num, one_minus_power(6) ** 5)
        assert expand(got.inflated(3), 60) == expand(displayed, 60)
        assert not is_cyclotomic(got)

    def test_constant_series(self):
        f = normalize(P(1), ONE_MINUS_T)
        assert veronese_section(f, 5) == f

    def test_section_oracle_property(self):
        fs = [
            normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2)),
            normalize(P(1, 1), ONE_MINUS_T ** 3),
            normalize(P(1, 0, 2, 1), one_minus_power(2) ** 2),
        ]
        for f in fs:
            for r in (2, 3, 5):
                sec = veronese_section(f, r)
                n = 8
                assert expand(sec, n) == expand(f, r * n).section(r)

    def test_polynomial_part_bounds(self):
        # numerator degree above the denominator exercises the default bounds
        f = normalize(P(1, 0, 0, 0, 0, 0, 2), ONE_MINUS_T)
        sec = veronese_section(f, 3)
        assert expand(sec, 6) == expand(f, 18).section(3)


class TestQuotientSeries:
    def test_three_generators_one_relation(self):
        assert quotient_series([1, 1, 2], [2]) == normalize(P(1), ONE_MINUS_T ** 2)

    def test_polynomial_ring(self):
        assert quotient_series([1, 1, 1]) == normalize(P(1), ONE_MINUS_T ** 3)

    def test_order4_fixed_ring_presentation(self):
        got = quotient_series([2, 2, 2, 3], [6])
        want = normalize(one_minus_power(6),
                         one_minus_power(2) ** 3 * one_minus_power(3))
        assert got == want

    def test_validation(self):
        with pytest.raises(ValueError):
            quotient_series([])
        with pytest.raises(ValueError):
            quotient_series([1, 0])
        with pytest.raises(ValueError):
            quotient_series([1], [0])


class TestNonCyclotomicSweep:
    def test_pure_power_sections(self):
        # sections of 1/(1-t)^d for d >= 2 lose cyclotomicity once r >= 3 or d >= 3
        for d in range(2, 7):
            for r in range(2, 7):
                sec = veronese_transform(P(1), d, r)
                if r >= 3 or d >= 3:
                    assert not is_cyclotomic(sec), (r, d)

    def test_surviving_small_cases(self):
        # the line (d = 1) and the quadric section (r = d = 2) stay cyclotomic
        for r in range(2, 7):
            assert is_cyclotomic(veronese_transform(P(1), 1, r))
        assert is_cyclotomic(veronese_transform(P(1), 2, 2))
        sec = veronese_section(normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2)), 2)
        assert is_cyclotomic(sec)
