import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from gradedseries.cyclotomic import (
    cyc_number,
    cyclotomic_polynomial,
    euler_phi,
    factor_cyclotomic,
    gorenstein_symmetry,
    is_cyclotomic,
    mobius,
)
from gradedseries.cyclotomic import BinomialProfile
from gradedseries.exact import Poly, expand, normalize, one_minus_power
from gradedseries.scenario import parse_series_literal


def P(*coeffs):
    return Poly(coeffs)


ONE_MINUS_T = P(1, -1)


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == P(-1, 1)
        assert cyclotomic_polynomial(2) == P(1, 1)
        assert cyclotomic_polynomial(6) == P(1, -1, 1)
        assert cyclotomic_polynomial(4) == P(1, 0, 1)
        assert cyclotomic_polynomial(9) == P(1, 0, 0, 1, 0, 0, 1)
        assert cyclotomic_polynomial(18) == P(1, 0, 0, -1, 0, 0, 1)

    def test_degree_is_phi(self):
        for n in range(1, 40):
            assert cyclotomic_polynomial(n).degree == euler_phi(n)

    def test_product_over_divisors(self):
        for n in (6, 12, 30):
            prod = Poly((1,))
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == Poly((-1,) + (0,) * (n - 1) + (1,))

    def test_mobius(self):
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestFactorCyclotomic:
    def test_cube_of_one_plus_t(self):
        fact = factor_cyclotomic(P(1, 1) ** 3)
        assert fact.exponents == {2: 3}
        assert fact.remainder == Poly((1,))
        assert fact.unit == 1 and fact.t_power == 0

    def test_quartic_veronese_numerator(self):
        fact = factor_cyclotomic(P(1, 0, 0, 0, 6, 0, 0, 0, 1))
        assert fact.remainder.degree > 0

    def test_order_two_fixed_ring_numerator(self):
        fact = factor_cyclotomic(P(1, -2, 4, -2, 1))
        assert fact.remainder.degree > 0

    def test_signs_and_t_powers(self):
        fact = factor_cyclotomic(-ONE_MINUS_T.shifted(2))
        # -t^2(1-t) = t^2 (t-1) = t^2 Phi_1
        assert fact.unit == 1
        assert fact.t_power == 2
        assert fact.exponents == {1: 1}
        assert fact.remainder == Poly((1,))

    def test_rebuild_random(self):
        rng = random.Random(5)
        for _ in range(30):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))]
            p = Poly(coeffs)
            if not p:
                continue
            fact = factor_cyclotomic(p)  # internal assert checks the product
            assert fact.rebuild() == p


def factor_by_trial_division(p):
    """(exponents, remainder, unit, t_power) of p by dividing by every Phi_n
    with phi(n) <= deg p, in order, with no filter: the oracle for
    factor_cyclotomic."""
    t_power = 0
    while not p.coeffs[t_power]:
        t_power += 1
    p = Poly(p.coeffs[t_power:])
    unit = -1 if p.leading < 0 else 1
    p = p * unit
    exponents = {}
    degree = p.degree
    for n in range(1, 2 * degree * degree + 2):
        if euler_phi(n) > degree:
            continue
        phi = cyclotomic_polynomial(n)
        while p.degree >= phi.degree:
            q, r = divmod(p, phi)
            if r:
                break
            p = q
            exponents[n] = exponents.get(n, 0) + 1
    return exponents, p, unit, t_power


class TestFilteredFactorization:
    """factor_cyclotomic tries Phi_n only when Phi_n(2) divides p(2); the
    result is that of unfiltered trial division."""

    def seeded_products(self):
        rng = random.Random(2401)
        orders = [n for n in range(1, 31) if euler_phi(n) <= 8]
        for _ in range(60):
            p = Poly((1,))
            for n in rng.sample(orders, rng.randint(0, 4)):
                p = p * cyclotomic_polynomial(n) ** rng.randint(1, 3)
            # a cofactor with no root of unity among its roots, most often
            cofactor = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            if cofactor:
                p = p * cofactor
            if rng.random() < 0.3:
                p = p * P(-2, 1)  # p(2) = 0
            if rng.random() < 0.3:
                p = -p
            if rng.random() < 0.3:
                p = p.shifted(rng.randint(1, 3))
            if rng.random() < 0.2:
                p = p * Fraction(rng.choice((1, -1)), rng.randint(2, 5))
            yield p

    def test_matches_trial_division(self):
        kinds = set()
        for p in self.seeded_products():
            fact = factor_cyclotomic(p)
            assert (fact.exponents, fact.remainder, fact.unit,
                    fact.t_power) == factor_by_trial_division(p), p
            kinds.update(kind for kind, present in (
                ("root at 2", p(2) == 0),
                ("negative", p.leading < 0),
                ("t-power", not p.coeffs[0]),
                ("fraction", any(type(c) is Fraction for c in p.coeffs)))
                if present)
        assert kinds == {"root at 2", "negative", "t-power", "fraction"}

    def test_phi_one_and_two_by_root_test(self, monkeypatch):
        # Phi_1(2) = 1 and Phi_2(2) = 3 filter almost nothing; p(1) = 0 and
        # p(-1) = 0 decide them, so no division by t - 1 or t + 1 fails
        products = list(self.seeded_products())
        oracle = [factor_by_trial_division(p) for p in products]
        low = (cyclotomic_polynomial(1), cyclotomic_polynomial(2))
        tried, failed = [], []
        original = Poly.__divmod__

        def spy(self, other):
            q, r = original(self, other)
            if other in low:
                tried.append(other)
                if r:
                    failed.append((self, other))
            return q, r
        monkeypatch.setattr(Poly, "__divmod__", spy)
        for p, want in zip(products, oracle):
            fact = factor_cyclotomic(p)
            assert (fact.exponents, fact.remainder, fact.unit,
                    fact.t_power) == want, p
        assert set(tried) == set(low)
        assert failed == []

    def test_filter_skips_divisions(self, monkeypatch):
        # (1 + 2t)^3 Phi_12: 12 is tried, and most other orders never are
        tried = []
        original = Poly.__divmod__

        def spy(self, other):
            tried.append(other)
            return original(self, other)
        monkeypatch.setattr(Poly, "__divmod__", spy)
        fact = factor_cyclotomic(P(1, 2) ** 3 * cyclotomic_polynomial(12))
        assert fact.exponents == {12: 1}
        assert cyclotomic_polynomial(12) in tried
        assert len(tried) < 10


def bundled_series():
    """Every series the bundled scenarios report, read from their goldens."""
    golden = Path(__file__).parent / "golden"
    for path in sorted(golden.glob("*.json")):
        for report in json.loads(path.read_text())["reports"]:
            for key in ("series", "section", "ambient_section"):
                if key in report:
                    yield report, parse_series_literal(report[key])


def cyc_number_by_normalize(f):
    """cyc_number with the profile compared by normalizing it: the oracle
    for the cross-multiplied comparison."""
    if not f:
        return None
    fn, fd = factor_cyclotomic(f.num), factor_cyclotomic(f.den)
    if not fn.is_cyclotomic or not fd.is_cyclotomic:
        return None
    e = dict(fn.exponents)
    for n, k in fd.exponents.items():
        e[n] = e.get(n, 0) - k
    top = max(e, default=0)
    factors = {}
    for a in range(1, top + 1):
        v = sum(mobius(m // a) * e.get(m, 0) for m in range(a, top + 1, a))
        if v:
            factors[a] = v
    profile = BinomialProfile(factors)
    if normalize(*profile.fraction()) != f:
        return None
    return profile.numerator_count(), profile


class TestCycNumberCrossMultiplied:
    def test_bundled_series_unchanged(self):
        seen = 0
        for report, f in bundled_series():
            got = cyc_number(f)
            assert got == cyc_number_by_normalize(f), str(f)
            if "cyc" in report:
                seen += 1
                assert report["cyc"] == (got[0] if got else None)
                profile = report["cyc_profile"]
                assert profile == ({str(a): e for a, e in got[1].factors.items()}
                                   if got else None)
        assert seen

    def test_sign_is_checked(self):
        # -1 and -1/(1 - t) are cyclotomic, but no binomial profile has the
        # constant -1
        for f in (normalize(P(-1), P(1)), normalize(P(-1), ONE_MINUS_T)):
            assert is_cyclotomic(f)
            assert cyc_number(f) is None is cyc_number_by_normalize(f)
        assert cyc_number(normalize(P(1), P(1))) == (0, BinomialProfile({}))


class TestIsCyclotomic:
    def test_stanley(self):
        f = normalize(P(1, 1) ** 3, ONE_MINUS_T ** 4)
        assert is_cyclotomic(f)

    def test_quartic_section_not_cyclotomic(self):
        f = normalize(P(1, 0, 0, 0, 6, 0, 0, 0, 1), one_minus_power(4) ** 3)
        assert not is_cyclotomic(f)

    def test_constant(self):
        assert is_cyclotomic(normalize(P(1), P(1)))

    def test_t_power_numerator_is_not(self):
        # roots at 0 are not roots of unity
        assert not is_cyclotomic(normalize(P(0, 1), ONE_MINUS_T))


class TestCycNumber:
    def test_polynomial_ring(self):
        got = cyc_number(normalize(P(1), ONE_MINUS_T ** 2))
        assert got is not None
        m, profile = got
        assert m == 0
        assert profile.factors == {1: -2}

    def test_stanley(self):
        got = cyc_number(normalize(P(1, 1) ** 3, ONE_MINUS_T ** 4))
        m, profile = got
        assert m == 3
        assert profile.factors == {1: -7, 2: 3}

    def test_finite_koszul_example(self):
        got = cyc_number(normalize(P(1, 2, 1), P(1)))
        m, profile = got
        assert m == 2
        assert profile.factors == {1: -2, 2: 2}

    def test_sklyanin_full_group(self):
        f = normalize(P(1, 0, 0, -1, 0, 0, 1), one_minus_power(3) ** 3)
        m, profile = cyc_number(f)
        assert m == 1
        # exactly the 1-t^18 over (1-t^3)^2 (1-t^6)(1-t^9) shape
        assert profile.factors == {3: -2, 6: -1, 9: -1, 18: 1}

    def test_order3_fixed_ring(self):
        f = normalize(P(1, -1, 1), ONE_MINUS_T ** 2 * one_minus_power(3))
        m, profile = cyc_number(f)
        assert m == 1
        assert profile.factors == {1: -1, 2: -1, 3: -2, 6: 1}

    def test_undefined_for_noncyclotomic(self):
        f = normalize(P(1, 2), ONE_MINUS_T ** 2)
        assert cyc_number(f) is None

    def test_profile_uniqueness_brute_force(self):
        # the Moebius profile is the only signed profile on orders <= A
        f = normalize(P(1, 1) ** 2, ONE_MINUS_T ** 2)
        m, profile = cyc_number(f)
        target = {a: profile.factors.get(a, 0) for a in (1, 2)}
        matches = []
        for f1, f2 in product(range(-4, 5), repeat=2):
            num = den = Poly((1,))
            for a, e in ((1, f1), (2, f2)):
                if e > 0:
                    num = num * one_minus_power(a) ** e
                elif e < 0:
                    den = den * one_minus_power(a) ** (-e)
            if normalize(num, den) == f:
                matches.append({1: f1, 2: f2})
        assert matches == [target]

    def test_random_profiles_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            factors = {}
            for a in rng.sample(range(1, 8), rng.randint(1, 3)):
                e = rng.randint(-3, 3)
                if e:
                    factors[a] = e
            num = den = Poly((1,))
            for a, e in factors.items():
                if e > 0:
                    num = num * one_minus_power(a) ** e
                else:
                    den = den * one_minus_power(a) ** (-e)
            f = normalize(num, den)
            got = cyc_number(f)
            assert got is not None
            m, profile = got
            assert normalize(*profile.fraction()) == f
            assert m == sum(e for e in factors.values() if e > 0)


class TestGorensteinSymmetry:
    def test_stanley_symmetric(self):
        v = gorenstein_symmetry(normalize(P(1, 1) ** 3, ONE_MINUS_T ** 4))
        assert v.symmetric

    def test_order_two_fixed_ring_symmetric(self):
        f = normalize(P(1, -2, 4, -2, 1), ONE_MINUS_T ** 4 * P(1, 0, 1) ** 2)
        v = gorenstein_symmetry(f)
        assert v.symmetric

    def test_veronese_not_symmetric(self):
        v = gorenstein_symmetry(normalize(P(1, 2), ONE_MINUS_T ** 2))
        assert not v.symmetric

    def test_antipalindromic_sign(self):
        v = gorenstein_symmetry(normalize(ONE_MINUS_T, P(1, 1, 1)))
        assert v.symmetric
        assert v.num_sign == -1
        assert v.den_sign == 1

    def test_invariant_under_palindromic_multiplier(self):
        rng = random.Random(23)
        f = normalize(P(1, -2, 4, -2, 1), ONE_MINUS_T ** 4 * P(1, 0, 1) ** 2)
        g = normalize(P(1, 2), ONE_MINUS_T ** 2)
        for _ in range(10):
            half = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            pal = Poly(half + half[::-1])
            for h in (f, g):
                scaled = normalize(h.num * pal, h.den * pal)
                assert gorenstein_symmetry(scaled).symmetric == \
                    gorenstein_symmetry(h).symmetric


def test_cyclotomic_series_have_integer_expansions():
    f = normalize(P(1, 0, 0, -1, 0, 0, 1), one_minus_power(3) ** 3)
    assert all(isinstance(c, int) for c in expand(f, 30))
