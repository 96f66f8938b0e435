"""Cyclotomic polynomials and root-of-unity structure of rational functions.

An integer polynomial has all of its roots on the unit circle exactly when
it is (up to sign and a power of t) a product of cyclotomic polynomials, so
"every root is a root of unity" is decidable by trial division against the
finitely many Phi_n with phi(n) <= deg; for an integer polynomial a Phi_n
is tried only when Phi_n(2) divides p(2).  On top of that sit:

* the cyclotomic verdict for a rational function,
* the minimal signed (1 - t^a)-factorization via Moebius inversion, whose
  positive part is the minimal number of numerator binomials, and
* the palindrome test num(1/t) = +- t^d num(t) that detects Gorenstein-type
  symmetry of a Hilbert series.

The first two read the same two factorizations, of num and of den
(``factor_series``); a classification makes them once and hands them to
both, so it factors each polynomial once.  Phi_n and the candidate orders
of each degree are computed once per process; no other result is kept
across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .exact import (
    Poly,
    multiplicity_at_one,
    one_minus_power,
)

_ONE = Poly((1,))


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    phi = 1
    for p, e in _factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n):
    mu = 1
    for _, e in _factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


@cache
def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial, by dividing t^n - 1 by the proper Phi_d."""
    if n < 1:
        raise ValueError("order must be positive")
    p = Poly((-1,) + (0,) * (n - 1) + (1,))  # t^n - 1
    for d in _divisors(n):
        if d < n:
            p = p.exact_div(cyclotomic_polynomial(d))
    return p


@cache
def _candidate_orders(max_degree):
    """All n with phi(n) <= max_degree, via a phi sieve up to 2*max_degree^2,
    sieved once per degree.

    phi(n) >= sqrt(n/2), so no larger n can qualify.
    """
    if max_degree < 1:
        return ()
    limit = 2 * max_degree * max_degree + 1
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return tuple(n for n in range(1, limit + 1) if phi[n] <= max_degree)


@dataclass(frozen=True)
class CyclotomicFactorization:
    """input = unit * t^t_power * prod Phi_n^exponents[n] * remainder."""

    exponents: dict
    remainder: Poly
    unit: int
    t_power: int

    def rebuild(self):
        p = Poly((self.unit,)).shifted(self.t_power) * self.remainder
        for n, e in self.exponents.items():
            p = p * cyclotomic_polynomial(n) ** e
        return p

    @property
    def is_cyclotomic(self):
        return self.t_power == 0 and self.remainder == _ONE


@cache
def _phi_at_two(n):
    """Phi_n(2) = prod_{d | n} (2^d - 1)^mu(n/d), with no polynomial built."""
    num = den = 1
    for d in _divisors(n):
        mu = mobius(n // d)
        if mu > 0:
            num *= 2 ** d - 1
        elif mu < 0:
            den *= 2 ** d - 1
    return num // den


def _at_two(p):
    """p(2) for a polynomial with int coefficients, else 0 (no filter)."""
    return p(2) if all(type(c) is int for c in p.coeffs) else 0


def _divide_out(p, n, at_two, limit):
    """(p / Phi_n^k, that quotient's ``_at_two``, k) for the largest k <= limit
    with Phi_n^k dividing p.

    ``at_two`` is ``_at_two(p)``.  A division is tried only when Phi_n(2)
    divides it: Phi_n is monic, so Phi_n | p leaves an integer quotient q for
    an integer p (Gauss), and p(2) = Phi_n(2) q(2).  divmod confirms every
    factor; at_two = 0 (a root at 2, or no filter) tries every division.
    Phi_1(2) = 1 and Phi_2(2) = 3 filter almost nothing, so Phi_1 = t - 1
    and Phi_2 = t + 1 are decided by the root test p(1) = 0, p(-1) = 0
    instead, and divided out only when they divide.
    """
    phi_at_two = _phi_at_two(n)
    k = 0
    while k < limit and not at_two % phi_at_two:
        if n <= 2 and p(1 if n == 1 else -1):
            break
        phi_n = cyclotomic_polynomial(n)
        if p.degree < phi_n.degree:
            break
        q, r = divmod(p, phi_n)
        if r:
            break
        p, at_two, k = q, at_two // phi_at_two, k + 1
    return p, at_two, k


def factor_cyclotomic(p):
    """Extract the maximal cyclotomic part of an integer polynomial.

    Trial division runs over the Phi_n with phi(n) <= deg p, and tries Phi_n
    only when Phi_n(2) divides p(2) (``_divide_out``), with p(2) divided by
    Phi_n(2) for each factor found.  When p(2) = 0 nothing is skipped, and a
    polynomial with Fraction coefficients is not filtered.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    original = p
    t_power = 0
    while not p.coeffs[t_power]:
        t_power += 1
    if t_power:
        p = Poly(p.coeffs[t_power:])
    unit = 1
    if p.leading < 0:
        unit = -1
        p = -p
    at_two = _at_two(p)
    exponents = {}
    for n in _candidate_orders(p.degree):
        p, at_two, k = _divide_out(p, n, at_two, p.degree)
        if k:
            exponents[n] = k
        if p.degree == 0:
            break
    fact = CyclotomicFactorization(exponents, p, unit, t_power)
    assert fact.rebuild() == original, "factorization must reproduce the input"
    return fact


def factor_series(f):
    """(num's, den's) ``factor_cyclotomic`` of a rational function, num's
    None when num is 0: what ``is_cyclotomic`` and ``cyc_number`` read."""
    return (factor_cyclotomic(f.num) if f.num else None,
            factor_cyclotomic(f.den))


def is_cyclotomic(f, factors=None):
    """True iff every root of num and den is a root of unity.

    A power of t would contribute the root 0, so the extraction must leave
    both a trivial t-power and remainder 1.  ``factors`` is f's
    ``factor_series`` when the caller has it.
    """
    if not f:
        return True
    fn, fd = factors or factor_series(f)
    return fn.is_cyclotomic and fd.is_cyclotomic


@dataclass(frozen=True)
class BinomialProfile:
    """Signed multiplicities: f = prod_a (1 - t^a)^factors[a] exactly."""

    factors: dict

    def numerator_count(self):
        return sum(e for e in self.factors.values() if e > 0)

    def fraction(self):
        """(num, den): the products of the binomials of positive and of
        negative exponent, not reduced."""
        num = den = _ONE
        for a, e in self.factors.items():
            if e > 0:
                num = num * one_minus_power(a) ** e
            else:
                den = den * one_minus_power(a) ** (-e)
        return num, den


def cyc_number(f, factors=None):
    """Minimal numerator-binomial count of a (1-t^a)-factorization, or None.

    Since 1 - t^a = -prod_{d|a} Phi_d, a signed profile with exponents
    factors[a] induces cyclotomic exponents e_n = sum_{n|a} factors[a]; the
    relation inverts uniquely by factors[a] = sum_{a|m<=A} mu(m/a) e_m with A
    the largest order present.  Cancelling pairs only lengthen the numerator,
    so the minimum is the positive part of that unique profile.  The
    profile's binomial products num_prof / den_prof are compared with f by
    cross-multiplication, num_prof f.den == den_prof f.num, with no gcd to
    reduce them.  Returns (count, BinomialProfile) or None when no such
    factorization exists.  ``factors`` is f's ``factor_series`` when the
    caller has it.
    """
    fn, fd = factors or factor_series(f)
    if fn is None or not fn.is_cyclotomic or not fd.is_cyclotomic:
        return None
    e = dict(fn.exponents)
    for n, k in fd.exponents.items():
        e[n] = e.get(n, 0) - k
    e = {n: k for n, k in e.items() if k}
    top = max(e, default=0)
    factors = {}
    for a in range(1, top + 1):
        v = sum(mobius(m // a) * k for m, k in e.items() if m % a == 0)
        if v:
            factors[a] = v
    profile = BinomialProfile(dict(sorted(factors.items())))
    num, den = profile.fraction()
    if num * f.den != den * f.num:
        return None
    return profile.numerator_count(), profile


def _palindrome_sign(p):
    """+1/-1 when p(1/t) = +- t^d p(t) for some d, else None."""
    if not p:
        return None
    k = 0
    while not p.coeffs[k]:
        k += 1
    stripped = Poly(p.coeffs[k:])
    rev = p.reversed()
    if rev == stripped:
        return 1
    if rev == -stripped:
        return -1
    return None


@dataclass(frozen=True)
class SymmetryVerdict:
    symmetric: bool
    num_sign: int | None
    den_sign: int | None


def gorenstein_symmetry(f):
    """Palindrome test on num and den, the Hilbert-series symmetry of a
    Gorenstein invariant ring."""
    if not f:
        return SymmetryVerdict(False, None, None)
    ns = _palindrome_sign(f.num)
    ds = _palindrome_sign(f.den)
    return SymmetryVerdict(ns is not None and ds is not None, ns, ds)


__all__ = [
    "BinomialProfile",
    "CyclotomicFactorization",
    "SymmetryVerdict",
    "cyc_number",
    "cyclotomic_polynomial",
    "euler_phi",
    "factor_cyclotomic",
    "factor_series",
    "gorenstein_symmetry",
    "is_cyclotomic",
    "mobius",
    "multiplicity_at_one",
]
