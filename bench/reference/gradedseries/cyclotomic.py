"""Cyclotomic polynomials and root-of-unity structure of rational functions.

An integer polynomial has all of its roots on the unit circle exactly when
it is (up to sign and a power of t) a product of cyclotomic polynomials, so
"every root is a root of unity" is decidable by trial division against the
finitely many Phi_n with phi(n) <= deg.  On top of that sit:

* the cyclotomic verdict for a rational function,
* the minimal signed (1 - t^a)-factorization via Moebius inversion, whose
  positive part is the minimal number of numerator binomials, and
* the palindrome test num(1/t) = +- t^d num(t) that detects Gorenstein-type
  symmetry of a Hilbert series.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import (
    Poly,
    RationalFunction,
    multiplicity_at_one,
    normalize,
    one_minus_power,
)

# Phi_n cache: populated once per order, then only read (safe for concurrent
# readers; a racing duplicate insert writes the identical value).
_PHI: dict[int, Poly] = {}

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


def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial, by dividing t^n - 1 by the proper Phi_d."""
    if n < 1:
        raise ValueError("order must be positive")
    cached = _PHI.get(n)
    if cached is not None:
        return cached
    p = Poly((-1,) + (0,) * (n - 1) + (1,))  # t^n - 1
    for d in _divisors(n):
        if d < n:
            p = p.exact_div(cyclotomic_polynomial(d))
    _PHI[n] = p
    return p


def _candidate_orders(max_degree):
    """All n with phi(n) <= max_degree, via a phi sieve up to 2*max_degree^2.

    phi(n) >= sqrt(n/2), so no larger n can qualify.
    """
    if max_degree < 1:
        return []
    limit = 2 * max_degree * max_degree + 1
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return [n for n in range(1, limit + 1) if phi[n] <= max_degree]


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


def factor_cyclotomic(p):
    """Extract the maximal cyclotomic part of an integer polynomial."""
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
    exponents = {}
    for n in _candidate_orders(p.degree):
        phi_n = cyclotomic_polynomial(n)
        while p.degree >= phi_n.degree:
            q, r = divmod(p, phi_n)
            if r:
                break
            p = q
            exponents[n] = exponents.get(n, 0) + 1
        if p.degree == 0:
            break
    fact = CyclotomicFactorization(exponents, p, unit, t_power)
    assert fact.rebuild() == original, "factorization must reproduce the input"
    return fact


def is_cyclotomic(f):
    """True iff every root of num and den is a root of unity.

    A power of t would contribute the root 0, so the extraction must leave
    both a trivial t-power and remainder 1.
    """
    if f.is_zero:
        return True
    return factor_cyclotomic(f.num).is_cyclotomic and \
        factor_cyclotomic(f.den).is_cyclotomic


@dataclass(frozen=True)
class BinomialProfile:
    """Signed multiplicities: f = prod_a (1 - t^a)^factors[a] exactly."""

    factors: dict

    def numerator_count(self):
        return sum(e for e in self.factors.values() if e > 0)

    def as_rational_function(self):
        num = den = _ONE
        for a, e in self.factors.items():
            if e > 0:
                num = num * one_minus_power(a) ** e
            else:
                den = den * one_minus_power(a) ** (-e)
        return normalize(num, den)


def cyc_number(f):
    """Minimal numerator-binomial count of a (1-t^a)-factorization, or None.

    Since 1 - t^a = -prod_{d|a} Phi_d, a signed profile with exponents
    factors[a] induces cyclotomic exponents e_n = sum_{n|a} factors[a]; the
    relation inverts uniquely by factors[a] = sum_{a|m<=A} mu(m/a) e_m with A
    the largest order present.  Cancelling pairs only lengthen the numerator,
    so the minimum is the positive part of that unique profile.  Returns
    (count, BinomialProfile) or None when no such factorization exists.
    """
    fn = factor_cyclotomic(f.num) if f.num else None
    fd = factor_cyclotomic(f.den)
    if fn is None or not fn.is_cyclotomic or not fd.is_cyclotomic:
        return None
    e = dict(fn.exponents)
    for n, k in fd.exponents.items():
        e[n] = e.get(n, 0) - k
    e = {n: k for n, k in e.items() if k}
    if not e:
        profile = BinomialProfile({})
        return (0, profile) if f == profile.as_rational_function() else None
    top = max(e)
    factors = {}
    for a in range(1, top + 1):
        v = sum(mobius(m // a) * e.get(m, 0) for m in range(a, top + 1, a))
        if v:
            factors[a] = v
    profile = BinomialProfile(dict(sorted(factors.items())))
    if profile.as_rational_function() != f:
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
    if f.is_zero:
        return SymmetryVerdict(False, None, None)
    ns = _palindrome_sign(f.num)
    ds = _palindrome_sign(f.den)
    return SymmetryVerdict(ns is not None and ds is not None, ns, ds)


def squarefree_order_lcm(fact):
    """lcm of the cyclotomic orders present (t^L - 1 kills the squarefree part)."""
    L = 1
    for n in fact.exponents:
        L = L // gcd(L, n) * n
    return L


__all__ = [
    "BinomialProfile",
    "CyclotomicFactorization",
    "SymmetryVerdict",
    "cyc_number",
    "cyclotomic_polynomial",
    "euler_phi",
    "factor_cyclotomic",
    "gorenstein_symmetry",
    "is_cyclotomic",
    "mobius",
    "multiplicity_at_one",
    "squarefree_order_lcm",
]
