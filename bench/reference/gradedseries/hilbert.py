"""Hilbert-series constructors and Veronese sections.

The r-th Veronese subring keeps the graded pieces in degrees divisible by r,
so its Hilbert series is the r-section sum a_{rn} t^n of the ambient series.
Two independent routes are provided:

* ``veronese_transform`` uses the closed-form numerator rule for series with
  denominator (1-t)^d, built from bounded-partition counts, and
* ``veronese_section`` expands any rational series, strides it, and recovers
  the closed form by exact linear algebra.

They must agree on the overlap, which the test suite checks on a grid.
"""

from __future__ import annotations

from .exact import Poly, RationalFunction, expand, normalize, one_minus_power, reconstruct

_ONE_MINUS_T = Poly((1, -1))


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
    return normalize(Poly(coeffs), _ONE_MINUS_T ** d)


def veronese_section(f, r, num_bound=None, den_bound=None):
    """r-section of an arbitrary rational series, via expand/stride/reconstruct.

    Default bounds: the section's denominator needs at most deg(den) roots
    (each root a maps to a^r with the same multiplicity), and a polynomial
    part of degree e contributes at most e//r + 1 extra numerator degrees.
    """
    if r < 1:
        raise ValueError("stride must be >= 1")
    if r == 1:
        return f
    D = f.den.degree
    if den_bound is None:
        den_bound = D
    if num_bound is None:
        extra = f.num.degree - D
        num_bound = D + (extra // r + 1 if extra >= 0 else 0)
    order = num_bound + 2 * den_bound + 2
    strided = expand(f, r * order).section(r)
    return reconstruct(strided, num_bound, den_bound)


def quotient_series(generator_degrees, relation_degrees=()):
    """Hilbert series prod(1 - t^rel) / prod(1 - t^gen) of a graded quotient
    by a regular sequence."""
    if not generator_degrees:
        raise ValueError("at least one generator degree required")
    if any(d < 1 for d in generator_degrees) or any(d < 1 for d in relation_degrees):
        raise ValueError("degrees must be positive")
    num = Poly((1,))
    for e in relation_degrees:
        num = num * one_minus_power(e)
    den = Poly((1,))
    for d in generator_degrees:
        den = den * one_minus_power(d)
    return normalize(num, den)


__all__ = [
    "partition_count",
    "quotient_series",
    "veronese_section",
    "veronese_transform",
]
