"""Hilbert-series constructors and Veronese sections.

The r-th Veronese subring keeps the graded pieces in degrees divisible by r,
so its Hilbert series is the r-section sum a_{rn} t^n of the ambient series.
``veronese_section`` expands any rational series, strides it, and recovers
the closed form by exact linear algebra.  The test suite checks it against
an independent route, the closed-form numerator rule for denominators
(1-t)^d built from bounded-partition counts.
"""

from __future__ import annotations

from .exact import Poly, expand, normalize, one_minus_power, reconstruct


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
    "quotient_series",
    "veronese_section",
]
