"""Arithmetic in cyclotomic fields Q(zeta_N), matrices over them, and
rational functions with cyclotomic coefficients.

A ``CyclotomicNumber`` of order N is a residue modulo Phi_N in the power
basis 1, z, ..., z^(phi(N)-1) with Fraction coordinates.  Mixed-order
arithmetic lifts both operands into Q(zeta_lcm); z_N lifts to z_M^(M/N).
Group-theoretic code keeps every value in one ambient order so that values
can serve as dict keys (hashing does not lift).

``FieldFraction`` is a reduced num/den pair of ``Poly``s in t with
cyclotomic coefficients, normalized so den(0) = 1; it carries trace series
such as 1/det(I - t g) whose coefficients are irrational until a Molien sum
cancels them back into Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import cyclotomic_polynomial
from .exact import (
    Poly,
    RationalFunction,
    _rref_add,
    expand,
    monic_gcd,
    normalize,
)


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into a cyclotomic number")


class CyclotomicNumber:
    """Element of Q(zeta_order) in the power basis modulo Phi_order."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))
        if len(self.coords) != cyclotomic_polynomial(order).degree:
            raise ValueError("coordinate length must be phi(order)")

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def from_rational(cls, q, order=1):
        coords = [Fraction(q)] + [Fraction(0)] * (cyclotomic_polynomial(order).degree - 1)
        return cls(order, coords)

    @classmethod
    def zeta(cls, order, power=1):
        coords = _reduce_mod_phi([0] * (power % order) + [1], order)
        return cls(order, coords)

    @property
    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def lift(self, order):
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift into a larger cyclotomic field")
        k = order // self.order
        raised = [Fraction(0)] * ((len(self.coords) - 1) * k + 1)
        for i, c in enumerate(self.coords):
            raised[i * k] = c
        return CyclotomicNumber(order, _reduce_mod_phi(raised, order))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return None, None
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = max(len(a.coords), len(b.coords))
        return CyclotomicNumber(
            a.order,
            [ (a.coords[i] if i < len(a.coords) else 0)
              + (b.coords[i] if i < len(b.coords) else 0) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        prod = [Fraction(0)] * (len(a.coords) + len(b.coords) - 1)
        for i, x in enumerate(a.coords):
            if not x:
                continue
            for j, y in enumerate(b.coords):
                prod[i + j] += x * y
        return CyclotomicNumber(a.order, _reduce_mod_phi(prod, a.order))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        phi = cyclotomic_polynomial(self.order)
        # extended Euclid over Q[z]: s * self + t * Phi = 1
        r0, r1 = Poly(self.coords), phi
        s0, s1 = Poly((1,)), Poly()
        while r1:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        inv_lead = Fraction(1) / Fraction(r0.leading)
        if r0.degree != 0:
            raise ArithmeticError("Phi_n is squarefree; gcd must be constant")
        s0 = s0 * inv_lead
        coords = list(s0.coeffs) + [Fraction(0)] * (phi.degree - len(s0.coeffs))
        return CyclotomicNumber(self.order, _reduce_mod_phi(coords, self.order))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CyclotomicNumber.from_rational(other, 1) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coords == b.coords

    def __hash__(self):
        # hash in the element's own order; keep dict keys within one order
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.order, self.coords))

    def __str__(self):
        return Poly(self.coords).to_str("z") if self else "0"

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self})"


def _reduce_mod_phi(coeffs, order):
    """Reduce a coefficient list modulo Phi_order; returns phi(order) coords."""
    phi = cyclotomic_polynomial(order)
    d = phi.degree
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            work[i] = Fraction(0)
            for j, pc in enumerate(phi.coeffs[:-1]):
                work[i - d + j] -= c * pc
    work = work[:d]
    return work + [Fraction(0)] * (d - len(work))


def cyclo_one(order=1):
    return CyclotomicNumber.from_rational(1, order)


def cyclo_zero(order=1):
    return CyclotomicNumber.from_rational(0, order)


class CyclotomicMatrix:
    """Square matrix over one cyclotomic field."""

    __slots__ = ("order", "rows")

    def __init__(self, rows, order=None):
        entries = []
        max_order = order or 1
        for row in rows:
            out = []
            for x in row:
                if not isinstance(x, CyclotomicNumber):
                    x = CyclotomicNumber.from_rational(_as_fraction(x), 1)
                out.append(x)
                max_order = max_order * x.order // gcd(max_order, x.order)
            entries.append(out)
        dim = len(entries)
        if any(len(r) != dim for r in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "order", max_order)
        object.__setattr__(self, "rows", tuple(
            tuple(x.lift(max_order) for x in row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicMatrix is immutable")

    @classmethod
    def identity(cls, dim, order=1):
        one = cyclo_one(order)
        zero = cyclo_zero(order)
        return cls([[one if i == j else zero for j in range(dim)]
                    for i in range(dim)], order)

    @property
    def dim(self):
        return len(self.rows)

    def lift(self, order):
        if order == self.order:
            return self
        return CyclotomicMatrix(
            [[x.lift(order) for x in row] for row in self.rows], order)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self, other
        if a.order != b.order:
            m = a.order * b.order // gcd(a.order, b.order)
            a, b = a.lift(m), b.lift(m)
        n = a.dim
        cols = list(zip(*b.rows))
        return CyclotomicMatrix(
            [[sum((x * y for x, y in zip(row, col)),
                  cyclo_zero(a.order)) for col in cols] for row in a.rows],
            a.order)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(x == y for r1, r2 in zip(self.rows, other.rows)
                   for x, y in zip(r1, r2))

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.rows))

    def is_diagonal(self):
        return all(not x for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if i != j)

    def diagonal(self):
        return tuple(row[i] for i, row in enumerate(self.rows))

    def transpose(self):
        return CyclotomicMatrix(tuple(zip(*self.rows)), self.order)

    def inverse(self):
        n = self.dim
        one = cyclo_one(self.order)
        zero = cyclo_zero(self.order)
        rows, pivots = [], []
        for i, row in enumerate(self.rows):
            _rref_add(rows, pivots,
                      list(row) + [one if i == j else zero for j in range(n)])
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return CyclotomicMatrix([row[n:] for row in rows], self.order)

    def rank_of_difference_with_identity(self):
        """rank(g - I), the classical (bi)reflection invariant."""
        one = cyclo_one(self.order)
        rows, pivots = [], []
        for i, row in enumerate(self.rows):
            _rref_add(rows, pivots,
                      [x - one if i == j else x for j, x in enumerate(row)])
        return len(pivots)

    def reciprocal_charpoly(self):
        """Coefficients of det(I - t * g), ascending in t."""
        zero = cyclo_zero(self.order)
        one = cyclo_one(self.order)
        # the polynomial entries of I - t g
        mat = [[Poly((one if i == j else zero, -x)) for j, x in enumerate(row)]
               for i, row in enumerate(self.rows)]
        return _poly_det(mat).coeffs

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"

    __repr__ = __str__


def _poly_det(mat):
    """Cofactor determinant of a matrix of Polys."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = Poly()
    for j in range(n):
        entry = mat[0][j]
        if not entry:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = entry * _poly_det(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def _coeffs(p):
    return p.coeffs if isinstance(p, Poly) else p


def _order_of(*polys):
    """lcm of the orders of the cyclotomic coefficients (1 if there are none)."""
    order = 1
    for p in polys:
        for c in _coeffs(p):
            if isinstance(c, CyclotomicNumber):
                order = order * c.order // gcd(order, c.order)
    return order


def _field_poly(coeffs, order):
    """A Poly over Q(zeta_order) from ints, Fractions or cyclotomic numbers."""
    return Poly([c.lift(order) if isinstance(c, CyclotomicNumber)
                 else CyclotomicNumber.from_rational(_as_fraction(c), order)
                 for c in _coeffs(coeffs)])


def _common_order(a, b):
    m = a.order * b.order // gcd(a.order, b.order)
    return a.lift(m), b.lift(m), m


def _unit_constant(num, den, order):
    """Scale num and den by one constant so that den(0) = 1."""
    d0 = den.constant_term
    if not d0:
        raise ValueError("denominator must be invertible at t = 0")
    if d0 == cyclo_one(order):
        return num, den
    inv = d0.inverse()
    return num * inv, den * inv


def _reduced(num, den, order):
    """Cancel gcd(num, den) and scale so that den(0) = 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return num, Poly((cyclo_one(order),))
    g = monic_gcd(num, den)
    if g.degree:
        num, den = num.exact_div(g), den.exact_div(g)
    return _unit_constant(num, den, order)


class FieldFraction:
    """Rational function in t over Q(zeta_order), as Polys num/den with
    gcd(num, den) = 1 and den(0) = 1.

    That reduced form is unique, so two values of one order are equal
    exactly when their fields are, and equal values hash alike.  Hashes are
    not comparable across orders.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, num, den, order=None):
        if order is None:
            order = _order_of(num, den)
        self._assign(*_reduced(_field_poly(num, order), _field_poly(den, order),
                               order), order)

    def _assign(self, num, den, order):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _wrap(cls, num, den, order):
        """A value whose num/den are already coprime with den(0) = 1."""
        return object.__new__(cls)._assign(num, den, order)

    def __setattr__(self, name, value):
        raise AttributeError("FieldFraction is immutable")

    @classmethod
    def from_rational_function(cls, f, order=1):
        # coprime over Q stays coprime over any extension field
        return cls._wrap(_field_poly(f.num, order), _field_poly(f.den, order),
                         order)

    @classmethod
    def reciprocal(cls, den_coeffs, order=None):
        """1/den: already coprime, so only den(0) = 1 needs arranging."""
        if order is None:
            order = _order_of(den_coeffs)
        den = _field_poly(den_coeffs, order)
        if not den:
            raise ZeroDivisionError("zero denominator")
        return cls._wrap(*_unit_constant(Poly((cyclo_one(order),)), den, order),
                         order)

    def lift(self, order):
        if order == self.order:
            return self
        return FieldFraction._wrap(_field_poly(self.num, order),
                                   _field_poly(self.den, order), order)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            other = FieldFraction.from_rational_function(other, self.order)
        if not isinstance(other, FieldFraction):
            return NotImplemented
        a, b, _ = _common_order(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash((self.num, self.den))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return FieldFraction.from_rational_function(other)
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return FieldFraction([other], [1])
        return other if isinstance(other, FieldFraction) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, m = _common_order(self, other)
        return FieldFraction._wrap(
            *_reduced(a.num * b.den + b.num * a.den, a.den * b.den, m), m)

    __radd__ = __add__

    def __neg__(self):
        return FieldFraction._wrap(-self.num, self.den, self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, m = _common_order(self, other)
        return FieldFraction._wrap(
            *_reduced(a.num * b.num, a.den * b.den, m), m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero series")
        a, b, m = _common_order(self, other)
        return FieldFraction._wrap(
            *_reduced(a.num * b.den, a.den * b.num, m), m)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return (1 / self) ** (-n)
        if n == 0:
            one = Poly((cyclo_one(self.order),))
            return FieldFraction._wrap(one, one, self.order)
        # powers of coprime polynomials stay coprime, and den(0)^n = 1
        return FieldFraction._wrap(self.num ** n, self.den ** n, self.order)

    def scaled(self, q):
        """q * self for a scalar q."""
        num = self.num * q
        den = self.den if num else Poly((cyclo_one(self.order),))
        return FieldFraction._wrap(num, den, self.order)

    def expand(self, n):
        """Power-series coefficients 0..n (den(0) = 1 makes this division-free)."""
        return list(expand(self, n))

    pole_order_at_one = RationalFunction.pole_order_at_one

    def is_rational(self):
        return all(c.is_rational() for c in self.num.coeffs + self.den.coeffs)

    def to_rational_function(self):
        """Exact conversion into the integer canonical form; None if irrational."""
        if not self.is_rational():
            return None
        return normalize(Poly([c.as_fraction() for c in self.num.coeffs]),
                         Poly([c.as_fraction() for c in self.den.coeffs]))

    __str__ = RationalFunction.__str__
    __repr__ = __str__


__all__ = [
    "CyclotomicMatrix",
    "CyclotomicNumber",
    "FieldFraction",
    "cyclo_one",
    "cyclo_zero",
]
