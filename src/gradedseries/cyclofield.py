"""Arithmetic in cyclotomic fields Q(zeta_N) and matrices over them.

A ``CyclotomicNumber`` of order N is a residue modulo Phi_N in the power
basis 1, z, ..., z^(phi(N)-1) with Fraction coordinates.  It is the one
place where orders meet: a rational operand (an int, a Fraction or a
rational number of any order) scales the coordinates or shifts the first
one, and only two irrational operands of different orders are lifted into
Q(zeta_lcm), where z_N becomes z_M^(M/N).  A number hashes as its
normalized trace Tr(x)/phi(N), which lifting leaves unchanged, so equal
numbers hash alike whatever orders they carry.

``CyclotomicMatrix`` holds numbers of any orders and leaves every order
question to that arithmetic.  Rational functions with cyclotomic
coefficients, such as the trace series 1/det(I - t g), are
``exact.RationalFunction`` values; ``FieldFraction`` is another name for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from .cyclotomic import _divisors, cyclotomic_polynomial, mobius
from .exact import Poly, RationalFunction, _rref_add


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into a cyclotomic number")


def _rational_value(x):
    """x as an int or a Fraction when it is a rational scalar, else None."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, CyclotomicNumber) and x.is_rational():
        return x.coords[0]
    return None


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

    @classmethod
    def _raw(cls, order, coords):
        """A number from a tuple of phi(order) Fraction coordinates."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)
        return self

    def _pair(self, other):
        """Two irrational numbers in one order: the lcm order if theirs differ."""
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        q = _rational_value(other)
        if q is not None:
            return self._raw(self.order, (self.coords[0] + q,) + self.coords[1:])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.is_rational():
            return other + self.coords[0]
        a, b = self._pair(other)
        return self._raw(a.order, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.order, tuple(-c for c in self.coords))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CyclotomicNumber)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = _rational_value(other)
        if q is not None:
            return self._raw(self.order, tuple(c * q for c in self.coords))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.is_rational():
            return other * self.coords[0]
        a, b = self._pair(other)
        prod = [Fraction(0)] * (len(a.coords) + len(b.coords) - 1)
        for i, x in enumerate(a.coords):
            if not x:
                continue
            for j, y in enumerate(b.coords):
                prod[i + j] += x * y
        return self._raw(a.order, tuple(_reduce_mod_phi(prod, a.order)))

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
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        q = _rational_value(other)
        if q is not None:
            return self.is_rational() and self.coords[0] == q
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.is_rational():
            return False
        a, b = self._pair(other)
        return a.coords == b.coords

    def __hash__(self):
        # Tr(x)/phi(N) is unchanged by lifting and equals x for rational x;
        # it is summed as num/den in ints, which is faster than Fractions
        weights = _trace_weights(self.order)
        num, den = 0, 1
        for c, w in zip(self.coords, weights):
            if c and w:
                num = num * c.denominator + c.numerator * w * den
                den *= c.denominator
        den *= weights[0]
        return hash(num // den if num % den == 0 else Fraction(num, den))

    def __str__(self):
        return Poly(self.coords).to_str("z") if self else "0"

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self})"


@cache
def _trace_weights(order):
    """Tr(z^i) over Q for i < phi(order): the Ramanujan sums c_order(i).

    The first weight, Tr(1), is phi(order).
    """
    return tuple(sum(mobius(order // d) * d for d in _divisors(gcd(order, i)))
                 for i in range(cyclotomic_polynomial(order).degree))


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
    """Square matrix with cyclotomic entries; each entry keeps its own order."""

    __slots__ = ("rows",)

    def __init__(self, rows, order=1):
        """``order`` is the field that int and Fraction entries become."""
        rows = tuple(
            tuple(x if isinstance(x, CyclotomicNumber)
                  else CyclotomicNumber.from_rational(_as_fraction(x), order)
                  for x in row)
            for row in rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicMatrix is immutable")

    @classmethod
    def identity(cls, dim, order=1):
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)], order)

    @property
    def dim(self):
        return len(self.rows)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return CyclotomicMatrix(
            [[sum(x * y for x, y in zip(row, col)) for col in cols]
             for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(x == y for r1, r2 in zip(self.rows, other.rows)
                   for x, y in zip(r1, r2))

    def __hash__(self):
        return hash(self.rows)

    def diagonal(self):
        return tuple(row[i] for i, row in enumerate(self.rows))

    def inverse(self):
        n = self.dim
        rows = {}
        for i, row in enumerate(self.rows):
            _rref_add(rows, {**dict(enumerate(row)), n + i: 1})
        if sorted(rows) != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return CyclotomicMatrix([[rows[i].get(n + j, 0) for j in range(n)]
                                 for i in range(n)])

    def rank_of_difference_with_identity(self):
        """rank(g - I), the classical (bi)reflection invariant."""
        rows = {}
        for i, row in enumerate(self.rows):
            _rref_add(rows, {j: x - 1 if i == j else x for j, x in enumerate(row)})
        return len(rows)

    def reciprocal_charpoly(self):
        """Coefficients of det(I - t * g), ascending in t."""
        zero = cyclo_zero()
        one = cyclo_one()
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


FieldFraction = RationalFunction


__all__ = [
    "CyclotomicMatrix",
    "CyclotomicNumber",
    "FieldFraction",
    "cyclo_one",
    "cyclo_zero",
]
