"""Arithmetic in cyclotomic fields Q(zeta_N), matrices over them, and
rational functions with cyclotomic coefficients.

A ``CyclotomicNumber`` of order N is a residue modulo Phi_N in the power
basis 1, z, ..., z^(phi(N)-1) with Fraction coordinates.  Mixed-order
arithmetic lifts both operands into Q(zeta_lcm); z_N lifts to z_M^(M/N).
Group-theoretic code keeps every value in one ambient order so that values
can serve as dict keys (hashing does not lift).

``FieldFraction`` is a num/den pair of polynomials in t with cyclotomic
coefficients, normalized so den(0) = 1; it carries trace series such as
1/det(I - t g) whose coefficients are irrational until a Molien sum cancels
them back into Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import cyclotomic_polynomial, euler_phi
from .exact import Poly, RationalFunction, normalize


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
        if len(self.coords) != euler_phi(order):
            raise ValueError("coordinate length must be phi(order)")

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def from_rational(cls, q, order=1):
        coords = [Fraction(q)] + [Fraction(0)] * (euler_phi(order) - 1)
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
        coords = list(s0.coeffs) + [Fraction(0)] * (euler_phi(self.order) - len(s0.coeffs))
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
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [x * inv for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        return CyclotomicMatrix([row[n:] for row in aug], self.order)

    def rank_of_difference_with_identity(self):
        """rank(g - I), the classical (bi)reflection invariant."""
        one = cyclo_one(self.order)
        work = [[x - one if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(self.rows)]
        return _rank(work)

    def reciprocal_charpoly(self):
        """Coefficients of det(I - t * g), ascending in t."""
        n = self.dim
        zero = cyclo_zero(self.order)
        one = cyclo_one(self.order)
        # polynomial entries of I - t g as coefficient pairs
        mat = [[(one if i == j else zero, -x) for j, x in enumerate(row)]
               for i, row in enumerate(self.rows)]
        det = _poly_det(mat, zero)
        while det and not det[-1]:
            det.pop()
        return tuple(det)

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"

    __repr__ = __str__


def _rank(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse() if isinstance(rows[rank][col], CyclotomicNumber) \
            else 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _cpoly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_det(mat, zero):
    """Cofactor determinant of a matrix of coefficient-list polynomials."""
    n = len(mat)
    if n == 1:
        return list(mat[0][0])
    acc = None
    for j in range(n):
        entry = mat[0][j]
        if not any(entry):
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = _cpoly_mul(entry, _poly_det(minor, zero), zero)
        if j % 2:
            term = [-x for x in term]
        if acc is None:
            acc = term
        else:
            if len(acc) < len(term):
                acc, term = term, acc
            acc = [a + b for a, b in zip(acc, term)] + acc[len(term):]
    return acc if acc is not None else [zero]


class FieldFraction:
    """num/den pair of t-polynomials with cyclotomic coefficients, den(0) = 1."""

    __slots__ = ("order", "num", "den")

    def __init__(self, num, den, order=None):
        num = list(num)
        den = list(den)
        orders = {c.order for c in num + den if isinstance(c, CyclotomicNumber)}
        if order is None:
            order = 1
            for o in orders:
                order = order * o // gcd(order, o)
        num = [self._lift_coeff(c, order) for c in num]
        den = [self._lift_coeff(c, order) for c in den]
        while num and not num[-1]:
            num.pop()
        while den and not den[-1]:
            den.pop()
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not den[0] == CyclotomicNumber.from_rational(1, order):
            if not den[0]:
                raise ValueError("denominator must be invertible at t = 0")
            inv = den[0].inverse()
            num = [c * inv for c in num]
            den = [c * inv for c in den]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("FieldFraction is immutable")

    @staticmethod
    def _lift_coeff(c, order):
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(_as_fraction(c), 1)
        return c.lift(order)

    @classmethod
    def from_rational_function(cls, f, order=1):
        return cls(list(f.num.coeffs), list(f.den.coeffs), order)

    @classmethod
    def reciprocal(cls, den_coeffs, order=None):
        return cls([1], den_coeffs, order)

    def lift(self, order):
        if order == self.order:
            return self
        return FieldFraction(self.num, self.den, order)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            other = FieldFraction.from_rational_function(other, self.order)
        if not isinstance(other, FieldFraction):
            return NotImplemented
        left = _cpoly_mul(list(self.num), list(other.den), cyclo_zero(1)) \
            if self.num and other.den else []
        right = _cpoly_mul(list(other.num), list(self.den), cyclo_zero(1)) \
            if other.num and self.den else []
        while left and not left[-1]:
            left.pop()
        while right and not right[-1]:
            right.pop()
        if len(left) != len(right):
            return False
        return all(a == b for a, b in zip(left, right))

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
        a, b = self, other
        m = a.order * b.order // gcd(a.order, b.order)
        a, b = a.lift(m), b.lift(m)
        zero = cyclo_zero(m)
        num1 = _cpoly_mul(list(a.num), list(b.den), zero) if a.num else []
        num2 = _cpoly_mul(list(b.num), list(a.den), zero) if b.num else []
        if len(num1) < len(num2):
            num1, num2 = num2, num1
        num = [x + y for x, y in zip(num1, num2)] + num1[len(num2):]
        den = _cpoly_mul(list(a.den), list(b.den), zero)
        num, den = _reduce_field_fraction(num, den, m)
        return FieldFraction(num, den, m)

    __radd__ = __add__

    def __neg__(self):
        return FieldFraction([-c for c in self.num], self.den, self.order)

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
        a, b = self, other
        m = a.order * b.order // gcd(a.order, b.order)
        a, b = a.lift(m), b.lift(m)
        zero = cyclo_zero(m)
        if not a.num or not b.num:
            return FieldFraction([], [1], m)
        num = _cpoly_mul(list(a.num), list(b.num), zero)
        den = _cpoly_mul(list(a.den), list(b.den), zero)
        num, den = _reduce_field_fraction(num, den, m)
        return FieldFraction(num, den, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero series")
        flipped = FieldFraction(other.den, other.num, other.order)
        return self * flipped

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return (FieldFraction([1], [1], self.order) / self) ** (-n)
        result = FieldFraction([1], [1], self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scaled(self, q):
        return FieldFraction([c * q for c in self.num], self.den, self.order)

    def expand(self, n):
        """Power-series coefficients 0..n (den(0) = 1 makes this division-free)."""
        zero = cyclo_zero(self.order)
        num, den = self.num, self.den
        out = []
        for k in range(n + 1):
            acc = num[k] if k < len(num) else zero
            for j in range(1, min(k, len(den) - 1) + 1):
                acc = acc - den[j] * out[k - j]
            out.append(acc)
        return out

    @property
    def num_degree(self):
        return len(self.num) - 1

    @property
    def den_degree(self):
        return len(self.den) - 1

    def pole_order_at_one(self):
        return _root_multiplicity_at_one(self.den, self.order) - \
            (_root_multiplicity_at_one(self.num, self.order) if self.num else 0)

    def is_rational(self):
        return all(c.is_rational() for c in self.num + self.den)

    def to_rational_function(self):
        """Exact conversion into the integer canonical form; None if irrational."""
        if not self.is_rational():
            return None
        return normalize(Poly([c.as_fraction() for c in self.num]),
                         Poly([c.as_fraction() for c in self.den]))

    def __str__(self):
        return f"({_cpoly_str(self.num)}) / ({_cpoly_str(self.den)})"

    __repr__ = __str__


def _cpoly_str(coeffs):
    if not any(coeffs):
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        var = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        cs = str(c.as_fraction()) if c.is_rational() else f"({c})"
        parts.append(var if var and cs == "1" else f"{cs}{var}")
    return " + ".join(parts)


def _root_multiplicity_at_one(coeffs, order):
    zero = cyclo_zero(order)
    m = 0
    work = [c.lift(order) for c in coeffs]
    while work and not sum(work, zero):
        # p(1) = 0, so divide by (t - 1) synthetically
        out = []
        carry = zero
        for c in reversed(work):
            carry = carry + c
            out.append(carry)
        # out = quotient coefficients descending, then p(1) = 0
        work = out[:-1][::-1]
        m += 1
    return m


def _monic_gcd(a, b, order):
    """Euclidean gcd of coefficient-list polynomials over Q(zeta_order)."""
    a = [c for c in a]
    b = [c for c in b]
    while b and not b[-1]:
        b.pop()
    while a and not a[-1]:
        a.pop()
    while b:
        a = _cpoly_mod(a, b, order)
        a, b = b, a
        while b and not b[-1]:
            b.pop()
    if not a:
        return [cyclo_one(order)]
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _cpoly_mod(a, b, order):
    work = list(a)
    db = len(b) - 1
    lead_inv = b[-1].inverse()
    for i in range(len(work) - 1, db - 1, -1):
        c = work[i] * lead_inv
        if c:
            for j in range(db + 1):
                work[i - db + j] = work[i - db + j] - c * b[j]
    return work[:db]


def _cpoly_exact_div(a, b, order):
    zero = cyclo_zero(order)
    work = list(a)
    db = len(b) - 1
    lead_inv = b[-1].inverse()
    quot = [zero] * (len(work) - db)
    for i in range(len(work) - 1, db - 1, -1):
        c = work[i] * lead_inv
        quot[i - db] = c
        if c:
            for j in range(db + 1):
                work[i - db + j] = work[i - db + j] - c * b[j]
    if any(work[:db]):
        raise ValueError("division not exact")
    return quot


def _reduce_field_fraction(num, den, order):
    while num and not num[-1]:
        num.pop()
    while den and not den[-1]:
        den.pop()
    if not num:
        return [], den[:1]
    g = _monic_gcd(list(num), list(den), order)
    if len(g) > 1:
        num = _cpoly_exact_div(num, g, order)
        den = _cpoly_exact_div(den, g, order)
    return num, den


__all__ = [
    "CyclotomicMatrix",
    "CyclotomicNumber",
    "FieldFraction",
    "cyclo_one",
    "cyclo_zero",
]
