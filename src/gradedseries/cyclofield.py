"""Arithmetic in cyclotomic fields Q(zeta_N) and matrices over them.

The scalar rule: a rational value is an int when it is integral and a
Fraction otherwise; a ``CyclotomicNumber`` is never rational.  Operands are
told apart by exact type (``exact._RATIONAL``), as in ``exact``.  Every
constructor and every operation that can land in Q (a sum, a product, a
power of zeta) returns an int or a Fraction there, so no caller converts.

A ``CyclotomicNumber`` of order N is an ``exact.Poly`` over Q, its residue
modulo Phi_N, of degree between 1 and phi(N) - 1.  Every result comes from
one constructor, ``_value``, which takes a coefficient sequence already
reduced below phi(N), strips its trailing zeros, applies the scalar rule,
and returns an int or a Fraction when at most one coordinate is left, or
else the number with its residue built directly, with no Poly arithmetic in
between.  Two numbers of the same order, the common case, meet on their
residues' coefficient tuples: a sum adds them, and a product over a field of
degree 2 (N = 3, 4, 6, where Phi_N = z^2 + c1 z + c0) is the closed form
(a0 + a1 z)(b0 + b1 z) = (a0 b0 - c0 a1 b1) + (a0 b1 + a1 b0 - c1 a1 b1) z.
Over a field of higher degree a product is the convolution of the two tuples
into one list, folded in place against the monic Phi_N, whose lower
coefficients come from a table built on the first use of each order
(``_modulus``).  Those degrees keep the fold: one loop serves every such
modulus, and a closed form for each would add code for products that the
paper's examples, all over Q(i) and Q(zeta_3), never make.  An inverse comes
from the extended Euclid of the residue and Phi_N.  The residue's
coefficients, and so the ``coords`` padded to phi(N) entries, follow the
scalar rule.  A number is the one place where orders meet: an int or
Fraction operand scales the residue or shifts its constant term (a 0 or a 1
returns the result with no arithmetic: ``x + 0`` and ``x * 1`` are ``x``,
``x * 0`` is 0), and two numbers of different orders are lifted into
Q(zeta_lcm), where z_N becomes z_M^(M/N), reduced mod Phi_M in the same way,
and then take the same-order code.  A number hashes as
its normalized trace Tr(x)/phi(N), which lifting leaves unchanged, so equal
numbers hash alike whatever orders they carry.  The hash is kept in a slot
that ``_value`` (and ``exact._rebuild``, for a copy) leaves empty, so each
value's first hash fills it and later ones read it.  ``galois(k)`` is the
automorphism z -> z^k, the residue p(z) sent to p(z^k) and reduced in the
same way.

``CyclotomicMatrix`` holds ints, Fractions and numbers of any orders under
the same rule, and leaves every order question to that arithmetic; its
product sums only the nonzero products of entries.  A matrix's nonzero
columns are a cache slot as well, empty when it is made and filled the first
time it is a right factor, so a group's closure scans each generator once.
Rational functions with cyclotomic coefficients, such as the trace series
1/det(I - t g), are ``exact.RationalFunction`` values; ``FieldFraction`` is
another name for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cyclotomic import _divisors, cyclotomic_polynomial, mobius
from .exact import (_RATIONAL, Immutable, Poly, RationalFunction, _poly,
                    _rref_add, _set_coeffs, _simplified, _simplify,
                    poly_to_str, scalar_inverse)


@cache
def _modulus(order):
    """phi(order), the reduction rule of Phi_order, which is monic (the pairs
    (j, -c_j) of its nonzero lower coefficients c_j, so that z^phi = sum of
    -c_j z^j), and all its lower coefficients c_0, ..., c_(phi-1)."""
    phi = cyclotomic_polynomial(order)
    lower = phi.coeffs[:-1]
    return phi.degree, tuple((j, -c) for j, c in enumerate(lower) if c), lower


def _value(order, out):
    """The value in Q(zeta_order) of the coefficient sequence ``out``, already
    reduced below phi(order), under the scalar rule: its trailing zeros are
    stripped and its Fractions simplified; an int or a Fraction when at most
    one coordinate is left, otherwise a CyclotomicNumber built directly."""
    n = len(out)
    while n and not out[n - 1]:
        n -= 1
    if n < 2:
        return _simplify(out[0]) if n else 0
    residue = object.__new__(Poly)
    _set_coeffs(residue, _simplified(out[:n]))
    number = object.__new__(CyclotomicNumber)
    _set_order(number, order)
    _set_residue(number, residue)
    _set_hash(number, None)
    return number


def _reduced(order, out):
    """The value of the coefficient list ``out`` modulo Phi_order.  Each
    coefficient from the top down to z^phi is folded into the lower ones, in
    place, and the rest is the value's residue."""
    phi, rule, _ = _modulus(order)
    for i in range(len(out) - 1, phi - 1, -1):
        c = out[i]
        if c:
            for j, p in rule:
                out[i - phi + j] += c * p
    return _value(order, out[:phi])


class CyclotomicNumber(Immutable):
    """Irrational element of Q(zeta_order): a Poly residue modulo Phi_order.

    Its coordinates follow the scalar rule; constructing one from rational
    coordinates gives an int or a Fraction.  The value is immutable; its
    hash slot is empty when ``_value`` (or ``exact._rebuild``, for a copy)
    makes it, and the hash is computed on first use and kept there.
    """

    __slots__ = ("order", "residue", "_hash")
    _CACHES = ("_hash",)

    def __new__(cls, order, coords):
        if len(coords) != cyclotomic_polynomial(order).degree:
            raise ValueError("coordinate length must be phi(order)")
        return _value(order, coords)

    @classmethod
    def zeta(cls, order, power=1):
        """zeta_order^power; an int (1 or -1) when that is rational."""
        return _reduced(order, [0] * (power % order) + [1])

    def lift(self, order):
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift into a larger cyclotomic field")
        # the z of self's order is z_order^r
        r = order // self.order
        out = [0] * (self.residue.degree * r + 1)
        out[::r] = self.residue.coeffs
        return _reduced(order, out)

    def galois(self, k):
        """sigma_k(self), the Galois automorphism z -> z^k of Q(zeta_order):
        the residue p(z) becomes p(z^k) mod Phi_order.  k must be prime to
        the order."""
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError(f"sigma_{k} needs k prime to the order {n}")
        out = [0] * n
        for i, c in enumerate(self.residue.coeffs):
            out[i * k % n] += c
        return _reduced(n, out)

    @property
    def coords(self):
        """The phi(order) coordinates in the power basis 1, z, z^2, ..."""
        c = self.residue.coeffs
        return c + (0,) * (_modulus(self.order)[0] - len(c))

    def _pair(self, other):
        """The two numbers, of different orders, lifted into the lcm order."""
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if type(other) is CyclotomicNumber:
            if other.order != self.order:
                self, other = self._pair(other)
            a, b = self.residue.coeffs, other.residue.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] += c
            return _value(self.order, out)
        if type(other) in _RATIONAL:
            if not other:
                return self
            c = self.residue.coeffs
            return _value(self.order, (c[0] + other, *c[1:]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _value(self.order, [-c for c in self.residue.coeffs])

    def __sub__(self, other):
        if type(other) is CyclotomicNumber:
            if other.order != self.order:
                self, other = self._pair(other)
            a, b = self.residue.coeffs, other.residue.coeffs
            out = list(a) + [0] * (len(b) - len(a))
            for i, c in enumerate(b):
                out[i] -= c
            return _value(self.order, out)
        if type(other) in _RATIONAL:
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is CyclotomicNumber:
            if other.order != self.order:
                self, other = self._pair(other)
            n = self.order
            x, y = self.residue.coeffs, other.residue.coeffs
            phi, _, lower = _modulus(n)
            if phi == 2:
                # Phi_n = z^2 + c1 z + c0, so z^2 = -c1 z - c0
                (a0, a1), (b0, b1), (c0, c1) = x, y, lower
                t = a1 * b1
                return _value(n, (a0 * b0 - c0 * t, a0 * b1 + a1 * b0 - c1 * t))
            # the convolution of the two tuples, over y's nonzero terms
            terms = [(j, c) for j, c in enumerate(y) if c]
            out = [0] * (len(x) + len(y) - 1)
            for i, c in enumerate(x):
                if c:
                    for j, d in terms:
                        out[i + j] += c * d
            return _reduced(n, out)
        if type(other) in _RATIONAL:
            if other == 1:
                return self
            if not other:
                return 0
            return _value(self.order, [c * other if c else c
                                       for c in self.residue.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        # extended Euclid over Q[z]: s * self + t * Phi = 1, with deg s < phi
        r0, r1 = self.residue, cyclotomic_polynomial(self.order)
        s0, s1 = Poly((1,)), Poly()
        while r1:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ArithmeticError("Phi_n is squarefree; gcd must be constant")
        return _value(self.order, (s0 * scalar_inverse(r0.leading)).coeffs)

    def __truediv__(self, other):
        if type(other) in _RATIONAL:
            return self * scalar_inverse(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = 1
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is CyclotomicNumber:
            if other.order != self.order:
                self, other = self._pair(other)
            return self.residue.coeffs == other.residue.coeffs
        return False if type(other) in _RATIONAL else NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(_mean_trace(self))
            _set_hash(self, value)
        return value

    def __str__(self):
        return poly_to_str(self.residue, "z")

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self})"


# the slots are written once, by _value and __hash__, past the __setattr__
# that keeps the value immutable
_set_order = CyclotomicNumber.order.__set__
_set_residue = CyclotomicNumber.residue.__set__
_set_hash = CyclotomicNumber._hash.__set__


def power_galois(values, k, m):
    """The automorphism that takes a trace of g to the same trace of g^k,
    for g of order m and k prime to m, as a map on ``values`` (the
    coefficients of that trace); None when it fixes them all.

    g^m = 1, so g's eigenvalues are m-th roots of unity and those of g^k
    their k-th powers; hence every trace of g^k is sigma_k of g's (Serre,
    *Linear Representations of Finite Groups*, 13.1).  The map is one
    sigma_k', for the least k' >= k with k' = k mod m that is prime to the
    orders of all the CyclotomicNumbers among ``values``: it acts as sigma_k
    on Q(zeta_m), where the eigenvalues lie, and is defined on every value.
    """
    if k == 1:
        return None
    orders = {c.order for c in values if isinstance(c, CyclotomicNumber)}
    if not orders:
        return None
    modulus = lcm(m, *orders)
    while gcd(k, modulus) != 1:
        k += m

    def sigma(c):
        return c.galois(k) if isinstance(c, CyclotomicNumber) else c
    return sigma


@cache
def _trace_weights(order):
    """Tr(z^i) over Q for i < phi(order): the Ramanujan sums c_order(i).

    The first weight, Tr(1), is phi(order).
    """
    return tuple(sum(mobius(order // d) * d for d in _divisors(gcd(order, i)))
                 for i in range(cyclotomic_polynomial(order).degree))


def _mean_trace(x):
    """Tr(x)/phi(N) for x in Q(zeta_N), an int or a Fraction; x itself when
    x is rational.

    Lifting x into a larger field leaves this value unchanged, so it is the
    number's hash, and the sum of the distinct conjugates of x is this value
    times their count.  It is summed as num/den in ints, which is faster
    than Fractions.
    """
    if type(x) in _RATIONAL:
        return x
    weights = _trace_weights(x.order)
    num, den = 0, 1
    for c, w in zip(x.residue.coeffs, weights):
        if c and w:
            num = num * c.denominator + c.numerator * w * den
            den *= c.denominator
    den *= weights[0]
    return num // den if num % den == 0 else Fraction(num, den)


def _entry(x):
    """x as a matrix entry: an int, a Fraction or a CyclotomicNumber."""
    if isinstance(x, CyclotomicNumber):
        return x
    if type(x) in _RATIONAL:
        return _simplify(x)
    raise TypeError(f"a cyclotomic matrix entry cannot be a {type(x).__name__}")


class CyclotomicMatrix(Immutable):
    """Square matrix with cyclotomic entries; each entry keeps its own order.

    Its nonzero columns, the (row, entry) pairs of each column, are a cache
    slot, empty when the matrix is made and filled by ``_nonzero_columns``
    the first time the matrix is a right factor."""

    __slots__ = ("rows", "_columns")
    _CACHES = ("_columns",)

    def __init__(self, rows, order=None):
        """``order`` is unused; bench/workloads.py still passes it."""
        rows = tuple(tuple(_entry(x) for x in row) for row in rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        _set_rows(self, rows)
        _set_columns(self, None)

    @classmethod
    def identity(cls, dim):
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    @property
    def dim(self):
        return len(self.rows)

    def _nonzero_columns(self):
        """The (row, entry) pairs of each column's nonzero entries, as
        tuples, built once and kept in the cache slot."""
        cols = tuple(tuple((i, y) for i, y in enumerate(col) if y)
                     for col in zip(*self.rows))
        _set_columns(self, cols)
        return cols

    def __mul__(self, other):
        """The product, over the nonzero products of entries only: each
        entry is the sum of those products, started from the first (the int
        0 when there is none), and a Fraction that lands on an integer
        becomes an int, so the entries keep the scalar rule.  The right
        factor's nonzero columns are read from its cache, so a generator
        that ``groups.closure`` multiplies by again and again is scanned
        once."""
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = other._columns
        if cols is None:
            cols = other._nonzero_columns()
        rows = []
        for row in self.rows:
            out = []
            for col in cols:
                acc = None
                for i, y in col:
                    x = row[i]
                    if x:
                        acc = x * y if acc is None else acc + x * y
                out.append(0 if acc is None else _simplify(acc))
            rows.append(tuple(out))
        product = object.__new__(CyclotomicMatrix)
        _set_rows(product, tuple(rows))
        _set_columns(product, None)
        return product

    def __eq__(self, other):
        if not isinstance(other, CyclotomicMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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
        # the polynomial entries of I - t g, every zero one the same Poly
        zero = Poly()
        mat = [[_poly((int(i == j), -x)) if x or i == j else zero
                for j, x in enumerate(row)] for i, row in enumerate(self.rows)]
        return _det(mat, zero).coeffs

    def det(self):
        """The determinant, under the scalar rule: the int 0 exactly when the
        matrix is singular."""
        return _det(self.rows)

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"

    __repr__ = __str__


_set_rows = CyclotomicMatrix.rows.__set__
_set_columns = CyclotomicMatrix._columns.__set__


def _det(mat, zero=0):
    """Cofactor determinant of a square matrix over a commutative ring, whose
    zero is ``zero``: scalars, or Polys with ``zero=Poly()``.  Zero entries
    are skipped, so a monomial matrix costs one product per level."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = zero
    for j in range(n):
        entry = mat[0][j]
        if not entry:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = entry * _det(minor, zero)
        acc = acc - term if j % 2 else acc + term
    return acc


FieldFraction = RationalFunction


__all__ = [
    "CyclotomicMatrix",
    "CyclotomicNumber",
    "FieldFraction",
]
