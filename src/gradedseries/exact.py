"""Exact arithmetic for polynomials, rational functions and power series in t.

Representation conventions:

* ``Poly``: dense coefficient tuple, ``coeffs[k]`` is the coefficient of
  ``t^k``.  Trailing zeros are stripped; the zero polynomial has ``coeffs
  == ()``.  Coefficients lie in one exact field: Python ints and
  ``Fraction``s, or ``CyclotomicNumber``s, which may carry different orders
  (their own arithmetic reconciles those).  A ``CyclotomicNumber`` is itself
  a Poly over Q reduced modulo a cyclotomic polynomial, so this one Poly
  type serves both levels; a number's sums, differences and products work
  on that Poly's coefficient tuple directly, and build the result's residue
  with no Poly arithmetic.
* ``RationalFunction``: pair ``num/den`` of ``Poly``s over Q or Q(zeta_N)
  with ``gcd(num, den) = 1`` and ``den(0) = 1``.  One reducer produces
  that form for every value: it cancels ``poly_gcd``, the one gcd, which
  Euclid finds over the coefficients' own field, and then scales den(0) to
  1.  Every Hilbert-type series of a connected graded algebra has this
  shape (``H(0) = 1`` pins the constant term of the denominator), and so
  does a trace series 1/det(I - t g) over Q(zeta_N), which makes
  identities between series literal data comparisons.
  ``normalize`` also checks that the expansion is an integer series.
* ``Series``: coefficients ``0..order`` of the expansion at ``t = 0``.
* Sparse rows for elimination: ``_rref_add`` keeps a reduced row echelon
  form as a dict from pivot column to row, each row a dict of column ->
  nonzero entry.

One scalar rule holds for every coefficient: a rational value is an int when
it is integral and a Fraction otherwise, and a ``CyclotomicNumber`` is never
rational (its arithmetic returns an int or a Fraction wherever the result
lies in Q, and its coordinates are ints or Fractions by the same rule).  So
nothing here converts scalars, a Poly whose coefficients are all rational is
a Poly over Q, and arithmetic over +-1 stays in ints.  The
scalars that define algebra truncations (q parameters, normal-element
coefficients, basis unit vectors) follow the same rule.  The rule is tested
by exact type against one set, ``_RATIONAL`` (int, bool and Fraction), here
and in ``cyclofield`` and ``groups``; a bool counts as an int, as it always
has.  Only a Fraction can need simplifying, so ``Poly`` and ``Series`` look
at each coefficient only when a Fraction is among them, and the sparse
eliminations look only at the entries that a row operation, or a rational
pivot other than +-1, computes.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate


class ZeroDenominatorError(ZeroDivisionError):
    """The denominator polynomial is identically zero."""


class NonUnitConstantError(ValueError):
    """No normalized form with den(0) = 1 and integer coefficients exists."""


class NoSolutionError(ValueError):
    """No rational function within the degree bounds matches the series."""


class AmbiguousDataError(ValueError):
    """The truncation is too short to pin down the rational function."""


# the rational scalar types, tested by exact type: an instance check on
# Fraction goes through ABCMeta in Python, and bool stays an int here
_RATIONAL = frozenset((int, bool, Fraction))


def _rebuild(cls, slots):
    """A ``cls`` value with the given (slot, value) pairs, set past its
    guard, and its cache slots empty: how a copy or an unpickled
    ``Immutable`` value is made."""
    self = object.__new__(cls)
    for name in cls._CACHES:
        object.__setattr__(self, name, None)
    for name, value in slots:
        object.__setattr__(self, name, value)
    return self


class Immutable:
    """Base of the value types whose slots are set once, when the value is
    made: assignment raises, and copy and pickle rebuild the value from its
    slots.

    A class names its cache slots in ``_CACHES``, next to its
    ``__slots__``: each holds a value derived from the other slots, is None
    (empty) when the value is made, and is filled once, on first use.  A
    copy leaves them out and starts with them empty."""

    __slots__ = ()
    _CACHES = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), tuple(
            (name, getattr(self, name)) for name in self.__slots__
            if name not in self._CACHES))


def _is_scalar(x):
    """Whether x is a coefficient: an int, a Fraction or a CyclotomicNumber
    (it has a residue)."""
    return type(x) in _RATIONAL or hasattr(x, "residue")


def _simplify(c):
    # Fractions with denominator 1 become ints so printing and hashing stay tidy
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def scalar_inverse(x):
    """1/x for a nonzero int, Fraction or CyclotomicNumber; +-1 is its own."""
    if type(x) in _RATIONAL:
        return x if x == 1 or x == -1 else _simplify(Fraction(1) / x)
    return x.inverse()


def _simplified(coeffs):
    """The coefficient sequence as a tuple, its Fractions simplified when
    there are any."""
    for c in coeffs:  # a plain loop: `Fraction in map(type, ...)` is slower
        if type(c) is Fraction:
            return tuple(map(_simplify, coeffs))
    return tuple(coeffs)


def _normal_coeffs(coeffs):
    """The coefficient sequence with trailing zeros stripped, as a tuple;
    its Fractions are simplified when there are any."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return _simplified(coeffs[:n])


class Poly(Immutable):
    """Dense univariate polynomial over exact scalars.

    ``Poly(coeffs)`` takes any iterable of coefficients.  The results of
    ``+``, ``-``, ``*``, ``%`` and ``divmod`` come from one internal
    constructor, ``_poly``, which takes the list the operation filled.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _normal_coeffs(tuple(coeffs)))

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly((other,))
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it hashes as one
        if len(self.coeffs) <= 1:
            return hash(self.constant_term)
        return hash(self.coeffs)

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return _poly(out)

    def __rsub__(self, other):
        return Poly((other,)) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            # a scalar of the coefficient field
            return _poly([c * other if c else c for c in self.coeffs])
        if not self or not other:
            return Poly()
        size = len(self.coeffs) + len(other.coeffs) - 1
        out = [0] * size
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly((1,)) if result is None else result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv = scalar_inverse(other.leading)
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] * inv
            if c:
                quot[i - d] = c
                for j, oc in enumerate(other.coeffs):
                    if oc:
                        rem[i - d + j] -= c * oc
        return _poly(quot), _poly(rem[:d])

    def __mod__(self, other):
        """The remainder of ``divmod``, with no quotient built."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        if self.degree < d:
            return self
        rem = list(self.coeffs)
        inv = scalar_inverse(other.leading)
        lower = other.coeffs[:-1]  # the leading term only clears rem[i]
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] * inv
            if c:
                for j, oc in enumerate(lower, i - d):
                    if oc:
                        rem[j] -= c * oc
        return _poly(rem[:d])

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise ValueError("division is not exact")
        return q

    def monic(self):
        return self * scalar_inverse(self.leading)

    def shifted(self, k):
        """Multiply by t^k."""
        if not self:
            return self
        return Poly((0,) * k + self.coeffs)

    def inflated(self, r):
        """Substitute t -> t^r."""
        if r == 1 or not self:
            return self
        out = [0] * (self.degree * r + 1)
        for k, c in enumerate(self.coeffs):
            out[k * r] = c
        return Poly(out)

    def reversed(self):
        """Coefficient reversal of the t-power-free part."""
        if not self:
            return self
        k = 0
        while not self.coeffs[k]:
            k += 1
        return Poly(self.coeffs[k:][::-1])

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r})"


_set_coeffs = Poly.coeffs.__set__


def _poly(coeffs):
    """The Poly of an arithmetic result's coefficient list, normalized as by
    ``Poly(...)`` (trailing zeros stripped; Fractions simplified only when
    one is present) but built without that constructor's call and copy."""
    p = object.__new__(Poly)
    _set_coeffs(p, _normal_coeffs(coeffs))
    return p


def one_minus_power(n):
    """The binomial 1 - t^n."""
    if n < 1:
        raise ValueError("exponent must be positive")
    return Poly((1,) + (0,) * (n - 1) + (-1,))


def poly_to_str(p, var="t"):
    """Canonical printing: ascending powers, explicit signs, no unit coefficients."""
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        var_part = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if type(c) not in _RATIONAL:
            parts.append((" + " if parts else "") + f"({c}){var_part}")
            continue
        neg = c < 0
        mag = -c if neg else c
        if var_part and mag == 1:
            body = var_part
        elif var_part and type(mag) is Fraction:
            body = f"({mag}){var_part}"
        else:
            body = f"{mag}{var_part}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def poly_gcd(a, b):
    """The monic gcd of a and b over their coefficients' field, Q or one
    cyclotomic field, by Euclid with monic divisors, which keep Fraction
    coefficients small; the zero polynomial when both are zero."""
    while b:
        b = b.monic()
        a, b = b, a % b
    return a.monic() if a else a


def multiplicity_at_one(p):
    """Multiplicity of the root t = 1, by synthetic division by t - 1."""
    if not p:
        raise ValueError("zero polynomial")
    coeffs = p.coeffs
    m = 0
    while True:
        # running sums from the top: the last is p(1), the rest the quotient
        sums = list(accumulate(reversed(coeffs)))
        if sums[-1]:
            return m
        coeffs = sums[-2::-1]
        m += 1


def _as_poly(p):
    return p if isinstance(p, Poly) else Poly(p)


def _lowest_terms(num, den):
    """The reducer: cancel gcd(num, den), then scale so that den(0) = 1."""
    if not den:
        raise ZeroDenominatorError("denominator is zero")
    if not num:
        return Poly(), Poly((1,))
    if num.degree > 0 and den.degree > 0:  # a constant's gcd is a unit
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
    d0 = den.constant_term
    if not d0:
        raise NonUnitConstantError("denominator vanishes at t = 0")
    if d0 != 1:
        inv = scalar_inverse(d0)
        num, den = num * inv, den * inv
    return num, den


class RationalFunction(Immutable):
    """Rational function in t over Q or Q(zeta_N), as Polys num/den with
    gcd(num, den) = 1 and den(0) = 1.

    Coefficients are ints, Fractions and CyclotomicNumbers of any orders,
    mixed freely, under the scalar rule of this module.  That reduced form
    is unique, so two values are equal exactly when their coefficients are,
    and equal values hash alike.  The hash is kept in a slot that every
    construction (``_assign``, and ``_rebuild`` for a copy) leaves empty,
    and is computed on first use.
    """

    __slots__ = ("num", "den", "_hash")
    _CACHES = ("_hash",)

    def __init__(self, num, den=(1,)):
        """num/den from Polys or coefficient sequences, reduced."""
        self._assign(*_lowest_terms(_as_poly(num), _as_poly(den)))

    def _assign(self, num, den):
        _set_num(self, num)
        _set_den(self, den)
        _set_function_hash(self, None)
        return self

    @classmethod
    def _wrap(cls, num, den):
        """A value whose num/den are already coprime with den(0) = 1."""
        return object.__new__(cls)._assign(num, den)

    @classmethod
    def reciprocal(cls, den):
        """1/den for a polynomial (or coefficient sequence) den."""
        return cls((1,), den)

    def __bool__(self):
        return bool(self.num)

    def is_rational(self):
        return all(type(c) in _RATIONAL
                   for c in self.num.coeffs + self.den.coeffs)

    def map_coefficients(self, fn):
        """fn applied to every coefficient of num and den.  fn must be a
        field automorphism, which keeps the form reduced with den(0) = 1."""
        return self._wrap(Poly(map(fn, self.num.coeffs)),
                          Poly(map(fn, self.den.coeffs)))

    def to_rational_function(self):
        """The same value, checked to expand to an integer series; None if a
        coefficient is irrational."""
        return _integer_series(self) if self.is_rational() else None

    @staticmethod
    def _coerce(other):
        """other as a RationalFunction, or None for a foreign type."""
        if isinstance(other, RationalFunction):
            return other
        if _is_scalar(other):
            return RationalFunction._wrap(Poly((other,)), Poly((1,)))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # the reduced form is unique, so structural equality is function equality
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        value = self._hash
        if value is None:
            # den(0) = 1, so a constant den is 1 and the value equals num
            value = hash(self.num if self.den.degree == 0
                         else (self.num, self.den))
            _set_function_hash(self, value)
        return value

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._wrap(-self.num, self.den)

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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return (1 / self) ** (-n)
        # powers of coprime polynomials stay coprime, and den(0)^n = 1
        return RationalFunction._wrap(self.num ** n, self.den ** n)

    def inflated(self, r):
        """Substitute t -> t^r; coprimality and den(0) = 1 are preserved."""
        return RationalFunction._wrap(self.num.inflated(r), self.den.inflated(r))

    def pole_order_at_one(self):
        m_den = multiplicity_at_one(self.den)
        m_num = multiplicity_at_one(self.num) if self.num else 0
        return m_den - m_num

    def __str__(self):
        if self.den == Poly((1,)):
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)}) / ({poly_to_str(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


# the slots are written by _assign and __hash__, past the __setattr__ that
# keeps the value immutable
_set_num = RationalFunction.num.__set__
_set_den = RationalFunction.den.__set__
_set_function_hash = RationalFunction._hash.__set__


def _integer_series(f):
    """f, if its coefficients lie in Z or Z[zeta_N], so that it expands to
    an integer series; NonUnitConstantError otherwise."""
    for c in f.num.coeffs + f.den.coeffs:
        if any(x.denominator != 1 for x in getattr(c, "coords", (c,))):
            raise NonUnitConstantError(
                f"{f} has the non-integral coefficient {c}; "
                "the expansion is not an integer series")
    return f


def normalize(p, q):
    """p/q in the reduced form of RationalFunction, checked to expand to an
    integer series.

    p and q are Polys or coefficient sequences over Q or Q(zeta_N).  The gcd
    is cancelled before den(0) is looked at, so normalize(t p, t q) equals
    normalize(p, q).  Raises ZeroDenominatorError for q = 0, and
    NonUnitConstantError when the reduced denominator vanishes at t = 0 (as
    for 1/t) or the reduced form has a coefficient outside Z or Z[zeta_N]
    (as for 1/(2 - t)).
    """
    return _integer_series(RationalFunction(p, q))


class Series(Immutable):
    """Truncated power series: coefficients for degrees 0..order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _simplified(tuple(coeffs)))
        if not self.coeffs:
            raise ValueError("a series truncation needs at least degree 0")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Series(out)

    def section(self, r):
        """Every r-th coefficient: degree n picks out coefficient rn."""
        return Series(self.coeffs[::r])

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"


def _series_coeffs(num, den, n):
    """Coefficients 0..n of num/den at t = 0, for coefficient tuples with
    den[0] = 1, which makes the recursion division-free."""
    out = []
    for k in range(n + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j]:
                acc = acc - den[j] * out[k - j]
        out.append(acc)
    return out


def expand(f, n):
    """Coefficients 0..n of the power-series expansion of f at t = 0.

    f is a RationalFunction, whose den(0) = 1 makes the recursion
    division-free.
    """
    return Series(_series_coeffs(f.num.coeffs, f.den.coeffs, n))


def series_quotient(p, d):
    """p / d as a Poly when d divides p, else None; d(0) must be 1.

    The quotient is the power series of p / d, so it needs no inverse of a
    coefficient.  d divides p exactly when that series vanishes from degree
    deg p - deg d + 1 through deg p.
    """
    if not p:
        return p
    k = p.degree - d.degree
    if k < 0:
        return None
    out = _series_coeffs(p.coeffs, d.coeffs, p.degree)
    if any(out[k + 1:]):
        return None
    return Poly(out[:k + 1])


def _reduce_vec(rows, vec):
    """vec minus its components along the reduced rows, as a sparse dict.

    rows maps each pivot column to its row, a dict of column -> nonzero
    entry with 1 at the pivot and no other pivot column; vec is a dict of
    column -> entry, whose zero entries are dropped.  Each entry a row
    operation computes follows the scalar rule: an integral Fraction is
    stored as its numerator.
    """
    out = {k: c for k, c in vec.items() if c}
    for p in [k for k in out if k in rows]:
        c = out[p]  # no other row touches column p
        for k, x in rows[p].items():
            y = out.get(k, 0) - c * x
            if not y:
                del out[k]
            elif type(y) is Fraction and y.denominator == 1:
                out[k] = y.numerator
            else:
                out[k] = y
    return out


def _rref_add(rows, vec):
    """Incremental Gauss-Jordan over any exact field, on sparse rows.

    rows is a reduced row echelon form held as in ``_reduce_vec``; columns
    are any mutually comparable keys.  vec is reduced against it; an empty
    form takes vec's nonzero entries as they are, with no reduction pass.  A
    nonzero residual is scaled to 1 at its least column, which becomes its
    pivot, cleared from the other rows and stored under that pivot; one
    already 1 there is stored as reduced, a fresh dict and never the
    caller's vec.  Returns the stored row, or None when vec lies in the row
    span.  The pivot rule is that of the dense RREF, so for a fixed column
    order the result is the unique RREF of the rows added.

    Stored entries follow the scalar rule when vec's do: an integral
    Fraction is stored as its numerator.  Only a computed entry can break
    it, so the test is made where a row operation computes one, and over
    the row scaled by a rational pivot other than +-1.  A pivot of 1 or -1
    leaves each entry's kind as it was, a CyclotomicNumber's arithmetic
    keeps the rule itself, and an empty form computes nothing.
    """
    if rows:
        vec = _reduce_vec(rows, vec)
    else:
        vec = {k: c for k, c in vec.items() if c}
    if not vec:
        return None
    piv = min(vec)
    if vec[piv] != 1:
        inv = scalar_inverse(vec[piv])
        if inv == -1 or type(inv) not in _RATIONAL:
            vec = {k: c * inv for k, c in vec.items()}
        else:
            vec = {k: _simplify(c * inv) for k, c in vec.items()}
    for row in rows.values():
        c = row.get(piv)
        if c:
            for k, x in vec.items():
                y = row.get(k, 0) - c * x
                if not y:
                    del row[k]
                elif type(y) is Fraction and y.denominator == 1:
                    row[k] = y.numerator
                else:
                    row[k] = y
    rows[piv] = vec
    return vec


def _solve_linear(rows, rhs):
    """A particular solution of rows * x = rhs (free unknowns 0), or None."""
    n = len(rows[0])
    reduced = {}
    for row, r in zip(rows, rhs):
        _rref_add(reduced, {**dict(enumerate(row)), n: r})
    if n in reduced:
        return None  # inconsistent
    sol = [0] * n
    for p, row in reduced.items():
        sol[p] = row.get(n, 0)
    return sol


def reconstruct(s, num_bound, den_bound):
    """Recover the rational function matching a truncated series.

    Solves q * s = p (mod t^(order+1)) with q(0) = 1, deg p <= num_bound and
    deg q <= den_bound, both bounds nonnegative, exactly over the rationals.
    By the usual Pade uniqueness argument any solution of the linear system
    gives the same rational function, so a particular solution suffices.
    """
    if num_bound < 0 or den_bound < 0:
        raise ValueError("degree bounds must be nonnegative")
    n = s.order
    if n < num_bound + 2 * den_bound + 2:
        raise AmbiguousDataError(
            f"order {n} truncation cannot determine a ({num_bound},{den_bound})"
            f" rational function; need at least {num_bound + 2 * den_bound + 2}")
    c = s.coeffs
    rows = []
    rhs = []
    for k in range(num_bound + 1, n + 1):
        rows.append([c[k - j] if k - j >= 0 else 0 for j in range(1, den_bound + 1)])
        rhs.append(-c[k])
    if den_bound:
        sol = _solve_linear(rows, rhs)
        if sol is None:
            raise NoSolutionError("no rational function within the given bounds")
        q = Poly([1] + sol)
    else:
        if any(rhs):
            raise NoSolutionError("no polynomial of the given degree matches")
        q = Poly((1,))
    p = q * Poly(c[:num_bound + 1])
    return normalize(Poly(p.coeffs[:num_bound + 1]), q)
