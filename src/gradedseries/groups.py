"""Finite matrix groups over cyclotomic fields: closure, subgroup
enumeration, trace assignments, Molien sums and quasi-bireflection tests.

The trace rule used for symbolic assignments is Tr(g, t) = 1/det(I - t g),
the reciprocal characteristic polynomial.  It is exact for graded
automorphisms acting diagonally on a skew polynomial ring (graded twists
leave traces unchanged, so the commutative eigenvalue count applies) and it
reproduces every trace the Sklyanin-type computations need; it is *not*
valid for arbitrary automorphisms of arbitrary algebras, which is why brute
force assignments exist alongside it (see ``algebras.brute_force_trace``).

Charpoly and brute-force assignments alike compute one trace per rational
class and derive the rest in ``assign_class_traces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cyclofield import (CyclotomicMatrix, CyclotomicNumber, _mean_trace,
                         power_galois)
from .cyclotomic import (_at_two, _divide_out, _divisors,
                         cyclotomic_polynomial)
from .exact import (_RATIONAL, Immutable, Poly, RationalFunction,
                    _integer_series, _poly, one_minus_power, poly_gcd,
                    scalar_inverse, series_quotient)


class CapExceededError(RuntimeError):
    """Closure grew past the cap; the generated group is too large or infinite."""


class TooLargeError(ValueError):
    """Subgroup enumeration is limited to small groups."""


class NonRationalResultError(ValueError):
    """A Molien sum failed to cancel into the rationals; the trace
    assignment must be wrong."""


class IndexMismatchError(ValueError):
    """The trace's vanishing order at infinity contradicts the stated index."""


VERDICT_FULL = "full"
VERDICT_QUASI_REFLECTION = "quasi-reflection"
VERDICT_QUASI_BIREFLECTION = "quasi-bireflection"
VERDICT_NEITHER = "neither"

PROVENANCE_CHARPOLY = "charpoly-rule"
PROVENANCE_BRUTE_FORCE = "brute-force"
PROVENANCE_DIMS = "truncation-dims"
PROVENANCE_USER = "user-supplied"


class MatrixGroup(Immutable):
    """A finite, closed set of matrices; elements[0] is the identity.

    The generators generate the elements.  A group made by ``subgroup``
    remembers its parent and its members' indices there, so that its
    multiplication table is read off the parent's.  A group made by
    ``closure`` keeps the right action of each generator on the element
    indices, found by closure's own products, for its table, and the
    matrix -> index dict its walk filled.  The index (for any other group),
    the table and the rational classes are each built once, when first
    asked for; they are its cache slots, which a copy starts without.
    """

    __slots__ = ("elements", "generators", "_index", "_table", "_parent",
                 "_perms", "_classes")
    _CACHES = ("_index", "_table", "_classes")

    def __init__(self, elements, generators, _parent=None, _perms=None,
                 _index=None):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_index", _index)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_parent", _parent)
        object.__setattr__(self, "_perms", _perms)
        object.__setattr__(self, "_classes", None)

    @property
    def order(self):
        return len(self.elements)

    @property
    def dim(self):
        return self.elements[0].dim

    def index_of(self, matrix):
        if self._index is None:
            object.__setattr__(self, "_index", {
                m: i for i, m in enumerate(self.elements)})
        return self._index[matrix]

    def multiplication_table(self):
        """table[a][b] is the index of elements[a] * elements[b]."""
        if self._table is None:
            if self._parent is None:
                table = self._table_from_generators()
            else:
                parent, members = self._parent
                position = {p: i for i, p in enumerate(members)}
                rows = parent.multiplication_table()
                table = tuple(tuple(position[rows[a][b]] for b in members)
                              for a in members)
            object.__setattr__(self, "_table", table)
        return self._table

    def _table_from_generators(self):
        # right multiplication by each generator as an index permutation;
        # column b holds the index of a * b for every a, and if b = p * g
        # then a * b = (a * p) * g, so b's column is p's through g's
        # permutation.  Columns are filled breadth-first from the identity's.
        perms = self._perms
        if perms is None:
            perms = [tuple(self.index_of(m * g) for m in self.elements)
                     for g in self.generators]
        columns = {0: tuple(range(self.order))}
        queue = [0]
        for p in queue:
            for perm in perms:
                b = perm[p]
                if b not in columns:
                    columns[b] = tuple(perm[x] for x in columns[p])
                    queue.append(b)
        if len(columns) != self.order:
            raise ValueError("the generators do not generate the elements")
        return tuple(zip(*(columns[b] for b in range(self.order))))

    def exponent(self):
        """The lcm of the element orders, read off the rational classes:
        h x^k h^-1 has the order m of its representative x."""
        return lcm(*(m for _, _, m in self.rational_classes()))

    def rational_classes(self):
        """(r, k, m) per element index: the element is h x^k h^-1 for some h
        in G, where x = elements[r] has order m and k is prime to m.  The
        walk (``_class_walk``) is made once per group.

        A class is the orbit of its representative x under x -> h x^k h^-1.
        Elements are walked in index order, so each representative is the
        first element of its class (the identity is its own), and a
        conjugate of x itself has k = 1.  The orbits are read from the
        multiplication table, with no matrix products: x's conjugacy class
        is its orbit under conjugation by the generators, and h x^k h^-1 is
        the k-th power of the conjugate h x h^-1.  A class of c conjugates
        of order m costs c (generators + m) table reads, so an abelian
        group (c = 1) costs about |G| (generators + exponent) in all.
        """
        if self._classes is None:
            object.__setattr__(self, "_classes", self._class_walk())
        return self._classes

    def _class_walk(self):
        table = self.multiplication_table()
        inverse = [row.index(0) for row in table]
        gens = {self.index_of(g) for g in self.generators} - {0}
        classes = [None] * self.order
        for r in range(self.order):
            if classes[r] is not None:
                continue
            conjugates = [r]
            seen = {r}
            for y in conjugates:
                for s in gens:
                    z = table[table[inverse[s]][y]][s]
                    if z not in seen:
                        seen.add(z)
                        conjugates.append(z)
            # powers[j] = y^j for every conjugate y, up to y^m = 1
            all_powers = []
            for y in conjugates:
                powers = [0, y]
                while powers[-1]:
                    powers.append(table[powers[-1]][y])
                all_powers.append(powers)
            m = len(all_powers[0]) - 1
            for k in range(1, m + 1):
                if gcd(k, m) != 1:
                    continue
                for powers in all_powers:
                    y = powers[k]
                    if classes[y] is None:
                        classes[y] = (r, k, m)
        return tuple(classes)

    def subset_closure(self, seed_indices):
        """Smallest closed subset (hence subgroup) containing the seeds.

        A breadth-first walk from the identity that right-multiplies by the
        seeds.  It reaches every product of seeds, and in a finite group
        those already form the subgroup they generate (each inverse is a
        power), so a call costs |H| * |seeds| table reads, not |H|^2.
        """
        table = self.multiplication_table()
        seeds = tuple(set(seed_indices) - {0})
        closed = {0}
        queue = [0]
        for i in queue:
            row = table[i]
            for s in seeds:
                k = row[s]
                if k not in closed:
                    closed.add(k)
                    queue.append(k)
        return frozenset(closed)

    def subgroup(self, indices):
        """The closed subset as a MatrixGroup of its own, whose table is read
        off this group's."""
        members = sorted(set(indices) | {0})
        elements = [self.elements[i] for i in members]
        return MatrixGroup(elements, elements[1:], (self, members))


def closure(generators, cap=1000, dim=None, order=None):
    """Breadth-first product closure of the generators.

    Every generator must be nonsingular (``det``, the test
    ``algebras.check_automorphism`` makes), and every generator's dimension
    must equal ``dim`` when that is given.  Every product element *
    generator is computed and looked up once, and its index is kept as that
    generator's right-action permutation for the group's multiplication
    table; the group takes over the walk's matrix -> index dict as its
    index.  Each generator's nonzero columns are found once, on its first
    product (``CyclotomicMatrix.__mul__``).  Raises CapExceededError once
    more than ``cap`` elements appear.  An empty generator list yields the
    trivial group (``dim`` then required).  ``order`` is unused;
    bench/workloads.py still passes it.
    """
    gens = list(generators)
    if not gens:
        if dim is None:
            raise ValueError("dim is required for an empty generator list")
        return MatrixGroup([CyclotomicMatrix.identity(dim)], [])
    dims = {g.dim for g in gens}
    if len(dims) != 1:
        raise ValueError("generators must share a dimension")
    n = gens[0].dim
    if dim is not None and dim != n:
        raise ValueError(f"dim {dim} does not match the generators' "
                         f"dimension {n}")
    if not all(g.det() for g in gens):
        raise ZeroDivisionError("matrix is singular")
    identity = CyclotomicMatrix.identity(n)
    elements = [identity]
    index = {identity: 0}
    perms = [[] for _ in gens]
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g, perm in zip(gens, perms):
            prod = current * g
            k = index.setdefault(prod, len(elements))
            if k == len(elements):
                elements.append(prod)
                if k >= cap:
                    raise CapExceededError(
                        f"closure exceeded cap {cap}; group may be infinite")
            perm.append(k)
    return MatrixGroup(elements, gens, _perms=[tuple(p) for p in perms],
                       _index=index)


def subgroups(group, max_order=64):
    """Every subgroup, by saturating cyclic seeds under one-element extensions.

    Any subgroup arises as a chain of one-generator extensions starting from
    a cyclic subgroup, so iterating extensions to a fixed point is complete.
    H is extended once per coset: <H, ih> = <H, hi> = <H, i> for h in H, so
    after extending by i every element of iH and Hi is done for H.
    """
    if group.order > max_order:
        raise TooLargeError(
            f"subgroup enumeration capped at order {max_order}")
    table = group.multiplication_table()
    found = {frozenset({0})}
    worklist = []
    for i in range(1, group.order):
        cyc = group.subset_closure({i})
        if cyc not in found:
            found.add(cyc)
            worklist.append(cyc)
    while worklist:
        current = worklist.pop()
        done = set(current)
        for i in range(1, group.order):
            if i in done:
                continue
            row = table[i]
            done.update(row[h] for h in current)
            done.update(table[h][i] for h in current)
            extended = group.subset_closure(current | {i})
            if extended not in found:
                found.add(extended)
                worklist.append(extended)
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [group.subgroup(s) for s in ordered]


@dataclass(frozen=True)
class TraceAssignment:
    """Trace series per group element, with the provenance of each value.

    A provenance is one of the PROVENANCE_* names (``truncation-dims`` is the
    identity's brute-force trace, read off the truncation's dims), or, for a
    trace ``assign_class_traces`` derives from its class representative's,
    ``conjugate of element r`` or ``sigma_k of element r``, r its index.

    The Molien sum of the assignment is kept on it once ``molien`` has
    taken it, so every caller that holds the assignment shares one sum.
    """

    group: MatrixGroup
    traces: tuple
    provenance: tuple

    def __post_init__(self):
        if len(self.traces) != self.group.order:
            raise ValueError("need one trace per group element")

    @cached_property
    def molien_series(self):
        return _molien_sum(self.group, self.traces)


def reciprocal_charpoly_trace(g):
    """Tr(g, t) = 1/det(I - t g), a RationalFunction over Q(zeta_N) whose
    coefficients are ints wherever they are rational."""
    return RationalFunction.reciprocal(g.reciprocal_charpoly())


def assign_class_traces(group, identity, representative, provenance):
    """A TraceAssignment from one computed trace per rational class
    (``MatrixGroup.rational_classes``): the identity takes ``identity``, a
    (trace, provenance) pair, and each other class representative g takes
    ``representative(g)`` with ``provenance``.

    Every other element h x^k h^-1, x its representative of order m, takes
    sigma_k of x's trace (``cyclofield.power_galois``): the trace is a class
    function, and x's eigenvalues are m-th roots of unity, those of x^k
    their k-th powers.  Its provenance is ``conjugate of element r`` (k = 1)
    or ``sigma_k of element r``, r the index of x.
    """
    traces, provenances = [identity[0]], [identity[1]]
    for i, (r, k, m) in enumerate(group.rational_classes()[1:], start=1):
        if i == r:
            traces.append(representative(group.elements[i]))
            provenances.append(provenance)
            continue
        trace = traces[r]
        sigma = power_galois((*trace.num.coeffs, *trace.den.coeffs), k, m)
        traces.append(trace if sigma is None
                      else trace.map_coefficients(sigma))
        provenances.append(
            f"{'conjugate' if k == 1 else f'sigma_{k}'} of element {r}")
    return TraceAssignment(group, tuple(traces), tuple(provenances))


def assign_charpoly_traces(group):
    """The charpoly trace 1/det(I - t g) of every element by
    ``assign_class_traces``: 1/(1 - t)^n for the identity and one
    ``reciprocal_charpoly_trace`` per other class representative."""
    identity = RationalFunction.reciprocal(one_minus_power(1) ** group.dim)
    return assign_class_traces(group, (identity, PROVENANCE_CHARPOLY),
                               reciprocal_charpoly_trace, PROVENANCE_CHARPOLY)


def molien(group, assignment):
    """Hilbert series of the invariants: (1/|G|) sum of the trace series.

    Distinct trace values are summed once with multiplicity.  The sum is
    taken over one common denominator, in the form of Molien's theorem
    Stanley gives (Bull. AMS 1, 1979): every eigenvalue of g has order
    dividing the exponent e of G, so det(I - t g) divides (1 - t^e)^n for
    n = dim G, and each trace num/den becomes the polynomial
    p = num (1 - t^e)^n / den.  Since den(0) = 1 that division runs up from
    the constant term with no inverse.  A trace whose denominator does not
    divide the common one (a brute-force trace can have one) widens it to
    their lcm, common * den / gcd(common, den), which may lie over Q(zeta_N),
    and the running sum is multiplied by the same factor.

    While the common denominator lies in Q[t], the sum stays there.  An
    irrational trace f over Q(zeta_N), N the lcm of its coefficients'
    orders, has the distinct conjugates sigma_j(f), j prime to N; when every
    one of them is a trace with f's count k, the orbit O adds
    k |O| / phi(N) Tr(p_f), the trace over Q taken coefficient by
    coefficient, and needs one quotient.  That holds for any assignment, not
    only a class function: the common denominator is rational, so
    p_{sigma_j f} = sigma_j(p_f), each conjugate is hit phi(N) / |O| times
    as j runs, and the sigma_j sum to Tr.  Any other value is summed alone.
    A sum that is still irrational over a rational common denominator
    cannot reduce into Q(t), and raises at once.

    Over the unwidened (1 - t^e)^n = (-1)^n prod_{d | e} Phi_d^n the
    reduction needs no gcd: the sum is divided exactly by each Phi_d, at
    most n times, and since Phi_d is irreducible over Q, the Phi_d left in
    the denominator are prime to what is left of the sum.  A widened sum is
    reduced with its gcd, and that reduced value, not the sum, must land in
    Q.  Either way the series must expand to an integer series.

    The sum is taken once per assignment: it is kept on the assignment
    (``TraceAssignment.molien_series``) and read from there when ``group``
    is the assignment's own group object, as in ``reports.classify_group``.
    For any other group it is summed afresh and not kept.
    """
    if group is assignment.group:
        return assignment.molien_series
    return _molien_sum(group, assignment.traces)


def _is_rational(p):
    return all(type(c) in _RATIONAL for c in p.coeffs)


def _galois_orbit(f):
    """The distinct conjugates sigma_j(f) of a trace over Q(zeta_N), for j
    prime to the lcm N of its coefficients' orders; None when f is
    rational."""
    coeffs = (*f.num.coeffs, *f.den.coeffs)
    orders = {c.order for c in coeffs if isinstance(c, CyclotomicNumber)}
    if not orders:
        return None
    n = lcm(*orders)
    return {f} | {f.map_coefficients(power_galois(coeffs, j, n))
                  for j in range(2, n) if gcd(j, n) == 1}


def _molien_sum(group, traces):
    counts = {}
    for f in traces:
        counts[f] = counts.get(f, 0) + 1
    e, n = group.exponent(), group.dim
    common = one_minus_power(e) ** n
    widened, rational = False, True
    summed = set()
    total = Poly()
    for f, k in counts.items():
        if f in summed:
            continue
        p = series_quotient(f.num * common, f.den)
        if p is None:
            # widen the common denominator to lcm(common, f.den)
            widen = f.den.exact_div(poly_gcd(common, f.den))
            common, total = common * widen, total * widen
            widened, rational = True, _is_rational(common)
            p = series_quotient(f.num * common, f.den)
        orbit = _galois_orbit(f) if rational else None
        if orbit and all(counts.get(g) == k and g not in summed
                         for g in orbit):
            summed |= orbit
            size = k * len(orbit)
            total = total + _poly([_mean_trace(c) * size for c in p.coeffs])
        else:
            summed.add(f)
            total = total + p * k
    if rational and not _is_rational(total):
        raise NonRationalResultError(
            "Molien sum did not cancel to rational coefficients")
    if rational and not widened and total:
        return _integer_series(_over_binomial_power(total, e, n, group.order))
    result = RationalFunction(total, common * group.order).to_rational_function()
    if result is None:
        raise NonRationalResultError(
            "Molien sum did not cancel to rational coefficients")
    return result


def _over_binomial_power(total, e, n, order):
    """total / (order (1 - t^e)^n) in lowest terms, for a nonzero total in
    Q[t], with no gcd: (1 - t^e)^n = (-1)^n prod_{d | e} Phi_d^n, and each
    Phi_d is irreducible, so dividing total by it while it divides, at most
    n times (``cyclotomic._divide_out``), leaves a num prime to the Phi_d
    powers still in den."""
    num, den, at_two = total, Poly((1,)), _at_two(total)
    for d in _divisors(e):
        num, at_two, k = _divide_out(num, d, at_two, n)
        if k < n:
            den = den * cyclotomic_polynomial(d) ** (n - k)
    # den(0) = +-1, as Phi_1(0) = -1 and Phi_d(0) = 1 for d > 1
    sign = den.constant_term
    return RationalFunction._wrap(num * Fraction(sign * (-1) ** n, order),
                                  den * sign)


def hdet(trace, gl_dim, as_index):
    """Homological determinant read off the expansion at t = infinity.

    The leading behaviour of the trace there is (-1)^n h^{-1} t^{-l}; the
    vanishing order must match the stated index l.
    """
    order = trace.den.degree - trace.num.degree
    if order != as_index:
        raise IndexMismatchError(
            f"trace vanishes to order {order} at infinity, not {as_index}")
    h = trace.den.leading * scalar_inverse(trace.num.leading)
    return -h if gl_dim % 2 else h


@dataclass(frozen=True)
class PoleClassification:
    pole_order: int
    verdict: str


def classify_pole(trace, gk_dim):
    """Verdict from the pole order k of the trace at t = 1: k = n means the
    full series, n-1 a quasi-reflection, n-2 a quasi-bireflection."""
    if gk_dim < 2:
        raise ValueError("classification needs GK dimension >= 2")
    k = trace.pole_order_at_one()
    if k == gk_dim:
        verdict = VERDICT_FULL
    elif k == gk_dim - 1:
        verdict = VERDICT_QUASI_REFLECTION
    elif k == gk_dim - 2:
        verdict = VERDICT_QUASI_BIREFLECTION
    else:
        verdict = VERDICT_NEITHER
    return PoleClassification(k, verdict)


def pole_classifications(assignment, gk_dim):
    """``classify_pole`` of every element's trace, in element order, with one
    call per distinct trace value."""
    by_trace = {}
    for f in assignment.traces:
        if f not in by_trace:
            by_trace[f] = classify_pole(f, gk_dim)
    return tuple(by_trace[f] for f in assignment.traces)


def generated_by_quasi_bireflections(group, poles):
    """Do the elements with quasi-(bi)reflection trace shape generate G?

    ``poles`` is ``pole_classifications`` of a trace assignment on the group.
    Returns (verdict, witness_indices); the identity is always a witness.
    """
    witnesses = [0] + [i for i in range(1, group.order)
                       if poles[i].verdict != VERDICT_NEITHER]
    generated = group.subset_closure(set(witnesses))
    return len(generated) == group.order, witnesses


def classical_bireflection_rank(g):
    """rank(g - I) over the field, and whether it is at most 2."""
    rank = g.rank_of_difference_with_identity()
    return rank, rank <= 2


__all__ = [
    "CapExceededError",
    "IndexMismatchError",
    "MatrixGroup",
    "NonRationalResultError",
    "PoleClassification",
    "TooLargeError",
    "TraceAssignment",
    "assign_charpoly_traces",
    "assign_class_traces",
    "classical_bireflection_rank",
    "classify_pole",
    "closure",
    "generated_by_quasi_bireflections",
    "hdet",
    "molien",
    "pole_classifications",
    "reciprocal_charpoly_trace",
    "subgroups",
]
