"""Finite matrix groups over cyclotomic fields: closure, subgroup
enumeration, trace assignments, Molien sums and quasi-bireflection tests.

The trace rule used for symbolic assignments is Tr(g, t) = 1/det(I - t g),
the reciprocal characteristic polynomial.  It is exact for graded
automorphisms acting diagonally on a skew polynomial ring (graded twists
leave traces unchanged, so the commutative eigenvalue count applies) and it
reproduces every trace the Sklyanin-type computations need; it is *not*
valid for arbitrary automorphisms of arbitrary algebras, which is why brute
force assignments exist alongside it (see ``algebras.brute_force_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .cyclofield import CyclotomicMatrix, power_galois
from .exact import (Immutable, Poly, RationalFunction, one_minus_power,
                    poly_gcd, scalar_inverse, series_quotient)


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
    indices, found by closure's own products, for its table.
    """

    __slots__ = ("elements", "generators", "_index", "_table", "_parent",
                 "_perms")

    def __init__(self, elements, generators, _parent=None, _perms=None):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(elements)})
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_parent", _parent)
        object.__setattr__(self, "_perms", _perms)

    @property
    def order(self):
        return len(self.elements)

    @property
    def dim(self):
        return self.elements[0].dim

    def index_of(self, matrix):
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
            perms = [tuple(self._index[m * g] for m in self.elements)
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
        """The lcm of the element orders, read by walking powers in the
        multiplication table."""
        table = self.multiplication_table()
        e = 1
        for a in range(1, self.order):
            row, x, k = table[a], a, 1
            while x:
                x, k = row[x], k + 1
            e = lcm(e, k)
        return e

    def rational_classes(self):
        """(r, k, m) per element index: the element is h x^k h^-1 for some h
        in G, where x = elements[r] has order m and k is prime to m.

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
        table = self.multiplication_table()
        inverse = [row.index(0) for row in table]
        gens = {self._index[g] for g in self.generators} - {0}
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
        return classes

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
    table.  Raises CapExceededError once more than ``cap`` elements appear.
    An empty generator list yields the trivial group (``dim`` then
    required).  ``order`` is unused; bench/workloads.py still passes it.
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
    return MatrixGroup(elements, gens, _perms=[tuple(p) for p in perms])


def subgroups(group, max_order=64):
    """Every subgroup, by saturating cyclic seeds under one-element extensions.

    Any subgroup arises as a chain of one-generator extensions starting from
    a cyclic subgroup, so iterating extensions to a fixed point is complete.
    """
    if group.order > max_order:
        raise TooLargeError(
            f"subgroup enumeration capped at order {max_order}")
    found = {frozenset({0})}
    worklist = []
    for i in range(1, group.order):
        cyc = group.subset_closure({i})
        if cyc not in found:
            found.add(cyc)
            worklist.append(cyc)
    while worklist:
        current = worklist.pop()
        for i in range(1, group.order):
            if i in current:
                continue
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
    trace derived from its rational class representative's, ``conjugate of
    element r`` or ``sigma_k of element r``, r the representative's index.

    The Molien sum of the assignment is kept on it once ``molien`` has
    taken it, so every caller that holds the assignment shares one sum.
    """

    group: MatrixGroup
    traces: tuple
    provenance: tuple

    def __post_init__(self):
        if len(self.traces) != self.group.order:
            raise ValueError("need one trace per group element")

    def __getitem__(self, i):
        return self.traces[i]

    @cached_property
    def molien_series(self):
        return _molien_sum(self.group, self.traces)


def reciprocal_charpoly_trace(g):
    """Tr(g, t) = 1/det(I - t g), a RationalFunction over Q(zeta_N) whose
    coefficients are ints wherever they are rational."""
    return RationalFunction.reciprocal(g.reciprocal_charpoly())


def assign_charpoly_traces(group):
    """The charpoly trace 1/det(I - t g) of every element, with one
    ``reciprocal_charpoly_trace`` per rational class
    (``MatrixGroup.rational_classes``) but the identity's, 1/(1 - t)^n.

    Conjugates share det(I - t g), and h x^k h^-1, x of order m, takes
    sigma_k of x's trace, since x's eigenvalues are m-th roots of unity and
    those of x^k their k-th powers (``cyclofield.power_galois``); so each
    value equals the element's own charpoly trace.
    """
    traces = []
    for i, (r, k, m) in enumerate(group.rational_classes()):
        if i == 0:
            trace = RationalFunction.reciprocal(one_minus_power(1) ** group.dim)
        elif i == r:
            trace = reciprocal_charpoly_trace(group.elements[i])
        else:
            trace = traces[r]
            sigma = power_galois((*trace.num.coeffs, *trace.den.coeffs), k, m)
            if sigma is not None:
                trace = trace.map_coefficients(sigma)
        traces.append(trace)
    return TraceAssignment(group, tuple(traces),
                           (PROVENANCE_CHARPOLY,) * group.order)


def molien(group, assignment):
    """Hilbert series of the invariants: (1/|G|) sum of the trace series.

    Distinct trace values are summed once with multiplicity.  The sum is
    taken over one common denominator, in the form of Molien's theorem
    Stanley gives (Bull. AMS 1, 1979): every eigenvalue of g has order
    dividing the exponent e of G, so det(I - t g) divides (1 - t^e)^n for
    n = dim G, and each trace num/den becomes the polynomial
    num (1 - t^e)^n / den.  Since den(0) = 1 that division runs up from the
    constant term with no inverse.  A trace whose denominator does not
    divide the common one (a brute-force trace can have one) widens it to
    their lcm, common * den / gcd(common, den), which may lie over Q(zeta_N),
    and the running sum is multiplied by the same factor.  The polynomials
    are summed, one reduction of sum / (|G| common) gives the series, and
    that reduced value, not the sum, must land in Q.

    The sum is taken once per assignment: it is kept on the assignment
    (``TraceAssignment.molien_series``) and read from there when ``group``
    is the assignment's own group object, as in ``reports.classify_group``.
    For any other group it is summed afresh and not kept.
    """
    if group is assignment.group:
        return assignment.molien_series
    return _molien_sum(group, assignment.traces)


def _molien_sum(group, traces):
    counts = {}
    for f in traces:
        counts[f] = counts.get(f, 0) + 1
    common = one_minus_power(group.exponent()) ** group.dim
    total = Poly()
    for f, k in counts.items():
        p = series_quotient(f.num * common, f.den)
        if p is None:
            # widen the common denominator to lcm(common, f.den)
            widen = f.den.exact_div(poly_gcd(common, f.den))
            common, total = common * widen, total * widen
            p = series_quotient(f.num * common, f.den)
        total = total + p * k
    result = RationalFunction(total, common * group.order).to_rational_function()
    if result is None:
        raise NonRationalResultError(
            "Molien sum did not cancel to rational coefficients")
    return result


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
