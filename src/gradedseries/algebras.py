"""Truncated graded algebras as explicit per-degree linear algebra.

Every algebra is held as bases per degree plus a multiplication rule on
basis labels; no symbolic normal forms or noncommutative Groebner bases are
needed because each supported presentation multiplies by direct rules:

* free:               words over the generators, concatenation
* monomial_quotient:  words avoiding the relation words as factors
* quantum_affine:     PBW exponent tuples, q-commutation scalar on merge
* normal_quotient:    a quantum affine space modulo a sequence of normal
                      elements, computed degree by degree as the cokernel of
                      left multiplication, with normality and regularity
                      verified up to the cutoff (never as a global claim)

Graded pieces are immutable once built.  Every scalar here follows the one
rule of the exact types: a rational value is an int when integral and a
Fraction otherwise, and a CyclotomicNumber is never rational.  That covers the
defining scalars (q parameters, normal-element coefficients, basis unit
vectors), the entries of a group element and the coefficients of a
brute-force trace, which come out of the arithmetic in that form.

Betti numbers of the trivial module come from iterated graded syzygies,
exact for internal degree <= the cutoff because Tor_{i,j} only depends on
the algebra below degree j.  Every supported algebra is graded by letter
counts, finer than the degree (a quotient by a normal element that is not a
single monomial only by the degree), and the resolution splits into one block
per weight, each eliminated on its own by sparse row reduction
(``exact._rref_add``).  In each block alpha the kernel K is complete, so it is
a left submodule and (m K)_alpha = sum_i x_i K_{alpha - wt(x_i)}: the minimal
generators of K_alpha are the kernel vectors outside that span.  K_alpha is
held in the coordinates of its free columns, where each kernel vector is a
unit vector, so the span is read there and the minimal generators are the
kernel vectors whose free column is no pivot of it.  The span stops as soon
as it has as many rows as K_alpha has vectors (every degree above the row
index, for a Koszul algebra).  Each basis product is computed once per
``betti_numbers`` call and kept only for that call.  A monomial quotient's
basis grows a word by one letter when no relation is a suffix of the result,
and a product a * b is the word a + b when that is a basis word, else zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from .cyclofield import CyclotomicMatrix, CyclotomicNumber
from .exact import (Series, _reduce_vec, _rref_add, _simplify, expand,
                    scalar_inverse)


class NotNormalError(ValueError):
    """Left multiples of the element fail to lie among its right multiples."""


class NotRegularError(ValueError):
    """Multiplication by the element has a kernel below the cutoff."""


class NotAnAutomorphismError(ValueError):
    """The matrix does not preserve the defining relations."""


FREE = "free"
MONOMIAL_QUOTIENT = "monomial_quotient"
QUANTUM_AFFINE = "quantum_affine"
NORMAL_QUOTIENT = "normal_quotient"


def _as_scalar(x):
    if isinstance(x, CyclotomicNumber):
        return x
    return _simplify(Fraction(x))


@dataclass(frozen=True)
class Presentation:
    kind: str
    names: tuple
    degrees: tuple
    q: tuple = None
    relations: tuple = None
    normals: tuple = None

    @property
    def ngens(self):
        return len(self.names)


def _default_names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def _check_q(q):
    n = len(q)
    rows = []
    for i, row in enumerate(q):
        if len(row) != n:
            raise ValueError("q matrix must be square")
        rows.append(tuple(_as_scalar(x) for x in row))
    for i in range(n):
        if rows[i][i] != 1:
            raise ValueError("q matrix diagonal must be 1")
        for j in range(n):
            if not rows[i][j]:
                raise ValueError("q parameters must be nonzero")
            if rows[i][j] * rows[j][i] != 1:
                raise ValueError("q matrix must satisfy q_ji = 1/q_ij")
    return tuple(rows)


def free_algebra(names=2, degrees=None):
    if isinstance(names, int):
        names = _default_names(names)
    names = tuple(names)
    degrees = tuple(degrees) if degrees else (1,) * len(names)
    if any(d < 1 for d in degrees):
        raise ValueError("generator degrees must be positive")
    return Presentation(FREE, names, degrees)


def monomial_quotient(names, relations, degrees=None):
    base = free_algebra(names, degrees)
    rel = []
    for word in relations:
        word = tuple(word)
        if not word:
            raise ValueError("relation words must be nonempty")
        if any(i < 0 or i >= base.ngens for i in word):
            raise ValueError("relation word uses an unknown generator")
        rel.append(word)
    return Presentation(MONOMIAL_QUOTIENT, base.names, base.degrees,
                        relations=tuple(rel))


def quantum_affine(q, names=None, degrees=None):
    q = _check_q(q)
    n = len(q)
    names = tuple(names) if names else _default_names(n)
    if len(names) != n:
        raise ValueError("one name per q row required")
    degrees = tuple(degrees) if degrees else (1,) * n
    if len(degrees) != n or any(d < 1 for d in degrees):
        raise ValueError("bad generator degrees")
    return Presentation(QUANTUM_AFFINE, names, degrees, q=q)


def skew_symmetric_q(n, value=-1):
    """All off-diagonal parameters equal: the (-1)-skew case of the examples."""
    value = _as_scalar(value)
    inverse = scalar_inverse(value)
    return tuple(tuple(1 if i == j else (value if i < j else inverse)
                       for j in range(n))
                 for i in range(n))


def normal_quotient(q, normals, names=None, degrees=None):
    base = quantum_affine(q, names, degrees)
    packed = []
    for element in normals:
        items = tuple(sorted((tuple(exp), _as_scalar(c))
                             for exp, c in dict(element).items() if c))
        if not items:
            raise ValueError("normal elements must be nonzero")
        weights = {sum(e * d for e, d in zip(exp, base.degrees))
                   for exp, _ in items}
        if len(weights) != 1:
            raise ValueError("normal elements must be homogeneous")
        degree = weights.pop()
        if degree < 1:
            raise ValueError("normal elements must have positive degree")
        if any(len(exp) != base.ngens for exp, _ in items):
            raise ValueError("exponent tuples must cover every generator")
        packed.append((degree, items))
    return Presentation(NORMAL_QUOTIENT, base.names, base.degrees, q=base.q,
                        normals=tuple(packed))


def _exponents_by_degree(degrees, cutoff):
    partial = {0: [()]}
    for gdeg in degrees:
        merged = {}
        for weight, tuples in partial.items():
            for e in range((cutoff - weight) // gdeg + 1):
                merged.setdefault(weight + e * gdeg, []).extend(
                    tup + (e,) for tup in tuples)
        partial = merged
    return [sorted(partial.get(d, [])) for d in range(cutoff + 1)]


def _q_merge(q, left, right):
    """Scalar and exponent of the PBW normal form of x^left * x^right."""
    scalar = _ONE
    n = len(left)
    for i in range(n):
        ri = right[i]
        if not ri:
            continue
        for j in range(i + 1, n):
            lj = left[j]
            if lj:
                scalar = scalar * q[i][j] ** (lj * ri)
    return scalar, tuple(a + b for a, b in zip(left, right))


_ONE = 1


class Truncation:
    """Per-degree bases and multiplication of a graded algebra up to a cutoff."""

    __slots__ = ("presentation", "cutoff", "bases", "ambient", "projections",
                 "words")

    def __init__(self, presentation, cutoff, bases, ambient=None, projections=None):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "bases", tuple(tuple(b) for b in bases))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "projections", projections)
        # a monomial quotient's basis words, for membership tests of products
        object.__setattr__(self, "words", frozenset().union(*self.bases)
                           if presentation.kind == MONOMIAL_QUOTIENT else None)

    def __setattr__(self, name, value):
        raise AttributeError("Truncation is immutable")

    def dims(self):
        return [len(b) for b in self.bases]

    def hilbert_coefficients(self):
        return Series(self.dims())

    def project(self, degree, vec):
        if self.projections is None:
            return dict(vec)
        table = self.projections[degree]
        out = {}
        for lab, c in vec.items():
            for lab2, c2 in table[lab].items():
                out[lab2] = out.get(lab2, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def mul_basis(self, d1, a, d2, b):
        pres = self.presentation
        kind = pres.kind
        if kind == QUANTUM_AFFINE:
            scalar, label = _q_merge(pres.q, a, b)
            return {label: scalar}
        if kind == FREE:
            return {a + b: _ONE}
        if kind == MONOMIAL_QUOTIENT:
            word = a + b
            return {word: _ONE} if word in self.words else {}
        # normal quotient: multiply upstairs, then reduce
        raw = self.ambient.mul_basis(d1, a, d2, b)
        return self.project(d1 + d2, raw)

    def mul(self, d1, v1, d2, v2):
        if d1 + d2 > self.cutoff:
            raise ValueError("product degree exceeds the cutoff")
        out = {}
        for la, ca in v1.items():
            if not ca:
                continue
            for lb, cb in v2.items():
                c = ca * cb
                if not c:
                    continue
                for lc, s in self.mul_basis(d1, la, d2, lb).items():
                    acc = out.get(lc, 0) + c * s
                    out[lc] = acc
        return {k: v for k, v in out.items() if v}

    def generator_label(self, i):
        pres = self.presentation
        if pres.kind in (FREE, MONOMIAL_QUOTIENT):
            return (i,)
        return tuple(1 if k == i else 0 for k in range(pres.ngens))

    def generator_vector(self, i):
        """(degree, sparse vector) of the i-th generator's image."""
        deg = self.presentation.degrees[i]
        label = self.generator_label(i)
        if (self.presentation.kind == MONOMIAL_QUOTIENT and deg <= self.cutoff
                and label not in self.words):
            return deg, {}  # a one-letter relation kills the generator
        return deg, self.project(deg, {label: _ONE})

    def label_word(self, label):
        if self.presentation.kind in (FREE, MONOMIAL_QUOTIENT):
            return label
        word = []
        for i, e in enumerate(label):
            word.extend([i] * e)
        return tuple(word)


def build_truncation(presentation, cutoff):
    """Complete multiplication data of the presented algebra up to the cutoff."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    kind = presentation.kind
    if kind in (FREE, MONOMIAL_QUOTIENT):
        # a basis word plus one letter avoids every relation unless one is
        # its suffix
        relations = set(presentation.relations or ())
        lengths = {len(rel) for rel in relations}
        words = [[()]]
        for d in range(1, cutoff + 1):
            layer = [w for i, gdeg in enumerate(presentation.degrees)
                     if gdeg <= d for w in (v + (i,) for v in words[d - gdeg])
                     if not any(w[-k:] in relations for k in lengths)]
            layer.sort()
            words.append(layer)
        return Truncation(presentation, cutoff, words)
    if kind == QUANTUM_AFFINE:
        return Truncation(presentation, cutoff,
                          _exponents_by_degree(presentation.degrees, cutoff))
    if kind == NORMAL_QUOTIENT:
        return _build_normal_quotient(presentation, cutoff)
    raise ValueError(f"unknown presentation kind {kind!r}")


def _build_normal_quotient(presentation, cutoff):
    ambient = build_truncation(
        quantum_affine(presentation.q, presentation.names, presentation.degrees),
        cutoff)
    bases = [list(layer) for layer in ambient.bases]
    projections = [{lab: {lab: _ONE} for lab in layer} for layer in bases]
    current = Truncation(presentation, cutoff, bases, ambient, projections)

    for stage, (omega_degree, items) in enumerate(presentation.normals or ()):
        if omega_degree > cutoff:
            continue
        omega = current.project(omega_degree, dict(items))
        if not omega:
            raise NotRegularError(
                f"normal element {stage} vanishes modulo the earlier ones; "
                f"regularity violated at degree {omega_degree}")
        gens_at = {}
        for i, gdeg in enumerate(presentation.degrees):
            gens_at.setdefault(omega_degree + gdeg, []).append(i)
        stage_rows = {}
        for d in range(omega_degree, cutoff + 1):
            source = bases[d - omega_degree]
            rows = {}
            independent = 0
            for lab in source:
                image = current.mul(omega_degree, omega,
                                    d - omega_degree, {lab: _ONE})
                if _rref_add(rows, image) is not None:
                    independent += 1
            stage_rows[d] = rows
            # two-sidedness first: x_i * omega must be a right multiple of omega
            for i in gens_at.get(d, ()):
                _, x_vec = current.generator_vector(i)
                moved = current.mul(presentation.degrees[i], x_vec,
                                    omega_degree, omega)
                if _reduce_vec(rows, moved):
                    raise NotNormalError(
                        f"{presentation.names[i]} * element {stage} is not a "
                        f"right multiple of it (degree {d}); two-sidedness fails")
            if independent < len(source):
                raise NotRegularError(f"regularity violated at degree {d}")
        # shrink bases and compose the reduction into the projections
        for d in range(omega_degree, cutoff + 1):
            rows = stage_rows[d]
            delta = {lab: _reduce_vec(rows, {lab: _ONE}) for lab in bases[d]}
            table = projections[d]
            for amb_lab, vec in table.items():
                merged = {}
                for lab, c in vec.items():
                    for lab2, c2 in delta[lab].items():
                        merged[lab2] = merged.get(lab2, 0) + c * c2
                table[amb_lab] = {k2: v for k2, v in merged.items() if v}
            bases[d] = [lab for lab in bases[d] if lab not in rows]
        current = Truncation(presentation, cutoff, bases, ambient, projections)
    return current


def _check_quantum_relations(g, q):
    # image of x_j x_i - q_ij x_i x_j lies in the relation span iff it has no
    # square terms and its (a,b) coefficient is -q_ab times its (b,a) one
    n = len(q)
    for i in range(n):
        for j in range(i + 1, n):
            img = {}
            for a in range(n):
                for b in range(n):
                    c = g.rows[a][j] * g.rows[b][i] - q[i][j] * (
                        g.rows[a][i] * g.rows[b][j])
                    if c:
                        img[(a, b)] = c
            for a in range(n):
                if img.get((a, a), 0):
                    raise NotAnAutomorphismError(
                        "image of a commutation relation has a square term")
                for b in range(a + 1, n):
                    upper = img.get((a, b), 0)
                    lower = img.get((b, a), 0)
                    if upper != -q[a][b] * lower:
                        raise NotAnAutomorphismError(
                            "commutation relations are not preserved")


def _apply_to_word(trunc, gen_vectors, word):
    """Multiplicative image of a basis word under generator images."""
    vec = gen_vectors[word[0]]
    degree = 1
    for letter in word[1:]:
        if not vec:
            break
        vec = trunc.mul(degree, vec, 1, gen_vectors[letter])
        degree += 1
    return vec


def check_automorphism(g, trunc):
    """Verify g preserves the relations; raises NotAnAutomorphismError."""
    pres = trunc.presentation
    n = pres.ngens
    if g.dim != n:
        raise ValueError("matrix dimension must match the generator count")
    if any(d != 1 for d in pres.degrees):
        raise ValueError("a degree-1 matrix action needs degree-1 generators")
    if pres.kind == FREE:
        return
    if pres.kind in (QUANTUM_AFFINE, NORMAL_QUOTIENT):
        _check_quantum_relations(g, pres.q)
    if pres.kind == MONOMIAL_QUOTIENT:
        free_trunc = build_truncation(
            free_algebra(pres.names, pres.degrees),
            max(len(rel) for rel in pres.relations))
        gen_vectors = [
            {(j,): g.rows[j][i] for j in range(n) if g.rows[j][i]}
            for i in range(n)]
        rel_sets = {}
        for rel in pres.relations:
            rel_sets.setdefault(len(rel), set()).add(rel)
        for rel in pres.relations:
            image = _apply_to_word(free_trunc, gen_vectors, rel)
            if any(lab not in rel_sets[len(rel)] for lab in image):
                raise NotAnAutomorphismError(
                    "relation words are not mapped into the relation span")
    if pres.kind == NORMAL_QUOTIENT:
        ambient = trunc.ambient
        gen_vectors = [
            {ambient.generator_label(j): g.rows[j][i]
             for j in range(n) if g.rows[j][i]}
            for i in range(n)]
        for degree, items in pres.normals or ():
            if degree > trunc.cutoff:
                continue
            total = {}
            for exp, c in items:
                word = ambient.label_word(exp)
                image = _apply_to_word(ambient, gen_vectors, word)
                for lab, x in image.items():
                    total[lab] = total.get(lab, 0) + c * x
            total = {k: v for k, v in total.items() if v}
            if trunc.project(degree, total):
                raise NotAnAutomorphismError(
                    "the normal elements are not preserved up to the ideal")


def brute_force_trace(g, trunc, order=None):
    """Trace series of the multiplicative extension of g, degree by degree.

    g acts on the degree-1 generators; the precondition that it preserve the
    relations is checked first, on every call.  The image of a word is the
    image of its prefix times one generator image, so degree d's images are
    products of degree d - 1's with the generator images, in the order
    ``_apply_to_word`` multiplies.  The images are keyed by word, since a
    prefix of a basis word need not be a basis label (a normal quotient's
    basis is not prefix-closed): the words kept are the prefix closure of the
    basis words up to ``order``, and only one degree's images are held at a
    time.  Coefficients follow the scalar rule: ints and Fractions when
    rational, CyclotomicNumbers otherwise.
    """
    pres = trunc.presentation
    if any(d != 1 for d in pres.degrees):
        raise ValueError("the multiplicative extension needs degree-1 generators")
    if not isinstance(g, CyclotomicMatrix):
        g = CyclotomicMatrix(g)
    if order is None:
        order = trunc.cutoff
    if order > trunc.cutoff:
        raise ValueError("trace order exceeds the truncation cutoff")
    check_automorphism(g, trunc)
    n = pres.ngens
    gen_vectors = []
    generators = [trunc.generator_vector(j)[1] for j in range(n)]
    for i in range(n):
        vec = {}
        for j in range(n):
            c = g.rows[j][i]
            if not c:
                continue
            for lab, s in generators[j].items():
                vec[lab] = vec.get(lab, 0) + c * s
        gen_vectors.append({k: v for k, v in vec.items() if v})
    # words[d]: the basis words of degree d and the prefixes of longer ones
    words = [None] * (order + 1)
    prefixes = set()
    for d in range(order, 0, -1):
        words[d] = prefixes.union(trunc.label_word(lab) for lab in trunc.bases[d])
        prefixes = {w[:-1] for w in words[d]}
    coefficients = [1]
    for d in range(1, order + 1):
        if d == 1:
            images = {w: gen_vectors[w[0]] for w in words[1]}
        else:
            previous, images = images, {}
            for w in words[d]:
                head = previous[w[:-1]]
                images[w] = head and trunc.mul(d - 1, head, 1,
                                               gen_vectors[w[-1]])
        total = 0
        for lab in trunc.bases[d]:
            vec = images[trunc.label_word(lab)]
            if vec:
                total = total + vec.get(lab, 0)
        coefficients.append(total)
    return Series(coefficients)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero bigraded Betti numbers b(i, j), exact for j <= cutoff."""

    entries: dict
    cutoff: int

    def b(self, i, j):
        return self.entries.get((i, j), 0)

    def row_sum(self, i):
        return sum(c for (i2, _), c in self.entries.items() if i2 == i)

    def max_index(self):
        return max((i for i, _ in self.entries), default=0)


def _nullspace(columns):
    """Kernel basis of the matrix with these sparse columns (dicts of row key
    -> entry), read off the RREF: a dict from each free column to its kernel
    vector.  The vector of free column c is 1 at c and 0 at every other free
    column, so a kernel vector is fixed by its entries at the free columns."""
    by_row = {}
    for c, column in enumerate(columns):
        for r, x in column.items():
            by_row.setdefault(r, {})[c] = x
    reduced = {}
    for row in by_row.values():
        _rref_add(reduced, row)
    basis = {c: {c: _ONE} for c in range(len(columns)) if c not in reduced}
    for p, row in reduced.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return basis


def betti_numbers(trunc, cutoff=None):
    """Bigraded Betti numbers of the trivial module over the truncation.

    Resolves the trivial module by iterated graded syzygies: row i holds the
    degrees of the minimal generators of the i-th kernel K, the vectors of
    K_alpha outside (m K)_alpha = sum_k x_k K_{alpha - wt(x_k)}.  The
    weight alpha is finer than the degree, and each weight block is
    eliminated on its own:

    * a label's weight is its letter counts, read as the digits of one int
      in base cutoff + 1, and a generator's weight is its label's.  A
      normal quotient by an element that is not a single monomial is
      graded by the degree alone, so its blocks are the degrees.  A block
      keeps its degree beside its weight: alpha - wt(x_k) can borrow across
      digits and land on a block of another degree;
    * each block of K is held in its own coordinates.  ``_nullspace`` gives
      one kernel vector per free column, 1 there and 0 at the other free
      columns, so a vector of K_alpha is fixed by its entries at those
      keys.  The span of (m K)_alpha and the next differential are read
      there only, and the minimal generators are the kernel vectors whose
      free key is no pivot of the span;
    * the span of (m K)_alpha stops growing once it has dim K_alpha rows:
      it is then all of K_alpha, and alpha has no minimal generator;
    * each basis product a * b is computed once per call, in a dict keyed
      by (a, b) (a label fixes its degree), and left multiplication reads
      it entry by entry.  The products live only as long as the call.
    """
    if cutoff is None:
        cutoff = trunc.cutoff
    if cutoff > trunc.cutoff:
        raise ValueError("cutoff exceeds the truncation")
    pres = trunc.presentation
    if any(len(items) > 1 for _, items in pres.normals or ()):
        digits = pres.degrees
    else:
        digits = [(cutoff + 1) ** i for i in range(pres.ngens)]
    blocks = {}  # weight -> (degree, basis labels of that weight)
    for j in range(cutoff + 1):
        for lab in trunc.bases[j]:
            weight = sum(digits[i] for i in trunc.label_word(lab))
            blocks.setdefault(weight, (j, []))[1].append(lab)
    generators = []
    for i, d in enumerate(pres.degrees):
        if d < cutoff:
            _, x = trunc.generator_vector(i)
            if x:  # a killed generator acts as zero
                generators.append((digits[i], d, x))
    products = {}

    def left_mul(e, a_vec, vec, vec_degree, keep):
        # a_vec (degree e) times vec, a vector of the free module on gens,
        # read at the keys in keep
        out = {}
        for (s, lab), c in vec.items():
            d = vec_degree - gens[s]
            for la, ca in a_vec.items():
                prod = products.get((la, lab))
                if prod is None:
                    prod = products[la, lab] = trunc.mul_basis(e, la, d, lab)
                c2 = ca * c
                for lab2, c3 in prod.items():
                    key = (s, lab2)
                    if key in keep:
                        out[key] = out.get(key, 0) + c2 * c3
        return out

    entries = {(0, 0): 1}
    gens = [0]
    # weight -> (degree, {free key: kernel vector}); first the ideal A_+
    kernel = {w: (j, {(0, lab): {(0, lab): _ONE} for lab in labels})
              for w, (j, labels) in blocks.items() if j}
    for index in range(1, cutoff + 1):
        mingens = []
        for alpha, (j, basis) in kernel.items():
            # K is the whole kernel below the cutoff, so (m K)_alpha is the
            # span of x_k K_{alpha - wt(x_k)}.  It lies in K_alpha, so once
            # it has len(basis) rows it is K_alpha: no minimal generators
            rows = {}
            for w, d, x in generators:
                below = kernel.get(alpha - w)
                if below is None or below[0] != j - d:
                    continue
                for v in below[1].values():
                    _rref_add(rows, left_mul(d, x, v, j - d, basis))
                    if len(rows) == len(basis):
                        break
                if len(rows) == len(basis):
                    break
            mingens.extend((alpha, j, v) for key, v in basis.items()
                           if key not in rows)
        if not mingens:
            break
        for _, j, _ in mingens:
            entries[index, j] = entries.get((index, j), 0) + 1
        # the next kernel, block by block: the pairs (s, a) with
        # wt(g_s) + wt(a) = alpha, mapped to a * g_s in K_alpha's coordinates.
        # The map is onto K_alpha, so its rows there are independent; and a
        # sum of weights of degree <= cutoff carries no digit, so alpha needs
        # no degree check
        domains = {}
        for s, (ws, ds, _) in enumerate(mingens):
            for w, (jb, labels) in blocks.items():
                if ds + jb <= cutoff:
                    domains.setdefault(ws + w, (ds + jb, []))[1].extend(
                        (s, lab) for lab in labels)
        new_kernel = {}
        for alpha, (j, domain) in domains.items():
            keep = kernel[alpha][1] if alpha in kernel else {}
            null = _nullspace([
                left_mul(j - mingens[s][1], {lab: _ONE}, mingens[s][2],
                         mingens[s][1], keep)
                for s, lab in domain])
            if null:
                new_kernel[alpha] = (j, {
                    domain[c]: {domain[k]: x for k, x in vec.items()}
                    for c, vec in null.items()})
        gens = [d for _, d, _ in mingens]
        kernel = new_kernel
    return BettiTable(entries, cutoff)


def euler_check(table, hilbert_series, order):
    """Residual of (sum (-1)^i b(i,j) t^j) * H(t) - 1 up to the given order.

    hilbert_series may be a RationalFunction or an already-expanded Series.
    """
    signed = [0] * (order + 1)
    for (i, j), c in table.entries.items():
        if j <= order:
            signed[j] += c if i % 2 == 0 else -c
    h = hilbert_series if isinstance(hilbert_series, Series) \
        else expand(hilbert_series, order)
    if h.order < order:
        raise ValueError("series truncation shorter than the check order")
    residual = list(Series(signed) * h)
    residual[0] -= 1
    return Series(residual)


@dataclass(frozen=True)
class TorVerdict:
    n: int
    bound_holds: bool          # a_n <= b_n + b_{n-1}
    gap_holds: bool | None     # |b_{n+2} - b_n| <= a_{n+2} + a_n


def tor_inequalities(table_a, table_b, omega_degree):
    """The two Tor bounds linking an algebra and its quotient by one regular
    normal element, checked row by row on computed data."""
    if omega_degree < 1:
        raise ValueError("the quotient must be by an element of positive degree")
    n_max = min(table_a.cutoff, table_b.cutoff)
    a_rows = [table_a.row_sum(i) for i in range(n_max + 1)]
    b_rows = [table_b.row_sum(i) for i in range(n_max + 1)]
    verdicts = []
    for n in range(n_max + 1):
        bound = a_rows[n] <= b_rows[n] + (b_rows[n - 1] if n else 0)
        gap = None
        if n + 2 <= n_max:
            gap = abs(b_rows[n + 2] - b_rows[n]) <= a_rows[n + 2] + a_rows[n]
        verdicts.append(TorVerdict(n, bound, gap))
    return verdicts


@dataclass(frozen=True)
class GrowthHint:
    kind: str                  # "zero" | "estimate" | "divergent"
    value: float | None
    window: tuple | None


def _least_squares_slope(points):
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    cov = sum((x - mx) * (y - my) for x, y in points)
    var = sum((x - mx) ** 2 for x, _ in points)
    return cov / var


def growth_estimate(table):
    """Log-log slope of the cumulative Betti row sums: a growth-exponent hint,
    never a verdict.  Zero when the resolution stops inside the window."""
    cutoff = table.cutoff
    if cutoff < 6:
        raise ValueError("growth estimation needs cutoff >= 6")
    rows = [table.row_sum(i) for i in range(cutoff + 1)]
    if rows[-1] == 0:
        return GrowthHint("zero", 0.0, None)
    totals = []
    acc = 0
    for r in rows:
        acc += r
        totals.append(acc)
    lo = max(2, cutoff // 2)
    points = [(log(n), log(totals[n])) for n in range(lo, cutoff + 1)]
    slope = _least_squares_slope(points)
    half = len(points) // 2
    tail = points[half:]
    tail_slope = _least_squares_slope(tail) if len(tail) >= 2 else slope
    if tail_slope > slope + 0.75:
        return GrowthHint("divergent", None, (lo, cutoff))
    return GrowthHint("estimate", slope, (lo, cutoff))


__all__ = [
    "BettiTable",
    "FREE",
    "GrowthHint",
    "MONOMIAL_QUOTIENT",
    "NORMAL_QUOTIENT",
    "NotAnAutomorphismError",
    "NotNormalError",
    "NotRegularError",
    "Presentation",
    "QUANTUM_AFFINE",
    "TorVerdict",
    "Truncation",
    "betti_numbers",
    "brute_force_trace",
    "build_truncation",
    "check_automorphism",
    "euler_check",
    "free_algebra",
    "growth_estimate",
    "monomial_quotient",
    "normal_quotient",
    "quantum_affine",
    "skew_symmetric_q",
    "tor_inequalities",
]
