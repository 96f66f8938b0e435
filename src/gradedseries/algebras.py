"""Truncated graded algebras as explicit per-degree linear algebra.

Every algebra is held as bases per degree plus a multiplication rule on
basis labels; no symbolic normal forms or noncommutative Groebner bases are
needed because each supported presentation multiplies by a direct rule.
Every basis label is a word, a tuple of generator indices:

* free:               every word; a product is the concatenation
* monomial_quotient:  the words avoiding the relation words as factors; a
                      product is the concatenation if that is one, else zero
* quantum_affine:     the nondecreasing words, i.e. the PBW monomials; a
                      product is the sorted concatenation times a q-scalar
* normal_quotient:    a quantum affine space modulo a sequence of normal
                      elements: per degree, one reduced echelon form of the
                      ideal they generate, over the nondecreasing words; the
                      basis is the words that are no pivot, a product is
                      reduced against it, and normality and regularity are
                      verified up to the cutoff (never as a global claim)

One builder grows every basis a letter at a time, keeping a word when no
relation word is a suffix of it.  A quantum affine space adds the descents
x_j x_i (j > i), the leading words of its commutation relations, and the
words avoiding them are the nondecreasing ones (Bergman's diamond lemma).
The product is read off the presentation's fields, with no dispatch on a
kind: q-merge if there are q parameters, else concatenate; then reduce
modulo the ideal, if any.

Graded pieces are immutable once built.  Every scalar here follows the one
rule of the exact types: a rational value is an int when integral and a
Fraction otherwise, and a CyclotomicNumber is never rational.  That covers the
defining scalars (q parameters, normal-element coefficients, basis unit
vectors), the entries of a group element and the coefficients of a
brute-force trace, which come out of the arithmetic in that form.

Betti numbers of the trivial module come from iterated graded syzygies,
exact for internal degree <= the cutoff because Tor_{i,j} only depends on
the algebra below degree j.  The truncation grades itself: by letter counts,
finer than the degree, unless its ideal is not spanned by words (as for a
normal element that is no monomial), then by the degree alone.  The
resolution splits into one block per weight, each eliminated on its own by
sparse row reduction (``exact._rref_add``), in one pass per homological
degree over the blocks in increasing degree.  The differential d_i maps
F_{i,alpha} onto the kernel K_{i-1,alpha} one step down, so dim K_{i,alpha}
= dim F_{i,alpha} - dim K_{i-1,alpha} is known before any elimination, and
a block of dimension 0 costs nothing.  K_i is complete below the cutoff, so
it is a left submodule and (m K_i)_alpha = sum_k x_k K_{i,alpha - wt(x_k)}
lies in it: that span, held as a reduced echelon form, fills K_{i,alpha}
from below (every degree above the row index, for a Koszul algebra).  Only
where it falls short is the nullspace of d_i taken, its images read at the
pivot keys of K_{i-1,alpha}'s echelon form, and the nullspace vectors that
enlarge the span are the minimal generators.  Each basis product is
computed once per ``betti_numbers`` call and kept only for that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from .cyclofield import CyclotomicMatrix, CyclotomicNumber, power_galois
from .exact import (Immutable, Series, _reduce_vec, _rref_add, _simplify,
                    expand, scalar_inverse)


class NotNormalError(ValueError):
    """Left multiples of the element fail to lie among its right multiples."""


class NotRegularError(ValueError):
    """Multiplication by the element has a kernel below the cutoff."""


class NotAnAutomorphismError(ValueError):
    """The matrix does not preserve the defining relations."""


def _as_scalar(x):
    if isinstance(x, CyclotomicNumber):
        return x
    return _simplify(Fraction(x))


@dataclass(frozen=True)
class Presentation:
    """Generators, their degrees and the defining relations: relation words,
    q-commutation parameters, and normal elements, each held as its degree
    and its sorted (word, coefficient) pairs."""

    names: tuple
    degrees: tuple
    q: tuple = None
    relations: tuple = None
    normals: tuple = None

    @property
    def ngens(self):
        return len(self.names)


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


def free_algebra(names=None, degrees=None):
    """The free algebra on ``names``: distinct names, or their count, or
    None for one name per degree (two without degrees).  This is where every
    presentation's names and degrees are checked."""
    if names is None:
        names = len(degrees) if degrees else 2
    if isinstance(names, int):
        names = [f"x{i + 1}" for i in range(names)]
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("generator names must be distinct")
    degrees = tuple(degrees) if degrees else (1,) * len(names)
    if len(degrees) != len(names):
        raise ValueError("one degree per generator required")
    if any(d < 1 for d in degrees):
        raise ValueError("generator degrees must be positive")
    return Presentation(names, degrees)


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
    return Presentation(base.names, base.degrees, relations=tuple(rel))


def quantum_affine(q, names=None, degrees=None):
    q = _check_q(q)
    base = free_algebra(names or len(q), degrees)
    if base.ngens != len(q):
        raise ValueError("one name per q row required")
    return Presentation(base.names, base.degrees, q=q)


def skew_symmetric_q(n, value=-1):
    """All off-diagonal parameters equal: the (-1)-skew case of the examples."""
    value = _as_scalar(value)
    inverse = scalar_inverse(value)
    return tuple(tuple(1 if i == j else (value if i < j else inverse)
                       for j in range(n))
                 for i in range(n))


def normal_quotient(q, normals, names=None, degrees=None):
    """A quantum affine space modulo normal elements, each a dict from
    exponent tuples to coefficients.  Each monomial is kept as its
    nondecreasing word."""
    base = quantum_affine(q, names, degrees)
    packed = []
    for element in normals:
        items = {}
        for exp, c in dict(element).items():
            exp = tuple(exp)
            if len(exp) != base.ngens:
                raise ValueError("exponent tuples must cover every generator")
            if any(e < 0 for e in exp):
                raise ValueError("exponents must be nonnegative")
            if c:
                word = tuple(i for i, e in enumerate(exp) for _ in range(e))
                items[word] = _as_scalar(c)
        if not items:
            raise ValueError("normal elements must be nonzero")
        weights = {sum(base.degrees[i] for i in word) for word in items}
        if len(weights) != 1:
            raise ValueError("normal elements must be homogeneous")
        degree = weights.pop()
        if degree < 1:
            raise ValueError("normal elements must have positive degree")
        packed.append((degree, tuple(sorted(items.items()))))
    return Presentation(base.names, base.degrees, q=base.q,
                        normals=tuple(packed))


def _q_merge(q, left, right):
    """Scalar and label of the PBW normal form of the product of two
    nondecreasing words: each letter y of right passes each x > y of left
    at the factor q[y][x]."""
    scalar = _ONE
    for y in right:
        row = q[y]
        for x in reversed(left):
            if x <= y:
                break
            scalar = scalar * row[x]
    return scalar, tuple(sorted(left + right))


_ONE = 1


class Truncation(Immutable):
    """Per-degree bases and multiplication of a graded algebra up to a cutoff.

    Basis labels are words.  ``words``, the set of basis words, is kept only
    when there are relation words, to test products by membership.  A normal
    quotient's ``ideal`` holds, per degree d, the reduced row echelon form of
    I_d = sum_k omega_k A_{d - |omega_k|} over the nondecreasing words; its
    basis words are the words that are no pivot, and a product is reduced
    against it.  The truncation also grades itself for ``betti_numbers``."""

    __slots__ = ("presentation", "cutoff", "bases", "ideal", "words")

    def __init__(self, presentation, cutoff, bases, ideal=None):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "bases", tuple(tuple(b) for b in bases))
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "words", frozenset().union(*self.bases)
                           if presentation.relations else None)

    def dims(self):
        return [len(b) for b in self.bases]

    def hilbert_coefficients(self):
        return Series(self.dims())

    def project(self, degree, vec):
        if self.ideal is None:
            return dict(vec)
        return _reduce_vec(self.ideal[degree], vec)

    def mul_basis(self, d1, a, d2, b):
        q = self.presentation.q
        if q is None:
            word = a + b
            return {} if self.words and word not in self.words else {word: _ONE}
        scalar, word = _q_merge(q, a, b)
        return self.project(d1 + d2, {word: scalar})

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
                    out[lc] = out.get(lc, 0) + c * s
        return {k: v for k, v in out.items() if v}

    def generator_vector(self, i):
        """(degree, sparse vector) of the i-th generator's image."""
        deg = self.presentation.degrees[i]
        if deg > self.cutoff or (self.words and (i,) not in self.words):
            return deg, {}  # above the cutoff, or killed by a relation
        return deg, self.project(deg, {(i,): _ONE})

    def grading(self):
        """(digits, generators) for ``betti_numbers``.  A label's weight is the
        sum of its letters' digits: powers of cutoff + 1, so that it reads the
        letter counts, or the generator degrees when a row of the ideal has
        two words and so letter counts do not grade it (a nondecreasing word
        is fixed by its letter counts).  The generators are the (weight,
        degree, vector) triples of the nonzero ones."""
        ngens = self.presentation.ngens
        if any(len(row) > 1
               for rows in self.ideal or () for row in rows.values()):
            digits = self.presentation.degrees
        else:
            digits = [(self.cutoff + 1) ** i for i in range(ngens)]
        vectors = map(self.generator_vector, range(ngens))
        return digits, [(w, d, x) for w, (d, x) in zip(digits, vectors) if x]


def build_truncation(presentation, cutoff):
    """Complete multiplication data of the presented algebra up to the cutoff.

    A basis word plus one letter avoids every relation word, the descents
    (j, i), j > i, among them when there are q parameters, unless one is its
    suffix.  Whether a letter may follow a word depends only on the word's
    last m letters, m one less than the longest relation, so the letters
    that may follow are worked out once per such suffix and only the kept
    words are built.  The normal elements then cut the basis down degree by
    degree."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    relations = set(presentation.relations or ())
    if presentation.q is not None:
        relations.update((j, i) for j in range(presentation.ngens)
                         for i in range(j))
    banned = {}  # a relation word's first letters -> the last letters it bans
    for rel in relations:
        banned.setdefault(rel[:-1], set()).add(rel[-1])
    m = max(map(len, relations), default=1) - 1
    by_degree = {}  # generator degree -> its letters, ascending
    for i, gdeg in enumerate(presentation.degrees):
        by_degree.setdefault(gdeg, []).append(i)
    # generator degree -> {suffix: the letters of that degree allowed after it}
    follow = {gdeg: {} for gdeg in by_degree}
    words = [[()]]
    for d in range(1, cutoff + 1):
        layer = []
        for gdeg, letters in by_degree.items():
            if gdeg > d:
                continue
            table = follow[gdeg]
            for v in words[d - gdeg]:
                suffix = v[-m:] if m else ()
                allowed = table.get(suffix)
                if allowed is None:
                    ban = set().union(*(banned.get(suffix[k:], ())
                                        for k in range(len(suffix) + 1)))
                    allowed = table[suffix] = [i for i in letters
                                               if i not in ban]
                for i in allowed:
                    layer.append(v + (i,))
        layer.sort()
        words.append(layer)
    if presentation.normals:
        return _build_normal_quotient(presentation, cutoff, words)
    return Truncation(presentation, cutoff, words)


def _build_normal_quotient(presentation, cutoff, words):
    """Stage k adds the rows omega_k w, w a basis word of the quotient by the
    earlier elements, to the echelon form of each degree.  omega_k must not
    vanish modulo those, each x_i omega_k must reduce to zero once the rows
    are added (normality), and the rows must be independent (regularity).
    The pivots and reductions are those of the ideal's unique RREF, whatever
    the stages."""
    ideal = [{} for _ in words]
    current = Truncation(presentation, cutoff, words, ideal)  # ideal grows
    bases = words
    for stage, (omega_degree, items) in enumerate(presentation.normals):
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
        for d in range(omega_degree, cutoff + 1):
            # bases still holds the quotient by the earlier elements
            source = bases[d - omega_degree]
            independent = 0
            for lab in source:
                image = current.mul(omega_degree, omega,
                                    d - omega_degree, {lab: _ONE})
                if _rref_add(ideal[d], image) is not None:
                    independent += 1
            # two-sidedness first: x_i * omega must be a right multiple of omega
            for i in gens_at.get(d, ()):
                _, x_vec = current.generator_vector(i)
                if current.mul(presentation.degrees[i], x_vec,
                               omega_degree, omega):
                    raise NotNormalError(
                        f"{presentation.names[i]} * element {stage} is not a "
                        f"right multiple of it (degree {d}); two-sidedness fails")
            if independent < len(source):
                raise NotRegularError(f"regularity violated at degree {d}")
        bases = [[lab for lab in layer if lab not in rows]
                 for layer, rows in zip(words, ideal)]
    return Truncation(presentation, cutoff, bases, ideal)


def _generator_images(g, trunc):
    """Sparse vectors of the images g(x_i) = sum_j g[j][i] x_j in the
    truncation, one per generator."""
    n = trunc.presentation.ngens
    generators = [trunc.generator_vector(j)[1] for j in range(n)]
    images = []
    for i in range(n):
        vec = {}
        for j in range(n):
            c = g.rows[j][i]
            if not c:
                continue
            for lab, s in generators[j].items():
                vec[lab] = vec.get(lab, 0) + c * s
        images.append({k: v for k, v in vec.items() if v})
    return images


def _apply_to_word(trunc, gen_vectors, word):
    """Multiplicative image of a word under generator images."""
    vec = gen_vectors[word[0]]
    for degree, letter in enumerate(word[1:], start=1):
        if not vec:
            break
        vec = trunc.mul(degree, vec, 1, gen_vectors[letter])
    return vec


def check_automorphism(g, trunc):
    """Raise NotAnAutomorphismError unless g is invertible and respects the
    defining relations.

    The input checks come first, the same ``_check_action`` that
    ``brute_force_trace`` and ``identity_trace`` make, so a bad input gets
    one message from all three.  g sends x_i to sum_j g[j][i] x_j, and det g
    must not be 0: a singular g that respects the relations is an
    endomorphism, not an automorphism, and has no trace series to report.
    Every defining relation must vanish when it is evaluated on these images
    with the algebra's own product: each relation word, each
    x_j x_i - q_ij x_i x_j (i < j) and each normal element, whatever its
    degree.  A relation or normal element longer than the cutoff is
    evaluated in a truncation built up to its length.
    """
    pres = trunc.presentation
    n = pres.ngens
    _check_action(pres, g.dim)
    if not g.det():
        raise NotAnAutomorphismError("the matrix is singular")
    names = pres.names
    relations = [(f"relation {' '.join(names[i] for i in word)}",
                  {word: _ONE}) for word in pres.relations or ()]
    if pres.q is not None:
        relations.extend(
            (f"commutation relation of {names[i]} and {names[j]}",
             {(j, i): _ONE, (i, j): -pres.q[i][j]})
            for i in range(n) for j in range(i + 1, n))
    relations.extend((f"normal element {k}", dict(items))
                     for k, (_, items) in enumerate(pres.normals or ()))
    longest = max((len(word) for _, rel in relations for word in rel),
                  default=0)
    if longest > trunc.cutoff:
        trunc = build_truncation(pres, longest)
    images = _generator_images(g, trunc)
    for name, relation in relations:
        total = {}
        for word, c in relation.items():
            for lab, x in _apply_to_word(trunc, images, word).items():
                total[lab] = total.get(lab, 0) + c * x
        if any(total.values()):
            raise NotAnAutomorphismError(
                f"the image of the {name} is not zero in the algebra")


def brute_force_trace(g, trunc, order=None):
    """Trace series of the multiplicative extension of g, degree by degree.

    g acts on the degree-1 generators; the precondition that it preserve the
    relations is checked first, on every call, by ``check_automorphism``.
    The image of a word is the image of its prefix times one generator
    image, so degree d's images are products of degree d - 1's with the
    generator images, in the order ``_apply_to_word`` multiplies.  The images are keyed by word, since a
    prefix of a basis word need not be a basis label (a normal quotient's
    basis is not prefix-closed): the words kept are the prefix closure of the
    basis words up to ``order``, and only one degree's images are held at a
    time.  Coefficients follow the scalar rule: ints and Fractions when
    rational, CyclotomicNumbers otherwise.

    The trace is a class function, and the traces of coprime powers are
    Galois images of it, so a group needs one call per rational class
    (``MatrixGroup.rational_classes``): the identity's trace is
    ``identity_trace`` and every other member's is ``power_trace`` of its
    representative's.
    """
    pres = trunc.presentation
    if not isinstance(g, CyclotomicMatrix):
        g = CyclotomicMatrix(g)
    check_automorphism(g, trunc)
    if order is None:
        order = trunc.cutoff
    if order > trunc.cutoff:
        raise ValueError("trace order exceeds the truncation cutoff")
    gen_vectors = _generator_images(g, trunc)
    # words[d]: the basis words of degree d and the prefixes of longer ones
    words = [None] * (order + 1)
    prefixes = set()
    for d in range(order, 0, -1):
        words[d] = prefixes.union(trunc.bases[d])
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
            total = total + images[lab].get(lab, 0)
        coefficients.append(total)
    return Series(coefficients)


def _check_action(pres, dim):
    """The input checks of a trace on pres by a dim x dim matrix."""
    if any(d != 1 for d in pres.degrees):
        raise ValueError("the multiplicative extension needs degree-1 generators")
    if dim != pres.ngens:
        raise ValueError("matrix dimension must match the generator count")


def identity_trace(trunc, dim):
    """``brute_force_trace`` of the dim x dim identity, after the same input
    checks, with no products: the truncation's dims."""
    _check_action(trunc.presentation, dim)
    return Series(trunc.dims())


def power_trace(trace, k, m):
    """The (series, closed form) trace of g^k from g's, for g of order m and
    k prime to m: ``cyclofield.power_galois`` of every coefficient.  A field
    automorphism maps the Pade solution of ``exact.reconstruct`` to that of
    the image series, so the closed form's image is the image series' closed
    form.
    """
    series, closed = trace
    sigma = power_galois((*series, *closed.num.coeffs, *closed.den.coeffs),
                         k, m)
    if sigma is None:
        return trace
    return Series(map(sigma, series)), closed.map_coefficients(sigma)


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
    -> entry), read off the RREF: one vector per free column c, keyed by
    column index, 1 at c and 0 at every other free column."""
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
    return list(basis.values())


def betti_numbers(trunc, cutoff=None):
    """Bigraded Betti numbers of the trivial module over the truncation.

    Resolves the trivial module by iterated graded syzygies.  F_0 = A maps
    onto k; F_{i+1} is free on the minimal generators of K_i, the kernel of
    d_i: F_i -> F_{i-1}, and row i + 1 holds their degrees.  The weight alpha
    is finer than the degree, and each level is one pass over the weight
    blocks of F_i in increasing degree:

    * the weights come from ``Truncation.grading``: a label's weight is the
      sum of its letters' digits, its letter counts read as one int in base
      cutoff + 1 or, when the ideal is not spanned by words, its degree;
      the generators come with theirs.  A block keeps its degree beside its
      weight: alpha - wt(x_k) can borrow across digits and land on a block
      of another degree, already built when that degree is alpha's;
    * the dimension of each block of K_i is known before any elimination.
      d_i maps F_{i,alpha} onto K_{i-1,alpha}, since F_i is generated by
      the minimal generators of K_{i-1} and these generate it in every
      degree up to the cutoff, so dim K_{i,alpha} = dim F_{i,alpha} -
      dim K_{i-1,alpha}.  A block of dimension 0 costs nothing;
    * K_{i,alpha} is first filled from below: K_i is the whole kernel below
      the cutoff, so it is a left submodule and (m K_i)_alpha = sum_k x_k
      K_{i,alpha - wt(x_k)} lies in it.  The span is held as a reduced
      echelon form in the coordinates of F_i and stops growing once it has
      dim K_{i,alpha} rows: it is then all of K_{i,alpha}, and alpha has no
      minimal generator;
    * only a span that falls short takes the nullspace of d_i on
      F_{i,alpha}.  The images lie in K_{i-1,alpha}, whose echelon rows are
      1 at their own pivot and 0 at the other pivots, so an image is fixed
      by its entries at those pivot keys and is read there only; if
      K_{i-1,alpha} is 0 the nullspace is all of F_{i,alpha}.  Its size must
      equal the predicted dimension, which checks that d_i is onto wherever
      it is evaluated.  The nullspace vectors that enlarge the span are the
      minimal generators at alpha;
    * each basis product a * b is computed once per call, in a dict keyed
      by (a, b) (a label fixes its degree), and left multiplication reads
      it entry by entry.  The products live only as long as the call.

    A negative cutoff, or one above the truncation's, is a ValueError.
    """
    if cutoff is None:
        cutoff = trunc.cutoff
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if cutoff > trunc.cutoff:
        raise ValueError("cutoff exceeds the truncation")
    digits, generators = trunc.grading()
    blocks = {}  # weight -> (degree, basis labels of that weight)
    degree_of = {}
    for j in range(cutoff + 1):
        for lab in trunc.bases[j]:
            degree_of[lab] = j
            weight = sum(digits[i] for i in lab)
            blocks.setdefault(weight, (j, []))[1].append(lab)
    products = {}

    def left_mul(e, a_vec, vec, keep=None):
        # a_vec (degree e) times vec, a vector of a free module keyed by
        # (generator, label); read at the keys in keep, if given
        out = {}
        for (s, lab), c in vec.items():
            for la, ca in a_vec.items():
                prod = products.get((la, lab))
                if prod is None:
                    prod = products[la, lab] = trunc.mul_basis(
                        e, la, degree_of[lab], lab)
                c2 = ca * c
                for lab2, c3 in prod.items():
                    key = (s, lab2)
                    if keep is None or key in keep:
                        out[key] = out.get(key, 0) + c2 * c3
        return out

    entries = {(0, 0): 1}
    # F_0 = A on one generator of weight and degree 0, mapped onto k: the
    # kernel one level down is k, held as one block at weight 0
    kernel = {0: (0, {(0, ()): {(0, ()): _ONE}})}
    mingens = [(0, 0, {(0, ()): _ONE})]  # (weight, degree, vector)
    for index in range(cutoff):
        # F_index: the pairs (s, a) with wt(g_s) + wt(a) = alpha.  A sum of
        # weights of degree <= cutoff carries no digit, so alpha fixes the
        # degree and the lookup of K_{index-1, alpha} needs no degree check
        domains = {}  # alpha -> [degree, dimension, (s, labels) pairs]
        for s, (ws, ds, _) in enumerate(mingens):
            for w, (jb, labels) in blocks.items():
                if ds + jb <= cutoff:
                    block = domains.setdefault(ws + w, [ds + jb, 0, []])
                    block[1] += len(labels)
                    block[2].append((s, labels))
        new_kernel, new_mingens = {}, []
        for alpha, (j, size, parts) in sorted(domains.items(),
                                              key=lambda item: item[1][0]):
            image = kernel[alpha][1] if alpha in kernel else {}
            dim = size - len(image)
            if not dim:
                continue
            rows = {}
            for w, d, x in generators:
                below = new_kernel.get(alpha - w)
                if below is None or below[0] != j - d:
                    continue
                for v in below[1].values():
                    _rref_add(rows, left_mul(d, x, v))
                    if len(rows) == dim:
                        break
                if len(rows) == dim:
                    break
            if len(rows) < dim:
                domain = [(s, lab) for s, labels in parts for lab in labels]
                if image:
                    null = [{domain[k]: x for k, x in vec.items()}
                            for vec in _nullspace([
                                left_mul(j - mingens[s][1], {lab: _ONE},
                                         mingens[s][2], image)
                                for s, lab in domain])]
                else:
                    null = [{key: _ONE} for key in domain]
                if len(null) != dim:
                    raise RuntimeError(
                        f"d_{index} is not onto K_{index - 1} at weight "
                        f"{alpha}, degree {j}")
                for vec in null:
                    if _rref_add(rows, vec) is not None:
                        new_mingens.append((alpha, j, vec))
                        if len(rows) == dim:
                            break
            new_kernel[alpha] = (j, rows)
        if not new_mingens:
            break
        for _, j, _ in new_mingens:
            entries[index + 1, j] = entries.get((index + 1, j), 0) + 1
        kernel, mingens = new_kernel, new_mingens
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
    "GrowthHint",
    "NotAnAutomorphismError",
    "NotNormalError",
    "NotRegularError",
    "Presentation",
    "TorVerdict",
    "Truncation",
    "betti_numbers",
    "brute_force_trace",
    "build_truncation",
    "check_automorphism",
    "euler_check",
    "free_algebra",
    "growth_estimate",
    "identity_trace",
    "monomial_quotient",
    "normal_quotient",
    "power_trace",
    "quantum_affine",
    "skew_symmetric_q",
    "tor_inequalities",
]
