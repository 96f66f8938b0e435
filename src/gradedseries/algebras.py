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
degree over the blocks in increasing degree, bucketed by degree as they
are counted.  The differential d_i maps
F_{i,alpha} onto the kernel K_{i-1,alpha} one step down, so dim K_{i,alpha}
= dim F_{i,alpha} - dim K_{i-1,alpha} is known before any elimination, and
a block of dimension 0 costs nothing.  K_i is complete below the cutoff, so
it is a left submodule and (m K_i)_alpha = sum_k x_k K_{i,alpha - wt(x_k)}
lies in it: that span, held as a reduced echelon form, fills K_{i,alpha}
from below (every degree above the row index, for a Koszul algebra).  Only
where it falls short is the nullspace of d_i taken, its images read at the
pivot keys of K_{i-1,alpha}'s echelon form, and the nullspace vectors that
enlarge the span are the minimal generators.  Free-module keys are ints
ordered as their (generator, label) pairs; each basis product is made once.

The growth of Ext_A(k, k) is read exactly from the Betti totals P(1, t):
``ext_growth`` reconstructs their closed form and reports it finite,
polynomial (with the pole order at t = 1), exponential or undetermined, for
the data up to the cutoff (never as a global claim).  Nothing here is
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclofield import CyclotomicMatrix, CyclotomicNumber
from .cyclotomic import factor_cyclotomic
from .exact import (Immutable, NonUnitConstantError, NoSolutionError, Series,
                    _reduce_vec, _rref_add, _simplify, reconstruct,
                    scalar_inverse)


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
    if type(scalar) is Fraction:
        scalar = _simplify(scalar)
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
        """``vec``, a fresh dict that the caller gives up, reduced modulo the
        ideal in ``degree``: with no ideal, ``vec`` itself."""
        if self.ideal is None:
            return vec
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
        return {k: _simplify(v) for k, v in out.items() if v}

    def generator_vector(self, i):
        """(degree, sparse vector) of the i-th generator's image."""
        deg = self.presentation.degrees[i]
        if deg > self.cutoff or (self.words and (i,) not in self.words):
            return deg, {}  # above the cutoff, or killed by a relation
        return deg, self.project(deg, {(i,): _ONE})

    def digits(self):
        """Each generator's digit: a word's weight, the sum of its letters'
        digits, grades the truncation.  The digits are powers of cutoff + 1,
        so that a weight reads the letter counts, or the generator degrees
        when a row of the ideal has two words and so letter counts do not
        grade it (a nondecreasing word is fixed by its letter counts)."""
        if any(len(row) > 1
               for rows in self.ideal or () for row in rows.values()):
            return self.presentation.degrees
        return [(self.cutoff + 1) ** i for i in range(self.presentation.ngens)]

    def grading(self):
        """(weight, generators) for ``betti_numbers``: weight maps a basis
        label to its weight, the sum of its letters' ``digits``.  The
        generators are the (weight, degree, vector) triples of the nonzero
        ones."""
        ngens = self.presentation.ngens
        digits = self.digits()

        def weight(label):
            return sum(digits[i] for i in label)

        vectors = map(self.generator_vector, range(ngens))
        return weight, [(w, d, x) for w, (d, x) in zip(digits, vectors) if x]


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


def brute_force_trace(g, trunc):
    """Trace series of the multiplicative extension of g, degree by degree.

    g acts on the degree-1 generators; the precondition that it preserve the
    relations is checked first, on every call, by ``check_automorphism``.
    The image of a word is the image of its prefix times one generator
    image, in the order ``_apply_to_word`` multiplies.  The images are keyed
    by word, since a prefix of a basis word need not be a basis label (a
    normal quotient's basis is not prefix-closed): the words visited are the
    prefix closure of the basis words up to the cutoff, depth-first in
    sorted order, so each comes after its prefix and only one path of images
    is held at a time.  An image is a vector of basis labels, so a prefix
    that is no basis label adds 0 to the trace.  Coefficients follow the
    scalar rule: ints and Fractions when rational, CyclotomicNumbers
    otherwise.

    Only the basis words whose weight block g can fix are walked, with their
    prefixes.  When every generator image is one term c_i x_sigma(i), g maps
    the block of weight wt(w) (``Truncation.digits``) into that of
    wt(sigma w), so the coefficient of w in g(w) is 0 unless the shifts
    digit(sigma(i)) - digit(i) of w's letters sum to 0: one integer test per
    basis word.  When an image has no term or several, or sigma moves no
    digit (a diagonal g, or a truncation graded by degree), every word is
    walked.

    The trace is a class function, and the traces of coprime powers are
    Galois images of it, so a group needs one call per rational class: the
    identity's trace is ``identity_trace``, and ``groups.assign_class_traces``
    derives every other member's closed form from its representative's.
    """
    if not isinstance(g, CyclotomicMatrix):
        g = CyclotomicMatrix(g)
    check_automorphism(g, trunc)
    gen_vectors = _generator_images(g, trunc)
    digits = trunc.digits()
    # digit(sigma(i)) - digit(i), read when each image is one term
    shift = [digits[j] - digits[i]
             for i, image in enumerate(gen_vectors) for (j,) in image]
    moves = all(len(image) == 1 for image in gen_vectors) and any(shift)
    words = set()
    for basis in trunc.bases[1:]:
        for w in basis:
            if moves and sum(map(shift.__getitem__, w)):
                continue  # g moves w's weight block
            while w and w not in words:
                words.add(w)
                w = w[:-1]
    coefficients = [1] + [0] * trunc.cutoff
    path = [None] * (trunc.cutoff + 1)  # path[k]: the image of w[:k]
    for w in sorted(words):
        d = len(w)
        if d == 1:
            image = gen_vectors[w[0]]
        else:
            head = path[d - 1]
            image = head and trunc.mul(d - 1, head, 1, gen_vectors[w[-1]])
        path[d] = image
        coefficients[d] += image.get(w, 0)
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


@dataclass(frozen=True)
class BettiTable:
    """Nonzero bigraded Betti numbers b(i, j), exact for j <= cutoff."""

    entries: dict
    cutoff: int

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


def betti_numbers(trunc):
    """Bigraded Betti numbers of the trivial module over the truncation.

    Resolves the trivial module by iterated graded syzygies.  F_0 = A maps
    onto k; F_{i+1} is free on the minimal generators of K_i, the kernel of
    d_i: F_i -> F_{i-1}, and row i + 1 holds their degrees.  The weight alpha
    is finer than the degree, and each level is one pass over the weight
    blocks of F_i in increasing degree:

    * the weights come from ``Truncation.grading``, which maps each basis
      label to its weight (for a word, its letter counts read as one int in
      base cutoff + 1 or, when the ideal is not spanned by words, its
      degree); the generators come with theirs.  A's weight blocks are
      listed once per call by degree, so a generator of degree ds meets only
      those of degree <= cutoff - ds, and a kernel block keeps its degree
      beside its weight: alpha - wt(x_k) can borrow across digits and land
      on a block of another degree, already built when that degree is
      alpha's;
    * the dimension of each block of K_i is known before any elimination.
      d_i maps F_{i,alpha} onto K_{i-1,alpha}, since F_i is generated by
      the minimal generators of K_{i-1} and these generate it in every
      degree up to the cutoff, so dim K_{i,alpha} = dim F_{i,alpha} -
      dim K_{i-1,alpha}.  Each level sums dim F_{i,alpha} into one bucket
      per degree as it goes, so the pass needs no sort, and a block of
      dimension 0 costs nothing;
    * K_{i,alpha} is first filled from below: K_i is the whole kernel below
      the cutoff, so it is a left submodule and (m K_i)_alpha = sum_k x_k
      K_{i,alpha - wt(x_k)} lies in it.  The span is held as a reduced
      echelon form in the coordinates of F_i, counting its rows, and stops
      once it has dim K_{i,alpha}: it is then all of K_{i,alpha}, and alpha
      has no minimal generator.  Each product x_k v is formed in the loop
      that adds it, from the basis products, with no call per candidate,
      and the first one meets an empty form, which ``_rref_add`` takes as
      it is;
    * only a span that falls short takes the nullspace of d_i on
      F_{i,alpha}, whose keys are then listed.  The images lie in
      K_{i-1,alpha}, whose echelon rows are 1 at their own pivot and 0 at
      the other pivots, so an image is fixed by its entries at those pivot
      keys and is read there only; if K_{i-1,alpha} is 0 the nullspace is
      all of F_{i,alpha}.  Its size must equal the predicted dimension,
      which checks that d_i is onto wherever it is evaluated.  The
      nullspace vectors that enlarge the span are the minimal generators at
      alpha;
    * a label's id is its rank among all L labels and F_i's key (s, b) is
      s * L + id(b), so keys compare as the pairs do and the pivots are
      theirs.  Each basis product is computed once per call, in one place,
      and kept under a * L + b as (id, coefficient) pairs;
    * the vectors handed to ``_rref_add`` follow the scalar rule: the sums
      of a candidate and of an image turn an integral Fraction into an int.
    """
    cutoff = trunc.cutoff
    weight, gens = trunc.grading()
    labels = sorted(((j, lab) for j, basis in enumerate(trunc.bases)
                     for lab in basis), key=lambda pair: pair[1])
    size = len(labels)
    ids = {lab: i for i, (_, lab) in enumerate(labels)}
    blocks = [{} for _ in range(cutoff + 1)]  # degree -> weight -> label ids
    for i, (j, lab) in enumerate(labels):
        blocks[j].setdefault(weight(lab), []).append(i)
    sizes = [[(w, len(block)) for w, block in by_weight.items()]
             for by_weight in blocks]  # degree -> [(weight, block size)]
    # a generator's vector as (id * size, coefficient) pairs
    gens = [(w, d, [(ids[k] * size, c) for k, c in x.items()])
            for w, d, x in gens]
    memo = {}  # a * size + b -> [(id, coefficient)] of a * b

    def product(ab):
        # a * b for ab = a * size + b, computed and kept on the first read
        a, b = divmod(ab, size)
        prod = memo[ab] = [(ids[k], y) for k, y in
                           trunc.mul_basis(*labels[a], *labels[b]).items()]
        return prod

    def image(key, keep):
        # d(key) = b * m_s for key = s * size + b, read at the keys in keep
        a = key % size * size
        out = {}
        for k, c in mingens[key // size][2].items():
            b = k % size
            prod = memo.get(a + b)
            if prod is None:
                prod = product(a + b)
            for i, y in prod:
                i += k - b
                out[i] = out.get(i, 0) + c * y
        return {i: _simplify(c) for i, c in out.items() if i in keep}

    entries = {(0, 0): 1}
    # F_0 = A on one generator of weight and degree 0, mapped onto k: the
    # kernel one level down is k, held as one block at weight 0 (id 0 is ())
    kernel = {0: (0, {0: {0: _ONE}})}
    mingens = [(0, 0, {0: _ONE})]  # (weight, degree, vector)
    for index in range(cutoff):
        # F_index: the keys s * size + b with wt(g_s) + wt(b) = alpha.  A sum
        # of weights of degree <= cutoff carries no digit, so alpha fixes the
        # degree and the lookup of K_{index-1, alpha} needs no degree check
        dims = [{} for _ in range(cutoff + 1)]  # degree -> alpha -> dim
        for ws, ds, _ in mingens:
            for jb in range(cutoff - ds + 1):
                bucket = dims[ds + jb]
                for w, n in sizes[jb]:
                    bucket[ws + w] = bucket.get(ws + w, 0) + n
        new_kernel, new_mingens = {}, []
        for j, bucket in enumerate(dims):
            for alpha, dim in bucket.items():
                onto = kernel[alpha][1] if alpha in kernel else {}
                dim -= len(onto)  # K_{index-1, alpha}, d's target
                if not dim:
                    continue
                rows, found = {}, 0
                for w, d, x in gens:
                    below = new_kernel.get(alpha - w)
                    if below is None or below[0] != j - d:
                        continue
                    for v in below[1].values():
                        vec = {}
                        for key, c in v.items():
                            b = key % size
                            base = key - b
                            for a, ca in x:
                                prod = memo.get(a + b)
                                if prod is None:
                                    prod = product(a + b)
                                c2 = ca * c
                                for i, c3 in prod:
                                    i += base
                                    vec[i] = vec.get(i, 0) + c2 * c3
                        for i, c in vec.items():
                            if type(c) is Fraction and c.denominator == 1:
                                vec[i] = c.numerator
                        if _rref_add(rows, vec) is not None:
                            found += 1
                            if found == dim:
                                break
                    if found == dim:
                        break
                if found < dim:
                    domain = [s * size + b
                              for s, (ws, ds, _) in enumerate(mingens)
                              if ds <= j
                              for b in blocks[j - ds].get(alpha - ws, ())]
                    if onto:
                        null = [{domain[k]: x for k, x in vec.items()}
                                for vec in _nullspace([
                                    image(key, onto) for key in domain])]
                    else:
                        null = [{key: _ONE} for key in domain]
                    if len(null) != dim:
                        raise RuntimeError(
                            f"d_{index} is not onto K_{index - 1} at weight "
                            f"{alpha}, degree {j}")
                    for vec in null:
                        if _rref_add(rows, vec) is not None:
                            new_mingens.append((alpha, j, vec))
                            found += 1
                            if found == dim:
                                break
                new_kernel[alpha] = (j, rows)
        if not new_mingens:
            break
        for _, j, _ in new_mingens:
            entries[index + 1, j] = entries.get((index + 1, j), 0) + 1
        kernel, mingens = new_kernel, new_mingens
    return BettiTable(entries, cutoff)


def euler_check(table, hilbert_series, order):
    """Residual of (sum (-1)^i b(i,j) t^j) * H(t) - 1 up to the given order,
    for H(t) given as a Series (``Truncation.hilbert_coefficients``, or
    ``expand`` of a RationalFunction)."""
    signed = [0] * (order + 1)
    for (i, j), c in table.entries.items():
        if j <= order:
            signed[j] += c if i % 2 == 0 else -c
    if hilbert_series.order < order:
        raise ValueError("series truncation shorter than the check order")
    residual = list(Series(signed) * hilbert_series)
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


def ext_growth(table):
    """(kind, pole_order) of the growth of Ext_A(k, k), read off the Betti
    totals P(1, t) = sum_j (sum_i b(i, j)) t^j for j <= the cutoff.

    The closed forms (num, den) are tried in order of num + den, then den,
    while num + 2 den + 4 <= cutoff, which leaves two coefficients beyond
    what ``reconstruct`` needs; the first fit it accepts is read:

    * ``finite``: a constant denominator, pole order 0;
    * ``polynomial``: a product of cyclotomic polynomials, with the pole
      order at t = 1, the GK dimension of the Ext algebra (the totals are
      nonnegative, so no other root of unity is a higher pole);
    * ``exponential``: any other denominator, pole order None.  It has
      integer coefficients and den(0) = 1, so it has a root inside the unit
      disc (Kronecker);
    * ``undetermined``: no fit, pole order None.

    The verdict reads the data up to the cutoff and is no global claim.
    """
    cutoff = table.cutoff
    totals = [0] * (cutoff + 1)
    for (_, j), c in table.entries.items():
        totals[j] += c
    series = Series(totals)
    for size in range(cutoff - 3):
        for den in range(min(size, cutoff - 4 - size) + 1):
            try:
                f = reconstruct(series, size - den, den)
            except (NoSolutionError, NonUnitConstantError):
                continue
            if not factor_cyclotomic(f.den).is_cyclotomic:
                return "exponential", None
            return ("polynomial" if f.den.degree else "finite",
                    f.pole_order_at_one())
    return "undetermined", None


__all__ = [
    "BettiTable",
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
    "ext_growth",
    "free_algebra",
    "identity_trace",
    "monomial_quotient",
    "normal_quotient",
    "quantum_affine",
    "skew_symmetric_q",
    "tor_inequalities",
]
