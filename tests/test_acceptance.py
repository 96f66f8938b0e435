"""Acceptance suite: each test covers one headline computation end to end,
at zero tolerance unless a criterion states otherwise, and prints one
PASS line (visible under pytest -s / on failure)."""

import random
from fractions import Fraction
from itertools import combinations

from gradedseries.algebras import (
    betti_numbers,
    brute_force_trace,
    build_truncation,
    euler_check,
    growth_estimate,
    monomial_quotient,
    normal_quotient,
    quantum_affine,
    skew_symmetric_q,
    tor_inequalities,
)
from gradedseries.cyclofield import CyclotomicMatrix, CyclotomicNumber, FieldFraction
from gradedseries.cyclotomic import (
    cyc_number,
    factor_cyclotomic,
    gorenstein_symmetry,
    is_cyclotomic,
    squarefree_order_lcm,
)
from gradedseries.exact import (
    Poly,
    expand,
    normalize,
    one_minus_power,
    poly_gcd,
    reconstruct,
)
from gradedseries.groups import (
    PROVENANCE_BRUTE_FORCE,
    TraceAssignment,
    VERDICT_NEITHER,
    VERDICT_QUASI_BIREFLECTION,
    assign_charpoly_traces,
    classical_bireflection_rank,
    classify_pole,
    closure,
    generated_by_quasi_bireflections,
    hdet,
    molien,
    pole_classifications,
    subgroups,
)
from gradedseries.hilbert import quotient_series, veronese_section, veronese_transform

z3 = CyclotomicNumber.zeta(3)
ONE_MINUS_T = Poly([1, -1])


def P(*coeffs):
    return Poly(coeffs)


def ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def series_equal_to_order(f, g, order):
    return expand(f, order) == expand(g, order)


def sklyanin_group():
    g1 = CyclotomicMatrix([[z3, 0, 0], [0, z3 ** 2, 0], [0, 0, 1]])
    g2 = CyclotomicMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], order=3)
    g3 = CyclotomicMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]], order=3)
    return closure([g1, g2, g3], cap=100)


def matrix_shape(matrix):
    support = frozenset((i, j) for i, row in enumerate(matrix.rows)
                        for j, x in enumerate(row) if x)
    if support == frozenset({(0, 0), (1, 1), (2, 2)}):
        return "diagonal"
    if support == frozenset({(0, 1), (1, 2), (2, 0)}):
        return "cycle-up"
    if support == frozenset({(0, 2), (1, 0), (2, 1)}):
        return "cycle-down"
    return "other"


def brute_assignment(group, trunc, den_bound):
    traces = tuple(reconstruct(brute_force_trace(g, trunc), 0, den_bound)
                   for g in group.elements)
    return TraceAssignment(group, traces,
                           (PROVENANCE_BRUTE_FORCE,) * group.order)


def test_criterion_01_veronese_sections_of_mixed_denominator():
    f = normalize(P(1), ONE_MINUS_T ** 2 * one_minus_power(2))
    section4 = veronese_section(f, 4)
    displayed4 = normalize(P(1, 0, 0, 0, 6, 0, 0, 0, 1),
                           one_minus_power(4) ** 3)
    assert series_equal_to_order(section4.inflated(4), displayed4, 40)
    num3 = Poly({0: 1, 3: 6, 6: 11, 12: -21, 15: -18, 18: 5, 21: 12,
                 24: 4}.get(k, 0) for k in range(25))
    displayed3 = normalize(num3, one_minus_power(6) ** 5)
    section3 = veronese_section(f, 3)
    assert series_equal_to_order(section3.inflated(3), displayed3, 40)
    assert not is_cyclotomic(section4)
    assert not is_cyclotomic(section3)
    ok(1, "r=4 and r=3 sections match the closed forms; both non-cyclotomic")


def test_criterion_02_plane_sections():
    for r in range(3, 7):
        got = veronese_transform(P(1), 2, r)
        assert got == normalize(P(1, r - 1), ONE_MINUS_T ** 2)
        assert not is_cyclotomic(got)
    ok(2, "sections of 1/(1-t)^2 equal (1+(r-1)t)/(1-t)^2, non-cyclotomic for r>=3")


def test_criterion_03_pure_power_sweep():
    # at d = 1 every section of k[t] is again a polynomial ring (cyclotomic),
    # so the sweep runs over the quantum polynomial rings of dimension >= 2
    for d in range(2, 7):
        for r in range(2, 7):
            if r < 3 and d < 3:
                continue
            section = veronese_transform(P(1), d, r)
            assert not is_cyclotomic(section), (r, d)
    for r in range(2, 7):
        assert is_cyclotomic(veronese_transform(P(1), 1, r))
    assert is_cyclotomic(veronese_transform(P(1), 2, 2))
    ok(3, "1/(1-t)^d sections non-cyclotomic whenever r >= 3 or d >= 3 (r,d <= 6)")


def test_criterion_04_sklyanin_molien_suite():
    group = sklyanin_group()
    assert group.order == 27
    order3 = normalize(P(1, -1, 1), ONE_MINUS_T ** 2 * one_minus_power(3))
    order9 = normalize(P(1, 0, 0, 1, 0, 0, 1), one_minus_power(3) ** 3)
    full = normalize(one_minus_power(18),
                     one_minus_power(3) ** 2 * one_minus_power(6) *
                     one_minus_power(9))
    subs = subgroups(group)
    scalar_subgroups = []
    for s in subs:
        if s.order == 1:
            continue
        assignment = assign_charpoly_traces(s)
        fixed = molien(s, assignment)
        scalars_only = all(matrix_shape(m) == "diagonal" and
                           len(set(m.diagonal())) == 1 for m in s.elements)
        verdict, _ = generated_by_quasi_bireflections(
            s, pole_classifications(assignment, 3))
        if scalars_only:
            scalar_subgroups.append(s)
            # the fixed ring of the scalar subgroup is the third Veronese
            veronese3 = veronese_transform(P(1), 3, 3).inflated(3)
            assert fixed == veronese3
            assert not is_cyclotomic(fixed)
            assert not verdict
            continue
        assert verdict
        assert is_cyclotomic(fixed)
        assert gorenstein_symmetry(fixed).symmetric
        if s.order == 3:
            assert fixed == order3
        elif s.order == 9:
            assert fixed == order9
        else:
            assert fixed == full
    assert len(scalar_subgroups) == 1
    ok(4, "order-27 closure; all Molien sums match; generation pattern as stated")


def test_criterion_05_subgroup_inventory():
    group = sklyanin_group()
    subs = subgroups(group)
    orders = sorted(s.order for s in subs)
    assert orders == [1] + [3] * 13 + [9] * 4 + [27]
    threes = [s for s in subs if s.order == 3]
    assert sum(1 for s in threes
               if all(matrix_shape(m) == "diagonal" for m in s.elements)) == 4
    assert sum(1 for s in threes
               if {matrix_shape(m) for m in s.elements} ==
               {"diagonal", "cycle-up", "cycle-down"}) == 9
    nines = [s for s in subs if s.order == 9]
    assert sum(1 for s in nines
               if all(matrix_shape(m) == "diagonal" for m in s.elements)) == 1
    assert sum(1 for s in nines
               if any(matrix_shape(m) != "diagonal" for m in s.elements)) == 3
    # independent oracle: subgroups of a group of order p^3 need <= 2 generators
    oracle = {frozenset({0})}
    for i in range(group.order):
        oracle.add(group.subset_closure({i}))
    for i, j in combinations(range(group.order), 2):
        oracle.add(group.subset_closure({i, j}))
    assert {frozenset(group.index_of(m) for m in s.elements)
            for s in subs} == oracle
    ok(5, "19 subgroups in the stated families, matching the brute-force oracle")


def test_criterion_06_stanley_example():
    f = normalize(P(1, 1) ** 3, ONE_MINUS_T ** 4)
    assert is_cyclotomic(f)
    assert gorenstein_symmetry(f).symmetric
    m, profile = cyc_number(f)
    assert m == 3
    assert profile.factors == {1: -7, 2: 3}
    ok(6, "(1+t)^3/(1-t)^4 is cyclotomic Gorenstein with three numerator binomials")


def test_criterion_07_mystic_quasi_bireflection():
    trunc = build_truncation(quantum_affine(skew_symmetric_q(3)), 12)
    g = CyclotomicMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]])
    group = closure([g], cap=10)
    assert group.order == 4
    target = normalize(P(1), P(1, 1) * one_minus_power(2))
    for element in group.elements[1:]:
        assert reconstruct(brute_force_trace(element, trunc), 0, 3) == target
    pole = classify_pole(target, 3)
    assert pole.verdict == VERDICT_QUASI_BIREFLECTION
    assert hdet(target, 3, 3) == 1
    assignment = brute_assignment(group, trunc, 3)
    fixed = molien(group, assignment)
    assert is_cyclotomic(fixed)
    # degreewise invariant count oracle through degree 12
    fixed_series = expand(fixed, 12)
    gen_vectors = []
    for i in range(3):
        col = {}
        for j in range(3):
            c = g.rows[j][i]
            if c:
                col[(j,)] = c
        gen_vectors.append(col)
    from gradedseries.algebras import _rref_add
    assert fixed_series[0] == 1
    for d in range(1, 13):
        labels = trunc.bases[d]
        pos = {lab: k for k, lab in enumerate(labels)}
        reduced = {}
        rank = 0
        for lab in labels:
            word = lab
            cur = dict(gen_vectors[word[0]])
            for deg, letter in enumerate(word[1:], start=1):
                cur = trunc.mul(deg, cur, 1, gen_vectors[letter])
            dense = [Fraction(0)] * len(labels)
            for lab2, c in cur.items():
                dense[pos[lab2]] += Fraction(c)
            dense[pos[lab]] -= 1
            if _rref_add(reduced, dict(enumerate(dense))) is not None:
                rank += 1
        assert len(labels) - rank == fixed_series[d]
    ok(7, "trace 1/((1+t)(1-t^2)) for g, g^2, g^3; quasi-bireflection; hdet 1; "
          "Molien equals the invariant count")


def test_criterion_08_classical_but_not_quasi():
    trunc = build_truncation(quantum_affine(skew_symmetric_q(4)), 12)
    g = CyclotomicMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, 1], [0, 0, 1, 0]])
    trace = reconstruct(brute_force_trace(g, trunc), 0, 4)
    assert trace == normalize(P(1), P(1, 0, 1) ** 2)
    assert classical_bireflection_rank(g) == (2, True)
    assert classify_pole(trace, 4).verdict == VERDICT_NEITHER
    group = closure([g], cap=10)
    fixed = molien(group, brute_assignment(group, trunc, 4))
    want = normalize(P(1, -2, 4, -2, 1), ONE_MINUS_T ** 4 * P(1, 0, 1) ** 2)
    assert fixed == want
    assert not is_cyclotomic(fixed)
    assert gorenstein_symmetry(fixed).symmetric
    ok(8, "rank-2 classical bireflection with trace 1/(1+t^2)^2 is not a "
          "quasi-bireflection; fixed series Gorenstein, not cyclotomic")


def test_criterion_09_square_zero_resolution():
    pres = monomial_quotient(["x", "y"], [(0, 0), (0, 1), (1, 1)])
    trunc = build_truncation(pres, 8)
    assert trunc.dims()[:3] == [1, 2, 1]
    assert all(d == 0 for d in trunc.dims()[3:])
    table = betti_numbers(trunc)
    assert [table.row_sum(i) for i in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    m, _ = cyc_number(normalize(P(1, 2, 1), P(1)))
    assert m == 2
    residual = euler_check(table, normalize(P(1, 2, 1), P(1)), 8)
    assert not any(residual)
    ok(9, "dims [1,2,1]; Betti row sums 1..7; cyc = 2; Euler residual zero")


def test_criterion_10_tor_inequalities_and_growth():
    plane = build_truncation(quantum_affine(skew_symmetric_q(2)), 10)
    table_a = betti_numbers(plane)
    quotient = build_truncation(
        normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}]), 10)
    table_b = betti_numbers(quotient)
    verdicts = tor_inequalities(table_a, table_b, 2)
    for v in verdicts:
        if v.n <= 8:
            assert v.bound_holds
            if v.gap_holds is not None:
                assert v.gap_holds
    assert all(v.gap_holds is not None for v in verdicts if v.n <= 8)
    hint = growth_estimate(table_b)
    assert hint.kind == "estimate"
    assert abs(hint.value - 1) < 0.2
    ok(10, "both Tor bounds hold for n <= 8; hypersurface growth hint within "
           "0.2 of 1")


def test_criterion_11_twist_invariance_of_diagonal_traces():
    rng = random.Random(2024)
    q_choices = [1, -1, 2, Fraction(1, 2), 3, Fraction(-1, 3)]
    z12 = CyclotomicNumber.zeta(12)
    for case in range(20):
        lams = [z12 ** rng.randrange(12) for _ in range(3)]
        g = CyclotomicMatrix([[lams[0], 0, 0], [0, lams[1], 0], [0, 0, lams[2]]])
        traces = []
        for _ in range(2):
            q12, q13, q23 = (rng.choice(q_choices) for _ in range(3))
            q = [[1, q12, q13],
                 [1 / Fraction(q12), 1, q23],
                 [1 / Fraction(q13), 1 / Fraction(q23), 1]]
            trunc = build_truncation(quantum_affine(q), 12)
            traces.append(brute_force_trace(g, trunc))
        assert traces[0] == traces[1]  # independent of the q parameters
        prod = [1]
        for lam in lams:
            nxt = [0] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i] = nxt[i] + c
                nxt[i + 1] = nxt[i + 1] - c * lam
            prod = nxt
        eigen = FieldFraction.reciprocal(prod).expand(12)
        assert all(a == b for a, b in zip(traces[0], eigen))
    ok(11, "20 random diagonal actions: trace independent of q and equal to "
           "1/prod(1-lam_i t)")


def test_criterion_12_property_suite():
    rng = random.Random(99)
    # gcd-coprimality and idempotence of normalization
    for _ in range(25):
        p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        q = Poly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        if not p:
            continue
        f = normalize(p, q)
        assert poly_gcd(f.num, f.den) == Poly([1])
        assert normalize(f.num, f.den) == f
    # reconstruct . expand is the identity
    for _ in range(15):
        p = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        q = Poly([1] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 4))])
        if not p:
            continue
        f = normalize(p, q)
        s = expand(f, max(f.num.degree, 0) + 2 * f.den.degree + 4)
        assert reconstruct(s, max(f.num.degree, 0), f.den.degree) == f
    # cyclotomic factorizations reassemble, and orders bound the torsion
    for _ in range(20):
        poly = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 8))])
        if not poly:
            continue
        fact = factor_cyclotomic(poly)
        assert fact.rebuild() == poly
        if fact.exponents:
            L = squarefree_order_lcm(fact)
            assert L >= max(fact.exponents)
    # Moebius profiles are exact factorizations
    for _ in range(15):
        factors = {}
        for a in rng.sample(range(1, 7), rng.randint(1, 3)):
            e = rng.randint(-2, 2)
            if e:
                factors[a] = e
        num = den = Poly([1])
        for a, e in factors.items():
            if e > 0:
                num = num * one_minus_power(a) ** e
            else:
                den = den * one_minus_power(a) ** (-e)
        f = normalize(num, den)
        got = cyc_number(f)
        assert got is not None
        assert got[1].as_rational_function() == f
    # Lagrange divisibility and Molien nonnegativity over the Sklyanin group
    group = sklyanin_group()
    for s in subgroups(group):
        assert group.order % s.order == 0
        coefficients = expand(molien(s, assign_charpoly_traces(s)), 12)
        assert all(isinstance(c, int) and c >= 0 for c in coefficients)
    # Euler residual vanishes for every engine-built algebra tried
    cases = [
        monomial_quotient(["x", "y"], [(0, 0), (0, 1), (1, 1)]),
        quantum_affine(skew_symmetric_q(2)),
        normal_quotient(skew_symmetric_q(2), [{(2, 0): 1}]),
    ]
    for pres in cases:
        trunc = build_truncation(pres, 8)
        table = betti_numbers(trunc)
        residual = euler_check(table, trunc.hilbert_coefficients(), 8)
        assert not any(residual)
    ok(12, "randomized invariants hold: coprimality, round trips, exact "
           "factorizations, Lagrange, Molien nonnegativity, Euler residuals")
