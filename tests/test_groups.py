import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm

import pytest

from gradedseries import cyclotomic, groups, load_bundled_scenario
from gradedseries.algebras import (
    brute_force_trace,
    build_truncation,
    quantum_affine,
    skew_symmetric_q,
)
from gradedseries.cyclofield import CyclotomicMatrix, CyclotomicNumber, FieldFraction
from gradedseries.cyclotomic import cyc_number, gorenstein_symmetry, is_cyclotomic
from gradedseries.exact import (
    Poly,
    RationalFunction,
    expand,
    normalize,
    one_minus_power,
    reconstruct,
    series_quotient,
)
from gradedseries.groups import (
    CapExceededError,
    IndexMismatchError,
    MatrixGroup,
    NonRationalResultError,
    PROVENANCE_BRUTE_FORCE,
    PROVENANCE_USER,
    TooLargeError,
    TraceAssignment,
    VERDICT_FULL,
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
    reciprocal_charpoly_trace,
    subgroups,
)
from gradedseries.reports import classify_group, classify_series
from gradedseries.scenario import parse_scenario

z = CyclotomicNumber.zeta(3)


def P(*coeffs):
    return Poly(coeffs)


def sklyanin_generators():
    """Order-3 parameter choices generating the full order-27 symmetry group."""
    g1 = CyclotomicMatrix([[z, 0, 0], [0, z ** 2, 0], [0, 0, 1]])
    g2 = CyclotomicMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], order=3)
    g3 = CyclotomicMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]], order=3)
    return g1, g2, g3


def mystic_matrix():
    return CyclotomicMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]])


def shape(matrix):
    """diagonal / the two monomial 3-cycle patterns, for family bookkeeping."""
    support = frozenset(
        (i, j) for i, row in enumerate(matrix.rows)
        for j, x in enumerate(row) if x)
    if support == frozenset({(0, 0), (1, 1), (2, 2)}):
        return "diagonal"
    if support == frozenset({(0, 1), (1, 2), (2, 0)}):
        return "cycle-up"
    if support == frozenset({(0, 2), (1, 0), (2, 1)}):
        return "cycle-down"
    return "other"


class TestClosure:
    def test_sklyanin_order_27(self):
        g1, g2, g3 = sklyanin_generators()
        group = closure([g1, g2, g3], cap=100)
        assert group.order == 27

    def test_mystic_order_4(self):
        group = closure([mystic_matrix()], cap=10)
        assert group.order == 4

    def test_trivial(self):
        group = closure([], dim=3)
        assert group.order == 1

    def test_cap(self):
        rot = CyclotomicMatrix([[CyclotomicNumber.zeta(12), 0], [0, 1]])
        with pytest.raises(CapExceededError):
            closure([rot], cap=5)

    @pytest.mark.parametrize("cap", [-1, 0, 1, 11])
    def test_cap_below_the_order_stops_closure(self, cap):
        rot = CyclotomicMatrix([[CyclotomicNumber.zeta(12), 0], [0, 1]])
        with pytest.raises(CapExceededError):
            closure([rot], cap=cap)

    def test_cap_equal_to_the_order_is_enough(self):
        rot = CyclotomicMatrix([[CyclotomicNumber.zeta(12), 0], [0, 1]])
        assert closure([rot], cap=12).order == 12

    @pytest.mark.parametrize("rows", [
        [[1, 1], [1, 1]],
        [[z, z ** 2], [1, z]],          # det z^2 - z^2 = 0 over Q(zeta_3)
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    ])
    def test_singular_generator_is_rejected(self, rows):
        # a nonsingular first generator: every generator is tested
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            closure([CyclotomicMatrix.identity(len(rows)),
                     CyclotomicMatrix(rows)], cap=10)

    def test_dim_must_match_the_generators(self):
        assert closure([mystic_matrix()], cap=10, dim=3).order == 4
        with pytest.raises(ValueError, match="dim 2 does not match the "
                           "generators' dimension 3"):
            closure([mystic_matrix()], cap=10, dim=2)


def spy_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def bundled_groups():
    """Every group the bundled scenarios' closure tasks build."""
    for name in ("double_transposition.scn", "mystic_bireflection.scn",
                 "sklyanin.scn"):
        scenario = parse_scenario(load_bundled_scenario(name))
        for task in scenario.tasks:
            if task.kind == "closure":
                gens = [scenario.bindings[ref.name][1]
                        for ref in task.args["generators"]]
                yield closure(gens, cap=task.args.get("cap", 1000))


def rational_classes_by_definition(group):
    """(r, k, m) per element, read off every h x^k h^-1 with h over all of G
    and k in increasing order: the definition rational_classes walks."""
    elements = group.elements
    classes = [None] * group.order
    for r, x in enumerate(elements):
        if classes[r] is not None:
            continue
        powers = [elements[0], x]
        while powers[-1] != elements[0]:
            powers.append(powers[-1] * x)
        m = len(powers) - 1
        for k in range(1, m + 1):
            if gcd(k, m) == 1:
                for h in elements:
                    y = group.index_of(h * powers[k] * h.inverse())
                    if classes[y] is None:
                        classes[y] = (r, k, m)
    return classes


class TestRationalClasses:
    """rational_classes walks each conjugacy class by the generators and
    takes powers of its members; it must give the table the definition
    gives, for groups from closure and for subgroups, whose generators are
    all their elements."""

    def groups(self):
        yield from bundled_groups()
        rng = random.Random(23)
        for N in (3, 4, 6):
            for dim in (2, 3):
                group = random_monomial_group(rng, N, dim)
                yield group
                yield from subgroups(group)

    def test_classes_match_the_definition(self):
        for group in self.groups():
            assert group.rational_classes() == \
                rational_classes_by_definition(group), group.order


class TestCharpolyTracesPerClass:
    """assign_charpoly_traces computes one charpoly per rational class but
    the identity's, and derives the rest by conjugation and sigma_k; every
    value must equal the element's own reciprocal_charpoly_trace."""

    def groups(self):
        yield from bundled_groups()
        rng = random.Random(22)
        for N in (3, 4, 5, 6, 8, 12):
            for dim in (2, 3, 3):
                yield random_monomial_group(rng, N, dim)

    def test_every_trace_is_the_elements_own(self):
        conjugated = galois_moved = 0
        for group in self.groups():
            assignment = assign_charpoly_traces(group)
            classes = group.rational_classes()
            for i, (g, f) in enumerate(zip(group.elements, assignment.traces,
                                           strict=True)):
                assert f == reciprocal_charpoly_trace(g), (group.order, i)
                r, k, _ = classes[i]
                if r != i and k == 1 and group.elements[r] * g != g * \
                        group.elements[r]:
                    conjugated += 1
                if k != 1 and not f.is_rational() and f != assignment[r]:
                    galois_moved += 1
        # the groups exercise both steps: a conjugate by an element that
        # does not commute with it, and sigma_k moving an irrational trace
        assert conjugated and galois_moved

    def test_one_charpoly_per_non_identity_class(self, monkeypatch):
        calls = spy_calls(monkeypatch, groups, "reciprocal_charpoly_trace")
        for group in self.groups():
            calls.clear()
            assign_charpoly_traces(group)
            representatives = {r for r, _, _ in group.rational_classes()}
            assert calls == [(group.elements[r],)
                             for r in sorted(representatives - {0})]


class TestSubgroups:
    def test_cyclic_three(self):
        _, g2, _ = sklyanin_generators()
        group = closure([g2], cap=10)
        assert len(subgroups(group)) == 2

    def test_sklyanin_inventory(self):
        group = closure(list(sklyanin_generators()), cap=30)
        subs = subgroups(group)
        orders = sorted(s.order for s in subs)
        assert orders == [1] + [3] * 13 + [9] * 4 + [27]
        for s in subs:
            assert group.order % s.order == 0  # Lagrange
        # the four order-9 subgroups: one all-diagonal, three containing cycles
        nines = [s for s in subs if s.order == 9]
        diagonal = [s for s in nines
                    if all(shape(m) == "diagonal" for m in s.elements)]
        mixed = [s for s in nines
                 if any(shape(m) in ("cycle-up", "cycle-down") for m in s.elements)]
        assert len(diagonal) == 1 and len(mixed) == 3
        # order-3 families: 4 diagonal, 9 mixing the two cycle shapes
        threes = [s for s in subs if s.order == 3]
        diag3 = [s for s in threes
                 if all(shape(m) == "diagonal" for m in s.elements)]
        mixed3 = [s for s in threes
                  if {shape(m) for m in s.elements} ==
                  {"diagonal", "cycle-up", "cycle-down"}]
        assert len(diag3) == 4 and len(mixed3) == 9

    def test_against_pair_closure_oracle(self):
        # every subgroup of a group of order p^3 is generated by <= 2 elements
        group = closure(list(sklyanin_generators()), cap=30)
        oracle = {frozenset({0})}
        for i in range(group.order):
            oracle.add(group.subset_closure({i}))
        for i, j in combinations(range(group.order), 2):
            oracle.add(group.subset_closure({i, j}))
        subs = subgroups(group)
        assert {frozenset(group.index_of(m) for m in s.elements)
                for s in subs} == oracle

    def test_too_large(self):
        group = closure([], dim=2)
        with pytest.raises(TooLargeError):
            subgroups(group, max_order=0)


class TestTraceRule:
    def test_identity(self):
        trace = reciprocal_charpoly_trace(CyclotomicMatrix.identity(3))
        assert trace == normalize(P(1), P(1, -1) ** 3)

    def test_cycle_is_quasi_bireflection_trace(self):
        _, g2, _ = sklyanin_generators()
        assert reciprocal_charpoly_trace(g2) == normalize(P(1), one_minus_power(3))

    def test_nonscalar_diagonal(self):
        g1, _, _ = sklyanin_generators()
        assert reciprocal_charpoly_trace(g1) == normalize(P(1), one_minus_power(3))

    def test_scalar_matrix_stays_in_field(self):
        s = CyclotomicMatrix([[z, 0, 0], [0, z, 0], [0, 0, z]])
        trace = reciprocal_charpoly_trace(s)
        assert isinstance(trace, FieldFraction) and not trace.is_rational()
        # 1/(1 - z t)^3 has coefficients binom(n+2, 2) z^n
        got = trace.expand(4)
        assert got[3] == 10 * z ** 3 == 10
        assert got[4] == 15 * z


class TestMolien:
    def order3_series(self):
        return normalize(P(1, -1, 1), P(1, -1) ** 2 * one_minus_power(3))

    def order9_series(self):
        return normalize(P(1, 0, 0, 1, 0, 0, 1), one_minus_power(3) ** 3)

    def full_series(self):
        return normalize(P(1, 0, 0, -1, 0, 0, 1), one_minus_power(3) ** 3)

    def test_order3_subgroup(self):
        _, g2, _ = sklyanin_generators()
        group = closure([g2], cap=10)
        got = molien(group, assign_charpoly_traces(group))
        assert got == self.order3_series()
        alt = normalize(one_minus_power(6),
                        P(1, -1) * one_minus_power(2) * one_minus_power(3) ** 2)
        assert got == alt

    def test_every_order9_subgroup(self):
        group = closure(list(sklyanin_generators()), cap=30)
        for s in subgroups(group):
            if s.order != 9:
                continue
            got = molien(s, assign_charpoly_traces(s))
            assert got == self.order9_series()
            assert got == normalize(one_minus_power(9), one_minus_power(3) ** 4)

    def test_full_group(self):
        group = closure(list(sklyanin_generators()), cap=30)
        got = molien(group, assign_charpoly_traces(group))
        assert got == self.full_series()
        displayed = normalize(
            one_minus_power(18),
            one_minus_power(3) ** 2 * one_minus_power(6) * one_minus_power(9))
        assert got == displayed
        assert is_cyclotomic(got)
        assert gorenstein_symmetry(got).symmetric

    def test_scalar_subgroup_is_third_veronese(self):
        scalars = closure([CyclotomicMatrix([[z, 0, 0], [0, z, 0], [0, 0, z]])],
                          cap=10)
        got = molien(scalars, assign_charpoly_traces(scalars))
        assert got == normalize(P(1, 7, 1).inflated(3), one_minus_power(3) ** 3)
        assert not is_cyclotomic(got)

    def test_trivial_group_gives_identity_trace(self):
        group = closure([], dim=3)
        got = molien(group, assign_charpoly_traces(group))
        assert got == normalize(P(1), P(1, -1) ** 3)

    def test_nonnegative_integer_coefficients(self):
        group = closure(list(sklyanin_generators()), cap=30)
        for s in subgroups(group):
            series = expand(molien(s, assign_charpoly_traces(s)), 15)
            assert all(isinstance(c, int) and c >= 0 for c in series)

    def test_wrong_assignment_is_rejected(self):
        # a trace that cannot belong to the group leaves the sum irrational
        neg = CyclotomicMatrix([[-1, 0], [0, -1]])
        group = closure([neg], cap=5)
        good = reciprocal_charpoly_trace(group.elements[0])
        bad = FieldFraction.reciprocal([1, -z])
        assignment = TraceAssignment(group, (good, bad),
                                     (PROVENANCE_USER,) * 2)
        with pytest.raises(NonRationalResultError):
            molien(group, assignment)


def pairwise_molien(group, assignment):
    """The Molien sum as reduced rational functions added pairwise over
    Q(zeta_N), each with its gcd: the oracle for the common-denominator sum."""
    counts = {}
    for f in assignment.traces:
        counts[f] = counts.get(f, 0) + 1
    total = reduce(operator.add, (f * Fraction(k, group.order)
                                  for f, k in counts.items()))
    return total.to_rational_function()


def random_monomial_group(rng, N, dim, cap=48):
    """A closure of one or two random monomial matrices over Q(zeta_N) (a
    permutation matrix times a diagonal of N-th roots of unity) with at
    most ``cap`` elements."""
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = rng.sample(range(dim), dim)
            rows = [[0] * dim for _ in range(dim)]
            for j in range(dim):
                rows[perm[j]][j] = CyclotomicNumber.zeta(N, rng.randrange(N))
            gens.append(CyclotomicMatrix(rows))
        try:
            return closure(gens, cap=cap)
        except CapExceededError:
            continue


def brute_force_group(dim, matrix):
    """The group of ``matrix`` on the (-1)-skew space in ``dim`` variables,
    with brute-force traces reconstructed from a cutoff-12 truncation."""
    trunc = build_truncation(quantum_affine(skew_symmetric_q(dim)), 12)
    group = closure([CyclotomicMatrix(matrix)], cap=10)
    traces = tuple(reconstruct(brute_force_trace(g, trunc), 0, dim)
                   for g in group.elements)
    return group, TraceAssignment(group, traces,
                                  (PROVENANCE_BRUTE_FORCE,) * group.order)


class TestMolienCommonDenominator:
    def test_matches_pairwise_oracle_on_monomial_groups(self):
        rng = random.Random(97)
        for N in (2, 3, 4, 6):
            for dim in (2, 3, 4):
                group = random_monomial_group(rng, N, dim)
                assignment = assign_charpoly_traces(group)
                got = molien(group, assignment)
                assert got == pairwise_molien(group, assignment), (N, dim)

    def test_brute_force_traces_divide_the_common_denominator(self):
        # the mystic quasi-bireflection: every trace denominator divides
        # (1 - t^4)^3
        group, assignment = brute_force_group(
            3, [[0, -1, 0], [1, 0, 0], [0, 0, -1]])
        got = molien(group, assignment)
        want = normalize(one_minus_power(6),
                         one_minus_power(2) ** 3 * one_minus_power(3))
        assert got == want == pairwise_molien(group, assignment)

    def test_brute_force_trace_outside_the_common_denominator(self):
        # the double swap has order 2, but its trace 1/(1 + t^2)^2 on the
        # (-1)-skew space has poles at the 4th roots of unity, so it does not
        # divide (1 - t^2)^4
        group, assignment = brute_force_group(
            4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        got = molien(group, assignment)
        want = normalize(P(1, -2, 4, -2, 1), P(1, -1) ** 4 * P(1, 0, 1) ** 2)
        assert got == want == pairwise_molien(group, assignment)

    def test_common_denominator_widened_over_the_cyclotomic_field(self):
        # g = [[0, z], [1, 0]] on the (-1)-skew plane has order 6, and three
        # of its distinct brute-force traces have poles outside (1 - t^6)^2,
        # two of them at irrational points, so the widened common
        # denominator lies over Q(zeta_3) until the conjugate factor joins it
        group, assignment = brute_force_group(2, [[0, z], [1, 0]])
        common = one_minus_power(6) ** 2
        outside = {f for f in assignment.traces
                   if series_quotient(f.num * common, f.den) is None}
        assert outside == {RationalFunction.reciprocal(P(1, 0, c))
                           for c in (1, z, z ** 2)}
        got = molien(group, assignment)
        want = normalize(P(1, 0, 0, 0, 0, 0, 1, 0, 0, 1),
                         P(1, 0, 0, -2, 0, 0, 2, 0, 0, -2, 0, 0, 1))
        assert got == want == pairwise_molien(group, assignment)

    def test_only_the_reduced_sum_need_be_rational(self):
        # g = swap + z on the (-1)-skew 3-space: the first trace outside
        # (1 - t^6)^3 is 1/((1 + t^2)(1 - z t)), whose gcd with it is the
        # monic t - z^2, so the widened denominator and the running sum both
        # keep the scalar -z; the reduced sum is rational all the same
        group, assignment = brute_force_group(
            3, [[0, 1, 0], [1, 0, 0], [0, 0, z]])
        got = molien(group, assignment)
        want = normalize(P(1, -1, 1), P(1, -2, 2, -3, 3, -2, 2, -1))
        assert got == want == pairwise_molien(group, assignment)


class TestMultiplicationTable:
    def element_order(self, m):
        identity = CyclotomicMatrix.identity(m.dim)
        k, power = 1, m
        while power != identity:
            k, power = k + 1, power * m
        return k

    def check(self, group):
        table = group.multiplication_table()
        assert len(table) == group.order
        for a, x in enumerate(group.elements):
            assert table[a] == tuple(group.index_of(x * y)
                                     for y in group.elements)
        assert group.exponent() == lcm(*(self.element_order(m)
                                         for m in group.elements))

    def test_closure_built(self):
        self.check(closure(list(sklyanin_generators()), cap=30))
        self.check(closure([mystic_matrix()], cap=10))
        # S_3 as permutation matrices: exponent 6, no element of order 6
        swap = CyclotomicMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        _, cycle, _ = sklyanin_generators()
        s3 = closure([swap, cycle], cap=10)
        assert s3.order == 6 and s3.exponent() == 6
        self.check(s3)
        self.check(random_monomial_group(random.Random(5), 6, 3))

    def test_closure_and_table_make_each_product_once(self, monkeypatch):
        # closure computes every element * generator; the table reuses them
        calls = []
        product = CyclotomicMatrix.__mul__

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(CyclotomicMatrix, "__mul__", counting)
        swap = CyclotomicMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        _, cycle, _ = sklyanin_generators()
        for gens in (list(sklyanin_generators()), [mystic_matrix()],
                     [swap, cycle]):
            calls.clear()
            group = closure(gens, cap=30)
            group.multiplication_table()
            assert len(calls) == group.order * len(gens)

    def test_subgroup_built(self):
        group = closure(list(sklyanin_generators()), cap=30)
        subs = subgroups(group)
        for s in subs:
            self.check(s)
        nine = next(s for s in subs if s.order == 9)
        self.check(nine.subgroup(nine.subset_closure({1})))

    def test_trivial(self):
        group = closure([], dim=3)
        assert group.multiplication_table() == ((0,),)
        assert group.exponent() == 1

    def test_generators_must_generate(self):
        group = closure([mystic_matrix()], cap=10)
        with pytest.raises(ValueError):
            MatrixGroup(group.elements, []).multiplication_table()


def matrix_closure(group, seeds):
    """The indices of the subgroup the seed elements generate, found by
    multiplying the matrices in pairs until the set is closed: an oracle
    for ``subset_closure`` that reads no multiplication table."""
    members = {group.elements[0]} | {group.elements[i] for i in seeds}
    new = set(members)
    while new:
        products = {x for a in new for b in members for x in (a * b, b * a)}
        new = products - members
        members |= new
    return frozenset(group.index_of(m) for m in members)


class TestSubsetClosure:
    def groups(self):
        # seed 44 gives orders 24, 18, 3 and 6; the first two are not abelian
        rng = random.Random(44)
        yield closure(list(sklyanin_generators()), cap=30)
        for N, dim in ((2, 3), (3, 2), (4, 3), (6, 2)):
            yield random_monomial_group(rng, N, dim, cap=24)

    def test_against_matrix_products_oracle(self):
        rng = random.Random(43)
        for group in self.groups():
            seeds = [{i} for i in range(group.order)]
            for size in (2, 3):
                seeds += [set(rng.sample(range(group.order), size))
                          for _ in range(6) if group.order >= size]
            for seed in seeds:
                got = group.subset_closure(seed)
                assert got == matrix_closure(group, seed), (group.order, seed)
                assert got == group.subset_closure(seed | {0})

    def test_subgroup_of_a_subgroup(self):
        group = closure(list(sklyanin_generators()), cap=30)
        nine = next(s for s in subgroups(group) if s.order == 9)
        for i in range(nine.order):
            assert nine.subset_closure({i}) == matrix_closure(nine, {i})


class TestMolienOncePerAssignment:
    """molien keeps its sum on the assignment; classify_group reads it."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """The number of series_quotient calls, one per distinct trace of
        each common-denominator sum."""
        calls = []
        original = groups.series_quotient

        def spy(p, d):
            calls.append(None)
            return original(p, d)
        monkeypatch.setattr(groups, "series_quotient", spy)
        return calls

    def test_classify_group_after_molien_sums_once(self, sums):
        group = closure(list(sklyanin_generators()), cap=30)
        assignment = assign_charpoly_traces(group)
        series = molien(group, assignment)
        once = len(sums)
        assert once == len(set(assignment.traces))
        report = classify_group(group, assignment, 3)
        assert len(sums) == once
        assert report.hilbert_series == series
        # a fresh assignment of the same traces is summed again
        fresh = assign_charpoly_traces(group)
        assert classify_group(group, fresh, 3).hilbert_series == series
        assert len(sums) == 2 * once

    def test_another_group_object_is_summed_afresh(self, sums):
        group = closure(list(sklyanin_generators()), cap=30)
        twin = closure(list(sklyanin_generators()), cap=30)
        assignment = assign_charpoly_traces(group)
        series = molien(twin, assignment)
        once = len(sums)
        assert molien(group, assignment) == series
        assert molien(twin, assignment) == series
        assert molien(group, assignment) == series
        assert len(sums) == 3 * once

    def test_a_failed_sum_is_not_kept(self):
        neg = CyclotomicMatrix([[-1, 0], [0, -1]])
        group = closure([neg], cap=5)
        good = reciprocal_charpoly_trace(group.elements[0])
        bad = FieldFraction.reciprocal([1, -z])
        assignment = TraceAssignment(group, (good, bad),
                                     (PROVENANCE_USER,) * 2)
        for _ in range(2):
            with pytest.raises(NonRationalResultError):
                molien(group, assignment)


class TestClassifyOncePerValue:
    """classify_series factors num and den once each, and classify_group
    classifies the pole of each distinct trace value once."""

    def test_classify_series_factors_num_and_den_once(self, monkeypatch):
        calls = spy_calls(monkeypatch, cyclotomic, "factor_cyclotomic")
        for f in (normalize(P(1), one_minus_power(1) ** 3),
                  normalize(P(1, 0, 1), P(1, -1, 1) * one_minus_power(2)),
                  normalize(P(1, 3, 1), P(1, -1) ** 2)):
            calls.clear()
            report = classify_series(f)
            assert calls == [(f.num,), (f.den,)]
            # the shared factorizations give what each function gives alone
            cyc = cyc_number(f)
            assert report.is_cyclotomic == is_cyclotomic(f)
            assert report.cyc_number == (cyc[0] if cyc else None)

    def test_classify_group_classifies_each_distinct_trace_once(
            self, monkeypatch):
        calls = spy_calls(monkeypatch, groups, "classify_pole")
        for gens in (sklyanin_generators(), [mystic_matrix()]):
            group = closure(list(gens), cap=30)
            assignment = assign_charpoly_traces(group)
            calls.clear()
            report = classify_group(group, assignment, 3)
            distinct = list(dict.fromkeys(assignment.traces))
            assert calls == [(f, 3) for f in distinct]
            assert report.pole_orders == tuple(
                f.pole_order_at_one() for f in assignment.traces)


class TestHdet:
    def test_mystic_example(self):
        trace = normalize(P(1), P(1, 1) * one_minus_power(2))
        assert hdet(trace, 3, 3) == 1

    def test_identity_trace(self):
        for d in (2, 3, 4, 5):
            trace = normalize(P(1), P(1, -1) ** d)
            assert hdet(trace, d, d) == 1

    def test_diagonal_eigenvalues(self):
        lams = [z, z ** 2, 1]
        # build prod (1 - lam t) directly
        prod = [1]
        for lam in lams:
            nxt = [0] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i] = nxt[i] + c
                nxt[i + 1] = nxt[i + 1] - c * lam
            prod = nxt
        trace = FieldFraction.reciprocal(prod)
        det = lams[0] * lams[1] * lams[2]
        assert hdet(trace, 3, 3) == det == 1

    def test_sklyanin_all_trivial(self):
        group = closure(list(sklyanin_generators()), cap=30)
        assignment = assign_charpoly_traces(group)
        for i in range(group.order):
            assert hdet(assignment[i], 3, 3) == 1

    def test_index_mismatch(self):
        trace = normalize(P(1), P(1, -1) ** 3)
        with pytest.raises(IndexMismatchError):
            hdet(trace, 3, 4)


class TestClassifyPole:
    def test_mystic_quasi_bireflection(self):
        trace = normalize(P(1), P(1, 1) * one_minus_power(2))
        got = classify_pole(trace, 3)
        assert got.pole_order == 1
        assert got.verdict == VERDICT_QUASI_BIREFLECTION

    def test_classical_bireflection_is_not_quasi(self):
        trace = normalize(P(1), P(1, 0, 1) ** 2)
        got = classify_pole(trace, 4)
        assert got.pole_order == 0
        assert got.verdict == VERDICT_NEITHER

    def test_scalar_cyclotomic_trace(self):
        s = CyclotomicMatrix([[z, 0, 0], [0, z, 0], [0, 0, z]])
        got = classify_pole(reciprocal_charpoly_trace(s), 3)
        assert got.pole_order == 0
        assert got.verdict == VERDICT_NEITHER

    def test_identity_full(self):
        trace = normalize(P(1), P(1, -1) ** 3)
        assert classify_pole(trace, 3).verdict == VERDICT_FULL

    def test_invariant_under_unit_multiplier(self):
        trace = normalize(P(1), P(1, 1) * one_minus_power(2))
        factor = normalize(P(1, 1, 1), P(1, 2))  # no zero or pole at t = 1
        scaled = trace * factor
        assert classify_pole(scaled, 3).pole_order == \
            classify_pole(trace, 3).pole_order


class TestGeneratedByQuasiBireflections:
    def test_full_group_true(self):
        group = closure(list(sklyanin_generators()), cap=30)
        verdict, witnesses = generated_by_quasi_bireflections(
            group, pole_classifications(assign_charpoly_traces(group), 3))
        assert verdict
        assert len(witnesses) == 25  # identity + 24 quasi-bireflections

    def test_scalar_subgroup_false(self):
        scalars = closure([CyclotomicMatrix([[z, 0, 0], [0, z, 0], [0, 0, z]])],
                          cap=10)
        verdict, witnesses = generated_by_quasi_bireflections(
            scalars, pole_classifications(assign_charpoly_traces(scalars), 3))
        assert not verdict
        assert witnesses == [0]

    def test_trivial_true(self):
        group = closure([], dim=3)
        verdict, _ = generated_by_quasi_bireflections(
            group, pole_classifications(assign_charpoly_traces(group), 3))
        assert verdict

    def test_generation_matches_cyclotomicity_on_all_subgroups(self):
        group = closure(list(sklyanin_generators()), cap=30)
        for s in subgroups(group):
            if s.order == 1:
                continue
            assignment = assign_charpoly_traces(s)
            verdict, _ = generated_by_quasi_bireflections(
                s, pole_classifications(assignment, 3))
            scalar_only = all(
                shape(m) == "diagonal" and len({x for x in m.diagonal()}) == 1
                for m in s.elements)
            assert verdict == (not scalar_only)
            fixed = molien(s, assignment)
            assert is_cyclotomic(fixed) == verdict


class TestClassicalBireflection:
    def test_double_swap(self):
        g = CyclotomicMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]])
        assert classical_bireflection_rank(g) == (2, True)

    def test_mystic_matrix_is_not(self):
        assert classical_bireflection_rank(mystic_matrix()) == (3, False)

    def test_identity(self):
        assert classical_bireflection_rank(CyclotomicMatrix.identity(4)) == (0, True)

    def test_agrees_with_pole_verdict_for_diagonal_matrices(self):
        # on a diagonal matrix both notions count eigenvalues different from 1
        import random

        rng = random.Random(41)
        z12 = CyclotomicNumber.zeta(12)
        for _ in range(25):
            d = rng.randint(2, 5)
            lams = [z12 ** rng.randrange(12) for _ in range(d)]
            rows = [[lams[i] if i == j else 0 for j in range(d)]
                    for i in range(d)]
            g = CyclotomicMatrix(rows)
            rank, is_bireflection = classical_bireflection_rank(g)
            verdict = classify_pole(reciprocal_charpoly_trace(g), d).verdict
            assert (verdict != VERDICT_NEITHER) == is_bireflection


class TestHdetDiagonalDeterminant:
    def test_irrational_determinant(self):
        z = CyclotomicNumber.zeta(3)
        g = CyclotomicMatrix([[z, 0, 0], [0, z, 0], [0, 0, 1]])
        h = hdet(reciprocal_charpoly_trace(g), 3, 3)
        assert h == z ** 2  # the product of the eigenvalues

    def test_random_diagonal_matches_determinant(self):
        import random

        rng = random.Random(43)
        z12 = CyclotomicNumber.zeta(12)
        for _ in range(15):
            lams = [z12 ** rng.randrange(12) for _ in range(3)]
            rows = [[lams[i] if i == j else 0 for j in range(3)]
                    for i in range(3)]
            g = CyclotomicMatrix(rows)
            det = lams[0] * lams[1] * lams[2]
            h = hdet(reciprocal_charpoly_trace(g), 3, 3)
            assert h == det and type(h) is type(det)
