"""Seeded inputs, jobs and oracles of the three benchmark workloads.

Every workload is a fixed list of slots.  A slot fixes what sets a job's
cost (algebra size and cutoff, group order, number of distinct traces,
truncation dimension); the seed chooses everything else (signs, q
parameters, which permutation, which roots of unity, which relation words).
So every seed costs about the same, and the seed still changes the inputs.

A job is one closed-loop call into the library; its oracle runs afterwards,
outside the job's timer.  When a build_* function is given the frozen
reference package (see run.py), each job also gets the same call on that
package, on equal inputs built with it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from functools import cache, partial
from math import comb, gcd
from typing import Callable, Optional

import gradedseries as gs
from gradedseries import cli


@dataclass
class Job:
    label: str                         # job kind, for the per-kind report
    run: Callable[[], object]          # timed
    check: Callable[[object], list]    # untimed; returns failure messages
    reference: Optional[Callable[[], object]] = None  # run on the reference


def _lcm(a, b):
    return a * b // gcd(a, b)


# ------------------------------------------------------------ integer polys
# Independent of the library: used to write expected values into generated
# scenarios and to check results.

def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_exact(a, b):
    a = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + len(b) - 1] // b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return quot


@cache
def _cyclotomic(m):
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _pdiv_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _poly_text(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}{mono}")
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------- scenarios

# (generators, q kind, action, target order or root-of-unity order).  The
# cutoff is 2n + 2, the smallest that pins a degree-n denominator.
#
# Each workload has 30 jobs, and the benchmark reports order statistics of
# their times: the median (mean of the 15th and 16th) and the tail (the 20th,
# with ten beyond it).  So the slots of every workload form cost clusters of
# jobs whose cost does not depend on the seed: six that hold the median
# (positions 13-18), six that hold the tail (19-24), cheaper jobs below and
# heavier ones above.  An order statistic inside such a cluster moves by the
# noise only, not by the gap to the next cluster or by the seed.
#
# Here, with the six bundled files: twelve cheap jobs; five diagonal
# 2-generator jobs and the bundled Veronese file hold the median; six
# diagonal 2-generator jobs over Q(zeta_6) hold the tail; three 3-generator
# jobs and the three heaviest bundled files lie above.  On two generators the
# skew q is forced, so those jobs cost the same on every seed.
SCENARIO_SLOTS = (
    (2, "skew", "perm", 2),
    (2, "skew", "perm", 2),
    (2, "skew", "perm", 4),
    (2, "skew", "perm", 4),
    (2, "skew", "perm", 4),
    (2, "commutative", "perm", 4),
    (2, "commutative", "perm", 4),
    (2, "skew", "diag", 3),
    (2, "skew", "diag", 3),
    (2, "skew", "diag", 3),
) + ((2, "skew", "diag", 4),) * 5 + ((2, "skew", "diag", 6),) * 6 + (
    (3, "skew", "perm", 3),
    (3, "skew", "perm", 3),
    (3, "skew", "perm", 4),
)


def _random_q(rng, n, kind):
    q = [[1] * n for _ in range(n)]
    if kind == "commutative":
        return q
    while True:
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = q[j][i] = rng.choice((1, -1))
        if any(q[i][j] == -1 for i in range(n) for j in range(n)):
            return q


def _cycles(perm):
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        cycles.append(cycle)
    return cycles


def _signed_perm(rng, q, order):
    """A random q-preserving signed permutation of the given order, with
    det(I - t g) as the product over its cycles of (1 - (sign product)
    t^length); None when q admits none."""
    n = len(q)
    found = []
    for perm in itertools.permutations(range(n)):
        if any(q[perm[i]][perm[j]] != q[i][j]
               for i in range(n) for j in range(n)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            got, det = 1, [1]
            for cycle in _cycles(perm):
                s = 1
                for j in cycle:
                    s *= signs[j]
                got = _lcm(got, len(cycle) * (1 if s == 1 else 2))
                det = _pmul(det, [1] + [0] * (len(cycle) - 1) + [-s])
            if got == order:
                found.append((perm, signs, det))
    return rng.choice(found) if found else None


def _diagonal(rng, n, root_order):
    """Exponents of a diagonal action by N-th roots of unity whose eigenvalue
    multiset is closed under Galois conjugation (so traces stay rational):
    one conjugate pair zeta^a, zeta^-a of exact order N, then signs."""
    N = root_order
    if N == 2:
        while True:
            exps = [rng.choice((0, 1)) for _ in range(n)]
            if any(exps):
                break
    else:
        a = rng.choice([k for k in range(1, N) if gcd(k, N) == 1])
        exps = [a, N - a] + [rng.choice((0, N // 2)) if N % 2 == 0 else 0
                             for _ in range(n - 2)]
        rng.shuffle(exps)
    det = [1]
    orders = [N // gcd(e, N) for e in exps]
    for m in sorted(set(orders)):
        count = orders.count(m)
        phi = len(_cyclotomic(m)) - 1
        factor = [1, -1] if m == 1 else _cyclotomic(m)
        for _ in range(count // phi):
            det = _pmul(det, factor)
    return exps, det


def _matrix_text(entries):
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in entries) + "]"


def _scenario_text(title, q, g_entries, zeta_order, order, det, with_trace_expect):
    n = len(q)
    bound = f"truncation={2 * n + 2} den_bound={n}"
    lines = [f"name: {title}"]
    if zeta_order > 2:
        lines.append(f"zeta_order: {zeta_order}")
    lines.append("let B = algebra { kind: quantum_affine, degrees: ["
                 + ", ".join("1" * n) + "], q: "
                 + _matrix_text([[str(x) for x in row] for row in q]) + " }")
    lines.append(f"let g = matrix {_matrix_text(g_entries)}")
    lines.append(f"task trace algebra=B matrix=g {bound}")
    if with_trace_expect:
        lines.append(f'  expect closed_form="1 / ({_poly_text(det)})"')
    lines.append(f"task closure name=cg generators=[g] cap={order}")
    lines.append(f"  expect order={order}")
    lines.append(f"task molien group=cg traces=bruteforce algebra=B {bound}")
    lines.append(f"task classify group=cg traces=bruteforce algebra=B {bound} "
                 f"gk={n}")
    return "\n".join(lines) + "\n"


def _slot_label(slot):
    n, q_kind, action, target = slot
    return f"{q_kind[:4]}-{action}-{target}-n{n}"


def _generate_scenario(rng, slot, seed):
    n, q_kind, action, target = slot
    while True:
        q = _random_q(rng, n, q_kind)
        if action == "perm":
            found = _signed_perm(rng, q, target)
            if found is None:
                continue
            perm, signs, det = found
            entries = [["0"] * n for _ in range(n)]
            for j in range(n):
                entries[perm[j]][j] = str(signs[j])
            zeta_order, order = 1, target
        else:
            exps, det = _diagonal(rng, n, target)
            entries = [["0"] * n for _ in range(n)]
            for i, e in enumerate(exps):
                if target == 2:
                    entries[i][i] = "-1" if e else "1"
                else:
                    entries[i][i] = "1" if e == 0 else f"z^{e}"
            zeta_order = target
            order = 1
            for e in exps:
                order = _lcm(order, target // gcd(e, target))
        oracle = q_kind == "commutative" or action == "diag"
        text = _scenario_text(f"{_slot_label(slot)} seed {seed}", q, entries,
                              zeta_order, order, det, oracle)
        return text, oracle


SERIES_DEGREES = 12     # coefficients a Molien series oracle checks


def _hilbert_failures(series, degrees):
    """A Hilbert series of invariants has H(0) = 1 and nonnegative integer
    coefficients; returns failures and the coefficients up to degrees."""
    coeffs = list(gs.expand(series, degrees))
    failures = []
    if coeffs[0] != 1:
        failures.append(f"H(0) = {coeffs[0]}")
    if any(not isinstance(c, int) or c < 0 for c in coeffs):
        failures.append(f"coefficients {coeffs} are not counts")
    return failures, coeffs


def _generated_series_failures(reports, zeta_order):
    """The molien report of a generated file is a Molien series in Q(t); the
    classify report, from the same brute-force traces, has the same series."""
    [molien] = [r for r in reports if r["task"] == "molien"]
    [classify] = [r for r in reports if r["task"] == "classify"]
    try:
        series = gs.parse_series_literal(molien["series"], zeta_order)
        other = gs.parse_series_literal(classify["series"], zeta_order)
    except ValueError as exc:    # not in Q(t), or H(0) is not a unit
        return [f"series {molien['series']} / {classify['series']}: {exc}"]
    failures, _ = _hilbert_failures(series, SERIES_DEGREES)
    if other != series:
        failures.append(f"classify series {classify['series']} differs from "
                        f"the Molien series {molien['series']}")
    return failures


def _run_file(cli_module, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_module.main(["run", path, "--json"])
    return code, out.getvalue()


def _scenario_job(label, path, scenario, ref, generated=False,
                  trace_cutoff=None):
    """generated: the file is one of _scenario_text's, so its molien and
    classify reports are checked too.  trace_cutoff: when given, the trace
    task's coefficients up to it must expand 1/det(I - t g) (commutative
    space or diagonal action)."""
    expected = []

    def check(result):
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        reports = json.loads(text)["reports"]
        failures = []
        if len(reports) != len(scenario.tasks):
            failures.append(f"{len(reports)} reports for "
                            f"{len(scenario.tasks)} tasks")
        failures += [f"line {r['line']}: {r.get('failures')}"
                     for r in reports if r["passed"] is False]
        if generated:
            failures += _generated_series_failures(reports, scenario.zeta_order)
        if trace_cutoff is not None:
            if not expected:
                g = scenario.bindings["g"][1]
                series = gs.expand(gs.reciprocal_charpoly_trace(g),
                                   trace_cutoff)
                expected.append([c if isinstance(c, int) else str(c)
                                 for c in series])
            [trace] = [r for r in reports if r["task"] == "trace"]
            if trace["coefficients"] != expected[0]:
                failures.append("brute-force trace differs from the "
                                "expansion of 1/det(I - t g)")
        return failures

    return Job(label, partial(_run_file, cli, path), check,
               partial(_run_file, ref.cli, path) if ref else None)


def build_scenarios(seed, root, ref=None):
    rng = random.Random(seed)
    out_dir = os.path.join(root, ".bench_out", "scenarios", f"seed-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for name in gs.bundled_scenario_names():
        path = os.path.join(root, "src", "gradedseries", "scenarios", name)
        with open(path, encoding="utf-8") as handle:
            scenario = gs.parse_scenario(handle.read())
        jobs.append(_scenario_job(f"bundled:{name[:-4]}", path, scenario,
                                  ref))
    for index, slot in enumerate(SCENARIO_SLOTS):
        text, oracle = _generate_scenario(rng, slot, seed)
        label = _slot_label(slot)
        path = os.path.join(out_dir, f"{index:02d}-{label}.scn")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        jobs.append(_scenario_job(f"generated:{label}", path,
                                  gs.parse_scenario(text), ref, True,
                                  2 * slot[0] + 2 if oracle else None))
    return jobs


# --------------------------------------------------------------- invariants
# A monomial matrix over Q(zeta_N) is held as (perm, exps): column j is
# zeta^exps[j] times the unit vector perm[j].

# (root order N, dimension, diagonal?, generator count, group order,
#  distinct characteristic polynomials).  The order sets the subgroup search
# and the distinct charpolys set the Molien sum.  Clusters as for the
# scenarios: twelve cheap groups; six diagonal groups of order 8 over
# Q(zeta_4) that hold the median; twelve of order 12 over Q(zeta_6) that hold
# the tail and lie above it, no heavier, so that a pass is short and a run has
# many passes.  The cost of a diagonal slot hardly depends on the seed.
INVARIANT_SLOTS = (
    (2, 3, True, 2, 4, 3),
    (2, 3, True, 2, 4, 4),
    (2, 4, True, 2, 4, 3),
    (2, 4, True, 2, 4, 4),
    (3, 3, True, 1, 3, 3),
    (4, 3, True, 1, 4, 4),
    (6, 3, True, 1, 6, 4),
    (2, 3, True, 3, 8, 4),
    (2, 3, False, 1, 4, 3),
    (3, 3, False, 1, 3, 3),
    (4, 3, False, 1, 4, 4),
    (2, 3, False, 2, 8, 5),
) + ((4, 3, True, 2, 8, 6),) * 6 + ((6, 3, True, 2, 12, 6),) * 12

def _mono_mul(a, b, N):
    pa, ea = a
    pb, eb = b
    return (tuple(pa[j] for j in pb),
            tuple((eb[j] + ea[pb[j]]) % N for j in range(len(pb))))


def _mono_closure(gens, N, cap):
    n = len(gens[0][0])
    identity = (tuple(range(n)), (0,) * n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _mono_mul(x, g, N)
                if y not in seen:
                    if len(seen) == cap:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _charpoly_key(element, N):
    """det(I - t g) of a monomial matrix is the product over its cycles of
    (1 - zeta^(exponent sum) t^length); the multiset of those pairs is a key."""
    perm, exps = element
    return tuple(sorted((len(c), sum(exps[j] for j in c) % N)
                        for c in _cycles(perm)))


def _mono_matrix(pkg, element, N):
    perm, exps = element
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = pkg.CyclotomicNumber.zeta(N, exps[j]) if exps[j] else 1
    return pkg.CyclotomicMatrix(rows, N)


def _invariant_monomials(gens, N, n, top):
    """counts[d] = number of degree-d monomials fixed by a diagonal group."""
    counts = [0] * (top + 1)
    for d in range(top + 1):
        for exps in _compositions(d, n):
            if all(sum(e * x for e, x in zip(exps, g[1])) % N == 0
                   for g in gens):
                counts[d] += 1
    return counts


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _generate_group(rng, slot):
    N, n, diagonal, k, order, distinct = slot
    for attempt in range(20000):
        gens = []
        for _ in range(k):
            perm = tuple(range(n)) if diagonal else tuple(rng.sample(range(n), n))
            gens.append((perm, tuple(rng.randrange(N) for _ in range(n))))
        elements = _mono_closure(gens, N, order)
        if elements is None or len(elements) != order:
            continue
        if len({_charpoly_key(x, N) for x in elements}) == distinct:
            return gens
    raise RuntimeError(f"no group found for slot {slot}")


def _invariants_run(pkg, gens, N, n, order):
    matrices = [_mono_matrix(pkg, g, N) for g in gens]

    def run():
        group = pkg.closure(matrices, cap=order, order=N)
        subs = pkg.subgroups(group)
        assignment = pkg.assign_charpoly_traces(group)
        series = pkg.molien(group, assignment)
        report = pkg.classify_group(group, assignment, n)
        return group, subs, series, report
    return run


def _invariants_job(slot, gens, ref):
    N, n, diagonal, _, order, distinct = slot
    counts = _invariant_monomials(gens, N, n, SERIES_DEGREES) \
        if diagonal else None

    def check(result):
        group, subs, series, report = result
        failures = []
        if group.order != order:
            failures.append(f"group order {group.order}, expected {order}")
        sizes = sorted(s.order for s in subs)
        if sizes[0] != 1 or sizes[-1] != order or any(order % s for s in sizes):
            failures.append(f"subgroup orders {sizes} break Lagrange")
        if not isinstance(series, gs.RationalFunction):
            return failures + ["Molien series is not in Q(t)"]
        series_failures, coeffs = _hilbert_failures(series, SERIES_DEGREES)
        failures += series_failures
        if counts is not None and coeffs != counts:
            failures.append(f"coefficients {coeffs} differ from invariant "
                            f"monomial counts {counts}")
        if report.hilbert_series != series:
            failures.append("classify_group saw another Molien series")
        return failures

    label = (f"N{N}-dim{n}-{'diag' if diagonal else 'mono'}-order{order}"
             f"-charpolys{distinct}")
    return Job(label, _invariants_run(gs, gens, N, n, order), check,
               _invariants_run(ref, gens, N, n, order) if ref else None)


def build_invariants(seed, root, ref=None):
    rng = random.Random(seed)
    return [_invariants_job(slot, _generate_group(rng, slot), ref)
            for slot in INVARIANT_SLOTS]


# -------------------------------------------------------------- resolutions

# ("skew", generators, cutoff, None) or ("monomial", generators, cutoff,
# total-dimension window).  Monomial-quotient dimensions grow exponentially
# and the elimination work grows with them, so relation sets whose total
# dimension up to the cutoff leaves the window are redrawn: that keeps the
# work per seed within a fixed budget.  Clusters as for the scenarios: twelve
# cheap jobs; six skew spaces in 3 generators that hold the median and six in
# 4 generators that hold the tail (a skew space costs the same on every
# seed); six heavier jobs above, mostly monomial quotients.
RESOLUTION_SLOTS = (
    ("skew", 3, 5, None),
    ("skew", 3, 5, None),
    ("skew", 4, 4, None),
    ("skew", 4, 4, None),
) + (("monomial", 2, 8, (90, 130)), ("monomial", 3, 4, (100, 140))) * 4 \
  + (("skew", 3, 6, None),) * 6 + (("skew", 4, 5, None),) * 6 + (
    ("skew", 3, 8, None),
    ("skew", 3, 8, None),
    ("skew", 4, 6, None),
    ("monomial", 3, 6, (380, 440)),
    ("monomial", 3, 6, (380, 440)),
    ("monomial", 3, 6, (380, 440)),
)
NAMES = ("x", "y", "z", "w")


def _words(n, length):
    if length == 0:
        return [()]
    return [w + (i,) for w in _words(n, length - 1) for i in range(n)]


def _avoids(word, relations):
    return not any(word[k:k + len(r)] == r
                   for r in relations for k in range(len(word) - len(r) + 1))


def _monomial_dims(n, relations, cutoff, cap):
    """Dimensions per degree of k<x>/(relation words) up to the cutoff, or
    None once the total passes cap."""
    dims, layer = [1], [()]
    for _ in range(cutoff):
        layer = [w + (i,) for w in layer for i in range(n)
                 if _avoids(w + (i,), relations)]
        dims.append(len(layer))
        if sum(dims) > cap:
            return None
    return dims


def _minimal_relations(relations):
    return [r for r in relations
            if not any(s != r and len(s) <= len(r) and not _avoids(r, [s])
                       for s in relations)]


def _generate_resolution(rng, slot):
    """Returns (function making the presentation in a given package, dims,
    Betti table)."""
    kind, n, cutoff, window = slot
    if kind == "skew":
        q = _random_q(rng, n, "skew")
        betti = {(i, i): comb(n, i) for i in range(n + 1)}
        dims = [comb(n + d - 1, d) for d in range(cutoff + 1)]
        return lambda pkg: pkg.quantum_affine(q, NAMES[:n]), dims, betti
    lo, hi = window
    pool = _words(n, 2) + _words(n, 3)
    while True:
        relations = rng.sample(pool, rng.randint(n, 2 * n))
        if not any(len(r) == 3 for r in relations):
            continue
        dims = _monomial_dims(n, relations, cutoff, hi)
        if dims is None or sum(dims) < lo:
            continue
        betti = {(1, 1): n}
        for r in _minimal_relations(relations):
            betti[(2, len(r))] = betti.get((2, len(r)), 0) + 1
        return (lambda pkg: pkg.monomial_quotient(NAMES[:n], relations),
                dims, betti)


def _resolution_run(pkg, pres, cutoff):
    def run():
        trunc = pkg.build_truncation(pres, cutoff)
        table = pkg.betti_numbers(trunc)
        residual = pkg.euler_check(table, trunc.hilbert_coefficients(), cutoff)
        return trunc.dims(), table, residual
    return run


def _resolution_job(slot, make_pres, dims, betti, ref):
    kind, n, cutoff, _ = slot

    def check(result):
        got_dims, table, residual = result
        failures = []
        if any(residual):
            failures.append(f"Euler residual {list(residual)}")
        if got_dims != dims:
            failures.append(f"dims {got_dims}, expected {dims}")
        if kind == "skew":
            if table.entries != {(0, 0): 1, **betti}:
                failures.append(f"Betti table {table.entries} is not Koszul "
                                f"{betti}")
        else:
            low = {k: v for k, v in table.entries.items() if k[0] in (1, 2)}
            if low != betti:
                failures.append(f"rows 1-2 {low}, expected {betti}")
        return failures

    return Job(f"{kind}-{n}gen-cutoff{cutoff}",
               _resolution_run(gs, make_pres(gs), cutoff), check,
               _resolution_run(ref, make_pres(ref), cutoff) if ref else None)


def build_resolutions(seed, root, ref=None):
    rng = random.Random(seed)
    return [_resolution_job(slot, *_generate_resolution(rng, slot), ref)
            for slot in RESOLUTION_SLOTS]


JOB_LISTS = {
    "scenarios": build_scenarios,
    "invariants": build_invariants,
    "resolutions": build_resolutions,
}
