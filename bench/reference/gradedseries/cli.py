"""Command-line front end.

Subcommands mirror the scenario task kinds; ``run`` executes a scenario file
and exits 1 when an embedded expected result fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclotomic import cyc_number, gorenstein_symmetry, is_cyclotomic
from .exact import NonUnitConstantError
from .groups import (
    CapExceededError,
    assign_charpoly_traces,
    classical_bireflection_rank,
    closure,
    molien,
    subgroups,
)
from .hilbert import veronese_section
from .reports import classify_series, report_payload
from .scenario import (
    ParseError,
    Ref,
    Scenario,
    ScenarioExecutionError,
    UndeclaredInputError,
    _Runner,
    parse_matrix_literal,
    parse_scenario,
    parse_series_literal,
    run_scenario,
)

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    print(f"{indent}{k}:")
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, dict):
                    walk(item, indent)
                    print()
                else:
                    print(f"{indent}- {_flat(item)}")
    walk(payload)


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return v


def _series_arg(text, zeta_order):
    return parse_series_literal(text, zeta_order)


def _matrices_arg(texts, zeta_order):
    return [parse_matrix_literal(m, zeta_order) for m in texts]


def _algebra_arg(text):
    scenario = parse_scenario(f"let A = algebra {text}\n")
    return scenario.bindings["A"][1]


def _scenario_with(bindings, zeta_order):
    scenario = Scenario(zeta_order=zeta_order)
    scenario.bindings.update(bindings)
    return scenario


def cmd_classify(args):
    f = _series_arg(args.series, args.zeta_order)
    payload = report_payload(classify_series(f))
    _emit(payload, args.json)
    return EXIT_OK


def cmd_cyc(args):
    f = _series_arg(args.series, args.zeta_order)
    got = cyc_number(f)
    if got is None:
        payload = {"cyc_number": None, "profile": None}
    else:
        m, profile = got
        payload = {"cyc_number": m,
                   "profile": {str(a): e for a, e in sorted(profile.factors.items())}}
    payload["cyclotomic"] = is_cyclotomic(f)
    payload["gorenstein_symmetric"] = gorenstein_symmetry(f).symmetric
    _emit(payload, args.json)
    return EXIT_OK


def cmd_veronese(args):
    f = _series_arg(args.series, args.zeta_order)
    section = veronese_section(f, args.stride, args.num_bound, args.den_bound)
    payload = {
        "stride": args.stride,
        "section": str(section),
        "ambient_section": str(section.inflated(args.stride)),
        "cyclotomic": is_cyclotomic(section),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_molien(args):
    gens = _matrices_arg(args.matrix, args.zeta_order)
    group = closure(gens, cap=args.cap, order=args.zeta_order)
    series = molien(group, assign_charpoly_traces(group))
    payload = report_payload(classify_series(series))
    payload["group_order"] = group.order
    _emit(payload, args.json)
    return EXIT_OK


def cmd_subgroups(args):
    gens = _matrices_arg(args.matrix, args.zeta_order)
    group = closure(gens, cap=args.cap, order=args.zeta_order)
    subs = subgroups(group)
    payload = {
        "group_order": group.order,
        "count": len(subs),
        "orders": sorted(s.order for s in subs),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_bireflection(args):
    [g] = _matrices_arg([args.matrix], args.zeta_order)
    rank, verdict = classical_bireflection_rank(g)
    _emit({"rank": rank, "classical_bireflection": verdict}, args.json)
    return EXIT_OK


def cmd_trace(args):
    runner = _Runner(_scenario_with({
        "A": ("algebra", _algebra_arg(args.algebra)),
        "g": ("matrix", parse_matrix_literal(args.matrix, args.zeta_order)),
    }, args.zeta_order))
    task_args = {"algebra": Ref("A"), "matrix": Ref("g"),
                 "truncation": args.truncation}
    if args.num_bound is not None:
        task_args["num_bound"] = args.num_bound
    if args.den_bound is not None:
        task_args["den_bound"] = args.den_bound
    payload = runner.run_trace(task_args)
    _emit(payload, args.json)
    return EXIT_OK


def cmd_betti(args):
    runner = _Runner(_scenario_with(
        {"A": ("algebra", _algebra_arg(args.algebra))}, args.zeta_order))
    payload = runner.run_betti({"algebra": Ref("A"),
                                "truncation": args.truncation})
    _emit(payload, args.json)
    return EXIT_OK


def cmd_run(args):
    with open(args.scenario, "r", encoding="utf-8") as handle:
        text = handle.read()
    scenario = parse_scenario(text)
    reports, passed = run_scenario(scenario)
    payload = {"scenario": scenario.name, "reports": reports}
    _emit(payload, args.json)
    return EXIT_OK if passed else EXIT_EXPECTATION_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedseries",
        description="Exact Hilbert-series computations: Veronese sections, "
                    "Molien sums, cyclotomic classification, Betti tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--zeta-order", type=int, default=1,
                       help="order of the primitive root available as z")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")

    p = sub.add_parser("classify", help="cyclotomic/Gorenstein verdicts of a series")
    p.add_argument("series")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cyc", help="minimal binomial numerator count")
    p.add_argument("series")
    common(p)
    p.set_defaults(func=cmd_cyc)

    p = sub.add_parser("veronese", help="closed form of the r-section")
    p.add_argument("series")
    p.add_argument("-r", "--stride", type=int, required=True)
    p.add_argument("--num-bound", type=int, default=None)
    p.add_argument("--den-bound", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("molien", help="invariant Hilbert series of a matrix group")
    p.add_argument("--matrix", action="append", required=True,
                   help="generator, e.g. '[[0,z,0],[0,0,z^2],[1,0,0]]'")
    p.add_argument("--cap", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_molien)

    p = sub.add_parser("subgroups", help="subgroup inventory of a small group")
    p.add_argument("--matrix", action="append", required=True)
    p.add_argument("--cap", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("bireflection", help="rank(g - I) test")
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=cmd_bireflection)

    p = sub.add_parser("trace", help="brute-force trace series of a matrix action")
    p.add_argument("--algebra", required=True,
                   help="algebra literal, e.g. "
                        "'{ kind: quantum_affine, degrees: [1,1,1], "
                        "q: [[1,-1,-1],[-1,1,-1],[-1,-1,1]] }'")
    p.add_argument("--matrix", required=True)
    p.add_argument("--truncation", type=int, default=12)
    p.add_argument("--num-bound", type=int, default=None)
    p.add_argument("--den-bound", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("betti", help="minimal free resolution Betti numbers")
    p.add_argument("--algebra", required=True)
    p.add_argument("--truncation", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    common(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UndeclaredInputError, ScenarioExecutionError,
            NonUnitConstantError, CapExceededError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
