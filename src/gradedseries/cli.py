"""Command-line front end.

Every subcommand but ``run`` is a short scenario: it binds its ``--matrix``
and ``--algebra`` literals, runs one task (``molien`` and ``subgroups`` run a
``closure`` first) through ``run_scenario`` and prints that task's report,
so its output keys are those of the same-named scenario task.  ``run``
executes a scenario file.  Exit codes: 0 ok, 1 an embedded expected result
failed (``run``), 2 bad input.

``main`` parses with one parser, built on the first call and shared by every
later call in the process (``build_parser`` is cached): building it costs
more than most scenario files take to run.  Sharing is safe because
``parse_args`` never changes the parser.  Each call gets a fresh
``Namespace``; an ``append`` option starts from its default, not from the
last call's list; a subcommand parses into its own fresh namespace and copies
it over; and an argparse error reaches ``main`` as an exception, which
reports it on ``sys.stderr`` as looked up then, with the hint about literals
that start with '-' only when argparse read such a token as an option.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .scenario import (
    Lit,
    Ref,
    Scenario,
    ScenarioExecutionError,
    Task,
    parse_algebra_literal,
    parse_matrix_literal,
    parse_scenario,
    run_scenario,
)

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2

# argparse reads a literal such as "-t" as an option; "--" or "--opt=TEXT" avoids
# it.  The hint follows an argparse error only when some token was read so
DASH_HINT = "hint: write a literal that starts with '-' after '--' or as --opt=TEXT"
SERIES_HELP = ("series literal, e.g. '(1+t)^3/(1-t)^4'; "
               "put one that starts with '-' after '--'")
MATRIX_HELP = ("matrix literal, e.g. '[[0,z,0],[0,0,z^2],[1,0,0]]'; "
               "write one that starts with '-' as --matrix=TEXT")
ALGEBRA_HELP = ("algebra literal, e.g. '{ kind: quantum_affine, degrees: "
                "[1,1,1], q: [[1,-1,-1],[-1,1,-1],[-1,-1,1]] }'; "
                "write one that starts with '-' as --algebra=TEXT")


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


def _algebra_arg(text, args):
    return ("algebra", parse_algebra_literal(text, args.zeta_order))


def _matrix_arg(text, args):
    return ("matrix", parse_matrix_literal(text, args.zeta_order))


def _given(**task_args):
    """Task args without the unset options, so the runner's defaults apply."""
    return {k: v for k, v in task_args.items() if v is not None}


def _on_series(args):
    return {}, [Task(args.command, {"series": Lit(args.series, 1)})]


def _veronese(args):
    return {}, [Task("veronese", _given(
        series=Lit(args.series, 1), r=args.stride,
        num_bound=args.num_bound, den_bound=args.den_bound))]


def _on_group(args):
    bindings = {f"g{i}": _matrix_arg(text, args)
                for i, text in enumerate(args.matrix, start=1)}
    closure = _given(name=Ref("G"), generators=[Ref(n) for n in bindings],
                     cap=args.cap)
    return bindings, [Task("closure", closure),
                      Task(args.command, {"group": Ref("G")})]


def _bireflection(args):
    return ({"g": _matrix_arg(args.matrix, args)},
            [Task("bireflection", {"matrix": Ref("g")})])


def _trace(args):
    bindings = {"A": _algebra_arg(args.algebra, args),
                "g": _matrix_arg(args.matrix, args)}
    return bindings, [Task("trace", _given(
        algebra=Ref("A"), matrix=Ref("g"), truncation=args.truncation,
        num_bound=args.num_bound, den_bound=args.den_bound))]


def _betti(args):
    bindings = {"A": _algebra_arg(args.algebra, args)}
    return bindings, [Task("betti", _given(algebra=Ref("A"),
                                           truncation=args.truncation))]


def cmd_task(args):
    bindings, tasks = args.tasks(args)
    reports, _ = run_scenario(Scenario(zeta_order=args.zeta_order,
                                       bindings=bindings, tasks=tasks))
    payload = {k: v for k, v in reports[-1].items()
               if k not in ("task", "line", "passed")}
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


def _integer(text):
    """An integer option's value: ASCII digits after an optional '-', as a
    scenario file writes an integer (``int`` alone would read '٣' as 3).
    Its range is checked by the task that reads it."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}")
    return int(text)


def _positive(text):
    """The --zeta-order and --cap values: a positive int in ASCII digits, as
    in a scenario header and a closure task."""
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return int(text)


class _UsageError(Exception):
    """An argparse error: its message and the usage of the (sub)parser that
    met it."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors go to ``main`` as a ``_UsageError``, which
    reports them with an ``error:`` line, like every other input error of
    this CLI; the exit code stays 2."""

    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _option_strings(parser):
    """Every option string of the CLI, on any subcommand."""
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return frozenset(s for p in parsers for a in p._actions
                     for s in a.option_strings)


def _read_as_unknown_option(token, options):
    """Whether argparse reads ``token`` as an option that no subcommand has,
    as it reads a literal such as '-t' or '-1+t': a token of two or more
    characters that starts with '-', is no negative number, holds no space
    and, up to an '=', is neither an option, a prefix of a long option nor
    (for one dash) a short option with its value attached."""
    # argparse reads a negative number as no option when no option looks
    # like one
    if (len(token) < 2 or token[0] != "-" or " " in token
            or re.fullmatch(r"-\d+|-\d*\.\d+", token)):
        return False
    flag = token.split("=", 1)[0]
    if flag.startswith("--"):
        return not any(o.startswith(flag) for o in options)
    return flag not in options and flag[:2] not in options


@functools.cache
def build_parser():
    """The one parser of this process; callers must not change it."""
    parser = _Parser(
        prog="gradedseries",
        description="Exact Hilbert-series computations: Veronese sections, "
                    "Molien sums, cyclotomic classification, Betti tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--zeta-order", type=_positive, default=1,
                       help="order of the primitive root available as z")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")

    p = sub.add_parser("classify", help="cyclotomic/Gorenstein verdicts of a series")
    p.add_argument("series", help=SERIES_HELP)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_on_series)

    p = sub.add_parser("cyc", help="minimal binomial numerator count")
    p.add_argument("series", help=SERIES_HELP)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_on_series)

    p = sub.add_parser("veronese", help="closed form of the r-section")
    p.add_argument("series", help=SERIES_HELP)
    p.add_argument("-r", "--stride", type=_integer, required=True)
    p.add_argument("--num-bound", type=_integer, default=None)
    p.add_argument("--den-bound", type=_integer, default=None)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_veronese)

    p = sub.add_parser("molien", help="invariant Hilbert series of a matrix group")
    p.add_argument("--matrix", action="append", required=True,
                   help="generator " + MATRIX_HELP)
    p.add_argument("--cap", type=_positive, default=None)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_on_group)

    p = sub.add_parser("subgroups", help="subgroup inventory of a small group")
    p.add_argument("--matrix", action="append", required=True,
                   help="generator " + MATRIX_HELP)
    p.add_argument("--cap", type=_positive, default=None)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_on_group)

    p = sub.add_parser("bireflection", help="rank(g - I) test")
    p.add_argument("--matrix", required=True, help=MATRIX_HELP)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_bireflection)

    p = sub.add_parser("trace", help="brute-force trace series of a matrix action")
    p.add_argument("--algebra", required=True, help=ALGEBRA_HELP)
    p.add_argument("--matrix", required=True, help=MATRIX_HELP)
    p.add_argument("--truncation", type=_integer, default=None)
    p.add_argument("--num-bound", type=_integer, default=None)
    p.add_argument("--den-bound", type=_integer, default=None)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_trace)

    p = sub.add_parser("betti", help="minimal free resolution Betti numbers")
    p.add_argument("--algebra", required=True, help=ALGEBRA_HELP)
    p.add_argument("--truncation", type=_integer, default=None)
    common(p)
    p.set_defaults(func=cmd_task, tasks=_betti)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    common(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        message, usage = exc.args
        # the tokens after "--" are never read as options
        tokens = argv[:argv.index("--")] if "--" in argv else argv
        options = _option_strings(parser)
        hint = (f"{DASH_HINT}\n"
                if any(_read_as_unknown_option(t, options) for t in tokens)
                else "")
        parser.exit(EXIT_INPUT_ERROR, f"error: {message}\n{hint}{usage}")
    try:
        return args.func(args)
    except (ValueError, ScenarioExecutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
