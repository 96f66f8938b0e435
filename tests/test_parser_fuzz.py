"""Property tests: the scenario parser either returns a scenario or raises a
located ParseError, and a CLI subcommand given any literal exits 0 or 2 with
an ``error:`` line that points into the literal, whatever sequence of
grammar tokens it is given.  Task statements drawn from the grammar's own
key table run with exit 0, 1 or 2, and an input error names a line of the
file."""

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedseries.cli import main
from gradedseries.scenario import (
    TASK_KINDS,
    Kind,
    ParseError,
    Ref,
    _SYMBOLS,
    _TASK_KEYS,
    parse_scenario,
)

KEYWORDS = (
    "name", "zeta_order", "let", "task", "expect", "matrix", "series",
    "algebra", "true", "false", "kind", "generators", "degrees", "q",
    "relations", "normal", "free", "monomial_quotient", "quantum_affine",
    "normal_quotient", "group", "traces", "charpoly", "bruteforce",
    "truncation", "cap", "r", "gk",
) + TASK_KINDS
IDENTS = ("a", "g", "H", "A", "x", "y", "x1", "x2")
TOKENS = (KEYWORDS + IDENTS + tuple(str(d) for d in range(10))
          + ("t", "z") + tuple(sorted(_SYMBOLS)) + ('"1 - t"', '"z"'))
HEADS = ("name:", "zeta_order:", "zeta_order: 4", "let a = matrix",
         "let H = series", "let A = algebra", "task")

token = st.sampled_from(TOKENS)
# A statement opens with a statement head or any token; "\n  " continues it
# on an indented line.
token_statement = st.tuples(
    st.one_of(st.sampled_from(HEADS), token),
    st.lists(st.tuples(st.sampled_from((" ", " ", "", "\n  ")), token),
             max_size=12),
).map(lambda parts: parts[0] + "".join(sep + tok for sep, tok in parts[1]))
# Token soup seldom forms a whole expression, so arithmetic such as 1/0 or
# 0^-1 is drawn as well, as the operand of a declaration.
expression = st.recursive(
    st.sampled_from(("0", "1", "2", "t", "z")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(("^", "^-")),
                  st.sampled_from("0123")).map("".join),
        inner.map("({})".format)),
    max_leaves=6)
expression_statement = st.tuples(
    st.sampled_from(("let H = series {}", "let a = matrix [[{}]]")),
    expression,
).map(lambda parts: parts[0].format(parts[1]))
scenario_texts = st.lists(
    st.one_of(token_statement, expression_statement), max_size=4,
).map("\n".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenario_texts)
@example("let H = series 1/2")  # an expansion that is not an integer series
def test_parse_returns_or_raises_located_parse_error(text):
    try:
        parse_scenario(text)
    except ParseError as exc:
        assert exc.line is not None


# CLI literals: token soup after a prefix that opens (or is) a matrix, a
# series or an algebra.  Digits stay below 4 and the soup short, so no power
# or product grows past what a small test should compute.
LITERAL_TOKENS = (
    "kind", "generators", "degrees", "q", "relations", "normal", "free",
    "monomial_quotient", "quantum_affine", "normal_quotient", "x", "y", "x1",
    "x2", "0", "1", "2", "3", "t", "z", "@", "#",
) + tuple(sorted(_SYMBOLS))
LITERAL_PREFIXES = {
    "bireflection": ("", "[[", "[[1,0],[0,", "[[0,1],[1,0]]"),
    "classify": ("", "1/(1-t)", "(1 + t)/(1 - t^2)"),
    "betti": ("", "{ kind: free, degrees: [1,1] }",
              "{ kind: quantum_affine, degrees: [1,1], q: [[1,",
              "{ kind: monomial_quotient, generators: [x, y], relations: [x y",
              "{ kind: normal_quotient, degrees: [1,1], q: [[1,-1],[-1,1]], "
              "normal: ["),
}
# "--opt=text" and "--" keep a literal that starts with "-" from being read
# as an option.
COMMAND_ARGS = {
    "bireflection": lambda text: [f"--matrix={text}"],
    "classify": lambda text: ["--", text],
    "betti": lambda text: ["--truncation", "2", f"--algebra={text}"],
}
literal_soup = st.lists(
    st.tuples(st.sampled_from((" ", "")), st.sampled_from(LITERAL_TOKENS)),
    max_size=10,
).map(lambda parts: "".join(sep + tok for sep, tok in parts))
cli_inputs = st.sampled_from(sorted(COMMAND_ARGS)).flatmap(
    lambda command: st.tuples(
        st.just(command), st.sampled_from(("1", "4")),
        st.tuples(st.sampled_from(LITERAL_PREFIXES[command]),
                  literal_soup).map("".join)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_inputs)
@example(("bireflection", "1", ""))  # an empty literal
@example(("betti", "1", "{ kind: nope }"))  # columns once ran past the text
def test_cli_literal_exits_0_or_2_with_a_located_error(case):
    command, zeta_order, text = case
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, "--zeta-order", zeta_order]
                    + COMMAND_ARGS[command](text))
    assert code in (0, 2)
    if code == 2:
        err = err.getvalue()
        assert err.startswith("error:")
        for col in re.findall(r"\bcol (\d+)", err):
            assert 1 <= int(col) <= max(len(text), 1)


# Task statements built from _TASK_KEYS: a kind, some of its keys, and for
# each key a value that it accepts or one that it does not, over a header
# that declares one input of each category.
TASK_HEADER = ("let g = matrix [[0, 1], [1, 0]]\n"
               "let H = series 1/(1-t)^2\n"
               "let A = algebra { kind: quantum_affine, q: [[1,-1],[-1,1]] }\n"
               "task closure name=G generators=[g]\n")
HEADER_INPUTS = {"matrix": ("g", "[g]"), "group": ("G",),
                 "series": ("H", '"1/(1-t)"'), "algebra": ("A",)}
# plain value texts with the values the parser reads from them; small, so no
# truncation, bound or cap asks for much work
PLAIN_VALUES = {"0": 0, "1": 1, "3": 3, "-1": -1, "true": True, "K": Ref("K"),
                "charpoly": Ref("charpoly"), "bruteforce": Ref("bruteforce"),
                "[2]": [2], '"t"': None}
OTHER_VALUES = ("nope", "[g, H]", "[]")


def typed_values(category):
    """(values the key accepts, values it does not) for a key's category:
    the declared input of that category, or the plain values its Kind
    accepts."""
    everything = (tuple(PLAIN_VALUES) + OTHER_VALUES
                  + sum(HEADER_INPUTS.values(), ()))
    if isinstance(category, Kind):
        well = tuple(text for text, value in PLAIN_VALUES.items()
                     if value is not None and category.accepts(value))
    else:
        well = HEADER_INPUTS[category]
    return well, tuple(v for v in everything if v not in well)


@st.composite
def task_statement(draw):
    """A task of some kind with some of its keys, each kept with chance 3/4;
    about half the tasks give one key a value it does not accept, and the
    rest give every key one it does, so that many tasks run."""
    kind = draw(st.sampled_from(sorted(_TASK_KEYS)))
    keys = draw(st.permutations(sorted(_TASK_KEYS[kind])))
    keys = [key for key in keys if draw(st.sampled_from((True,) * 3 + (False,)))]
    wrong = draw(st.one_of(st.none(), st.sampled_from(keys))) if keys else None
    parts = [f"task {kind}"]
    for key in keys:
        well, ill = typed_values(_TASK_KEYS[kind][key])
        parts.append(f"{key}={draw(st.sampled_from(ill if key == wrong else well))}")
    return " ".join(parts)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.lists(task_statement(), min_size=1, max_size=2))
@example(["task closure name=K generators=[g] dim=3"])
@example(["task molien group=G traces=bruteforce algebra=A truncation=3"])
def test_task_statements_from_the_key_table_exit_0_1_or_2(statements):
    text = TASK_HEADER + "\n".join(statements) + "\n"
    fd, path = tempfile.mkstemp(suffix=".scn")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", path])
    finally:
        os.remove(path)
    assert code in (0, 1, 2)
    if code == 2:
        err = err.getvalue()
        assert err.startswith("error:")
        lines = [int(n) for n in re.findall(r"\bline (\d+)", err)]
        assert lines, err
        assert all(1 <= n <= text.count("\n") for n in lines), err
