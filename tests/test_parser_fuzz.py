"""Property tests: the scenario parser either returns a scenario or raises a
located ParseError, and a CLI subcommand given any literal exits 0 or 2 with
an ``error:`` line that points into the literal, whatever sequence of
grammar tokens it is given."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedseries.cli import main
from gradedseries.scenario import (
    TASK_KINDS,
    ParseError,
    _SYMBOLS,
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
