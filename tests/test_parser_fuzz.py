"""Property test: the scenario parser either returns a scenario or raises a
located ParseError, whatever sequence of grammar tokens it is given."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
