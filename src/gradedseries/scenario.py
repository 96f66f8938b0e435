"""Scenario files: declarations plus a task list, with embedded expected
results so the bundled computations double as a regression suite.

Grammar (line oriented; indented lines continue the previous statement,
``#`` starts a comment):

    name: <free text>
    zeta_order: <int>

    let <ident> = matrix [[...], ...]
    let <ident> = series <expression>
    let <ident> = algebra { kind: ..., ... }

    task <kind> key=value ... [expect key=value ...]

Expressions use integer literals, ``t``, ``z`` (the fixed primitive root,
available once ``zeta_order`` is set), ``+ - * / ^`` and parentheses, with
juxtaposition as multiplication: ``(1-t^6)/((1-t)(1-t^2)(1-t^3)^2)``.
A list in a matrix or algebra literal is ``[item, item, ...]`` with at least
one item.  A monomial is generator names with optional positive powers,
``x y^2``; a relation is one monomial, and a normal element a sum of terms,
each an optional integer coefficient times a monomial in generator order.
Task values are integers, booleans, identifiers, quoted expression strings,
or bracketed lists of integers and identifiers (commas optional, maybe
empty).  Task kinds: closure, subgroups, molien, classify, veronese, trace,
betti, cyc, bireflection.

An algebra literal or a task gives each key (and each ``expect`` field) at
most once, and only the keys its kind reads (``_ALGEBRA_KEYS``,
``_TASK_KEYS``).  A task key that names no declared input takes one Kind of
value, such as a nonnegative integer or one of ``charpoly``, ``bruteforce``;
any other value is an error located at the value.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, field

from .algebras import (
    betti_numbers,
    brute_force_trace,
    build_truncation,
    check_automorphism,
    euler_check,
    free_algebra,
    growth_estimate,
    identity_trace,
    monomial_quotient,
    normal_quotient,
    power_trace,
    quantum_affine,
)
from .cyclofield import CyclotomicMatrix, CyclotomicNumber
from .cyclotomic import cyc_number, is_cyclotomic
from .exact import NonUnitConstantError, RationalFunction, reconstruct
from .groups import (
    PROVENANCE_BRUTE_FORCE,
    PROVENANCE_DIMS,
    TraceAssignment,
    assign_charpoly_traces,
    classical_bireflection_rank,
    classify_pole,
    closure,
    hdet,
    molien,
    subgroups,
)
from .hilbert import veronese_section
from .reports import classify_group, classify_series, report_payload


class ParseError(ValueError):
    def __init__(self, message, line, col=None):
        where = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


class UndeclaredInputError(ParseError):
    pass


class ScenarioExecutionError(RuntimeError):
    pass


Token = namedtuple("Token", "kind value line col")
Ref = namedtuple("Ref", "name")
Lit = namedtuple("Lit", "text line")

_SYMBOLS = set("[]{}(),=:^+-*/")
# str.isdigit also takes digits such as '²' or '٣', which int() rejects or
# reads as another number; an integer literal is ASCII digits only
_DIGITS = frozenset("0123456789")

# the kind of a plain task value: what it must be, and the test of a value
Kind = namedtuple("Kind", "what accepts")
_INTEGER = Kind("an integer", lambda v: type(v) is int)
_NATURAL = Kind("a nonnegative integer", lambda v: type(v) is int and v >= 0)
_POSITIVE = Kind("a positive integer", lambda v: type(v) is int and v > 0)
_NAME = Kind("an identifier", lambda v: isinstance(v, Ref))
_TRACES = Kind("charpoly or bruteforce", lambda v: isinstance(v, Ref)
               and v.name in ("charpoly", "bruteforce"))

# the keys each task kind reads, each with the category of the declared
# input it names, or the Kind of a plain value; any other key is an error
_TRACE_KEYS = {"algebra": "algebra", "truncation": _NATURAL,
               "num_bound": _NATURAL, "den_bound": _NATURAL}
_TASK_KEYS = {
    "closure": {"generators": "matrix", "name": _NAME, "cap": _POSITIVE,
                "dim": _POSITIVE},
    "subgroups": {"group": "group", "max_order": _POSITIVE},
    "molien": {"group": "group", "traces": _TRACES, **_TRACE_KEYS},
    "classify": {"group": "group", "traces": _TRACES, **_TRACE_KEYS,
                 "series": "series", "gk": _NATURAL},
    "veronese": {"series": "series", "r": _POSITIVE, "num_bound": _NATURAL,
                 "den_bound": _NATURAL},
    "trace": {"matrix": "matrix", **_TRACE_KEYS, "gk": _NATURAL,
              "index": _INTEGER},
    "betti": {"algebra": "algebra", "truncation": _NATURAL},
    "cyc": {"series": "series"},
    "bireflection": {"matrix": "matrix"},
}
TASK_KINDS = tuple(_TASK_KEYS)


def _scan_line(raw, line_no):
    tokens = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "#":
            break
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if ch == '"':
            end = raw.find('"', i + 1)
            if end < 0:
                raise ParseError("unterminated string", line_no, col)
            tokens.append(Token("string", raw[i + 1:end], line_no, col))
            i = end + 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and raw[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", int(raw[i:j]), line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (raw[j].isalpha() or raw[j] in _DIGITS
                             or raw[j] == "_"):
                j += 1
            tokens.append(Token("ident", raw[i:j], line_no, col))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("sym", ch, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    return tokens


def _logical_lines(text):
    current = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        tokens = _scan_line(raw, line_no)
        if not tokens:
            continue
        if raw[0] in " \t" and current is not None:
            current.extend(tokens)
        else:
            if current is not None:
                yield current
            current = tokens
    if current is not None:
        yield current


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("unexpected end of statement", last.line,
                             last.col)
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek() or self.tokens[-1]
        raise ParseError(message, tok.line, tok.col)

    def at_symbol(self, *symbols):
        tok = self.peek()
        return tok is not None and tok.kind == "sym" and tok.value in symbols

    def take_symbol(self, symbol):
        if self.at_symbol(symbol):
            self.pos += 1
            return True
        return False

    def expect_symbol(self, symbol):
        if not self.take_symbol(symbol):
            self.error(f"expected {symbol!r}")

    def expect_ident(self):
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError("expected identifier", tok.line, tok.col)
        return tok

    def expect_int(self):
        neg = self.take_symbol("-")
        tok = self.next()
        if tok.kind != "int":
            raise ParseError("expected an integer", tok.line, tok.col)
        return -tok.value if neg else tok.value

    def done(self):
        return self.pos >= len(self.tokens)


# ---------------------------------------------------------------- expressions

def _starts_atom(cur):
    tok = cur.peek()
    if tok is None:
        return False
    return tok.kind in ("int", "ident") or (tok.kind == "sym" and tok.value == "(")


def _parse_factor(cur, symbols):
    tok = cur.peek()
    if tok is None:
        cur.error("expected an expression")
    if tok.kind == "int":
        cur.next()
        value = RationalFunction([tok.value])
    elif tok.kind == "ident":
        cur.next()
        if tok.value not in symbols:
            raise ParseError(f"unknown symbol {tok.value!r} in expression",
                             tok.line, tok.col)
        value = symbols[tok.value]
    elif tok.kind == "sym" and tok.value == "(":
        cur.next()
        value = _parse_expr(cur, symbols)
        cur.expect_symbol(")")
    else:
        cur.error("expected a number, symbol or parenthesis")
    if cur.at_symbol("^"):
        op = cur.next()
        value = _apply(op, operator.pow, value, cur.expect_int())
    return value


def _apply(op, fn, left, right):
    """fn(left, right), with arithmetic failures reported at the operator."""
    try:
        return fn(left, right)
    except (ZeroDivisionError, ValueError) as exc:
        raise ParseError(str(exc), op.line, op.col) from None


def _parse_signed_factor(cur, symbols):
    sign = 1
    while cur.take_symbol("-"):
        sign = -sign
    value = _parse_factor(cur, symbols)
    return value if sign > 0 else -value


def _parse_term(cur, symbols):
    value = _parse_signed_factor(cur, symbols)
    while True:
        if cur.at_symbol("*") or cur.at_symbol("/"):
            op = cur.next()
            rhs = _parse_signed_factor(cur, symbols)
            value = _apply(op, operator.mul if op.value == "*"
                           else operator.truediv, value, rhs)
        elif _starts_atom(cur):
            value = value * _parse_factor(cur, symbols)
        else:
            return value


def _parse_expr(cur, symbols):
    value = _parse_term(cur, symbols)
    while cur.at_symbol("+") or cur.at_symbol("-"):
        op = cur.next().value
        rhs = _parse_term(cur, symbols)
        value = value + rhs if op == "+" else value - rhs
    return value


def _expression_symbols(zeta_order):
    symbols = {"t": RationalFunction([0, 1])}
    if zeta_order and zeta_order > 1:
        symbols["z"] = RationalFunction([CyclotomicNumber.zeta(zeta_order)])
    return symbols


def _to_rational_function(value, where):
    try:
        f = value.to_rational_function()
    except NonUnitConstantError as exc:
        raise ParseError(str(exc), where.line, where.col) from None
    if f is None:
        raise ParseError("series coefficients must be rational", where.line,
                         where.col)
    return f


def _to_scalar(value, where):
    if value.den.degree != 0 or value.num.degree > 0:
        raise ParseError("matrix entries must not involve t", where.line,
                         where.col)
    return value.num.constant_term


def _parse_value(cur, what, zeta_order):
    """One ``what`` (a key of _VALUE_PARSERS), which must end the
    statement."""
    value = _VALUE_PARSERS[what](cur, _expression_symbols(zeta_order))
    if not cur.done():
        cur.error(f"trailing input after the {what}")
    return value


def _parse_literal(what, text, zeta_order, line):
    """A one-line literal that holds exactly one ``what``."""
    cur = _Cursor(_scan_line(text, line))
    if cur.done():
        raise ParseError(f"empty {what} literal", line, 1)
    return _parse_value(cur, what, zeta_order)


def parse_series_literal(text, zeta_order=1, line=1):
    return _parse_literal("series", text, zeta_order, line)


def parse_matrix_literal(text, zeta_order=1, line=1):
    return _parse_literal("matrix", text, zeta_order, line)


def parse_algebra_literal(text, zeta_order=1, line=1):
    return _parse_literal("algebra", text, zeta_order, line)


def _parse_list(cur, item):
    """``[item, item, ...]``, at least one item, each read by ``item(cur)``."""
    cur.expect_symbol("[")
    values = [item(cur)]
    while cur.take_symbol(","):
        values.append(item(cur))
    cur.expect_symbol("]")
    return values


def _parse_series(cur, symbols):
    start = cur.peek()
    if start is None:
        cur.error("expected a series expression")
    return _to_rational_function(_parse_expr(cur, symbols), start)


def _parse_scalar_rows(cur, symbols):
    def scalar(cur):
        where = cur.peek()
        return _to_scalar(_parse_expr(cur, symbols), where)
    return _parse_list(cur, lambda cur: _parse_list(cur, scalar))


def _parse_matrix(cur, symbols):
    start = cur.peek()
    rows = _parse_scalar_rows(cur, symbols)
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix rows must all have the full dimension",
                         start.line, start.col)
    return CyclotomicMatrix(rows)


# ------------------------------------------------------------ algebra literal

def _parse_word(cur, name_index):
    """The letters of a monomial such as ``x y^2``, each as its generator's
    index and the token of its name; empty when no name comes next."""
    letters = []
    while cur.peek() is not None and cur.peek().kind == "ident":
        tok = cur.next()
        if tok.value not in name_index:
            raise ParseError(f"unknown generator {tok.value!r}", tok.line,
                             tok.col)
        power = cur.expect_int() if cur.take_symbol("^") else 1
        if power < 1:
            raise ParseError("powers in monomials must be positive", tok.line,
                             tok.col)
        letters += [(name_index[tok.value], tok)] * power
    return letters


def _parse_relation(cur, name_index):
    letters = _parse_word(cur, name_index)
    if not letters:
        cur.error("expected a monomial word")
    return tuple(i for i, _ in letters)


def _parse_normal_element(cur, name_index, ngens):
    """A sum of terms, each an optional integer coefficient (and ``*``)
    times a monomial whose letters are in generator order, as a dict from
    exponent tuples to coefficients."""
    items = {}
    sign = -1 if cur.take_symbol("-") else 1
    while True:
        tok = cur.peek()
        coeff = sign
        if tok is not None and tok.kind == "int":
            coeff *= cur.next().value
            cur.take_symbol("*")
        letters = _parse_word(cur, name_index)
        if not letters and tok is not None and tok.kind != "int":
            cur.error("expected a term")
        exponents = [0] * ngens
        for i, name in letters:
            if any(exponents[i + 1:]):
                raise ParseError(
                    "monomials must be written in generator order",
                    name.line, name.col)
            exponents[i] += 1
        key = tuple(exponents)
        items[key] = items.get(key, 0) + coeff
        if cur.take_symbol("+"):
            sign = 1
        elif cur.take_symbol("-"):
            sign = -1
        else:
            break
    return {k: v for k, v in items.items() if v}


# the keys each algebra kind reads; any other key is an error
_ALGEBRA_KEYS = {
    "free": {"kind", "generators", "degrees"},
    "monomial_quotient": {"kind", "generators", "degrees", "relations"},
    "quantum_affine": {"kind", "generators", "degrees", "q"},
    "normal_quotient": {"kind", "generators", "degrees", "q", "normal"},
}


def _parse_algebra(cur, symbols):
    start = cur.peek()
    cur.expect_symbol("{")
    kind = names = degrees = q = relations = normals = None
    keys = {}
    while not cur.at_symbol("}"):
        key_tok = cur.expect_ident()
        key = key_tok.value
        if keys.setdefault(key, key_tok) is not key_tok:
            raise ParseError(f"algebra key {key!r} is given twice",
                             key_tok.line, key_tok.col)
        cur.expect_symbol(":")
        if key == "kind":
            kind = cur.expect_ident().value
        elif key == "generators":
            names = _parse_list(cur, lambda cur: cur.expect_ident().value)
        elif key == "degrees":
            degrees = _parse_list(cur, _Cursor.expect_int)
        elif key == "q":
            q = _parse_scalar_rows(cur, symbols)
        elif key in ("relations", "normal"):
            if names is None:
                count = len(degrees or q or ())
                if not count:
                    cur.error("declare generators, degrees or q before "
                              f"{key!r}")
                names = [f"x{i + 1}" for i in range(count)]
            index = {n: i for i, n in enumerate(names)}
            if key == "relations":
                relations = _parse_list(
                    cur, lambda cur: _parse_relation(cur, index))
            else:
                normals = _parse_list(cur, lambda cur: _parse_normal_element(
                    cur, index, len(names)))
        else:
            cur.error(f"unknown algebra key {key!r}")
        cur.take_symbol(",")
    cur.expect_symbol("}")
    if kind not in _ALGEBRA_KEYS:
        raise ParseError(f"unknown algebra kind {kind!r}", start.line,
                         start.col)
    for key, tok in keys.items():
        if key not in _ALGEBRA_KEYS[kind]:
            raise ParseError(f"algebra kind {kind!r} takes no key {key!r}",
                             tok.line, tok.col)
    try:
        if kind == "free":
            return free_algebra(names, degrees)
        if kind == "monomial_quotient":
            return monomial_quotient(names, relations or (), degrees)
        if kind == "quantum_affine":
            return quantum_affine(q, names, degrees)
        return normal_quotient(q, normals or (), names, degrees)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad algebra literal: {exc}", start.line, start.col)


# the values a ``let`` statement or a CLI literal can declare
_VALUE_PARSERS = {
    "matrix": _parse_matrix,
    "series": _parse_series,
    "algebra": _parse_algebra,
}


# ------------------------------------------------------------------ scenarios

@dataclass
class Task:
    kind: str
    args: dict
    expect: dict = field(default_factory=dict)
    line: int | None = None     # None for a task built outside a file


@dataclass
class Scenario:
    name: str = ""
    zeta_order: int = 1
    bindings: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)


def _parse_task_value(cur):
    tok = cur.peek()
    if tok is None:
        cur.error("expected a value")
    if tok.kind == "int" or (tok.kind == "sym" and tok.value == "-"):
        return cur.expect_int()
    if tok.kind == "string":
        cur.next()
        return Lit(tok.value, tok.line)
    if tok.kind == "ident":
        cur.next()
        if tok.value == "true":
            return True
        if tok.value == "false":
            return False
        return Ref(tok.value)
    if tok.kind == "sym" and tok.value == "[":
        cur.next()
        values = []
        while not cur.at_symbol("]"):
            inner = cur.peek()
            if inner is None:
                cur.error("expected ']' to close the list")
            if inner.kind == "int" or (inner.kind == "sym" and inner.value == "-"):
                values.append(cur.expect_int())
            elif inner.kind == "ident":
                values.append(Ref(cur.next().value))
            else:
                cur.error("lists hold integers or identifiers")
            cur.take_symbol(",")
        cur.expect_symbol("]")
        return values
    cur.error("expected a value")


def _parse_key_values(cur, kind):
    args = {}
    expect = {}
    target = args
    while not cur.done():
        tok = cur.expect_ident()
        if tok.value == "expect":
            target = expect
            continue
        if target is args and tok.value not in _TASK_KEYS[kind]:
            raise ParseError(f"task kind {kind!r} takes no key {tok.value!r}",
                             tok.line, tok.col)
        if tok.value in target:
            raise ParseError(
                f"{'task' if target is args else 'expect'} key "
                f"{tok.value!r} is given twice", tok.line, tok.col)
        cur.expect_symbol("=")
        start = cur.peek()
        value = target[tok.value] = _parse_task_value(cur)
        kind_of = _TASK_KEYS[kind].get(tok.value) if target is args else None
        if isinstance(kind_of, Kind) and not kind_of.accepts(value):
            raise ParseError(f"task {kind!r} key {tok.value!r} must be "
                             f"{kind_of.what}", start.line, start.col)
    return args, expect


def _validate_refs(task, declared):
    for key, category in _TASK_KEYS[task.kind].items():
        value = task.args.get(key)
        for ref in value if isinstance(value, list) else [value]:
            if (isinstance(category, str) and isinstance(ref, Ref)
                    and declared.get(ref.name) != category):
                raise UndeclaredInputError(
                    f"task {task.kind!r} references undeclared {category} "
                    f"{ref.name!r}", task.line)


def parse_scenario(text):
    scenario = Scenario()
    declared = {}
    for tokens in _logical_lines(text):
        cur = _Cursor(tokens)
        head = cur.next()
        if head.kind != "ident":
            raise ParseError("statements start with a keyword", head.line,
                             head.col)
        if head.value in ("name", "zeta_order") and cur.take_symbol(":"):
            if head.value == "zeta_order":
                scenario.zeta_order = cur.expect_int()
                if scenario.zeta_order < 1:
                    raise ParseError("zeta_order must be positive", head.line,
                                     head.col)
                if not cur.done():
                    cur.error("trailing input")
            else:
                scenario.name = " ".join(str(tok.value)
                                         for tok in tokens[cur.pos:])
            continue
        if head.value == "let":
            target = cur.expect_ident()
            cur.expect_symbol("=")
            what = cur.expect_ident()
            category = what.value
            if category not in _VALUE_PARSERS:
                raise ParseError(
                    "let declares a matrix, series or algebra",
                    what.line, what.col)
            obj = _parse_value(cur, category, scenario.zeta_order)
            if target.value in declared:
                raise ParseError(f"{target.value!r} is declared twice",
                                 target.line, target.col)
            scenario.bindings[target.value] = (category, obj)
            declared[target.value] = category
            continue
        if head.value == "task":
            kind_tok = cur.expect_ident()
            if kind_tok.value not in TASK_KINDS:
                raise ParseError(f"unknown task kind {kind_tok.value!r}",
                                 kind_tok.line, kind_tok.col)
            args, expect = _parse_key_values(cur, kind_tok.value)
            task = Task(kind_tok.value, args, expect, head.line)
            _validate_refs(task, declared)
            if kind_tok.value == "closure" and "name" in args:
                declared[args["name"].name] = "group"
            scenario.tasks.append(task)
            continue
        raise ParseError(f"unknown statement {head.value!r}", head.line,
                         head.col)
    return scenario


# -------------------------------------------------------------------- runner

def _report_value(value):
    """A task result field as reported: series results as their text."""
    return str(value) if isinstance(value, RationalFunction) else value


class _Runner:
    def __init__(self, scenario):
        self.scenario = scenario
        self.env = dict(scenario.bindings)
        # computed once per run: truncations by (presentation, cutoff),
        # (series, closed form) of brute-force traces, each computed or
        # derived from its class representative's, by (presentation,
        # cutoff, matrix, num_bound, den_bound), and trace assignments by
        # (group, mode) plus, for brute force, those trace arguments but the
        # matrix.  An assignment keeps its Molien sum, so the molien and
        # classify tasks of one group and mode share it.
        self.truncations = {}
        self.traces = {}
        self.assignments = {}

    def lookup(self, value, category):
        if isinstance(value, Ref):
            entry = self.env.get(value.name)
            if entry is None or entry[0] != category:
                raise ScenarioExecutionError(
                    f"{value.name!r} is not a declared {category}")
            return entry[1]
        raise ScenarioExecutionError(f"expected a {category} reference")

    def resolve_series(self, value):
        if isinstance(value, Lit):
            return parse_series_literal(value.text, self.scenario.zeta_order,
                                        value.line)
        return self.lookup(value, "series")

    def run(self):
        reports = []
        all_passed = True
        for task in self.scenario.tasks:
            handler = getattr(self, f"run_{task.kind}")
            try:
                result = handler(task.args)
            except ParseError:
                raise
            except Exception as exc:
                where = f" (line {task.line})" if task.line else ""
                raise ScenarioExecutionError(
                    f"task {task.kind!r}{where}: {exc}") from exc
            report = {"task": task.kind, "line": task.line}
            report.update((k, _report_value(v)) for k, v in result.items())
            if task.expect:
                failures = self.compare(task.expect, result)
                report["expected"] = {
                    k: self.expected_payload(v) for k, v in task.expect.items()}
                report["passed"] = not failures
                if failures:
                    report["failures"] = failures
                    all_passed = False
            else:
                report["passed"] = None
            reports.append(report)
        return reports, all_passed

    def expected_payload(self, value):
        if isinstance(value, Lit):
            return value.text
        if isinstance(value, Ref):
            return value.name
        return value

    def compare(self, expect, result):
        failures = []
        for key, want in expect.items():
            if key not in result:
                failures.append(f"no field {key!r} in the result")
                continue
            got = result[key]
            if isinstance(want, Lit):
                # expected series compare exactly after normalization; a
                # series result is compared as computed, not re-parsed
                want_series = parse_series_literal(
                    want.text, self.scenario.zeta_order, want.line)
                got_series = got if isinstance(got, RationalFunction) else None
                if isinstance(got, str):
                    try:
                        got_series = parse_series_literal(
                            got, self.scenario.zeta_order)
                    except ParseError:
                        pass
                if got_series is None:
                    raise ScenarioExecutionError(
                        f"line {want.line}: expect {key}=\"{want.text}\": "
                        f"the {key!r} field is {got!r}, not a series")
                if want_series != got_series:
                    failures.append(f"{key}: expected {want_series}, got {got}")
                continue
            got = _report_value(got)
            if isinstance(want, Ref):
                # bare identifiers stand for enum-like strings
                if got not in (want.name, want.name.replace("_", "-")):
                    failures.append(f"{key}: expected {want.name!r}, got {got!r}")
                continue
            if isinstance(want, int) and isinstance(got, str):
                want = str(want)
            if got != want:
                failures.append(f"{key}: expected {want!r}, got {got!r}")
        return failures

    # ---- individual task kinds

    def run_closure(self, args):
        gens = [self.lookup(v, "matrix") for v in args.get("generators", [])]
        cap = args.get("cap", 1000)
        dim = args.get("dim")
        group = closure(gens, cap=cap, dim=dim)
        if "name" in args:
            self.env[args["name"].name] = ("group", group)
        return {"order": group.order, "dim": group.dim}

    def run_subgroups(self, args):
        group = self.lookup(args["group"], "group")
        subs = subgroups(group, max_order=args.get("max_order", 64))
        orders = sorted(s.order for s in subs)
        return {"count": len(subs), "orders": orders}

    def assignment_for(self, args, group):
        mode = args.get("traces", Ref("charpoly")).name
        key = (group, mode)
        if mode == "bruteforce":
            key += self.trace_args(args)
        if key not in self.assignments:
            self.assignments[key] = (
                assign_charpoly_traces(group) if mode == "charpoly"
                else self.brute_force_assignment(args, group))
        return self.assignments[key]

    def brute_force_assignment(self, args, group):
        """The group's traces on the algebra in ``args``, with one
        ``brute_force_trace`` per rational class
        (``MatrixGroup.rational_classes``): the identity's trace is the
        truncation's dims, a representative's is brute-forced, and every
        other element's is ``power_trace`` of its representative's.

        The elements are taken in index order, as a brute force of each one
        takes them, so a bad input fails with the same error.  A generator
        that is no representative is checked to be an automorphism before
        its trace is derived; the automorphisms form a group, so every
        element is checked.
        """
        presentation, cutoff, num_bound, den_bound = self.trace_args(args)
        generators = set(group.generators)
        pairs, provenance = [], []
        for i, (g, (r, k, m)) in enumerate(zip(group.elements,
                                                group.rational_classes())):
            if i == 0:
                provenance.append(PROVENANCE_DIMS)
                pairs.append(self.trace_pair(
                    args, g, lambda trunc: identity_trace(trunc, group.dim)))
                continue
            if i == r:
                provenance.append(PROVENANCE_BRUTE_FORCE)
                pairs.append(self.trace_pair(args, g))
                continue
            provenance.append(f"{'conjugate' if k == 1 else f'sigma_{k}'} "
                              f"of element {r}")
            key = (presentation, cutoff, g, num_bound, den_bound)
            if key not in self.traces:
                if g in generators:
                    check_automorphism(g, self.truncation(presentation, cutoff))
                self.traces[key] = power_trace(pairs[r], k, m)
            pairs.append(self.traces[key])
        return TraceAssignment(group, tuple(closed for _, closed in pairs),
                               tuple(provenance))

    def truncation(self, presentation, cutoff):
        key = (presentation, cutoff)
        if key not in self.truncations:
            self.truncations[key] = build_truncation(presentation, cutoff)
        return self.truncations[key]

    def trace_args(self, args):
        """(presentation, cutoff, num_bound, den_bound) of a brute-force
        trace task, with their defaults."""
        presentation = self.lookup(args["algebra"], "algebra")
        return (presentation, args.get("truncation", 12),
                args.get("num_bound", 0),
                args.get("den_bound", presentation.ngens))

    def trace_pair(self, args, g, series_of=None):
        """(series, closed form) of g's trace on the algebra in ``args``,
        truncated at ``truncation`` and reconstructed within
        ``num_bound``/``den_bound``, computed once per run.  The series is
        series_of(truncation) when that is given, else the brute force."""
        presentation, cutoff, num_bound, den_bound = self.trace_args(args)
        key = (presentation, cutoff, g, num_bound, den_bound)
        if key not in self.traces:
            trunc = self.truncation(presentation, cutoff)
            series = (series_of(trunc) if series_of
                      else brute_force_trace(g, trunc))
            self.traces[key] = (series,
                                reconstruct(series, num_bound, den_bound))
        return self.traces[key]

    def run_molien(self, args):
        group = self.lookup(args["group"], "group")
        assignment = self.assignment_for(args, group)
        series = molien(group, assignment)
        return {"series": series, "group_order": group.order}

    def run_classify(self, args):
        if "series" in args:
            report = classify_series(self.resolve_series(args["series"]))
        else:
            group = self.lookup(args["group"], "group")
            assignment = self.assignment_for(args, group)
            gk = args.get("gk", group.dim)
            report = classify_group(group, assignment, gk)
        # the series stays a RationalFunction until the report prints it
        return {**report_payload(report), "series": report.hilbert_series}

    def run_veronese(self, args):
        f = self.resolve_series(args["series"])
        r = args.get("r", 2)
        section = veronese_section(f, r, args.get("num_bound"),
                                   args.get("den_bound"))
        return {
            "section": section,
            "ambient_section": section.inflated(r),
            "cyclotomic": is_cyclotomic(section),
        }

    def run_trace(self, args):
        presentation = self.lookup(args["algebra"], "algebra")
        g = self.lookup(args["matrix"], "matrix")
        series, closed = self.trace_pair(args, g)
        gk = args.get("gk", presentation.ngens)
        pole = classify_pole(closed, gk)
        result = {
            "coefficients": [c if isinstance(c, int) else str(c)
                             for c in series],
            "closed_form": closed,
            "pole_order": pole.pole_order,
            "verdict": pole.verdict,
        }
        index = args.get("index", presentation.ngens)
        result["hdet"] = str(hdet(closed, gk, index))
        return result

    def run_betti(self, args):
        presentation = self.lookup(args["algebra"], "algebra")
        cutoff = args.get("truncation", 8)
        trunc = self.truncation(presentation, cutoff)
        table = betti_numbers(trunc)
        residual = euler_check(table, trunc.hilbert_coefficients(), cutoff)
        growth = growth_estimate(table) if cutoff >= 6 else None
        result = {
            "dims": trunc.dims(),
            "row_sums": [table.row_sum(i) for i in range(table.max_index() + 1)],
            "betti": {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())},
            "euler_zero": not any(residual),
        }
        if growth is not None:
            result["growth"] = {
                "kind": growth.kind,
                "value": round(growth.value, 4) if growth.value is not None else None,
                "window": list(growth.window) if growth.window else None,
            }
        return result

    def run_cyc(self, args):
        f = self.resolve_series(args["series"])
        got = cyc_number(f)
        if got is None:
            return {"cyc": None, "profile": None}
        m, profile = got
        return {"cyc": m,
                "profile": {str(a): e for a, e in sorted(profile.factors.items())}}

    def run_bireflection(self, args):
        rank, verdict = classical_bireflection_rank(
            self.lookup(args["matrix"], "matrix"))
        return {"rank": rank, "classical_bireflection": verdict}


def run_scenario(scenario):
    """Execute the tasks in order; returns (reports, all_expectations_met)."""
    return _Runner(scenario).run()


__all__ = [
    "Lit",
    "ParseError",
    "Ref",
    "Scenario",
    "ScenarioExecutionError",
    "Task",
    "TASK_KINDS",
    "UndeclaredInputError",
    "parse_algebra_literal",
    "parse_matrix_literal",
    "parse_scenario",
    "parse_series_literal",
    "run_scenario",
]
