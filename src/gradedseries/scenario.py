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
each an optional integer or parenthesized scalar coefficient, ``(z)``, times
a monomial in generator order.
Task values are integers, booleans, identifiers, quoted expression strings,
or bracketed lists of integers and identifiers (commas optional, maybe
empty).  Task kinds: closure, subgroups, molien, classify, veronese, trace,
betti, cyc, bireflection.

An algebra literal or a task gives each key (and each ``expect`` field) at
most once, and only the keys its kind reads (``_ALGEBRA_KEYS``,
``_TASK_KEYS``).  Each task key takes one Kind of value: a nonnegative
integer, one of ``charpoly``, ``bruteforce``, and so on, or, for a key that
names declared inputs, their category and shape: one declared input, a list
of them (a closure's ``generators``), or for ``series`` a declared or a
quoted series.  A quoted value is parsed as a series, with the
``zeta_order`` in effect at its line as a ``let`` is, only as an ``expect``
field or under a key whose Kind takes one.  ``_check_task`` checks each
value by its Kind and each name in it against the inputs declared above,
then which keys the task reads (``_keys_read``).  The parser locates a bad
value at the value, a key the task does not read at the key, and a declared
input it reads but lacks, or a default ``gk`` below 2 (the sizes of the
declared inputs are known as they are declared), at the task kind.  The CLI
checks the task it builds with the same function, so a value has one error
text on both routes.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType

from .algebras import (
    betti_numbers,
    brute_force_trace,
    build_truncation,
    check_automorphism,
    euler_check,
    ext_growth,
    free_algebra,
    identity_trace,
    monomial_quotient,
    normal_quotient,
    quantum_affine,
)
from .cyclofield import CyclotomicMatrix, CyclotomicNumber, power_galois
from .cyclotomic import cyc_number, is_cyclotomic
from .exact import NonUnitConstantError, RationalFunction, Series, reconstruct
from .groups import (
    PROVENANCE_BRUTE_FORCE,
    PROVENANCE_DIMS,
    assign_charpoly_traces,
    assign_class_traces,
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
    """An input error, located at a line (and column) of a file; a task
    built outside a file has no line."""

    def __init__(self, message, line, col=None):
        where = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message if line is None else f"{where}: {message}")
        self.line = line
        self.col = col


class UndeclaredInputError(ParseError):
    pass


class ScenarioExecutionError(RuntimeError):
    pass


Token = namedtuple("Token", "kind value line col")
Ref = namedtuple("Ref", "name")
Lit = namedtuple("Lit", "text line value")  # a quoted series, parsed

_SYMBOLS = set("[]{}(),=:^+-*/")
# str.isdigit also takes digits such as '²' or '٣', which int() rejects or
# reads as another number; an integer literal is ASCII digits only
_DIGITS = frozenset("0123456789")

# the kind of a task value: what it must be, the test of its shape, and for
# a key that names declared inputs, their category
Kind = namedtuple("Kind", "what accepts category", defaults=(None,))
_INTEGER = Kind("an integer", lambda v: type(v) is int)
_NATURAL = Kind("a nonnegative integer", lambda v: type(v) is int and v >= 0)
_POSITIVE = Kind("a positive integer", lambda v: type(v) is int and v > 0)
_GK = Kind("an integer >= 2", lambda v: type(v) is int and v >= 2)
_NAME = Kind("an identifier", lambda v: isinstance(v, Ref))
_TRACES = Kind("charpoly or bruteforce", lambda v: isinstance(v, Ref)
               and v.name in ("charpoly", "bruteforce"))
_MATRIX, _GROUP, _ALGEBRA = (Kind(f"a declared {c}", _NAME.accepts, c)
                             for c in ("matrix", "group", "algebra"))
_MATRICES = Kind("a list of declared matrices", lambda v: isinstance(v, list)
                 and all(isinstance(x, Ref) for x in v), "matrix")
# the one Kind that takes a quoted series
_SERIES = Kind("a declared or quoted series",
               lambda v: isinstance(v, (Ref, Lit)), "series")

# the keys each task kind reads, each with the Kind of its value; any other
# key is an error
_TRACE_KEYS = {"algebra": _ALGEBRA, "truncation": _NATURAL,
               "num_bound": _NATURAL, "den_bound": _NATURAL}
_TASK_KEYS = {
    "closure": {"generators": _MATRICES, "name": _NAME, "cap": _POSITIVE,
                "dim": _POSITIVE},
    "subgroups": {"group": _GROUP, "max_order": _POSITIVE},
    "molien": {"group": _GROUP, "traces": _TRACES, **_TRACE_KEYS},
    "classify": {"group": _GROUP, "traces": _TRACES, **_TRACE_KEYS,
                 "series": _SERIES, "gk": _GK},
    "veronese": {"series": _SERIES, "r": _POSITIVE, "num_bound": _NATURAL,
                 "den_bound": _NATURAL},
    "trace": {**_TRACE_KEYS, "matrix": _MATRIX, "gk": _GK, "index": _INTEGER},
    "betti": {"algebra": _ALGEBRA, "truncation": _NATURAL},
    "cyc": {"series": _SERIES},
    "bireflection": {"matrix": _MATRIX},
}
TASK_KINDS = tuple(_TASK_KEYS)


def _scan_line(raw, line_no, offset=0):
    """The tokens of one line, each located at its column plus offset."""
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
        col = offset + i + 1
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


@functools.cache
def _expression_symbols(zeta_order):
    """The symbols an expression may use, built once per order and shared,
    read-only, by every parse: the values are immutable."""
    symbols = {"t": RationalFunction([0, 1])}
    if zeta_order and zeta_order > 1:
        symbols["z"] = RationalFunction([CyclotomicNumber.zeta(zeta_order)])
    return MappingProxyType(symbols)


def _to_rational_function(value, where):
    try:
        f = value.to_rational_function()
    except NonUnitConstantError as exc:
        raise ParseError(str(exc), where.line, where.col) from None
    if f is None:
        raise ParseError("series coefficients must be rational", where.line,
                         where.col)
    return f


def _to_scalar(value, where, what="matrix entries"):
    if value.den.degree != 0 or value.num.degree > 0:
        raise ParseError(f"{what} must not involve t", where.line, where.col)
    return value.num.constant_term


def _parse_value(cur, what, zeta_order):
    """One ``what`` (a key of _VALUE_PARSERS), which must end the
    statement."""
    value = _VALUE_PARSERS[what](cur, _expression_symbols(zeta_order))
    if not cur.done():
        cur.error(f"trailing input after the {what}")
    return value


def _parse_literal(what, text, zeta_order, line, offset=0):
    """A one-line literal that holds exactly one ``what``, its columns
    shifted by offset (a quoted value's text starts past its quote)."""
    cur = _Cursor(_scan_line(text, line, offset))
    if cur.done():
        raise ParseError(f"empty {what} literal", line, offset + 1)
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


def _parse_normal_element(cur, name_index, ngens, symbols):
    """A sum of terms, each an optional coefficient (and ``*``) times a
    monomial whose letters are in generator order, as a dict from exponent
    tuples to coefficients.  A coefficient is an integer or a scalar in
    parentheses, such as ``(z)``, which keeps z apart from the names."""
    items = {}
    sign = -1 if cur.take_symbol("-") else 1
    while True:
        tok, start = cur.peek(), cur.pos
        coeff = sign
        if tok is not None and tok.kind == "int":
            coeff *= cur.next().value
            cur.take_symbol("*")
        elif cur.at_symbol("("):
            coeff *= _to_scalar(_parse_factor(cur, symbols), tok,
                                "coefficients")
            cur.take_symbol("*")
        letters = _parse_word(cur, name_index)
        if cur.pos == start and tok is not None:
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
                    cur, index, len(names), symbols))
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


def _parse_task_value(cur, zeta_order, series):
    """A task value; a quoted one is parsed as a series only if ``series``,
    else left unparsed for its key's Kind to reject."""
    tok = cur.peek()
    if tok is None:
        cur.error("expected a value")
    if tok.kind == "int" or (tok.kind == "sym" and tok.value == "-"):
        return cur.expect_int()
    if tok.kind == "string":
        cur.next()
        return Lit(tok.value, tok.line, _parse_literal(
            "series", tok.value, zeta_order, tok.line, tok.col)
            if series else None)
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


def _keys_read(kind, args):
    """The keys (with their Kinds) that a task of this kind with these args
    reads, and why it reads no other key of its kind: a classify task with a
    series reads only the series, and molien and classify read the
    brute-force keys only with traces=bruteforce."""
    keys = dict(_TASK_KEYS[kind])
    if kind == "classify":
        if "series" in args:
            return {"series": _SERIES}, "with a series"
        del keys["series"]
    if "traces" in keys and args.get("traces") != Ref("bruteforce"):
        for key in _TRACE_KEYS:
            del keys[key]
    return keys, "without traces=bruteforce"


def _declaration(category, obj):
    """A declared input's entry in ``declared``: its category, and its
    size, which a task's default ``gk`` reads: a matrix's dimension or an
    algebra's generator count (None for a series)."""
    return category, getattr(obj, "dim", getattr(obj, "ngens", None))


def _check_task(kind, args, declared, toks=None):
    """Check a task's args against ``_TASK_KEYS``: each key against its
    kind's keys, each value by its key's Kind, and each name it holds
    against ``declared`` (a name's ``_declaration``); then a key the task
    does not read (``_keys_read``), a declared input it reads but lacks,
    and a default ``gk`` below 2: a classify task's is its group's
    dimension, a trace task's its algebra's generator count.  A closure's
    name is then declared a group of its generators' dimension, or its
    ``dim``.  ``toks`` maps each key to
    the tokens of the key and its value, and None to the task kind's token,
    where an error is located; an error of a task built outside a file has
    no location."""
    def fail(message, key=None, part=0, error=ParseError):
        tok = toks[key][part] if toks else None
        raise error(message, *((tok.line, tok.col) if tok else (None,)))

    for key, value in args.items():
        if key not in _TASK_KEYS[kind]:
            fail(f"task kind {kind!r} takes no key {key!r}", key)
        want = _TASK_KEYS[kind][key]
        if not want.accepts(value):
            fail(f"task {kind!r} key {key!r} must be {want.what}", key, 1)
        for ref in value if isinstance(value, list) else [value]:
            if (want.category and isinstance(ref, Ref)
                    and declared.get(ref.name, (None,))[0] != want.category):
                fail(f"task {kind!r} references undeclared {want.category} "
                     f"{ref.name!r}", key, 1, UndeclaredInputError)
    read, why = _keys_read(kind, args)
    for key in args:
        if key not in read:
            fail(f"task {kind!r} reads no key {key!r} {why}", key)
    for key, want in read.items():
        # a list of declared inputs may be empty, so such a key has a default
        if want.category and key not in args and not want.accepts([]):
            alternative = (" or 'series'"
                           if (kind, key) == ("classify", "group") else "")
            fail(f"task {kind!r} needs key {key!r}{alternative}")
    source = {"classify": "group", "trace": "algebra"}.get(kind)
    if source in read and "gk" not in args:
        category, size = declared[args[source].name]
        if size is not None and size < 2:
            measure = "dimension" if category == "group" else "generator count"
            fail(f"task {kind!r} needs key 'gk', {_GK.what}: its default, "
                 f"the {category}'s {measure}, is {size}")
    if kind == "closure" and "name" in args:
        gens = args.get("generators", [])
        declared[args["name"].name] = (
            "group", declared[gens[0].name][1] if gens else args.get("dim"))


def _parse_task(cur, kind_tok, declared, zeta_order):
    """The args and expect fields of a task, the args checked by
    ``_check_task`` with each error located at the value, the key or the
    task kind.  A quoted value is parsed as a series where it stands, with
    the zeta_order in effect, when it is an expect field or the value of a
    key of Kind ``_SERIES``."""
    kind = kind_tok.value
    args, expect, toks = {}, {}, {None: (kind_tok, kind_tok)}
    target = args
    while not cur.done():
        tok = cur.expect_ident()
        if tok.value == "expect":
            target = expect
            continue
        if tok.value in target:
            raise ParseError(
                f"{'task' if target is args else 'expect'} key "
                f"{tok.value!r} is given twice", tok.line, tok.col)
        cur.expect_symbol("=")
        if target is args:
            toks[tok.value] = (tok, cur.peek())
        series = (target is expect
                  or _TASK_KEYS[kind].get(tok.value) is _SERIES)
        target[tok.value] = _parse_task_value(cur, zeta_order, series)
    _check_task(kind, args, declared, toks)
    return args, expect


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
            declared[target.value] = _declaration(category, obj)
            continue
        if head.value == "task":
            kind_tok = cur.expect_ident()
            if kind_tok.value not in TASK_KINDS:
                raise ParseError(f"unknown task kind {kind_tok.value!r}",
                                 kind_tok.line, kind_tok.col)
            scenario.tasks.append(Task(kind_tok.value, *_parse_task(
                cur, kind_tok, declared, scenario.zeta_order), head.line))
            continue
        raise ParseError(f"unknown statement {head.value!r}", head.line,
                         head.col)
    return scenario


# -------------------------------------------------------------------- runner

def _report_value(value):
    """A task result field as reported: series results as their text."""
    return str(value) if isinstance(value, RationalFunction) else value


def _trace_series(trunc, g):
    """g's trace series on the truncation: the dims for the identity, which
    preserves every relation, else the brute force.  Both check the input
    first, so a bad input gets the same error either way."""
    if g == CyclotomicMatrix.identity(g.dim):
        return identity_trace(trunc, g.dim)
    return brute_force_trace(g, trunc)


class _Runner:
    def __init__(self, scenario):
        self.scenario = scenario
        self.env = dict(scenario.bindings)
        self.memo = {}  # (fn, *args) -> fn(*args), filled by ``once``

    def once(self, fn, *args):
        """fn(*args), computed once per run: truncations, trace series,
        their closed forms and trace assignments are each keyed by the
        function and the arguments that fix the value.  An assignment keeps
        its Molien sum, so the molien and classify tasks of one group and
        mode share it."""
        key = (fn, *args)
        if key not in self.memo:
            self.memo[key] = fn(*args)
        return self.memo[key]

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
            return value.value
        return self.lookup(value, "series")

    def run(self):
        reports = []
        all_passed = True
        for task in self.scenario.tasks:
            handler = getattr(self, f"run_{task.kind}")
            try:
                result = handler(task.args)
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
                # series result is compared as computed, a text result parsed
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
                if want.value != got_series:
                    failures.append(f"{key}: expected {want.value}, got {got}")
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
        if args.get("traces", Ref("charpoly")).name == "charpoly":
            return self.once(assign_charpoly_traces, group)
        return self.once(self.brute_force_assignment, group,
                         *self.trace_args(args))

    def brute_force_assignment(self, group, trunc, num_bound, den_bound):
        """The group's traces on the truncation by ``assign_class_traces``,
        reconstructed within num_bound/den_bound: the truncation's dims for
        the identity, a brute force for each other class representative.
        The generators that are not class representatives are checked to be
        automorphisms first, in order; ``_trace_series`` checks each
        representative's input (or did, when its series was computed).  The
        generators generate the group, so every element is an automorphism,
        and each member h x^k h^-1, x its class representative, leaves
        sigma_k of x's series (``cyclofield.power_galois``) in the memo for
        a later trace task, unless its series is there already."""
        def closed_form(g):
            return self.once(reconstruct, self.once(_trace_series, trunc, g),
                             num_bound, den_bound)

        identity = closed_form(group.elements[0])
        classes = group.rational_classes()
        for g in group.generators:
            i = group.index_of(g)
            if classes[i][0] != i:
                check_automorphism(g, trunc)
        assignment = assign_class_traces(group, (identity, PROVENANCE_DIMS),
                                         closed_form, PROVENANCE_BRUTE_FORCE)
        for h, (r, k, m) in zip(group.elements, classes):
            series = self.memo[_trace_series, trunc, group.elements[r]]
            sigma = power_galois(tuple(series), k, m)
            self.memo.setdefault(
                (_trace_series, trunc, h),
                series if sigma is None else Series(map(sigma, series)))
        return assignment

    def trace_args(self, args):
        """(truncation, num_bound, den_bound) of a brute-force trace task,
        with their defaults."""
        presentation = self.lookup(args["algebra"], "algebra")
        return (self.once(build_truncation, presentation,
                          args.get("truncation", 12)),
                args.get("num_bound", 0),
                args.get("den_bound", presentation.ngens))

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
        return report_payload(report)

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
        trunc, num_bound, den_bound = self.trace_args(args)
        series = self.once(_trace_series, trunc, g)
        closed = self.once(reconstruct, series, num_bound, den_bound)
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
        trunc = self.once(build_truncation, presentation, cutoff)
        table = betti_numbers(trunc)
        residual = euler_check(table, trunc.hilbert_coefficients(), cutoff)
        kind, pole_order = ext_growth(table)
        return {
            "dims": trunc.dims(),
            "row_sums": [table.row_sum(i) for i in range(table.max_index() + 1)],
            "betti": {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())},
            "euler_zero": not any(residual),
            "growth": {"kind": kind, "pole_order": pole_order},
        }

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
