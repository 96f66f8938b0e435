import argparse
import itertools
import json
import random
import shlex
from pathlib import Path

import pytest

import gradedseries as gs
from gradedseries import cli as cli_module
from gradedseries import groups as groups_module
from gradedseries import scenario as scenario_module
from gradedseries.cli import main
from gradedseries.cyclofield import CyclotomicMatrix, CyclotomicNumber
from gradedseries.exact import Poly, normalize, one_minus_power, reconstruct
from gradedseries.scenario import (
    _TASK_KEYS,
    TASK_KINDS,
    ParseError,
    Ref,
    ScenarioExecutionError,
    UndeclaredInputError,
    parse_matrix_literal,
    parse_scenario,
    parse_series_literal,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "golden"


class TestSeriesLiterals:
    def test_polynomial_grammar(self):
        f = parse_series_literal("1 - 2*t + 4t^2 - 2t^3 + t^4")
        assert f == normalize(Poly([1, -2, 4, -2, 1]), Poly([1]))

    def test_rational_function_grammar(self):
        f = parse_series_literal("(1-t^6)/((1-t)(1-t^2)(1-t^3)^2)")
        want = normalize(one_minus_power(6),
                         Poly([1, -1]) * one_minus_power(2) * one_minus_power(3) ** 2)
        assert f == want

    def test_zeta_requires_order(self):
        with pytest.raises(ParseError):
            parse_series_literal("z + 1")

    def test_round_trip_printing(self):
        f = parse_series_literal("(1 + 6t^4 + t^8)/(1 - t^4)^3")
        again = parse_series_literal(str(f))
        assert f == again

    def test_negative_powers(self):
        assert parse_series_literal("(1-t)^-1") == \
            parse_series_literal("1/(1-t)")


class TestMatrixLiterals:
    def test_with_zeta(self):
        m = parse_matrix_literal("[[0, z, 0], [0, 0, z^2], [1, 0, 0]]", 3)
        assert m.dim == 3
        assert m.rows[0][1] == gs.CyclotomicNumber.zeta(3)

    def test_row_length_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_literal("[[1, 0], [1, 0, 0]]")
        assert "line 1" in str(err.value)

    def test_entries_must_be_scalars(self):
        with pytest.raises(ParseError):
            parse_matrix_literal("[[t, 0], [0, 1]]")


class TestParseScenario:
    def test_sklyanin_round_trip(self):
        scenario = parse_scenario(gs.load_bundled_scenario("sklyanin.scn"))
        assert scenario.name == "sklyanin"
        assert scenario.zeta_order == 3
        assert len([n for n, (c, _) in scenario.bindings.items()
                    if c == "matrix"]) == 4
        kinds = [t.kind for t in scenario.tasks]
        assert "closure" in kinds and "subgroups" in kinds
        assert "molien" in kinds and "classify" in kinds

    def test_veronese_file_tasks(self):
        scenario = parse_scenario(
            gs.load_bundled_scenario("veronese_sections.scn"))
        rs = [t.args["r"] for t in scenario.tasks]
        assert rs == [2, 3, 4]

    def test_undeclared_reference(self):
        text = "task molien group=nowhere\n"
        with pytest.raises(UndeclaredInputError):
            parse_scenario(text)

    def test_parse_error_location(self):
        text = "let a = series 1 +\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert "line 1" in str(err.value)

    def test_duplicate_declaration(self):
        text = "let a = series 1\nlet a = series t\n"
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_closure_binding_visible_downstream(self):
        text = (
            "zeta_order: 3\n"
            "let m = matrix [[z]]\n"
            "task closure name=g generators=[m] cap=10\n"
            "task molien group=g\n")
        scenario = parse_scenario(text)
        reports, passed = run_scenario(scenario)
        assert reports[0]["order"] == 3


# every key each task kind reads, with a value of the right category
TASK_KEY_USES = {
    "closure": "generators=[g] name=K cap=10 dim=2",
    "subgroups": "group=G max_order=8",
    "molien": "group=G traces=bruteforce algebra=A truncation=4 num_bound=0 "
              "den_bound=2",
    "classify": "group=G traces=bruteforce algebra=A truncation=4 "
                "num_bound=0 den_bound=2 gk=2",
    "veronese": "series=H r=2 num_bound=1 den_bound=3",
    "trace": "matrix=g algebra=A truncation=4 num_bound=0 den_bound=2 gk=2 "
             "index=2",
    "betti": "algebra=A truncation=3",
    "cyc": "series=H",
    "bireflection": "matrix=g",
}
TASK_PREAMBLE = ("let g = matrix [[0, 1], [1, 0]]\n"
                 "let H = series 1/(1-t)^2\n"
                 "let A = algebra { kind: quantum_affine, q: [[1,-1],[-1,1]] }\n"
                 "task closure name=G generators=[g]\n")


def assert_located(tmp_path, capsys, line, marker, message, shift=0):
    """Running TASK_PREAMBLE + line exits 2 with message, located at the
    marker's first column plus shift on the last line."""
    path = tmp_path / "keys.scn"
    path.write_text(TASK_PREAMBLE + line + "\n")
    assert main(["run", str(path)]) == 2
    col = line.splitlines()[-1].index(marker) + 1 + shift
    row = TASK_PREAMBLE.count("\n") + 1 + line.count("\n")
    assert capsys.readouterr().err == (
        f"error: line {row}, col {col}: {message}\n")


class TestTaskKeys:
    def test_every_kind_is_listed(self):
        assert set(TASK_KINDS) == set(TASK_KEY_USES)

    @pytest.mark.parametrize("kind", TASK_KEY_USES)
    def test_each_key_a_kind_reads_parses(self, kind):
        uses = TASK_KEY_USES[kind]
        scenario = parse_scenario(f"{TASK_PREAMBLE}task {kind} {uses}\n")
        task = scenario.tasks[-1]
        assert task.kind == kind
        assert list(task.args) == [use.split("=")[0] for use in uses.split()]

    @pytest.mark.parametrize("line, key, message", [
        ("task betti algebra=A truncaton=2", "truncaton",
         "task kind 'betti' takes no key 'truncaton'"),
        ("task trace algebra=A matrix=g max_order=3", "max_order",
         "task kind 'trace' takes no key 'max_order'"),
        ("task betti algebra=A truncation=2 truncation=3", "truncation=3",
         "task key 'truncation' is given twice"),
        ("task cyc series=H\n  expect cyc=1 cyc=2", "cyc=2",
         "expect key 'cyc' is given twice"),
        # a key the task cannot run without is located at the task kind
        ("task betti", "betti", "task 'betti' needs key 'algebra'"),
        ("task trace matrix=g", "trace", "task 'trace' needs key 'algebra'"),
        ("task trace algebra=A", "trace", "task 'trace' needs key 'matrix'"),
        ("task classify gk=2", "classify",
         "task 'classify' needs key 'group' or 'series'"),
        ("task molien group=G traces=bruteforce", "molien",
         "task 'molien' needs key 'algebra'"),
    ])
    def test_unread_and_repeated_keys_are_located(self, tmp_path, capsys,
                                                  line, key, message):
        assert_located(tmp_path, capsys, line, key, message)

    @pytest.mark.parametrize("line, value, message", [
        ("task betti algebra=A truncation=x", "=x",
         "task 'betti' key 'truncation' must be a nonnegative integer"),
        ("task closure generators=[g] cap=true", "=true",
         "task 'closure' key 'cap' must be a positive integer"),
        ("task molien group=G traces=nope", "=nope",
         "task 'molien' key 'traces' must be charpoly or bruteforce"),
        ("task trace algebra=A matrix=g den_bound=-1", "=-1",
         "task 'trace' key 'den_bound' must be a nonnegative integer"),
        ("task closure generators=[g] name=5", "=5",
         "task 'closure' key 'name' must be an identifier"),
        ("task trace algebra=A matrix=g index=[2]", "=[2]",
         "task 'trace' key 'index' must be an integer"),
        ("task classify group=G gk=1", "=1",
         "task 'classify' key 'gk' must be an integer >= 2"),
        ("task trace algebra=A matrix=g gk=0", "=0",
         "task 'trace' key 'gk' must be an integer >= 2"),
        # a key that names declared inputs takes one shape of them
        ("task closure generators=g", "=g",
         "task 'closure' key 'generators' must be a list of declared "
         "matrices"),
        ("task bireflection matrix=[g]", "=[g]",
         "task 'bireflection' key 'matrix' must be a declared matrix"),
        ("task molien group=[G]", "=[G]",
         "task 'molien' key 'group' must be a declared group"),
        ("task veronese series=[H]", "=[H]",
         "task 'veronese' key 'series' must be a declared or quoted series"),
        # a quoted value is a series only under a key that takes one
        ('task trace algebra=A matrix="g"', '="g"',
         "task 'trace' key 'matrix' must be a declared matrix"),
    ])
    def test_plain_values_are_typed_and_located(self, tmp_path, capsys,
                                                monkeypatch, line, value,
                                                message):
        # every value, a plain one or a reference, is checked by its key's
        # Kind: located at the value, one column past its "=", before the
        # closure ahead of it runs
        calls = []
        monkeypatch.setattr(scenario_module, "closure",
                            lambda *a, **k: calls.append(a))
        assert_located(tmp_path, capsys, line, value, message, 1)
        assert not calls

    @pytest.mark.parametrize("text, message", [
        ("let m = matrix [[-1]]\ntask closure name=G generators=[m]\n"
         "task classify group=G\n",
         "task 'classify' needs key 'gk', an integer >= 2: its default, the "
         "group's dimension, is 1"),
        ("task closure name=G dim=1\ntask classify group=G\n",
         "task 'classify' needs key 'gk', an integer >= 2: its default, the "
         "group's dimension, is 1"),
        ("let A = algebra { kind: free, degrees: [1] }\n"
         "let m = matrix [[-1]]\ntask trace algebra=A matrix=m\n",
         "task 'trace' needs key 'gk', an integer >= 2: its default, the "
         "algebra's generator count, is 1"),
    ])
    def test_a_default_gk_below_2_is_located_at_the_task(
            self, tmp_path, capsys, monkeypatch, text, message):
        # the dimensions are known at parse time, so no task runs
        calls = []
        monkeypatch.setattr(scenario_module, "closure",
                            lambda *a, **k: calls.append(a))
        path = tmp_path / "gk.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        row = text.count("\n")
        assert capsys.readouterr() == (
            "", f"error: line {row}, col 6: {message}\n")
        assert not calls
        # a stated gk is taken
        parse_scenario(text.rstrip("\n") + " gk=2\n")

    def test_a_classify_task_with_a_series_reads_only_it(self):
        scenario = parse_scenario(f"{TASK_PREAMBLE}task classify series=H\n")
        assert scenario.tasks[-1].args == {"series": Ref("H")}

    @pytest.mark.parametrize("line, key, message", [
        ("task classify series=H group=G", "group",
         "task 'classify' reads no key 'group' with a series"),
        ("task classify series=H gk=2", "gk",
         "task 'classify' reads no key 'gk' with a series"),
        ("task classify series=H traces=charpoly", "traces",
         "task 'classify' reads no key 'traces' with a series"),
        ("task molien group=G algebra=A truncation=4", "algebra",
         "task 'molien' reads no key 'algebra' without traces=bruteforce"),
        ("task classify group=G traces=charpoly den_bound=2", "den_bound",
         "task 'classify' reads no key 'den_bound' without "
         "traces=bruteforce"),
    ])
    def test_keys_the_task_does_not_read_are_located(self, tmp_path, capsys,
                                                     line, key, message):
        assert_located(tmp_path, capsys, line, key, message)

    def test_a_forgotten_traces_key_is_located(self, tmp_path, capsys):
        # without traces=bruteforce, the mystic file's molien task would sum
        # the commutative charpoly traces; its brute-force keys say otherwise
        text = gs.load_bundled_scenario("mystic_bireflection.scn")
        line = "task molien group=cg traces=bruteforce algebra=B"
        assert text.count(line) == 1
        text = text.replace(line, line.replace("traces=bruteforce ", ""))
        path = tmp_path / "forgot.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        row = text[:text.index("task molien")].count("\n") + 1
        col = len("task molien group=cg ") + 1
        assert capsys.readouterr().err == (
            f"error: line {row}, col {col}: task 'molien' reads no key "
            "'algebra' without traces=bruteforce\n")

    @pytest.mark.parametrize("line, value, message", [
        ("task molien group=nowhere", "=nowhere",
         "task 'molien' references undeclared group 'nowhere'"),
        ("task closure generators=[g, H]", "=[g",
         "task 'closure' references undeclared matrix 'H'"),
        ("task trace algebra=A matrix=G", "=G",
         "task 'trace' references undeclared matrix 'G'"),
    ])
    def test_undeclared_references_are_located_at_the_value(
            self, tmp_path, capsys, line, value, message):
        assert_located(tmp_path, capsys, line, value, message, 1)

    @pytest.mark.parametrize("line", [
        'task cyc series="1 + (t"',
        'task veronese series=H r=2\n  expect section="1 + (t"',
    ])
    def test_quoted_series_are_parsed_where_they_stand(self, tmp_path, capsys,
                                                       monkeypatch, line):
        # located in the file, before the closure ahead of it runs
        calls = []
        monkeypatch.setattr(scenario_module, "closure",
                            lambda *a, **k: calls.append(a))
        assert_located(tmp_path, capsys, line, "(t", "expected ')'", 1)
        assert not calls

    def test_a_quoted_series_is_read_once(self, monkeypatch):
        text = ('zeta_order: 3\n'
                'task veronese series="1/(1-t)^3" r=2\n'
                '  expect section="(1 + 3t)/(1 - t)^3"\n'
                'task classify series="1/((1-t)(1-z t)(1-z^2 t))"\n')
        scenario = parse_scenario(text)
        series = scenario.tasks[1].args["series"]
        assert series.value == parse_series_literal(series.text, 3)
        calls = []
        monkeypatch.setattr(scenario_module, "parse_series_literal",
                            lambda *a: calls.append(a))
        reports, passed = run_scenario(scenario)
        assert passed and not calls
        assert reports[1]["series"] == "(1) / (1 - t^3)"

    def test_task_lists_keep_their_loose_grammar(self):
        scenario = parse_scenario(
            "let g1 = matrix [[1]]\nlet g2 = matrix [[-1]]\n"
            "task closure generators=[g1 g2]\n"
            "task closure generators=[] dim=2\n")
        assert [t.args for t in scenario.tasks] == [
            {"generators": [Ref("g1"), Ref("g2")]},
            {"generators": [], "dim": 2}]


class TestRunScenarios:
    @pytest.mark.parametrize("name", [
        "square_zero.scn", "mystic_bireflection.scn", "double_transposition.scn",
        "sklyanin.scn", "stanley.scn", "veronese_sections.scn",
    ])
    def test_bundled_expectations_hold(self, name):
        scenario = parse_scenario(gs.load_bundled_scenario(name))
        reports, passed = run_scenario(scenario)
        assert passed, [r.get("failures") for r in reports if r.get("failures")]
        # the `run --json` payload, byte for byte as recorded in tests/golden
        payload = json.dumps({"scenario": scenario.name, "reports": reports},
                             indent=2) + "\n"
        assert payload == (GOLDEN / name.replace(".scn", ".json")).read_text()

    def test_deterministic_reports(self):
        scenario_text = gs.load_bundled_scenario("mystic_bireflection.scn")
        one = json.dumps(run_scenario(parse_scenario(scenario_text))[0])
        two = json.dumps(run_scenario(parse_scenario(scenario_text))[0])
        assert one == two

    def test_failed_expectation_reported(self):
        text = 'task cyc series="1 + 2t + t^2" expect cyc=5\n'
        reports, passed = run_scenario(parse_scenario(text))
        assert not passed
        assert reports[0]["passed"] is False
        assert reports[0]["failures"]

    def test_series_expectations_compare_the_computed_series(self):
        # a series result is compared as computed and reported as its text;
        # a text result under a series expectation is still parsed
        text = ('task veronese series="1/(1-t)^3" r=2\n'
                '  expect section="1/(1-t)" ambient_section="(1 + 3t^2) / (1 - t^2)^3"\n'
                'let B = algebra { kind: quantum_affine, degrees: [1, 1], '
                'q: [[1, -1], [-1, 1]] }\n'
                'let g = matrix [[0, 1], [1, 0]]\n'
                'task trace algebra=B matrix=g truncation=6 den_bound=2\n'
                '  expect closed_form="1 / (1 + t^2)" hdet="1"\n')
        reports, passed = run_scenario(parse_scenario(text))
        assert not passed
        assert reports[0]["section"] == "(1 + 3t) / (1 - 3t + 3t^2 - t^3)"
        assert reports[0]["failures"] == [
            "section: expected (1) / (1 - t), got (1 + 3t) / (1 - 3t + 3t^2 - t^3)"]
        assert reports[1]["closed_form"] == "(1) / (1 + t^2)"
        assert reports[1]["hdet"] == "1" and reports[1]["passed"] is True


class TestRunnerCache:
    """A run computes each truncation and each brute-force trace once."""

    SKEW4 = ('let B = algebra { kind: quantum_affine, degrees: [1, 1, 1, 1], '
             'q: [[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], '
             '[-1, -1, -1, 1]] }\n'
             'let g = matrix [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], '
             '[0, 0, 1, 0]]\n')

    def spy(self, monkeypatch):
        calls = {"brute_force_trace": 0, "build_truncation": 0}
        for name in calls:
            def counting(*args, _name=name,
                         _original=getattr(scenario_module, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(scenario_module, name, counting)
        return calls

    @pytest.mark.parametrize("name, traces", [
        # one per rational class but the identity's; 2 and 4 with one per
        # element, 5 and 9 without the cache
        ("double_transposition.scn", 1),
        ("mystic_bireflection.scn", 2),
    ])
    def test_bundled_call_counts(self, monkeypatch, name, traces):
        calls = self.spy(monkeypatch)
        _, passed = run_scenario(parse_scenario(gs.load_bundled_scenario(name)))
        assert passed
        assert calls == {"brute_force_trace": traces, "build_truncation": 1}

    def run_alone(self, task):
        [report], _ = run_scenario(parse_scenario(self.SKEW4 + task))
        return report

    def test_mixed_keys_match_each_task_run_alone(self, monkeypatch):
        tasks = ["task trace algebra=B matrix=g truncation=12 den_bound=4",
                 "task trace algebra=B matrix=g truncation=10 den_bound=4",
                 "task betti algebra=B truncation=5",
                 "task trace algebra=B matrix=g truncation=12 den_bound=5",
                 "task trace algebra=B matrix=g truncation=10 den_bound=4"]
        alone = [self.run_alone(task + "\n") for task in tasks]
        calls = self.spy(monkeypatch)
        reports, _ = run_scenario(parse_scenario(
            self.SKEW4 + "\n".join(tasks) + "\n"))
        for got, want in zip(reports, alone, strict=True):
            del got["line"], want["line"]
            assert got == want
        assert calls == {"brute_force_trace": 2, "build_truncation": 3}
        # too small a den_bound or truncation fails after a cached success,
        # as it does alone
        for bad in ("task trace algebra=B matrix=g truncation=12 den_bound=1",
                    "task trace algebra=B matrix=g truncation=8 den_bound=4"):
            with pytest.raises(ScenarioExecutionError):
                self.run_alone(bad + "\n")
            with pytest.raises(ScenarioExecutionError):
                run_scenario(parse_scenario(
                    self.SKEW4 + tasks[0] + "\n" + bad + "\n"))


class TestAssignmentCache:
    """A run builds one trace assignment per group, trace mode and
    brute-force arguments, and its molien and classify tasks share it."""

    MYSTIC = ('let B = algebra { kind: quantum_affine, degrees: [1, 1, 1], '
              'q: [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]] }\n'
              'let g = matrix [[0, -1, 0], [1, 0, 0], [0, 0, -1]]\n')
    CLOSURE = "task closure name=cg generators=[g] cap=10"
    BRUTE = "traces=bruteforce algebra=B truncation=10 den_bound=3"

    def spy(self, monkeypatch, name):
        calls = []
        original = getattr(scenario_module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(scenario_module, name, counting)
        return calls

    def test_sklyanin_one_charpoly_assignment_per_group(self, monkeypatch):
        calls = self.spy(monkeypatch, "assign_charpoly_traces")
        text = gs.load_bundled_scenario("sklyanin.scn")
        _, passed = run_scenario(parse_scenario(text))
        assert passed
        # molien on c3, diag9, sl and scalars; classify on sl and scalars
        assert len(calls) == len({id(group) for group, in calls}) == 4

    def run_alone(self, task):
        """task's report in a fresh runner, after the closure it needs."""
        prefix = "" if task.startswith(("task trace", self.CLOSURE)) \
            else self.CLOSURE + "\n"
        reports, _ = run_scenario(parse_scenario(
            self.MYSTIC + prefix + task + "\n"))
        report = reports[-1]
        del report["line"]
        return report

    @pytest.mark.parametrize("tasks, assignments", [
        # the generated scenario files' shape: one brute-force assignment
        (["task trace algebra=B matrix=g truncation=10 den_bound=3",
          CLOSURE,
          f"task molien group=cg {BRUTE}",
          f"task classify group=cg {BRUTE} gk=3"], 1),
        # the mode and each brute-force argument are part of the key
        ([CLOSURE,
          "task molien group=cg",
          f"task molien group=cg {BRUTE}",
          "task classify group=cg gk=3",
          f"task classify group=cg {BRUTE} gk=3",
          f"task molien group=cg {BRUTE.replace('=10', '=11')}",
          f"task molien group=cg {BRUTE.replace('=3', '=4')}",
          f"task molien group=cg {BRUTE} num_bound=1",
          f"task classify group=cg {BRUTE.replace('=3', '=4')} gk=3"], 5),
    ])
    def test_reports_match_each_task_run_alone(self, monkeypatch, tasks,
                                               assignments):
        alone = [self.run_alone(task) for task in tasks]
        built = self.spy(monkeypatch, "assign_class_traces")
        charpoly = self.spy(monkeypatch, "assign_charpoly_traces")
        brute = self.spy(monkeypatch, "brute_force_trace")
        closed = self.spy(monkeypatch, "reconstruct")
        sums = []
        molien_sum = groups_module._molien_sum
        monkeypatch.setattr(groups_module, "_molien_sum",
                            lambda *args: sums.append(args) or molien_sum(*args))
        reports, _ = run_scenario(parse_scenario(
            self.MYSTIC + "\n".join(tasks) + "\n"))
        for got, want in zip(reports, alone, strict=True):
            del got["line"]
            assert got == want
        assert len(built) + len(charpoly) == assignments
        assert len(sums) == assignments  # one Molien sum per assignment
        # one brute force per truncation and non-identity rational class of
        # the mystic group (there are two), whatever the bounds: 2 and 4
        cutoffs = {task.split("truncation=")[1].split()[0]
                   for task in tasks if "truncation=" in task}
        assert len(brute) == 2 * len(cutoffs)
        # one reconstruction per distinct series and bounds: a trace task
        # and an assignment with its bounds share one
        assert len(closed) == len(set(closed))

    def test_one_class_walk_per_group(self, monkeypatch):
        # both kinds of assignment, their Molien sums' exponent and the
        # runner's generator checks all read one walk over the classes
        walks = []
        walk = groups_module.MatrixGroup._class_walk
        monkeypatch.setattr(groups_module.MatrixGroup, "_class_walk",
                            lambda group: walks.append(group) or walk(group))
        tasks = [self.CLOSURE, f"task molien group=cg {self.BRUTE}",
                 f"task classify group=cg {self.BRUTE} gk=3",
                 "task molien group=cg", "task classify group=cg gk=3"]
        _, passed = run_scenario(parse_scenario(
            self.MYSTIC + "\n".join(tasks) + "\n"))
        assert passed is True and len(walks) == 1

    def test_identity_trace_reads_the_dims(self, monkeypatch):
        # with no brute force, the report the brute force gives; a dimension
        # that does not fit the algebra fails the same way too
        cases = [("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
                  "truncation=10 den_bound=3"),
                 ("[[1, 0], [0, 1]]", "")]

        def outcomes():
            got = []
            for matrix, keys in cases:
                text = (self.MYSTIC + f"let e = matrix {matrix}\n"
                        f"task trace algebra=B matrix=e {keys}\n")
                try:
                    got.append(run_scenario(parse_scenario(text))[0])
                except ScenarioExecutionError as exc:
                    got.append(str(exc))
            return got

        brute = self.spy(monkeypatch, "brute_force_trace")
        [report], error = outcomes()
        assert not brute
        assert report["coefficients"] == [(d + 1) * (d + 2) // 2
                                          for d in range(11)]
        assert "matrix dimension must match" in error
        monkeypatch.setattr(
            scenario_module, "identity_trace", lambda trunc, dim:
            gs.brute_force_trace(CyclotomicMatrix.identity(dim), trunc))
        assert outcomes() == [[report], error]


    @pytest.mark.parametrize("header, closure, matrix, calls, first", [
        # g^3 = sigma_3(g) on the mystic group: g and g^2 are brute-forced
        (MYSTIC, CLOSURE, "[[0, 1, 0], [-1, 0, 0], [0, 0, -1]]", 2, 3),
        # g^2 on a diagonal group over Q(zeta_3), where sigma_2 moves the
        # coefficients: g alone is brute-forced
        ("zeta_order: 3\n" + MYSTIC.split("let g")[0]
         + "let g = matrix [[z, 0, 0], [0, 1, 0], [0, 0, 1]]\n",
         CLOSURE, "[[z^2, 0, 0], [0, 1, 0], [0, 0, 1]]", 1, 2),
        # the identity reads the dims, in either order
        (MYSTIC, CLOSURE, "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", 2, 2),
    ], ids=["mystic-cube", "zeta3-square", "identity"])
    def test_trace_after_molien_reads_its_class(self, monkeypatch, header,
                                                closure, matrix, calls, first):
        # the trace's own bounds differ from the assignment's
        tasks = [closure, f"task molien group=cg {self.BRUTE}",
                 "task trace algebra=B matrix=h truncation=10 den_bound=4"]
        text = header + f"let h = matrix {matrix}\n"
        brute = self.spy(monkeypatch, "brute_force_trace")
        reports, passed = run_scenario(parse_scenario(
            text + "\n".join(tasks) + "\n"))
        assert passed and len(brute) == calls
        # the trace first: it is brute-forced unless it is the identity, and
        # every report is the same
        brute.clear()
        reordered, _ = run_scenario(parse_scenario(
            text + "\n".join(tasks[2:] + tasks[:2]) + "\n"))
        assert len(brute) == first
        for got in reports + reordered:
            del got["line"]
        assert reordered == reports[2:] + reports[:2]


def skew_q(rng, n):
    """A random symmetric matrix of +-1 parameters with unit diagonal."""
    q = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = rng.choice((1, -1))
    return q


def signed_permutation(perm, signs):
    """x_j -> signs[j] x_perm[j]: column j holds signs[j] in row perm[j]."""
    n = len(perm)
    return CyclotomicMatrix([[signs[j] if perm[j] == i else 0
                              for j in range(n)] for i in range(n)])


def random_signed_permutation(rng, q):
    """A signed permutation that preserves the +-1 parameters q."""
    n = len(q)
    perms = [p for p in itertools.permutations(range(n))
             if all(q[p[i]][p[j]] == q[i][j] for i in range(n)
                    for j in range(n))]
    return signed_permutation(rng.choice(perms),
                              [rng.choice((1, -1)) for _ in range(n)])


class TestClassTraces:
    """A brute-force assignment brute-forces one element per rational class
    but the identity; the identity's trace is the truncation's dims, and the
    trace of a conjugate or coprime power of a representative is a Galois
    image of the representative's.  Each must equal the element's own brute
    force."""

    def assignment(self, pres, group, cutoff, den_bound, num_bound=0):
        runner = scenario_module._Runner(
            scenario_module.Scenario(bindings={"B": ("algebra", pres)}))
        args = {"algebra": Ref("B"), "traces": Ref("bruteforce"),
                "truncation": cutoff, "num_bound": num_bound,
                "den_bound": den_bound}
        return runner.assignment_for(args, group)

    def check_every_element(self, pres, generators, cutoff, den_bound,
                            num_bound=0):
        group = gs.closure(generators, cap=100)
        assignment = self.assignment(pres, group, cutoff, den_bound,
                                     num_bound)
        trunc = gs.build_truncation(pres, cutoff)
        for g, closed, how in zip(group.elements, assignment.traces,
                                  assignment.provenance, strict=True):
            series = gs.brute_force_trace(g, trunc)
            assert closed == reconstruct(series, num_bound, den_bound), how
        classes = {r for r, _, _ in group.rational_classes()}
        assert assignment.provenance.count("brute-force") == len(classes) - 1
        return group, assignment

    @pytest.mark.parametrize("name", ["mystic_bireflection.scn",
                                      "double_transposition.scn"])
    def test_bundled_groups(self, name):
        bindings = parse_scenario(gs.load_bundled_scenario(name)).bindings
        pres, g = bindings["B"][1], bindings["g"][1]
        self.check_every_element(pres, [g], 2 * pres.ngens + 2, pres.ngens)

    def test_generated_signed_permutation_and_diagonal_groups(self):
        rng = random.Random(2021)
        irrational = 0
        for _ in range(12):
            n = rng.choice((2, 3))
            q = skew_q(rng, n)
            pres = gs.quantum_affine(q)
            gens = [random_signed_permutation(rng, q)
                    for _ in range(rng.choice((1, 2)))]
            self.check_every_element(pres, gens, 2 * n + 2, n)
        for _ in range(12):
            n, N = rng.choice((2, 3)), rng.choice((3, 4, 5, 6, 8))
            pres = gs.quantum_affine(skew_q(rng, n))
            # eigenvalues not closed under Galois, so traces are irrational
            diagonal = CyclotomicMatrix(
                [[CyclotomicNumber.zeta(N, rng.randrange(N)) if i == j else 0
                  for j in range(n)] for i in range(n)])
            _, assignment = self.check_every_element(pres, [diagonal],
                                                     2 * n + 2, n)
            irrational += sum(how.startswith("sigma_") and not f.is_rational()
                              for f, how in zip(assignment.traces,
                                                assignment.provenance))
        assert irrational

    def test_symmetric_group_classes_are_conjugates(self):
        # S_3 and the signed permutations of order 48 on k_{-1}[x1, x2, x3]
        pres = gs.quantum_affine(gs.skew_symmetric_q(3))
        swap = signed_permutation((1, 0, 2), (1, 1, 1))
        cycle = signed_permutation((1, 2, 0), (1, 1, 1))
        group, assignment = self.check_every_element(pres, [swap, cycle],
                                                     8, 3)
        assert group.order == 6
        # one transposition and one 3-cycle are brute-forced
        assert assignment.provenance.count("brute-force") == 2
        assert sum(how.startswith("conjugate of element")
                   for how in assignment.provenance) == 3
        flip = signed_permutation((0, 1, 2), (-1, 1, 1))
        group, _ = self.check_every_element(pres, [swap, cycle, flip], 8, 3)
        assert group.order == 48

    def test_galois_images_over_an_irrational_normal_quotient(self):
        # k_{-1}[x1, x2, x3] / (x1^2 + zeta_5 x2^2) is not defined over Q;
        # g sends the normal element to zeta_5 times itself and has order 10
        z = CyclotomicNumber.zeta(5)
        pres = gs.normal_quotient(gs.skew_symmetric_q(3),
                                  [{(2, 0, 0): 1, (0, 2, 0): z}])
        g = CyclotomicMatrix([[0, 1, 0], [z, 0, 0], [0, 0, 1]])
        group, assignment = self.check_every_element(pres, [g], 10, 3, 2)
        assert group.order == 10
        cube = g * g * g
        seventh = cube * cube * g
        for power, k in ((cube, 3), (seventh, 7)):
            i = group.index_of(power)
            assert assignment.provenance[i] == f"sigma_{k} of element 1"
            # an irrational trace that differs from g's: no conjugation
            # could give it
            assert assignment.traces[i] != assignment.traces[1]
            assert not assignment.traces[i].is_rational()

    def test_member_traces_after_an_assignment(self, monkeypatch):
        # a trace task on any member of a group with a brute-force assignment
        # reads the series the assignment left, and prints the member's own
        # brute force
        z = CyclotomicNumber.zeta(5)
        skew = gs.quantum_affine(gs.skew_symmetric_q(3))
        cases = [
            (skew, [signed_permutation((1, 0, 2), (1, 1, 1)),
                    signed_permutation((1, 2, 0), (1, 1, 1)),
                    signed_permutation((0, 1, 2), (-1, 1, 1))], 8, 0),
            (gs.normal_quotient(gs.skew_symmetric_q(3),
                                [{(2, 0, 0): 1, (0, 2, 0): z}]),
             [CyclotomicMatrix([[0, 1, 0], [z, 0, 0], [0, 0, 1]])], 10, 2),
        ]
        calls = []
        brute = scenario_module.brute_force_trace
        monkeypatch.setattr(scenario_module, "brute_force_trace",
                            lambda *a: calls.append(a) or brute(*a))
        for pres, generators, cutoff, num_bound in cases:
            group = gs.closure(generators, cap=100)
            runner = scenario_module._Runner(
                scenario_module.Scenario(bindings={"B": ("algebra", pres)}))
            args = {"algebra": Ref("B"), "truncation": cutoff,
                    "num_bound": num_bound, "den_bound": 3}
            runner.assignment_for({**args, "traces": Ref("bruteforce")},
                                  group)
            assert calls  # one brute force per class representative
            calls.clear()
            trunc = gs.build_truncation(pres, cutoff)
            for h in group.elements:
                series = gs.brute_force_trace(h, trunc)
                want = reconstruct(series, num_bound, 3)
                runner.env["h"] = ("matrix", h)
                got = runner.run_trace({
                    **args, "matrix": Ref("h"),
                    "index": want.den.degree - want.num.degree})
                assert got["coefficients"] == [
                    c if isinstance(c, int) else str(c) for c in series]
                assert got["closed_form"] == want
            assert not calls

    def test_each_generator_is_checked_once(self, monkeypatch):
        # (1 2) is a class representative, which its brute force checks;
        # (2 3) is its conjugate, and only the runner checks it
        checked = []
        original = gs.algebras.check_automorphism

        def spy(g, trunc):
            checked.append(g)
            return original(g, trunc)
        monkeypatch.setattr(gs.algebras, "check_automorphism", spy)
        monkeypatch.setattr(scenario_module, "check_automorphism", spy)
        pres = gs.quantum_affine(gs.skew_symmetric_q(3))
        first = signed_permutation((1, 0, 2), (1, 1, 1))
        second = signed_permutation((0, 2, 1), (1, 1, 1))
        group = gs.closure([first, second])
        assert group.rational_classes()[group.index_of(second)][0] == \
            group.index_of(first)
        self.assignment(pres, group, 8, 3)
        assert checked[0] == second
        assert len(checked) == len(set(checked)) == 3
        assert {first, second} <= set(checked)

    def test_provenance_names_the_representative(self):
        bindings = parse_scenario(
            gs.load_bundled_scenario("mystic_bireflection.scn")).bindings
        group = gs.closure([bindings["g"][1]])
        assignment = self.assignment(bindings["B"][1], group, 12, 3)
        assert assignment.provenance == (
            "truncation-dims", "brute-force", "brute-force",
            "sigma_3 of element 1")

    def test_a_derived_generator_is_still_checked(self, tmp_path, capsys):
        # (2 3) is an automorphism and (1 2) is not, though it is conjugate
        # to (2 3) in the group they generate, so its trace is derived; the
        # run fails with the error of a brute force of each element in turn
        text = ("let B = algebra { kind: quantum_affine, "
                "q: [[1,-1,-1],[-1,1,1],[-1,1,1]] }\n"
                "let g = matrix [[1,0,0],[0,0,1],[0,1,0]]\n"
                "let h = matrix [[0,1,0],[1,0,0],[0,0,1]]\n"
                "task closure name=G generators=[g, h]\n"
                "task molien group=G traces=bruteforce algebra=B "
                "truncation=8\n")
        bindings = parse_scenario(text).bindings
        group = gs.closure([bindings["g"][1], bindings["h"][1]])
        assert group.rational_classes()[2] == (1, 1, 2)
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: task 'molien' (line 5): the image of the commutation "
            "relation of x1 and x3 is not zero in the algebra\n")


class TestCli:
    def test_every_option_sets_a_key_of_a_task_the_subcommand_runs(self):
        # so that _task, which reads the options through the key table,
        # never drops one: each destination is a key of the subcommand's
        # task, or of the closure that molien and subgroups run first, or a
        # common option; run reads its file and --json only
        parser = cli_module.build_parser()
        [sub] = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
        for command, p in sub.choices.items():
            dests = {a.dest for a in p._actions} - {"help", "json"}
            if command == "run":
                assert dests == {"scenario"}
                continue
            kinds = [command] + (["closure"] if "generators" in dests else [])
            keys = set().union(*(_TASK_KEYS[kind] for kind in kinds))
            assert dests - {"zeta_order"} <= keys, command

    def test_run_bundled(self, tmp_path, capsys):
        path = tmp_path / "stanley.scn"
        path.write_text(gs.load_bundled_scenario("stanley.scn"))
        assert main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "stanley"
        assert all(r["passed"] for r in payload["reports"])

    def test_run_exit_code_on_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text('task cyc series="1/(1-t)" expect cyc=7\n')
        assert main(["run", str(path)]) == 1

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.scn"
        path.write_text("let = matrix [[1]]\n")
        assert main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("task closure generators=[g1,\n", "line 1, col 28"),
        ("let H = series 1/0\n", "line 1, col 17"),
        # digits that are not ASCII: int() rejects the first and would read
        # the second as 3
        ("let H = series 1/(1-t)^\u00b2\n",
         "line 1, col 24: unexpected character '\u00b2'"),
        ("let H = series 1/(1-t)^\u0663\n",
         "line 1, col 24: unexpected character '\u0663'"),
        ("let H = series 1/(1-t)^2\u0663\n",
         "line 1, col 25: unexpected character '\u0663'"),
    ])
    def test_malformed_input_is_a_located_input_error(self, tmp_path, capsys,
                                                       text, where):
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 1 and err.value.col is not None
        path = tmp_path / "broken.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("task, field", [
        ("task molien group=G", "group_order"),
        ("task subgroups group=G", "orders"),
    ])
    def test_series_expectation_on_a_field_that_is_no_series(
            self, tmp_path, capsys, task, field):
        path = tmp_path / "mismatch.scn"
        path.write_text("let g = matrix [[-1, 0], [0, -1]]\n"
                        "task closure name=G generators=[g]\n"
                        f"{task}\n"
                        f'  expect {field}="1/(1-t)"\n')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ")
        assert f"{field!r}" in err and err.count("\n") == 1

    def test_series_expectation_on_a_text_that_is_no_series(self, tmp_path,
                                                            capsys):
        # the text result is named at the expectation's line, not located
        # inside the result as if it were the file
        path = tmp_path / "verdict.scn"
        path.write_text(
            "let B = algebra { kind: quantum_affine, degrees: [1, 1, 1], "
            "q: [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]] }\n"
            "let g = matrix [[0, -1, 0], [1, 0, 0], [0, 0, -1]]\n"
            "\n"
            "task trace algebra=B matrix=g truncation=8 den_bound=3\n"
            '  expect hdet="1"\n'
            "task trace algebra=B matrix=g truncation=8 den_bound=3\n"
            '  expect verdict="1"\n')
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            'error: line 7: expect verdict="1": the \'verdict\' field is '
            "'quasi-bireflection', not a series\n")

    def test_classify_json(self, capsys):
        assert main(["classify", "(1+t)^3/(1-t)^4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cyclotomic"] is True
        assert payload["cyc"] == 3

    def test_veronese(self, capsys):
        assert main(["veronese", "1/(1-t)^2", "-r", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["section"] == "(1 + 2t) / (1 - 2t + t^2)"
        assert payload["cyclotomic"] is False

    def test_molien_subcommand(self, capsys):
        code = main(["molien", "--zeta-order", "3",
                     "--matrix", "[[z,0,0],[0,z^2,0],[0,0,1]]",
                     "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == 27
        series = "(1 - t^3 + t^6) / (1 - 3t^3 + 3t^6 - t^9)"
        assert payload["series"] == series
        assert main(["classify", series, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cyclotomic"] is True

    def test_subgroups_subcommand(self, capsys):
        code = main(["subgroups", "--zeta-order", "3",
                     "--matrix", "[[z,0,0],[0,z^2,0],[0,0,1]]",
                     "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 19

    def test_trace_subcommand(self, capsys):
        code = main([
            "trace",
            "--algebra",
            "{ kind: quantum_affine, degrees: [1,1,1], "
            "q: [[1,-1,-1],[-1,1,-1],[-1,-1,1]] }",
            "--matrix", "[[0,-1,0],[1,0,0],[0,0,-1]]",
            "--den-bound", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "quasi-bireflection"
        assert payload["hdet"] == "1"

    def test_betti_subcommand(self, capsys):
        code = main([
            "betti",
            "--algebra",
            "{ kind: monomial_quotient, generators: [x, y], "
            "relations: [x^2, x y, y^2] }",
            "--truncation", "6", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row_sums"] == [1, 2, 3, 4, 5, 6, 7]

    def test_bireflection_subcommand(self, capsys):
        code = main(["bireflection",
                     "--matrix", "[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rank": 2, "classical_bireflection": True}

    def test_cyc_subcommand(self, capsys):
        assert main(["cyc", "1 + 2t + t^2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cyc"] == 2
        assert payload["profile"] == {"1": -2, "2": 2}

    def test_cap_exceeded_is_input_error(self, capsys):
        code = main(["molien", "--zeta-order", "12",
                     "--matrix", "[[z,0],[0,1]]", "--cap", "5"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "."],
        ["molien", "--matrix", "[[0]]"],
        ["molien", "--matrix", ""],
        ["classify", ""],
        ["veronese", "", "-r", "2"],
        ["trace", "--algebra", "{ kind: quantum_affine, degrees: [1,1], "
         "q: [[1,-1],[-1,1]] }", "--matrix", "[[1,0],[0,0]]"],
        ["cyc", "1 + t", "--zeta-order", "0"],
        ["cyc", "1 + t", "--zeta-order", "\u0663"],
        ["molien", "--zeta-order=-3", "--matrix", "[[0,1],[1,0]]"],
        ["run", "src/gradedseries/scenarios/stanley.scn", "--zeta-order", "0"],
        # a file sets its zeta_order in its header; run has no such option
        ["run", "src/gradedseries/scenarios/stanley.scn", "--zeta-order", "7"],
        ["molien", "--matrix", "[[1,1],[0,1]]", "--cap", "0"],
        ["subgroups", "--matrix", "[[0,1],[1,0]]", "--cap", "\u0663"],
        ["betti", "--algebra", "{ kind: quantum_affine, q: [[1,-1],[-1,1]] }",
         "--truncation", "\u0663"],
        ["veronese", "1/(1-t)", "-r", "2", "--num-bound", "1_0"],
    ])
    def test_bad_input_exits_2_with_an_error_line(self, capsys, argv):
        # argparse rejects a bad option value itself, with SystemExit(2)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(line" not in err
        # an argparse error shows the usage of the subcommand that met it
        if "usage:" in err:
            assert f"usage: gradedseries {argv[0]} " in err
        if argv[-2:] == ["--zeta-order", "7"]:
            assert err == ("error: unrecognized arguments: --zeta-order 7\n"
                           "usage: gradedseries run [-h] [--json] scenario\n")

    @pytest.mark.parametrize("argv, message", [
        # an option value is checked by its key's Kind, as in a file
        (["trace", "--algebra", "{ kind: quantum_affine, q: [[1,-1],[-1,1]] }",
          "--matrix", "[[0,1],[1,0]]", "--den-bound", "-1"],
         "task 'trace' key 'den_bound' must be a nonnegative integer"),
        # the swap does not preserve (x1^7), which lies above the cutoff
        (["trace", "--algebra", "{ kind: normal_quotient, q: [[1,1],[1,1]], "
          "normal: [x1^7] }", "--matrix", "[[0,1],[1,0]]",
          "--truncation", "6"],
         "task 'trace': the image of the normal element 0 is not zero in the "
         "algebra"),
        # the default gk, the generator count, is checked before any task
        (["trace", "--algebra", "{ kind: free, degrees: [1] }",
          "--matrix", "[[-1]]"],
         "task 'trace' needs key 'gk', an integer >= 2: its default, the "
         "algebra's generator count, is 1"),
    ])
    def test_trace_input_errors_name_their_cause(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("task, message", [
        ("task closure generators=[1] cap=3",
         "task 'closure' key 'generators' must be a list of declared "
         "matrices"),
        ("task trace algebra=A matrix=[g]",
         "task 'trace' key 'matrix' must be a declared matrix"),
    ])
    def test_runner_errors_name_their_task_and_line(self, tmp_path, capsys,
                                                    task, message):
        # a value of the wrong shape is located at the value, before the
        # closure ahead of it runs
        path = tmp_path / "refs.scn"
        path.write_text(TASK_PREAMBLE + task + "\n")
        assert main(["run", str(path)]) == 2
        col = task.index("[") + 1
        assert capsys.readouterr() == (
            "", f"error: line 5, col {col}: {message}\n")

    @pytest.mark.parametrize("argv, task", [
        (["veronese", "1/(1-t)", "-r", "0"], "task veronese series=H r=0"),
        (["molien", "--matrix", "[[0,1],[1,0]]", "--cap", "0"],
         "task closure generators=[g] cap=0"),
    ])
    def test_option_values_get_the_file_routes_text(self, capsys, argv,
                                                    task):
        with pytest.raises(ParseError) as err:
            parse_scenario(TASK_PREAMBLE + task + "\n")
        text = str(err.value).split(": ", 1)[1]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {text}\n")

    @pytest.mark.parametrize("task, message", [
        ("task closure name=K generators=[g] dim=3",
         "dim 3 does not match the generators' dimension 2"),
        ("task closure name=K generators=[g, s]", "matrix is singular"),
    ])
    def test_closure_input_errors_name_their_task_and_line(
            self, tmp_path, capsys, task, message):
        path = tmp_path / "closure.scn"
        path.write_text(TASK_PREAMBLE + "let s = matrix [[1, 2], [2, 4]]\n"
                        + task + "\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: task 'closure' (line 6): {message}\n")

    def test_betti_negative_truncation_is_bad_input(self, capsys):
        assert main(["betti", "--algebra",
                     "{ kind: quantum_affine, q: [[1,-1],[-1,1]] }",
                     "--truncation", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: task 'betti' key 'truncation' must be a nonnegative " \
            "integer\n"

    def test_algebra_literal_sees_zeta_order(self, capsys):
        code = main(["trace", "--zeta-order", "4", "--algebra",
                     "{ kind: quantum_affine, degrees: [1,1], "
                     "q: [[1,z],[z^3,1]] }",
                     "--matrix", "[[1,0],[0,1]]"])
        assert code == 0

    def test_algebra_literal_errors_are_located_in_the_literal(self, capsys):
        assert main(["betti", "--algebra", "{ kind: nope }"]) == 2
        assert "line 1, col 1: unknown algebra kind" in capsys.readouterr().err

    @pytest.mark.parametrize("literal, key, message", [
        # this q breaks q_ji = 1/q_ij, and a free algebra reads no q at all
        ("{ kind: free, q: [[1,2],[1,1]] }", "q",
         "algebra kind 'free' takes no key 'q'"),
        ("{ kind: monomial_quotient, generators: [x,y], relations: [x y], "
         "normal: [x^2] }", "normal",
         "algebra kind 'monomial_quotient' takes no key 'normal'"),
        ("{ q: [[1,1],[1,1]], kind: quantum_affine, relations: [x1 x2] }",
         "relations", "algebra kind 'quantum_affine' takes no key 'relations'"),
        ("{ kind: quantum_affine, q: [[1,-1],[-1,1]], q: [[1,1],[1,1]] }",
         "q: [[1,1]", "algebra key 'q' is given twice"),
        ("{ kind: free, generators: [x], kind: free }", "kind: free }",
         "algebra key 'kind' is given twice"),
    ])
    def test_algebra_keys_outside_the_kind_are_located(self, capsys, literal,
                                                       key, message):
        assert main(["betti", "--algebra", literal, "--truncation", "3"]) == 2
        col = literal.index(key) + 1
        assert capsys.readouterr().err == \
            f"error: line 1, col {col}: {message}\n"

    @pytest.mark.parametrize("element, col", [("x1^3 x2^-1 + x1 x2", 58),
                                              ("x1^0 x2^2", 53)])
    def test_normal_element_powers_below_one_are_located(self, capsys,
                                                         element, col):
        literal = ("{ kind: normal_quotient, q: [[1,1],[1,1]], "
                   f"normal: [{element}] }}")
        assert main(["betti", "--algebra", literal]) == 2
        err = capsys.readouterr().err
        assert f"line 1, col {col}: powers in monomials must be positive" \
            in err, err

    @pytest.mark.parametrize("literal, col, message", [
        ("{ kind: monomial_quotient, generators: [x, y], relations: [x w] }",
         62, "unknown generator 'w'"),
        ("{ kind: normal_quotient, generators: [x, y], q: [[1,-1],[-1,1]], "
         "normal: [y x] }", 77, "monomials must be written in generator order"),
        ("{ kind: free, degrees: [1 1] }", 27, "expected ']'"),
        ("{ kind: free, degrees: [] }", 25, "expected an integer"),
        # a relation word's power reads as a normal element's does
        ("{ kind: monomial_quotient, generators: [x, y], relations: [x^0] }",
         60, "powers in monomials must be positive"),
        # a scalar coefficient of a normal element holds no t
        ("{ kind: normal_quotient, q: [[1,1],[1,1]], normal: [x1 + (2t) x2] }",
         58, "coefficients must not involve t"),
    ])
    def test_lists_and_monomials_are_located(self, capsys, literal, col,
                                             message):
        assert main(["betti", "--algebra", literal]) == 2
        assert capsys.readouterr().err == \
            f"error: line 1, col {col}: {message}\n"

    @pytest.mark.parametrize("literal, message", [
        ("{ kind: free, generators: [x, y], degrees: [1] }",
         "one degree per generator required"),
        ("{ kind: quantum_affine, q: [[1,-1],[-1,1]], degrees: [1, 1, 1] }",
         "one degree per generator required"),
        ("{ kind: monomial_quotient, generators: [x, x], relations: [x^2] }",
         "generator names must be distinct"),
        ("{ kind: normal_quotient, generators: [x, x], q: [[1,1],[1,1]], "
         "normal: [x] }", "generator names must be distinct"),
    ])
    def test_names_and_degrees_are_checked(self, capsys, literal, message):
        assert main(["betti", "--algebra", literal]) == 2
        assert capsys.readouterr().err == \
            f"error: line 1, col 1: bad algebra literal: {message}\n"

    def test_scalar_coefficients_of_normal_elements(self, tmp_path, capsys):
        # k_{-1}[x1, x2, x3] / (x1^2 + zeta_5 x2^2), written in a scenario
        # and built directly, has the same dims and Betti table
        path = tmp_path / "zeta5.scn"
        path.write_text(
            "zeta_order: 5\n"
            "let B = algebra { kind: normal_quotient, "
            "q: [[1,-1,-1],[-1,1,-1],[-1,-1,1]], normal: [x1^2 + (z) x2^2] }\n"
            "task betti algebra=B truncation=6\n")
        assert main(["run", str(path), "--json"]) == 0
        [report] = json.loads(capsys.readouterr().out)["reports"]
        pres = gs.normal_quotient(gs.skew_symmetric_q(3), [
            {(2, 0, 0): 1, (0, 2, 0): CyclotomicNumber.zeta(5)}])
        trunc = gs.build_truncation(pres, 6)
        table = gs.betti_numbers(trunc)
        assert report["dims"] == trunc.dims()
        assert report["betti"] == {
            f"{i},{j}": v for (i, j), v in sorted(table.entries.items())}

    def test_monomial_quotient_names_default_from_degrees(self, capsys):
        assert main(["betti", "--algebra",
                     "{ kind: monomial_quotient, degrees: [1, 2] }",
                     "--truncation", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [1, 1, 2, 3, 5]

    def test_literal_starting_with_a_dash(self, capsys):
        assert main(["classify", "--json", "--", "-t"]) == 0
        assert json.loads(capsys.readouterr().out)["series"] == "-t"
        assert main(["betti", "--algebra=-x"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["classify", "-t"],
                                      ["betti", "--algebra", "-x"]])
    def test_literal_read_as_an_option_gives_an_error_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'--'" in err and "--opt=TEXT" in err

    @pytest.mark.parametrize("argv, hinted", [
        (["cyc", "1+t", "--zeta-order=0"], False),
        (["cyc", "1+t", "--zeta=0"], False),
        (["cyc", "1+t", "extra"], False),
        (["molien", "--matrix"], False),
        (["molien", "--matrix", "--json"], False),
        (["veronese", "1/(1-t)", "-r2", "--zeta-order", "0"], False),
        (["cyc", "-1+t"], True),
        (["cyc", "1+t", "-x"], True),
        (["betti", "--algebra", "-x"], True),
    ])
    def test_dash_hint_only_for_a_token_read_as_an_option(self, capsys, argv,
                                                           hinted):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("error: ")
        assert (cli_module.DASH_HINT in lines) is hinted
        assert lines[1 + hinted].startswith("usage: ")

    def test_repeated_calls_build_the_parser_at_most_once(self, monkeypatch,
                                                         capsys):
        built = []
        init = cli_module._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "__init__", counting)
        assert main(["cyc", "1 + t"]) == 0
        first = len(built)
        for argv in (["cyc", "1 + t"], ["classify", "1/(1-t)", "--json"],
                     ["betti", "--algebra", "{ kind: nope }"]):
            main(argv)
        assert len(built) == first
        assert built.count("gradedseries") <= 1

    def test_molien_generators_do_not_carry_over(self, capsys):
        swap = ["--matrix", "[[0,1],[1,0]]", "--json"]
        assert main(["molien", *swap]) == 0
        alone = capsys.readouterr().out
        assert main(["molien", "--matrix", "[[-1,0],[0,1]]",
                     "--matrix", "[[1,0],[0,-1]]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 4
        assert main(["molien", *swap]) == 0
        after = capsys.readouterr().out
        assert after == alone
        assert json.loads(after)["group_order"] == 2

    def test_json_flag_does_not_carry_over(self, capsys):
        assert main(["cyc", "1 + 2t + t^2"]) == 0
        text = capsys.readouterr().out
        assert main(["cyc", "1 + 2t + t^2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cyc"] == 2
        assert main(["cyc", "1 + 2t + t^2"]) == 0
        assert capsys.readouterr().out == text
        assert text.startswith("cyc: 2\n")

    @pytest.mark.parametrize("bad", [["veronese", "1/(1-t)^2"],
                                     ["veronese", "1/(1-t", "-r", "2"]])
    def test_a_bad_call_leaves_the_next_call_alone(self, capsys, bad):
        good = ["veronese", "1/(1-t)^2", "-r", "3"]
        assert main(good) == 0
        usual = capsys.readouterr()
        try:
            code = main(bad)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(good) == 0
        assert capsys.readouterr() == usual


README = Path(__file__).parent.parent / "README.md"


def _readme_command_lines():
    """The README "Command line" block, one argv per command."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_command_lines())
def test_readme_command_line_examples_run(argv, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    assert argv[0] == "gradedseries"
    assert main(argv[1:]) == 0
