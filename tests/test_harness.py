import csv
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from bernsched import dp_exact, harness
from bernsched.dp_exact import SolverCapError, solve_exact
from bernsched.dp_stratified import sandwich_bound
from bernsched.harness import (
    ComparisonRow,
    ExperimentSpec,
    compare,
    generate,
    report,
    solve_pipeline,
)
from bernsched.instances import (
    InstanceError,
    instance_from_dict,
    instance_to_dict,
    validate_and_canonicalize,
)
from bernsched.policies import SeptPolicy
from bernsched.timegrid import GridError


class TestGenerate:
    def test_separated_scheme(self):
        spec = ExperimentSpec(n_types=2, epsilon="1/8", scheme="separated",
                              count=5, seed=1)
        for inst in generate(spec):
            sizes = [t.size for t in inst.types]
            eps2 = Fraction(1, 64)
            for a, b in zip(sizes, sizes[1:]):
                assert b <= eps2 * a

    def test_powers_scheme(self):
        spec = ExperimentSpec(n_types=3, scheme="powers-of-c", c=169,
                              count=5, seed=2)
        for inst in generate(spec):
            for t in inst.types:
                x = t.size
                while x > 1:
                    x /= 169
                assert x == 1

    @pytest.mark.parametrize("c", [1, 0, -3])
    def test_powers_scheme_needs_c_at_least_2(self, c):
        # c = 1 would make every size 1 and merge the types into one;
        # a negative c would fail on a negative size
        spec = ExperimentSpec(n_types=3, scheme="powers-of-c", c=c, count=2)
        with pytest.raises(InstanceError, match="^c must be at least 2$"):
            generate(spec)

    def test_count_must_not_be_negative(self):
        # a negative count used to read as no instances; 0 still is none
        with pytest.raises(InstanceError,
                           match="^count must not be negative$"):
            generate(ExperimentSpec(count=-1))
        assert generate(ExperimentSpec(count=0)) == []

    def test_seed_determinism(self):
        spec = ExperimentSpec(count=4, seed=9)
        assert generate(spec) == generate(spec)

    def test_unknown_scheme(self):
        with pytest.raises(InstanceError, match="unknown scheme 'bogus'"):
            generate(ExperimentSpec(scheme="bogus", count=1))


class TestCompare:
    def test_one_type_example_row(self):
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        rows = compare([inst])
        row = rows[0]
        assert row.exact_value == pytest.approx(507.0)
        assert row.stratified_value == pytest.approx(572.0)
        assert row.ratio == pytest.approx(572 / 507)
        assert not row.skipped

    def test_deterministic_sept_matches_exact(self):
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0]), (1, [1.0])])
        row = compare([inst])[0]
        assert row.sept_value == pytest.approx(row.exact_value, abs=1e-9)

    def test_empty_list(self):
        assert compare([]) == []

    def test_cap_marks_skipped(self):
        # 13 jobs: the state cap, not the job count, decides the skip
        inst = validate_and_canonicalize(
            1, "1/13", [(169, [0.5] * 6), (1, [0.5] * 7)]
        )
        assert not compare([inst])[0].skipped
        rows = compare([inst], state_cap=10)
        assert rows[0].skipped.startswith(
            "SolverCapError: state cap exceeded (")
        assert rows[0].skipped.endswith(" states)")

    def test_cap_skip_before_any_solve(self, monkeypatch):
        # 21 one-job types have 2**21 - 1 count vectors with jobs left, each
        # a state at the zero profile: more than the default cap allows, so
        # the row is skipped before either traversal runs, with the reason
        # the depth-first walk used to reach the cap with
        def no_traversal(*args):
            raise AssertionError("a traversal ran")

        for name in ("_solve_dfs", "_solve_levels"):
            monkeypatch.setattr(dp_exact, name, no_traversal)
        inst = validate_and_canonicalize(
            1, "1/13", [(169 ** k, [0.5]) for k in range(21)])
        row, = compare([inst])
        assert row.skipped == "SolverCapError: state cap exceeded " \
                              "(2000001 states)"
        assert (row.n_types, row.exact_states) == (21, 0)

    def test_grid_error_marks_skipped(self, monkeypatch):
        def no_grid(inst, groups):
            raise GridError("no room for group-1 endpoints between thresholds")

        monkeypatch.setattr(harness, "build_grid", no_grid)
        good = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        rows = compare([good, good])
        assert [r.skipped for r in rows] == [
            "GridError: no room for group-1 endpoints between thresholds"
        ] * 2
        assert rows[0].exact_value == pytest.approx(507.0)

    @pytest.mark.parametrize("types, jobs, machines", [
        (2, 10, 2), (1, 200, 3)], ids=["2x10x2", "1x200x3"])
    def test_verifies_past_twelve_jobs(self, types, jobs, machines):
        # no job cap: the default state cap admits 20 and 200 jobs
        spec = ExperimentSpec(n_types=types, jobs_per_type=jobs,
                              machines=machines, q_choices=(0.25, 0.5, 0.75),
                              count=1, seed=1)
        row, = compare(generate(spec))
        assert row.skipped == ""
        assert row.total_jobs == types * jobs
        assert 1 <= row.ratio <= row.bound

    def test_empty_type_changes_nothing(self):
        # a size without jobs is dropped, so it joins no group or grid
        inst = validate_and_canonicalize(1, "1/13", [(3, [0.5, 0.5])])
        padded = validate_and_canonicalize(1, "1/13", [(3, [0.5, 0.5]),
                                                       ("1", [])])
        assert padded == inst
        untimed = [{k: v for k, v in row.as_dict().items()
                    if not k.endswith("_seconds")}
                   for row in compare([inst, padded])]
        assert untimed[0] == {**untimed[1], "instance_id": "i0000"}
        assert untimed[0]["stratified_value"] == pytest.approx(66 / 13)

    @pytest.mark.parametrize("raw", [
        [(3, [0.5] * 21)],
        [(13, [0.25, 0.5, 0.75] * 4), (1, [0.5] * 12)],
    ], ids=["21-jobs", "24-jobs"])
    def test_baselines_past_enumeration(self, raw):
        # more stochastic jobs than enumeration takes: the baselines are
        # priced over the states they reach
        inst = validate_and_canonicalize(2, "1/13", raw)
        rows = compare([inst, inst])
        for row in rows:
            assert row.skipped == ""
            assert math.isfinite(row.sept_value)
            assert math.isfinite(row.fixed_value)
            assert row.sept_value >= row.exact_value - 1e-9
            assert row.fixed_value >= row.exact_value - 1e-9
            assert 1 <= row.ratio <= row.bound

    def test_bound_checked_before_baselines(self, monkeypatch):
        def baseline_fails(policy, inst, state_cap):
            raise AssertionError("baseline evaluated")

        monkeypatch.setattr(harness, "expected_cost_reached", baseline_fails)
        monkeypatch.setattr(harness, "sandwich_bound_float", lambda n, e: 1)
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        with pytest.raises(harness.BoundViolation):
            compare([inst])

    @pytest.mark.parametrize("sept", [1.0, math.nextafter(507.0, 0)],
                             ids=["far", "one-ulp"])
    def test_exact_above_sept_raises(self, monkeypatch, sept):
        # SEPT lies in the exact DP's class, so a SEPT price below the
        # exact value, by however little, is a violation of the ceiling
        def cheap_sept(policy, inst, state_cap):
            assert isinstance(policy, SeptPolicy)
            return Fraction(sept)

        monkeypatch.setattr(harness, "expected_cost_reached", cheap_sept)
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        with pytest.raises(harness.BoundViolation) as caught:
            compare([inst])
        assert str(caught.value) == f"exact 507.0 above SEPT {sept} on i0000"
        assert caught.value.instance == inst
        assert caught.value.row.sept_value == sept

    def test_exact_equal_to_sept_passes(self):
        # on one machine the exact value is SEPT's to the bit: no tolerance
        # is needed for the ceiling to hold
        inst = validate_and_canonicalize(1, "1/13", [(169, [0.5, 0.25]),
                                                     (1, [0.75])])
        row, = compare([inst])
        assert row.skipped == "" and row.exact_value == row.sept_value

    def test_ratios_at_least_one(self):
        spec = ExperimentSpec(n_types=2, jobs_per_type=2, machines=2,
                              count=6, seed=17)
        rows = compare(generate(spec))
        for row in rows:
            if not row.skipped:
                assert row.ratio >= 1 - 1e-9
                assert row.ratio <= row.bound + 1e-9


class TestSharedInstance:
    """Rounding that moves no size hands back its input, so the exact
    solve, the grid and the stratified solve read one integer view."""

    @pytest.mark.parametrize("scheme", ["separated", "powers-of-c"])
    def test_stratified_solve_on_the_instance_itself(self, scheme):
        spec = ExperimentSpec(n_types=2, jobs_per_type=2, machines=2,
                              scheme=scheme, count=2, seed=1)
        for inst in generate(spec):
            solve_exact(inst)  # builds the integer view the solves share
            solution, _grid, rounded, merges = solve_pipeline(inst)
            assert rounded is inst and merges == []
            copy = instance_from_dict(instance_to_dict(inst))
            assert copy == inst and copy is not inst
            other = solve_pipeline(copy)[0]
            assert (solution.value, solution.states) == \
                (other.value, other.states)
            assert dict(solution.policy) == dict(other.policy)

    @pytest.mark.parametrize("n, e", [(1, 2), (2, 13), (3, 7), (4, 3),
                                      (2, 1000)])
    def test_row_bound_is_the_exact_bound_rounded(self, n, e):
        inst = validate_and_canonicalize(
            1, f"1/{e}", [(e ** (2 * k), [0.5, 0.5]) for k in range(n)])
        row, = compare([inst], state_cap=1)
        assert row.bound.hex() == \
            float(sandwich_bound(n, Fraction(1, e))).hex()


class TestReport:
    def test_ratio_counts_when_a_baseline_fails(self, monkeypatch):
        # the bound check passed, so the row's ratio and states count in
        # the summary although its baselines did not finish
        def baseline_fails(policy, inst, state_cap):
            raise SolverCapError("state cap exceeded (7 states)")

        monkeypatch.setattr(harness, "expected_cost_reached", baseline_fails)
        inst = validate_and_canonicalize(1, "1/13", [(3, [0.5] * 22)])
        row = compare([inst])[0]
        assert row.skipped == "SolverCapError: state cap exceeded (7 states)"
        assert math.isnan(row.sept_value)
        summary = report([row])
        assert summary["skipped"] == 1
        assert summary["max_ratio"] == row.ratio >= 1
        assert summary["max_states"] == row.stratified_states > 0

    def test_json_file_writes_null_for_nan(self, tmp_path):
        json_path = tmp_path / "rows.json"
        summary = report([ComparisonRow(instance_id="i0000", skipped="cap")],
                         json_path=str(json_path))
        assert math.isnan(summary["max_ratio"])  # the returned dict keeps nan
        data = json.loads(json_path.read_text(),
                          parse_constant=_reject_constant)
        assert data["summary"]["max_ratio"] is None
        assert data["rows"][0]["exact_value"] is None
        assert data["rows"][0]["exact_seconds"] == 0.0

    def test_csv_and_json(self, tmp_path):
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        rows = compare([inst])
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        summary = report(rows, csv_path=str(csv_path), json_path=str(json_path))
        with open(csv_path) as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == list(ComparisonRow.FIELDS)
        assert len(lines) == 2
        data = json.loads(json_path.read_text())
        assert data["summary"]["max_ratio"] == pytest.approx(572 / 507)
        assert data["summary"]["rows"] == 1
        assert summary["max_ratio"] == pytest.approx(max(
            r["ratio"] for r in data["rows"]
        ))


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunExperiments:
    @pytest.mark.parametrize("ratios, printed", [
        ([float("nan")] * 3, "nan"),
        ([float("nan"), 1.25, 1.5], "1.500000"),
    ], ids=["all-skipped", "some-skipped"])
    def test_overall_max_ignores_cells_without_ratio(
            self, tmp_path, capsys, monkeypatch, ratios, printed):
        script = _script("run_experiments")
        cells = iter(ratios)

        def rows_of_one_cell(instances):
            ratio = next(cells)
            return [ComparisonRow(instance_id="i0000", ratio=ratio,
                                  skipped="cap" if math.isnan(ratio) else "")]

        monkeypatch.setattr(script, "compare", rows_of_one_cell)
        monkeypatch.setattr(script, "generate", lambda spec: [])
        assert script.main(["--out", str(tmp_path), "--machines", "1"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"overall max ratio: {printed}"
        written = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert written["overall_max_ratio"] == (
            None if printed == "nan" else float(printed))

    def test_typed_error_is_one_line(self, tmp_path, capsys):
        script = _script("run_experiments")
        assert script.main(["--out", str(tmp_path), "--epsilon", "1/1"]) == 1
        assert capsys.readouterr().err == "error: InstanceError: epsilon " \
            "must be 1/E with integer E >= 2, got 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "1/1"], "epsilon must be 1/E with integer E >= 2, "
                               "got 1"),
        (["--machines", "0"], "need at least one machine"),
        (["--count", "-1"], "count must not be negative"),
    ], ids=["epsilon", "machines", "count"])
    def test_typed_error_creates_no_directory(self, tmp_path, capsys,
                                              argv, message):
        script = _script("run_experiments")
        out = tmp_path / "res"
        assert script.main(["--out", str(out), *argv]) == 1
        assert capsys.readouterr().err == f"error: InstanceError: {message}\n"
        assert not out.exists()


class TestMcConvergence:
    def test_mean_without_spread_must_be_the_truth(self, monkeypatch, capsys):
        script = _script("mc_convergence")
        argv = ["--count", "1", "--trials", "10"]
        assert script.main(argv) == 0

        def off_by_one(policy, inst, trials, seed):
            return script.expected_cost_exact(policy, inst) + 1.0, 0.0

        monkeypatch.setattr(script, "expected_cost_mc", off_by_one)
        assert script.main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == \
            "worst deviation: inf standard errors"

        def exact(policy, inst, trials, seed):
            return script.expected_cost_exact(policy, inst), 0.0

        monkeypatch.setattr(script, "expected_cost_mc", exact)
        assert script.main(argv) == 0

    def test_typed_error_is_one_line(self, capsys):
        script = _script("mc_convergence")
        assert script.main(["--count", "1", "--trials", "0"]) == 1
        assert capsys.readouterr().err == \
            "error: ReplayError: need at least one trial\n"

    def test_count_below_one_is_a_usage_error(self, capsys):
        script = _script("mc_convergence")
        with pytest.raises(SystemExit) as exc:
            script.main(["--count", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--count must be at least 1" in captured.err
        assert "worst deviation" not in captured.out
