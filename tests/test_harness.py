import csv
import json
from fractions import Fraction

import pytest

from bernsched import harness
from bernsched.harness import (
    ComparisonRow,
    ExperimentSpec,
    compare,
    generate,
    report,
)
from bernsched.instances import InstanceError, validate_and_canonicalize
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
        inst = validate_and_canonicalize(
            1, "1/13", [(169, [0.5] * 6), (1, [0.5] * 7)]
        )
        rows = compare([inst], max_jobs=4)
        assert rows[0].skipped == \
            "SolverCapError: job cap exceeded (13 jobs > max_jobs 4)"
        rows = compare([inst], max_jobs=13, state_cap=10)
        assert rows[0].skipped.startswith(
            "SolverCapError: state cap exceeded (")
        assert rows[0].skipped.endswith(" states)")

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

    def test_too_many_stochastic_jobs_marks_skipped(self):
        # the solvers take 21 jobs, the baselines' enumeration does not
        inst = validate_and_canonicalize(1, "1/13", [(3, [0.5] * 21)])
        rows = compare([inst, inst], max_jobs=21)
        assert [r.skipped for r in rows] == [
            "ReplayError: too many stochastic jobs to enumerate (21)"
        ] * 2
        assert rows[1].ratio >= 1

    def test_bound_checked_before_baselines(self, monkeypatch):
        def enumerate_fails(policy, inst):
            raise AssertionError("baseline evaluated")

        monkeypatch.setattr(harness, "expected_cost_exact", enumerate_fails)
        monkeypatch.setattr(harness, "sandwich_bound", lambda n, eps: 1)
        inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
        with pytest.raises(harness.BoundViolation):
            compare([inst])

    def test_ratios_at_least_one(self):
        spec = ExperimentSpec(n_types=2, jobs_per_type=2, machines=2,
                              count=6, seed=17)
        rows = compare(generate(spec))
        for row in rows:
            if not row.skipped:
                assert row.ratio >= 1 - 1e-9
                assert row.ratio <= row.bound + 1e-9


class TestReport:
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
