import json
from fractions import Fraction

import pytest

from bernsched import cli
from bernsched.cli import dump_policy, main, state_to_str, str_to_state
from bernsched.dp_exact import ExactRule, _solve_dfs, _solve_levels, solve_exact
from bernsched.harness import BoundViolation, ComparisonRow
from bernsched.instances import load_instance, save_instance, \
    validate_and_canonicalize
from bernsched.policies import FixedAssignmentPolicy, SeptPolicy, \
    expected_cost_reached


@pytest.fixture()
def instance_file(tmp_path):
    inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_state_string_roundtrip():
    from fractions import Fraction
    key = ((Fraction(0), Fraction(13, 8)), (2, 0))
    assert str_to_state(state_to_str(key)) == key


def test_gen(tmp_path, capsys):
    prefix = str(tmp_path / "inst_")
    code, out = run(capsys, "gen", "--count", "3", "--seed", "5",
                    "--out-prefix", prefix)
    assert code == 0
    paths = out.strip().splitlines()
    assert len(paths) == 3
    for p in paths:
        load_instance(p)  # parses and validates


def test_solve_exact(instance_file, capsys, tmp_path):
    policy_path = str(tmp_path / "pol.json")
    code, out = run(capsys, "solve-exact", "--instance", instance_file,
                    "--dump-policy", policy_path)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(507.0)
    dumped = json.loads(open(policy_path).read())
    assert dumped["kind"] == "exact"
    assert dumped["decisions"]


def test_solve_stratified(instance_file, capsys, tmp_path):
    diag_path = str(tmp_path / "diag.json")
    code, out = run(capsys, "solve-stratified", "--instance", instance_file,
                    "--diagnostics", diag_path)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(572.0)
    diag = json.loads(open(diag_path).read())
    assert set(diag) == {
        "relevant_time_points", "max_profiles_per_timepoint", "states"
    }


def test_simulate_enumerate(instance_file, capsys):
    code, out = run(capsys, "simulate", "--instance", instance_file,
                    "--policy", "exact", "--enumerate")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "enum"
    assert data["mean"] == pytest.approx(507.0)


def test_simulate_mc_reproducible(instance_file, capsys):
    args = ("simulate", "--instance", instance_file, "--policy", "sept",
            "--trials", "50", "--seed", "11")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["method"] == "mc"


def test_simulate_policy_file(capsys, tmp_path):
    # the second table starts the q = 1/256 large job, then the small one;
    # when both are long the machine is free at 235, where the other large
    # job may not start, so the replay takes the file's "idle" entry to 252
    path = str(tmp_path / "inst.json")
    policy_path = str(tmp_path / "pol.json")
    for raw, idles in (([(169, [1.0, 1.0])], False),
                       ([(169, [1 / 256, 0.5]), (1, [1.0])], True)):
        save_instance(validate_and_canonicalize(1, "1/13", raw), path)
        run(capsys, "solve-stratified", "--instance", path,
            "--dump-policy", policy_path)
        decisions = json.loads(open(policy_path).read())["decisions"]
        assert ("idle" in decisions.values()) == idles
        code, out = run(capsys, "simulate", "--instance", path,
                        "--policy", f"file:{policy_path}", "--enumerate")
        assert code == 0
        _, want = run(capsys, "simulate", "--instance", path,
                      "--policy", "stratified", "--enumerate")
        assert json.loads(out) == json.loads(want)


def test_compare(capsys, tmp_path):
    csv_path = str(tmp_path / "rows.csv")
    code, out = run(capsys, "compare", "--count", "3", "--seed", "2",
                    "--csv", csv_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 3
    assert open(csv_path).readline().startswith("instance_id")


def _strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_compare_writes_strict_json(capsys, tmp_path):
    # no rows leave max_ratio without a value; at eps = 1/2 rounding 15 up
    # to 16 splits 4 off its group, so that row is skipped without a ratio
    inst = validate_and_canonicalize(1, "1/2", [(15, [0.5]), (4, [0.5]),
                                                (1, [0.5])])
    path = str(tmp_path / "big.json")
    save_instance(inst, path)
    json_path = tmp_path / "rows.json"
    csv_path = tmp_path / "rows.csv"
    for argv in (["--count", "0"], ["--instances", path]):
        code, out = run(capsys, "compare", *argv, "--json-out",
                        str(json_path), "--csv", str(csv_path))
        assert code == 0
        summary = _strict_json(out)
        written = _strict_json(json_path.read_text())
        assert summary == written["summary"]
        assert summary["max_ratio"] is None
    row, = written["rows"]
    assert row["skipped"] == \
        "InstanceError: divisibility rounding changed the group partition"
    assert row["ratio"] is row["sept_value"] is None
    assert row["exact_value"] == 13
    assert row["bound"] > 1
    # the CSV keeps writing nan
    header, values = csv_path.read_text().splitlines()
    assert dict(zip(header.split(","), values.split(",")))["ratio"] == "nan"


def test_compare_unknown_scheme(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scheme", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_compare_instances_needs_a_path(capsys):
    # an empty shell glob leaves --instances with nothing after it: that is
    # a usage error, not a generated sweep
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--instances"])
    assert exc.value.code == 2
    assert "--instances: expected at least one argument" \
        in capsys.readouterr().err


def test_grid_dump(instance_file, capsys, tmp_path):
    code, out = run(capsys, "grid-dump", "--instance", instance_file,
                    "--members", "6")
    assert code == 0
    assert "p*=169" in out and "p°=234" in out
    assert "0 13 26 39 52 234" in out

    # two groups: the first endpoints are consecutive fine points of the
    # small group, listed past the stored run starts 0, 1 and 639/8
    inst = validate_and_canonicalize(1, "1/8", [(80, [0.5]), (1, [1.0])])
    path = str(tmp_path / "two.json")
    save_instance(inst, path)
    code, out = run(capsys, "grid-dump", "--instance", path, "--members", "4")
    assert code == 0
    assert "  0 1 9/8 5/4\n" in out


def test_round_divisibility(capsys, tmp_path):
    inst = validate_and_canonicalize(1, "1/13", [(1000, [1.0]), (3, [1.0])])
    path = str(tmp_path / "i.json")
    save_instance(inst, path)
    out_path = str(tmp_path / "o.json")
    code, _ = run(capsys, "round", "--instance", path, "--mode",
                  "divisibility", "--out", out_path)
    assert code == 0
    rounded = load_instance(out_path)
    assert rounded.types[0].size == 1002


def test_round_powers(capsys, tmp_path):
    inst = validate_and_canonicalize(1, "1/13", [(200, [1.0])])
    path = str(tmp_path / "i.json")
    save_instance(inst, path)
    code, out = run(capsys, "round", "--instance", path, "--mode", "powers",
                    "--c", "169")
    assert code == 0
    data = json.loads(out)
    assert data["types"][0]["size"] == "28561"


def test_typed_errors_exit_1(capsys, tmp_path, monkeypatch):
    # 13 jobs solve under the default state cap, and fail under a small one
    big = validate_and_canonicalize(1, "1/13", [(169, [0.5] * 6),
                                                (1, [0.5] * 7)])
    path = str(tmp_path / "big.json")
    save_instance(big, path)
    code, out = run(capsys, "solve-exact", "--instance", path)
    assert code == 0 and json.loads(out)["value"] > 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_exact",
                      lambda inst: solve_exact(inst, state_cap=10))
        assert main(["solve-exact", "--instance", path]) == 1
    assert capsys.readouterr().err == "error: SolverCapError: state cap " \
        "exceeded (11 states)\n"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"machines": 1, "epsilon": "1/1",
                               "types": [{"size": "3", "jobs": [0.5]}]}))
    assert main(["solve-stratified", "--instance", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: InstanceError: ")

    for fields, kind in (({"epsilon": "abc"}, "NumericsError"),
                         ({"epsilon": "3/0"}, "NumericsError"),
                         ({"machines": "x"}, "InstanceError"),
                         ({"machines": 2.7}, "InstanceError"),
                         ({"machines": True}, "InstanceError"),
                         ({"types": [{"size": "3", "jobs": [True]}]},
                          "InstanceError"),
                         ({"types": [{"size": True, "jobs": [0.5]}]},
                          "InstanceError")):
        bad.write_text(json.dumps({"machines": 1, "epsilon": "1/13",
                                   "types": [{"size": "3", "jobs": [0.5]}],
                                   **fields}))
        assert main(["solve-exact", "--instance", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {kind}: ")

    ok = validate_and_canonicalize(1, "1/13", [(3, [0.5])])
    save_instance(ok, path)
    policy = tmp_path / "policy.json"
    for content in ({"kind": "exact"}, {"kind": "exact", "decisions": {"x": 0}},
                    {"kind": "optimal", "decisions": {"[0]|[1]": 0}}):
        policy.write_text(json.dumps(content))
        assert main(["simulate", "--instance", path, "--policy",
                     f"file:{policy}", "--enumerate"]) == 1
        assert capsys.readouterr().err.startswith("error: ReplayError: ")

    # malformed JSON is a typed error too, not a decoder traceback
    for path_arg, argv, kind in (
            (bad, ["solve-exact", "--instance", str(bad)], "InstanceError"),
            (policy, ["simulate", "--instance", path, "--policy",
                      f"file:{policy}", "--enumerate"], "ReplayError")):
        path_arg.write_text("{bad")
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")

    # so are a missing input file, an unknown policy name, and a malformed
    # epsilon or a negative count for the generator
    missing = str(tmp_path / "missing.json")
    prefix = str(tmp_path / "gen_")
    for argv, kind in (
            (["gen", "--epsilon", "abc", "--out-prefix", prefix],
             "NumericsError"),
            (["gen", "--epsilon", "1/0", "--out-prefix", prefix],
             "NumericsError"),
            (["gen", "--epsilon", "0", "--out-prefix", prefix],
             "InstanceError"),
            (["gen", "--scheme", "powers-of-c", "--c", "1", "--types", "3",
              "--out-prefix", prefix], "InstanceError"),
            (["gen", "--scheme", "powers-of-c", "--c", "-3",
              "--out-prefix", prefix], "InstanceError"),
            (["gen", "--count", "-1", "--out-prefix", prefix],
             "InstanceError"),
            (["compare", "--count", "-3"], "InstanceError"),
            (["compare", "--epsilon", "abc"], "NumericsError"),
            (["compare", "--epsilon", "1/0"], "NumericsError"),
            (["solve-exact", "--instance", missing], "InstanceError"),
            (["simulate", "--instance", missing, "--policy", "sept"],
             "InstanceError"),
            (["simulate", "--instance", path, "--policy", f"file:{missing}",
              "--enumerate"], "ReplayError"),
            (["simulate", "--instance", path, "--policy",
              f"file:{tmp_path}", "--enumerate"], "ReplayError")):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")
    assert main(["simulate", "--instance", path, "--policy", "bogus"]) == 1
    assert capsys.readouterr().err == \
        "error: ReplayError: unknown policy 'bogus'\n"


def test_unwritable_outputs_exit_1(capsys, tmp_path, instance_file):
    # an output path into a missing directory is one typed error line,
    # not a traceback
    missing = tmp_path / "missing"
    for option, argv in (
            ("--json-out", ["compare", "--count", "1"]),
            ("--csv", ["compare", "--count", "1"]),
            ("--out-prefix", ["gen", "--count", "1"]),
            ("--dump-policy", ["solve-exact", "--instance", instance_file]),
            ("--dump-policy", ["solve-stratified", "--instance",
                               instance_file]),
            ("--diagnostics", ["solve-stratified", "--instance",
                               instance_file]),
            ("--out", ["round", "--instance", instance_file])):
        assert main([*argv, option, str(missing / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: FileNotFoundError: ")
    assert not missing.exists()


def test_bound_violation_reported_before_its_instance_is_saved(
        capsys, tmp_path, monkeypatch):
    # the violation line comes first, so an instance file that cannot be
    # written does not hide it
    inst = validate_and_canonicalize(1, "1/13", [(169, [1.0, 1.0])])

    def violated(instances):
        raise BoundViolation(ComparisonRow("i0000"), inst, "planted")

    monkeypatch.setattr(cli, "compare", violated)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bound_violation_instance.json").mkdir()
    assert main(["compare", "--count", "1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "BOUND VIOLATION: planted"
    assert lines[1].startswith("error: IsADirectoryError: ")
    assert len(lines) == 2


@pytest.mark.parametrize("value", [0.4, 1.0, False, True, "1", "0"])
def test_policy_file_decision_is_an_integer(capsys, tmp_path, value):
    # int() would load each of these as a start of type 0 or 1, and the
    # replay would price some other policy than the file's
    path = str(tmp_path / "inst.json")
    policy = tmp_path / "pol.json"
    inst = validate_and_canonicalize(1, "1/13", [(169, [0.5]), (1, [1.0])])
    save_instance(inst, path)
    run(capsys, "solve-exact", "--instance", path,
        "--dump-policy", str(policy))
    dump = json.loads(policy.read_text())
    assert dump["decisions"]["[0]|[1,1]"] == 1
    dump["decisions"]["[0]|[1,1]"] = value
    policy.write_text(json.dumps(dump))
    assert main(["simulate", "--instance", path, "--policy",
                 f"file:{policy}", "--enumerate"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ReplayError: malformed policy file ")


def test_dump_does_not_depend_on_the_traversal(tmp_path):
    # the two traversals decide the states in different orders; the dump
    # sorts them by state string, so both write the same bytes
    inst = validate_and_canonicalize(
        2, "1/13", [(169, [0.5, 0.25, 0.75]), (13, [0.5, 0.5, 0.25]),
                    (1, [0.75, 0.25, 0.5])])
    dumps = []
    for solve in (_solve_dfs, _solve_levels):
        path = tmp_path / f"{solve.__name__}.json"
        dump_policy(solve(inst, ExactRule(inst), 10 ** 6).policy, "exact",
                    str(path))
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]
    keys = list(json.loads(dumps[0])["decisions"])
    assert keys == sorted(keys) and len(keys) > 1


def test_machines_beyond_the_jobs_are_dropped(capsys, tmp_path):
    # a job runs on one machine, so 10**9 machines for two jobs load as
    # two, and every command gives the two-machine values: both jobs start
    # at 0, for 169 * 0.5 + 1 * 0.25 = 84.75
    raw = {"epsilon": "1/13", "types": [{"size": "169", "jobs": [0.5]},
                                        {"size": "1", "jobs": [0.25]}]}
    paths = []
    for machines in (10 ** 9, 2):
        paths.append(str(tmp_path / f"m{machines}.json"))
        with open(paths[-1], "w") as fh:
            json.dump({"machines": machines, **raw}, fh)
    many, two = map(load_instance, paths)
    assert many.machines == 2 and many == two
    for policy in (SeptPolicy(), FixedAssignmentPolicy()):
        assert expected_cost_reached(policy, many) == Fraction(339, 4)

    json_out = str(tmp_path / "rows.json")
    code, _out = run(capsys, "compare", "--instances", *paths,
                     "--json-out", json_out)
    assert code == 0
    rows = json.loads(open(json_out).read())["rows"]
    for row in rows:
        del row["instance_id"], row["exact_seconds"], row["stratified_seconds"]
    assert rows[0] == rows[1]
    assert rows[0]["machines"] == 2 and rows[0]["skipped"] == ""
    assert rows[0]["exact_value"] == rows[0]["sept_value"] == 84.75

    for policy in ("exact", "stratified", "sept", "fixed"):
        outs = [json.loads(run(capsys, "simulate", "--instance", path,
                               "--policy", policy, "--enumerate")[1])
                for path in paths]
        assert outs[0] == outs[1]
    assert outs[0]["mean"] == 84.75
