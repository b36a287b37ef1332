"""Canonical serialization, document parsing, CSV emission, and the CLI.

CLI tests call run_cli in-process and read stdout/stderr through capsys;
byte-identity of repeated runs is part of the contract.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from clearing_reference import events
from conftest import FIXTURES, load_json
from random_markets import spanning_market

import bundlechoice
from bundlechoice import (
    ValidationReport,
    canonical_document,
    content_digest,
    parse_instance,
    parse_matching,
    parse_profile,
    parse_rols,
    run_bundle_da,
    run_bundle_da_simple,
    run_cli,
    run_standard_da,
    serialize_instance,
    trace_csv,
)

MARKET_FILES = [
    "two_hierarchy_market.json",
    "nested_bundle_market.json",
    "five_student_market.json",
    "three_student_overdemand.json",
    "hefei.json",
    "seven_school_system.json",
]


def path(name):
    return str(FIXTURES / name)


def test_canonical_document_normalizes_types():
    out = json.loads(canonical_document(
        {
            "b": (1, 2),
            "a": {frozenset({"y", "x"})},
            "3": Fraction(2, 3),
            "n": np.int64(7),
            "x": np.float64(0.5),
            "f": np.float32(0.25),
            "flag": True,
            "gap": None,
        }
    ))
    assert list(out) == ["3", "a", "b", "f", "flag", "gap", "n", "x"]
    assert out["3"] == "2/3"
    assert out["b"] == [1, 2]
    assert out["a"] == [["x", "y"]]
    assert out["n"] == 7 and isinstance(out["n"], int)
    assert out["x"] == 0.5 and isinstance(out["x"], float)
    assert out["f"] == 0.25 and isinstance(out["f"], float)
    assert out["flag"] is True and out["gap"] is None


def test_canonical_document_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot canonicalize object"):
        canonical_document({"a": [object()]})


def test_canonical_document_and_digest_are_stable():
    doc = canonical_document({"z": 1, "a": [2, 3]})
    assert doc == '{"a":[2,3],"z":1}\n'
    assert content_digest({"z": 1, "a": [2, 3]}) == (
        hashlib.sha256(doc.encode("utf-8")).hexdigest()
    )
    assert content_digest({"a": [2, 3], "z": 1}) == content_digest({"z": 1, "a": [2, 3]})


@pytest.mark.parametrize("name", MARKET_FILES)
def test_instances_round_trip_through_serialization(name, tmp_path):
    instance = parse_instance(path(name))
    assert not isinstance(instance, ValidationReport)
    raw = serialize_instance(instance)
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(raw))
    again = parse_instance(str(copy))
    assert not isinstance(again, ValidationReport)
    assert serialize_instance(again) == raw
    assert again.students == instance.students
    assert again.rol_length == instance.rol_length


def test_parse_instance_reports_overlap():
    report = parse_instance(path("bad_overlap.json"))
    assert isinstance(report, ValidationReport)
    assert "overlap without nesting (shared schools ['s2'])" in str(report)


def test_parse_errors_carry_file_positions(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    report = parse_instance(str(empty))
    assert isinstance(report, ValidationReport)
    assert "line 1 column 1: Expecting value" in str(report)

    array = tmp_path / "array.json"
    array.write_text("[1,2]")
    report = parse_instance(str(array))
    assert "top-level document must be an object" in str(report)

    missing = parse_instance(str(tmp_path / "nope.json"))
    assert isinstance(missing, ValidationReport)


def test_parse_rols_and_matching_documents(tmp_path):
    instance = parse_instance(path("five_student_market.json"))
    rols = parse_rols(path("five_student_market_rols.json"), instance)
    assert rols["i2"] == ["B", "s4"]

    bad = tmp_path / "bad.json"
    bad.write_text('{"students": {}}')
    report = parse_rols(str(bad), instance)
    assert 'expected an object with a "rols" field' in str(report)

    kind, assignment = parse_matching(path("five_student_matching.json"), instance)
    assert kind == "bundle" and assignment["i2"] == "B"

    seats = tmp_path / "seats.json"
    seats.write_text('{"seats": {"i1": "s1"}}')
    kind, assignment = parse_matching(str(seats), instance)
    assert kind == "standard" and assignment == {"i1": "s1"}

    neither = tmp_path / "neither.json"
    neither.write_text('{"rows": []}')
    report = parse_matching(str(neither), instance)
    assert 'expected an object with a "matching" or "seats" field' in str(report)


def test_parse_profile_documents(tmp_path):
    profile = parse_profile(path("profiles/strict_bundle_empirical.json"))
    assert profile.kind == "per-type"
    assert sum(p for p, _ in profile.branches("A")) == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "table"}')
    report = parse_profile(str(bad))
    assert 'must be "per-type" or "by-rank"' in str(report)


def test_trace_csv_rows(walkthrough, walkthrough_rols):
    _, trace = run_bundle_da_simple(walkthrough, walkthrough_rols)
    text = trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "round,event,student,option"
    assert len(lines) == 1 + 32
    assert lines[1] == "1,admit,i1,s1"
    assert lines[-1] == "4,reject,i4,s5"


def _events_csv(instance, trace):
    """The trace CSV as it was built from the replayed event stream, each
    admit carrying a quota snapshot that the row drops."""
    lines = ["round,event,student,option"]
    for rnd in trace.rounds:
        for event in events(instance, rnd.decisions):
            kind, student = event[0], event[1]
            option = event[2] if len(event) > 2 and isinstance(event[2], str) else ""
            lines.append(f"{rnd.number},{kind},{student},{option}")
    return "\n".join(lines) + "\n"


def test_trace_csv_equals_the_event_stream_csv(nested, nested_rols, tiny_market,
                                               tiny_rols):
    rng = np.random.default_rng(2804)
    large, large_rols = spanning_market(rng, 800, [4] * 8, 25, 40, 3)
    tiebreak = [large.students[k] for k in rng.permutation(800)]
    runs = [
        (nested, run_bundle_da(nested, nested_rols)[1]),
        (tiny_market, run_standard_da(tiny_market, tiny_rols)[1]),
        (large, run_bundle_da(large, large_rols, tiebreak)[1]),
    ]
    for instance, trace in runs:
        assert trace_csv(trace) == _events_csv(instance, trace)
    traces = [trace for _, trace in runs]
    def kinds(trace):
        return {row.split(",")[1] for row in trace_csv(trace).splitlines()[1:]}

    assert kinds(traces[1]) == {"hold", "reject"}
    assert kinds(traces[2]) == {"admit", "reject"}
    assert len(traces[2].rounds) > 1


def test_metrics_csv_via_dispatch():
    from bundlechoice import Exp2Config, compute_metrics, play_fixed_round
    from bundlechoice.io import metrics_csv

    config = Exp2Config("nobundle")
    rols = [("D", "A"), ("D", "A"), ("A", "E"), ("D", "E"), ("A", "F"), ("E", "F")]
    ((_, record),) = play_fixed_round(config, rols, (99, 95, 90, 85, 80, 75))
    metrics = compute_metrics([record], 2)
    lines = metrics_csv("nobundle", metrics).strip().split("\n")
    assert lines[0] == "treatment,metric,value"
    assert lines[1] == "nobundle,avg_payoff,30.0"
    assert all(line.startswith("nobundle,") for line in lines[1:])
    names = [line.split(",")[1] for line in lines[1:]]
    assert names == ["avg_payoff", "match_rate", "payoff_given_match",
                     "envy_share", "payoff_loss"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def cli(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_summary(capsys):
    code, out, err = cli(capsys, "validate", path("two_hierarchy_market.json"),
                         path("two_hierarchy_market_rols.json"))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["students"] == 8 and doc["schools"] == 7
    assert doc["bundles"] == 5 and doc["simple"] is True
    assert doc["rol_students"] == 8 and doc["ok"] is True
    assert len(doc["digest"]) == 64


def test_cli_validate_rejects_bad_overlap(capsys):
    code, out, err = cli(capsys, "validate", path("bad_overlap.json"))
    assert code == 1 and out == ""
    assert "overlap without nesting" in err


def test_cli_validate_reports_an_empty_school_set(capsys, tmp_path):
    raw = load_json("bad_overlap.json")
    raw["bundles"] = [{"id": "none", "schools": []}]
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(raw))
    code, out, err = cli(capsys, "validate", str(bad))
    assert (code, out, err) == (1, "", f"{bad}: bundle none: empty school set\n")


def _python(*args, cwd):
    """Run the interpreter with this process's copy of the package."""
    source = os.path.dirname(os.path.dirname(bundlechoice.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=cwd, timeout=120, text=True)


def test_python_m_runs_the_cli(tmp_path):
    """`python -m bundlechoice` and `python -m bundlechoice.cli` run `main`,
    as the console script does: an invalid file exits 1 with its report."""
    args = ("validate", path("bad_overlap.json"))
    script = _python("-c", "from bundlechoice.cli import main; main()", *args,
                     cwd=tmp_path)
    assert script.returncode == 1 and script.stdout == ""
    assert "overlap without nesting" in script.stderr
    for module in ("bundlechoice", "bundlechoice.cli"):
        run = _python("-m", module, *args, cwd=tmp_path)
        assert (run.returncode, run.stdout, run.stderr) == (
            script.returncode, script.stdout, script.stderr), module


def test_cli_run_bundle_da_walkthrough(capsys):
    args = (
        "run-bundle-da", path("two_hierarchy_market.json"),
        path("two_hierarchy_market_rols.json"), "--implement", "det",
    )
    code, out, err = cli(capsys, *args)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["engine"] == "simple" and doc["rounds"] == 4
    assert doc["bundle_matching"] == {
        "i1": "s1", "i2": "b1234", "i3": "s3", "i4": None,
        "i5": "s5", "i6": "b567", "i7": "b56", "i8": "b1234",
    }
    assert doc["standard_matching"] == {
        "i1": "s1", "i2": "s2", "i3": "s3", "i4": None,
        "i5": "s5", "i6": "s7", "i7": "s6", "i8": "s4",
    }
    assert doc["stability"] == {"stable": True, "violations": []}
    assert doc["seat_stability"]["stable"] is True

    # byte-identical on a second run
    code, out2, _ = cli(capsys, *args)
    assert code == 0 and out2 == out


def test_cli_general_engine_needs_a_tiebreak(capsys):
    code, out, err = cli(capsys, "run-bundle-da", path("nested_bundle_market.json"),
                         path("nested_bundle_market_rols.json"))
    assert code == 2 and out == ""
    assert "--tiebreak is required on non-simple instances" in err

    code, out, err = cli(capsys, "run-bundle-da", path("nested_bundle_market.json"),
                         path("nested_bundle_market_rols.json"), "--engine", "simple")
    assert (code, out) == (1, "")
    assert err.startswith("bundle system is not simple (")


def test_cli_run_bundle_da_nested_with_tiebreak(capsys):
    code, out, err = cli(
        capsys, "run-bundle-da", path("nested_bundle_market.json"),
        path("nested_bundle_market_rols.json"),
        "--tiebreak", "i1,i2,i3,i4,i5,i6,i7,i8",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["engine"] == "general" and doc["rounds"] == 5
    assert doc["bundle_matching"] == {
        "i1": "s2", "i2": "b23", "i3": None, "i4": "s1",
        "i5": "b123", "i6": "s4", "i7": "s1", "i8": "b123",
    }
    assert doc["stability"]["stable"] is True


def test_cli_tiebreak_must_cover_students(capsys):
    code, _, err = cli(
        capsys, "run-bundle-da", path("nested_bundle_market.json"),
        path("nested_bundle_market_rols.json"), "--tiebreak", "i1,i2",
    )
    assert code == 2
    assert "--tiebreak must list every student exactly once" in err


def test_cli_run_da_rejects_bundle_entries(capsys):
    rols = path("five_student_market_rols.json")
    for argv in (("run-da",), ("trace", "--engine", "standard")):
        code, out, err = cli(capsys, *argv, path("five_student_market.json"), rols)
        assert (code, out) == (1, "")
        assert err == (f"{rols}: student i2 lists bundle B; standard DA accepts "
                       "one-school entries only\n")


def test_cli_implement_policies(capsys, tmp_path):
    code, out, err = cli(capsys, "implement", path("five_student_market.json"),
                         path("five_student_matching.json"))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["standard_matching"] == {
        "i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s1"
    }

    code, spelled_out, err = cli(capsys, "implement", path("five_student_market.json"),
                                 path("five_student_matching.json"),
                                 "--implement", "deterministic")
    assert (code, spelled_out, err) == (0, out, "")

    seats = tmp_path / "seats.json"
    seats.write_text(json.dumps({"seats": doc["standard_matching"]}))
    code, out, err = cli(capsys, "implement", path("five_student_market.json"),
                         str(seats))
    assert (code, out) == (1, "")
    assert err == f"{seats}: implement needs a bundle-level matching document\n"

    code, _, err = cli(capsys, "implement", path("five_student_market.json"),
                       path("five_student_matching.json"), "--implement", "random")
    assert code == 2
    assert "--implement random requires --seed" in err

    code, _, err = cli(capsys, "implement", path("five_student_market.json"),
                       path("five_student_matching.json"), "--implement", "random",
                       "--seed", "-1")
    assert code == 2
    assert "argument --seed: must be a non-negative integer: -1" in err

    code, _, err = cli(capsys, "implement", path("five_student_market.json"),
                       path("five_student_matching.json"),
                       "--implement", "prefs")
    assert code == 2
    assert "--implement prefs requires --stage-prefs" in err


def test_cli_check_stability_documents(capsys):
    market = path("five_student_market.json")
    rols = path("five_student_market_rols.json")
    code, out, _ = cli(capsys, "check-stability", market, rols,
                       path("five_student_matching.json"))
    assert code == 0
    assert json.loads(out)["stability"] == {"stable": True, "violations": []}

    code, out, _ = cli(capsys, "check-stability", market, rols,
                       path("five_student_swapped_matching.json"),
                       "--assert-stable")
    assert code == 1
    doc = json.loads(out)
    assert doc["stability"]["stable"] is False
    assert doc["stability"]["violations"] == [["envy", "i4", "i3", "s2", 3]]


def test_cli_oracles_and_improve(capsys):
    market = path("five_student_market.json")
    rols = path("five_student_market_rols.json")
    matching = path("five_student_matching.json")

    for notion in ("size-max", "pusm"):
        code, out, _ = cli(capsys, "oracle", notion, market, rols, matching)
        assert code == 0
        doc = json.loads(out)
        assert doc["notion"] == notion
        assert doc["holds"] is True and doc["witness"] is None

    code, _, err = cli(capsys, "oracle", "size-max", market, rols, matching,
                       "--oracle-bound", "1")
    assert code == 1
    assert "exceed the bound of 1" in err

    code, _, _ = cli(capsys, "oracle", "biggest", market, rols, matching)
    assert code == 2  # argparse rejects the unknown notion

    code, out, _ = cli(capsys, "improve", market, rols, matching)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["matching"] is None

    code, out, err = cli(capsys, "improve", market, rols, matching,
                         "--oracle-bound", "1")
    assert (code, out) == (1, "")
    assert "exceed the bound of 1" in err


@pytest.mark.parametrize("command", [("oracle", "size-max"), ("improve",)],
                         ids=["oracle", "improve"])
@pytest.mark.parametrize("bound", ["0", "-5"])
def test_cli_oracle_bound_below_one_is_a_usage_error(capsys, command, bound):
    code, out, err = cli(capsys, *command, path("five_student_market.json"),
                         path("five_student_market_rols.json"),
                         path("five_student_matching.json"), "--oracle-bound", bound)
    assert (code, out) == (2, "")
    assert f"argument --oracle-bound: must be a positive integer: {bound}" in err


def test_cli_audit_rol_warnings(capsys, tmp_path):
    rols = tmp_path / "rols.json"
    rols.write_text(json.dumps({"rols": {"i1": ["b1234", "b12"]}}))
    code, out, _ = cli(capsys, "audit-rol", path("two_hierarchy_market.json"),
                       str(rols))
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"] == {"i1": [["dominated", 2, "b12", "b1234"]]}

    code, out, _ = cli(capsys, "audit-rol", path("two_hierarchy_market.json"),
                       path("two_hierarchy_market_rols.json"))
    assert code == 0
    assert json.loads(out)["warnings"] == {}


def test_cli_exact_simulation(capsys):
    code, out, err = cli(capsys, "simulate-experiment", "--exp", "1",
                         "--treatment", "nobundle-two", "--exact")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["metrics"]["exact"] == {
        "avg_payoff": "215/3", "match_rate": "2/3",
        "mismatch_rate": "0", "payoff_given_match": "215/2",
    }


def test_cli_simulation_usage_errors(capsys):
    code, _, err = cli(capsys, "simulate-experiment", "--exp", "2",
                       "--treatment", "nobundle", "--exact",
                       "--profile", path("profiles/exp2_by_rank.json"))
    assert code == 2 and "--exact is only available for --exp 1" in err

    code, _, err = cli(capsys, "simulate-experiment", "--exp", "2",
                       "--treatment", "nobundle")
    assert code == 2 and "no closed-form equilibrium profile" in err


def test_cli_monte_carlo_runs_are_reproducible(capsys):
    args = ("simulate-experiment", "--exp", "1", "--treatment", "indiff-bundle",
            "--rounds", "60", "--seed", "4")
    code, first, _ = cli(capsys, *args)
    assert code == 0
    doc = json.loads(first)
    assert doc["metrics"]["rounds"] == 60 and doc["logged_rounds"] == 60
    code, second, _ = cli(capsys, *args)
    assert code == 0 and second == first

    code, out, _ = cli(capsys, *args, "--csv")
    assert code == 0
    assert out.startswith("treatment,metric,value\nindiff-bundle,avg_payoff,")


def test_cli_experiment_two_profile_file(capsys):
    code, out, err = cli(
        capsys, "simulate-experiment", "--exp", "2", "--treatment", "nobundle",
        "--profile", path("profiles/exp2_by_rank.json"),
        "--rounds", "30", "--seed", "9",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["metrics"]["avg_payoff"] == 30.0
    assert doc["metrics"]["envy_share"] == pytest.approx(1 / 15)


def test_cli_trace_stream(capsys, tmp_path):
    code, out, err = cli(capsys, "trace", path("two_hierarchy_market.json"),
                         path("two_hierarchy_market_rols.json"))
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "round,event,student,option"
    assert len(lines) == 33
    assert lines[-1] == "4,reject,i4,s5"

    rols = tmp_path / "rols.json"
    rols.write_text(json.dumps({"rols": {
        "i1": ["s1", "s4"], "i2": ["s2", "s4"], "i3": ["s3"], "i4": ["s2", "s4"],
        "i5": ["s3", "s1"]}}))
    code, out, err = cli(capsys, "trace", path("five_student_market.json"),
                         str(rols), "--engine", "standard")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "round,event,student,option" and len(lines) == 11
    assert lines[2] == "1,reject,i4,s2" and lines[-1] == "2,hold,i4,s4"


def test_cli_reports_malformed_input_files(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = cli(capsys, "run-bundle-da",
                       path("two_hierarchy_market.json"), str(empty))
    assert code == 1
    assert "line 1 column 1: Expecting value" in err


UNREADABLE = {
    "not-utf8": b"\xff\xfe{}",
    "nested": b"[" * 100000 + b"]" * 100000,
    "long-number": b"[" + b"1" * 5000 + b"]",
}


@pytest.mark.parametrize("payload", UNREADABLE.values(), ids=UNREADABLE)
@pytest.mark.parametrize("document", [
    "instance", "rols", "matching", "profile", "stage-prefs", "classes"])
def test_cli_reports_unreadable_documents(capsys, tmp_path, document, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    market = path("five_student_market.json")
    rols = path("five_student_market_rols.json")
    argv = {
        "instance": ("validate", bad),
        "rols": ("run-bundle-da", market, bad),
        "matching": ("check-stability", market, rols, bad),
        "profile": ("simulate-experiment", "--exp", "1", "--treatment",
                    "nobundle-one", "--profile", bad),
        "stage-prefs": ("run-bundle-da", market, rols, "--implement", "prefs",
                        "--stage-prefs", bad),
        "classes": ("audit-rol", market, rols, "--classes", bad),
    }[document]
    code, out, err = cli(capsys, *map(str, argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"{bad}: ") and "Traceback" not in err


def test_cli_names_missing_and_ill_typed_instance_fields(capsys, tmp_path):
    raw = load_json("five_student_market.json")
    del raw["schools"][0]["priority"]
    raw["schools"][1]["quota"] = "1"
    del raw["schools"][2]["id"]
    raw["rol_length"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = cli(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert f'{bad}: school s1: missing field "priority"' in err
    assert f"{bad}: school s2: quota must be a positive integer" in err
    assert f'{bad}: school 2: missing field "id"' in err
    assert f"{bad}: rol_length must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rols, message", [
    ({"i1": "s1"}, "student i1: ROL must be a list of bundle ids"),
    ([["i1", "s1"]], 'expected an object with a "rols" field'),
], ids=["string-rol", "list-of-rols"])
def test_cli_rejects_misshapen_rol_documents(capsys, tmp_path, rols, message):
    doc = tmp_path / "rols.json"
    doc.write_text(json.dumps({"rols": rols}))
    code, out, err = cli(capsys, "run-bundle-da",
                         path("five_student_market.json"), str(doc))
    assert code == 1 and out == ""
    assert f"{doc}: {message}" in err
    assert "unknown bundle" not in err and "Traceback" not in err


@pytest.mark.parametrize("document", [
    {"matching": {"i1": "s1", "i2": "B", "zz": "s2"}},
    {"seats": {"i1": "s1", "zz": "s2"}},
], ids=["bundle", "seats"])
def test_cli_rejects_matchings_naming_unknown_students(capsys, tmp_path,
                                                        document):
    doc = tmp_path / "matching.json"
    doc.write_text(json.dumps(document))
    code, out, err = cli(capsys, "check-stability",
                         path("five_student_market.json"),
                         path("five_student_market_rols.json"), str(doc))
    assert code == 1 and out == ""
    assert err == f"{doc}: unknown student zz in matching\n"


def test_cli_oracles_reject_over_capacity_matchings(capsys, tmp_path):
    doc = tmp_path / "matching.json"
    doc.write_text(json.dumps({"matching": {"i1": "s2", "i4": "s2"}}))
    market = path("five_student_market.json")
    rols = path("five_student_market_rols.json")
    for argv in (("oracle", "size-max"), ("oracle", "pusm"), ("improve",)):
        code, out, err = cli(capsys, *argv, market, rols, str(doc))
        assert code == 1 and out == ""
        assert err == f"{doc}: bundle s2 is over capacity\n"


@pytest.mark.parametrize("document, message", [
    ({"matching": {"i1": ["s1"]}}, "matching.i1: expected a bundle id or null"),
    ({"seats": {"i1": "s1", "i2": 2}}, "seats.i2: expected a school id or null"),
], ids=["bundle", "seats"])
def test_cli_rejects_matching_values_that_are_not_ids(capsys, tmp_path,
                                                       document, message):
    doc = tmp_path / "matching.json"
    doc.write_text(json.dumps(document))
    code, out, err = cli(capsys, "check-stability",
                         path("five_student_market.json"),
                         path("five_student_market_rols.json"), str(doc))
    assert (code, out) == (1, "")
    assert err == f"{doc}: {message}\n"


BY_RANK = [["D", "A"], ["D", "A"], ["A", "E"], ["D", "E"], ["A", "F"], ["E", "F"]]


@pytest.mark.parametrize("argv, document, code, message", [
    (["--exp", "1", "--treatment", "all-bundles"], None, 2,
     "unknown experiment-1 treatment 'all-bundles' (expected one of "
     "nobundle-one, indiff-bundle, strict-bundle, nobundle-two)"),
    (["--exp", "1", "--treatment", "nobundle-one", "--rounds", "0"], None, 2,
     "--rounds must be at least 1"),
    (["--exp", "1", "--treatment", "nobundle-one", "--seed", "-1"], None, 2,
     "argument --seed: must be a non-negative integer: -1"),
    (["--exp", "2", "--treatment", "nobundle"], {"kind": "by-rank"}, 1,
     '{doc}: missing field "rols"'),
    (["--exp", "1", "--treatment", "nobundle-one"],
     {"kind": "per-type", "strategies": [["A"]]}, 1,
     "{doc}: strategies: expected an object mapping each payoff type to "
     "[probability, ROL] pairs"),
    (["--exp", "2", "--treatment", "nobundle"],
     {"kind": "by-rank", "rols": BY_RANK[:5]}, 1,
     "{doc}: by-rank profile must cover every score rank"),
    (["--exp", "2", "--treatment", "nobundle"],
     {"kind": "by-rank", "rols": [["ABC"]] + BY_RANK[1:]}, 1,
     "{doc}: option 'ABC' is not on the menu"),
    (["--exp", "1", "--treatment", "nobundle-one"],
     {"kind": "per-type", "strategies": {"A": [[1, ["A"]]]}}, 1,
     "{doc}: per-type profile must give a strategy for each payoff type "
     "A, B and no other"),
    (["--exp", "1", "--treatment", "nobundle-one"],
     {"kind": "per-type",
      "strategies": {"A": [[1.5, ["A"]], [-0.5, ["B"]]], "B": [[1, ["B"]]]}}, 1,
     "{doc}: probabilities for 'A' must not be negative"),
    (["--exp", "1", "--treatment", "nobundle-one"],
     {"kind": "per-type", "strategies": {"A": [["half", ["A"]]], "B": [[1, ["B"]]]}},
     1, "{doc}: strategies: expected an object mapping each payoff type to "
     "[probability, ROL] pairs"),
    (["--exp", "1", "--treatment", "strict-bundle", "--exact"],
     {"kind": "per-type",
      "strategies": {"A": [["0.5", ["A"]], ["1/2", ["AC"]]], "B": [[1, ["B"]]]}},
     1, "{doc}: strategies: expected an object mapping each payoff type to "
     "[probability, ROL] pairs"),
    (["--exp", "2", "--treatment", "nobundle"],
     {"kind": "per-type", "strategies": {"A": [[1, ["A"]]]}}, 1,
     "{doc}: experiment 2 does not take a per-type profile"),
], ids=["treatment", "rounds", "seed", "missing-rols", "strategies-shape",
        "by-rank-length", "off-menu", "missing-type", "probability-range",
        "probability-literal", "probability-string", "kind-mismatch"])
def test_cli_simulation_rejects_bad_usage_and_profiles(capsys, tmp_path, argv,
                                                       document, code, message):
    doc = tmp_path / "profile.json"
    if document is not None:
        doc.write_text(json.dumps(document))
        argv = [*argv, "--profile", str(doc)]
    got, out, err = cli(capsys, "simulate-experiment", *argv)
    assert (got, out) == (code, "")
    assert err.endswith(message.format(doc=doc) + "\n")
    assert "Traceback" not in err


STAGE_PREFS_SHAPES = [
    ([1, 2], "expected an object mapping each student to a list of school ids"),
    ({"i1": 5}, "i1: expected a list of school ids"),
    ({"i1": ["zz"]}, "i1: unknown school zz"),
    ({"i1": [1], "i2": [[]]}, "i1: expected a list of school ids\n{doc}: "
     "i2: expected a list of school ids"),
    ({"i2": ["s1", "s1"]}, "i2: repeated school"),
    ({"zz": ["s1"]}, "unknown student zz"),
    ({"i3": ["s1", "s2"]}, "no second-stage ranking for student i2"),
    ({"i2": ["s1"], "i3": ["s1", "s2"]},
     "student i2: ranking must cover exactly the schools of bundle B"),
]


@pytest.mark.parametrize("command", [
    ("run-bundle-da", "five_student_market.json", "five_student_market_rols.json"),
    ("implement", "five_student_market.json", "five_student_matching.json"),
], ids=["run-bundle-da", "implement"])
@pytest.mark.parametrize("document, message", STAGE_PREFS_SHAPES, ids=[
    "list", "number", "unknown-school", "not-ids", "repeat", "unknown-student",
    "missing-student", "short-ranking"])
def test_cli_rejects_misshapen_stage_prefs(capsys, tmp_path, command, document,
                                           message):
    doc = tmp_path / "prefs.json"
    doc.write_text(json.dumps(document))
    name, *files = command
    code, out, err = cli(capsys, name, *map(path, files), "--implement", "prefs",
                         "--stage-prefs", str(doc))
    assert (code, out) == (1, "")
    assert err == f"{doc}: {message.format(doc=doc)}\n"


def test_cli_seats_by_stage_prefs(capsys, tmp_path):
    """i2 ranks s1 first, but the bundle's one free seat is at s2."""
    doc = tmp_path / "prefs.json"
    doc.write_text(json.dumps({"i2": ["s1", "s2"]}))
    code, out, err = cli(capsys, "run-bundle-da", path("five_student_market.json"),
                         path("five_student_market_rols.json"), "--implement",
                         "prefs", "--stage-prefs", str(doc))
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["bundle_matching"]["i2"] == "B"
    assert result["standard_matching"]["i2"] == "s2"  # i1 and i5 fill s1


@pytest.mark.parametrize("document, message", [
    ([1], "expected an object mapping each student to a list of indifference "
     "classes"),
    ({"i1": 3}, "i1: expected a list of indifference classes"),
    ({"i1": [3]}, "i1[0]: expected a list of school ids"),
    ({"i1": [["s1"], ["s2", "zz"]]}, "i1[1]: unknown school zz"),
], ids=["list", "number", "class-not-ids", "unknown-school"])
def test_cli_rejects_misshapen_indifference_classes(capsys, tmp_path, document,
                                                    message):
    doc = tmp_path / "classes.json"
    doc.write_text(json.dumps(document))
    code, out, err = cli(capsys, "audit-rol", path("two_hierarchy_market.json"),
                         path("two_hierarchy_market_rols.json"),
                         "--classes", str(doc))
    assert (code, out) == (1, "")
    assert err == f"{doc}: {message}\n"


def test_cli_audit_rol_reads_indifference_classes(capsys, tmp_path):
    doc = tmp_path / "classes.json"
    doc.write_text(json.dumps({"i1": [["s1", "s2"]]}))
    code, out, _ = cli(capsys, "audit-rol", path("two_hierarchy_market.json"),
                       path("two_hierarchy_market_rols.json"),
                       "--classes", str(doc))
    assert code == 0
    assert json.loads(out)["warnings"] == {"i1": [
        ["indifferent-sub-report", 1, "s1", "b12"],
        ["indifferent-sub-report", 2, "s2", "b12"],
    ]}
