"""The CLI's whole surface, pinned form by form.

Each form runs `run_cli` in process from the repository root, with the side
documents it names written to a temporary folder. For every form the test
compares the exit code, the sha256 of stdout and the full stderr (the
temporary folder written as `{tmp}`) with `cli_surface.json`. The forms cover
every subcommand on its success and failure paths, usage errors, and each
subcommand's `--help`, so a refactor of the CLI or of the document parsers
that changes any message, exit code or output byte fails here.

argparse words its help and usage errors by the interpreter's version; the
record was made under Python 3.11, the version CI runs. To record it again
after an intended change: `PYTHONPATH=src python tests/test_cli_surface.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bundlechoice import run_cli

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "cli_surface.json"

FIVE = ("fixtures/five_student_market.json", "fixtures/five_student_market_rols.json")
TWO = ("fixtures/two_hierarchy_market.json", "fixtures/two_hierarchy_market_rols.json")
NESTED = ("fixtures/nested_bundle_market.json", "fixtures/nested_bundle_market_rols.json")
FIVE_MATCHING = "fixtures/five_student_matching.json"
SWAPPED = "fixtures/five_student_swapped_matching.json"
BY_RANK = [["D", "A"], ["D", "A"], ["A", "E"], ["D", "E"], ["A", "F"], ["E", "F"]]
EXP1 = ("simulate-experiment", "--exp", "1", "--treatment", "nobundle-one")
EXP2 = ("simulate-experiment", "--exp", "2", "--treatment", "nobundle")

# Side documents, written under the temporary folder as `{tmp}/<name>.json`:
# JSON values are dumped, bytes are written as they are.
DOCUMENTS = {
    "empty": b"",
    "not-utf8": b"\xff\xfe{}",
    "nested-deep": b"[" * 100000 + b"]" * 100000,
    "long-number": b"[" + b"1" * 5000 + b"]",
    "a-list": [1, 2],
    "instance-fields": {
        "students": ["i1", "i2"],
        "schools": [{"id": "s1", "quota": "1"}, {"quota": 1, "priority": []}],
        "bundles": [], "rol_length": True,
    },
    "school-rols": {"rols": {"i1": ["s1"], "i2": ["s2", "s1"], "i3": ["s1"],
                             "i4": ["s2"], "i5": ["s3"]}},
    "rols-string": {"rols": {"i1": "s1"}},
    "rols-list": {"rols": [["i1", "s1"]]},
    "rols-unknown": {"rols": {"i1": ["nope"], "zz": ["s1"]}},
    "rols-dominated": {"rols": {"i1": ["b1234", "b12"]}},
    "matching-unknown-student": {"matching": {"i1": "s1", "i2": "B", "zz": "s2"}},
    "matching-unknown-bundle": {"matching": {"i1": "nope"}},
    "matching-not-id": {"matching": {"i1": ["s1"]}},
    "matching-no-field": {"assignment": {}},
    "matching-over-capacity": {"matching": {"i1": "s2", "i4": "s2"}},
    "matching-empty": {"matching": {}},
    "seats": {"seats": {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s1"}},
    "seats-unknown-student": {"seats": {"i1": "s1", "zz": "s2"}},
    "seats-not-id": {"seats": {"i1": "s1", "i2": 2}},
    "prefs": {"i2": ["s1", "s2"]},
    "prefs-list": [1, 2],
    "prefs-number": {"i1": 5},
    "prefs-unknown-school": {"i1": ["zz"]},
    "prefs-not-ids": {"i1": [1], "i2": [[]]},
    "prefs-repeat": {"i2": ["s1", "s1"]},
    "prefs-unknown-student": {"zz": ["s1"]},
    "prefs-missing-student": {"i3": ["s1", "s2"]},
    "prefs-short": {"i2": ["s1"], "i3": ["s1", "s2"]},
    "classes": {"i1": [["s1", "s2"]]},
    "classes-list": [1],
    "classes-number": {"i1": 3},
    "classes-not-ids": {"i1": [3]},
    "classes-unknown": {"i1": [["s1"], ["s2", "zz"]], "zz": []},
    "profile-missing-rols": {"kind": "by-rank"},
    "profile-kind": {"kind": "mixed"},
    "profile-shape": {"kind": "per-type", "strategies": [["A"]]},
    "profile-short": {"kind": "by-rank", "rols": BY_RANK[:5]},
    "profile-off-menu": {"kind": "by-rank", "rols": [["ABC"]] + BY_RANK[1:]},
    "profile-missing-type": {"kind": "per-type", "strategies": {"A": [[1, ["A"]]]}},
    "profile-negative": {"kind": "per-type", "strategies": {
        "A": [[1.5, ["A"]], [-0.5, ["B"]]], "B": [[1, ["B"]]]}},
    "profile-string": {"kind": "per-type", "strategies": {
        "A": [["half", ["A"]]], "B": [[1, ["B"]]]}},
}


def _doc(name):
    assert name in DOCUMENTS or name == "missing", name
    return "{tmp}/" + name + ".json"


def _help(*command):
    return (*command, "--help")


# (id, argv); "{tmp}" in an argument is the temporary folder.
FORMS = [
    # The parser itself.
    ("no-arguments", ()),
    ("help", ("--help",)),
    ("unknown-command", ("solve",)),
    *[(f"help-{c}", _help(c)) for c in (
        "validate", "run-da", "run-bundle-da", "implement", "check-stability",
        "oracle", "improve", "audit-rol", "simulate-experiment", "trace")],
    # validate
    ("validate", ("validate", TWO[0])),
    ("validate-rols", ("validate", *TWO)),
    ("validate-nested", ("validate", NESTED[0])),
    ("validate-bad-overlap", ("validate", "fixtures/bad_overlap.json")),
    ("validate-missing", ("validate", _doc("missing"))),
    ("validate-empty", ("validate", _doc("empty"))),
    ("validate-not-utf8", ("validate", _doc("not-utf8"))),
    ("validate-nested-deep", ("validate", _doc("nested-deep"))),
    ("validate-long-number", ("validate", _doc("long-number"))),
    ("validate-not-object", ("validate", _doc("a-list"))),
    ("validate-fields", ("validate", _doc("instance-fields"))),
    ("validate-rols-unknown", ("validate", FIVE[0], _doc("rols-unknown"))),
    ("validate-extra-argument", ("validate", *TWO, "more")),
    # run-da
    ("run-da", ("run-da", FIVE[0], _doc("school-rols"))),
    ("run-da-assert-stable", ("run-da", FIVE[0], _doc("school-rols"),
                              "--assert-stable")),
    ("run-da-bundle-entry", ("run-da", *FIVE)),
    ("run-da-rols-string", ("run-da", FIVE[0], _doc("rols-string"))),
    ("run-da-missing-rols", ("run-da", FIVE[0])),
    # run-bundle-da
    ("run-bundle-da", ("run-bundle-da", *TWO)),
    ("run-bundle-da-det", ("run-bundle-da", *TWO, "--implement", "det",
                           "--assert-stable")),
    ("run-bundle-da-deterministic", ("run-bundle-da", *FIVE, "--implement",
                                     "deterministic")),
    ("run-bundle-da-random", ("run-bundle-da", *TWO, "--implement", "random",
                              "--seed", "3")),
    ("run-bundle-da-random-no-seed", ("run-bundle-da", *TWO, "--implement",
                                      "random")),
    ("run-bundle-da-negative-seed", ("run-bundle-da", *TWO, "--implement",
                                     "random", "--seed", "-1")),
    ("run-bundle-da-prefs", ("run-bundle-da", *FIVE, "--implement", "prefs",
                             "--stage-prefs", _doc("prefs"))),
    ("run-bundle-da-prefs-no-file", ("run-bundle-da", *FIVE, "--implement",
                                     "prefs")),
    *[(f"run-bundle-da-{name}", ("run-bundle-da", *FIVE, "--implement", "prefs",
                                 "--stage-prefs", _doc(name)))
      for name in ("prefs-list", "prefs-number", "prefs-unknown-school",
                   "prefs-not-ids", "prefs-repeat", "prefs-unknown-student",
                   "prefs-missing-student", "prefs-short", "not-utf8")],
    ("run-bundle-da-simple-engine", ("run-bundle-da", *FIVE, "--engine", "simple")),
    ("run-bundle-da-general-engine", ("run-bundle-da", *FIVE, "--engine",
                                      "general")),
    ("run-bundle-da-general-tiebreak", ("run-bundle-da", *FIVE, "--engine",
                                        "general", "--tiebreak",
                                        "i5,i4,i3,i2,i1")),
    ("run-bundle-da-nested-tiebreak", ("run-bundle-da", *NESTED, "--tiebreak",
                                       "i1,i2,i3,i4,i5,i6,i7,i8")),
    ("run-bundle-da-nested-no-tiebreak", ("run-bundle-da", *NESTED)),
    ("run-bundle-da-nested-simple", ("run-bundle-da", *NESTED, "--engine",
                                     "simple")),
    ("run-bundle-da-short-tiebreak", ("run-bundle-da", *NESTED, "--tiebreak",
                                      "i1,i2")),
    ("run-bundle-da-bad-tiebreak-auto", ("run-bundle-da", *FIVE, "--tiebreak",
                                         "zz")),
    ("run-bundle-da-tiebreak-auto", ("run-bundle-da", *FIVE, "--tiebreak",
                                     "i1, i2,i3,i4,i5,")),
    ("run-bundle-da-unknown-engine", ("run-bundle-da", *FIVE, "--engine",
                                      "standard")),
    ("run-bundle-da-empty-rols", ("run-bundle-da", FIVE[0], _doc("empty"))),
    ("run-bundle-da-rols-list", ("run-bundle-da", FIVE[0], _doc("rols-list"))),
    ("run-bundle-da-rols-unknown", ("run-bundle-da", FIVE[0],
                                    _doc("rols-unknown"))),
    ("run-bundle-da-bad-instance", ("run-bundle-da", "fixtures/bad_overlap.json",
                                    FIVE[1])),
    # implement
    ("implement", ("implement", FIVE[0], FIVE_MATCHING)),
    ("implement-deterministic", ("implement", FIVE[0], FIVE_MATCHING,
                                 "--implement", "deterministic")),
    ("implement-random", ("implement", FIVE[0], FIVE_MATCHING, "--implement",
                          "random", "--seed", "5")),
    ("implement-random-no-seed", ("implement", FIVE[0], FIVE_MATCHING,
                                  "--implement", "random")),
    ("implement-prefs", ("implement", FIVE[0], FIVE_MATCHING, "--implement",
                         "prefs", "--stage-prefs", _doc("prefs"))),
    ("implement-prefs-no-file", ("implement", FIVE[0], FIVE_MATCHING,
                                 "--implement", "prefs")),
    ("implement-prefs-missing-student", ("implement", FIVE[0], FIVE_MATCHING,
                                         "--implement", "prefs", "--stage-prefs",
                                         _doc("prefs-missing-student"))),
    ("implement-prefs-short", ("implement", FIVE[0], FIVE_MATCHING, "--implement",
                               "prefs", "--stage-prefs", _doc("prefs-short"))),
    ("implement-seats", ("implement", FIVE[0], _doc("seats"))),
    ("implement-unknown-bundle", ("implement", FIVE[0],
                                  _doc("matching-unknown-bundle"))),
    ("implement-over-capacity", ("implement", FIVE[0],
                                 _doc("matching-over-capacity"))),
    ("implement-missing-matching", ("implement", FIVE[0], _doc("missing"))),
    # check-stability
    ("check-stability", ("check-stability", *FIVE, FIVE_MATCHING)),
    ("check-stability-assert-stable", ("check-stability", *FIVE, FIVE_MATCHING,
                                       "--assert-stable")),
    ("check-stability-swapped", ("check-stability", *FIVE, SWAPPED)),
    ("check-stability-swapped-assert", ("check-stability", *FIVE, SWAPPED,
                                        "--assert-stable")),
    ("check-stability-seats", ("check-stability", *FIVE, _doc("seats"))),
    ("check-stability-empty", ("check-stability", *FIVE, _doc("matching-empty"))),
    *[(f"check-stability-{name}", ("check-stability", *FIVE, _doc(name)))
      for name in ("matching-unknown-student", "seats-unknown-student",
                   "matching-not-id", "seats-not-id", "matching-no-field",
                   "matching-unknown-bundle", "matching-over-capacity",
                   "long-number")],
    # oracle
    *[(f"oracle-{notion}", ("oracle", notion, *FIVE, FIVE_MATCHING))
      for notion in ("size-max", "pusm")],
    *[(f"oracle-{notion}-bound-1", ("oracle", notion, *FIVE, FIVE_MATCHING,
                                    "--oracle-bound", "1"))
      for notion in ("size-max", "pusm")],
    *[(f"oracle-{notion}-empty", ("oracle", notion, *FIVE,
                                  _doc("matching-empty")))
      for notion in ("size-max", "pusm")],
    *[(f"oracle-{notion}-empty-bound-1", ("oracle", notion, *FIVE,
                                          _doc("matching-empty"),
                                          "--oracle-bound", "1"))
      for notion in ("size-max", "pusm")],
    ("oracle-pusm-swapped", ("oracle", "pusm", *FIVE, SWAPPED)),
    ("oracle-bound-0", ("oracle", "size-max", *FIVE, FIVE_MATCHING,
                        "--oracle-bound", "0")),
    ("oracle-bound-word", ("oracle", "size-max", *FIVE, FIVE_MATCHING,
                           "--oracle-bound", "many")),
    ("oracle-unknown-notion", ("oracle", "biggest", *FIVE, FIVE_MATCHING)),
    ("oracle-seats", ("oracle", "size-max", *FIVE, _doc("seats"))),
    ("oracle-over-capacity", ("oracle", "pusm", *FIVE,
                              _doc("matching-over-capacity"))),
    # improve
    ("improve", ("improve", *FIVE, FIVE_MATCHING)),
    ("improve-empty", ("improve", *FIVE, _doc("matching-empty"))),
    ("improve-swapped-bound-1", ("improve", *FIVE, SWAPPED, "--oracle-bound", "1")),
    ("improve-bound-1", ("improve", *FIVE, FIVE_MATCHING, "--oracle-bound", "1")),
    ("improve-bound-negative", ("improve", *FIVE, FIVE_MATCHING,
                                "--oracle-bound", "-5")),
    ("improve-seats", ("improve", *FIVE, _doc("seats"))),
    ("improve-over-capacity", ("improve", *FIVE, _doc("matching-over-capacity"))),
    # audit-rol
    ("audit-rol", ("audit-rol", *TWO)),
    ("audit-rol-dominated", ("audit-rol", TWO[0], _doc("rols-dominated"))),
    ("audit-rol-classes", ("audit-rol", *TWO, "--classes", _doc("classes"))),
    *[(f"audit-rol-{name}", ("audit-rol", *TWO, "--classes", _doc(name)))
      for name in ("classes-list", "classes-number", "classes-not-ids",
                   "classes-unknown", "nested-deep")],
    ("audit-rol-rols-unknown", ("audit-rol", TWO[0], _doc("rols-unknown"))),
    # simulate-experiment
    ("simulate-exact", ("simulate-experiment", "--exp", "1", "--treatment",
                        "nobundle-two", "--exact")),
    ("simulate-exact-csv", ("simulate-experiment", "--exp", "1", "--treatment",
                            "strict-bundle", "--exact", "--csv")),
    ("simulate-monte-carlo", ("simulate-experiment", "--exp", "1", "--treatment",
                              "indiff-bundle", "--rounds", "40", "--seed", "4")),
    ("simulate-monte-carlo-csv", ("simulate-experiment", "--exp", "1",
                                  "--treatment", "indiff-bundle", "--rounds",
                                  "40", "--seed", "4", "--csv")),
    ("simulate-exp1-profile", ("simulate-experiment", "--exp", "1", "--treatment",
                               "strict-bundle", "--exact", "--profile",
                               "fixtures/profiles/strict_bundle_empirical.json")),
    ("simulate-exp2-profile", ("simulate-experiment", "--exp", "2", "--treatment",
                               "nobundle", "--profile",
                               "fixtures/profiles/exp2_by_rank.json", "--rounds",
                               "30", "--seed", "9")),
    ("simulate-unknown-treatment", ("simulate-experiment", "--exp", "1",
                                    "--treatment", "all-bundles")),
    ("simulate-rounds-0", (*EXP1, "--rounds", "0")),
    ("simulate-negative-seed", (*EXP1, "--seed", "-1")),
    ("simulate-exp3", ("simulate-experiment", "--exp", "3", "--treatment", "x")),
    ("simulate-no-treatment", ("simulate-experiment", "--exp", "1")),
    ("simulate-exp2-equilibrium", EXP2),
    ("simulate-exp2-exact", (*EXP2, "--exact", "--profile",
                             "fixtures/profiles/exp2_by_rank.json")),
    ("simulate-missing-profile", (*EXP1, "--profile", _doc("missing"))),
    ("simulate-profile-not-utf8", (*EXP1, "--profile", _doc("not-utf8"))),
    ("simulate-profile-kind", (*EXP1, "--profile", _doc("profile-kind"))),
    ("simulate-profile-missing-rols", (*EXP2, "--profile",
                                       _doc("profile-missing-rols"))),
    ("simulate-profile-shape", (*EXP1, "--profile", _doc("profile-shape"))),
    ("simulate-profile-short", (*EXP2, "--profile", _doc("profile-short"))),
    ("simulate-profile-off-menu", (*EXP2, "--profile", _doc("profile-off-menu"))),
    ("simulate-profile-missing-type", (*EXP1, "--profile",
                                       _doc("profile-missing-type"))),
    ("simulate-profile-negative", (*EXP1, "--profile", _doc("profile-negative"))),
    ("simulate-profile-string", (*EXP1, "--profile", _doc("profile-string"))),
    ("simulate-profile-kind-mismatch", (*EXP2, "--profile",
                                        _doc("profile-missing-type"))),
    # trace
    ("trace", ("trace", *TWO)),
    ("trace-standard", ("trace", FIVE[0], _doc("school-rols"), "--engine",
                        "standard")),
    ("trace-standard-bundle-entry", ("trace", *FIVE, "--engine", "standard")),
    ("trace-nested-tiebreak", ("trace", *NESTED, "--tiebreak",
                               "i8,i7,i6,i5,i4,i3,i2,i1")),
    ("trace-nested-no-tiebreak", ("trace", *NESTED)),
    ("trace-bad-tiebreak", ("trace", *FIVE, "--tiebreak", "zz")),
    ("trace-standard-bad-tiebreak", ("trace", FIVE[0], _doc("school-rols"),
                                     "--engine", "standard", "--tiebreak", "zz")),
    ("trace-missing-instance", ("trace", _doc("missing"), FIVE[1])),
]


def run_form(argv, tmp):
    """(exit code, stdout sha256, stderr) of one form, run from the
    repository root at 80 columns, with `tmp` written as `{tmp}`."""
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
    }


def write_documents(folder):
    for name, content in DOCUMENTS.items():
        data = content if isinstance(content, bytes) else json.dumps(content).encode()
        (folder / f"{name}.json").write_bytes(data)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("surface")
    write_documents(tmp)
    return tmp


@pytest.fixture(scope="module")
def record():
    with open(RECORD, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_forms_are_distinct_and_all_recorded(record):
    ids = [form_id for form_id, _ in FORMS]
    assert len(ids) == len(set(ids)) >= 80
    assert sorted(record) == sorted(ids)
    assert {entry["code"] for entry in record.values()} == {0, 1, 2}


@pytest.mark.parametrize("argv", [argv for _, argv in FORMS],
                         ids=[form_id for form_id, _ in FORMS])
def test_cli_form_matches_its_record(folder, record, request, argv):
    form_id = request.node.callspec.id
    assert run_form(argv, folder) == record[form_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_documents(tmp)
        runs = {form_id: run_form(argv, tmp) for form_id, argv in FORMS}
    RECORD.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"recorded {len(runs)} forms in {RECORD}\n")
