"""The CLI contract under random input documents.

Every command reads one or more JSON documents: an instance, ROLs
(one-school ROLs for `run-da`), a matching, and the `--stage-prefs` and `--classes` side documents.  Each
example replaces one of them with a random JSON value, a fixture with one
field replaced or deleted, or text that is not JSON, and runs the command
in process.  Whatever the document, the command must exit 0, 1 or 2 and
never let an exception out.
"""

import contextlib
import io
import json

import pytest
from conftest import load_json
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bundlechoice import run_cli

STAGE_PREFS = {"i2": ["s2", "s1"], "i3": ["s1", "s2"]}
CLASSES = {"i1": [["s1", "s2"]], "i4": [["s2"], ["s4"]]}
SCHOOL_ROLS = {"rols": {"i1": ["s1", "s4"], "i2": ["s2"], "i3": ["s3", "s1"],
                        "i4": ["s2", "s4"], "i5": ["s3", "s1"]}}

# The valid document of each slot, all for the five-student market.
DOCUMENTS = {
    "instance": load_json("five_student_market.json"),
    "rols": load_json("five_student_market_rols.json"),
    "school_rols": SCHOOL_ROLS,
    "matching": load_json("five_student_matching.json"),
    "stage_prefs": STAGE_PREFS,
    "classes": CLASSES,
}

# Each command's arguments, slot names standing for document paths.
COMMANDS = (
    ("validate", "instance", "rols"),
    ("run-da", "instance", "school_rols"),
    ("run-bundle-da", "instance", "rols", "--implement", "det"),
    ("run-bundle-da", "instance", "rols", "--implement", "prefs",
     "--stage-prefs", "stage_prefs"),
    ("implement", "instance", "matching", "--implement", "prefs",
     "--stage-prefs", "stage_prefs"),
    ("check-stability", "instance", "rols", "matching"),
    ("oracle", "pusm", "instance", "rols", "matching", "--oracle-bound", "5000"),
    ("improve", "instance", "rols", "matching", "--oracle-bound", "5000"),
    ("audit-rol", "instance", "rols", "--classes", "classes"),
    ("trace", "instance", "rols", "--engine", "general",
     "--tiebreak", "i1,i2,i3,i4,i5"),
)

WORDS = ("i1", "i2", "i5", "zz", "s1", "s2", "B", "all", "students", "schools",
         "bundles", "rol_length", "id", "quota", "priority", "targets", "rols",
         "matching", "seats")

scalars = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.floats(allow_nan=False, width=16) | st.sampled_from(WORDS)
           | st.text(max_size=2))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=2),
                                     inner, max_size=4)),
    max_leaves=10,
)
DELETE = object()


@st.composite
def mutated(draw, doc):
    """`doc` with one value, somewhere inside it, replaced or deleted."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        copy = type(doc)(doc)
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                   else range(len(doc))))
        child = draw(mutated(doc[key]))
        if child is DELETE:
            del copy[key]
        else:
            copy[key] = child
        return copy
    return draw(st.just(DELETE) | json_values)


@st.composite
def cases(draw):
    """(command arguments, slot to replace, text of the replacement)."""
    argv = draw(st.sampled_from(COMMANDS))
    slot = draw(st.sampled_from([a for a in argv if a in DOCUMENTS]))
    if draw(st.integers(0, 9)) == 0:
        return argv, slot, draw(st.text(max_size=8))  # mostly not JSON
    doc = draw(st.one_of(
        mutated(DOCUMENTS[slot]).filter(lambda d: d is not DELETE),
        json_values,
    ))
    return argv, slot, json.dumps(doc)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """A folder holding the valid document of every slot."""
    folder = tmp_path_factory.mktemp("fuzz")
    for name, doc in DOCUMENTS.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return folder


def run(folder, argv, slot=None, text=None):
    """Exit code and stderr of one command, `slot`'s document replaced."""
    paths = {name: folder / f"{name}.json" for name in DOCUMENTS}
    if slot is not None:
        paths[slot] = folder / "replaced.json"
        paths[slot].write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([str(paths.get(a, a)) for a in argv])
    return code, err.getvalue()


def test_every_fuzzed_command_accepts_the_valid_documents(folder):
    """So each example's exit code comes from the replaced document."""
    for argv in COMMANDS:
        assert run(folder, argv) == (0, ""), argv


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_cli_exits_0_1_or_2_without_a_traceback(folder, case):
    argv, slot, text = case
    code, err = run(folder, argv, slot, text)
    assert code in (0, 1, 2), (argv, slot, text, err)
    assert "Traceback" not in err
