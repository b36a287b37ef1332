"""Linear-pass validation against the pairwise reference.

`validate_instance` passes a valid document in linear passes and runs its
exact pairwise scans only when a pass fails.  `validation_reference` keeps
the pairwise validation it replaced.  On a seeded battery of valid and
invalid documents the two must give the same problems, message by message
and in order, and equal instances; and on every valid document neither exact
scan may run.
"""

import copy
import random

import numpy as np
import pytest
import random_markets
import validation_reference
from conftest import load_json
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli_fuzz import DELETE, json_values, mutated

from bundlechoice import ValidationReport, model, validate_instance


def outcome(validate, raw):
    """What one validation gives: a report's problems, an instance's state,
    or the exception it raised."""
    try:
        result = validate(raw)
    except Exception as err:  # the battery compares failures too
        return "raised", type(err), str(err)
    if isinstance(result, ValidationReport):
        return "report", result.problems
    return "instance", vars(result)


def recorded_documents(make, rng, count):
    """The instance documents `make(rng)` hands to `validate_instance`."""
    docs = []

    def record(raw):
        docs.append(copy.deepcopy(raw))
        return validate_instance(raw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(random_markets, "validate_instance", record)
        for _ in range(count):
            make(rng)
    return docs


def _listed(doc):
    return [b for b in doc["bundles"] if isinstance(b, dict)]


def _school_ids(doc):
    return [s["id"] for s in doc["schools"]]


def _swap_targets(rng, doc):
    """Reverse two of a bundle's targets in one of its schools' priority."""
    bundles = [b for b in _listed(doc) if len(b["schools"]) > 1]
    if not bundles:
        return
    b = rng.choice(bundles)
    school = rng.choice([s for s in doc["schools"] if s["id"] in b["schools"]])
    priority = list(school["priority"])
    targets = doc["students"] if b.get("targets", "all") == "all" else b["targets"]
    targets = [i for i in dict.fromkeys(targets) if i in priority]
    if len(targets) > 1:
        i, j = rng.sample(targets, 2)
        a, c = priority.index(i), priority.index(j)
        priority[a], priority[c] = priority[c], priority[a]
        school["priority"] = priority


def _swap_anywhere(rng, doc):
    school = rng.choice(doc["schools"])
    priority = list(school["priority"])
    a, c = rng.randrange(len(priority)), rng.randrange(len(priority))
    priority[a], priority[c] = priority[c], priority[a]
    school["priority"] = priority


def _overlapping(rng, doc):
    ids = _school_ids(doc)
    schools = rng.sample(ids, rng.randint(2, len(ids)))
    targets = "all" if rng.random() < 0.5 else rng.sample(
        doc["students"], rng.randint(1, len(doc["students"])))
    doc["bundles"].append({"id": f"x{len(doc['bundles'])}", "schools": schools,
                           "targets": targets})


def _retarget(rng, doc):
    if _listed(doc):
        b = rng.choice(_listed(doc))
        b["targets"] = "all" if rng.random() < 0.3 else rng.sample(
            doc["students"], rng.randint(1, len(doc["students"])))


def _equal_sets(rng, doc):
    if _listed(doc):
        b = dict(rng.choice(_listed(doc)))
        b["id"] = f"x{len(doc['bundles'])}"
        b["schools"] = list(reversed(b["schools"]))
        doc["bundles"].append(b)


def _empty_schools(rng, doc):
    doc["bundles"].append({"id": f"x{len(doc['bundles'])}", "schools": [],
                           "targets": rng.choice(["all", doc["students"][:1]])})


def _one_school(rng, doc):
    doc["bundles"].append({"id": f"x{len(doc['bundles'])}",
                           "schools": [rng.choice(_school_ids(doc))]})


def _unknown_school(rng, doc):
    if _listed(doc):
        b = rng.choice(_listed(doc))
        b["schools"] = list(b["schools"]) + ["zz"]


def _unknown_student(rng, doc):
    if _listed(doc):
        b = rng.choice(_listed(doc))
        b["targets"] = ["zz"] + ([] if rng.random() < 0.3 else doc["students"][:2])


def _empty_targets(rng, doc):
    if _listed(doc):
        rng.choice(_listed(doc))["targets"] = []


def _not_a_permutation(rng, doc):
    school = rng.choice(doc["schools"])
    priority = list(school["priority"])
    k = rng.randrange(len(priority))
    change = rng.randrange(3)
    if change == 0:
        del priority[k]
    elif change == 1:
        priority.append(priority[k])
    else:
        priority[k] = "zz"
    school["priority"] = priority


def _duplicate_student(rng, doc):
    i = rng.choice(doc["students"])
    doc["students"] = doc["students"] + [i]
    if rng.random() < 0.5:  # keep every priority a permutation of the roster
        for school in doc["schools"]:
            priority = list(school["priority"])
            priority.insert(rng.randrange(len(priority) + 1), i)
            school["priority"] = priority


def _duplicate_school(rng, doc):
    school = dict(rng.choice(doc["schools"]))
    if rng.random() < 0.5:
        school["priority"] = list(reversed(school["priority"]))
    doc["schools"].append(school)


def _duplicate_bundle(rng, doc):
    ids = [b["id"] for b in _listed(doc)] + _school_ids(doc)
    schools = rng.sample(_school_ids(doc), 2)
    doc["bundles"].append({"id": rng.choice(ids), "schools": schools})


def _bad_numbers(rng, doc):
    if rng.random() < 0.5:
        rng.choice(doc["schools"])["quota"] = 0
    else:
        doc["rol_length"] = rng.choice([0, len(doc["schools"])])


MUTATIONS = (
    _swap_targets, _swap_anywhere, _overlapping, _retarget, _equal_sets,
    _empty_schools, _one_school, _unknown_school, _unknown_student,
    _empty_targets, _not_a_permutation, _duplicate_student, _duplicate_school,
    _duplicate_bundle, _bad_numbers,
)
# The structural mutations, weighted up for the 800-student documents.
DISTRICT_MUTATIONS = (
    _swap_targets, _swap_targets, _overlapping, _retarget, _retarget,
    _equal_sets, _empty_schools, _not_a_permutation, _duplicate_student,
)


def mutants(rng, doc, count, mutations=MUTATIONS):
    """`count` copies of `doc`, each with one to three random mutations."""
    out = []
    for _ in range(count):
        mutant = copy.deepcopy(doc)
        for _ in range(rng.choice((1, 1, 2, 3))):
            rng.choice(mutations)(rng, mutant)
        out.append(mutant)
    return out


def random_document(rng):
    """A small document drawn from scratch: bundles over random school sets,
    priorities drawn from one to three orders."""
    students = [f"i{k}" for k in range(1, rng.randint(2, 6) + 1)]
    ids = [f"s{k}" for k in range(1, rng.randint(2, 6) + 1)]
    orders = [rng.sample(students, len(students)) for _ in range(rng.randint(1, 3))]
    schools = [{"id": s, "quota": rng.randint(1, 2), "priority": rng.choice(orders)}
               for s in ids]
    bundles = []
    for k in range(rng.randint(0, 4)):
        bundle = {"id": f"b{k}", "schools": rng.sample(ids, rng.randint(2, len(ids)))}
        if rng.random() < 0.6:
            bundle["targets"] = rng.sample(students, rng.randint(1, len(students)))
        bundles.append(bundle)
    return {"students": students, "schools": schools, "bundles": bundles,
            "rol_length": rng.randint(1, len(ids) - 1)}


def district_documents(rng):
    """800-student, 32-school documents: two grouped markets with a bundle
    over every school for a top tier, and the same two without it."""
    docs = recorded_documents(
        lambda r: random_markets.spanning_market(r, 800, [4] * 8, 25, 40, 3),
        rng, 2)
    for doc in list(docs):
        simple = copy.deepcopy(doc)
        simple["bundles"] = [b for b in simple["bundles"] if b["id"] != "span"]
        docs.append(simple)
    return docs


@pytest.fixture(scope="module")
def battery():
    """(document, reference outcome) pairs: valid documents from the test
    generators, random mutations of each, and documents drawn from scratch."""
    rng = random.Random(1616)
    valid = recorded_documents(random_markets.random_simple_market,
                               np.random.default_rng(1617), 300)
    valid += recorded_documents(random_markets.random_spanning_market,
                                np.random.default_rng(1618), 300)
    docs = list(valid)
    for doc in valid:
        docs += mutants(rng, doc, 2)
    docs += [random_document(rng) for _ in range(300)]
    for doc in district_documents(np.random.default_rng(1619)):
        docs += [doc] + mutants(rng, doc, 6, DISTRICT_MUTATIONS)
    return [(doc, outcome(validation_reference.validate_instance, doc))
            for doc in docs]


KINDS = {
    "nesting": "overlap without nesting",
    "monotonicity": "targets students outside",
    "uniformity": "rank targeted students",
    "equal sets": "share the school set",
    "empty schools": "empty school set",
    "unknown schools": "unknown schools",
    "unknown students": "unknown students",
    "permutation": "not a permutation",
    "duplicate students": "duplicate student ids",
    "duplicate schools": "duplicate school ids",
    "duplicate bundles": "duplicate bundle ids",
}


def kinds_of(result):
    if result[0] == "instance":
        return {"valid"}
    return {kind for kind, text in KINDS.items()
            if any(text in problem for problem in result[1])}


def test_linear_passes_give_the_reference_reports(battery):
    seen = {kind: 0 for kind in ("valid", *KINDS)}
    district = {kind: 0 for kind in ("valid", "nesting", "monotonicity",
                                     "uniformity")}
    for doc, expected in battery:
        assert outcome(validate_instance, doc) == expected, doc
        for kind in kinds_of(expected):
            seen[kind] += 1
            if len(doc["students"]) >= 800 and kind in district:
                district[kind] += 1
    assert len(battery) >= 2000
    assert seen["valid"] >= 600
    assert min(seen.values()) >= 20, seen
    assert district["valid"] >= 4 and min(district.values()) >= 1, district


def test_exact_scans_run_only_on_a_hit(battery, monkeypatch):
    """The nesting scan does not run on a valid document.  It runs once when
    a pass fails or an earlier problem was reported."""
    calls = {"_scan_nesting": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
    hits = {"nesting scan": 0, "uniformity walk": 0}
    for doc, expected in battery:
        calls.update(dict.fromkeys(calls, 0))
        validate_instance(doc)
        nesting = calls["_scan_nesting"]
        if expected[0] == "instance":
            assert nesting == 0
            continue
        problems = expected[1]
        if not model._check_shape(doc).ok:
            assert nesting == 0
            continue
        late = ("rank targeted students", "rol_length")
        earlier = [p for p in problems if not any(text in p for text in late)]
        assert nesting == (1 if earlier else 0), problems
        kinds = kinds_of(expected)
        hits["nesting scan"] += bool(kinds & {"nesting", "monotonicity"})
        hits["uniformity walk"] += "uniformity" in kinds
    assert min(hits.values()) >= 100, hits


INSTANCE_FIXTURES = [load_json(name) for name in (
    "five_student_market.json", "two_hierarchy_market.json",
    "nested_bundle_market.json", "bad_overlap.json")]


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(
    st.sampled_from(INSTANCE_FIXTURES).flatmap(mutated).filter(
        lambda d: d is not DELETE),
    json_values,
))
def test_fuzzed_documents_give_the_reference_reports(doc):
    """The CLI fuzz test's documents: fixtures with one value replaced or
    deleted somewhere inside them, and random JSON values."""
    assert outcome(validate_instance, doc) == outcome(
        validation_reference.validate_instance, doc)
