import json
from pathlib import Path

import pytest

from bundlechoice import ValidationReport, validate_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_json(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def build(raw):
    instance = validate_instance(raw)
    assert not isinstance(instance, ValidationReport), str(instance)
    return instance


def result_or_error(call, *args):
    """What `call(*args)` returns, or the type and message of the ValueError
    or RuntimeError it raises."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def fixture_markets():
    """(instance, ROLs) for every ROL document among the fixtures, each with
    the instance whose file name its own begins with."""
    markets = []
    for path in sorted(FIXTURES.glob("*_rols.json")):
        stem = next(p.stem for p in FIXTURES.glob("*.json")
                    if path.stem.startswith(p.stem + "_"))
        markets.append((build(load_json(f"{stem}.json")),
                        load_json(path.name)["rols"]))
    return markets


@pytest.fixture(scope="session")
def walkthrough():
    """Eight students, two disjoint hierarchies, ROLs of length two."""
    return build(load_json("two_hierarchy_market.json"))


@pytest.fixture(scope="session")
def walkthrough_rols():
    return load_json("two_hierarchy_market_rols.json")["rols"]


@pytest.fixture(scope="session")
def nested():
    """Eight students, bundles {s2,s3} and {s1,s2,s3} with narrowing targets."""
    return build(load_json("nested_bundle_market.json"))


@pytest.fixture(scope="session")
def nested_rols():
    return load_json("nested_bundle_market_rols.json")["rols"]


@pytest.fixture(scope="session")
def swap_market():
    """Five students, four schools, one bundle B = {s1, s2}."""
    return build(load_json("five_student_market.json"))


@pytest.fixture(scope="session")
def swap_rols():
    return load_json("five_student_market_rols.json")["rols"]


@pytest.fixture(scope="session")
def tiny_market():
    """Two students, two listed one-seat schools plus a never-listed filler.

    Both schools rank i above ip; i lists (s, sp), ip lists only s.  The
    filler school sz keeps the list cap below the school count and changes
    nothing else.
    """
    return build(
        {
            "students": ["i", "ip"],
            "schools": [
                {"id": "s", "quota": 1, "priority": ["i", "ip"]},
                {"id": "sp", "quota": 1, "priority": ["i", "ip"]},
                {"id": "sz", "quota": 1, "priority": ["i", "ip"]},
            ],
            "bundles": [],
            "rol_length": 2,
        }
    )


TINY_ROLS = {"i": ["s", "sp"], "ip": ["s"]}


@pytest.fixture(scope="session")
def tiny_rols():
    return {i: list(rol) for i, rol in TINY_ROLS.items()}


@pytest.fixture(scope="session")
def contested_market():
    """Three students, bundle B = {s1,s2} open to i1 and i3 only."""
    return build(load_json("three_student_overdemand.json"))
