"""Matching engines: standard DA, simple bundle-DA, general bundle-DA.

Expected matchings and full event streams are frozen from hand-worked runs
of the two walkthrough markets; the engines must reproduce them exactly.  A
seeded battery pins the complete traces of all three engines by digest (the
simple engine's on the battery's simple markets).
"""

import numpy as np
import pytest
from conftest import build, load_json
from random_markets import random_simple_market, random_spanning_market, spanning_market

from bundlechoice import (
    check_bundle_stability,
    content_digest,
    detect_simplicity,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    run_standard_da,
)

NU_41 = {
    "i1": "s1", "i2": "b1234", "i3": "s3", "i4": None,
    "i5": "s5", "i6": "b567", "i7": "b56", "i8": "b1234",
}

EVENTS_41 = [
    (1, "admit", "i1", "s1"), (1, "admit", "i2", "b1234"),
    (1, "admit", "i3", "s3"), (1, "admit", "i4", "b12"),
    (1, "reject", "i5", "b34"), (1, "admit", "i6", "b567"),
    (1, "admit", "i7", "b56"), (1, "admit", "i8", "s5"),
    (2, "admit", "i1", "s1"), (2, "admit", "i2", "b1234"),
    (2, "admit", "i3", "s3"), (2, "admit", "i4", "b12"),
    (2, "admit", "i6", "b567"), (2, "admit", "i7", "b56"),
    (2, "admit", "i5", "s5"), (2, "reject", "i8", "s5"),
    (3, "admit", "i1", "s1"), (3, "admit", "i2", "b1234"),
    (3, "admit", "i3", "s3"), (3, "admit", "i8", "b1234"),
    (3, "reject", "i4", "b12"), (3, "admit", "i6", "b567"),
    (3, "admit", "i7", "b56"), (3, "admit", "i5", "s5"),
    (4, "admit", "i1", "s1"), (4, "admit", "i2", "b1234"),
    (4, "admit", "i3", "s3"), (4, "admit", "i8", "b1234"),
    (4, "admit", "i6", "b567"), (4, "admit", "i7", "b56"),
    (4, "admit", "i5", "s5"), (4, "reject", "i4", "s5"),
]

NU_D = {
    "i1": "s2", "i2": "b23", "i3": None, "i4": "s1",
    "i5": "b123", "i6": "s4", "i7": "s1", "i8": "b123",
}


def test_simple_engine_reproduces_walkthrough(walkthrough, walkthrough_rols):
    nu, trace = run_bundle_da_simple(walkthrough, walkthrough_rols)
    assert nu.as_dict() == NU_41
    assert len(trace.rounds) == 4
    assert [ev[:4] for ev in trace.events()] == EVENTS_41


def test_simple_engine_quota_snapshots_never_negative(walkthrough, walkthrough_rols):
    _, trace = run_bundle_da_simple(walkthrough, walkthrough_rols)
    for ev in trace.events():
        if ev[1] == "admit":
            assert all(v >= 0 for v in ev[4].values())


def test_simple_engine_rejections_are_final(walkthrough, walkthrough_rols):
    """Once rejected from an option a student never reapplies to it, and the
    application pointer only moves down the submitted list."""
    _, trace = run_bundle_da_simple(walkthrough, walkthrough_rols)
    rejected = set()
    for ev in trace.events():
        key = (ev[2], ev[3])
        if ev[1] == "admit":
            assert key not in rejected
        else:
            rejected.add(key)
    for i, rol in walkthrough_rols.items():
        seen = [rol.index(rnd.applications[i])
                for rnd in trace.rounds if i in rnd.applications]
        assert seen == sorted(seen)


def test_simple_engine_on_swap_market(swap_market, swap_rols):
    nu, _ = run_bundle_da_simple(swap_market, swap_rols)
    assert nu.as_dict() == {
        "i1": "s1", "i2": "B", "i3": "s3", "i4": "s4", "i5": "s1"
    }


def test_empty_rols_leave_everyone_unmatched(walkthrough):
    nu, trace = run_bundle_da_simple(walkthrough, {})
    assert all(nu[i] is None for i in walkthrough.students)
    assert trace.rounds == []


def test_general_engine_reproduces_nested_walkthrough(nested, nested_rols):
    nu, trace = run_bundle_da_general(nested, nested_rols)
    assert nu.as_dict() == NU_D
    assert len(trace.rounds) == 5

    first = trace.rounds[0]
    kinds = [(ev[0], ev[1], ev[2]) for ev in first.events]
    assert kinds == [
        ("admit", "i1", "s2"), ("admit", "i4", "s1"), ("admit", "i8", "s4"),
        ("admit", "i5", "b123"), ("admit", "i2", "b23"),
        ("admit", "i3", "b23"), ("admit", "i7", "b23"),
        ("reject", "i6", "b23"),
    ]
    i8_admit = first.events[2]
    assert i8_admit[3] == {
        "s1": 1, "s2": 1, "s3": 2, "s4": 0, "s5": 1, "b23": 3, "b123": 4
    }

    second = trace.rounds[1]
    assert [ev[:3] for ev in second.events] == [
        ("stay", "i1", "s2"), ("stay", "i4", "s1"), ("release", "i8", "s4"),
        ("stay", "i5", "b123"), ("stay", "i2", "b23"), ("stay", "i3", "b23"),
        ("stay", "i7", "b23"), ("admit", "i6", "s4"), ("reject", "i8", "s4"),
    ]


def test_general_engine_contested_bundle_baseline(contested_market):
    rols = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    nu, _ = run_bundle_da_general(contested_market, rols, tiebreak=["i3", "i1", "i2"])
    assert nu.as_dict() == {"i1": "s1", "i2": None, "i3": "B"}


def test_general_engine_contested_bundle_deviation(contested_market):
    rols = load_json("three_student_overdemand_deviation_rols.json")["rols"]
    nu, _ = run_bundle_da_general(contested_market, rols, tiebreak=["i3", "i1", "i2"])
    assert nu.as_dict() == {"i1": None, "i2": "s2", "i3": "B"}


def test_general_engine_rejects_bad_tiebreak(contested_market):
    rols = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    with pytest.raises(ValueError, match="permutation"):
        run_bundle_da_general(contested_market, rols, tiebreak=["i3", "i1"])


def test_standard_da_two_student_market(tiny_market, tiny_rols):
    nu, _ = run_standard_da(tiny_market, tiny_rols)
    assert nu.as_dict() == {"i": "s", "ip": None}


def test_standard_da_rejects_bundle_entries(swap_market, swap_rols):
    with pytest.raises(ValueError, match="one-school entries only"):
        run_standard_da(swap_market, swap_rols)


def test_standard_da_is_serial_dictatorship_under_common_priority():
    order = ["p1", "p2", "p3"]
    instance = build(
        {
            "students": order,
            "schools": [
                {"id": s, "quota": 1, "priority": order}
                for s in ("s1", "s2", "s3", "s4")
            ],
            "bundles": [],
            "rol_length": 3,
        }
    )
    rols = {i: ["s1", "s2", "s3"] for i in order}
    nu, _ = run_standard_da(instance, rols)
    assert nu.as_dict() == {"p1": "s1", "p2": "s2", "p3": "s3"}


def test_standard_da_reproduces_worked_admission_round():
    """Six applicants in score order, ROLs from the worked admission table."""
    ranks = [f"g{k}" for k in range(1, 7)]
    instance = build(
        {
            "students": ranks,
            "schools": [
                {"id": s, "quota": 1, "priority": ranks}
                for s in ("A", "B", "C", "D", "E", "F")
            ],
            "bundles": [],
            "rol_length": 2,
        }
    )
    rols = {
        "g1": ["D", "A"], "g2": ["D", "A"], "g3": ["A", "E"],
        "g4": ["D", "E"], "g5": ["A", "F"], "g6": ["E", "F"],
    }
    nu, _ = run_standard_da(instance, rols)
    assert nu.as_dict() == {
        "g1": "D", "g2": "A", "g3": "E", "g4": None, "g5": "F", "g6": None
    }


def test_engines_agree_on_walkthrough(walkthrough, walkthrough_rols):
    simple, _ = run_bundle_da_simple(walkthrough, walkthrough_rols)
    general, _ = run_bundle_da_general(walkthrough, walkthrough_rols)
    assert simple == general


def test_all_engines_coincide_on_trivial_rols(tiny_market, tiny_rols):
    da, _ = run_standard_da(tiny_market, tiny_rols)
    simple, _ = run_bundle_da_simple(tiny_market, tiny_rols)
    general, _ = run_bundle_da_general(tiny_market, tiny_rols)
    assert da.as_dict() == simple.as_dict() == general.as_dict()


def test_dispatcher_picks_engine_by_simplicity(walkthrough, walkthrough_rols,
                                               nested, nested_rols):
    auto_simple, trace_s = run_bundle_da(walkthrough, walkthrough_rols)
    assert trace_s.engine == "bundle-da-simple"
    assert auto_simple.as_dict() == NU_41
    auto_general, trace_g = run_bundle_da(nested, nested_rols)
    assert trace_g.engine == "bundle-da-general"
    assert auto_general.as_dict() == NU_D


DIVERGENCE_RAW = {
    "students": ["m", "i", "j"],
    "schools": [
        {"id": "s1", "quota": 1, "priority": ["m", "i", "j"]},
        {"id": "s2", "quota": 1, "priority": ["m", "i", "j"]},
    ],
    "bundles": [{"id": "W", "schools": ["s1", "s2"], "targets": "all"}],
    "rol_length": 1,
}

DIVERGENCE_ROLS = {"m": ["W"], "i": ["s1"], "j": ["s2"]}


def test_tiebreak_can_split_the_engines_on_a_simple_system():
    """Overdemand resolution may consult the exogenous order even on simple
    systems; an adverse order then diverges from the common-priority engine,
    but both outcomes remain stable."""
    instance = build(DIVERGENCE_RAW)
    nu_simple, _ = run_bundle_da_simple(instance, DIVERGENCE_ROLS)
    assert nu_simple.as_dict() == {"m": "W", "i": "s1", "j": None}

    adverse, _ = run_bundle_da_general(
        instance, DIVERGENCE_ROLS, tiebreak=["m", "j", "i"]
    )
    assert adverse.as_dict() == {"m": "W", "i": None, "j": "s2"}

    assert check_bundle_stability(nu_simple, DIVERGENCE_ROLS, instance).stable
    assert check_bundle_stability(adverse, DIVERGENCE_ROLS, instance).stable

    # the canonical order sides with the common priority here
    canonical, _ = run_bundle_da_general(instance, DIVERGENCE_ROLS)
    assert canonical == nu_simple


def test_walkthrough_outcome_ignores_declaration_order(walkthrough_rols):
    raw = load_json("two_hierarchy_market.json")
    reordered = dict(raw)
    reordered["schools"] = raw["schools"][4:] + raw["schools"][:4]
    reordered["bundles"] = list(reversed(raw["bundles"]))
    instance = build(reordered)
    nu, _ = run_bundle_da_simple(instance, walkthrough_rols)
    assert nu.as_dict() == NU_41
    general, _ = run_bundle_da_general(instance, walkthrough_rols)
    assert general.as_dict() == NU_41


# The smallest market on which the general engine's overdemand branch goes
# wrong: the student refused through the tie-break is rejected for good, and
# a student of lower priority takes the seat in a later round.
REPRODUCER_RAW = {
    "students": ["i1", "i2", "i3", "i4", "i5"],
    "schools": [
        {"id": "s1", "quota": 1, "priority": ["i4", "i1", "i5", "i3", "i2"]},
        {"id": "s2", "quota": 1, "priority": ["i2", "i5", "i4", "i1", "i3"]},
        {"id": "s3", "quota": 1, "priority": ["i2", "i5", "i4", "i1", "i3"]},
    ],
    "bundles": [{"id": "b23", "schools": ["s2", "s3"], "targets": ["i2", "i3"]}],
    "rol_length": 2,
}

REPRODUCER_ROLS = {"i1": ["s3", "s2"], "i2": ["b23", "s1"], "i3": ["b23", "s1"],
                   "i4": ["s3"], "i5": ["s2"]}


@pytest.mark.xfail(strict=True, reason="general engine seats i1 at s2 over i5")
def test_general_engine_is_stable_on_the_overdemand_reproducer():
    instance = build(REPRODUCER_RAW)
    nu, _ = run_bundle_da_general(instance, REPRODUCER_ROLS,
                                  tiebreak=["i1", "i2", "i3", "i4", "i5"])
    assert check_bundle_stability(nu, REPRODUCER_ROLS, instance).stable


# Full engine outputs on a fixed battery, digested at the last commit before
# the general engine read its tops from per-school queues (the simple
# engine's at the last commit before the engines shared one round loop).  A
# speed-up or refactor of any engine must leave every round exactly as it was.
def _plain(value):
    """Dicts as item lists, so the digest sees insertion order too."""
    if isinstance(value, dict):
        return [[k, _plain(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _output(result):
    matching, trace = result
    return [trace.engine, _plain(matching.as_dict()), [
        [rnd.number, _plain(rnd.applications), _plain(rnd.admitted),
         _plain(rnd.rejected), _plain(rnd.events)]
        for rnd in trace.rounds
    ]]


def _frozen_battery():
    fixtures = [
        (build(load_json(market)), load_json(rols)["rols"])
        for market, rols in [
            ("two_hierarchy_market.json", "two_hierarchy_market_rols.json"),
            ("nested_bundle_market.json", "nested_bundle_market_rols.json"),
            ("five_student_market.json", "five_student_market_rols.json"),
            ("three_student_overdemand.json",
             "three_student_overdemand_baseline_rols.json"),
            ("three_student_overdemand.json",
             "three_student_overdemand_deviation_rols.json"),
        ]
    ]
    fixtures.append((build(DIVERGENCE_RAW), DIVERGENCE_ROLS))
    spanning_rng = np.random.default_rng(6)
    simple_rng = np.random.default_rng(12345)
    return {
        "fixtures": fixtures,
        "reproducer": [(build(REPRODUCER_RAW), REPRODUCER_ROLS)],
        "spanning": [random_spanning_market(spanning_rng) for _ in range(200)],
        "simple": [random_simple_market(simple_rng) for _ in range(200)],
        "mid": [spanning_market(np.random.default_rng(2026), 320,
                                [4, 4, 4, 4, 4], 12, 16, 3)],
    }


def _frozen_digests():
    digests = {}
    for name, markets in _frozen_battery().items():
        general, standard, simple = [], [], []
        for instance, rols in markets:
            for tiebreak in (None, instance.students[::-1]):
                general.append(_output(
                    run_bundle_da_general(instance, rols, tiebreak)))
            trivial = {i: [b for b in rol if instance.bundles[b].trivial]
                       for i, rol in rols.items()}
            standard.append(_output(run_standard_da(instance, trivial)))
            if detect_simplicity(instance).simple:
                simple.append(_output(run_bundle_da_simple(instance, rols)))
        digests[name] = tuple(map(content_digest, (general, standard, simple)))
    return digests


FROZEN_DIGESTS = {
    "fixtures": (
        "b46a371113545eb2e05c9488a28eed8dd0a6c165ed9f8f834cc823eb0141395e",
        "8d69a3aef1613b89ed3e444534e46428f951cb4c475c8586477ff97c028e8587",
        "47649aa766872abf1273320573bde490428b7a43f323e9a22e19b0ed1b4ee96e",
    ),
    "reproducer": (
        "3c42eee059cd22bc4b09af13dec739cd042c41ce95e2515ff2171de5b9dbd5c5",
        "ef8ade1ed14b342e46875b6c2b49c8d3fa208fe5fe73ff46fe3a0356d4002f71",
        "dc3aaa043f5fc413641b9111d5b0ae057c2c612a0fba3ba1a4599d1541b40275",
    ),
    "spanning": (
        "5c19f799fda1edd2b81ea2f94136fc465f54e8bba37f15240cb4bc09dc552e5c",
        "d78af83ed08c2a89951caa3216097d1559a795d9a278696b604953af36b6985d",
        "dfdc62957782035e940894d10a2c03dbf2cbc030391ffa5a64b13ee3506d8506",
    ),
    "simple": (
        "9f9b191cc9150df9fbe57005ac9a8a2c4c1ad54db2d0bed31857e59101867eb0",
        "6bce06bbfcc062e1bf8bf8db1c7847fc4f38f8c1b3dcf4a4729b1404771a97c7",
        "939fc09d42cfc1fef17f35b7fa030dd592f37c227680fc6c660df3a60583d5e9",
    ),
    "mid": (
        "0ddcbd87143a251fd6207f964ec70d971da5de452534114b3bdb2a4814b4e576",
        "5d5008ad5a2fee9cd357a71d58cae37d9b74224d0bb42afa4683431fa163a3ed",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ),
}


def test_engine_outputs_are_frozen():
    assert _frozen_digests() == FROZEN_DIGESTS
