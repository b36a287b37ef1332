"""Matching engines: standard DA, simple bundle-DA, general bundle-DA.

Expected matchings and full event streams are frozen from hand-worked runs
of the two walkthrough markets; the engines must reproduce them exactly.  A
seeded battery pins the complete traces of all three engines by digest (the
simple engine's on the battery's simple markets), and a larger one compares
every round with `clearing_reference`, which clears each round afresh.
"""

from collections import Counter

import numpy as np
import pytest
import stability_oracle
from clearing_reference import events, reference_bundle_da, reference_standard_da
from conftest import build, load_json
from manipulation_oracle import profitable_misreports
from random_markets import (
    random_simple_market,
    random_spanning_market,
    school_sets,
    spanning_market,
    to_ref,
)

from bundlechoice import (
    check_bundle_stability,
    content_digest,
    detect_simplicity,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    run_standard_da,
)
from bundlechoice import engines

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
    for rnd in trace.rounds:
        for ev in events(walkthrough, rnd.decisions):
            if ev[0] == "admit":
                assert all(v >= 0 for v in ev[3].values())


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
    assert first.decisions == [
        ("admit", "i8", "s4"), ("admit", "i1", "s2"), ("admit", "i4", "s1"),
        ("admit", "i5", "b123"), ("admit", "i2", "b23"),
        ("admit", "i3", "b23"), ("admit", "i7", "b23"),
        ("reject", "i6", "b23"),
    ]
    i4_admit = events(nested, first.decisions)[2]
    assert i4_admit[3] == {
        "s1": 1, "s2": 1, "s3": 2, "s4": 0, "s5": 1, "b23": 3, "b123": 4
    }

    # Holders apply again every round: i6 displaces i8 at s4.
    second = trace.rounds[1]
    assert second.decisions == [
        ("admit", "i6", "s4"), ("reject", "i8", "s4"), ("admit", "i1", "s2"),
        ("admit", "i4", "s1"), ("admit", "i5", "b123"), ("admit", "i2", "b23"),
        ("admit", "i3", "b23"), ("admit", "i7", "b23"),
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
    with pytest.raises(ValueError, match="^unknown engine 'bogus'$"):
        run_bundle_da(contested_market, rols, engine="bogus")


def test_standard_da_two_student_market(tiny_market, tiny_rols):
    nu, _ = run_standard_da(tiny_market, tiny_rols)
    assert nu.as_dict() == {"i": "s", "ip": None}


def test_standard_da_rejects_bundle_entries(swap_market, swap_rols):
    with pytest.raises(ValueError, match="one-school entries only"):
        run_standard_da(swap_market, swap_rols)


@pytest.mark.parametrize(
    "engine", [run_bundle_da, run_bundle_da_general, run_standard_da])
def test_engines_name_an_unknown_bundle(nested, engine):
    """Every engine reads the lists as the audits do, so an entry the
    instance lacks is named, not raised as a bare KeyError."""
    with pytest.raises(ValueError, match="^student i1: unknown bundle nope$"):
        engine(nested, {"i1": ["nope"]})


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


def test_tiebreak_cannot_split_the_engines_on_a_simple_system():
    """On a simple system the general engine orders applications by the
    common priority alone, so even an adverse tie-break order leaves it
    equal to the simple engine."""
    instance = build(DIVERGENCE_RAW)
    nu_simple, _ = run_bundle_da_simple(instance, DIVERGENCE_ROLS)
    assert nu_simple.as_dict() == {"m": "W", "i": "s1", "j": None}
    assert check_bundle_stability(nu_simple, DIVERGENCE_ROLS).stable

    for tiebreak in (None, ["m", "j", "i"]):
        general, _ = run_bundle_da_general(instance, DIVERGENCE_ROLS, tiebreak)
        assert general == nu_simple


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


# The smallest market on which an earlier general engine, which resolved
# overdemanded bundles by the tie-break order, went wrong: the student it
# refused was rejected for good, and a student of lower priority took the
# seat in a later round.
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


def test_general_engine_is_stable_on_the_overdemand_reproducer():
    instance = build(REPRODUCER_RAW)
    nu, _ = run_bundle_da_general(instance, REPRODUCER_ROLS,
                                  tiebreak=["i1", "i2", "i3", "i4", "i5"])
    assert check_bundle_stability(nu, REPRODUCER_ROLS).stable


def test_general_engine_is_stable_on_the_spanning_battery():
    rng = np.random.default_rng(7)
    markets = [random_spanning_market(rng) for _ in range(2000)]
    markets.append((build(REPRODUCER_RAW), REPRODUCER_ROLS))
    unstable = []
    for k, (instance, rols) in enumerate(markets):
        nu, _ = run_bundle_da_general(instance, rols)
        if stability_oracle.stability_violations(
                *to_ref(instance, rols), school_sets(instance, nu.as_dict())):
            unstable.append(k)
    assert unstable == []


def test_general_engine_equals_the_simple_engine_on_simple_markets():
    rng = np.random.default_rng(12345)
    differ = []
    for k in range(20000):
        instance, rols = random_simple_market(rng)
        if (run_bundle_da_general(instance, rols)[0]
                != run_bundle_da_simple(instance, rols)[0]):
            differ.append(k)
    assert differ == []


def _oracle_clearing(instance):
    """`run_bundle_da` on `manipulation_oracle`'s plain ROLs and matchings."""
    ids = {bundle.schools: bundle.id for bundle in instance.bundles.values()}

    def clear(report):
        rols = {i: [ids[entry] for entry in entries] for i, entries in report.items()}
        return school_sets(instance, run_bundle_da(instance, rols)[0].as_dict())

    return clear


def test_no_student_gains_by_any_short_list():
    """Every list of up to `rol_length` menu entries, not only reorderings
    of the student's own list."""
    rng = np.random.default_rng(7)
    gains = []
    for k in range(300):
        instance, rols = random_spanning_market(rng)
        _, bundles, listed = to_ref(instance, rols)
        gains += [(k, *gain) for gain in profitable_misreports(
            bundles, listed, instance.rol_length, _oracle_clearing(instance))]
    assert gains == []


def test_rounds_store_decisions_and_derive_snapshots(walkthrough, walkthrough_rols,
                                                     nested, nested_rols):
    """A round keeps only its new applications and its rejected students;
    every read of a view builds it afresh, so mutating one changes neither
    a later read nor the matching.  The trace's events are the decisions
    with their round numbers, and carry no seat snapshot."""
    for rols, (nu, trace) in (
            (walkthrough_rols, run_bundle_da_simple(walkthrough, walkthrough_rols)),
            (nested_rols, run_bundle_da_general(nested, nested_rols))):
        matching = nu.as_dict()
        for before, rnd in zip(trace.rounds, trace.rounds[1:]):
            left = {i for i in before.rejected
                    if rols[i].index(before.applications[i]) + 1 < len(rols[i])}
            assert set(rnd.proposals) == left
            assert rnd.losers == set(rnd.rejected)
            assert not hasattr(rnd, "__dict__")
        for rnd in trace.rounds:
            assert all(len(decision) == 3 and not any(
                isinstance(part, dict) for part in decision)
                for decision in rnd.decisions)
            views = rnd.applications, rnd.admitted
            for view in views:
                view.clear()
            assert (rnd.applications, rnd.admitted) != views
        assert trace.final and nu.as_dict() == matching
        assert trace.final == {i: b for i, b in matching.items() if b}
        flat = [(rnd.number, *decision)
                for rnd in trace.rounds for decision in rnd.decisions]
        assert list(trace.events()) == flat
        assert not any(isinstance(part, dict)
                       for event in trace.events() for part in event)


def _views(instance, rnd):
    return [list(rnd.applications.items()), list(rnd.admitted.items()),
            rnd.rejected, rnd.decisions, events(instance, rnd.decisions)]


def _differences(instance, result, reference):
    """Where an engine's run differs from the reference run, if anywhere."""
    (nu, trace), (expected, rounds) = result, reference
    if nu.as_dict() != expected:
        return ["matching"]
    if len(trace.rounds) != len(rounds):
        return ["round count"]
    return [rnd.number for rnd, ref in zip(trace.rounds, rounds)
            if _views(instance, rnd) != _views(instance, ref)]


def _reference_battery():
    spanning_rng = np.random.default_rng(7)
    simple_rng = np.random.default_rng(12345)
    for _ in range(2000):
        instance, rols = random_spanning_market(spanning_rng)
        yield instance, rols, [None, instance.students[::-1]]
    for _ in range(2000):
        instance, rols = random_simple_market(simple_rng)
        yield instance, rols, [None, instance.students[::-1]]
    rng = np.random.default_rng(14)
    for n, quota, tier in ((800, 25, 40), (3200, 100, 160)):
        instance, rols = spanning_market(rng, n, [4] * 8, quota, tier, 3)
        yield instance, rols, [[instance.students[k] for k in rng.permutation(n)]]


def test_engines_equal_the_reference_round_by_round():
    """Matching, round count, and every round's applications, holdings,
    rejections, decisions and events, orders included, for all three
    engines."""
    differ = []
    for k, (instance, rols, tiebreaks) in enumerate(_reference_battery()):
        for tiebreak in tiebreaks:
            differ += [(k, "general", tiebreak is None, at) for at in _differences(
                instance, run_bundle_da_general(instance, rols, tiebreak),
                reference_bundle_da(instance, rols, tiebreak))]
        if detect_simplicity(instance).simple:
            differ += [(k, "simple", at) for at in _differences(
                instance, run_bundle_da_simple(instance, rols),
                reference_bundle_da(instance, rols))]
        trivial = {i: [b for b in rol if instance.bundles[b].trivial]
                   for i, rol in rols.items()}
        differ += [(k, "standard", at) for at in _differences(
            instance, run_standard_da(instance, trivial),
            reference_standard_da(instance, trivial))]
    assert differ == []


def test_each_application_is_keyed_and_placed_once(monkeypatch):
    """A round places only its new applications into the seats held so far:
    re-placing or re-keying a holder in a later round fails here."""
    keyed, placed = Counter(), Counter()
    make_key, place = engines._application_key, engines._Seats.place

    def counting_key(instance, tiebreak):
        key = make_key(instance, tiebreak)

        def counted(i, b):
            keyed[i, b] += 1
            return key(i, b)

        return counted

    def counting_place(seats, i, b):
        placed[i, b] += 1
        return place(seats, i, b)

    monkeypatch.setattr(engines, "_application_key", counting_key)
    monkeypatch.setattr(engines._Seats, "place", counting_place)
    instance, rols = spanning_market(np.random.default_rng(2026), 800,
                                     [4] * 8, 25, 40, 3)
    _, trace = run_bundle_da_general(instance, rols)
    made = Counter((i, b) for rnd in trace.rounds for i, b in rnd.proposals.items())
    assert len(trace.rounds) > 2
    assert set(made.values()) == set(keyed.values()) == set(placed.values()) == {1}
    assert keyed.keys() == placed.keys() == made.keys()


# Full engine outputs on a fixed battery: the general engine's digested when
# it came to clear over a fixed order of applications, the simple engine's at
# the last commit before the engines shared one round loop, standard DA's
# before that.  A speed-up or refactor of any engine must leave every round
# exactly as it was.
def _plain(value):
    """Dicts as item lists, so the digest sees insertion order too."""
    if isinstance(value, dict):
        return [[k, _plain(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _output(instance, result):
    matching, trace = result
    return [trace.engine, _plain(matching.as_dict()), [
        [rnd.number, _plain(rnd.applications), _plain(rnd.admitted),
         _plain(rnd.rejected), _plain(events(instance, rnd.decisions))]
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
                    instance, run_bundle_da_general(instance, rols, tiebreak)))
            trivial = {i: [b for b in rol if instance.bundles[b].trivial]
                       for i, rol in rols.items()}
            standard.append(_output(instance, run_standard_da(instance, trivial)))
            if detect_simplicity(instance).simple:
                simple.append(_output(instance, run_bundle_da_simple(instance, rols)))
        digests[name] = tuple(map(content_digest, (general, standard, simple)))
    return digests


FROZEN_DIGESTS = {
    "fixtures": (
        "f4de38d02b4c7afdeb9030055b4fce18c952e363c16b34280711c988d521b5ed",
        "8d69a3aef1613b89ed3e444534e46428f951cb4c475c8586477ff97c028e8587",
        "47649aa766872abf1273320573bde490428b7a43f323e9a22e19b0ed1b4ee96e",
    ),
    "reproducer": (
        "7b13c3920de2996b10583e50fddd693c248f696b048f56b59abd4035059e5ebb",
        "ef8ade1ed14b342e46875b6c2b49c8d3fa208fe5fe73ff46fe3a0356d4002f71",
        "dc3aaa043f5fc413641b9111d5b0ae057c2c612a0fba3ba1a4599d1541b40275",
    ),
    "spanning": (
        "9123af65db2ec05eae631eec837d4620d66f26bcca2bbb24c2b67c19d1f96f9b",
        "d78af83ed08c2a89951caa3216097d1559a795d9a278696b604953af36b6985d",
        "dfdc62957782035e940894d10a2c03dbf2cbc030391ffa5a64b13ee3506d8506",
    ),
    "simple": (
        "f0941b0fab913742e078590a93f68eeddb2dfdd77b8f9be2ce68561111367afa",
        "6bce06bbfcc062e1bf8bf8db1c7847fc4f38f8c1b3dcf4a4729b1404771a97c7",
        "939fc09d42cfc1fef17f35b7fa030dd592f37c227680fc6c660df3a60583d5e9",
    ),
    "mid": (
        "8aff64eb57b82961c0ac9c4968330f8b3d560adbb0333b995d084562ea384dec",
        "5d5008ad5a2fee9cd357a71d58cae37d9b74224d0bb42afa4683431fa163a3ed",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ),
}


def test_engine_outputs_are_frozen():
    assert _frozen_digests() == FROZEN_DIGESTS
