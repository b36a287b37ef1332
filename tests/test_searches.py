"""Exhaustive searches: the oracles and the seat enumerator.

The package's searches are compared with the recursive closures they
replaced, kept in `search_reference`, on seeded batteries and the fixtures:
the same verdicts, witnesses and seat assignments, in fewer nodes wherever a
size-maximality search can stop early, and in none where no augmenting path
exists.  One test checks that no library entry point leaves cyclic garbage
for the collector, and another that the searches run as deep as a market
has students, through the library and the CLI.
"""

import gc
import json

import numpy as np
import pytest
import search_reference as ref
from conftest import build, load_json
from random_markets import (
    _supbundle_cases,
    generate,
    random_spanning_market,
    spanning_market,
)

from bundlechoice import (
    BundleMatching,
    ImplementationPolicy,
    OracleBoundExceeded,
    check_bundle_stability,
    check_standard_stability,
    detect_simplicity,
    enumerate_implementations,
    find_stable_pareto_improvement,
    implement,
    implements,
    oracle_pareto_undominated_size_maximal,
    oracle_size_maximal,
    property_supbundle_monotone,
    property_truthtelling,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    run_cli,
    run_standard_da,
)
from bundlechoice import audit

FIXTURE_MARKETS = (
    ("two_hierarchy_market.json", "two_hierarchy_market_rols.json"),
    ("nested_bundle_market.json", "nested_bundle_market_rols.json"),
    ("five_student_market.json", "five_student_market_rols.json"),
    ("three_student_overdemand.json", "three_student_overdemand_baseline_rols.json"),
    ("three_student_overdemand.json", "three_student_overdemand_deviation_rols.json"),
)


def _unseated(rng, nu):
    """nu with each matched student unseated with probability one half."""
    return BundleMatching(nu.instance, {
        i: None if rng.random() < 0.5 else bid for i, bid in nu.as_dict().items()
    })


def _moved(rng, nu):
    """nu with each student, with probability one half, moved to a random
    bundle on her menu that has a seat left, listed or not, or unseated."""
    instance = nu.instance
    chains = instance.tree.chain
    assignment = nu.as_dict()
    for i in instance.students:
        if rng.random() < 0.5:
            assignment[i] = None
            held = BundleMatching(instance, assignment)
            open_ = [b for b in instance.menu(i)
                     if all(held.occupancy(a) < instance.bundle_quota(a)
                            for a in chains[b])]
            pool = [*open_, None]
            assignment[i] = pool[int(rng.integers(len(pool)))]
    return BundleMatching(instance, assignment)


@pytest.fixture(scope="module")
def cases():
    """(bundle-matching, ROLs) pairs: per market the engine outcome, the
    outcome with random students unseated, the outcome with random students
    moved (often to a bundle their ROL does not list) and everyone
    unmatched, over 300 random simple markets, 100 random spanning markets
    and the fixtures, plus the two five-student matchings the fixtures pin."""
    rng = np.random.default_rng(1717)
    markets = generate(300, 1717)
    markets += [random_spanning_market(rng) for _ in range(100)]
    markets += [(build(load_json(doc)), load_json(rols)["rols"])
                for doc, rols in FIXTURE_MARKETS]
    pairs = []
    for instance, rols in markets:
        nu, _ = run_bundle_da(instance, rols)
        empty = BundleMatching(instance, dict.fromkeys(instance.students))
        pairs += [(nu, rols), (_unseated(rng, nu), rols), (_moved(rng, nu), rols),
                  (empty, rols)]
    swap = build(load_json("five_student_market.json"))
    swap_rols = load_json("five_student_market_rols.json")["rols"]
    for doc in ("five_student_matching.json", "five_student_swapped_matching.json"):
        pairs.append((BundleMatching(swap, load_json(doc)["matching"]), swap_rols))
    return pairs


@pytest.fixture
def package_nodes(monkeypatch):
    """The level of every node the package's assignment searches visit."""
    nodes = []
    descend = audit._descend

    def counted(levels, idx, *state):
        nodes.append(idx)
        return descend(levels, idx, *state)

    monkeypatch.setattr(audit, "_descend", counted)
    return nodes


def _as_dict(matching):
    return None if matching is None else matching.as_dict()


def test_searches_equal_the_recursive_references(cases):
    found = {"size": 0, "pusm": 0, "improvement": 0, "truncated": 0}
    for nu, rols in cases:
        size = oracle_size_maximal(nu, rols)
        pusm = oracle_pareto_undominated_size_maximal(nu, rols)
        better = find_stable_pareto_improvement(nu, rols)
        assert size == ref.oracle_size_maximal(nu, rols)
        assert pusm == ref.oracle_pareto_undominated_size_maximal(nu, rols)
        assert _as_dict(better) == _as_dict(ref.find_stable_pareto_improvement(nu, rols))
        for cap in (10000, 1, 2, 3):
            matchings, truncated = enumerate_implementations(nu, cap)
            expected, expected_truncated = ref.enumerate_implementations(nu, cap)
            assert (matchings, truncated) == (expected, expected_truncated)
            found["truncated"] += truncated
        found["size"] += not size[0]
        found["pusm"] += not pusm[0]
        found["improvement"] += better is not None
    assert found["size"] >= 400 and found["pusm"] >= 300
    assert found["improvement"] >= 100 and found["truncated"] >= 300


def test_size_searches_visit_no_more_nodes_than_the_references(cases,
                                                               package_nodes):
    """Each search visits at most the reference's nodes, and strictly fewer
    over the battery: the size-maximality searches stop early, and every
    search is skipped when no augmenting path exists.  The improvement
    search cannot stop early, so when it runs it visits the same nodes."""
    oracles = (
        (oracle_size_maximal, ref.oracle_size_maximal),
        (oracle_pareto_undominated_size_maximal,
         ref.oracle_pareto_undominated_size_maximal),
        (find_stable_pareto_improvement, ref.find_stable_pareto_improvement),
    )
    totals = [[0, 0] for _ in oracles]
    for nu, rols in cases:
        for total, (oracle, reference) in zip(totals, oracles):
            del package_nodes[:]
            expected = []
            oracle(nu, rols)
            reference(nu, rols, nodes=expected)
            if oracle is find_stable_pareto_improvement:
                assert package_nodes in ([], expected)
            else:
                assert len(package_nodes) <= len(expected)
            total[0] += len(package_nodes)
            total[1] += len(expected)
    for pruned, full in totals:
        assert pruned < full


@pytest.mark.parametrize("oracle", (
    oracle_size_maximal,
    oracle_pareto_undominated_size_maximal,
    find_stable_pareto_improvement,
))
def test_oracles_refuse_above_the_bound_before_any_search(oracle, package_nodes):
    instance = build(load_json("two_hierarchy_market.json"))
    rols = load_json("two_hierarchy_market_rols.json")["rols"]
    empty = BundleMatching(instance, dict.fromkeys(instance.students))
    with pytest.raises(OracleBoundExceeded):
        oracle(empty, rols, bound=1)
    assert package_nodes == []


def _stage_rankings(nu):
    """Every bundle admit ranks her bundle's schools in reverse canonical
    order."""
    instance = nu.instance
    return {
        i: sorted(instance.bundles[bid].schools, reverse=True)
        for i, bid in nu.as_dict().items()
        if bid is not None and not instance.bundles[bid].trivial
    }


def _entry_points(instance, rols):
    """(name, call) for every library entry point on one market."""
    nu, _ = run_bundle_da(instance, rols)
    mu = implement(nu, ImplementationPolicy("det"))
    trivial = {i: [b for b in rol if instance.bundles[b].trivial]
               for i, rol in rols.items()}
    listing = [i for i in instance.students if len(rols[i]) >= 2]
    calls = [
        ("run_bundle_da_general", lambda: run_bundle_da_general(instance, rols)),
        ("run_standard_da", lambda: run_standard_da(instance, trivial)),
        ("check_bundle_stability", lambda: check_bundle_stability(nu, rols)),
        ("check_standard_stability", lambda: check_standard_stability(mu, rols)),
        ("oracle_size_maximal", lambda: oracle_size_maximal(nu, rols)),
        ("oracle_pareto_undominated_size_maximal",
         lambda: oracle_pareto_undominated_size_maximal(nu, rols)),
        ("find_stable_pareto_improvement",
         lambda: find_stable_pareto_improvement(nu, rols)),
        ("enumerate_implementations", lambda: enumerate_implementations(nu)),
        ("implement det", lambda: implement(nu, ImplementationPolicy("det"))),
        ("implement random",
         lambda: implement(nu, ImplementationPolicy("random", seed=7))),
        ("implement prefs", lambda: implement(
            nu, ImplementationPolicy("prefs", preferences=_stage_rankings(nu)))),
    ]
    if detect_simplicity(instance).simple:
        calls.append(("run_bundle_da_simple",
                      lambda: run_bundle_da_simple(instance, rols)))
    if listing:
        calls.append(("property_truthtelling",
                      lambda: property_truthtelling(instance, rols, listing[0])))
    for i, b, sup in _supbundle_cases(instance, rols)[:1]:
        calls.append(("property_supbundle_monotone",
                      lambda: property_supbundle_monotone(instance, rols, i, b, sup)))
    return calls


def test_entry_points_leave_no_cyclic_garbage():
    """With the collector off during a call, collecting afterwards finds
    nothing: everything a call built is freed by reference counting.  What
    exists before the calls is frozen, so each collection reads only what
    the calls left."""
    rng = np.random.default_rng(4040)
    markets = generate(40, 4040)
    markets += [random_spanning_market(rng) for _ in range(40)]
    calls = [call for instance, rols in markets
             for call in _entry_points(instance, rols)]
    garbage = {}
    gc.collect()
    gc.freeze()
    try:
        for name, call in calls:
            gc.disable()
            try:
                call()
            finally:
                gc.enable()
                garbage[name] = garbage.get(name, 0) + gc.collect()
    finally:
        gc.unfreeze()
    assert len(garbage) == 14
    assert garbage == dict.fromkeys(garbage, 0)


def _non_ir(nu, rols):
    return any(nu[i] is not None and nu[i] not in rols.get(i, ())
               for i in nu.instance.students)


def test_oracles_search_only_where_an_augmenting_path_exists(cases,
                                                             package_nodes):
    """Both size oracles search exactly when their verdict fails.  The
    improvement search runs whenever it finds an improvement, and is skipped
    on most verdicts of none; a matching with a seat its holder does not list
    is always searched.  Verdicts and witnesses are compared with the
    references by `test_searches_equal_the_recursive_references`."""
    searchless = {"size": 0, "pusm": 0, "improvement": 0}
    searched_none = non_ir = 0
    for nu, rols in cases:
        for name, oracle in (("size", oracle_size_maximal),
                             ("pusm", oracle_pareto_undominated_size_maximal)):
            del package_nodes[:]
            holds, _ = oracle(nu, rols)
            assert bool(package_nodes) is not holds
            searchless[name] += holds
        del package_nodes[:]
        better = find_stable_pareto_improvement(nu, rols)
        if better is not None or _non_ir(nu, rols):
            assert package_nodes
        searchless["improvement"] += not package_nodes
        searched_none += better is None and bool(package_nodes)
        non_ir += _non_ir(nu, rols)
    assert searchless["size"] >= 500 and searchless["pusm"] >= 550
    assert searchless["improvement"] >= 500 and searched_none >= 10
    assert non_ir >= 200


def test_pusm_is_decided_on_800_students_where_size_max_needs_a_search():
    """On two 800-student grouped outcomes no student left out has an
    augmenting path that keeps every seated one weakly as well off, so
    Pareto-undominated size-maximality holds without a search.  A larger
    seating does exist, so the size-maximality verdict needs its witness,
    whose search still exceeds the bound."""
    rng = np.random.default_rng(6262)
    for _ in range(2):
        instance, rols = spanning_market(rng, 800, [4] * 8, 25, 40, 3)
        tiebreak = [instance.students[k] for k in rng.permutation(800)]
        nu, _ = run_bundle_da(instance, rols, tiebreak)
        assert oracle_pareto_undominated_size_maximal(nu, rols) == (True, None)
        with pytest.raises(OracleBoundExceeded):
            oracle_size_maximal(nu, rols)


def _deep_markets():
    """Two valid 1,200-student markets whose searches are 1,200 levels deep,
    as (instance document, ROLs, bundle-matching assignment).  In the first,
    three one-seat schools share one priority, only i0 lists anything (A)
    and nobody is matched.  In the second, every student lists and holds
    bundle AB, whose schools A and B have 600 seats each."""
    students = [f"i{k}" for k in range(1200)]

    def school(sid, quota):
        return {"id": sid, "quota": quota, "priority": students}

    lone = {"students": students, "rol_length": 1,
            "schools": [school("A", 1), school("B", 1), school("C", 1)]}
    paired = {"students": students, "rol_length": 1,
              "schools": [school("A", 600), school("B", 600), school("C", 1)],
              "bundles": [{"id": "AB", "schools": ["A", "B"]}]}
    return [
        (lone, {"i0": ["A"]}, {}),
        (paired, dict.fromkeys(students, ["AB"]), dict.fromkeys(students, "AB")),
    ]


def test_searches_run_as_deep_as_the_market_has_students():
    """The size oracles find their witness, the improvement search its
    improvement, and the seat enumeration stops at its cap, each below
    1,200 levels of the market's students."""
    (lone, lone_rols, _), (paired, paired_rols, paired_nu) = _deep_markets()
    instance = build(lone)
    empty = BundleMatching(instance, {})
    seated = dict.fromkeys(instance.students)
    seated["i0"] = "A"
    for oracle in (oracle_size_maximal, oracle_pareto_undominated_size_maximal):
        assert oracle(empty, lone_rols) == (False, seated)
    assert find_stable_pareto_improvement(empty, lone_rols).as_dict() == seated

    nu = BundleMatching(build(paired), paired_nu)
    matchings, truncated = enumerate_implementations(nu, cap=3)
    assert truncated and len(matchings) == 3
    assert matchings[0] == implement(nu, ImplementationPolicy("det"))
    assert len({tuple(mu.as_dict().items()) for mu in matchings}) == 3
    assert all(implements(mu, nu) for mu in matchings)


@pytest.mark.parametrize("market", (0, 1))
@pytest.mark.parametrize("command", (["oracle", "size-max"], ["oracle", "pusm"],
                                     ["improve"]))
def test_cli_searches_run_as_deep_as_the_market_has_students(
        market, command, tmp_path, capsys):
    """Each search command exits 0 on both markets, with nothing on stderr."""
    doc, rols, assignment = _deep_markets()[market]
    files = []
    for name, content in (("instance", doc), ("rols", {"rols": rols}),
                          ("matching", {"matching": assignment})):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(content))
    code = run_cli([*command, *map(str, files)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    result = json.loads(out)
    holds = result["holds"] if command[0] == "oracle" else not result["found"]
    assert holds is (market == 1)  # only the first market's matching fails
