"""Tests for the verification battery.

The battery's own checks are the heavyweight assertions; the tests here
pin the hypothesis-minimal orders, run each check on the instances whose
outcomes are known in closed form, exercise the hypothesis guards and
error paths, confirm counterexample revalidation works from
serialization alone, and verify the explorer is deterministic per seed.
The quick battery's records are pinned to a recorded run, and every
check's fail path is forced once to show its counterexample re-checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from factor_spectra import criticality, factors, harness
from factor_spectra.criticality import FactorParams, certificate_at, is_rk_critical
from factor_spectra.families import ExtremalParams, enumerate_family, extremal_graph
from factor_spectra.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from factor_spectra.harness import (
    _CHECK_FUNCTIONS,
    _COUNTEREXAMPLES,
    CheckResult,
    battery_plan,
    bracket_min_n,
    check_edge_count_sharpness,
    check_edge_rotation,
    check_family_maximality,
    check_family_radius_bracket,
    check_hong_bound,
    check_perron_system,
    check_sharpness,
    check_subgraph_monotonicity,
    cross_validate_deciders,
    explore_conjecture,
    maximality_min_n,
    perron_ratio_cubic,
    revalidate_counterexample,
    run_check,
    serialize_graph,
    size_min_n,
    spectral_min_n,
)
from factor_spectra.spectral import spectral_radius


# -- hypothesis-minimal orders -------------------------------------------------


def test_minimal_orders_frozen_values():
    # (4a + 2b + ab + (b+2)k)/2 + 1, rounded up
    assert bracket_min_n(1, 2, 0) == 6
    assert bracket_min_n(2, 3, 0) == 11
    assert bracket_min_n(2, 3, 1) == 14
    assert maximality_min_n(3, 3, 0) == 16
    assert maximality_min_n(4, 4, 1) == 25
    # 4a + 5b/2 + 4k + 7, rounded up
    assert size_min_n(1, 2, 0) == 16
    assert size_min_n(1, 3, 0) == 19
    assert size_min_n(3, 4, 2) == 37
    # 2(b + a + k + 2)(b + k + 2)
    assert spectral_min_n(1, 2, 0) == 40
    assert spectral_min_n(2, 3, 1) == 96
    # at a = b = r: 2(2r + k + 2)(r + k + 2)
    assert spectral_min_n(2, 2, 0) == 48
    assert spectral_min_n(2, 2, 1) == 70


def test_minimal_orders_satisfy_their_bounds():
    for a in range(1, 4):
        for b in range(a, 5):
            for k in range(3):
                n = bracket_min_n(a, b, k)
                assert n >= (4 * a + 2 * b + a * b + (b + 2) * k) / 2 + 1
                assert n - 1 < (4 * a + 2 * b + a * b + (b + 2) * k) / 2 + 1
                m = size_min_n(a, b, k)
                assert m >= 4 * a + 2.5 * b + 4 * k + 7
                assert m - 1 < 4 * a + 2.5 * b + 4 * k + 7


# -- radius bracket ------------------------------------------------------------


def test_bracket_small_instances():
    r = check_family_radius_bracket(1, 2, 0, 10)
    assert r.status == "pass"
    assert 6.0 < r.metrics["lambda_min"] <= r.metrics["lambda_max"] < 7.0

    r = check_family_radius_bracket(2, 3, 1, 14)
    assert r.status == "pass"
    assert 9.0 < r.metrics["lambda_min"] <= r.metrics["lambda_max"] < 10.0


def test_bracket_hypothesis_guard():
    r = check_family_radius_bracket(2, 3, 1, 13)
    assert r.status == "hypothesis_not_met"
    assert r.metrics["min_n"] == 14
    with pytest.raises(ValueError):
        check_family_radius_bracket(2, 1, 0, 20)


def test_bracket_checks_every_class_representative():
    # a=3: the 2 bridge edges split as {2} or {1,1}; both members checked
    r = check_family_radius_bracket(3, 3, 0, 16)
    assert r.status == "pass"
    assert r.metrics["members_checked"] == 2


def test_family_checks_share_the_class_cap():
    # both family checks refuse a > 5 at once, below and above the order bound
    for check in (check_family_radius_bracket, check_family_maximality):
        for n in (10, 60):
            with pytest.raises(ValueError, match="a <= 5"):
                check(6, 6, 0, n)


# -- family maximality -----------------------------------------------------------


def test_maximality_two_class_instance():
    r = check_family_maximality(3, 3, 0, 16)
    assert r.status == "pass"
    assert r.metrics["classes"] == 2
    assert r.metrics["lambda_distinguished"] > r.metrics["lambda_best_rival"] + 1e-9


def test_maximality_three_class_instance():
    # bridge-degree splits of 3: {3}, {2,1}, {1,1,1}
    r = check_family_maximality(4, 4, 1, 25)
    assert r.status == "pass"
    assert r.metrics["classes"] == 3


def test_maximality_single_class_is_trivial():
    r = check_family_maximality(1, 2, 0, 8)
    assert r.status == "pass"
    assert r.metrics["classes"] == 1
    assert "trivially" in r.notes


def test_maximality_guards():
    assert check_family_maximality(4, 4, 1, 20).status == "hypothesis_not_met"
    with pytest.raises(ValueError):
        check_family_maximality(6, 6, 0, 40)


# -- edge-count sharpness ---------------------------------------------------------


def test_edge_sharpness_decider_route():
    r = check_edge_count_sharpness(1, 2, 0, 16)
    assert r.status == "pass"
    assert r.metrics["edge_count"] == r.metrics["threshold"] - 1
    assert r.metrics["deficiency"] == 1
    assert "subset-sweep" in r.notes


def test_edge_sharpness_fixed_route():
    r = check_edge_count_sharpness(2, 3, 1, 30)
    assert r.status == "pass"
    assert r.metrics["deficiency"] == 1
    assert "fixed-certificate" in r.notes


def test_edge_sharpness_sweeps_up_to_the_decider_cap():
    # the decider accepts n = 19, so the check sweeps rather than assume the block
    r = check_edge_count_sharpness(1, 3, 0, 19)
    assert r.status == "pass"
    assert r.metrics["deficiency"] == 1
    assert "subset-sweep" in r.notes


def test_edge_sharpness_checks_hypothesis_shape(monkeypatch):
    monkeypatch.setattr(
        "factor_spectra.harness.extremal_graph", lambda fp: complete_graph(fp.n)
    )
    r = check_edge_count_sharpness(1, 2, 0, 16)
    assert r.status == "fail"
    assert r.counterexample["kind"] == "hypothesis-shape-mismatch"
    assert revalidate_counterexample(r.counterexample)


def test_edge_sharpness_guards():
    assert check_edge_count_sharpness(1, 2, 0, 15).status == "hypothesis_not_met"
    with pytest.raises(ValueError):
        check_edge_count_sharpness(2, 2, 0, 30)


# -- Perron system ----------------------------------------------------------------


def test_perron_system_instances():
    for a, b, k, n in [(2, 3, 0, 12), (2, 3, 1, 14), (3, 4, 1, 20)]:
        r = check_perron_system(a, b, k, n)
        assert r.status == "pass"
        for key in ("residual_t1", "residual_t2", "residual_w1", "residual_wa"):
            assert r.metrics[key] < 1e-7
        assert r.metrics["ratio_relative_error"] < 1e-6
        assert r.metrics["cubic_value"] > 0.0


def test_perron_ratio_matches_entry_ratio():
    a, b, k, n = 2, 3, 0, 12
    fp = ExtremalParams(a, b, k, n)
    rep = spectral_radius(extremal_graph(fp))
    lam0 = rep.lam
    lhs = rep.perron[fp.t1] / rep.perron[fp.t1 + 1]
    g_val = perron_ratio_cubic(a, b, k, n, lam0)
    rhs = lam0 * (lam0 + 1) * (lam0 - (n - 2 * a - b - k - 1)) / g_val
    assert abs(lhs - rhs) / rhs < 1e-8


def test_perron_system_guards():
    with pytest.raises(ValueError):
        check_perron_system(1, 2, 0, 12)
    assert check_perron_system(2, 3, 0, 10).status == "hypothesis_not_met"


# -- decider cross-validation --------------------------------------------------------


def test_cross_validation_small_corpus():
    r = cross_validate_deciders(
        4,
        [("integral", 1, 2, 0), ("fractional", 1, 1, 0), ("parity", 2, 0)],
    )
    assert r.status == "pass"
    assert r.counterexample is None
    # n=1..4 connected labeled graphs: 1 + 1 + 4 + 38
    assert r.metrics["graphs"] == 44
    assert r.metrics["compared_parity"] > 0


def test_cross_validation_guards():
    # an item that no graph with n <= n_max is large enough for
    r = cross_validate_deciders(2, [("integral", 2, 3, 0)])
    assert r.status == "hypothesis_not_met"
    assert r.metrics == {"min_n": 3}
    assert r.counterexample is None
    r = cross_validate_deciders(3, [("integral", 1, 2, 0), ("parity", 2, 1)])
    assert r.status == "hypothesis_not_met"
    assert r.metrics == {"min_n": 4}
    with pytest.raises(ValueError):
        cross_validate_deciders(8, [("integral", 1, 2, 0)])
    with pytest.raises(ValueError):
        cross_validate_deciders(4, [])
    with pytest.raises(ValueError):
        cross_validate_deciders(4, [("integral", 2, 2, 0)])
    with pytest.raises(ValueError):
        cross_validate_deciders(4, [("parity", 1, 0)])
    with pytest.raises(ValueError):
        cross_validate_deciders(4, [("oracle", 1, 2, 0)])


# one k >= 1 grid item per factor oracle, so each oracle serves one item
MEMO_GRID = [("fractional", 2, 2, 1), ("parity", 2, 1)]


def _oracle_inputs(monkeypatch) -> dict[str, list]:
    inputs: dict[str, list] = {}
    for name in ("find_fractional_factor", "find_ab_factor"):
        _count_calls(monkeypatch, criticality, name, inputs.setdefault(name, []))
    return inputs


def test_cross_validation_asks_each_deleted_subgraph_once(monkeypatch):
    # at k >= 1 many (G, K) leave the same labelled G - K; within one pass
    # an oracle sees each of them once
    inputs = _oracle_inputs(monkeypatch)
    assert cross_validate_deciders(5, MEMO_GRID).status == "pass"
    for name, seen in inputs.items():
        rows = [g.adj for g in seen]
        assert len(rows) > 50, name
        assert len(set(rows)) == len(rows), name


def test_cross_validation_memo_lasts_one_pass(monkeypatch):
    # the memo is dropped when a pass returns, so a second pass asks again
    inputs = _oracle_inputs(monkeypatch)
    first = cross_validate_deciders(5, MEMO_GRID)
    counts = {name: len(seen) for name, seen in inputs.items()}
    second = cross_validate_deciders(5, MEMO_GRID)
    assert first.to_json() == second.to_json()
    assert {name: len(seen) - counts[name] for name, seen in inputs.items()} == counts


def test_cross_validation_at_k0_asks_once_per_graph(monkeypatch):
    # at k = 0, G - K is G: one oracle call per compared graph, none kept
    inputs = _oracle_inputs(monkeypatch)
    r = cross_validate_deciders(5, [("integral", 1, 2, 0)])
    assert r.status == "pass"
    assert len(inputs["find_ab_factor"]) == r.metrics["compared_integral"] == 771
    assert not inputs["find_fractional_factor"]


# -- degree-based bound -----------------------------------------------------------


def test_hong_exhaustive_through_n4():
    r = check_hong_bound(4)
    assert r.status == "pass"
    # labeled connected graphs: 1 + 4 + 38
    assert r.metrics["graphs"] == 43
    # equality holds exactly on K_2; P_3 (x3) and K_3; K_4, C_4 (x3),
    # K_{1,3} (x4), and the diamond (x6): 1 + 4 + 14
    assert r.metrics["equality_cases"] == 19
    assert r.metrics["worst_overrun"] < 1e-8
    assert r.metrics["min_strict_slack"] > 1e-7


def test_hong_guards():
    with pytest.raises(ValueError):
        check_hong_bound(1)
    with pytest.raises(ValueError):
        check_hong_bound(8)
    # no curve comparison to make: never a vacuous pass
    with pytest.raises(ValueError):
        check_hong_bound(4, curve_points=0)
    with pytest.raises(ValueError):
        check_hong_bound(4, curve_points=1)


# -- spectral sharpness ------------------------------------------------------------


def test_sharpness_all_targets_at_minimal_order():
    # each route at a == b where it allows it, and at b > a
    cases = [
        (1, 2, 0, "integral"),
        (1, 2, 0, "fractional"),
        (2, 2, 0, "fractional"),
        (2, 3, 1, "integral"),
    ]
    for a, b, k, route in cases:
        r = check_sharpness(a, b, k, spectral_min_n(a, b, k), route)
        assert r.status == "pass", (route, r.notes)
        assert r.metrics["delta"] == a + k
        assert r.metrics["block_deficiency"] == 1


def test_sharpness_reports_lambda_past_n_200():
    r = check_sharpness(1, 2, 0, 201, "integral")
    assert r.status == "pass"
    assert 201 - 2 - 2 < r.metrics["lambda"] < 201 - 2 - 1
    assert r.notes.startswith("fixed-certificate route;")


def test_sharpness_has_no_size_target():
    # the size condition's sharpness is check_edge_count_sharpness alone
    with pytest.raises(ValueError, match="unknown route"):
        check_sharpness(1, 2, 0, 16, "size-integral")


def test_sharpness_guards():
    # route_params rejects every shape the route cannot decide
    assert check_sharpness(1, 2, 0, 39, "integral").status == "hypothesis_not_met"
    with pytest.raises(ValueError, match="unknown route"):
        check_sharpness(1, 2, 0, 40, "spectral-integral")
    with pytest.raises(ValueError, match="needs b > a"):
        check_sharpness(2, 2, 0, 48, "integral")
    with pytest.raises(ValueError, match="takes"):
        check_sharpness(2, 2, 0, 48, "parity")
    with pytest.raises(ValueError, match="need b >= a"):
        check_sharpness(3, 2, 0, 60, "fractional")


# -- property suites ---------------------------------------------------------------


def test_subgraph_monotonicity_suite():
    r = check_subgraph_monotonicity(40, seed=3)
    assert r.status == "pass"
    assert r.metrics["instances"] == 40
    assert r.metrics["min_drop"] > 1e-10


def test_edge_rotation_suite():
    r = check_edge_rotation(40, seed=4)
    assert r.status == "pass"
    assert r.metrics["instances"] == 40
    assert r.metrics["min_gain"] > 1e-10


def test_property_suites_deterministic():
    a = check_subgraph_monotonicity(15, seed=9).to_json()
    b = check_subgraph_monotonicity(15, seed=9).to_json()
    assert a == b
    c = check_edge_rotation(15, seed=9).to_json()
    d = check_edge_rotation(15, seed=9).to_json()
    assert c == d


# -- conjecture explorer --------------------------------------------------------------


def test_explorer_smoke_run():
    r = explore_conjecture(2, 0, 8, budget=150, seed=5)
    assert r.status == "pass"
    assert r.metrics["evaluations"] <= 150
    # phase B contains relabeled copies of the distinguished member, so
    # the isomorphism filter must have fired
    assert r.metrics["isomorphic_excluded"] >= 1
    assert "evidence, not proof" in r.notes


def test_explorer_deterministic_per_seed():
    a = explore_conjecture(2, 0, 8, budget=120, seed=42).to_json()
    b = explore_conjecture(2, 0, 8, budget=120, seed=42).to_json()
    assert a == b


# sha256 of the sorted-key JSON of explore_conjecture(2, 0, 12, 1500, seed),
# criterion 11's shape at the benchmark's budget
EXPLORER_DIGESTS = {
    0: "1f070e09a06475851ea7f78a8843521678f5b9f1eea6a26ef4954427785f8e6a",
    1: "82b5c3890a3ebbdc7510315d84d7be312c38d2768a6aa1f682d2641d3684f6d8",
    2: "4ce868441b29c1fff35f7cb0b7847f314793b099345cd79a632f5b7cd0e58d84",
    3: "5f260bd123b9952b39a3ca4a9f786c5f9f35db399012d254f295f20e5ea6d32a",
    4: "1f157f2735da93890b327195447b18736a8e89351b86ff764f45710064d6a361",
}


def _digest(result: CheckResult) -> str:
    return hashlib.sha256(json.dumps(result.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(EXPLORER_DIGESTS))
def test_explorer_output_pinned(seed):
    assert _digest(explore_conjecture(2, 0, 12, 1500, seed)) == EXPLORER_DIGESTS[seed]


def _count_calls(monkeypatch, module, name: str, calls: list, replacement=None):
    """Rebind module.name to a wrapper that appends each argument graph."""
    original = getattr(module, name)

    def counted(g, *args, **kwargs):
        calls.append(g)
        return (replacement or original)(g, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_explorer_decides_without_backtracking(monkeypatch):
    # criteria 06-08 compare is_rk_critical with critical_by_definition,
    # which finds its factors by backtracking, so the decider must not
    def refuse(*args):
        raise AssertionError("is_rk_critical reached the backtracking oracle")

    monkeypatch.setattr(criticality, "find_ab_factor", refuse)
    monkeypatch.setattr(factors, "find_ab_factor", refuse)
    assert _digest(explore_conjecture(2, 0, 12, 1500, 0)) == EXPLORER_DIGESTS[0]


def test_explorer_never_reuses_refutations(monkeypatch):
    # with the decider forced to refute, every screened graph is swept
    forced = is_rk_critical(complete_bipartite(1, 3), 2, 0)
    swept: list = []
    _count_calls(monkeypatch, harness, "is_rk_critical", swept, lambda *args: forced)
    monkeypatch.setattr(harness, "_candidate_fails", lambda *args: False)
    m = explore_conjecture(2, 0, 10, 300, 0).metrics
    screened = m["qualifying"] - m["isomorphic_excluded"]
    assert screened > 1
    assert len(swept) == screened == m["candidates"]
    assert m["critical_qualifying"] == 0


def test_explorer_budget_counts_solves_and_screens(monkeypatch):
    solves: list = []
    screens: list = []
    _count_calls(monkeypatch, harness, "spectral_radius", solves)
    _count_calls(monkeypatch, harness, "radius_unless_below", screens)
    m = explore_conjecture(2, 0, 12, 1500, 0).metrics
    assert m["candidates"] == 0
    assert m["evaluations"] == 1500
    # one more solve gives lambda_family
    assert m["evaluations"] == len(solves) - 1 + len(screens)
    assert m["phase_c_restarts"] > 0 and len(screens) > 0


def test_explorer_under_a_tracer_wrapper(monkeypatch):
    # bench/tracing.py rebinds spectral_radius in every package module
    # that holds it and reads `.iterations` from every return value
    iterations: list[int] = []
    original = harness.spectral_radius

    def traced(*args, **kwargs):
        report = original(*args, **kwargs)
        iterations.append(report.iterations)
        return report

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "spectral_radius", None) is original
        if name.split(".")[0] == "factor_spectra" and holds:
            monkeypatch.setattr(module, "spectral_radius", traced)
    r = explore_conjecture(2, 0, 10, 300, 0)
    assert r.status == "pass"
    assert iterations and min(iterations) >= 1


def test_explorer_candidates_revalidate():
    r = explore_conjecture(2, 1, 9, budget=250, seed=17)
    assert r.status == "pass"
    if r.counterexample is not None:
        assert revalidate_counterexample(r.counterexample)


def test_explorer_guards():
    with pytest.raises(ValueError):
        explore_conjecture(1, 0, 10, 100)
    with pytest.raises(ValueError):
        explore_conjecture(2, 0, 13, 100)
    with pytest.raises(ValueError):
        explore_conjecture(2, 0, 10, 0)


# -- counterexample revalidation -------------------------------------------------------


def _family_record(kind: str, a: int, b: int, k: int, n: int, g, **fields) -> dict:
    return {"kind": kind, "graph": serialize_graph(g), "a": a, "b": b, "k": k, "n": n, **fields}


def test_revalidate_interval_kind(monkeypatch):
    # F, the one class at (1, 2, 0, 6), lies inside (2, 3); a margin of 1
    # puts it outside, and then only a class representative reproduces
    n = bracket_min_n(1, 2, 0)
    rep = list(enumerate_family(ExtremalParams(1, 2, 0, n)))[-1]
    ce = _family_record("spectral-out-of-interval", 1, 2, 0, n, rep)
    assert not revalidate_counterexample(ce)
    monkeypatch.setattr(harness, "BRACKET_MARGIN", 1.0)
    assert revalidate_counterexample(ce)
    assert revalidate_counterexample({**ce, "graph": serialize_graph(complete_graph(n))}) is False
    # below the claim's order bound the check builds nothing to compare
    assert revalidate_counterexample({**ce, "n": n - 1}) is False


def test_revalidate_domination_kind(monkeypatch):
    n = maximality_min_n(3, 3, 0)
    f, rival = list(enumerate_family(ExtremalParams(3, 3, 0, n)))[:2]
    ce = _family_record("spectral-not-dominated", 3, 3, 0, n, f, rival=serialize_graph(rival))
    assert not revalidate_counterexample(ce)
    monkeypatch.setattr(harness, "STRICT_MARGIN", 1.0)
    assert revalidate_counterexample(ce)
    # the graph must be F and the rival another class representative
    assert revalidate_counterexample({**ce, "graph": ce["rival"]}) is False
    assert revalidate_counterexample({**ce, "rival": ce["graph"]}) is False


def test_revalidate_edge_count_kind(monkeypatch):
    n = size_min_n(1, 2, 0)
    f = extremal_graph(ExtremalParams(1, 2, 0, n))
    ce = _family_record("edge-count-mismatch", 1, 2, 0, n, f, route="integral")
    assert not revalidate_counterexample(ce)
    # a formula one off is a real mismatch, read from the rebuilt F
    monkeypatch.setattr(harness, "extremal_edge_count", lambda fp: f.edge_count + 1)
    assert revalidate_counterexample(ce)
    assert revalidate_counterexample({**ce, "graph": serialize_graph(complete_graph(n))}) is False


def test_revalidate_certificate_kind(monkeypatch):
    n = size_min_n(1, 2, 0)
    g = extremal_graph(ExtremalParams(1, 2, 0, n))
    ce = _family_record("certificate-mismatch", 1, 2, 0, n, g, route="integral", got=None)
    # the block {0} violates with deficiency exactly 1, as the claim says
    assert certificate_at(g, "integral", FactorParams(1, 2, 0), (0,)).deficiency == 1
    assert not revalidate_counterexample(ce)
    # a missing route is a missing field, which does not reproduce
    assert revalidate_counterexample({k: v for k, v in ce.items() if k != "route"}) is False
    # an ill-formed window or graph does not reproduce, and raises nothing
    assert revalidate_counterexample({**ce, "a": 0}) is False
    assert revalidate_counterexample({**ce, "graph": {"format": "graph6", "data": "I?"}}) is False
    assert revalidate_counterexample({**ce, "route": "parity"}) is False
    # a decider that finds no violating set is a real mismatch
    monkeypatch.setattr(harness, "_sharpness_certificate", lambda *args: None)
    assert revalidate_counterexample(ce)


def test_revalidate_decider_agreement_kinds():
    ce = {
        "kind": "decider-disagreement",
        "graph": serialize_graph(path_graph(4)),
        "item": ["integral", 1, 2, 0],
        "decider_critical": False,
        "definition_critical": True,
        "certificate": None,
    }
    # the routes agree on P_4, so the claimed disagreement does not reproduce
    assert not revalidate_counterexample(ce)


def test_revalidate_monotonicity_kind():
    ce = {
        "kind": "monotonicity-violation",
        "graph": serialize_graph(cycle_graph(5)),
        "removed": [],
    }
    # removing nothing leaves the radius equal, which does violate strictness
    assert revalidate_counterexample(ce)
    ce["removed"] = [[0, 1]]
    assert not revalidate_counterexample(ce)
    # a label outside the graph, an entry that is not an edge or one edge
    # listed twice never reproduces, and raises nothing
    for removed in (
        [[0, -1]], [[-1, 0]], [[0, 5]], [[0, 1], [5, 0]], [[0, 2]], [[0, 1], [0, 1]], [[0]],
        [[0.5, 1]], 3,
    ):
        ce["removed"] = removed
        assert revalidate_counterexample(ce) is False


def test_revalidate_rotation_kind():
    # moving edge 2-3 of C_5 to 0-3 with equal Perron entries raises the
    # radius, so a claimed violation must not reproduce
    ce = {
        "kind": "rotation-violation",
        "graph": serialize_graph(cycle_graph(5)),
        "u": 0,
        "v": 2,
        "moved": [3],
    }
    assert not revalidate_counterexample(ce)
    # ill-formed instance (moved vertex already adjacent to u) is rejected
    ce["moved"] = [1]
    assert not revalidate_counterexample(ce)
    # so is a label outside the graph or a moved vertex listed twice, without raising
    for u, v, moved in [
        (-1, 2, [3]), (5, 2, [3]), (0, -1, [3]), (0, 5, [3]), (0, 2, [-1]), (0, 2, [3, 3]),
        (0, 2, [0.5]), (0, 2, 3), (2, 2, [3]),
    ]:
        ce.update(u=u, v=v, moved=moved)
        assert revalidate_counterexample(ce) is False


def test_revalidate_explorer_kinds():
    g = complete_bipartite(1, 3)
    cert = is_rk_critical(g, 2, 0)
    assert cert is not None
    lam = spectral_radius(g).lam
    cand = {
        "graph": serialize_graph(g),
        "lambda": lam,
        "lambda_family": lam,
        "certificate": cert.to_json(),
    }
    good = {"kind": "explorer-candidates", "r": 2, "k": 0, "candidates": [cand]}
    assert revalidate_counterexample(good)
    bad_cand = dict(cand)
    bad_cand["lambda"] = lam + 1.0
    bad = {"kind": "explorer-candidates", "r": 2, "k": 0, "candidates": [bad_cand]}
    assert not revalidate_counterexample(bad)
    # the failure kind is the complement
    assert revalidate_counterexample(
        {"kind": "candidate-revalidation-failure", "r": 2, "k": 0, **bad_cand}
    )
    assert not revalidate_counterexample(
        {"kind": "candidate-revalidation-failure", "r": 2, "k": 0, **cand}
    )


@pytest.mark.parametrize("deficiency", [1.9, "1", True])
def test_explorer_candidate_with_non_int_deficiency_does_not_stand(deficiency):
    # K5 at (r, k) = (3, 0) has odd 3n, so X = Y = {} gives deficiency 1;
    # each tampered form converts to 1 and so rechecked under int()
    g = complete_graph(5)
    cert = is_rk_critical(g, 3, 0)
    assert cert.to_json() == {"kind": "parity", "s_set": [], "t_set": [], "deficiency": 1}
    lam = spectral_radius(g).lam
    cand = {
        "graph": serialize_graph(g),
        "lambda": lam,
        "lambda_family": lam,
        "certificate": cert.to_json(),
    }
    ce = {"kind": "explorer-candidates", "r": 3, "k": 0, "candidates": [cand]}
    assert revalidate_counterexample(ce)
    cand["certificate"] = {**cert.to_json(), "deficiency": deficiency}
    assert revalidate_counterexample(ce) is False


def test_revalidate_explorer_kinds_enforce_family_radius():
    # a candidate whose radius is far below the family's cannot stand:
    # the explorer itself rejects it, so both kinds must agree
    g = complete_bipartite(1, 3)
    cert = is_rk_critical(g, 2, 0)
    cand = {
        "graph": serialize_graph(g),
        "lambda": spectral_radius(g).lam,
        "lambda_family": 100.0,
        "certificate": cert.to_json(),
    }
    assert not revalidate_counterexample(
        {"kind": "explorer-candidates", "r": 2, "k": 0, "candidates": [cand]}
    )
    assert revalidate_counterexample(
        {"kind": "candidate-revalidation-failure", "r": 2, "k": 0, **cand}
    )


def test_revalidate_hong_kind():
    # K_3 + K_2 attains the bound (radius 2) although its degrees {1, 2}
    # are neither regular nor in {delta, n-1}
    ce = {
        "kind": "hong-equality-mismatch",
        "graph": serialize_graph(disjoint_union(complete_graph(3), complete_graph(2))),
        "lambda": 2.0,
        "bound": 2.0,
        "expected_equality": False,
    }
    assert revalidate_counterexample(ce)
    # C_5 is regular and attains the bound, as the characterization says
    ce["graph"] = serialize_graph(cycle_graph(5))
    assert not revalidate_counterexample(ce)


def test_revalidate_curve_kind():
    ce = {"kind": "curve-monotonicity-violation", "p": 6, "q": 12, "x_low": 0.0, "x_high": 1.0}
    assert not revalidate_counterexample(ce)
    # read backwards the decreasing curve rises
    ce["x_low"], ce["x_high"] = 5.0, 0.0
    assert revalidate_counterexample(ce)


def test_revalidate_shape_kind(monkeypatch):
    n = size_min_n(1, 2, 0)
    f = extremal_graph(ExtremalParams(1, 2, 0, n))
    ce = _family_record("hypothesis-shape-mismatch", 1, 2, 0, n, f, route="integral")
    assert not revalidate_counterexample(ce)
    # an extremal_graph that returns K_n gives a real mismatch, on K_n alone
    monkeypatch.setattr(harness, "extremal_graph", lambda fp: complete_graph(fp.n))
    assert revalidate_counterexample({**ce, "graph": serialize_graph(complete_graph(n))})
    assert revalidate_counterexample(ce) is False


def test_revalidate_perron_kind(monkeypatch):
    a, b, k = 2, 3, 0
    n = bracket_min_n(a, b, k)
    f = extremal_graph(ExtremalParams(a, b, k, n))
    ce = _family_record("perron-system-residual", a, b, k, n, f)
    assert not revalidate_counterexample(ce)
    monkeypatch.setattr(harness, "RESIDUAL_TOL", 0.0)
    assert revalidate_counterexample(ce)
    # K_n breaks the first identity, but it is not the instance the check builds
    assert revalidate_counterexample({**ce, "graph": serialize_graph(complete_graph(n))}) is False


def test_revalidation_ignores_tolerances_written_into_the_counterexample():
    # each healthy instance stays healthy whatever tolerance its JSON
    # claims: the check's own constants decide, as they did when it ran
    a, b, k = 2, 3, 0
    n = bracket_min_n(a, b, k)
    family = list(enumerate_family(ExtremalParams(3, 3, 0, 16)))
    forged = [
        _family_record(
            "spectral-out-of-interval", 1, 2, 0, 6, extremal_graph(ExtremalParams(1, 2, 0, 6)),
            margin=10,
        ),
        _family_record(
            "spectral-not-dominated", 3, 3, 0, 16, family[0],
            rival=serialize_graph(family[1]), margin=10,
        ),
        {
            "kind": "perron-system-residual",
            "graph": serialize_graph(extremal_graph(ExtremalParams(a, b, k, n))),
            **{"a": a, "b": b, "k": k, "n": n},
            "residual_tol": 0,
            "ratio_tol": 0,
        },
        {
            "kind": "monotonicity-violation",
            "graph": serialize_graph(cycle_graph(5)),
            "removed": [[0, 1]],
            "margin": 10,
        },
        {
            "kind": "rotation-violation",
            "graph": serialize_graph(cycle_graph(5)),
            **{"u": 0, "v": 2, "moved": [3]},
            "margin": 10,
        },
    ]
    for ce in forged:
        assert revalidate_counterexample(ce) is False, ce["kind"]


def _f(a: int, b: int, k: int, n: int):
    return extremal_graph(ExtremalParams(a, b, k, n))


# each record claims instance values the check never computed; the fields
# a revalidation before the rebuild read are kept, with (a, b, k, n) added
FORGED_INSTANCE_VALUES = {
    "interval-on-c5": _family_record(
        "spectral-out-of-interval", 1, 2, 0, 6, cycle_graph(5),
        **{"lower": 3.0, "upper": 4.0, "lambda": 2.0},
    ),
    "edge-count-expected-0": _family_record(
        "edge-count-mismatch", 2, 3, 0, 11, _f(2, 3, 0, 11), route="integral", expected=0
    ),
    "f-as-its-own-rival": _family_record(
        "spectral-not-dominated", 3, 3, 0, 16, _f(3, 3, 0, 16),
        rival=serialize_graph(_f(3, 3, 0, 16)),
    ),
    "perron-on-k11": _family_record("perron-system-residual", 2, 3, 0, 11, complete_graph(11)),
    "shape-on-k5": _family_record(
        "hypothesis-shape-mismatch", 1, 2, 0, 16, complete_graph(5),
        route="integral", expected_min_degree=0,
    ),
    "certificate-expects-5": _family_record(
        "certificate-mismatch", 1, 2, 0, 16, _f(1, 2, 0, 16),
        route="integral", expected_s_set=[5], expected_deficiency=1, got=None,
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED_INSTANCE_VALUES))
def test_forged_instance_values_do_not_reproduce(name):
    # evidence rebuilds F, the class representatives, the bracket, the
    # edge count, the degree a + k and the block from (a, b, k, n), and a
    # graph or rival that is not the rebuilt instance does not reproduce
    assert revalidate_counterexample(FORGED_INSTANCE_VALUES[name]) is False


def test_revalidate_unknown_kind():
    for ce in ({"kind": "no-such-kind"}, {}):
        with pytest.raises(ValueError):
            revalidate_counterexample(ce)


# -- battery ---------------------------------------------------------------------------


def test_battery_plan_names_are_runnable():
    plan = battery_plan("quick", seed=0)
    assert len(plan) > 10
    names = {name for name, _ in plan}
    assert "family-radius-bracket" in names
    assert "conjecture-explorer" in names
    with pytest.raises(ValueError):
        battery_plan("medium")
    with pytest.raises(ValueError):
        run_check("no-such-check", {})


def test_full_battery_runs_every_check_and_target():
    plan = battery_plan("full", seed=0)
    assert {name for name, _ in plan} == set(_CHECK_FUNCTIONS)
    # one sharpness instance per route the spectral condition covers
    routes = [kw["route"] for name, kw in plan if name == "sharpness"]
    assert routes == ["integral", "fractional"]


def test_run_check_dispatch():
    r = run_check("family-radius-bracket", {"a": 1, "b": 2, "k": 0, "n": 10})
    assert isinstance(r, CheckResult)
    assert r.status == "pass"
    j = r.to_json()
    assert j["check_id"] == "family-radius-bracket"
    assert j["counterexample"] is None


GOLDEN_QUICK = Path(__file__).parent / "data" / "verify_quick_seed0.jsonl"


def _assert_same_record(got, want, path="record"):
    """Exact match on everything but floats, which may differ by libm
    rounding (the Perron metrics use float powers): rel 1e-9."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same_record(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_record(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == want or math.isclose(got, want, rel_tol=1e-9), (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_readme_library_block_runs():
    # the README's library example runs as printed, quick battery included
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "quotient_matrix" in block
    exec(compile(block, "README.md", "exec"), {})


def test_quick_battery_all_pass():
    results = [run_check(name, kwargs) for name, kwargs in battery_plan("quick", seed=0)]
    for r in results:
        assert r.status == "pass", (r.check_id, r.params, r.notes)
    # the records are those of `factor-spectra verify --level quick --seed 0`
    golden = [json.loads(line) for line in GOLDEN_QUICK.read_text().splitlines()]
    records = [json.loads(json.dumps(r.to_json())) for r in results]
    assert len(records) == len(golden)
    for got, want in zip(records, golden):
        _assert_same_record(got, want, want["check_id"])


# -- fail paths --------------------------------------------------------------------------

# (predicate forced True, check call on a healthy instance, counterexample kind)
FAIL_PATHS = [
    ("_outside_interval", lambda: check_family_radius_bracket(1, 2, 0, 10), "spectral-out-of-interval"),
    ("_not_dominated", lambda: check_family_maximality(3, 3, 0, 16), "spectral-not-dominated"),
    ("_shape_off", lambda: check_edge_count_sharpness(1, 2, 0, 16), "hypothesis-shape-mismatch"),
    ("_edge_count_off", lambda: check_edge_count_sharpness(1, 2, 0, 16), "edge-count-mismatch"),
    ("_certificate_off", lambda: check_edge_count_sharpness(1, 2, 0, 16), "certificate-mismatch"),
    ("_certificate_off", lambda: check_edge_count_sharpness(2, 3, 1, 30), "certificate-mismatch"),
    ("_shape_off", lambda: check_sharpness(1, 2, 0, 40, "integral"), "hypothesis-shape-mismatch"),
    ("_certificate_off", lambda: check_sharpness(1, 2, 0, 40, "fractional"), "certificate-mismatch"),
    ("_perron_off", lambda: check_perron_system(2, 3, 0, 11), "perron-system-residual"),
    ("_decider_disagrees", lambda: cross_validate_deciders(4, [("integral", 1, 2, 0)]), "decider-disagreement"),
    ("_decider_disagrees", lambda: cross_validate_deciders(4, [("parity", 2, 0)]), "decider-disagreement"),
    ("_hong_off", lambda: check_hong_bound(3), "hong-equality-mismatch"),
    ("_curve_rises", lambda: check_hong_bound(2), "curve-monotonicity-violation"),
    ("_not_lowered", lambda: check_subgraph_monotonicity(5), "monotonicity-violation"),
    ("_not_raised", lambda: check_edge_rotation(5), "rotation-violation"),
    ("_candidate_fails", lambda: explore_conjecture(2, 0, 8, 150, seed=5), "candidate-revalidation-failure"),
]


@pytest.mark.parametrize(
    "predicate, check, kind", FAIL_PATHS, ids=[f"{p}-{i}" for i, (p, _, _) in enumerate(FAIL_PATHS)]
)
def test_fail_path_counterexample_rechecks(monkeypatch, predicate, check, kind):
    # forcing a check's predicate fails it on a healthy instance, so its
    # counterexample must be readable and must not reproduce
    monkeypatch.setattr(harness, predicate, lambda *args: True)
    r = check()
    assert r.status == "fail"
    assert r.counterexample["kind"] == kind
    assert kind in _COUNTEREXAMPLES
    assert revalidate_counterexample(r.counterexample) is False


@pytest.mark.parametrize(
    "predicate, check, kind", FAIL_PATHS, ids=[f"{p}-{i}" for i, (p, _, _) in enumerate(FAIL_PATHS)]
)
def test_fail_path_counterexample_reproduces_when_its_predicate_holds(
    monkeypatch, predicate, check, kind
):
    # the evidence of every genuine record is well formed and names the
    # instance the check built, so with its predicate forced it reproduces
    monkeypatch.setattr(harness, predicate, lambda *args: True)
    r = check()
    monkeypatch.setitem(_COUNTEREXAMPLES, kind, (lambda *args: True, _COUNTEREXAMPLES[kind][1]))
    assert revalidate_counterexample(r.counterexample) is True


@pytest.mark.parametrize(
    "predicate, check",
    [("_not_lowered", check_subgraph_monotonicity), ("_not_raised", check_edge_rotation)],
)
def test_perturbation_fail_reports_instances(monkeypatch, predicate, check):
    # both perturbation suites report how many instances they built, on
    # their fail path as on their pass path
    monkeypatch.setattr(harness, predicate, lambda *args: True)
    r = check(5)
    assert r.status == "fail"
    assert r.metrics["instances"] == 1


def test_sharpness_checks_share_one_certificate_fail_shape(monkeypatch):
    # both sharpness checks report a certificate mismatch the same way:
    # the route in the notes and no block deficiency in the metrics
    monkeypatch.setattr(harness, "_certificate_off", lambda *args: True)
    size = check_edge_count_sharpness(2, 3, 1, 30)
    spectral = check_sharpness(1, 2, 0, 40, "fractional")
    for r in (size, spectral):
        assert r.status == "fail"
        assert r.counterexample["kind"] == "certificate-mismatch"
        assert "block_deficiency" not in r.metrics
        assert revalidate_counterexample(r.counterexample) is False
    assert size.notes == spectral.notes == "fixed-certificate route"


def test_fail_paths_raise_every_registered_kind():
    raised = {kind for _, _, kind in FAIL_PATHS}
    assert raised | {"explorer-candidates"} == set(_COUNTEREXAMPLES)
