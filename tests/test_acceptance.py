"""Acceptance battery: eleven criteria covering everything the toolkit
claims at desk scale.

Each criterion is one test that prints a single PASS/FAIL line (visible
under pytest -s) and enforces its stated runtime budget on top of the
mathematical assertions.  The exhaustive criteria (6-8) check decider
equivalence over every connected graph on at most 6 vertices; the
spectral criteria (1-5, 9-11) pin sharpness, bracketing, maximality,
Perron structure, the degree bound, the perturbation inequalities, and
the counterexample explorer.

Full-scale verification of the asymptotic guarantees is out of reach
here (their hypotheses start around n = 40 while exhaustive enumeration
stops at n = 8), so these criteria verify exactly the finite, checkable
content: the sharpness instances, the characterizations the guarantees
rest on, and every supporting inequality at small order.
"""

from __future__ import annotations

import time

import numpy as np

from factor_spectra.families import ExtremalParams, equitable_partition, extremal_graph
from factor_spectra.harness import (
    bracket_min_n,
    check_edge_count_sharpness,
    check_edge_rotation,
    check_family_maximality,
    check_family_radius_bracket,
    check_hong_bound,
    check_perron_system,
    check_subgraph_monotonicity,
    cross_validate_deciders,
    explore_conjecture,
    maximality_min_n,
    revalidate_counterexample,
    size_min_n,
)
from factor_spectra.spectral import quotient_matrix, spectral_radius


def _grid1() -> list[tuple[int, int, int]]:
    """Criterion 1 grid: a in {1,2,3}, b in {a+1,...,4}, k in {0,1,2}."""
    return [(a, b, k) for a in (1, 2, 3) for b in range(a + 1, 5) for k in (0, 1, 2)]


def _report(num: int, name: str, ok: bool, detail: str,
            elapsed: float, budget: float | None = None) -> None:
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; exceeded {budget:.0f}s budget"
    stamp = f"{elapsed:.1f}s" + (f"/{budget:.0f}s" if budget is not None else "")
    line = f"criterion {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail}; {stamp})"
    print(line)
    assert ok, line


def test_criterion_01_edge_count_sharpness():
    t0 = time.monotonic()
    bad = []
    instances = 0
    for a, b, k in _grid1():
        n0 = size_min_n(a, b, k)
        for n in (n0, n0 + 5):
            res = check_edge_count_sharpness(a, b, k, n)
            instances += 1
            if res.status != "pass":
                bad.append((a, b, k, n, res.status, res.notes))
    _report(1, "edge-count sharpness", not bad,
            f"{instances} instances, failures={bad!r}" if bad
            else f"{instances} instances, S-block deficiency 1 on all",
            time.monotonic() - t0, 10.0)


def test_criterion_02_eigenvalue_bracketing():
    t0 = time.monotonic()
    bad = []
    members = 0
    for a, b, k in _grid1():
        n0 = size_min_n(a, b, k)
        for n in (n0, n0 + 5):
            res = check_family_radius_bracket(a, b, k, n)
            if res.status != "pass":
                bad.append((a, b, k, n, res.status))
            else:
                members += res.metrics["members_checked"]
    _report(2, "eigenvalue bracketing", not bad,
            f"failures={bad!r}" if bad
            else f"{members} family members inside (n-b-2, n-b-1) at 1e-8 margins",
            time.monotonic() - t0, 60.0)


def test_criterion_03_family_maximality():
    t0 = time.monotonic()
    bad = []
    margins = []
    for a in (3, 4):
        for b in (a, a + 1):
            for k in (0, 1):
                n = maximality_min_n(a, b, k)
                res = check_family_maximality(a, b, k, n)
                if res.status != "pass":
                    bad.append((a, b, k, n, res.status))
                elif res.metrics["classes"] > 1:
                    margins.append(res.metrics["lambda_distinguished"]
                                   - res.metrics["lambda_best_rival"])
    _report(3, "family maximality", not bad,
            f"failures={bad!r}" if bad
            else f"8 cells, min rival margin {min(margins):.3e} > 1e-9",
            time.monotonic() - t0, 60.0)


def test_criterion_04_quotient_vs_iteration():
    t0 = time.monotonic()
    worst = 0.0
    instances = 0
    for a, b, k in _grid1():
        n0 = size_min_n(a, b, k)
        for n in (n0, n0 + 5):
            params = ExtremalParams(a, b, k, n)
            g = extremal_graph(params)
            lam_power = spectral_radius(g).lam
            # numpy's general eigensolver on the exact integer quotient
            quo = quotient_matrix(g, equitable_partition(params))
            lam_quotient = max(np.linalg.eigvals(np.array(quo.entries, dtype=float)).real)
            worst = max(worst, abs(lam_power - lam_quotient))
            instances += 1
    _report(4, "quotient vs iteration", worst <= 1e-8,
            f"{instances} instances, worst |difference| {worst:.3e} <= 1e-8",
            time.monotonic() - t0)


def test_criterion_05_perron_system():
    t0 = time.monotonic()
    bad = []
    instances = 0
    for a in (2, 3):
        for b in (3, 4):
            for k in (0, 1):
                n0 = bracket_min_n(a, b, k)
                for n in (n0, n0 + 7):
                    res = check_perron_system(a, b, k, n)
                    instances += 1
                    if res.status != "pass":
                        bad.append((a, b, k, n, res.status, res.notes))
    _report(5, "Perron entry system", not bad,
            f"failures={bad!r}" if bad
            else f"{instances} instances, residuals < 1e-7, ratio error < 1e-6",
            time.monotonic() - t0)


def test_criterion_06_integral_decider_equivalence():
    t0 = time.monotonic()
    items = [("integral", 1, 2, 0), ("integral", 1, 2, 1),
             ("integral", 1, 3, 0), ("integral", 2, 3, 0)]
    res = cross_validate_deciders(6, items)
    _report(6, "integral decider equivalence", res.status == "pass",
            f"{res.metrics['graphs']} connected graphs with n <= 6, "
            f"{res.metrics['compared_integral']} comparisons, zero disagreements"
            if res.status == "pass" else f"counterexample={res.counterexample!r}",
            time.monotonic() - t0, 600.0)


def test_criterion_07_fractional_decider_equivalence():
    t0 = time.monotonic()
    items = [("fractional", a, b, k)
             for a, b in ((1, 1), (1, 2), (2, 2), (2, 3)) for k in (0, 1)]
    res = cross_validate_deciders(6, items)
    _report(7, "fractional decider equivalence", res.status == "pass",
            f"{res.metrics['graphs']} connected graphs with n <= 6, "
            f"{res.metrics['compared_fractional']} comparisons, zero disagreements"
            if res.status == "pass" else f"counterexample={res.counterexample!r}",
            time.monotonic() - t0, 600.0)


def test_criterion_08_parity_decider_equivalence():
    t0 = time.monotonic()
    items = [("parity", 2, 0), ("parity", 2, 1)]
    res = cross_validate_deciders(6, items)
    _report(8, "parity decider equivalence", res.status == "pass",
            f"{res.metrics['graphs']} connected graphs with n <= 6, "
            f"{res.metrics['compared_parity']} comparisons, zero disagreements"
            if res.status == "pass" else f"counterexample={res.counterexample!r}",
            time.monotonic() - t0, 600.0)


def test_criterion_09_hong_bound():
    t0 = time.monotonic()
    res = check_hong_bound(6, curve_points=100)
    _report(9, "degree-based radius bound", res.status == "pass",
            f"{res.metrics['graphs']} graphs, {res.metrics['equality_cases']} equality "
            f"cases, worst overrun {res.metrics['worst_overrun']:.1e}, curve monotone "
            f"on {res.params['curve_points']}-point grids"
            if res.status == "pass" else f"counterexample={res.counterexample!r}",
            time.monotonic() - t0)


def test_criterion_10_perturbation_suites():
    t0 = time.monotonic()
    mono = check_subgraph_monotonicity(200, seed=0)
    rot = check_edge_rotation(200, seed=0)
    ok = mono.status == "pass" and rot.status == "pass"
    _report(10, "perturbation property suites", ok,
            f"200+200 instances, min radius drop {mono.metrics['min_drop']:.3e}, "
            f"min rotation gain {rot.metrics['min_gain']:.3e}"
            if ok else f"mono={mono.status} rot={rot.status}",
            time.monotonic() - t0)


def test_criterion_11_conjecture_explorer():
    t0 = time.monotonic()
    first = explore_conjecture(2, 0, 12, 10000, seed=11)
    second = explore_conjecture(2, 0, 12, 10000, seed=11)
    ok = first.status == "pass"
    detail = []
    if first.metrics.get("isomorphic_excluded", 0) < 1:
        ok = False
        detail.append("never excluded the distinguished member by isomorphism")
    if first.to_json() != second.to_json():
        ok = False
        detail.append("two runs with the same seed disagreed")
    if first.counterexample is not None and not revalidate_counterexample(first.counterexample):
        ok = False
        detail.append("reported candidates did not re-validate")
    _report(11, "conjecture explorer", ok,
            "; ".join(detail) if detail else
            f"budget 10000 spent, {first.metrics['qualifying']} qualifying, "
            f"{first.metrics['isomorphic_excluded']} isomorphic exclusions, "
            f"{first.metrics['candidates']} candidates, seed-reproducible",
            time.monotonic() - t0)
