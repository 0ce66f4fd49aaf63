"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    code, result = run_bench(workload, trace)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["failed"] == 0  # every workload's inputs are within the program's limits


def test_run_fails_without_package_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


# -- inputs ------------------------------------------------------------------------


def test_graph6_codec_matches_the_format():
    assert inputs.encode_graph6(4, [(0, 1), (0, 2), (0, 3)]) == "Cs"
    n, edges = 9, inputs.path(9)
    assert inputs.decode_graph6(inputs.encode_graph6(n, edges)) == (n, edges)


def test_power_step_estimate_tracks_the_solver():
    # spectral_radius needs 24,080 steps on the 200-vertex path
    assert abs(oracles.predicted_power_steps(200, inputs.path(200)) - 24080) < 100
    assert not oracles.beyond_power_limit(62, inputs.path(62))
    assert oracles.beyond_power_limit(*inputs.twin_hub_caterpillar())


# -- oracles reject corrupted outputs ------------------------------------------------

STAR = (4, [(0, 1), (0, 2), (0, 3)])
K5 = (5, [(u, v) for v in range(5) for u in range(v)])
STAR_CERT = {"kind": "integral", "s_set": [0], "t_set": [1, 2, 3], "deficiency": 1}
P4 = (4, inputs.path(4))
P4_CERT = {"kind": "parity", "s_set": [], "t_set": [0], "deficiency": 2}


def test_decision_oracle_accepts_right_verdicts():
    assert oracles.check_decision(*STAR, "integral", (1, 2, 0), False, STAR_CERT) is None
    assert oracles.check_decision(*K5, "integral", (1, 2, 1), True, None) is None
    assert oracles.check_decision(*K5, "fractional", (2, 3, 1), True, None) is None
    assert oracles.check_decision(5, inputs.path(5) + [(4, 0)], "parity", (2, 0), True, None) is None
    assert oracles.check_decision(*P4, "parity", (2, 0), False, P4_CERT) is None


def test_decision_oracle_rejects_flipped_verdicts():
    assert oracles.check_decision(*STAR, "integral", (1, 2, 0), True, None)
    assert oracles.check_decision(*STAR, "fractional", (1, 2, 0), True, None)
    assert oracles.check_decision(*P4, "parity", (2, 0), True, None)
    fake = {"kind": "integral", "s_set": [0], "t_set": [], "deficiency": 1}
    assert oracles.check_decision(*K5, "integral", (1, 2, 1), False, fake)


@pytest.mark.parametrize("cert, route", [(STAR_CERT, "integral"), (P4_CERT, "parity")])
@pytest.mark.parametrize("delta", [-1, 1])
def test_certificate_oracle_rejects_deficiency_off_by_one(cert, route, delta):
    graph, params = (STAR, (1, 2, 0)) if route == "integral" else (P4, (2, 0))
    bad = {**cert, "deficiency": cert["deficiency"] + delta}
    assert oracles.check_certificate(*graph, route, params, bad)


def test_lambda_oracle_rejects_a_moved_radius():
    lam = 2 * math.cos(math.pi / 11)
    assert oracles.check_lambda(10, inputs.path(10), lam) is None
    assert oracles.check_lambda(10, inputs.path(10), lam + 1e-6)
    assert oracles.check_lambda(10, inputs.path(10), lam - 1e-6)


def _explore_result(**metrics):
    lam_f = oracles.reference_lambda(12, oracles.extremal_edges(2, 2, 0, 12))
    base = {"evaluations": 100, "isomorphic_excluded": 1, "lambda_family": lam_f, "candidates": 0}
    return {"status": "pass", "metrics": {**base, **metrics}, "counterexample": None}


def test_explore_oracle_rejects_corrupted_results():
    assert oracles.check_explore(_explore_result(), 2, 0, 12, 100) is None
    assert oracles.check_explore(_explore_result(evaluations=99), 2, 0, 12, 100)
    assert oracles.check_explore(_explore_result(isomorphic_excluded=0), 2, 0, 12, 100)
    assert oracles.check_explore(_explore_result(lambda_family=8.0), 2, 0, 12, 100)
    assert oracles.check_explore({**_explore_result(), "status": "fail"}, 2, 0, 12, 100)


def test_crossval_oracle_counts_pairs():
    grid = [["integral", 2, 3, 0], ["parity", 2, 1]]
    metrics = {"graphs": 27476, "compared_integral": 27474, "compared_fractional": 0, "compared_parity": 27470}
    assert oracles.check_crossval({"status": "pass", "metrics": metrics}, grid) is None
    off = {**metrics, "compared_parity": 27469}
    assert oracles.check_crossval({"status": "pass", "metrics": off}, grid)


# -- tracing -------------------------------------------------------------------------


def test_tracer_rebinds_imported_names_and_restores_them():
    from factor_spectra import criticality, factors, graphs
    from tracing import Tracer

    original = factors.find_ab_factor
    tracer = Tracer()
    tracer.install()
    try:
        assert criticality.find_ab_factor is factors.find_ab_factor is not original
        g = graphs.parse_graph6(inputs.encode_graph6(*K5))
        assert criticality.critical_by_definition(g, criticality.FactorParams(1, 2, 1), "integral")
    finally:
        tracer.uninstall()
    assert criticality.find_ab_factor is factors.find_ab_factor is original
    m = tracer.metrics()
    assert m["factors.find_ab_factor.calls"] == 5
    assert m["factors.found_ratio"] == 1.0
    assert m["criticality.critical_by_definition.self_s"] < tracer.end[1] - tracer.start[1]
